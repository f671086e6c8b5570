//! Chrome trace-event schema validation — the check every exported trace
//! passes before it is written.
//!
//! The document is read by the crate's one JSON reader,
//! [`crate::report::parse_json`], then the event stream is checked:
//!
//! 1. the document is well-formed JSON: an object with a `traceEvents`
//!    array (or a bare array, which the format also allows). Number
//!    tokens must be strict JSON: `1.` or `01` is rejected, deliberately
//!    stricter than `str::parse::<f64>`, which reads both;
//! 2. every event is an object with a string `ph`, and every `B`/`E`/`X`
//!    event carries numeric `ts`, `pid`, and `tid`;
//! 3. per `(pid, tid)` track, `ts` is non-decreasing in file order and
//!    `B`/`E` pairs match like brackets (same name, fully nested);
//! 4. every `X` event carries a numeric `dur`.

use std::collections::BTreeMap;

use crate::report::{parse_json, JsonValue};

/// Validate `text` against the Chrome trace-event schema (see module docs
/// for the exact checks). Returns `Ok(())` or the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let events = match &doc {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            Some(_) => return Err("traceEvents is not an array".to_string()),
            None => return Err("top-level object lacks traceEvents".to_string()),
        },
        _ => return Err("document is neither an object nor an array".to_string()),
    };

    // Per (pid, tid): (last ts seen, stack of open B names).
    let mut tracks: BTreeMap<(i64, i64), (f64, Vec<String>)> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string ph"))?;
        if !matches!(ph, "B" | "E" | "X") {
            continue; // metadata and counter events carry no timeline state
        }
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric pid"))? as i64;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric tid"))? as i64;

        let (last_ts, stack) = tracks
            .entry((pid, tid))
            .or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {i}: ts {ts} decreases on track pid={pid} tid={tid} (prev {last_ts})"
            ));
        }
        *last_ts = ts;

        match ph {
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: B without a name"))?;
                stack.push(name.to_string());
            }
            "E" => {
                let opened = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with no open B on tid={tid}"))?;
                if let Some(name) = ev.get("name").and_then(JsonValue::as_str) {
                    if name != opened {
                        return Err(format!(
                            "event {i}: E name {name:?} does not match open B {opened:?}"
                        ));
                    }
                }
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
            }
            _ => unreachable!(),
        }
    }

    for ((pid, tid), (_, stack)) in &tracks {
        if let Some(name) = stack.last() {
            return Err(format!(
                "unclosed B {name:?} at end of trace on pid={pid} tid={tid}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_minimal_valid_trace() {
        let t = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"core-0"}},
            {"name":"a","cat":"Xct","ph":"B","ts":1.0,"pid":0,"tid":0},
            {"name":"b","cat":"Xct","ph":"B","ts":2.0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":3.0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":4.0,"pid":0,"tid":0},
            {"name":"probe","cat":"Btree","ph":"X","ts":1.5,"dur":0.5,"pid":0,"tid":1}
        ]}"#;
        validate_chrome_trace(t).unwrap();
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
        assert!(validate_chrome_trace("42").is_err());
    }

    #[test]
    fn rejects_decreasing_ts_on_a_track() {
        let t = r#"[
            {"name":"a","ph":"B","ts":5.0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":4.0,"pid":0,"tid":0}
        ]"#;
        let err = validate_chrome_trace(t).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn rejects_unmatched_pairs() {
        let open = r#"[{"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(open)
            .unwrap_err()
            .contains("unclosed"));

        let stray = r#"[{"name":"a","ph":"E","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(stray)
            .unwrap_err()
            .contains("no open B"));

        let crossed = r#"[
            {"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":2.0,"pid":0,"tid":0}
        ]"#;
        assert!(validate_chrome_trace(crossed)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn separate_tracks_are_independent() {
        let t = r#"[
            {"name":"a","ph":"B","ts":5.0,"pid":0,"tid":0},
            {"name":"u","ph":"X","ts":1.0,"dur":1.0,"pid":0,"tid":1},
            {"name":"a","ph":"E","ts":6.0,"pid":0,"tid":0}
        ]"#;
        validate_chrome_trace(t).unwrap();
    }

    /// `str::parse::<f64>` reads both tokens; the JSON grammar, and so
    /// the validator, does not.
    #[test]
    fn rejects_number_tokens_json_does_not_allow() {
        let event =
            |ts: &str| format!(r#"[{{"name":"u","ph":"X","ts":{ts},"dur":1,"pid":0,"tid":0}}]"#);
        validate_chrome_trace(&event("1.5e0")).unwrap();
        for ts in ["1.", "01"] {
            let err = validate_chrome_trace(&event(ts)).unwrap_err();
            assert!(err.contains("bad number"), "{ts}: {err}");
        }
    }

    #[test]
    fn rejects_x_without_dur() {
        let t = r#"[{"name":"u","ph":"X","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(t).unwrap_err().contains("dur"));
    }
}
