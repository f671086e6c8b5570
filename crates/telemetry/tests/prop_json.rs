//! Properties of the workspace's one JSON reader,
//! [`bionic_telemetry::report::parse_json`], and the trace validator built
//! on it (ROADMAP item 5): neither panics on any input, generated value
//! trees round-trip byte-exact through the writer, and a multi-megabyte
//! trace parses in linear time.

use bionic_sim::time::SimTime;
use bionic_telemetry::report::{is_json_number, parse_json, JsonValue};
use bionic_telemetry::{validate_chrome_trace, Telemetry};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::time::{Duration, Instant};

/// An exported trace of `spans` spans, alternating core spans (`B`/`E`
/// pairs) with unit busy marks (`X` events).
fn exported_trace(spans: u64) -> String {
    let mut tel = Telemetry::disabled();
    tel.enable(1, spans as usize);
    for i in 0..spans {
        let start = SimTime::from_ps(i * 1_000);
        let end = start + SimTime::from_ps(900);
        tel.set_txn(i / 2);
        if i % 2 == 0 {
            tel.span(tel.core_track(0), "program", "Xct", start, end);
        } else {
            tel.unit_busy((i % 5) as usize, "probe", "Btree", start, end);
        }
    }
    tel.export_chrome_trace()
}

/// Feed `text` to both readers; all that matters is that they return.
/// (The validator reads through `parse_json`, so every byte it sees, the
/// reader has seen first.)
fn both_return(text: &str) {
    let _ = validate_chrome_trace(text);
}

/// Characters that steer the reader into every branch: structure, escapes,
/// number grammar, literal prefixes, and multi-byte text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', '\\', ':', ',', ' ', '\n', '-', '+', '.', '0', '1', '9', 'e', 'E',
    't', 'r', 'u', 'f', 'a', 'l', 's', 'n', 'b', 'x', 'é', '☃',
];

/// A random string over the whole scalar range, weighted towards what
/// the writer must escape (control characters, quote, backslash).
fn text(rng: &mut TestRng) -> String {
    (0..rng.usize_in(0..8))
        .map(|_| match rng.usize_in(0..4) {
            0 => char::from_u32(rng.usize_in(0..0x20) as u32).unwrap(),
            1 => ['"', '\\', '/', 'é', '☃', '𝄞'][rng.usize_in(0..6)],
            2 => char::from_u32(rng.usize_in(0x20..0x7f) as u32).unwrap(),
            _ => char::from_u32(rng.usize_in(0..0x11_0000) as u32).unwrap_or('\u{FFFD}'),
        })
        .collect()
}

/// A JSON number token drawn from every branch of the grammar.
fn number(rng: &mut TestRng) -> String {
    let digits = |rng: &mut TestRng, n: usize| -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.usize_in(0..10) as u8))
            .collect()
    };
    let mut tok = String::from(["", "-"][rng.usize_in(0..2)]);
    match rng.usize_in(0..3) {
        0 => tok.push('0'),
        _ => tok.push_str(&(1 + rng.usize_in(0..99_999)).to_string()),
    }
    if rng.usize_in(0..2) == 0 {
        let n = rng.usize_in(1..4);
        tok = format!("{tok}.{}", digits(rng, n));
    }
    if rng.usize_in(0..2) == 0 {
        let (e, sign, n) = (
            ["e", "E"][rng.usize_in(0..2)],
            ["", "+", "-"][rng.usize_in(0..3)],
            rng.usize_in(1..4),
        );
        tok = format!("{tok}{e}{sign}{}", digits(rng, n));
    }
    tok
}

fn tree(rng: &mut TestRng, depth: u32) -> JsonValue {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.usize_in(0..kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.usize_in(0..2) == 1),
        2 => JsonValue::Num(number(rng)),
        3 => JsonValue::Str(text(rng)),
        4 => JsonValue::Arr(
            (0..rng.usize_in(0..5))
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Obj(
            (0..rng.usize_in(0..5))
                .map(|_| (text(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Random [`JsonValue`] trees nested up to `depth` levels.
struct Trees {
    depth: u32,
}

impl Strategy for Trees {
    type Value = JsonValue;

    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        tree(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..64),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        both_return(&picks.iter().map(|&i| ALPHABET[i]).collect::<String>());
        both_return(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn value_trees_round_trip_byte_exact(v in Trees { depth: 4 }) {
        let json = v.to_json();
        let back = parse_json(&json).map_err(|e| TestCaseError::fail(format!("{e}: {json}")))?;
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json(), json);
    }
}

#[test]
fn generated_numbers_are_json_tokens() {
    let mut rng = TestRng::from_name("generated_numbers_are_json_tokens");
    for _ in 0..1_000 {
        let tok = number(&mut rng);
        assert!(is_json_number(&tok), "{tok}");
    }
}

#[test]
fn every_truncation_and_byte_change_of_a_trace_returns() {
    let trace = exported_trace(4);
    assert!(trace.is_ascii(), "byte edits below keep the text UTF-8");
    validate_chrome_trace(&trace).expect("the untouched trace is valid");
    let closed = trace.trim_end().len();
    for end in 0..trace.len() {
        both_return(&trace[..end]);
        if end < closed {
            assert!(parse_json(&trace[..end]).is_err(), "prefix {end} parsed");
        }
    }
    let mut bytes = trace.clone().into_bytes();
    for i in 0..bytes.len() {
        let orig = bytes[i];
        for &b in b"{}[]\":,\\ -.0e\0x" {
            bytes[i] = b;
            both_return(std::str::from_utf8(&bytes).expect("ASCII"));
        }
        bytes[i] = orig;
    }
}

/// Guards against re-checking the rest of the document for every
/// character inside a string, which is quadratic: tens of seconds in
/// release on this 2.3 MB trace. Linear, it takes about half a second in
/// debug.
#[test]
fn a_multi_megabyte_trace_parses_in_linear_time() {
    let trace = exported_trace(16_384);
    assert!(trace.len() >= 2_000_000, "{} bytes", trace.len());
    let t = Instant::now();
    let doc = parse_json(&trace).expect("an exported trace parses");
    let elapsed = t.elapsed();
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr);
    assert!(events.is_some_and(|e| e.len() > 16_384));
    assert!(
        elapsed < Duration::from_secs(10),
        "{} bytes took {elapsed:?}",
        trace.len()
    );
    validate_chrome_trace(&trace).expect("and validates");
}
