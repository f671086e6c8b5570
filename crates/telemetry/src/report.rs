//! The crate's JSON codec: the one reader and writer behind every JSON
//! artifact the workspace reads back — Chrome traces
//! ([`crate::validate_chrome_trace`]), run reports (`bionic_bench::report`)
//! and the benchmark's result lines. (It keeps the `report` name because
//! run reports were its first user and `benchmark/` imports it by path.)
//!
//! The crate has no serde (vendored-deps-only build), so JSON is
//! hand-rolled both ways: [`JsonValue`] is written with a fixed key
//! order and parsed by a small recursive-descent reader in one linear
//! pass. Numbers are kept as their **raw source tokens** end to end —
//! readers parse them to `f64` only to compare, never to re-format —
//! which makes parse → render round trips byte-exact.

use crate::export::json_escape;

/// A parsed or under-construction JSON value. Object keys keep insertion
/// order; numbers keep their raw token so round-trips are byte-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"1.234e6"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Numeric view of this value (`Num` tokens parsed as `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// String view of this value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view of this value.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render as compact JSON, keys in stored order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(s) => out.push_str(s),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Is `s` a valid JSON number token? (Strict: what the writer may emit
/// unquoted.)
pub fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.is_empty() {
        return false;
    }
    if b[i] == b'-' {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i > int_start + 1) {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Parse one JSON document in time linear in its length. Number tokens
/// must pass [`is_json_number`]; every escape decodes (a `\uXXXX` naming
/// a lone surrogate becomes U+FFFD).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        if is_json_number(tok) {
            Ok(JsonValue::Num(tok.to_string()))
        } else {
            Err(format!("bad number {tok:?} at offset {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| {
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                                })
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.i))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the source text; checking only the run (never the
                    // rest of the document) keeps the reader linear.
                    let run = self.b[self.i..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(self.b.len() - self.i);
                    let text = std::str::from_utf8(&self.b[self.i..self.i + run])
                        .map_err(|e| e.to_string())?;
                    out.push_str(text);
                    self.i += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_tokens_survive_verbatim() {
        let json = "{\"a\":[1.230e6,0.5,-3,\"x\"]}";
        let v = parse_json(json).expect("parse");
        assert_eq!(v.to_json(), json);
    }

    #[test]
    fn is_json_number_is_strict() {
        for good in ["0", "-1", "12.5", "1.234e6", "3e-2", "0.500"] {
            assert!(is_json_number(good), "{good}");
        }
        for bad in ["", "01", "+1", ".5", "1.", "1e", "nan", "inf", "1 "] {
            assert!(!is_json_number(bad), "{bad}");
        }
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse_json(r#""q\"s\\l\/n\nr\rt\tb\bf\fu\u00e9\u2603""#).expect("parse");
        assert_eq!(
            v,
            JsonValue::Str("q\"s\\l/n\nr\rt\tb\u{8}f\u{c}u\u{e9}\u{2603}".into())
        );
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\u12g4""#,
            r#""open"#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn multibyte_text_between_escapes_is_kept() {
        let v = parse_json(r#"["naïve ☃ 𝄞", "a\"é"]"#).expect("parse");
        assert_eq!(v.to_json(), r#"["naïve ☃ 𝄞","a\"é"]"#);
    }
}
