//! A minimal JSON document model with a parser and writers.
//!
//! The workspace must build with no registry access, so this crate replaces
//! `serde`/`serde_json` for the two places that need JSON: schedule
//! persistence and Chrome-trace export. Objects preserve insertion order, so
//! serialisation is deterministic — a requirement for golden-file tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or extraction error with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a small hostile file
/// overflow the stack; every document the workspace writes nests fewer than
/// ten levels.
const MAX_DEPTH: usize = 128;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object node from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value under `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// This node as f64.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => err(format!("expected number, got {other:?}")),
        }
    }

    /// This node as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return err(format!("expected unsigned integer, got {n}"));
        }
        Ok(n as u64)
    }

    /// This node as i64 (must be an integer).
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || n < i64::MIN as f64 || n > i64::MAX as f64 {
            return err(format!("expected integer, got {n}"));
        }
        Ok(n as i64)
    }

    /// This node as u32.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_u64()?).map_err(|_| JsonError("u32 out of range".into()))
    }

    /// This node as bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {other:?}")),
        }
    }

    /// This node as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// This node as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(a) => Ok(a),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Parses a JSON document from text. Arrays and objects nested more
    /// than 128 levels deep are an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact serialisation.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialisation with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Appends `n` as [`Json::to_compact`] writes a number: integers below 9e15
/// without a fraction, anything else in Rust's shortest round-trip form.
pub fn write_num(out: &mut String, n: f64) {
    use fmt::Write;
    // Writing into a `String` cannot fail.
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Ryū-style shortest float formatting is what `{}` gives us; it
        // round-trips through the parser exactly.
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted, escaped JSON string, as [`Json::to_compact`]
/// writes one.
pub fn write_str(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
            None => err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        let mut keys = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if keys.insert(key.clone(), ()).is_some() {
                return err(format!("duplicate key `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("invalid \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("invalid \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("invalid codepoint".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both are
                    // ASCII, so the run ends on a char boundary of the input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(
                        self.text
                            .get(self.pos..self.pos + run)
                            .ok_or_else(|| JsonError("invalid utf-8".into()))?,
                    );
                    self.pos += run;
                }
                None => return err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = Json::obj(vec![
            ("name", Json::from("ring — αβ")),
            ("count", Json::from(42u64)),
            ("neg", Json::from(-7i64)),
            ("ratio", Json::from(1.35)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::from(1u64), Json::from(2u64)])),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
    }

    #[test]
    fn parses_multibyte_scalars() {
        // 2-, 3- and 4-byte UTF-8 scalars, alone and between ASCII runs.
        for s in ["é", "ab€cd", "𝄞", "x é € 𝄞 y", "ÿ€𝄞ÿ"] {
            let doc = format!("\"{s}\"");
            assert_eq!(Json::parse(&doc).unwrap(), Json::from(s), "{s}");
        }
    }

    #[test]
    fn parses_every_escape() {
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\u20ac""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\"\\/\u{8}\u{c}\n\r\té€");
        assert!(Json::parse(r#""\x""#).is_err());
        assert!(Json::parse(r#""\u12""#).is_err());
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn unterminated_strings_are_typed_errors() {
        for doc in [
            "\"",
            "\"abc",
            "\"é€𝄞",
            "\"abc\\",
            "\"abc\\\"",
            "[\"a",
            "{\"k",
        ] {
            let e = Json::parse(doc).unwrap_err();
            assert!(!e.0.is_empty(), "{doc}");
        }
        assert_eq!(
            Json::parse("\"abc").unwrap_err(),
            JsonError("unterminated string".into())
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é".repeat(1 << 20);
        let doc = format!("[\"{body}\", \"{body}\"]");
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap()[1].as_str().unwrap().len(), 2 << 20);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        // A million levels would overflow a 2 MB test thread if the
        // recursive descent were unbounded.
        let n = 1_000_000;
        let e = Json::parse(&"[".repeat(n)).unwrap_err();
        assert_eq!(e.0, "nesting deeper than 128 levels at byte 128");
        let e = Json::parse(&"{\"a\":".repeat(n)).unwrap_err();
        assert_eq!(e.0, "nesting deeper than 128 levels at byte 640");
        // The cap itself still parses.
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&doc).is_ok());
        let doc = format!("[{doc}]");
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn integer_extraction_checks_range() {
        assert_eq!(Json::Num(7.0).as_u64().unwrap(), 7);
        assert!(Json::Num(-1.0).as_u64().is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
        assert_eq!(Json::Num(-3.0).as_i64().unwrap(), -3);
    }

    #[test]
    fn object_order_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn large_integers_written_exactly() {
        let n = 1_234_567_890_123u64;
        let v = Json::from(n);
        assert_eq!(v.to_compact(), "1234567890123");
        assert_eq!(Json::parse("1234567890123").unwrap().as_u64().unwrap(), n);
    }
}
