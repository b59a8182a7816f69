//! A small, dependency-free JSON encoder/decoder shared by the lab result
//! store and the serve HTTP API.
//!
//! Grown inside `consensus-lab` for its result store, extracted here once
//! the `consensus-serve` service needed to parse request bodies with the
//! same codec (the lab re-exports this crate as `consensus_lab::json`, so
//! existing paths keep working). The consumers need three properties the
//! offline serde stand-in cannot give: key-order-preserving objects (so
//! repeated sweeps emit *byte-identical* JSONL, which the determinism tests
//! compare directly), exact `u64` round-trips for fingerprints (emitted as
//! hex strings), and a parser to read result files and request bodies back.
//! The subset implemented is exactly what the store emits: objects, arrays,
//! strings, integers, floats, bools, and null — no exponent-notation
//! output, and `\uXXXX` escapes on output only for control bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float (always emitted with a decimal point).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on encode.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (also accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value under `key` as a `usize` — the common shape of the
    /// store/persist/meta parsers.
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        usize::try_from(self.get(key)?.as_i64()?).ok()
    }

    /// The numeric payload as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object fields without `keys`, recursively — used by the determinism
    /// tests to compare records modulo timing fields.
    pub fn without_keys(&self, keys: &[&str]) -> Value {
        match self {
            Value::Obj(fields) => Value::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), v.without_keys(keys)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.iter().map(|v| v.without_keys(keys)).collect()),
            other => other.clone(),
        }
    }
}

impl Value {
    /// Append the JSON text of this value to `out` — the one encoder;
    /// [`Display`](fmt::Display) delegates to it.
    ///
    /// Strings are copied one unescaped run at a time, and integers are
    /// formatted by hand, so no `fmt` machinery runs per character or per
    /// integer. Escaped are exactly `"`, `\`, `\n`, `\r`, `\t` and every
    /// other byte below 0x20 (as `\u00xx`); multi-byte UTF-8 is copied as
    /// is. A float prints with one decimal place when it is integral and
    /// below 10^15 in magnitude, in exponent form (`1e20`) when it is
    /// integral and larger, in Rust's shortest round-trip form otherwise,
    /// and as `null` when it is not finite: every finite float reads back
    /// as the float it was.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => push_int(out, *i),
            Value::Float(x) => {
                use fmt::Write;
                let written = if !x.is_finite() {
                    out.push_str("null");
                    Ok(())
                } else if x.fract() != 0.0 {
                    write!(out, "{x}")
                } else if x.abs() < 1e15 {
                    write!(out, "{x:.1}")
                } else {
                    write!(out, "{x:e}")
                };
                written.expect("writing to a String cannot fail");
            }
            Value::Str(s) => push_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

fn push_int(out: &mut String, i: i64) {
    // 19 digits hold |i64::MIN|.
    let mut digits = [0u8; 19];
    let mut at = digits.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so each run between two of
    // them starts and ends on a character boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container-nesting depth accepted by [`parse`]. The parser
/// recurses per nesting level, and `consensus-serve` feeds it untrusted
/// request bodies — without a cap, a kilobyte of `[`s would overflow the
/// parsing thread's stack and abort the process. Everything this
/// workspace emits nests single-digit deep.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Parse one JSON value from `input` (trailing whitespace allowed).
///
/// # Errors
/// Returns [`ParseError`] on malformed input, trailing garbage, or
/// nesting beyond [`MAX_PARSE_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_PARSE_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError { at, message: message.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[' | b'{') if depth == 0 => Err(err(*pos, "nesting too deep")),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            let mut seen = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if seen.insert(key.clone(), ()).is_some() {
                    return Err(err(*pos, &format!("duplicate key {key:?}")));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not produced by our encoder; reject.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "unsupported \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 is passed through. Decode only this one
                // character (length from the lead byte) — validating the
                // whole remaining input per character is quadratic, which
                // untrusted megabyte-scale strings turn into a CPU sink.
                let len = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(err(*pos, "invalid UTF-8")),
                };
                let chunk =
                    bytes.get(*pos..*pos + len).ok_or_else(|| err(*pos, "invalid UTF-8"))?;
                let c = std::str::from_utf8(chunk)
                    .map_err(|_| err(*pos, "invalid UTF-8"))?
                    .chars()
                    .next()
                    .expect("nonempty");
                out.push(c);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if float {
        text.parse::<f64>().map(Value::Float).map_err(|_| err(start, "bad number"))
    } else {
        text.parse::<i64>().map(Value::Int).map_err(|_| err(start, "bad number"))
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn roundtrip_object() {
        let v = obj(&[
            ("name", Value::Str("sw-lossy-link".into())),
            ("depth", Value::Int(4)),
            ("wall_ms", Value::Float(1.5)),
            ("ok", Value::Bool(true)),
            ("chain", Value::Null),
            ("sizes", Value::Arr(vec![Value::Int(1), Value::Int(2)])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let v = obj(&[("b", Value::Int(1)), ("a", Value::Int(2))]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}ü".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Strings decode one character at a time; re-validating the whole
        // remaining input per character is quadratic, which a single
        // megabyte-scale string in an untrusted 4 MiB HTTP body turns
        // into minutes of CPU. Multi-byte chars keep the same fast path.
        let body = format!("{{\"spec\":\"{}\"}}", "repeat(↔ ".repeat(150_000));
        let start = std::time::Instant::now();
        let v = parse(&body).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "parsing a {} byte string took {:?}",
            body.len(),
            start.elapsed()
        );
        // 11 bytes per repetition: "repeat(" + 3-byte ↔ + space.
        assert_eq!(v.get("spec").unwrap().as_str().unwrap().len(), 11 * 150_000);
    }

    #[test]
    fn u64_fingerprints_survive_as_strings() {
        let fp = u64::MAX;
        let v = obj(&[("fingerprint", Value::Str(format!("{fp:016x}")))]);
        let back = parse(&v.to_string()).unwrap();
        let hex = back.get("fingerprint").unwrap().as_str().unwrap();
        assert_eq!(u64::from_str_radix(hex, 16).unwrap(), fp);
    }

    #[test]
    fn without_keys_strips_recursively() {
        let v = obj(&[
            ("keep", Value::Int(1)),
            ("wall_ms", Value::Int(9)),
            ("inner", obj(&[("wall_ms", Value::Int(3)), ("x", Value::Int(4))])),
        ]);
        let stripped = v.without_keys(&["wall_ms"]);
        assert_eq!(stripped.to_string(), r#"{"keep":1,"inner":{"x":4}}"#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn rejects_excessive_nesting_instead_of_overflowing() {
        // The serve API parses untrusted bodies with this function; a
        // nesting bomb must be a parse error, not a stack overflow.
        let bomb = "[".repeat(500_000);
        let error = parse(&bomb).unwrap_err();
        assert!(error.message.contains("nesting too deep"), "{error}");
        let object_bomb = "{\"k\":".repeat(MAX_PARSE_DEPTH + 1);
        let error = parse(&object_bomb).unwrap_err();
        assert!(error.message.contains("nesting too deep"), "{error}");
        // Depths at the cap still parse.
        let deep = format!("{}1{}", "[".repeat(MAX_PARSE_DEPTH), "]".repeat(MAX_PARSE_DEPTH));
        assert!(parse(&deep).is_ok());
    }
}
