//! A minimal recursive JSON value — parser and canonical writer — for the
//! workspace's structured wire formats.
//!
//! The container image has no serde, so every textual format in the tree
//! is hand-rolled. [`crate::trace::parse_line`] handles the *flat* NDJSON
//! trace schema; this module is the general form for payloads that nest
//! (the simulation service's `dhtm-svc-v1` protocol, persisted result
//! records): objects, arrays, strings and unsigned 64-bit integers —
//! exactly the vocabulary the workspace's all-integer statistics need, and
//! nothing more. No floats, no booleans, no null: absence of a lossy type
//! is what makes the canonical form byte-stable under round-trips.
//!
//! The writer is canonical: object keys render in insertion order with no
//! whitespace, so `parse(render(v)) == v` *and* `render(parse(s))` is a
//! normal form — the property the content-addressed result store's
//! byte-identity guarantee rests on.

use std::fmt::{self, Write as _};

/// Nesting depth accepted by the parser. Deep enough for any schema in the
/// tree (the deepest real payload nests four levels), shallow enough that a
/// hostile `[[[[…` frame errors out instead of exhausting the stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value: strings, unsigned 64-bit integers, arrays and
/// key-ordered objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string (escapes decoded).
    Str(String),
    /// An unsigned integer. The only number form: the workspace's stats are
    /// all-integer precisely so serialization is exact.
    UInt(u64),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object; pairs keep source/insertion order (the canonical writer
    /// preserves it, so construction order defines the normal form).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the canonical compact form: no whitespace, keys in
    /// insertion order, strings escaped minimally (`"` `\\` control
    /// characters only). `parse(render(v)) == v` for every value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Str(s) => {
                let _ = write!(out, "{}", JsonStr(s));
            }
            JsonValue::UInt(v) => {
                out.push_str(itoa(*v).as_str());
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", JsonStr(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (one value, optional surrounding
    /// whitespace, nothing after it).
    ///
    /// # Errors
    ///
    /// Returns a message locating the first malformed construct.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn itoa(v: u64) -> String {
    v.to_string()
}

/// Displays a string as a JSON string literal: quoted, with `"`, `\\`,
/// `\n`, `\r` and `\t` escaped by name and every other control character
/// as `\u00XX`. The one JSON string writer of the workspace: the canonical
/// [`JsonValue`] form, the NDJSON trace lines and the harness and crash
/// reports all quote through it. (`dhtm_lint` keeps its own copy because
/// `dhtm-analysis` has no dependencies by design.)
///
/// ```
/// use dhtm_obs::json::JsonStr;
/// assert_eq!(JsonStr("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut plain = 0;
        // Every byte to escape is ASCII, so slicing at it keeps the
        // unescaped runs on UTF-8 boundaries.
        for (i, &b) in self.0.as_bytes().iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&self.0[plain..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            plain = i + 1;
        }
        f.write_str(&self.0[plain..])?;
        f.write_char('"')
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                want as char, self.pos, b as char
            )),
            None => Err(format!(
                "expected '{}' at byte {}, found end of input",
                want as char, self.pos
            )),
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b) if b.is_ascii_digit() => Ok(JsonValue::UInt(self.uint()?)),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            self.skip_ws();
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or ']' at byte {}, found {:?}",
                                self.pos,
                                other.map(|b| b as char)
                            ))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                let mut pairs: Vec<(String, JsonValue)> = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                loop {
                    let key = self.string()?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate object key '{key}'"));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            self.skip_ws();
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(pairs));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or '}}' at byte {}, found {:?}",
                                self.pos,
                                other.map(|b| b as char)
                            ))
                        }
                    }
                }
            }
            other => Err(format!(
                "expected a value at byte {}, found {:?}",
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn uint(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(b) = self.peek() {
            if !b.is_ascii_digit() {
                break;
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("integer overflow at byte {start}"))?;
            self.pos += 1;
        }
        // Reject leading zeros ("007") so the canonical form is unique,
        // and bare signs/floats ("1.5", "-1", "1e3") outright.
        let text = &self.bytes[start..self.pos];
        if text.len() > 1 && text[0] == b'0' {
            return Err(format!(
                "non-canonical integer (leading zero) at byte {start}"
            ));
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!(
                "floats are not part of this schema (byte {})",
                self.pos
            ));
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-UTF8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            // Surrogates are not valid scalar values; the
                            // writer never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape at byte {start}: {:?}",
                                other.map(|b| b as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte 0x{b:02x} in string at {start}"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (1-4 bytes).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, JsonValue)]) -> JsonValue {
        JsonValue::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn render_parse_round_trip() {
        let v = obj(&[
            ("name", JsonValue::Str("hash \"quoted\"\n".into())),
            ("count", JsonValue::UInt(u64::MAX)),
            (
                "items",
                JsonValue::Array(vec![
                    JsonValue::UInt(0),
                    JsonValue::Str(String::new()),
                    obj(&[("nested", JsonValue::UInt(7))]),
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        // Canonical: re-rendering the parse is byte-identical.
        assert_eq!(JsonValue::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , \"x\\u0041\\t\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("xA\t")
        );
    }

    #[test]
    fn accessors_behave() {
        let v = obj(&[("k", JsonValue::UInt(3))]);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::UInt(1).get("k"), None);
        assert_eq!(JsonValue::Str("s".into()).as_str(), Some("s"));
        assert!(v.as_object().is_some());
        assert!(v.as_array().is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "true",
            "null",
            "-1",
            "1.5",
            "1e3",
            "007",
            "{\"a\":1}garbage",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"trunc \\u00",
            "{\"dup\":1,\"dup\":2}",
            "18446744073709551616",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_errors_instead_of_overflowing() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(JsonValue::parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn control_characters_render_as_escapes() {
        let v = JsonValue::Str("\u{1}\u{1f}".into());
        assert_eq!(v.render(), "\"\\u0001\\u001f\"");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }
}
