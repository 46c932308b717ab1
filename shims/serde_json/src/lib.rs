//! Offline JSON renderer/parser over the serde shim's [`Value`] model.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};
use std::fmt::Write as _;

/// Serialize `value` to compact JSON text. A [`Value::Bytes`] anywhere
/// in it is an error: JSON text has no form for raw bytes.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value())?;
    Ok(out)
}

/// Serialize `value` to indented JSON text (errors as [`to_string`]).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0)?;
    Ok(out)
}

/// Nesting cap for arrays and objects, as in real serde_json: the
/// parser recurses once per level, so without a cap one small frame of
/// `[` bytes overflows the decoding thread's stack.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), at: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.at)));
    }
    T::from_value(v)
}

/// Parse exactly one JSON value from the front of `bytes`, returning it
/// and the offset of the first byte after it; what follows is not read.
///
/// The value itself must be UTF-8, as [`from_str`]'s input is: every
/// byte the parser accepts outside a string is ASCII syntax, and each
/// string's text is checked as it is copied.
pub fn from_slice_prefix<T: Deserialize>(bytes: &[u8]) -> Result<(T, usize), Error> {
    let mut p = Parser { bytes, at: 0 };
    let v = p.value(0)?;
    Ok((T::from_value(v)?, p.at))
}

/// Escape `s` as a JSON string. Every byte that needs an escape is
/// ASCII, so the runs between them are whole UTF-8 text and each is
/// copied with one `push_str`.
fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        // Keep it a JSON number that parses back as float-compatible.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no inf/nan; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val)?;
            }
            out.push('}');
        }
        Value::Bytes(b) => {
            return Err(Error(format!("{} raw bytes have no JSON text form", b.len())));
        }
    }
    Ok(())
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) -> Result<(), Error> {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_value_pretty(out, item, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, val, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => return write_value(out, other),
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes.get(self.at).copied().ok_or_else(|| Error("unexpected end of JSON".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.at += 1;
            Ok(())
        } else {
            Err(Error(format!("expected '{}' at byte {}", b as char, self.at)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.at)))
        }
    }

    /// One value, nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek()? {
            b'[' | b'{' if depth == MAX_DEPTH => Err(Error("recursion limit exceeded".into())),
            b'n' => self.lit("null", Value::Null),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek()? {
                        b',' => self.at += 1,
                        b']' => {
                            self.at += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.at))),
                    }
                }
            }
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.at += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek()? {
                        b',' => self.at += 1,
                        b'}' => {
                            self.at += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.at))),
                    }
                }
            }
            _ => self.number(),
        }
    }

    /// One string. Each run up to the next `"` or `\` is copied
    /// whole (both are ASCII, so a run never splits a character).
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let Some(end) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(Error("unterminated string".into()));
            };
            out.push_str(
                std::str::from_utf8(&rest[..end])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            self.at += end + 1;
            if rest[end] == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.at) else {
                return Err(Error("unterminated escape".into()));
            };
            self.at += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.at..self.at + 4)
                        .ok_or_else(|| Error("bad \\u escape".into()))?;
                    self.at += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
                        16,
                    )
                    .map_err(|_| Error("bad \\u escape".into()))?;
                    out.push(
                        char::from_u32(code).ok_or_else(|| Error("bad \\u codepoint".into()))?,
                    );
                }
                other => return Err(Error(format!("bad escape \\{}", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| Error("bad number".into()))?;
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Value::F64).map_err(|_| Error(format!("bad number {text}")))
        } else if text.starts_with('-') {
            // Parsed signed, so anything below `i64::MIN` is an error
            // rather than a wrapped or panicking negation.
            text.parse::<i64>().map(Value::I64).map_err(|_| Error(format!("bad number {text}")))
        } else {
            text.parse::<u64>().map(Value::U64).map_err(|_| Error(format!("bad number {text}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_value_tree() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(7)),
            ("b".into(), Value::Array(vec![Value::I64(-3), Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("he\"llo\nworld".into())),
            ("d".into(), Value::F64(1.5)),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn typed_round_trip() {
        let xs = vec![(1u64, 2u64), (3, 4)];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[[1,2],[3,4]]");
        let back: Vec<(u64, u64)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn nesting_is_capped_at_128() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).unwrap_err();
        assert_eq!(err.0, "recursion limit exceeded");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(129), "}".repeat(129));
        assert_eq!(from_str::<Value>(&objects).unwrap_err().0, "recursion limit exceeded");
    }

    #[test]
    fn negative_integers_outside_i64_are_errors() {
        assert_eq!(from_str::<Value>("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        for text in ["-9223372036854775809", "-18446744073709551615"] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(err.0.starts_with("bad number"), "{text}: {}", err.0);
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Object(vec![("xs".into(), Value::Array(vec![Value::U64(1)]))]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    /// The escaper this crate shipped before it copied runs: one `char`
    /// at a time. `to_string` must match it byte for byte.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Strings heavy in what escaping and UTF-8 care about: quotes,
    /// backslashes, every control char, DEL, multi-byte chars, and any
    /// other scalar value.
    fn tricky_string() -> impl Strategy<Value = String> {
        let special: Vec<char> = ['"', '\\', '/', 'a', '\u{7f}', 'é', '€', '\u{2028}', '😀']
            .into_iter()
            .chain((0..0x20).map(|c| char::from_u32(c).unwrap()))
            .collect();
        let any_char = any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?'));
        let c = prop_oneof![prop::sample::select(special), any_char];
        prop::collection::vec(c, 0..40).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #[test]
        fn strings_escape_as_the_char_by_char_reference_and_round_trip(s in tricky_string()) {
            let text = to_string(&s).unwrap();
            prop_assert_eq!(&text, &reference_escape(&s));
            prop_assert_eq!(from_str::<String>(&text).unwrap(), s.clone());
            let framed = [text.as_bytes(), b"\xff tail"].concat();
            prop_assert_eq!(from_slice_prefix::<String>(&framed).unwrap(), (s, text.len()));
        }

        #[test]
        fn raw_control_chars_in_a_string_are_accepted(s in tricky_string()) {
            // Escape only what ends a string early; control chars stay raw.
            let raw = s.replace('\\', "\\\\").replace('"', "\\\"");
            prop_assert_eq!(from_str::<String>(&format!("\"{raw}\"")).unwrap(), s);
        }

        #[test]
        fn string_bytes_are_accepted_iff_utf8(
            bytes in prop::collection::vec(any::<u8>(), 0..24)
                .prop_map(|b| b.into_iter().filter(|&b| b != b'"' && b != b'\\').collect::<Vec<u8>>()),
        ) {
            let literal = [&b"\""[..], &bytes, b"\""].concat();
            match (std::str::from_utf8(&bytes), from_slice_prefix::<String>(&literal)) {
                (Ok(s), Ok((parsed, n))) => {
                    prop_assert_eq!(parsed, s.to_string());
                    prop_assert_eq!(n, literal.len());
                }
                (Err(_), Err(e)) => prop_assert_eq!(e.0, "invalid UTF-8 in string"),
                (utf8, parsed) => prop_assert!(false, "utf8 {utf8:?} but parsed {parsed:?}"),
            }
        }
    }

    #[test]
    fn byte_strings_have_no_json_text() {
        let v = Value::Array(vec![Value::Bytes(vec![1, 2, 3])]);
        assert_eq!(to_string(&v).unwrap_err().0, "3 raw bytes have no JSON text form");
        assert!(to_string_pretty(&v).is_err());
    }

    #[test]
    fn a_prefix_parse_stops_after_one_value() {
        let (v, n) = from_slice_prefix::<Value>(b" {\"a\":[1,2]}{\"b\":3}").unwrap();
        assert_eq!(
            v,
            Value::Object(vec![("a".into(), Value::Array(vec![Value::U64(1), Value::U64(2)]))])
        );
        assert_eq!(n, 12);
        assert!(from_slice_prefix::<Value>(b"").is_err());
        assert!(from_slice_prefix::<Value>(b"{\"a\":").is_err());
    }
}
