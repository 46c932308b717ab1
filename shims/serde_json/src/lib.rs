//! Offline JSON renderer/parser over the serde shim's [`Value`] model.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Serialize `value` to indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0);
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
    T::from_value(&v)
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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

fn write_value(out: &mut String, v: &Value) {
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
                write_value(out, item);
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
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_value_pretty(out, item, indent + 1);
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
                write_value_pretty(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
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

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(Error("unterminated string".into()));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
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
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u codepoint".into()))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape \\{}", other as char))),
                    }
                }
                b => {
                    // Re-join multi-byte UTF-8 sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.at - 1;
                        let mut end = self.at;
                        while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| Error("invalid UTF-8 in string".into()))?;
                        out.push_str(s);
                        self.at = end;
                    }
                }
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
}
