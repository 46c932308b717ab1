//! Offline JSON renderer/parser over the serde shim's [`Value`] model.
//!
//! Strings are scanned a word at a time: the renderer and the parser
//! look eight bytes at once for the next byte that needs work (one to
//! escape, or the `"` / `\` that ends a run), copy whole runs between
//! them, and the parser checks a string's UTF-8 once, not once per run.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};
use std::sync::Arc;

/// Serialize `value` to compact JSON text. A [`Value::Bytes`] anywhere
/// in it is an error: JSON text has no form for raw bytes.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::default();
    w.value(&value.to_value())?;
    Ok(w.text())
}

/// Serialize `value` to indented JSON text (errors as [`to_string`]).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut w = Writer::default();
    write_value_pretty(&mut w, &value.to_value(), 0)?;
    Ok(w.text())
}

/// Compact JSON text with its [`Value::Raw`] parts left out of `text`:
/// each part sits beside the offset in `text` where it belongs, so
/// [`Spliced::pieces`] yields [`to_string`]'s bytes without copying a
/// part.
#[derive(Debug, Clone, Default)]
pub struct Spliced {
    /// The text around the parts.
    pub text: String,
    /// Each part, in text order, with its offset in `text`.
    pub parts: Vec<(usize, Arc<str>)>,
}

impl Spliced {
    /// The rendered JSON as slices: text, part, text, …, text.
    pub fn pieces(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut at = 0;
        let text = self.text.as_bytes();
        self.parts
            .iter()
            .flat_map(move |(offset, part)| {
                let before = &text[std::mem::replace(&mut at, *offset)..*offset];
                [before, part.as_bytes()]
            })
            .chain(std::iter::once_with(move || {
                let last = self.parts.last().map_or(0, |(offset, _)| *offset);
                &text[last..]
            }))
    }
}

/// Render `value` as [`to_string`] does, leaving each [`Value::Raw`]
/// part out of the text (errors as [`to_string`]).
pub fn to_spliced(value: &Value) -> Result<Spliced, Error> {
    let mut w = Writer { parts: Some(Vec::new()), ..Writer::default() };
    w.value(value)?;
    let parts = w.parts.take().unwrap_or_default();
    Ok(Spliced { text: w.text(), parts })
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
/// string's text is checked once it is whole.
pub fn from_slice_prefix<T: Deserialize>(bytes: &[u8]) -> Result<(T, usize), Error> {
    let mut p = Parser { bytes, at: 0 };
    let v = p.value(0)?;
    Ok((T::from_value(v)?, p.at))
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `w` below `n` (at most 0x80). A borrow
/// may flag a byte above a true one, never below it, so the lowest flag
/// is exact.
fn bytes_below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * n as u64) & !w & HIGHS
}

/// The high bit of each byte of `w` equal to `b`, exact at the lowest
/// flag as [`bytes_below`] is.
fn bytes_eq(w: u64, b: u8) -> u64 {
    bytes_below(w ^ (ONES * b as u64), 1)
}

/// Flags each byte of `w` that a JSON string cannot hold raw: a
/// control char, `"` or `\`.
fn needs_escape(w: u64) -> u64 {
    bytes_below(w, 0x20) | bytes_eq(w, b'"') | bytes_eq(w, b'\\')
}

/// Flags each byte of `w` that ends a run of JSON string text: `"` or
/// `\`.
fn ends_run(w: u64) -> u64 {
    bytes_eq(w, b'"') | bytes_eq(w, b'\\')
}

/// Copy `bytes` from `at` into `out` up to the first byte `flags`
/// flags, and return that byte's offset; or copy all of the rest and
/// return `None`. Words are copied whole and the copy is cut back to
/// the run, since an eight-byte copy is one store where a copy of a
/// run's length is a call. The last, short word is padded with spaces,
/// which neither scan flags.
fn copy_run(
    out: &mut Vec<u8>,
    bytes: &[u8],
    mut at: usize,
    flags: impl Fn(u64) -> u64,
) -> Option<usize> {
    let first = |word: [u8; 8]| {
        let f = flags(u64::from_le_bytes(word));
        (f != 0).then_some((f.trailing_zeros() / 8) as usize)
    };
    while let Some(word) = bytes.get(at..at + 8) {
        let word: [u8; 8] = word.try_into().expect("eight bytes");
        out.extend_from_slice(&word);
        if let Some(i) = first(word) {
            out.truncate(out.len() - 8 + i);
            return Some(at + i);
        }
        at += 8;
    }
    let mut last = [b' '; 8];
    last[..bytes.len() - at].copy_from_slice(&bytes[at..]);
    let end = first(last).map(|i| at + i);
    out.extend_from_slice(&bytes[at..end.unwrap_or(bytes.len())]);
    end
}

/// Escape `s` as a JSON string. Every byte that needs an escape is
/// ASCII, so the runs between them are whole UTF-8 text.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push(b'"');
    let mut at = 0;
    while let Some(i) = copy_run(out, s.as_bytes(), at, needs_escape) {
        at = i + 1;
        match s.as_bytes()[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 0xf) as usize],
            ]),
        }
    }
    out.push(b'"');
}

/// `n` in decimal, its digits written straight into `out`.
fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn write_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        out.extend_from_slice(s.as_bytes());
        // Keep it a JSON number that parses back as float-compatible.
        if !s.contains(['.', 'e', 'E']) {
            out.extend_from_slice(b".0");
        }
    } else {
        // JSON has no inf/nan; mirror serde_json's lossy `null`.
        out.extend_from_slice(b"null");
    }
}

/// Compact JSON being rendered into `out`. Each [`Value::Raw`] part is
/// copied in, or, when `parts` is kept, listed there with its offset.
/// `out` holds bytes, so runs are copied a word at a time; everything
/// written is whole UTF-8 (text copied from `str`s, or ASCII), which
/// [`Writer::text`] checks once.
#[derive(Default)]
struct Writer {
    out: Vec<u8>,
    parts: Option<Vec<(usize, Arc<str>)>>,
}

impl Writer {
    fn text(self) -> String {
        String::from_utf8(self.out).expect("the writer writes UTF-8")
    }

    fn value(&mut self, v: &Value) -> Result<(), Error> {
        let out = &mut self.out;
        match v {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Value::U64(n) => write_u64(out, *n),
            Value::I64(n) => {
                if *n < 0 {
                    out.push(b'-');
                }
                write_u64(out, n.unsigned_abs());
            }
            Value::F64(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Raw(json) => match &mut self.parts {
                Some(parts) => parts.push((out.len(), Arc::clone(json))),
                None => out.extend_from_slice(json.as_bytes()),
            },
            Value::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(b',');
                    }
                    self.value(item)?;
                }
                self.out.push(b']');
            }
            Value::Object(fields) => {
                out.push(b'{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push(b',');
                    }
                    write_escaped(&mut self.out, k);
                    self.out.push(b':');
                    self.value(val)?;
                }
                self.out.push(b'}');
            }
            Value::Bytes(b) => {
                return Err(Error(format!("{} raw bytes have no JSON text form", b.len())));
            }
        }
        Ok(())
    }
}

fn write_value_pretty(w: &mut Writer, v: &Value, indent: usize) -> Result<(), Error> {
    let pad = |w: &mut Writer, indent: usize| w.out.extend(std::iter::repeat_n(b' ', 2 * indent));
    match v {
        Value::Array(items) if !items.is_empty() => {
            w.out.extend_from_slice(b"[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    w.out.extend_from_slice(b",\n");
                }
                pad(w, indent + 1);
                write_value_pretty(w, item, indent + 1)?;
            }
            w.out.push(b'\n');
            pad(w, indent);
            w.out.push(b']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            w.out.extend_from_slice(b"{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    w.out.extend_from_slice(b",\n");
                }
                pad(w, indent + 1);
                write_escaped(&mut w.out, k);
                w.out.extend_from_slice(b": ");
                write_value_pretty(w, val, indent + 1)?;
            }
            w.out.push(b'\n');
            pad(w, indent);
            w.out.push(b'}');
        }
        other => return w.value(other),
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
    /// whole (both are ASCII, so a run never splits a character), and
    /// the text is checked for UTF-8 once, when it is whole: an escape
    /// writes whole characters, so the runs are UTF-8 each exactly when
    /// the text is. A string that fails in another way is first checked
    /// as far as it got, so a bad byte before the failure is reported
    /// as invalid UTF-8, whichever the failure.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        let utf8 = |out: Vec<u8>| {
            String::from_utf8(out).map_err(|_| Error("invalid UTF-8 in string".into()))
        };
        let fail = |out: Vec<u8>, e: &str| Err(utf8(out).err().unwrap_or_else(|| Error(e.into())));
        loop {
            let copied = out.len();
            let Some(end) = copy_run(&mut out, self.bytes, self.at, ends_run) else {
                out.truncate(copied);
                return fail(out, "unterminated string");
            };
            self.at = end + 1;
            if self.bytes[end] == b'"' {
                return utf8(out);
            }
            let Some(&esc) = self.bytes.get(self.at) else {
                return fail(out, "unterminated escape");
            };
            self.at += 1;
            match esc {
                b'"' | b'\\' | b'/' => out.push(esc),
                b'n' => out.push(b'\n'),
                b'r' => out.push(b'\r'),
                b't' => out.push(b'\t'),
                b'b' => out.push(0x8),
                b'f' => out.push(0xc),
                b'u' => match self.unicode_escape() {
                    Ok(c) => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
                    Err(e) => return fail(out, &e.0),
                },
                other => return fail(out, &format!("bad escape \\{}", other as char)),
            }
        }
    }

    /// The character of a `\u` escape, from the four bytes after the `u`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hex =
            self.bytes.get(self.at..self.at + 4).ok_or_else(|| Error("bad \\u escape".into()))?;
        self.at += 4;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
            16,
        )
        .map_err(|_| Error("bad \\u escape".into()))?;
        char::from_u32(code).ok_or_else(|| Error("bad \\u codepoint".into()))
    }

    /// One number. An unsigned integer, the common case, is read digit
    /// by digit; anything else (a sign, a fraction, an exponent, or a
    /// value past `u64::MAX`) is scanned whole and parsed as text.
    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.at;
        let number_byte =
            |b: &u8| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-');
        let mut n = 0u64;
        while let Some(&b) = self.bytes.get(self.at).filter(|b| b.is_ascii_digit()) {
            let Some(next) = n.checked_mul(10).and_then(|n| n.checked_add((b - b'0') as u64))
            else {
                break;
            };
            n = next;
            self.at += 1;
        }
        if self.at > start && !self.bytes.get(self.at).is_some_and(number_byte) {
            return Ok(Value::U64(n));
        }
        self.at = start;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while self.bytes.get(self.at).is_some_and(number_byte) {
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

    /// Strings of up to 300 chars whose specials (quotes, backslashes,
    /// control chars, DEL, multi-byte chars) follow runs of 0–7 plain
    /// bytes, so each lands at every offset mod 8 of the word scans.
    fn long_tricky_string() -> impl Strategy<Value = String> {
        let special: Vec<char> =
            ['"', '\\', '\u{7f}', 'é', '€', '\u{2028}', '😀', '\u{1f}', '\u{0}']
                .into_iter()
                .chain((0..0x20).map(|c| char::from_u32(c).unwrap()))
                .collect();
        prop::collection::vec((0usize..8, prop::sample::select(special)), 0..80).prop_map(|runs| {
            let mut s = String::new();
            for (gap, c) in runs {
                s.extend(std::iter::repeat_n('x', gap));
                s.push(c);
            }
            s.chars().take(300).collect()
        })
    }

    /// Bytes for a string's raw text: anything but `"` and `\`.
    fn raw_text() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..20)
            .prop_map(|b| b.into_iter().filter(|&b| b != b'"' && b != b'\\').collect::<Vec<u8>>())
    }

    proptest! {
        #[test]
        fn long_strings_escape_as_the_reference_and_round_trip(s in long_tricky_string()) {
            let text = to_string(&s).unwrap();
            prop_assert_eq!(&text, &reference_escape(&s));
            prop_assert_eq!(from_str::<String>(&text).unwrap(), s.clone());
            let framed = [text.as_bytes(), b"\xff tail"].concat();
            prop_assert_eq!(from_slice_prefix::<String>(&framed).unwrap(), (s, text.len()));
        }

        #[test]
        fn a_string_around_an_escape_is_accepted_iff_both_sides_are_utf8(
            before in raw_text(),
            esc in prop::sample::select(vec!["\\n", "\\\"", "\\\\", "\\/", "\\u00e9", "\\u0041"]),
            after in raw_text(),
        ) {
            let literal = [&b"\""[..], &before, esc.as_bytes(), &after, b"\""].concat();
            let unescaped: String = from_str(&format!("\"{esc}\"")).unwrap();
            match (std::str::from_utf8(&before), std::str::from_utf8(&after)) {
                (Ok(b), Ok(a)) => {
                    let (parsed, n) = from_slice_prefix::<String>(&literal).unwrap();
                    prop_assert_eq!(parsed, format!("{b}{unescaped}{a}"));
                    prop_assert_eq!(n, literal.len());
                }
                _ => prop_assert_eq!(
                    from_slice_prefix::<String>(&literal).unwrap_err().0,
                    "invalid UTF-8 in string"
                ),
            }
        }

        #[test]
        fn integers_render_as_display_and_parse_back(n in any::<u64>(), i in any::<i64>()) {
            prop_assert_eq!(to_string(&n).unwrap(), n.to_string());
            prop_assert_eq!(from_str::<u64>(&n.to_string()).unwrap(), n);
            prop_assert_eq!(to_string(&i).unwrap(), i.to_string());
            prop_assert_eq!(from_str::<i64>(&i.to_string()).unwrap(), i);
        }
    }

    #[test]
    fn each_special_escapes_at_every_offset_mod_8() {
        for c in ['"', '\\', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀'] {
            for before in 0..17 {
                for after in 0..17 {
                    let s = format!("{}{c}{}", "a".repeat(before), "b".repeat(after));
                    let text = to_string(&s).unwrap();
                    assert_eq!(text, reference_escape(&s), "{s:?}");
                    assert_eq!(from_str::<String>(&text).unwrap(), s);
                }
            }
        }
    }

    #[test]
    fn a_bad_byte_before_a_failure_is_reported_as_invalid_utf8() {
        for bad in [&b"\"\xff\\q\""[..], b"\"\xff\\u00zz\"", b"\"\xff\\", b"\"\xff\\nab"] {
            assert_eq!(from_slice_prefix::<String>(bad).unwrap_err().0, "invalid UTF-8 in string");
        }
        for (bad, want) in [
            (&b"\"ok\\q\""[..], "bad escape \\q"),
            (b"\"ok\\u00zz\"", "bad \\u escape"),
            (b"\"ok\\ud800\"", "bad \\u codepoint"),
            (b"\"ok\\", "unterminated escape"),
            (b"\"ok", "unterminated string"),
            // the unterminated run itself is never checked
            (b"\"ok\\n\xff", "unterminated string"),
            (b"\"\xffabc", "unterminated string"),
        ] {
            assert_eq!(from_slice_prefix::<String>(bad).unwrap_err().0, want);
        }
    }

    #[test]
    fn numbers_off_the_digit_path_parse_as_text_did() {
        for (text, want) in [
            ("007", Value::U64(7)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("+5", Value::U64(5)),
            ("1.5", Value::F64(1.5)),
            ("2e3", Value::F64(2000.0)),
            ("-0", Value::I64(0)),
        ] {
            assert_eq!(from_str::<Value>(text).unwrap(), want, "{text}");
        }
        for text in ["18446744073709551616", "12-3", "1+", "--1", "-"] {
            let err = from_str::<Value>(text).unwrap_err();
            assert_eq!(err.0, format!("bad number {text}"), "{text}");
        }
        assert_eq!(from_str::<Vec<u64>>("[1,22,333]").unwrap(), vec![1, 22, 333]);
    }

    #[test]
    fn spliced_pieces_are_the_compact_text() {
        let raw = |s: &str| Value::Raw(Arc::from(s));
        let v = Value::Array(vec![
            raw("[1,2]"),
            Value::Object(vec![("t".into(), raw("\"x\\\"y\"")), ("n".into(), Value::U64(3))]),
            raw("[]"),
            raw("null"),
        ]);
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"[[1,2],{"t":"x\"y","n":3},[],null]"#);
        let spliced = to_spliced(&v).unwrap();
        assert_eq!(spliced.parts.len(), 4);
        assert_eq!(spliced.pieces().collect::<Vec<_>>().concat(), text.as_bytes());
        let plain = to_spliced(&Value::U64(12)).unwrap();
        assert!(plain.parts.is_empty());
        assert_eq!(plain.pieces().collect::<Vec<_>>().concat(), b"12");
        assert_eq!(to_string_pretty(&Value::Array(vec![raw("[1]")])).unwrap(), "[\n  [1]\n]");
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
