//! Offline stand-in for `serde_json`: writes the shim `serde` data model as
//! JSON, and parses JSON into the shim's data-model tree
//! ([`serde::Content`]).
//!
//! Supports the workspace's API surface: [`to_string`], [`to_string_pretty`],
//! [`from_str`], plus [`hash_into`], which hashes the text [`to_string`]
//! would return without building it.  The writer is a [`serde::Sink`]: a
//! value streams itself into the text, no tree in between. The encoding mirrors real serde_json: objects for maps and
//! structs, externally tagged enums, `null` for `None` and non-finite floats.
//! Unknown object keys are ignored by deserialization (see the shim `serde`
//! crate), which is what gives transfer packages forward compatibility.
//! Arrays and objects nest at most [`MAX_DEPTH`] deep, as in real
//! serde_json: deeper input is an error, never a stack overflow.

use serde::{Content, Deserialize, Serialize, Sink};
use std::fmt;
use std::hash::Hasher;
use std::io::Write as _;

/// How deep arrays and objects may nest: real serde_json's default
/// recursion limit.  The parser recurses once per level, so without a cap a
/// few kilobytes of `[` overflow the stack of whichever thread parses them.
pub const MAX_DEPTH: usize = 128;

/// JSON error (serialization or parse).
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(JsonWriter::text(value, false))
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(JsonWriter::text(value, true))
}

/// Feeds `hasher` the bytes [`to_string`] would return for `value`, then
/// the `0xff` that `str::hash` appends, without building the text: so
/// `hash_into(&v, &mut h)` hashes like `to_string(&v).unwrap().hash(&mut h)`
/// for any hasher whose `write` calls concatenate (std's `DefaultHasher`
/// among them).
pub fn hash_into<T: Serialize + ?Sized, H: Hasher>(value: &T, hasher: &mut H) {
    let rest = JsonWriter::write(value, false, Some(&mut *hasher as &mut dyn Hasher));
    hasher.write(&rest);
    hasher.write_u8(0xff);
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(T::deserialize_content(&content)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Text a hashing writer holds before it hands it to the hasher.
const SPILL_BYTES: usize = 4096;

/// The JSON sink: compact, or pretty with two-space indentation.
struct JsonWriter<'h> {
    /// UTF-8 text: every byte written is ASCII or copied from a `&str`.
    out: Vec<u8>,
    pretty: bool,
    /// Containers open around the next value.
    level: usize,
    /// The innermost open container has no element yet.
    first: bool,
    /// The next value is a map entry's, its key already written.
    after_key: bool,
    /// Where a hashing writer spills its text; `None` builds a `String`.
    spill: Option<&'h mut dyn Hasher>,
}

impl<'h> JsonWriter<'h> {
    /// Writes `value` and returns the text not spilled into `spill`.
    fn write<T: Serialize + ?Sized>(
        value: &T,
        pretty: bool,
        spill: Option<&'h mut dyn Hasher>,
    ) -> Vec<u8> {
        let mut writer = JsonWriter {
            out: Vec::new(),
            pretty,
            level: 0,
            first: true,
            after_key: false,
            spill,
        };
        value.serialize(&mut writer);
        writer.out
    }

    /// The text of `value`.
    fn text<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
        String::from_utf8(Self::write(value, pretty, None)).expect("the writer writes UTF-8")
    }

    /// The separator and indentation before the next element.
    fn element(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.newline(self.level);
    }

    /// What precedes a value: nothing after a key or at the top level, an
    /// element separator inside a sequence.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.level > 0 {
            self.element();
        }
    }

    fn newline(&mut self, level: usize) {
        if self.pretty {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + 2 * level, b' ');
        }
    }

    /// Hands the text written so far to the hasher once it is long enough.
    fn spill(&mut self) {
        if let Some(hasher) = self.spill.as_deref_mut() {
            if self.out.len() >= SPILL_BYTES {
                hasher.write(&self.out);
                self.out.clear();
            }
        }
    }

    fn scalar(&mut self, text: &[u8]) {
        self.value();
        self.out.extend_from_slice(text);
        self.spill();
    }

    /// An integer: its sign, then its decimal digits.
    fn integer(&mut self, negative: bool, mut magnitude: u64) {
        let mut digits = [0u8; 21];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (magnitude % 10) as u8;
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        if negative {
            at -= 1;
            digits[at] = b'-';
        }
        self.scalar(&digits[at..]);
    }

    fn display(&mut self, v: impl fmt::Display) {
        self.value();
        write!(self.out, "{v}").expect("writing to a Vec");
        self.spill();
    }

    fn open(&mut self, bracket: u8) {
        self.value();
        self.out.push(bracket);
        self.level += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: u8) {
        self.level -= 1;
        if !self.first {
            self.newline(self.level);
        }
        self.first = false;
        self.out.push(bracket);
        self.spill();
    }
}

impl Sink for JsonWriter<'_> {
    fn null(&mut self) {
        self.scalar(b"null");
    }

    fn bool(&mut self, v: bool) {
        self.scalar(if v { b"true" } else { b"false" });
    }

    fn i64(&mut self, v: i64) {
        self.integer(v < 0, v.unsigned_abs());
    }

    fn u64(&mut self, v: u64) {
        self.integer(false, v);
    }

    fn u128(&mut self, v: u128) {
        self.display(v);
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Rust's shortest-roundtrip Display for f64.
            self.display(v);
        } else {
            self.null();
        }
    }

    fn str(&mut self, v: &str) {
        self.value();
        write_json_string(v, &mut self.out);
        self.spill();
    }

    fn begin_seq(&mut self, _len: usize) {
        self.open(b'[');
    }

    fn end_seq(&mut self) {
        self.close(b']');
    }

    fn begin_map(&mut self, _len: usize) {
        self.open(b'{');
    }

    fn key(&mut self, key: &str) {
        self.element();
        write_json_string(key, &mut self.out);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
        self.after_key = true;
    }

    fn end_map(&mut self) {
        self.close(b'}');
    }
}

/// What a byte of a string is written as: itself (`0`), a two-character
/// escape (its letter), or a `\u00XX` escape (`u`).
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < 0x20 {
        table[byte] = b'u';
        byte += 1;
    }
    table[0x08] = b'b';
    table[0x0C] = b'f';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

fn write_json_string(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    // Copy runs of bytes that need no escape in one go.
    let mut run = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let escape = ESCAPE[byte as usize];
        if escape == 0 {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        if escape == b'u' {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(byte >> 4)]);
            out.push(HEX[usize::from(byte & 0xF)]);
        } else {
            out.extend_from_slice(&[b'\\', escape]);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'{') {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Content::Bool(true)),
            Some(b'f') => self.parse_literal("false", Content::Bool(false)),
            Some(b'n') => self.parse_literal("null", Content::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            ))),
            None => Err(Error("unexpected end of input".to_string())),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Content) -> Result<Content, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => {
                    return Err(Error(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error(format!("invalid \\u escape {code:x}")))?,
                            );
                        }
                        c => return Err(Error(format!("invalid escape `\\{}`", c as char))),
                    }
                }
                _ => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error("truncated \\u escape".to_string()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid \\u escape".to_string()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".to_string()))
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<u128>() {
                return Ok(Content::U128(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let ok: Content = from_str(&nested(MAX_DEPTH)).expect("depth 128 parses");
        let mut level = &ok;
        for _ in 1..MAX_DEPTH {
            level = &level.as_seq().expect("a sequence")[0];
        }
        assert_eq!(level, &Content::Seq(Vec::new()));
        let err = from_str::<Content>(&nested(MAX_DEPTH + 1)).expect_err("depth 129 fails");
        assert_eq!(err.0, "nesting deeper than 128 at offset 128");
        // Objects count toward the same cap, and a wide tree is not deep.
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Content>(&objects).is_err());
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 64].join(","));
        assert!(from_str::<Content>(&wide).is_ok());
    }

    #[test]
    fn writers_lay_out_compact_and_pretty_text() {
        let tree = Content::Map(vec![
            ("a\"\u{1}é".to_string(), Content::Seq(vec![])),
            ("b".to_string(), Content::Map(vec![])),
            (
                "c".to_string(),
                Content::Seq(vec![
                    Content::I64(-1),
                    Content::U64(u64::MAX),
                    Content::U128(u128::MAX),
                    Content::F64(0.1),
                    Content::F64(f64::NAN),
                    Content::Map(vec![("d".to_string(), Content::Null)]),
                ]),
            ),
            ("e".to_string(), Content::Bool(true)),
        ]);
        assert_eq!(
            to_string(&tree).unwrap(),
            "{\"a\\\"\\u0001é\":[],\"b\":{},\"c\":[-1,18446744073709551615,\
             340282366920938463463374607431768211455,0.1,null,{\"d\":null}],\"e\":true}"
        );
        assert_eq!(
            to_string_pretty(&tree).unwrap(),
            "{\n  \"a\\\"\\u0001é\": [],\n  \"b\": {},\n  \"c\": [\n    -1,\n    \
             18446744073709551615,\n    340282366920938463463374607431768211455,\n    0.1,\n    \
             null,\n    {\n      \"d\": null\n    }\n  ],\n  \"e\": true\n}"
        );
        assert_eq!(to_string("top").unwrap(), "\"top\"");
        assert_eq!(to_string_pretty(&Content::Seq(vec![])).unwrap(), "[]");
    }

    #[test]
    fn hash_into_spills_long_text_in_order() {
        use std::hash::{DefaultHasher, Hash};
        // Past several spills, with escapes straddling the boundaries.
        let long: Vec<String> = (0..3000).map(|i| format!("k{i}\"\n")).collect();
        let mut streamed = DefaultHasher::new();
        hash_into(&long, &mut streamed);
        let mut text = DefaultHasher::new();
        to_string(&long).unwrap().hash(&mut text);
        assert_eq!(streamed.finish(), text.finish());
    }

    #[test]
    fn a_deep_frame_fails_on_a_small_stack() {
        let text = format!("{{\"Publish\":{}", "[".repeat(10_000));
        let outcome = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || from_str::<Content>(&text).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("the parser must not overflow the stack");
        let err = outcome.expect_err("too deep");
        assert!(err.0.contains("offset"), "{err}");
    }
}
