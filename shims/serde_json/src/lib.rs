//! Offline stand-in for `serde_json`: renders and parses the shim `serde`
//! data-model tree ([`serde::Content`]) as JSON.
//!
//! Supports the workspace's API surface: [`to_string`], [`to_string_pretty`],
//! [`from_str`]. The encoding mirrors real serde_json: objects for maps and
//! structs, externally tagged enums, `null` for `None` and non-finite floats.
//! Unknown object keys are ignored by deserialization (see the shim `serde`
//! crate), which is what gives transfer packages forward compatibility.
//! Arrays and objects nest at most [`MAX_DEPTH`] deep, as in real
//! serde_json: deeper input is an error, never a stack overflow.

use serde::{Content, Deserialize, Serialize};
use std::fmt;

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
    let mut out = String::new();
    write_content(&value.serialize_content(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.serialize_content(), &mut out, Some(2), 0);
    Ok(out)
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

fn write_content(c: &Content, out: &mut String, indent: Option<usize>, level: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::U128(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                // Rust's shortest-roundtrip Display for f64.
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_json_string(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_content(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(v, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
