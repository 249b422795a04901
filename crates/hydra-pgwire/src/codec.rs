//! PostgreSQL v3 message framing, from scratch over byte slices.
//!
//! The decoders here are *pure prefix parsers*: they take an arbitrary byte
//! slice and either produce a message plus the number of bytes consumed,
//! report that more bytes are needed, or reject the prefix as malformed —
//! and they never panic, whatever the input (the codec proptests feed them
//! garbage, truncations and hostile length fields). The client's blocking
//! reader ([`read_backend_message`]) layers `std::io::Read` on top of the
//! same payload parsers, so the server, the test client and the property
//! tests all exercise one code path.
//!
//! Framing summary (PostgreSQL protocol 3.0):
//!
//! * startup phase: `int32 length` (including itself) then payload — either
//!   the protocol-version + `key\0value\0…\0` parameter list, or one of the
//!   magic request codes (SSL, GSSENC, cancel);
//! * regular phase: `u8 type` + `int32 length` (including the length field,
//!   excluding the type byte) + payload.

use crate::error::{PgResult, PgWireError, ServerError};
use std::io::{Read, Write};

/// Hard cap on a single message body, mirroring the frame protocol's
/// 64 MiB frame cap: any length field beyond this is rejected as hostile
/// rather than allocated.
pub const MAX_MESSAGE_BYTES: u32 = 64 << 20;

/// Protocol version 3.0, as the startup packet encodes it (`3 << 16`).
pub const PROTOCOL_VERSION_3: i32 = 196_608;
/// Magic "length-8" startup code requesting SSL negotiation.
pub const SSL_REQUEST_CODE: i32 = 80_877_103;
/// Magic startup code requesting GSSAPI encryption.
pub const GSSENC_REQUEST_CODE: i32 = 80_877_104;
/// Magic startup code carrying a cancel-request key pair.
pub const CANCEL_REQUEST_CODE: i32 = 80_877_102;

/// Outcome of a pure prefix decode: either a complete message and how many
/// bytes of the input it consumed, or a request for more input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<T> {
    /// A full message was parsed from the front of the buffer.
    Complete {
        /// The decoded message.
        message: T,
        /// Bytes of the input buffer the message occupied.
        consumed: usize,
    },
    /// The buffer holds only a prefix of a message; read more bytes.
    Incomplete,
}

/// The first packet on a connection, before any type bytes exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartupPacket {
    /// A protocol-3 startup with its `key\0value\0` parameter list.
    Startup {
        /// Protocol major version (must be 3 to proceed).
        major: u16,
        /// Protocol minor version.
        minor: u16,
        /// Startup parameters in wire order (`user`, `database`, …).
        params: Vec<(String, String)>,
    },
    /// `SSLRequest` — refused with a single `'N'` byte, then the client
    /// retries in clear text.
    SslRequest,
    /// `GSSENCRequest` — refused the same way.
    GssEncRequest,
    /// `CancelRequest` carrying the backend key pair; the connection is
    /// closed without a reply.
    Cancel {
        /// Process id from the targeted backend's `BackendKeyData`.
        pid: i32,
        /// Secret from the targeted backend's `BackendKeyData`.
        secret: i32,
    },
}

/// Messages a client sends after startup (simple-query subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendMessage {
    /// `Q` — a simple query string (possibly multiple `;`-separated
    /// statements).
    Query {
        /// The query text.
        sql: String,
    },
    /// `X` — clean connection termination.
    Terminate,
    /// `S` — extended-protocol sync; answered with `ReadyForQuery` so naive
    /// drivers don't hang, though the extended protocol itself is not
    /// implemented.
    Sync,
    /// Any other well-framed message type; the payload is discarded and the
    /// server answers with a "not supported" error.
    Unknown {
        /// The message type byte.
        tag: u8,
    },
}

/// One column of a `RowDescription`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDescription {
    /// Column name as shown to the client.
    pub name: String,
    /// PostgreSQL type OID (`23` int4, `20` int8, `701` float8, `25` text,
    /// `1082` date, `16` bool).
    pub type_oid: u32,
    /// Type length in bytes, `-1` for variable-width types.
    pub type_len: i16,
}

/// Messages the server sends (simple-query subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendMessage {
    /// `R` with code 0 — trust authentication succeeded.
    AuthenticationOk,
    /// `S` — one server parameter (`server_version`, encodings, …).
    ParameterStatus {
        /// Parameter name.
        name: String,
        /// Parameter value.
        value: String,
    },
    /// `K` — cancel-key pair for this backend.
    BackendKeyData {
        /// Backend process id.
        pid: i32,
        /// Backend secret.
        secret: i32,
    },
    /// `Z` — the server is idle (`b'I'`) and ready for the next query.
    ReadyForQuery {
        /// Transaction status byte; always `b'I'` here (no transactions).
        status: u8,
    },
    /// `T` — result-set column metadata.
    RowDescription {
        /// One entry per result column.
        fields: Vec<FieldDescription>,
    },
    /// `D` — one result row; `None` encodes SQL NULL.
    DataRow {
        /// Text-format column values.
        values: Vec<Option<Vec<u8>>>,
    },
    /// `C` — statement completion tag, e.g. `SELECT 42`.
    CommandComplete {
        /// The completion tag.
        tag: String,
    },
    /// `I` — the query string was empty.
    EmptyQueryResponse,
    /// `E` — error fields as `(code byte, value)` pairs.
    ErrorResponse {
        /// Fields in wire order (`S`, `C`, `M`, optionally `P`, …).
        fields: Vec<(u8, String)>,
    },
}

impl BackendMessage {
    /// Build an `ErrorResponse` from the standard severity / SQLSTATE /
    /// message triple plus the optional 1-based error `position` that
    /// psql-style clients turn into a caret.
    pub fn error(
        severity: &str,
        code: &str,
        message: impl Into<String>,
        position: Option<u64>,
    ) -> Self {
        let mut fields = vec![
            (b'S', severity.to_string()),
            (b'V', severity.to_string()),
            (b'C', code.to_string()),
            (b'M', message.into()),
        ];
        if let Some(p) = position {
            fields.push((b'P', p.to_string()));
        }
        BackendMessage::ErrorResponse { fields }
    }

    /// Interpret an `ErrorResponse`'s fields as a typed [`ServerError`].
    /// Returns `None` for any other message kind.
    pub fn as_server_error(&self) -> Option<ServerError> {
        let BackendMessage::ErrorResponse { fields } = self else {
            return None;
        };
        let find = |code: u8| {
            fields
                .iter()
                .find(|(c, _)| *c == code)
                .map(|(_, v)| v.clone())
        };
        Some(ServerError {
            severity: find(b'S').unwrap_or_default(),
            code: find(b'C').unwrap_or_default(),
            message: find(b'M').unwrap_or_default(),
            position: find(b'P').and_then(|p| p.parse().ok()),
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_i16(out: &mut Vec<u8>, v: i16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_cstr(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

/// Frame a regular message: type byte + length (body + 4) + body.
fn frame(tag: u8, body: Vec<u8>, out: &mut Vec<u8>) {
    out.push(tag);
    put_i32(out, body.len() as i32 + 4);
    out.extend_from_slice(&body);
}

/// Encode a startup packet (the length-prefixed, type-less first message).
pub fn encode_startup(packet: &StartupPacket, out: &mut Vec<u8>) {
    let mut body = Vec::new();
    match packet {
        StartupPacket::Startup {
            major,
            minor,
            params,
        } => {
            put_i32(&mut body, ((*major as i32) << 16) | (*minor as i32));
            for (k, v) in params {
                put_cstr(&mut body, k);
                put_cstr(&mut body, v);
            }
            body.push(0);
        }
        StartupPacket::SslRequest => put_i32(&mut body, SSL_REQUEST_CODE),
        StartupPacket::GssEncRequest => put_i32(&mut body, GSSENC_REQUEST_CODE),
        StartupPacket::Cancel { pid, secret } => {
            put_i32(&mut body, CANCEL_REQUEST_CODE);
            put_i32(&mut body, *pid);
            put_i32(&mut body, *secret);
        }
    }
    put_i32(out, body.len() as i32 + 4);
    out.extend_from_slice(&body);
}

/// Encode a frontend message with its type byte and length.
pub fn encode_frontend(message: &FrontendMessage, out: &mut Vec<u8>) {
    match message {
        FrontendMessage::Query { sql } => {
            let mut body = Vec::with_capacity(sql.len() + 1);
            put_cstr(&mut body, sql);
            frame(b'Q', body, out);
        }
        FrontendMessage::Terminate => frame(b'X', Vec::new(), out),
        FrontendMessage::Sync => frame(b'S', Vec::new(), out),
        FrontendMessage::Unknown { tag } => frame(*tag, Vec::new(), out),
    }
}

/// Encode a backend message with its type byte and length.
pub fn encode_backend(message: &BackendMessage, out: &mut Vec<u8>) {
    match message {
        BackendMessage::AuthenticationOk => {
            let mut body = Vec::with_capacity(4);
            put_i32(&mut body, 0);
            frame(b'R', body, out);
        }
        BackendMessage::ParameterStatus { name, value } => {
            let mut body = Vec::with_capacity(name.len() + value.len() + 2);
            put_cstr(&mut body, name);
            put_cstr(&mut body, value);
            frame(b'S', body, out);
        }
        BackendMessage::BackendKeyData { pid, secret } => {
            let mut body = Vec::with_capacity(8);
            put_i32(&mut body, *pid);
            put_i32(&mut body, *secret);
            frame(b'K', body, out);
        }
        BackendMessage::ReadyForQuery { status } => {
            frame(b'Z', vec![*status], out);
        }
        BackendMessage::RowDescription { fields } => {
            let mut body = Vec::new();
            put_i16(&mut body, fields.len() as i16);
            for field in fields {
                put_cstr(&mut body, &field.name);
                put_i32(&mut body, 0); // table oid: not a real catalog table
                put_i16(&mut body, 0); // attribute number
                put_i32(&mut body, field.type_oid as i32);
                put_i16(&mut body, field.type_len);
                put_i32(&mut body, -1); // typmod
                put_i16(&mut body, 0); // text format
            }
            frame(b'T', body, out);
        }
        BackendMessage::DataRow { values } => {
            let mut body = Vec::new();
            put_i16(&mut body, values.len() as i16);
            for value in values {
                match value {
                    None => put_i32(&mut body, -1),
                    Some(bytes) => {
                        put_i32(&mut body, bytes.len() as i32);
                        body.extend_from_slice(bytes);
                    }
                }
            }
            frame(b'D', body, out);
        }
        BackendMessage::CommandComplete { tag } => {
            let mut body = Vec::with_capacity(tag.len() + 1);
            put_cstr(&mut body, tag);
            frame(b'C', body, out);
        }
        BackendMessage::EmptyQueryResponse => frame(b'I', Vec::new(), out),
        BackendMessage::ErrorResponse { fields } => {
            let mut body = Vec::new();
            for (code, value) in fields {
                body.push(*code);
                put_cstr(&mut body, value);
            }
            body.push(0);
            frame(b'E', body, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one message payload. Every accessor returns a
/// protocol error instead of panicking when the payload is short or
/// malformed.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Payload { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> PgResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PgWireError::Protocol(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> PgResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn i16(&mut self) -> PgResult<i16> {
        let b = self.take(2)?;
        Ok(i16::from_be_bytes([b[0], b[1]]))
    }

    fn i32(&mut self) -> PgResult<i32> {
        let b = self.take(4)?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn cstr(&mut self) -> PgResult<String> {
        let rest = &self.buf[self.pos..];
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| PgWireError::Protocol("unterminated string in payload".into()))?;
        let s = std::str::from_utf8(&rest[..nul])
            .map_err(|_| PgWireError::Protocol("non-UTF-8 string in payload".into()))?
            .to_string();
        self.pos += nul + 1;
        Ok(s)
    }

    fn expect_end(&self) -> PgResult<()> {
        if self.remaining() != 0 {
            return Err(PgWireError::Protocol(format!(
                "{} trailing bytes after message payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Validate a wire length field (which includes its own four bytes) and
/// return the body size.
fn body_len(len: i32, what: &str) -> PgResult<usize> {
    if len < 4 {
        return Err(PgWireError::Protocol(format!(
            "{what} length {len} below minimum of 4"
        )));
    }
    let body = (len as u32).saturating_sub(4);
    if body > MAX_MESSAGE_BYTES {
        return Err(PgWireError::Protocol(format!(
            "{what} length {len} exceeds the {MAX_MESSAGE_BYTES}-byte cap"
        )));
    }
    Ok(body as usize)
}

fn parse_startup_payload(payload: &[u8]) -> PgResult<StartupPacket> {
    let mut p = Payload::new(payload);
    let code = p.i32()?;
    match code {
        SSL_REQUEST_CODE => {
            p.expect_end()?;
            Ok(StartupPacket::SslRequest)
        }
        GSSENC_REQUEST_CODE => {
            p.expect_end()?;
            Ok(StartupPacket::GssEncRequest)
        }
        CANCEL_REQUEST_CODE => {
            let pid = p.i32()?;
            let secret = p.i32()?;
            p.expect_end()?;
            Ok(StartupPacket::Cancel { pid, secret })
        }
        version => {
            let major = ((version >> 16) & 0xffff) as u16;
            let minor = (version & 0xffff) as u16;
            let mut params = Vec::new();
            loop {
                if p.remaining() == 0 {
                    return Err(PgWireError::Protocol(
                        "startup parameter list missing terminator".into(),
                    ));
                }
                if p.buf[p.pos] == 0 {
                    p.pos += 1;
                    break;
                }
                let key = p.cstr()?;
                let value = p.cstr()?;
                params.push((key, value));
            }
            p.expect_end()?;
            Ok(StartupPacket::Startup {
                major,
                minor,
                params,
            })
        }
    }
}

fn parse_frontend_payload(tag: u8, payload: &[u8]) -> PgResult<FrontendMessage> {
    let mut p = Payload::new(payload);
    match tag {
        b'Q' => {
            let sql = p.cstr()?;
            p.expect_end()?;
            Ok(FrontendMessage::Query { sql })
        }
        b'X' => {
            p.expect_end()?;
            Ok(FrontendMessage::Terminate)
        }
        b'S' => {
            p.expect_end()?;
            Ok(FrontendMessage::Sync)
        }
        other => Ok(FrontendMessage::Unknown { tag: other }),
    }
}

fn parse_backend_payload(tag: u8, payload: &[u8]) -> PgResult<BackendMessage> {
    let mut p = Payload::new(payload);
    match tag {
        b'R' => {
            let code = p.i32()?;
            p.expect_end()?;
            if code != 0 {
                return Err(PgWireError::Protocol(format!(
                    "unsupported authentication request code {code}"
                )));
            }
            Ok(BackendMessage::AuthenticationOk)
        }
        b'S' => {
            let name = p.cstr()?;
            let value = p.cstr()?;
            p.expect_end()?;
            Ok(BackendMessage::ParameterStatus { name, value })
        }
        b'K' => {
            let pid = p.i32()?;
            let secret = p.i32()?;
            p.expect_end()?;
            Ok(BackendMessage::BackendKeyData { pid, secret })
        }
        b'Z' => {
            let status = p.u8()?;
            p.expect_end()?;
            Ok(BackendMessage::ReadyForQuery { status })
        }
        b'T' => {
            let count = p.i16()?;
            if count < 0 {
                return Err(PgWireError::Protocol(format!(
                    "negative field count {count} in RowDescription"
                )));
            }
            let mut fields = Vec::new();
            for _ in 0..count {
                let name = p.cstr()?;
                let _table_oid = p.i32()?;
                let _attnum = p.i16()?;
                let type_oid = p.i32()? as u32;
                let type_len = p.i16()?;
                let _typmod = p.i32()?;
                let _format = p.i16()?;
                fields.push(FieldDescription {
                    name,
                    type_oid,
                    type_len,
                });
            }
            p.expect_end()?;
            Ok(BackendMessage::RowDescription { fields })
        }
        b'D' => {
            let count = p.i16()?;
            if count < 0 {
                return Err(PgWireError::Protocol(format!(
                    "negative column count {count} in DataRow"
                )));
            }
            let mut values = Vec::new();
            for _ in 0..count {
                let len = p.i32()?;
                if len < 0 {
                    values.push(None);
                } else {
                    values.push(Some(p.take(len as usize)?.to_vec()));
                }
            }
            p.expect_end()?;
            Ok(BackendMessage::DataRow { values })
        }
        b'C' => {
            let tag = p.cstr()?;
            p.expect_end()?;
            Ok(BackendMessage::CommandComplete { tag })
        }
        b'I' => {
            p.expect_end()?;
            Ok(BackendMessage::EmptyQueryResponse)
        }
        b'E' => {
            let mut fields = Vec::new();
            loop {
                let code = p.u8()?;
                if code == 0 {
                    break;
                }
                fields.push((code, p.cstr()?));
            }
            p.expect_end()?;
            Ok(BackendMessage::ErrorResponse { fields })
        }
        other => Err(PgWireError::Protocol(format!(
            "unknown backend message type {:?}",
            other as char
        ))),
    }
}

/// Decode a startup packet from the front of `buf`.
pub fn decode_startup(buf: &[u8]) -> PgResult<Decoded<StartupPacket>> {
    if buf.len() < 4 {
        return Ok(Decoded::Incomplete);
    }
    let len = i32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let body = body_len(len, "startup packet")?;
    if body < 4 {
        return Err(PgWireError::Protocol(format!(
            "startup packet length {len} too short for a protocol code"
        )));
    }
    if buf.len() < 4 + body {
        return Ok(Decoded::Incomplete);
    }
    let message = parse_startup_payload(&buf[4..4 + body])?;
    Ok(Decoded::Complete {
        message,
        consumed: 4 + body,
    })
}

fn decode_regular<T>(
    buf: &[u8],
    what: &str,
    parse: impl FnOnce(u8, &[u8]) -> PgResult<T>,
) -> PgResult<Decoded<T>> {
    if buf.len() < 5 {
        return Ok(Decoded::Incomplete);
    }
    let tag = buf[0];
    let len = i32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    let body = body_len(len, what)?;
    if buf.len() < 5 + body {
        return Ok(Decoded::Incomplete);
    }
    let message = parse(tag, &buf[5..5 + body])?;
    Ok(Decoded::Complete {
        message,
        consumed: 5 + body,
    })
}

/// Decode a frontend message from the front of `buf`.
pub fn decode_frontend(buf: &[u8]) -> PgResult<Decoded<FrontendMessage>> {
    decode_regular(buf, "frontend message", parse_frontend_payload)
}

/// Decode a backend message from the front of `buf`.
pub fn decode_backend(buf: &[u8]) -> PgResult<Decoded<BackendMessage>> {
    decode_regular(buf, "backend message", parse_backend_payload)
}

// ---------------------------------------------------------------------------
// Blocking I/O wrappers
// ---------------------------------------------------------------------------

/// Read `n` bytes, distinguishing clean EOF before the first byte
/// (`Ok(None)`) from EOF mid-message (`UnexpectedEof`).
fn read_exact_opt<R: Read>(reader: &mut R, n: usize) -> PgResult<Option<Vec<u8>>> {
    let mut buf = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(PgWireError::UnexpectedEof);
            }
            Ok(read) => filled += read,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(PgWireError::Io(e)),
        }
    }
    Ok(Some(buf))
}

fn read_body<R: Read>(reader: &mut R, len: i32, what: &str) -> PgResult<Vec<u8>> {
    let body = body_len(len, what)?;
    match read_exact_opt(reader, body)? {
        Some(bytes) => Ok(bytes),
        None if body == 0 => Ok(Vec::new()),
        None => Err(PgWireError::UnexpectedEof),
    }
}

/// Read one backend message; `Ok(None)` means the server closed between
/// messages.
pub fn read_backend_message<R: Read>(reader: &mut R) -> PgResult<Option<BackendMessage>> {
    let Some(header) = read_exact_opt(reader, 5)? else {
        return Ok(None);
    };
    let len = i32::from_be_bytes([header[1], header[2], header[3], header[4]]);
    let payload = read_body(reader, len, "backend message")?;
    parse_backend_payload(header[0], &payload).map(Some)
}

/// Encode and write one backend message.
pub fn write_backend<W: Write>(writer: &mut W, message: &BackendMessage) -> PgResult<()> {
    let mut out = Vec::new();
    encode_backend(message, &mut out);
    writer.write_all(&out)?;
    Ok(())
}

/// Encode and write one frontend message.
pub fn write_frontend<W: Write>(writer: &mut W, message: &FrontendMessage) -> PgResult<()> {
    let mut out = Vec::new();
    encode_frontend(message, &mut out);
    writer.write_all(&out)?;
    Ok(())
}
