//! Client side of both protocols, written against the bytes on the socket.
//!
//! The benchmark's clients must not be the bottleneck of a stream that the
//! server produces with memcpy, so they never decode rows: they read the
//! socket in large chunks and *walk* message boundaries — the 4-byte length
//! prefix of the frame protocol, the tag + length of the PostgreSQL
//! protocol — counting messages and bytes.  Only small control messages
//! (`StreamEnd`, `CommandComplete`, errors, aggregate answers) are captured
//! and decoded, after the clock has stopped.

use hydra_service::protocol::{Response, StreamStats};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read size of the walkers.
const CHUNK: usize = 256 * 1024;
/// Payloads up to this size are captured whole; larger ones only by `HEAD`.
const CAPTURE_LIMIT: usize = 8 * 1024;
/// Leading payload bytes kept for every message, to tell its kind.
const HEAD: usize = 16;
/// No reply for this long fails the operation instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Which framing a [`Walker`] follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// `len: u32 BE` then `len` bytes.
    Frame,
    /// `tag: u8`, `len: u32 BE` (counting itself) then `len - 4` bytes.
    Pg,
}

impl Framing {
    fn header_len(self) -> usize {
        match self {
            Framing::Frame => 4,
            Framing::Pg => 5,
        }
    }
}

/// One complete message seen by a [`Walker`].
#[derive(Debug)]
pub struct Message<'a> {
    /// The pg message tag; `0` for the frame protocol.
    pub tag: u8,
    /// Payload length in bytes (header excluded).
    pub len: usize,
    /// The first [`HEAD`] payload bytes (fewer if the payload is shorter).
    pub head: &'a [u8],
    /// The whole payload when it fits [`CAPTURE_LIMIT`] or capture-all is on.
    pub payload: Option<&'a [u8]>,
}

/// Incremental message-boundary walker: feed it whatever the socket
/// returned — headers and payloads may be split anywhere — and it calls
/// back once per complete message.
#[derive(Debug)]
pub struct Walker {
    framing: Framing,
    header: [u8; 5],
    header_filled: usize,
    /// Payload bytes of the current message still to come.
    remaining: usize,
    len: usize,
    in_payload: bool,
    capture: bool,
    capture_all: bool,
    buf: Vec<u8>,
    head: [u8; HEAD],
    head_filled: usize,
    /// Bytes consumed so far, headers included.
    pub bytes: u64,
}

impl Walker {
    /// A walker for `framing`; with `capture_all` every payload is captured,
    /// whatever its size (used for the decoded verification pass).
    pub fn new(framing: Framing, capture_all: bool) -> Walker {
        Walker {
            framing,
            header: [0; 5],
            header_filled: 0,
            remaining: 0,
            len: 0,
            in_payload: false,
            capture: false,
            capture_all,
            buf: Vec::new(),
            head: [0; HEAD],
            head_filled: 0,
            bytes: 0,
        }
    }

    /// Consumes `chunk`, calling `on_message` for every message completed
    /// inside it.  `on_message` returns `false` to stop early (the rest of
    /// the chunk is then left unconsumed and its length returned).
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        mut on_message: impl FnMut(Message<'_>) -> bool,
    ) -> Result<usize, String> {
        let header_len = self.framing.header_len();
        loop {
            if !self.in_payload {
                let take = (header_len - self.header_filled).min(chunk.len());
                self.header[self.header_filled..self.header_filled + take]
                    .copy_from_slice(&chunk[..take]);
                self.header_filled += take;
                self.bytes += take as u64;
                chunk = &chunk[take..];
                if self.header_filled < header_len {
                    return Ok(0);
                }
                self.header_filled = 0;
                let len = match self.framing {
                    Framing::Frame => {
                        u32::from_be_bytes(self.header[..4].try_into().expect("4 header bytes"))
                            as usize
                    }
                    Framing::Pg => {
                        let len = u32::from_be_bytes(
                            self.header[1..5].try_into().expect("4 length bytes"),
                        ) as usize;
                        len.checked_sub(4)
                            .ok_or_else(|| format!("pg message length {len} below 4"))?
                    }
                };
                if len > hydra_service::protocol::MAX_FRAME_BYTES as usize {
                    return Err(format!("message of {len} bytes exceeds the frame cap"));
                }
                self.len = len;
                self.remaining = len;
                self.in_payload = true;
                self.capture = self.capture_all || len <= CAPTURE_LIMIT;
                self.buf.clear();
                self.head_filled = 0;
            }
            let take = self.remaining.min(chunk.len());
            if take > 0 {
                let part = &chunk[..take];
                if self.capture {
                    self.buf.extend_from_slice(part);
                }
                let head_take = (HEAD - self.head_filled).min(take);
                self.head[self.head_filled..self.head_filled + head_take]
                    .copy_from_slice(&part[..head_take]);
                self.head_filled += head_take;
                self.remaining -= take;
                self.bytes += take as u64;
                chunk = &chunk[take..];
            }
            if self.remaining > 0 {
                return Ok(0);
            }
            self.in_payload = false;
            let message = Message {
                tag: if self.framing == Framing::Pg {
                    self.header[0]
                } else {
                    0
                },
                len: self.len,
                head: &self.head[..self.head_filled],
                payload: self.capture.then_some(self.buf.as_slice()),
            };
            if !on_message(message) {
                return Ok(chunk.len());
            }
            if chunk.is_empty() {
                return Ok(0);
            }
        }
    }
}

/// A writer that only counts: the sink of every in-process reference
/// encoding (what would the server have put on the wire for this range?).
#[derive(Debug, Default)]
pub struct CountingWriter(pub u64);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one frame-protocol `Stream` reply amounted to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamTally {
    /// Bytes on the wire, headers included.
    pub bytes: u64,
    /// Bytes of the `StreamEnd` frame alone.  It carries the server's
    /// elapsed time, so its length varies; `bytes - end_bytes` does not.
    pub end_bytes: u64,
    /// `Batch` frames seen.
    pub batches: u64,
    /// The server's trailer (rows streamed), once `StreamEnd` arrived.
    pub end: Option<StreamStats>,
    /// Captured `Batch` payloads (verification pass only).
    pub batch_payloads: Vec<Vec<u8>>,
}

/// Walks one `Stream` reply from `reader` to its `StreamEnd`.  With
/// `keep_batches` the batch payloads are retained for decoding.
pub fn walk_stream(reader: &mut impl Read, keep_batches: bool) -> Result<StreamTally, String> {
    let mut walker = Walker::new(Framing::Frame, keep_batches);
    let mut tally = StreamTally::default();
    let mut failure: Option<String> = None;
    let mut chunk = vec![0u8; CHUNK];
    while tally.end.is_none() && failure.is_none() {
        let n = reader
            .read(&mut chunk)
            .map_err(|e| format!("stream read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-stream".to_string());
        }
        let left = walker.feed(&chunk[..n], |message| {
            if message.head.starts_with(b"{\"Batch\"") {
                tally.batches += 1;
                if keep_batches {
                    tally
                        .batch_payloads
                        .push(message.payload.expect("capture_all").to_vec());
                }
                return true;
            }
            if message.head.starts_with(b"{\"StreamStart\"") {
                return true;
            }
            let decoded = message
                .payload
                .ok_or_else(|| "oversized control frame".to_string())
                .and_then(decode_response);
            match decoded {
                Ok(Response::StreamEnd(stats)) => {
                    tally.end = Some(stats);
                    tally.end_bytes = message.len as u64 + 4;
                }
                Ok(Response::Error { message }) => failure = Some(message),
                Ok(other) => failure = Some(format!("unexpected frame in stream: {other:?}")),
                Err(e) => failure = Some(e),
            }
            false
        })?;
        if left != 0 && failure.is_none() {
            return Err(format!("{left} bytes after StreamEnd in a closed loop"));
        }
    }
    if let Some(message) = failure {
        return Err(message);
    }
    tally.bytes = walker.bytes;
    Ok(tally)
}

/// Decodes one frame payload as a [`Response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("reply is not a Response: {e}"))
}

/// A frame-protocol connection that separates *transfer* (timed by the
/// caller) from *decoding* (done after the clock stopped).
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl FrameConn {
    /// Connects with `TCP_NODELAY` and an I/O timeout.
    pub fn connect(addr: SocketAddr) -> Result<FrameConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(FrameConn {
            stream,
            reply: Vec::new(),
        })
    }

    /// Sends one pre-encoded request frame and reads the one reply frame;
    /// returns its raw payload.  This is the timed round trip.
    pub fn round_trip(&mut self, request_frame: &[u8]) -> Result<&[u8], String> {
        self.stream
            .write_all(request_frame)
            .map_err(|e| format!("request write: {e}"))?;
        let mut header = [0u8; 4];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| format!("reply header: {e}"))?;
        let len = u32::from_be_bytes(header) as usize;
        if len > hydra_service::protocol::MAX_FRAME_BYTES as usize {
            return Err(format!("reply of {len} bytes exceeds the frame cap"));
        }
        self.reply.resize(len, 0);
        self.stream
            .read_exact(&mut self.reply)
            .map_err(|e| format!("reply payload: {e}"))?;
        Ok(&self.reply)
    }

    /// [`FrameConn::round_trip`] plus decoding.
    pub fn call(&mut self, request_frame: &[u8]) -> Result<Response, String> {
        let payload = self.round_trip(request_frame)?;
        decode_response(payload)
    }

    /// Sends a pre-encoded `Stream` request and walks the reply.
    pub fn stream(
        &mut self,
        request_frame: &[u8],
        keep_batches: bool,
    ) -> Result<StreamTally, String> {
        self.stream
            .write_all(request_frame)
            .map_err(|e| format!("request write: {e}"))?;
        walk_stream(&mut self.stream, keep_batches)
    }
}

/// What one PostgreSQL simple-query reply amounted to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PgTally {
    /// Bytes on the wire, headers included.
    pub bytes: u64,
    /// `DataRow` messages seen.
    pub data_rows: u64,
    /// The `CommandComplete` tag, e.g. `SELECT 42`.
    pub tag: Option<String>,
    /// The `ErrorResponse` message text, if the query failed.
    pub error: Option<String>,
    /// Captured `DataRow` payloads (when asked for).
    pub rows: Vec<Vec<u8>>,
}

/// Walks one simple-query reply from `reader` to `ReadyForQuery`.
pub fn walk_pg_reply(reader: &mut impl Read, keep_rows: bool) -> Result<PgTally, String> {
    let mut walker = Walker::new(Framing::Pg, false);
    let mut tally = PgTally::default();
    let mut ready = false;
    let mut chunk = vec![0u8; CHUNK];
    while !ready {
        let n = reader
            .read(&mut chunk)
            .map_err(|e| format!("pg read: {e}"))?;
        if n == 0 {
            return Err("pg connection closed mid-reply".to_string());
        }
        let left = walker.feed(&chunk[..n], |message| {
            match message.tag {
                b'D' => {
                    tally.data_rows += 1;
                    if keep_rows {
                        if let Some(payload) = message.payload {
                            tally.rows.push(payload.to_vec());
                        }
                    }
                }
                b'C' => {
                    tally.tag = message.payload.map(|p| {
                        String::from_utf8_lossy(p)
                            .trim_end_matches('\0')
                            .to_string()
                    });
                }
                b'E' => {
                    tally.error = Some(
                        message
                            .payload
                            .map(pg_error_text)
                            .unwrap_or_else(|| "oversized ErrorResponse".to_string()),
                    );
                }
                b'Z' => {
                    ready = true;
                    return false;
                }
                _ => {} // RowDescription, ParameterStatus, EmptyQueryResponse, notices
            }
            true
        })?;
        if left != 0 {
            return Err(format!("{left} bytes after ReadyForQuery in a closed loop"));
        }
    }
    tally.bytes = walker.bytes;
    Ok(tally)
}

/// The `M` (message) field of an `ErrorResponse` payload.
fn pg_error_text(payload: &[u8]) -> String {
    payload
        .split(|&b| b == 0)
        .find_map(|field| field.strip_prefix(b"M"))
        .map(|m| String::from_utf8_lossy(m).to_string())
        .unwrap_or_else(|| "ErrorResponse without a message field".to_string())
}

/// Splits a text-format `DataRow` payload into its column values
/// (`None` = SQL NULL).
pub fn pg_data_row_values(payload: &[u8]) -> Result<Vec<Option<String>>, String> {
    let short = || "truncated DataRow".to_string();
    let count = u16::from_be_bytes(payload.get(..2).ok_or_else(short)?.try_into().expect("2"));
    let mut at = 2usize;
    let mut values = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = i32::from_be_bytes(
            payload
                .get(at..at + 4)
                .ok_or_else(short)?
                .try_into()
                .expect("4"),
        );
        at += 4;
        if len < 0 {
            values.push(None);
            continue;
        }
        let end = at + len as usize;
        let bytes = payload.get(at..end).ok_or_else(short)?;
        values.push(Some(String::from_utf8_lossy(bytes).to_string()));
        at = end;
    }
    Ok(values)
}

/// Encodes a simple-query message (`Q`).
pub fn pg_query_message(sql: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(sql.len() + 6);
    out.push(b'Q');
    out.extend_from_slice(&((sql.len() + 5) as u32).to_be_bytes());
    out.extend_from_slice(sql.as_bytes());
    out.push(0);
    out
}

/// A raw PostgreSQL simple-query connection.
#[derive(Debug)]
pub struct PgConn {
    stream: TcpStream,
}

impl PgConn {
    /// Connects and completes the (password-less) startup handshake,
    /// selecting registry entry `database` (`name[@version]`).
    pub fn connect(addr: SocketAddr, database: &str) -> Result<PgConn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut body = Vec::new();
        body.extend_from_slice(&196_608u32.to_be_bytes()); // protocol 3.0
        for (key, value) in [("user", "hydra-benchmark"), ("database", database)] {
            body.extend_from_slice(key.as_bytes());
            body.push(0);
            body.extend_from_slice(value.as_bytes());
            body.push(0);
        }
        body.push(0);
        let mut startup = ((body.len() + 4) as u32).to_be_bytes().to_vec();
        startup.extend_from_slice(&body);
        stream
            .write_all(&startup)
            .map_err(|e| format!("pg startup write: {e}"))?;
        let tally = walk_pg_reply(&mut stream, false)?;
        if let Some(error) = tally.error {
            return Err(format!("pg startup refused: {error}"));
        }
        Ok(PgConn { stream })
    }

    /// Sends one pre-encoded `Q` message and walks the reply.  This is the
    /// timed round trip; decode `rows` afterwards.
    pub fn query(&mut self, message: &[u8], keep_rows: bool) -> Result<PgTally, String> {
        self.stream
            .write_all(message)
            .map_err(|e| format!("pg query write: {e}"))?;
        walk_pg_reply(&mut self.stream, keep_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_service::protocol::encode_frame;

    fn canned_stream() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend(
            encode_frame(&Response::StreamStart(
                hydra_service::protocol::StreamStart {
                    table: "t".into(),
                    columns: vec!["a".into()],
                    start: 0,
                    end: 3,
                },
            ))
            .unwrap(),
        );
        // Two batches; the walker only needs the `{"Batch"` prefix.
        for body in [
            &b"{\"Batch\":{\"rows\":[[1],[2]]}}"[..],
            b"{\"Batch\":{\"rows\":[[3]]}}",
        ] {
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(body);
        }
        bytes.extend(
            encode_frame(&Response::StreamEnd(StreamStats {
                rows: 3,
                elapsed_micros: 7,
                target_rows_per_sec: None,
            }))
            .unwrap(),
        );
        bytes
    }

    /// A reader that hands out at most `step` bytes per call, so headers
    /// and payloads are split at every possible offset.
    struct Dribble<'a>(&'a [u8], usize);
    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_walker_counts_a_canned_stream_however_it_is_split() {
        let bytes = canned_stream();
        for step in [1, 2, 3, 5, 7, 64, bytes.len()] {
            let tally = walk_stream(&mut Dribble(&bytes, step), false).unwrap();
            assert_eq!(tally.bytes, bytes.len() as u64, "step {step}");
            assert_eq!(tally.batches, 2, "step {step}");
            assert_eq!(tally.end.as_ref().unwrap().rows, 3, "step {step}");
        }
        let kept = walk_stream(&mut Dribble(&bytes, 3), true).unwrap();
        assert_eq!(kept.batch_payloads.len(), 2);
        assert_eq!(kept.batch_payloads[1], b"{\"Batch\":{\"rows\":[[3]]}}");
    }

    #[test]
    fn frame_walker_reports_an_error_frame_and_a_closed_socket() {
        let error = encode_frame(&Response::Error {
            message: "unknown summary `x`".into(),
        })
        .unwrap();
        let err = walk_stream(&mut Dribble(&error, 2), false).unwrap_err();
        assert!(err.contains("unknown summary"), "{err}");
        let bytes = canned_stream();
        let err = walk_stream(&mut Dribble(&bytes[..bytes.len() - 5], 4), false).unwrap_err();
        assert!(err.contains("closed mid-stream"), "{err}");
    }

    fn pg_message(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![tag];
        out.extend_from_slice(&((payload.len() + 4) as u32).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn data_row(values: &[Option<&str>]) -> Vec<u8> {
        let mut payload = (values.len() as u16).to_be_bytes().to_vec();
        for value in values {
            match value {
                None => payload.extend_from_slice(&(-1i32).to_be_bytes()),
                Some(text) => {
                    payload.extend_from_slice(&(text.len() as i32).to_be_bytes());
                    payload.extend_from_slice(text.as_bytes());
                }
            }
        }
        payload
    }

    #[test]
    fn pg_walker_counts_rows_and_reads_the_tag_across_split_headers() {
        let mut bytes = pg_message(b'T', b"\0\0");
        let row_a = data_row(&[Some("12"), None]);
        let row_b = data_row(&[Some("7"), Some("x")]);
        bytes.extend(pg_message(b'D', &row_a));
        bytes.extend(pg_message(b'D', &row_b));
        bytes.extend(pg_message(b'C', b"SELECT 2\0"));
        bytes.extend(pg_message(b'Z', b"I"));
        for step in [1, 2, 4, 5, 6, 11, bytes.len()] {
            let tally = walk_pg_reply(&mut Dribble(&bytes, step), true).unwrap();
            assert_eq!(tally.data_rows, 2, "step {step}");
            assert_eq!(tally.tag.as_deref(), Some("SELECT 2"));
            assert_eq!(tally.error, None);
            assert_eq!(tally.bytes, bytes.len() as u64);
            assert_eq!(
                pg_data_row_values(&tally.rows[0]).unwrap(),
                vec![Some("12".to_string()), None]
            );
        }
    }

    #[test]
    fn pg_walker_surfaces_an_error_response() {
        let mut bytes = pg_message(
            b'E',
            b"SERROR\0C42601\0Msyntax error at or near \"frogs\"\0\0",
        );
        bytes.extend(pg_message(b'Z', b"I"));
        let tally = walk_pg_reply(&mut Dribble(&bytes, 3), false).unwrap();
        assert_eq!(tally.tag, None);
        assert_eq!(
            tally.error.as_deref(),
            Some("syntax error at or near \"frogs\"")
        );
    }

    #[test]
    fn query_message_is_tag_length_sql_nul() {
        assert_eq!(pg_query_message("select 1"), b"Q\0\0\0\x0dselect 1\0");
    }
}
