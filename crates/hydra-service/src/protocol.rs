//! The wire protocol: length-prefixed JSON frames and the request/response
//! message families.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of JSON (the same serde path the transfer
//! package uses, so anything that crosses the client → vendor boundary
//! in-process can cross the wire unchanged):
//!
//! ```text
//! ┌──────────────┬──────────────────────────────────────────┐
//! │ len: u32 BE  │ payload: JSON, exactly `len` bytes       │
//! └──────────────┴──────────────────────────────────────────┘
//! ```
//!
//! Most exchanges are one request frame → one response frame.  `Stream` is
//! the exception: the server answers with `StreamStart`, then a sequence of
//! `Batch` frames, then `StreamEnd` — so a slow consumer backpressures the
//! generator through the socket, and a velocity-regulated stream is paced
//! frame by frame.

use crate::error::{ServiceError, ServiceResult};
use hydra_core::scenario::Scenario;
use hydra_core::transfer::TransferPackage;
use hydra_engine::row::Row;
use hydra_query::delta::WorkloadDelta;
use hydra_query::exec::QueryAnswer;
use hydra_summary::delta::{DeltaBuildReport, SummaryDiff};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Hard cap on a single frame's payload size (64 MiB). Oversized length
/// prefixes — a corrupt stream or a hostile peer — fail fast instead of
/// attempting a huge allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Writes one frame (length prefix + JSON payload) to `w` without flushing;
/// callers flush once per protocol exchange.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, message: &T) -> ServiceResult<()> {
    let payload = serde_json::to_string(message)?;
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(ServiceError::Protocol(format!(
            "frame of {} bytes exceeds the {} byte cap",
            bytes.len(),
            MAX_FRAME_BYTES
        )));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Reads one frame from `r`.  Returns `Ok(None)` on a clean end-of-stream
/// (the peer closed the connection between frames); a connection that dies
/// mid-frame is an error.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> ServiceResult<Option<T>> {
    let mut header = [0u8; 4];
    // Distinguish "closed between frames" (first read returns 0) from
    // "died mid-header".
    let mut filled = 0usize;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ServiceError::Protocol(
                "connection closed mid-frame header".to_string(),
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(ServiceError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES} byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| ServiceError::Protocol(format!("frame payload is not UTF-8: {e}")))?;
    Ok(Some(serde_json::from_str(&text)?))
}

/// Outcome of one [`decode_frame`] attempt over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecoded {
    /// A complete frame sat at the front of the buffer: its JSON payload
    /// and the total bytes to consume (header + payload).
    Complete {
        /// The frame's payload, *not* yet parsed as JSON.
        payload: Vec<u8>,
        /// Bytes of the buffer this frame occupied.
        consumed: usize,
    },
    /// Not enough bytes for a whole frame yet; feed more input.
    Incomplete,
}

/// Incrementally decodes one frame from the front of `buf` without
/// blocking — the non-blocking twin of [`read_frame`] used by the reactor's
/// per-connection decode state machine.  Framing-level violations (an
/// oversized length prefix) are unrecoverable for the connection and come
/// back as errors; the JSON payload is deliberately not parsed here (that
/// happens off the event loop).
pub fn decode_frame(buf: &[u8]) -> ServiceResult<FrameDecoded> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(FrameDecoded::Incomplete);
    };
    let len = u32::from_be_bytes(*header);
    if len > MAX_FRAME_BYTES {
        return Err(ServiceError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES} byte cap"
        )));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(FrameDecoded::Incomplete);
    }
    Ok(FrameDecoded::Complete {
        payload: buf[4..total].to_vec(),
        consumed: total,
    })
}

/// The variant name of an externally tagged request payload — `Query` for
/// `{"Query":…}`, `List` for `"List"` — read after leading whitespace
/// without deserializing anything, so the event loop can route a frame by
/// what it asks for before deciding whether to parse it there.  `None`
/// when the payload does not start like a tagged request.
pub fn request_tag(payload: &[u8]) -> Option<&str> {
    let rest = payload.trim_ascii_start();
    let rest = match rest.split_first() {
        Some((b'{', inner)) => inner.trim_ascii_start(),
        _ => rest,
    };
    let name = rest.strip_prefix(b"\"")?;
    let end = name.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&name[..end]).ok()
}

/// Encodes one message as a standalone frame (length prefix + JSON payload)
/// into a fresh buffer — what reactor tasks push onto a connection's write
/// queue.  Fails (without producing bytes) when the encoding exceeds the
/// frame cap, exactly like [`write_frame`].
pub fn encode_frame<T: Serialize>(message: &T) -> ServiceResult<Vec<u8>> {
    let mut buf = Vec::new();
    write_frame(&mut buf, message)?;
    Ok(buf)
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Upload a transfer package; the server solves it and registers the
    /// resulting summary under `name` (bumping the version if the name
    /// already exists).
    Publish {
        /// Registry name to publish under (`[A-Za-z0-9_-]+`).
        name: String,
        /// The client-site synopsis to regenerate from.
        package: TransferPackage,
    },
    /// Evolve a registered summary *incrementally*: the delta (queries
    /// added / retired / re-annotated, revised row counts) merges into the
    /// entry's workload, only the relations it touches re-solve (from
    /// scratch), the registry version is bumped atomically, and the
    /// structural diff comes back over the wire.
    DeltaPublish {
        /// Registry name of the summary to evolve.
        name: String,
        /// The workload evolution step.
        delta: WorkloadDelta,
    },
    /// List every registered summary.
    List,
    /// Describe one registered summary: per-relation row counts, summary
    /// sizes and constraint signatures.
    Describe {
        /// Registry name to describe.
        name: String,
    },
    /// Stream a row range of one relation as framed tuple batches.
    Stream(StreamRequest),
    /// Answer an analytical aggregate over a registered summary — in the
    /// summary-direct case without regenerating a single tuple, so the
    /// answer crosses the wire as one frame instead of a row stream.
    Query(QueryRequest),
    /// Server-side what-if re-solve over a registered summary's package.
    Scenario {
        /// Registry name of the baseline summary.
        name: String,
        /// The distortion to apply.
        spec: ScenarioSpec,
    },
    /// Snapshot the server's metrics registry (counters, gauges and
    /// histogram quantiles) as flat samples.
    Stats,
    /// Stop accepting connections and shut the server down cleanly.
    Shutdown,
}

/// Parameters of a `Stream` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamRequest {
    /// Registry name of the summary to generate from.
    pub name: String,
    /// Relation to regenerate.
    pub table: String,
    /// First row of the range (default 0).
    pub start: Option<u64>,
    /// One past the last row of the range (default: the relation's row
    /// count; clamped to it either way).
    pub end: Option<u64>,
    /// Tuples per `Batch` frame (default [`StreamRequest::DEFAULT_BATCH_ROWS`]).
    pub batch_rows: Option<u64>,
    /// Per-connection velocity cap in rows per second (default: the server
    /// session's velocity, unthrottled if that is unset too).
    pub rows_per_sec: Option<f64>,
}

impl StreamRequest {
    /// Default number of tuples per batch frame.
    pub const DEFAULT_BATCH_ROWS: u64 = 1024;

    /// A full-table stream request with default batching and pacing.
    pub fn full(name: impl Into<String>, table: impl Into<String>) -> Self {
        StreamRequest {
            name: name.into(),
            table: table.into(),
            start: None,
            end: None,
            batch_rows: None,
            rows_per_sec: None,
        }
    }

    /// Restricts the stream to the row range `[start, end)`.
    pub fn range(mut self, start: u64, end: u64) -> Self {
        self.start = Some(start);
        self.end = Some(end);
        self
    }

    /// Sets the batch size in tuples per frame.
    pub fn batch_rows(mut self, rows: u64) -> Self {
        self.batch_rows = Some(rows);
        self
    }

    /// Caps this stream's velocity (rows per second).
    pub fn rows_per_sec(mut self, rate: f64) -> Self {
        self.rows_per_sec = Some(rate);
        self
    }
}

/// Parameters of a `Query` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Registry name of the summary to query.
    pub name: String,
    /// The aggregate SQL text (COUNT / SUM / AVG, conjunctive predicates,
    /// key–FK joins, GROUP BY).
    pub sql: String,
    /// When `true`, an out-of-class query is an error — the server must
    /// never silently fall back to regenerating and scanning tuples.
    pub summary_only: bool,
}

impl QueryRequest {
    /// A query allowed to fall back to a tuple scan when out of class.
    pub fn new(name: impl Into<String>, sql: impl Into<String>) -> Self {
        QueryRequest {
            name: name.into(),
            sql: sql.into(),
            summary_only: false,
        }
    }

    /// Requires a summary-direct answer (out-of-class queries error).
    pub fn summary_only(mut self) -> Self {
        self.summary_only = true;
        self
    }
}

/// A serializable what-if scenario (the subset of
/// [`hydra_core::scenario::Scenario`] that crosses the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub scenario: String,
    /// Uniform scale factor on every cardinality and row count.
    pub scale_factor: f64,
    /// Absolute per-relation row-count overrides applied after scaling.
    pub row_overrides: BTreeMap<String, u64>,
    /// When `true`, an infeasible scenario is an error; otherwise the
    /// least-violation summary is built and the violation reported.
    pub strict: bool,
}

impl ScenarioSpec {
    /// A pure scale-up/down scenario.
    pub fn scaled(name: impl Into<String>, scale_factor: f64) -> Self {
        ScenarioSpec {
            scenario: name.into(),
            scale_factor,
            row_overrides: BTreeMap::new(),
            strict: false,
        }
    }

    /// Adds an absolute row-count override for one relation.
    pub fn with_row_override(mut self, table: impl Into<String>, rows: u64) -> Self {
        self.row_overrides.insert(table.into(), rows);
        self
    }

    /// Requires the scenario to be exactly feasible.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Converts the spec into the in-process scenario type.
    pub fn to_scenario(&self) -> Scenario {
        let mut scenario = Scenario::scaled(self.scenario.clone(), self.scale_factor);
        for (table, rows) in &self.row_overrides {
            scenario = scenario.with_row_override(table.clone(), *rows);
        }
        if self.strict {
            scenario = scenario.strict();
        }
        scenario
    }
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The summary was solved and registered.
    Published(SummaryInfo),
    /// A delta was merged and the evolved summary registered.
    DeltaPublished(DeltaPublished),
    /// The registry listing.
    SummaryList(Vec<SummaryInfo>),
    /// One summary described relation by relation.
    Described(SummaryDetail),
    /// A tuple stream is starting; `Batch` frames follow.
    StreamStart(StreamStart),
    /// One batch of regenerated tuples, in plan order.
    Batch {
        /// The tuples of this batch.
        rows: Vec<Row>,
    },
    /// The tuple stream finished.
    StreamEnd(StreamStats),
    /// Outcome of a server-side scenario re-solve.
    ScenarioOutcome(ScenarioReport),
    /// The answer to a `Query` request (rows, strategy and cost counters).
    QueryResult(QueryAnswer),
    /// A metrics snapshot: every counter, gauge and histogram-derived
    /// quantile as one flat sample list.
    Stats {
        /// The snapshot's samples, in deterministic (family, label) order.
        samples: Vec<MetricSample>,
    },
    /// The server acknowledged a shutdown request and is stopping.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// One flattened metric sample of a `Stats` response.  Histograms expand
/// into `_count` / `_sum` / `_p50` / `_p90` / `_p99` / `_max` suffixed
/// samples, so every value fits in one `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Sample name (family name, possibly suffixed for histogram facets).
    pub name: String,
    /// Label key, or the empty string for an unlabeled sample.
    pub label_key: String,
    /// Label value, or the empty string for an unlabeled sample.
    pub label_value: String,
    /// Sample value (seconds for `_seconds` families, else raw units).
    pub value: f64,
}

/// Outcome of a `DeltaPublish`: the bumped registry description, the
/// structural diff against the previous version, and the per-relation
/// reuse / re-solve account of the incremental rebuild.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaPublished {
    /// The evolved entry's registry description (version bumped).
    pub info: SummaryInfo,
    /// Blocks added / removed / resized per relation.
    pub diff: SummaryDiff,
    /// What re-solved and what was reused.
    pub report: DeltaBuildReport,
}

/// Registry-level description of one published summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryInfo {
    /// Registry name.
    pub name: String,
    /// Version, bumped on every re-publish of the same name (starts at 1).
    pub version: u32,
    /// Number of relations in the summary.
    pub relations: usize,
    /// Total tuples the summary regenerates across relations.
    pub total_rows: u64,
    /// Size of the summary in bytes (the vendor-side deliverable).
    pub summary_bytes: usize,
    /// Number of queries in the published workload.
    pub queries: usize,
}

/// Per-relation description of one published summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryDetail {
    /// The registry-level description.
    pub info: SummaryInfo,
    /// Per-relation rows, in deterministic relation order.
    pub relations: Vec<RelationInfo>,
}

/// One relation of a described summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationInfo {
    /// Relation name.
    pub table: String,
    /// Tuples the summary regenerates for this relation.
    pub total_rows: u64,
    /// Number of summary rows (pk blocks).
    pub summary_rows: usize,
    /// Number of volumetric constraints the workload put on this relation.
    pub constraints: usize,
    /// Fingerprint of the relation's constraint set (canonical-JSON hash) —
    /// two versions with the same signature were solved from the same
    /// volumetric demands.
    pub constraint_signature: u64,
    /// Whether the relation's LP was exactly feasible.
    pub feasible: bool,
}

/// Header frame of a tuple stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStart {
    /// Relation being streamed.
    pub table: String,
    /// Column names, in tuple order.
    pub columns: Vec<String>,
    /// First row of the (clamped) range.
    pub start: u64,
    /// One past the last row of the (clamped) range.
    pub end: u64,
}

/// Trailer frame of a tuple stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Tuples streamed.
    pub rows: u64,
    /// Server-side wall clock of the stream in microseconds.
    pub elapsed_micros: u64,
    /// The velocity cap that paced the stream, if any.
    pub target_rows_per_sec: Option<f64>,
}

/// Outcome of a server-side scenario re-solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name (echoed from the spec).
    pub scenario: String,
    /// Whether every relation's LP was exactly feasible.
    pub feasible: bool,
    /// Total LP violation across relations (0 when feasible).
    pub total_violation: f64,
    /// Relations reused from the registered version the scenario was built
    /// against instead of being re-solved.
    pub cached_relations: usize,
    /// Regenerated row count per relation under the scenario.
    pub relation_rows: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::types::Value;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        let requests = vec![
            Request::List,
            Request::Describe {
                name: "retail".to_string(),
            },
            Request::Stream(
                StreamRequest::full("retail", "store_sales")
                    .range(10, 20)
                    .batch_rows(7)
                    .rows_per_sec(1e4),
            ),
            Request::Scenario {
                name: "retail".to_string(),
                spec: ScenarioSpec::scaled("x10", 10.0)
                    .with_row_override("store_sales", 12345)
                    .strict(),
            },
            Request::Query(
                QueryRequest::new(
                    "retail",
                    "select count(*) from store_sales group by store_sales.ss_quantity",
                )
                .summary_only(),
            ),
            Request::Shutdown,
        ];
        for r in &requests {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for expected in &requests {
            let got: Request = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert!(read_frame::<_, Request>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn batch_frames_carry_values() {
        let response = Response::Batch {
            rows: vec![
                vec![Value::Integer(1), Value::str("a"), Value::Null],
                vec![Value::Integer(2), Value::Double(0.5), Value::Boolean(true)],
            ],
        };
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &response).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, response);
    }

    #[test]
    fn query_result_frames_round_trip() {
        use hydra_query::exec::{AnswerRow, ExecStrategy};
        let response = Response::QueryResult(QueryAnswer {
            group_columns: vec!["item.i_category".to_string()],
            aggregate_columns: vec!["count(*)".to_string(), "avg(item.i_price)".to_string()],
            rows: vec![AnswerRow {
                key: vec![Value::str("Music")],
                aggregates: vec![Value::Integer(125), Value::Double(1.25)],
            }],
            strategy: ExecStrategy::SummaryDirect,
            fact_blocks: 4,
            scanned_tuples: 0,
        });
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &response).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, response);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(matches!(
            read_frame::<_, Request>(&mut &buf[..]),
            Err(ServiceError::Protocol(_))
        ));
        // Death mid-header.
        let partial = [0u8, 0u8];
        assert!(read_frame::<_, Request>(&mut &partial[..]).is_err());
        // Death mid-payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"[");
        assert!(read_frame::<_, Request>(&mut &buf[..]).is_err());
        // Valid frame, malformed JSON payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(b"{oops");
        assert!(matches!(
            read_frame::<_, Request>(&mut &buf[..]),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn incremental_decode_matches_blocking_read() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &Request::List).unwrap();
        write_frame(
            &mut buf,
            &Request::Describe {
                name: "retail".to_string(),
            },
        )
        .unwrap();

        // Byte-at-a-time: every prefix short of the first frame is Incomplete.
        let first_len = 4 + u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        for cut in 0..first_len {
            assert_eq!(decode_frame(&buf[..cut]).unwrap(), FrameDecoded::Incomplete);
        }
        let FrameDecoded::Complete { payload, consumed } = decode_frame(&buf).unwrap() else {
            panic!("first frame should be complete");
        };
        assert_eq!(consumed, first_len);
        let request: Request =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(request, Request::List);

        // The remainder decodes the second frame and consumes the buffer.
        let FrameDecoded::Complete { payload, consumed } = decode_frame(&buf[first_len..]).unwrap()
        else {
            panic!("second frame should be complete");
        };
        assert_eq!(first_len + consumed, buf.len());
        let request: Request =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert!(matches!(request, Request::Describe { .. }));

        // Oversized length prefix is a framing error, like read_frame.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(matches!(decode_frame(&bad), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn request_tag_names_every_variant_without_parsing() {
        let requests = [
            (Request::List, "List"),
            (Request::Stats, "Stats"),
            (Request::Shutdown, "Shutdown"),
            (
                Request::Describe {
                    name: "retail".to_string(),
                },
                "Describe",
            ),
            (
                Request::Query(QueryRequest::new("retail", "select count(*) from t")),
                "Query",
            ),
            (
                Request::Stream(StreamRequest::full("retail", "t")),
                "Stream",
            ),
        ];
        for (request, tag) in requests {
            let frame = encode_frame(&request).unwrap();
            assert_eq!(request_tag(&frame[4..]), Some(tag), "{request:?}");
        }
        assert_eq!(request_tag(b" \n{ \"Query\" : {}}"), Some("Query"));
        assert_eq!(request_tag(b"  \"List\""), Some("List"));
        assert_eq!(request_tag(b"{oops"), None);
        assert_eq!(request_tag(b"{\"unterminated"), None);
        assert_eq!(request_tag(b""), None);
    }

    #[test]
    fn encode_frame_round_trips_and_respects_cap() {
        let frame = encode_frame(&Request::List).unwrap();
        let got: Request = read_frame(&mut &frame[..]).unwrap().unwrap();
        assert_eq!(got, Request::List);

        let huge = Response::Error {
            message: "x".repeat((MAX_FRAME_BYTES as usize) + 1),
        };
        assert!(matches!(
            encode_frame(&huge),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn scenario_spec_converts_to_scenario() {
        let spec = ScenarioSpec::scaled("stress", 2.0).with_row_override("item", 99);
        let scenario = spec.to_scenario();
        assert_eq!(scenario.name, "stress");
        assert_eq!(scenario.scale_factor, 2.0);
        assert_eq!(scenario.row_overrides.get("item"), Some(&99));
        assert!(!scenario.strict);
        assert!(spec.strict().to_scenario().strict);
    }
}
