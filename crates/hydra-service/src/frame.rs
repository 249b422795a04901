//! The frame protocol as a reactor state machine.
//!
//! The server side of the frame protocol, decomposed into the pieces the
//! reactor core wants:
//!
//! * [`FrameProtocol`] mints a connection handler per accepted connection;
//! * the handler slices complete frames off the receive buffer
//!   ([`decode_frame`]) on the event loop and routes each one by what it
//!   asks for ([`request_tag`]), without deserializing anything first;
//! * `Query`, `Describe` and `List` are bounded by the summary, so they are
//!   deserialized and answered right there: the reply goes into the
//!   reactor's output buffer and is flushed in the same tick.  A `Query`
//!   runs summary-direct (`ExecMode::SummaryOnly`); an out-of-class query
//!   that may fall back is handed, already parsed and classified, to the
//!   pool for its tuple scan (`ExecMode::ScanOnly`) — together exactly
//!   `ExecMode::Auto`, with classification run once;
//! * everything else — publishes, deltas, scenarios, `Stats`, `Stream`,
//!   `Shutdown`, unknown or malformed payloads — becomes a task on the
//!   worker pool, which deserializes the request and answers one-shot
//!   requests in a single poll.  A `Stream` request is validated here and
//!   then handed to the wire pump ([`crate::pump`]) with the frame
//!   encoder: `Batch` frames, a `StreamEnd` trailer, and on a mid-stream
//!   failure an `Error` frame on a connection that stays usable.
//!
//! Every request keeps its span, and the span closes before the reply is
//! queued, so a client that reads a reply and then scrapes the metrics
//! always finds the request counted.
//!
//! ## Wire parity with the in-process reference
//!
//! The torture suite holds a stream's header and batches to *byte identity*
//! against [`crate::wire::FrameSink`] driven in-process, which pins down
//! three subtleties:
//!
//! * **Batch boundaries.** The sink emits a `Batch` frame exactly every
//!   `batch_rows` tuples, so the encoder keeps its partial batch across
//!   pulses instead of flushing at pulse edges.
//! * **Frame-cap splitting.** Both drive one `BatchEncoder`: an oversized
//!   batch splits in half recursively, down to the same single-tuple error
//!   message.
//! * **Pacing.** Both are paced by `VelocityGovernor::next_pulse`, the one
//!   pacing rule: a finished stream still waits out its final deficit
//!   before `StreamEnd`, so elapsed-time stats and rate caps agree.
//!
//! A framing-level violation (oversized length prefix) desynchronizes the
//! byte stream, so the handler answers with an `Error` frame and then
//! *closes* the connection.

use crate::error::ServiceError;
use crate::protocol::{
    decode_frame, encode_frame, request_tag, FrameDecoded, MetricSample, QueryRequest, Request,
    Response, StreamRequest, StreamStart, StreamStats,
};
use crate::pump::{BlockEncoder, Pump};
use crate::registry::{RegistryEntry, SummaryRegistry};
use crate::wire::BatchEncoder;
use hydra_datagen::exec::{ExecError, ExecMode, ExecResult, QueryEngine};
use hydra_datagen::generator::GenerationStats;
use hydra_datagen::governor::VelocityGovernor;
use hydra_datagen::stream::RowBlock;
use hydra_obs::{Counter, Span};
use hydra_query::exec::{AggregateQuery, QueryAnswer};
use hydra_query::parser::parse_aggregate_query_for_schema;
use hydra_reactor::{
    ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, TaskPoll, INLINE_BYTES_MAX,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hydra_reactor::ShutdownSignal;

/// Serves one registry request, producing the response frame's message.
/// `Query`, `Stream` and `Shutdown` never reach it: they need more than
/// one response or connection-level control flow, and
/// [`FrameCtx::serve`] handles them.
fn respond(registry: &SummaryRegistry, request: Request) -> Response {
    match request {
        Request::Publish { name, package } => match registry.publish(&name, package) {
            Ok(entry) => Response::Published(entry.info()),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::DeltaPublish { name, delta } => match registry.delta_publish(&name, &delta) {
            Ok(published) => Response::DeltaPublished(published),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::List => Response::SummaryList(registry.list().iter().map(|e| e.info()).collect()),
        // `Describe`, `Query` and `Stream` resolve `name` or `name@version`
        // specs: a bare name serves the latest version, a pinned spec any
        // retained historical one (time travel).
        Request::Describe { name } => match registry.resolve(&name) {
            Ok(entry) => Response::Described(entry.detail()),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Stats => {
            let samples = registry
                .session()
                .metrics()
                .snapshot()
                .samples()
                .into_iter()
                .map(|s| {
                    let (label_key, label_value) = s.label.unwrap_or_default();
                    MetricSample {
                        name: s.name,
                        label_key,
                        label_value,
                        value: s.value,
                    }
                })
                .collect();
            Response::Stats { samples }
        }
        Request::Scenario { name, spec } => match registry.scenario(&name, &spec) {
            Ok(report) => Response::ScenarioOutcome(report),
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Query(_) | Request::Stream(_) | Request::Shutdown => Response::Error {
            message: "request requires connection-level handling".to_string(),
        },
    }
}

/// What a frame listener serves from: the shared registry, the server's
/// shutdown signal (a `Shutdown` frame trips it for every front-end on the
/// reactor) and the response-frame byte counter
/// (`hydra_frame_bytes_total`).  Cloned into every connection handler and
/// every pool task.
#[derive(Clone)]
struct FrameCtx {
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    frame_bytes: Arc<Counter>,
}

/// The frame protocol's listener-level factory: one per frame listener.
pub struct FrameProtocol {
    ctx: FrameCtx,
}

impl FrameProtocol {
    /// A protocol serving `registry`, tripping `signal` on a client
    /// `Shutdown` request.
    pub fn new(registry: Arc<SummaryRegistry>, signal: ShutdownSignal) -> FrameProtocol {
        let frame_bytes = registry
            .session()
            .metrics()
            .counter("hydra_frame_bytes_total");
        FrameProtocol {
            ctx: FrameCtx {
                registry,
                signal,
                frame_bytes,
            },
        }
    }
}

impl Protocol for FrameProtocol {
    fn connect(&self) -> Box<dyn ConnHandler> {
        Box::new(FrameHandler {
            ctx: self.ctx.clone(),
        })
    }
}

/// Per-connection incremental decoder: slices complete frames off the
/// receive buffer, answers bounded requests inline and hands the rest to
/// the worker pool as [`FrameTask`]s.
struct FrameHandler {
    ctx: FrameCtx,
}

/// True when a frame is provably bounded work: a small `Query`,
/// `Describe` or `List`, whose cost is O(summary), never O(rows).
fn answered_inline(payload: &[u8]) -> bool {
    payload.len() <= INLINE_BYTES_MAX
        && matches!(request_tag(payload), Some("Query" | "Describe" | "List"))
}

impl ConnHandler for FrameHandler {
    fn on_bytes(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match decode_frame(buf) {
            Ok(FrameDecoded::Incomplete) => (0, HandlerOutcome::Continue),
            Ok(FrameDecoded::Complete { payload, consumed }) => {
                let outcome = if answered_inline(&payload) {
                    match self.ctx.serve_payload(&payload, out) {
                        Served::Done => HandlerOutcome::Continue,
                        Served::Close => HandlerOutcome::Close,
                        Served::Pool(state) => HandlerOutcome::Task(self.task(state)),
                    }
                } else {
                    HandlerOutcome::Task(self.task(TaskState::Init { payload }))
                };
                (consumed, outcome)
            }
            Err(e) => {
                // The byte stream is desynchronized; count it, answer, then
                // close.
                self.ctx
                    .registry
                    .session()
                    .metrics()
                    .counter_labeled("hydra_request_errors_total", "op", "frame.framing")
                    .inc();
                self.ctx.error_frame(out, e.to_string());
                (buf.len(), HandlerOutcome::Close)
            }
        }
    }
}

impl FrameHandler {
    fn task(&self, state: TaskState) -> Box<dyn ConnTask> {
        Box::new(FrameTask {
            ctx: self.ctx.clone(),
            state,
        })
    }
}

/// What serving a request left to do once its immediate output is in the
/// output buffer.
enum Served {
    /// The reply is complete.
    Done,
    /// Flush the reply, then close the connection.
    Close,
    /// The request continues on the worker pool in this state.
    Pool(TaskState),
}

/// One request's worth of work on the worker pool.
struct FrameTask {
    ctx: FrameCtx,
    state: TaskState,
}

enum TaskState {
    /// The raw frame payload, not yet deserialized.
    Init {
        /// JSON bytes of the request.
        payload: Vec<u8>,
    },
    /// An out-of-class query awaiting its tuple scan.
    Scan(Box<ScanFallback>),
    /// A `Stream` request in flight.
    Stream(Box<Pump<FrameEncoder>>),
}

/// A query parsed and classified out of the summary-direct class, carried
/// to the pool with its span so the request is logged once, end to end.
struct ScanFallback {
    /// The registry version the query was classified against.
    entry: Arc<RegistryEntry>,
    query: AggregateQuery,
    span: Span,
}

impl ConnTask for FrameTask {
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
        // Abort-on-disconnect: no point deserializing, generating or
        // encoding for a peer that is gone.
        if conn.is_dead() {
            return TaskPoll::Done;
        }
        if let TaskState::Stream(stream) = &mut self.state {
            return match stream.poll(conn) {
                Ok(poll) => poll,
                Err(e) => {
                    // A stream that dies after its header (frame-cap
                    // violation, generation failure) reports an Error
                    // frame and keeps the connection.
                    let mut out = Vec::new();
                    self.ctx.error_frame(&mut out, e.to_string());
                    conn.push(out);
                    TaskPoll::Done
                }
            };
        }
        let mut out = Vec::new();
        let state = std::mem::replace(
            &mut self.state,
            TaskState::Init {
                payload: Vec::new(),
            },
        );
        let served = match state {
            TaskState::Init { payload } => self.ctx.serve_payload(&payload, &mut out),
            TaskState::Scan(fallback) => self.ctx.finish_scan(*fallback, &mut out),
            TaskState::Stream(_) => unreachable!("streams are pumped above"),
        };
        conn.push(out);
        match served {
            Served::Done => TaskPoll::Done,
            Served::Close => TaskPoll::DoneClose,
            Served::Pool(state) => {
                self.state = state;
                TaskPoll::Yield
            }
        }
    }
}

impl FrameCtx {
    /// Deserializes a frame payload and serves the request, writing its
    /// immediate output into `out`.
    fn serve_payload(&self, payload: &[u8], out: &mut Vec<u8>) -> Served {
        let metrics = self.registry.session().metrics();
        let request = match parse_request(payload) {
            Ok(request) => request,
            Err(e) => {
                // Malformed *payload* in a well-framed message: answered,
                // not fatal — framing is still in sync.
                metrics.span("frame.invalid").set_error();
                self.error_frame(out, e.to_string());
                return Served::Done;
            }
        };
        let mut span = metrics.span(op_name(&request));
        match &request {
            Request::Publish { name, .. }
            | Request::DeltaPublish { name, .. }
            | Request::Describe { name }
            | Request::Scenario { name, .. } => span.set_kind(name.clone()),
            Request::Query(q) => span.set_kind(q.sql.clone()),
            Request::Stream(s) => span.set_kind(format!("{}.{}", s.name, s.table)),
            Request::List | Request::Stats | Request::Shutdown => {}
        }
        self.serve(request, span, out)
    }

    /// Serves one parsed request under its span.  Every arm closes the
    /// span before writing the reply, so the request is counted by the
    /// time the client can read the answer.
    fn serve(&self, request: Request, mut span: Span, out: &mut Vec<u8>) -> Served {
        match request {
            Request::Shutdown => {
                // Trigger *before* queueing the reply: the reactor thread
                // flushes the queue concurrently, and a client must find
                // the signal tripped the moment it reads `ShuttingDown`.
                // The shutdown grace period lets this reply drain.
                self.signal.trigger();
                drop(span);
                self.frame(out, &Response::ShuttingDown);
                Served::Close
            }
            Request::Stream(request) => match self.open_stream(&request, out) {
                Ok((entry, rows)) => {
                    let encoder = FrameEncoder {
                        batch: BatchEncoder::new(
                            request
                                .batch_rows
                                .unwrap_or(StreamRequest::DEFAULT_BATCH_ROWS),
                        ),
                        frame_bytes: Arc::clone(&self.frame_bytes),
                    };
                    // The span now spans the whole stream: the pump closes
                    // it at the trailer or when the stream stops early.
                    Served::Pool(TaskState::Stream(Box::new(Pump::new(
                        self.registry.session(),
                        entry,
                        &request.table,
                        rows,
                        request.rows_per_sec,
                        encoder,
                        span,
                    ))))
                }
                Err(e) => {
                    // Header-stage failure (unknown summary/table, bad
                    // rate): the connection stays usable.
                    span.set_error();
                    drop(span);
                    self.error_frame(out, e.to_string());
                    Served::Done
                }
            },
            Request::Query(request) => self.query(request, span, out),
            other => {
                let response = respond(&self.registry, other);
                if matches!(response, Response::Error { .. }) {
                    span.set_error();
                }
                match encode_frame(&response) {
                    Ok(frame) => {
                        drop(span);
                        self.frame_bytes.add(frame.len() as u64);
                        out.extend_from_slice(&frame);
                        Served::Done
                    }
                    // An unframeable response outside Query has no
                    // smaller form to fall back to: close.
                    Err(_) => {
                        span.set_error();
                        Served::Close
                    }
                }
            }
        }
    }

    /// Answers a query from the summary (`ExecMode::SummaryOnly`).  An
    /// out-of-class query that may fall back leaves for the pool, parsed
    /// and classified, to run its tuple scan there.
    fn query(&self, request: QueryRequest, mut span: Span, out: &mut Vec<u8>) -> Served {
        let entry = match self.registry.resolve(&request.name) {
            Ok(entry) => entry,
            Err(e) => {
                span.set_error();
                drop(span);
                self.error_frame(out, e.to_string());
                return Served::Done;
            }
        };
        let generator = entry.generator();
        let started = Instant::now();
        let query = match parse_aggregate_query_for_schema("query", &request.sql, generator.schema)
        {
            Ok(query) => query,
            Err(e) => return self.answer(Err(e.into()), span, started, out),
        };
        match QueryEngine::new(&generator).execute_mode(&query, ExecMode::SummaryOnly) {
            Err(ExecError::OutOfClass(_)) if !request.summary_only => {
                Served::Pool(TaskState::Scan(Box::new(ScanFallback {
                    entry: Arc::clone(&entry),
                    query,
                    span,
                })))
            }
            result => self.answer(result, span, started, out),
        }
    }

    /// The pool half of an out-of-class query: the tuple scan.
    /// `hydra_query_seconds` times the scan alone, not the wait for a
    /// worker.
    fn finish_scan(&self, fallback: ScanFallback, out: &mut Vec<u8>) -> Served {
        let ScanFallback { entry, query, span } = fallback;
        let started = Instant::now();
        let result = QueryEngine::new(&entry.generator()).execute_mode(&query, ExecMode::ScanOnly);
        self.answer(result, span, started, out)
    }

    /// Records a query's outcome and frames it into `out`.
    fn answer(
        &self,
        result: ExecResult<QueryAnswer>,
        mut span: Span,
        started: Instant,
        out: &mut Vec<u8>,
    ) -> Served {
        let response = match result {
            Ok(answer) => {
                self.registry
                    .session()
                    .record_query(answer.strategy, started.elapsed());
                span.set_detail(answer.strategy.label());
                Response::QueryResult(answer)
            }
            Err(e) => {
                span.set_error();
                Response::Error {
                    message: e.to_string(),
                }
            }
        };
        match encode_frame(&response) {
            Ok(frame) => {
                drop(span);
                self.frame_bytes.add(frame.len() as u64);
                out.extend_from_slice(&frame);
            }
            Err(e) => {
                // A pathological answer can exceed the frame cap; nothing
                // was written, so the connection is in sync.
                span.set_error();
                drop(span);
                self.error_frame(
                    out,
                    format!(
                        "query answer could not be framed: {e}; \
                         refine the GROUP BY or stream the relation instead"
                    ),
                );
            }
        }
        Served::Done
    }

    /// Encodes a response into `out`; encode failures for these small
    /// control frames cannot happen (and are dropped if they somehow do —
    /// the peer will see the connection close instead).
    fn frame(&self, out: &mut Vec<u8>, response: &Response) {
        if let Ok(frame) = encode_frame(response) {
            self.frame_bytes.add(frame.len() as u64);
            out.extend_from_slice(&frame);
        }
    }

    /// Encodes an `Error` response into `out`.
    fn error_frame(&self, out: &mut Vec<u8>, message: String) {
        self.frame(out, &Response::Error { message });
    }

    /// Resolves and validates a `Stream` request — the one place the
    /// requested range is clamped to the relation and a wire-supplied rate
    /// is checked — writing the `StreamStart` header into `out` and
    /// returning the resolved version and the clamped range.
    fn open_stream(
        &self,
        request: &StreamRequest,
        out: &mut Vec<u8>,
    ) -> Result<(Arc<RegistryEntry>, Range<u64>), ServiceError> {
        let entry = self.registry.resolve(&request.name)?;
        let (table, summary) = entry.generator().relation(&request.table).map_err(|_| {
            ServiceError::Protocol(format!(
                "summary `{}` has no relation `{}`",
                request.name, request.table
            ))
        })?;
        let total = summary.total_rows;
        let start = request.start.unwrap_or(0).min(total);
        let end = request.end.unwrap_or(total).clamp(start, total);
        // A wire-supplied rate is untrusted input: a zero, negative, NaN or
        // absurdly small rate would park this stream's timer essentially
        // forever.
        if let Some(rate) = request.rows_per_sec {
            if !rate.is_finite() || rate < VelocityGovernor::MIN_RATE {
                return Err(ServiceError::Protocol(format!(
                    "rows_per_sec must be a finite rate >= {}, got {rate}",
                    VelocityGovernor::MIN_RATE
                )));
            }
        }
        let header = encode_frame(&Response::StreamStart(StreamStart {
            table: table.name.clone(),
            columns: table.columns().iter().map(|c| c.name.clone()).collect(),
            start,
            end,
        }))?;
        self.frame_bytes.add(header.len() as u64);
        out.extend_from_slice(&header);
        Ok((entry, start..end))
    }
}

/// The span operation label of a request.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Publish { .. } => "frame.publish",
        Request::DeltaPublish { .. } => "frame.delta_publish",
        Request::List => "frame.list",
        Request::Describe { .. } => "frame.describe",
        Request::Stream(_) => "frame.stream",
        Request::Query(_) => "frame.query",
        Request::Scenario { .. } => "frame.scenario",
        Request::Stats => "frame.stats",
        Request::Shutdown => "frame.shutdown",
    }
}

/// The frame protocol's [`BlockEncoder`]: `Batch` frames through the
/// [`BatchEncoder`] shared with [`crate::wire::FrameSink`] (same per-block
/// row templates, same frame boundaries, same split behavior), carrying
/// the partial batch across pulses so the frames are byte-identical to the
/// in-process reference; a `StreamEnd` trailer closes the stream.
struct FrameEncoder {
    batch: BatchEncoder,
    frame_bytes: Arc<Counter>,
}

impl BlockEncoder for FrameEncoder {
    type Error = ServiceError;

    fn batch_rows(&self) -> u64 {
        self.batch.batch_rows()
    }

    fn encode(&mut self, block: &RowBlock<'_>, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        for pk in block.pk_range() {
            self.batch.append_template_row(block, pk);
            if self.batch.is_full() {
                self.flush(out)?;
            }
        }
        Ok(())
    }

    fn finish(
        &mut self,
        run: &GenerationStats,
        out: &mut Vec<u8>,
    ) -> Result<Vec<u8>, ServiceError> {
        self.flush(out)?;
        let trailer = encode_frame(&Response::StreamEnd(StreamStats {
            rows: run.rows,
            elapsed_micros: run.elapsed.as_micros() as u64,
            target_rows_per_sec: run.target_rows_per_sec,
        }))?;
        self.frame_bytes.add(trailer.len() as u64);
        Ok(trailer)
    }
}

impl FrameEncoder {
    /// Appends the pending batch's frames to `out`.
    fn flush(&mut self, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let frame_bytes = &self.frame_bytes;
        self.batch.flush(&mut |frame: &[u8], _rows: u64| {
            frame_bytes.add(frame.len() as u64);
            out.extend_from_slice(frame);
            Ok(())
        })
    }
}

/// Deserializes a frame payload with the same error taxonomy (and thus the
/// same client-visible messages) as the client-side `read_frame`.
fn parse_request(payload: &[u8]) -> Result<Request, ServiceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServiceError::Protocol(format!("frame payload is not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}
