//! The frame protocol as a reactor state machine.
//!
//! The server side of the frame protocol, decomposed into the three pieces
//! the reactor core wants:
//!
//! * [`FrameProtocol`] mints a connection handler per accepted connection;
//! * the handler incrementally slices complete frames off the receive
//!   buffer ([`decode_frame`]) on the event loop — parsing only, no I/O,
//!   no JSON deserialization;
//! * each complete frame becomes a task on the worker pool, which
//!   deserializes the request, answers one-shot requests in a single poll,
//!   and serves `Stream` requests as a cooperative chunked state machine:
//!   generate a bounded slice of rows, push the encoded batches, then
//!   `Yield` (fairness), `Sleep` (velocity pacing via the timer wheel), or
//!   `AwaitDrain` (write-queue backpressure) — never blocking a thread.
//!
//! ## Wire parity with the in-process reference
//!
//! The torture suite holds a stream's header and batches to *byte identity*
//! against [`crate::wire::FrameSink`] driven in-process, which pins down
//! three subtleties:
//!
//! * **Batch boundaries.** The sink emits a `Batch` frame exactly every
//!   `batch_rows` tuples, so the task keeps its partial batch across poll
//!   slices instead of flushing at slice edges.
//! * **Frame-cap splitting.** Both drive one `BatchEncoder`: an oversized
//!   batch splits in half recursively, down to the same single-tuple error
//!   message.
//! * **Pacing.** `VelocityGovernor::pace` sleeps *after every row including
//!   the last*, so a finished stream still waits out its final deficit
//!   before `StreamEnd` — `VelocityGovernor::next_pulse` carries the same
//!   rule, so elapsed-time stats and rate caps agree.
//!
//! A framing-level violation (oversized length prefix) desynchronizes the
//! byte stream, so the handler answers with an `Error` frame and then
//! *closes* the connection.

use crate::error::ServiceError;
use crate::protocol::{
    decode_frame, encode_frame, FrameDecoded, MetricSample, Request, Response, StreamRequest,
    StreamStart, StreamStats,
};
use crate::registry::SummaryRegistry;
use crate::wire::BatchEncoder;
use hydra_datagen::generator::DynamicGenerator;
use hydra_datagen::governor::{Pulse, VelocityGovernor};
use hydra_obs::{Counter, MetricsRegistry, Span};
use hydra_reactor::{ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, TaskPoll};
use std::sync::Arc;
use std::time::Instant;

use hydra_reactor::ShutdownSignal;

/// Rows generated per worker-pool poll slice of a streaming task.  Small
/// enough that thousands of concurrent streams interleave fairly on a
/// fixed pool; large enough that per-slice seek and scheduling overhead is
/// noise.
const STREAM_SLICE_ROWS: u64 = 8192;

/// Serves one one-shot request, producing the response frame's message.
/// `Stream` and `Shutdown` never reach it: both need connection-level
/// control flow and are handled by [`FrameTask::begin`].
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
        Request::Query(request) => {
            use hydra_datagen::exec::{ExecMode, QueryEngine};
            let entry = match registry.resolve(&request.name) {
                Ok(entry) => entry,
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            };
            let mode = if request.summary_only {
                ExecMode::SummaryOnly
            } else {
                ExecMode::Auto
            };
            // Query the registered entry in place — no summary clone per
            // request.
            let regeneration = entry.regeneration();
            let engine = QueryEngine::over(&regeneration.schema, &regeneration.summary);
            let started = Instant::now();
            match engine.query_mode(&request.sql, mode) {
                Ok(answer) => {
                    let metrics = registry.session().metrics();
                    let strategy = strategy_label(answer.strategy);
                    metrics
                        .counter_labeled("hydra_query_total", "strategy", strategy)
                        .inc();
                    metrics
                        .histogram_labeled("hydra_query_seconds", "strategy", strategy)
                        .record_duration(started.elapsed());
                    Response::QueryResult(answer)
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
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
        Request::Stream(_) | Request::Shutdown => Response::Error {
            message: "request requires connection-level handling".to_string(),
        },
    }
}

/// The `strategy` label value of a query answer's execution strategy.
pub(crate) fn strategy_label(strategy: hydra_query::exec::ExecStrategy) -> &'static str {
    match strategy {
        hydra_query::exec::ExecStrategy::SummaryDirect => "summary_direct",
        hydra_query::exec::ExecStrategy::TupleScan => "tuple_scan",
    }
}

/// Pre-resolved service-layer metric handles (one lookup at listener
/// construction, relaxed atomics on the hot path), cloned per connection
/// and per task.
#[derive(Clone)]
pub(crate) struct FrameObs {
    /// Response-frame bytes queued for the wire (`hydra_frame_bytes_total`).
    frame_bytes: Arc<Counter>,
    /// Tuples pushed as stream batches (`hydra_stream_rows_total`).
    stream_rows: Arc<Counter>,
    /// The registry itself, for the per-table datagen families a stream
    /// settles once, at completion (cold lookups are fine off the hot path).
    metrics: Arc<MetricsRegistry>,
}

impl FrameObs {
    pub(crate) fn resolve(metrics: &Arc<MetricsRegistry>) -> FrameObs {
        FrameObs {
            frame_bytes: metrics.counter("hydra_frame_bytes_total"),
            stream_rows: metrics.counter("hydra_stream_rows_total"),
            metrics: Arc::clone(metrics),
        }
    }

    /// Settles a completed stream's datagen account — the wire's
    /// equivalent of `Hydra::record_generation`, which in-process streams
    /// record through the session.
    pub(crate) fn record_stream(&self, table: &str, governor: &VelocityGovernor) {
        self.metrics
            .counter_labeled("hydra_datagen_rows_total", "table", table)
            .add(governor.emitted());
        self.metrics
            .gauge("hydra_datagen_rows_per_sec")
            .set(governor.achieved_rate() as i64);
        self.metrics
            .counter("hydra_governor_sleep_seconds_total")
            .add(u64::try_from(governor.slept().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// The frame protocol's listener-level factory: one per frame listener,
/// holding the shared registry and the server's shutdown signal (a
/// `Shutdown` frame trips it for every front-end on the reactor).
pub struct FrameProtocol {
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    obs: FrameObs,
}

impl FrameProtocol {
    /// A protocol serving `registry`, tripping `signal` on a client
    /// `Shutdown` request.
    pub fn new(registry: Arc<SummaryRegistry>, signal: ShutdownSignal) -> FrameProtocol {
        let obs = FrameObs::resolve(&registry.session().metrics());
        FrameProtocol {
            registry,
            signal,
            obs,
        }
    }
}

impl Protocol for FrameProtocol {
    fn connect(&self) -> Box<dyn ConnHandler> {
        Box::new(FrameHandler {
            registry: Arc::clone(&self.registry),
            signal: self.signal.clone(),
            obs: self.obs.clone(),
        })
    }
}

/// Per-connection incremental decoder: slices complete frames off the
/// receive buffer and hands each one to the worker pool as a [`FrameTask`].
struct FrameHandler {
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    obs: FrameObs,
}

impl ConnHandler for FrameHandler {
    fn on_bytes(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match decode_frame(buf) {
            Ok(FrameDecoded::Incomplete) => (0, HandlerOutcome::Continue),
            Ok(FrameDecoded::Complete { payload, consumed }) => (
                consumed,
                HandlerOutcome::Task(Box::new(FrameTask {
                    registry: Arc::clone(&self.registry),
                    signal: self.signal.clone(),
                    obs: self.obs.clone(),
                    span: None,
                    state: TaskState::Init { payload },
                })),
            ),
            Err(e) => {
                // The byte stream is desynchronized; answer, then close.
                if let Ok(frame) = encode_frame(&Response::Error {
                    message: e.to_string(),
                }) {
                    self.obs.frame_bytes.add(frame.len() as u64);
                    out.extend_from_slice(&frame);
                }
                (buf.len(), HandlerOutcome::Close)
            }
        }
    }
}

/// One request's worth of work on the worker pool.
struct FrameTask {
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    obs: FrameObs,
    /// The request's tracing span, held for the lifetime of a stream (a
    /// one-shot request's span lives and dies inside [`FrameTask::begin`]).
    span: Option<Span>,
    state: TaskState,
}

enum TaskState {
    /// The raw frame payload, not yet deserialized.
    Init {
        /// JSON bytes of the request.
        payload: Vec<u8>,
    },
    /// A `Stream` request in flight.
    Stream(Box<StreamState>),
}

impl ConnTask for FrameTask {
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
        // Abort-on-disconnect: no point deserializing, generating or
        // encoding for a peer that is gone.
        if conn.is_dead() {
            return TaskPoll::Done;
        }
        match &mut self.state {
            TaskState::Init { payload } => {
                let payload = std::mem::take(payload);
                self.begin(payload, conn)
            }
            TaskState::Stream(stream) => match stream.pump(conn, &self.obs) {
                Ok(poll) => {
                    if matches!(poll, TaskPoll::Done | TaskPoll::DoneClose) {
                        // Close the stream's span at the trailer, not at
                        // task drop, so its duration is the stream's.
                        self.span.take();
                    }
                    poll
                }
                Err(e) => {
                    // A stream that dies after its header (frame-cap
                    // violation, generation failure) reports an Error
                    // frame and keeps the connection.
                    if let Some(span) = self.span.as_mut() {
                        span.set_error();
                    }
                    self.span.take();
                    push_error(conn, &self.obs, e.to_string());
                    TaskPoll::Done
                }
            },
        }
    }
}

impl FrameTask {
    /// First poll: deserialize the request and either answer it in one
    /// shot or set up the streaming state machine.
    fn begin(&mut self, payload: Vec<u8>, conn: &ConnHandle) -> TaskPoll {
        let metrics = self.registry.session().metrics();
        let request = match parse_request(&payload) {
            Ok(request) => request,
            Err(e) => {
                // Malformed *payload* in a well-framed message: answered,
                // not fatal — framing is still in sync.
                metrics.span("frame.invalid").set_error();
                push_error(conn, &self.obs, e.to_string());
                return TaskPoll::Done;
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
        match request {
            Request::Shutdown => {
                // Trigger *before* queueing the reply: the reactor thread
                // flushes the queue concurrently, and a client must find
                // the signal tripped the moment it reads `ShuttingDown`.
                // The shutdown grace period lets this reply drain.
                self.signal.trigger();
                push(conn, &self.obs, &Response::ShuttingDown);
                TaskPoll::DoneClose
            }
            Request::Stream(request) => match StreamState::open(&self.registry, &request) {
                Ok((header, stream)) => {
                    self.obs.frame_bytes.add(header.len() as u64);
                    conn.push(header);
                    // The span now spans the whole stream: it closes (and
                    // records) at the trailer or on a mid-stream error.
                    self.span = Some(span);
                    self.state = TaskState::Stream(stream);
                    TaskPoll::Yield
                }
                Err(e) => {
                    // Header-stage failure (unknown summary/table, bad
                    // rate): the connection stays usable.
                    span.set_error();
                    push_error(conn, &self.obs, e.to_string());
                    TaskPoll::Done
                }
            },
            Request::Query(request) => {
                let response = respond(&self.registry, Request::Query(request));
                match &response {
                    Response::QueryResult(answer) => {
                        span.set_detail(strategy_label(answer.strategy));
                    }
                    _ => span.set_error(),
                }
                match encode_frame(&response) {
                    Ok(frame) => {
                        self.obs.frame_bytes.add(frame.len() as u64);
                        conn.push(frame);
                    }
                    Err(e) => {
                        // A pathological answer can exceed the frame cap;
                        // nothing was pushed, so the connection is in sync.
                        span.set_error();
                        push_error(
                            conn,
                            &self.obs,
                            format!(
                                "query answer could not be framed: {e}; \
                                 refine the GROUP BY or stream the relation instead"
                            ),
                        );
                    }
                }
                TaskPoll::Done
            }
            other => {
                let response = respond(&self.registry, other);
                if matches!(response, Response::Error { .. }) {
                    span.set_error();
                }
                match encode_frame(&response) {
                    Ok(frame) => {
                        self.obs.frame_bytes.add(frame.len() as u64);
                        conn.push(frame);
                        TaskPoll::Done
                    }
                    // An unframeable response outside Query has no
                    // smaller form to fall back to: close.
                    Err(_) => {
                        span.set_error();
                        TaskPoll::DoneClose
                    }
                }
            }
        }
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

/// The streaming state machine: one `Stream` request sliced into bounded
/// polls.
struct StreamState {
    generator: DynamicGenerator,
    table: String,
    /// Next row to generate.
    cursor: u64,
    /// One past the last row of the (clamped) range.
    end: u64,
    /// Rows per emission pulse: one batch, bounded by the slice cap.
    pulse_rows: u64,
    governor: VelocityGovernor,
    /// Batch assembly shared with [`crate::wire::FrameSink`] (same
    /// per-block row templates, same frame boundaries, same split
    /// behavior), carrying the partial batch across poll slices so `Batch`
    /// frames are byte-identical to the in-process reference.
    encoder: BatchEncoder,
}

impl StreamState {
    /// Resolves and validates a `Stream` request — the one place the
    /// requested range is clamped to the relation and a wire-supplied rate
    /// is checked — returning the encoded `StreamStart` header and the
    /// ready state.
    fn open(
        registry: &SummaryRegistry,
        request: &StreamRequest,
    ) -> Result<(Vec<u8>, Box<StreamState>), ServiceError> {
        let entry = registry.resolve(&request.name)?;
        let generator = entry.generator();
        let no_relation = || {
            ServiceError::Protocol(format!(
                "summary `{}` has no relation `{}`",
                request.name, request.table
            ))
        };
        let total = generator
            .summary
            .relation(&request.table)
            .ok_or_else(no_relation)?
            .total_rows;
        let table = generator
            .schema
            .table(&request.table)
            .ok_or_else(no_relation)?;
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
        let governor = match request.rows_per_sec.or(registry.session().velocity()) {
            Some(rate) => VelocityGovernor::with_rate(rate),
            None => VelocityGovernor::unthrottled(),
        };
        let header = encode_frame(&Response::StreamStart(StreamStart {
            table: table.name.clone(),
            columns: table.columns().iter().map(|c| c.name.clone()).collect(),
            start,
            end,
        }))?;
        let encoder = BatchEncoder::new(
            request
                .batch_rows
                .unwrap_or(StreamRequest::DEFAULT_BATCH_ROWS),
        );
        Ok((
            header,
            Box::new(StreamState {
                table: request.table.clone(),
                cursor: start,
                end,
                pulse_rows: encoder.batch_rows().min(STREAM_SLICE_ROWS),
                governor,
                encoder,
                generator,
            }),
        ))
    }

    /// One poll slice: generate up to a bounded, rate-budgeted chunk of
    /// rows, pushing full batches as they complete.
    fn pump(&mut self, conn: &ConnHandle, obs: &FrameObs) -> Result<TaskPoll, ServiceError> {
        if conn.over_high_water() {
            return Ok(TaskPoll::AwaitDrain);
        }
        // A throttled stream sleeps until its *whole* pulse is due, which
        // puts each Batch frame on the wire at the moment per-row pacing
        // would have completed it.
        let remaining = self.end - self.cursor;
        let goal = match self.governor.next_pulse(remaining, self.pulse_rows) {
            Pulse::Wait(wait) => return Ok(TaskPoll::Sleep(wait)),
            Pulse::Emit(goal) => goal,
            Pulse::Drained => {
                self.encoder.flush(&mut emit_frame(conn, obs))?;
                let trailer = encode_frame(&Response::StreamEnd(StreamStats {
                    rows: self.governor.emitted(),
                    elapsed_micros: self.governor.elapsed().as_micros() as u64,
                    target_rows_per_sec: self.governor.target_rate(),
                }))?;
                obs.frame_bytes.add(trailer.len() as u64);
                conn.push(trailer);
                obs.record_stream(&self.table, &self.governor);
                return Ok(TaskPoll::Done);
            }
        };
        // `stream_range` borrows the generator, so each slice re-seeks via
        // the summary's block index (O(log blocks)); range concatenation is
        // bit-identical to one continuous scan (the shard-determinism suite
        // proves it).  Rows flow block-wise through the shared encoder's
        // cached templates, so each tuple is a memcpy plus a pk digit patch.
        let mut tuples = self
            .generator
            .stream_range(&self.table, self.cursor..self.cursor + goal)
            .map_err(|e| ServiceError::Hydra(hydra_core::error::HydraError::Engine(e)))?;
        while let Some(block) = tuples.next_block(u64::MAX) {
            for pk in block.pk_range() {
                self.encoder.append_template_row(&block, pk);
                if self.encoder.is_full() {
                    self.encoder.flush(&mut emit_frame(conn, obs))?;
                }
            }
        }
        self.cursor += goal;
        self.governor.note(goal);
        Ok(TaskPoll::Yield)
    }
}

/// An emit callback pushing finished frames onto the connection, keeping
/// the frame/row counters the reactor's metrics report.
fn emit_frame<'e>(
    conn: &'e ConnHandle,
    obs: &'e FrameObs,
) -> impl FnMut(&[u8], u64) -> Result<(), ServiceError> + 'e {
    move |frame: &[u8], rows: u64| {
        obs.frame_bytes.add(frame.len() as u64);
        obs.stream_rows.add(rows);
        conn.push(frame.to_vec());
        Ok(())
    }
}

/// Deserializes a frame payload with the same error taxonomy (and thus the
/// same client-visible messages) as the client-side `read_frame`.
fn parse_request(payload: &[u8]) -> Result<Request, ServiceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServiceError::Protocol(format!("frame payload is not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}

/// Encodes and pushes a response; encode failures for these small control
/// frames cannot happen (and are dropped if they somehow do — the peer
/// will see the connection close instead).
fn push(conn: &ConnHandle, obs: &FrameObs, response: &Response) {
    if let Ok(frame) = encode_frame(response) {
        obs.frame_bytes.add(frame.len() as u64);
        conn.push(frame);
    }
}

/// Pushes an `Error` response frame.
fn push_error(conn: &ConnHandle, obs: &FrameObs, message: String) {
    push(conn, obs, &Response::Error { message });
}
