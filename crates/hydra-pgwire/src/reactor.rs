//! The pgwire front-end as a reactor state machine.
//!
//! The connection state machine of the PostgreSQL front-end — handshake,
//! statement loop, streamed scans — shaped for
//! [`hydra-reactor`](hydra_reactor)'s division of labour.  The codec's
//! [`Decoded`] prefix parsers were reactor-shaped from day one, so the
//! connection handler is a direct composition:
//!
//! * [`PgProtocol`] mints a connection handler per accepted socket;
//! * the handler walks startup → auth-ok → idle on the event loop, feeding
//!   [`decode_startup`] / [`decode_frontend`] and answering handshake
//!   traffic (SSL refusals, parameter status, `ReadyForQuery`) inline;
//! * each `Query` message becomes one query task, a statement loop that
//!   starts on the event loop: it answers empty statements, `BEGIN` /
//!   `SET`-style acknowledgements, `SELECT <n>` pings and in-class
//!   aggregates (summary-direct, O(blocks)) inline, straight into the
//!   reactor's output buffer;
//! * at the first statement that is not provably bounded — a `SELECT *
//!   FROM` scan, the `hydra_metrics` table, or an out-of-class aggregate
//!   (already parsed and classified) — the *same* task moves to the
//!   worker pool and resumes at that statement: one statement per poll
//!   slice, with scans further sliced into rate-budgeted chunks that
//!   `Yield` between pulses, `Sleep` on the timer wheel for velocity
//!   pacing, and `AwaitDrain` when the connection's write queue passes
//!   high water.

use crate::codec::{
    decode_frontend, decode_startup, encode_backend, BackendMessage, Decoded, FrontendMessage,
    StartupPacket,
};
use crate::connection::{
    classify, handshake_messages, resolve_database, run_deferred, run_statement, split_statements,
    Bounded, DeferredAggregate, PgError, Statement, StatementFailure,
};
use crate::datarow::{row_description, DataRowTemplate};
use hydra_catalog::types::DataType;
use hydra_core::session::Hydra;
use hydra_datagen::generator::DynamicGenerator;
use hydra_datagen::governor::{Pulse, VelocityGovernor};
use hydra_obs::{Counter, Span};
use hydra_reactor::{
    ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, TaskPoll, INLINE_BYTES_MAX,
};
use hydra_service::registry::{RegistryEntry, SummaryRegistry};
use hydra_service::StreamRequest;
use std::sync::Arc;

/// Rows per `SELECT *` scan pulse: the frame protocol's default batch, so
/// both wires see a throttled relation land at the same cadence.
const SCAN_PULSE_ROWS: u64 = StreamRequest::DEFAULT_BATCH_ROWS;

/// The pgwire listener-level factory: one per pg listener, holding the
/// shared registry (the `database` startup parameter selects an entry per
/// connection).
pub struct PgProtocol {
    registry: Arc<SummaryRegistry>,
}

impl PgProtocol {
    /// A protocol serving `registry`.
    pub fn new(registry: Arc<SummaryRegistry>) -> PgProtocol {
        PgProtocol { registry }
    }
}

impl Protocol for PgProtocol {
    fn connect(&self) -> Box<dyn ConnHandler> {
        Box::new(PgConnHandler {
            registry: Arc::clone(&self.registry),
            phase: Phase::Startup,
        })
    }
}

/// Connection lifecycle on the event loop.
enum Phase {
    /// Awaiting a startup packet (SSL/GSS refusals loop here).
    Startup,
    /// Handshake complete; the connection is bound to one registry entry
    /// and serves simple-query messages.
    Ready(Arc<RegistryEntry>),
}

/// Per-connection incremental decoder walking the v3 handshake and then
/// serving frontend messages, inline or through worker-pool tasks.
struct PgConnHandler {
    registry: Arc<SummaryRegistry>,
    phase: Phase,
}

/// Encodes a backend message into the handler's inline output buffer.
fn emit(out: &mut Vec<u8>, message: &BackendMessage) {
    encode_backend(message, out);
}

impl ConnHandler for PgConnHandler {
    fn on_bytes(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match &self.phase {
            Phase::Startup => self.on_startup(buf, out),
            Phase::Ready(entry) => {
                let entry = Arc::clone(entry);
                self.on_message(buf, out, entry)
            }
        }
    }
}

impl PgConnHandler {
    fn on_startup(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match decode_startup(buf) {
            Ok(Decoded::Incomplete) => (0, HandlerOutcome::Continue),
            Err(e) => {
                emit(out, &PgError::fatal("08P01", e.to_string()).to_message());
                (buf.len(), HandlerOutcome::Close)
            }
            Ok(Decoded::Complete { message, consumed }) => match message {
                StartupPacket::SslRequest | StartupPacket::GssEncRequest => {
                    out.push(b'N');
                    (consumed, HandlerOutcome::Continue)
                }
                // Nothing to cancel: close without a reply, exactly like a
                // backend that does not recognize the key.
                StartupPacket::Cancel { .. } => (consumed, HandlerOutcome::Close),
                StartupPacket::Startup {
                    major,
                    minor,
                    params,
                } => {
                    if major != 3 {
                        let e = PgError::fatal(
                            "08P01",
                            format!("unsupported protocol version {major}.{minor}"),
                        );
                        emit(out, &e.to_message());
                        return (consumed, HandlerOutcome::Close);
                    }
                    let database = params
                        .iter()
                        .find(|(k, _)| k == "database")
                        .map(|(_, v)| v.as_str());
                    match resolve_database(&self.registry, database) {
                        Ok(entry) => {
                            for message in handshake_messages() {
                                emit(out, &message);
                            }
                            self.phase = Phase::Ready(entry);
                            (consumed, HandlerOutcome::Continue)
                        }
                        Err(e) => {
                            emit(out, &e.to_message());
                            (consumed, HandlerOutcome::Close)
                        }
                    }
                }
            },
        }
    }

    fn on_message(
        &mut self,
        buf: &[u8],
        out: &mut Vec<u8>,
        entry: Arc<RegistryEntry>,
    ) -> (usize, HandlerOutcome) {
        match decode_frontend(buf) {
            Ok(Decoded::Incomplete) => (0, HandlerOutcome::Continue),
            Err(e) => {
                // Hostile or corrupt framing: best-effort FATAL, then close
                // — there is no way to resynchronize a byte stream.
                emit(out, &PgError::fatal("08P01", e.to_string()).to_message());
                (buf.len(), HandlerOutcome::Close)
            }
            Ok(Decoded::Complete { message, consumed }) => match message {
                FrontendMessage::Terminate => (consumed, HandlerOutcome::Close),
                FrontendMessage::Sync => {
                    emit(out, &BackendMessage::ReadyForQuery { status: b'I' });
                    (consumed, HandlerOutcome::Continue)
                }
                FrontendMessage::Unknown { tag } => {
                    let e = PgError::error(
                        "0A000",
                        format!(
                            "message type {:?} is not supported (simple-query protocol only)",
                            tag as char
                        ),
                    );
                    emit(out, &e.to_message());
                    emit(out, &BackendMessage::ReadyForQuery { status: b'I' });
                    (consumed, HandlerOutcome::Continue)
                }
                FrontendMessage::Query { sql } => {
                    let on_loop = sql.len() <= INLINE_BYTES_MAX;
                    let mut task = PgQueryTask::new(Arc::clone(&self.registry), entry, sql);
                    let outcome = match on_loop.then(|| task.advance(out, true)).flatten() {
                        Some(TaskPoll::DoneClose) => HandlerOutcome::Close,
                        Some(_) => HandlerOutcome::Continue,
                        None => HandlerOutcome::Task(Box::new(task)),
                    };
                    (consumed, outcome)
                }
            },
        }
    }
}

/// One simple-query message's worth of work: every `;`-separated statement
/// in order, error aborts the rest, and exactly one closing
/// `ReadyForQuery`.
struct PgQueryTask {
    registry: Arc<SummaryRegistry>,
    entry: Arc<RegistryEntry>,
    /// The message text until the first [`advance`](Self::advance) splits
    /// it into `statements` — on the event loop only for a message of at
    /// most [`INLINE_BYTES_MAX`], on the pool otherwise.
    sql: Option<String>,
    /// `(byte offset, statement text)` pairs of the message.
    statements: Vec<(usize, String)>,
    next: usize,
    ran_any: bool,
    /// A `SELECT * FROM` scan in flight within the current statement.
    scan: Option<Box<ScanState>>,
    /// The current statement: an out-of-class aggregate awaiting the
    /// pool's tuple scan.
    deferred: Option<Box<DeferredAggregate>>,
}

impl ConnTask for PgQueryTask {
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
        // Abort-on-disconnect: stop generating for a vanished peer.
        if conn.is_dead() {
            return TaskPoll::Done;
        }
        let mut out = Vec::new();
        let poll = match &mut self.scan {
            Some(scan) => match scan.pump(conn, self.registry.session()) {
                ScanPoll::Reactor(poll) => poll,
                ScanPoll::Finished => {
                    self.scan = None;
                    self.next += 1;
                    TaskPoll::Yield
                }
                ScanPoll::Failed(e) => {
                    self.scan = None;
                    fail(&mut out, e)
                }
            },
            // Bounded statements still respect backpressure between them.
            None if conn.over_high_water() => TaskPoll::AwaitDrain,
            None => self
                .advance(&mut out, false)
                .expect("the pool runs every kind of statement"),
        };
        conn.push(out);
        poll
    }
}

impl PgQueryTask {
    fn new(registry: Arc<SummaryRegistry>, entry: Arc<RegistryEntry>, sql: String) -> PgQueryTask {
        PgQueryTask {
            registry,
            entry,
            sql: Some(sql),
            statements: Vec::new(),
            next: 0,
            ran_any: false,
            scan: None,
            deferred: None,
        }
    }

    /// The statement loop, writing each statement's output into `out`.
    ///
    /// The first call splits the message into statements.  On the event
    /// loop (`on_loop`) it runs every statement it can prove bounded and
    /// returns `None` at the first that needs the pool — a scan, the
    /// metrics table, or an out-of-class aggregate — with `next` still
    /// pointing at it, so the pool resumes right there.  It also leaves
    /// for the pool once `out` holds [`INLINE_BYTES_MAX`].  On the pool
    /// it runs one statement per call (`Yield` between them for fairness),
    /// an out-of-class aggregate's scan taking a call of its own.  Once the
    /// statements are exhausted it writes the closing `ReadyForQuery` and
    /// returns `Done`.
    fn advance(&mut self, out: &mut Vec<u8>, on_loop: bool) -> Option<TaskPoll> {
        if let Some(sql) = self.sql.take() {
            self.statements = split_statements(&sql)
                .into_iter()
                .map(|(offset, stmt)| (offset, stmt.to_string()))
                .collect();
        }
        if let Some(deferred) = self.deferred.take() {
            let offset = self.statements[self.next].0;
            return Some(
                match run_deferred(out, &self.registry, &self.entry, *deferred, offset) {
                    Ok(()) => {
                        self.next += 1;
                        TaskPoll::Yield
                    }
                    Err(StatementFailure::Sql(e)) => fail(out, e),
                    Err(StatementFailure::Wire) => TaskPoll::DoneClose,
                },
            );
        }
        while self.next < self.statements.len() {
            let (offset, stmt) = &self.statements[self.next];
            let statement = match classify(stmt) {
                Statement::Empty => {
                    self.next += 1;
                    continue;
                }
                Statement::Scan(_) | Statement::Bounded(Bounded::Metrics) if on_loop => {
                    return None;
                }
                Statement::Scan(table) => {
                    self.ran_any = true;
                    return Some(
                        match ScanState::open(&self.registry, &self.entry, table, out) {
                            Ok(scan) => {
                                self.scan = Some(scan);
                                TaskPoll::Yield
                            }
                            Err(e) => {
                                // A scan that fails to open never owns a
                                // span of its own: account the failure here.
                                let metrics = self.registry.session().metrics();
                                metrics.span("pg.scan").set_error();
                                metrics
                                    .counter_labeled("hydra_pg_errors_total", "sqlstate", e.code())
                                    .inc();
                                fail(out, e)
                            }
                        },
                    );
                }
                Statement::Bounded(statement) => statement,
            };
            self.ran_any = true;
            // Bounded output: the dispatch writes straight into `out` (a
            // Vec write cannot fail, so the Wire arm is unreachable).
            match run_statement(out, &self.registry, &self.entry, statement, stmt, *offset) {
                Ok(None) => {
                    self.next += 1;
                    if !on_loop {
                        return Some(TaskPoll::Yield);
                    }
                    if out.len() >= INLINE_BYTES_MAX && self.next < self.statements.len() {
                        return None;
                    }
                }
                Ok(Some(deferred)) => {
                    self.deferred = Some(deferred);
                    return (!on_loop).then_some(TaskPoll::Yield);
                }
                Err(StatementFailure::Sql(e)) => return Some(fail(out, e)),
                Err(StatementFailure::Wire) => return Some(TaskPoll::DoneClose),
            }
        }
        // All statements processed.
        if !self.ran_any {
            emit(out, &BackendMessage::EmptyQueryResponse);
        }
        emit(out, &BackendMessage::ReadyForQuery { status: b'I' });
        Some(TaskPoll::Done)
    }
}

/// A statement failed as SQL: report it, abort the remaining statements,
/// close the cycle with `ReadyForQuery` — the connection stays usable.
fn fail(out: &mut Vec<u8>, e: PgError) -> TaskPoll {
    emit(out, &e.to_message());
    emit(out, &BackendMessage::ReadyForQuery { status: b'I' });
    TaskPoll::Done
}

/// What one scan pump slice decided.
enum ScanPoll {
    /// Hand this poll result to the reactor (`Yield`/`Sleep`/`AwaitDrain`).
    Reactor(TaskPoll),
    /// The scan completed (its `CommandComplete` is pushed).
    Finished,
    /// The scan failed mid-stream; the query cycle aborts.
    Failed(PgError),
}

/// A `SELECT * FROM <relation>` scan sliced into rate-budgeted pulses,
/// paced by the session's velocity governor exactly like the frame
/// protocol's `Stream` request.
struct ScanState {
    generator: DynamicGenerator,
    table: String,
    cursor: u64,
    end: u64,
    governor: VelocityGovernor,
    column_types: Vec<DataType>,
    /// Cached `DataRow` encoding for the block under the cursor.
    template: DataRowTemplate,
    /// The scan's tracing span, open for the life of the stream.
    span: Option<Span>,
    datarow_bytes: Arc<Counter>,
    stream_rows: Arc<Counter>,
}

impl ScanState {
    /// Resolves the relation, writes its `RowDescription` into `out`, and
    /// returns the ready scan.
    fn open(
        registry: &SummaryRegistry,
        entry: &RegistryEntry,
        table: &str,
        out: &mut Vec<u8>,
    ) -> Result<Box<ScanState>, PgError> {
        let generator = entry.generator();
        let no_relation =
            || PgError::error("42P01", format!("relation \"{table}\" does not exist"));
        let total = generator
            .summary
            .relation(table)
            .ok_or_else(no_relation)?
            .total_rows;
        let schema_table = generator.schema.table(table).ok_or_else(no_relation)?;
        let column_types: Vec<DataType> = schema_table
            .columns()
            .iter()
            .map(|c| c.data_type.clone())
            .collect();
        emit(out, &row_description(schema_table));
        let governor = match registry.session().velocity() {
            Some(rate) => VelocityGovernor::with_rate(rate),
            None => VelocityGovernor::unthrottled(),
        };
        let metrics = registry.session().metrics();
        let mut span = metrics.span("pg.scan");
        span.set_kind(format!("select * from {table}"));
        let datarow_bytes = metrics.counter("hydra_pg_datarow_bytes_total");
        let stream_rows = metrics.counter("hydra_stream_rows_total");
        Ok(Box::new(ScanState {
            generator,
            table: table.to_string(),
            cursor: 0,
            end: total,
            governor,
            column_types,
            template: DataRowTemplate::new(),
            span: Some(span),
            datarow_bytes,
            stream_rows,
        }))
    }

    /// One pulse: generate up to a rate-budgeted chunk of rows and push
    /// them as `DataRow`s, then the `CommandComplete` once the relation is
    /// exhausted and its final pacing deficit is served.
    fn pump(&mut self, conn: &ConnHandle, session: &Hydra) -> ScanPoll {
        if conn.over_high_water() {
            return ScanPoll::Reactor(TaskPoll::AwaitDrain);
        }
        let remaining = self.end - self.cursor;
        let goal = match self.governor.next_pulse(remaining, SCAN_PULSE_ROWS) {
            Pulse::Wait(wait) => return ScanPoll::Reactor(TaskPoll::Sleep(wait)),
            Pulse::Emit(goal) => goal,
            Pulse::Drained => {
                // Settle the datagen account and close the span *before*
                // the completion tag is queued: a client that reads
                // `CommandComplete` and then scrapes must find the scan
                // fully counted.
                session.record_generation(&self.governor.stats(&self.table));
                // The span's duration is the stream's (governor sleeps
                // included).
                self.span.take();
                let mut bytes = Vec::new();
                emit(
                    &mut bytes,
                    &BackendMessage::CommandComplete {
                        tag: format!("SELECT {}", self.governor.emitted()),
                    },
                );
                conn.push(bytes);
                return ScanPoll::Finished;
            }
        };
        let mut tuples = match self
            .generator
            .stream_range(&self.table, self.cursor..self.cursor + goal)
        {
            Ok(tuples) => tuples,
            Err(e) => {
                let failure = PgError::error("XX000", e.to_string());
                if let Some(span) = self.span.as_mut() {
                    span.set_error();
                }
                self.span.take();
                session
                    .metrics()
                    .counter_labeled("hydra_pg_errors_total", "sqlstate", failure.code())
                    .inc();
                return ScanPoll::Failed(failure);
            }
        };
        let mut bytes = Vec::new();
        while let Some(block) = tuples.next_block(u64::MAX) {
            self.template
                .append_block(&block, &self.column_types, &mut bytes);
        }
        self.datarow_bytes.add(bytes.len() as u64);
        self.stream_rows.add(goal);
        conn.push(bytes);
        self.cursor += goal;
        self.governor.note(goal);
        ScanPoll::Reactor(TaskPoll::Yield)
    }
}
