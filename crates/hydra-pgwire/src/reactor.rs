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
//!   worker pool and resumes at that statement, one statement per poll
//!   slice.  A scan writes its `RowDescription` and hands the relation to
//!   the wire pump ([`hydra_service::pump`]) with the `DataRow` encoder,
//!   which paces it and closes it with `CommandComplete "SELECT n"`; a
//!   mid-stream failure becomes `XX000` plus `ReadyForQuery`.

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
use hydra_datagen::generator::GenerationStats;
use hydra_datagen::stream::RowBlock;
use hydra_obs::Counter;
use hydra_reactor::{
    ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, TaskPoll, INLINE_BYTES_MAX,
};
use hydra_service::pump::{BlockEncoder, EngineError, Pump};
use hydra_service::registry::{RegistryEntry, SummaryRegistry};
use hydra_service::StreamRequest;
use std::sync::Arc;

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
    /// A protocol violation: counted as `pg.framing`, answered with a
    /// best-effort FATAL `08P01`, then the connection closes having
    /// consumed `consumed` bytes.
    fn protocol_violation(
        &self,
        out: &mut Vec<u8>,
        message: String,
        consumed: usize,
    ) -> (usize, HandlerOutcome) {
        self.registry
            .session()
            .metrics()
            .counter_labeled("hydra_request_errors_total", "op", "pg.framing")
            .inc();
        emit(out, &PgError::fatal("08P01", message).to_message());
        (consumed, HandlerOutcome::Close)
    }

    fn on_startup(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match decode_startup(buf) {
            Ok(Decoded::Incomplete) => (0, HandlerOutcome::Continue),
            Err(e) => self.protocol_violation(out, e.to_string(), buf.len()),
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
                        let message = format!("unsupported protocol version {major}.{minor}");
                        return self.protocol_violation(out, message, consumed);
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
            // Hostile or corrupt framing: there is no way to resynchronize
            // a byte stream.
            Err(e) => self.protocol_violation(out, e.to_string(), buf.len()),
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
    scan: Option<Box<Pump<DataRowEncoder>>>,
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
            Some(scan) => match scan.poll(conn) {
                // The scan's `CommandComplete` is pushed; on to the next
                // statement.
                Ok(TaskPoll::Done) => {
                    self.scan = None;
                    self.next += 1;
                    TaskPoll::Yield
                }
                Ok(poll) => poll,
                Err(e) => {
                    // The scan died mid-stream; the query cycle aborts.
                    self.scan = None;
                    let failure = PgError::error("XX000", e.to_string());
                    self.registry
                        .session()
                        .metrics()
                        .counter_labeled("hydra_pg_errors_total", "sqlstate", failure.code())
                        .inc();
                    fail(&mut out, failure)
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
                    return Some(match open_scan(&self.registry, &self.entry, table, out) {
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
                    });
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

/// The pg [`BlockEncoder`]: each tuple a `DataRow` through the cached
/// [`DataRowTemplate`], and a `CommandComplete "SELECT n"` trailer.
struct DataRowEncoder {
    column_types: Vec<DataType>,
    template: DataRowTemplate,
    datarow_bytes: Arc<Counter>,
}

impl BlockEncoder for DataRowEncoder {
    type Error = EngineError;

    fn batch_rows(&self) -> u64 {
        StreamRequest::DEFAULT_BATCH_ROWS
    }

    fn encode(&mut self, block: &RowBlock<'_>, out: &mut Vec<u8>) -> Result<(), EngineError> {
        let before = out.len();
        self.template.append_block(block, &self.column_types, out);
        self.datarow_bytes.add((out.len() - before) as u64);
        Ok(())
    }

    fn finish(
        &mut self,
        run: &GenerationStats,
        _out: &mut Vec<u8>,
    ) -> Result<Vec<u8>, EngineError> {
        let mut trailer = Vec::new();
        let tag = format!("SELECT {}", run.rows);
        emit(&mut trailer, &BackendMessage::CommandComplete { tag });
        Ok(trailer)
    }
}

/// Resolves a `SELECT * FROM <relation>` scan, writes its
/// `RowDescription` into `out`, and returns the pump that streams it at
/// the session's velocity, exactly like a frame `Stream` request.
fn open_scan(
    registry: &SummaryRegistry,
    entry: &Arc<RegistryEntry>,
    table: &str,
    out: &mut Vec<u8>,
) -> Result<Box<Pump<DataRowEncoder>>, PgError> {
    let (schema_table, summary) = entry
        .generator()
        .relation(table)
        .map_err(|_| PgError::error("42P01", format!("relation \"{table}\" does not exist")))?;
    let total = summary.total_rows;
    let column_types = schema_table
        .columns()
        .iter()
        .map(|c| c.data_type.clone())
        .collect();
    emit(out, &row_description(schema_table));
    let session = registry.session();
    let metrics = session.metrics();
    let mut span = metrics.span("pg.scan");
    span.set_kind(format!("select * from {table}"));
    let encoder = DataRowEncoder {
        column_types,
        template: DataRowTemplate::new(),
        datarow_bytes: metrics.counter("hydra_pg_datarow_bytes_total"),
    };
    Ok(Box::new(Pump::new(
        session,
        Arc::clone(entry),
        table,
        0..total,
        None,
        encoder,
        span,
    )))
}
