//! The protocol vocabulary behind the connection state machine in
//! [`crate::reactor`]: startup-parameter resolution, the fixed handshake
//! tail, statement splitting and classification, the PostgreSQL error
//! mapping, and the dispatch of every statement with bounded output.
//!
//! Each connection binds to one registry entry named by the `database`
//! startup parameter (with an optional `@version` pin), then serves
//! simple-query messages.  Query dispatch mirrors the engine's two execution
//! strategies:
//!
//! * `SELECT * FROM <relation>` — a full regenerate-and-scan, which the
//!   reactor streams through the wire pump (`hydra_service::pump`);
//! * any aggregate `SELECT` — parsed by `hydra-query` and answered
//!   summary-direct in O(blocks) when the query is in the closed class,
//!   with a transparent regenerate-and-scan fallback otherwise.  The
//!   aggregate runs [`ExecMode::SummaryOnly`]; an out-of-class query comes
//!   back, parsed and classified, as a [`DeferredAggregate`] whose
//!   [`ExecMode::ScanOnly`] scan runs on the worker pool — the answer
//!   [`ExecMode::Auto`] gives, with the query classified once.
//!
//! Parse errors carry their byte span onto the wire as the `P` field
//! (1-based), so psql-style clients print a caret at the offending token.

use crate::codec::{encode_backend, write_backend, BackendMessage, FieldDescription};
use crate::error::PgWireError;
use crate::types::{pg_text, pg_type_of, OID_FLOAT8, OID_INT4, OID_INT8, OID_TEXT};
use hydra_catalog::schema::Schema;
use hydra_datagen::exec::{ExecError, ExecMode, QueryEngine};
use hydra_obs::{MetricsRegistry, Span};
use hydra_query::exec::{AggFunc, AggregateQuery, QueryAnswer};
use hydra_query::parser::parse_aggregate_query_for_schema;
use hydra_service::registry::{RegistryEntry, SummaryRegistry};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Name of the virtual table exposing the server's metrics snapshot
/// (`SELECT * FROM hydra_metrics`): three columns — `name text`,
/// `label text` (NULL for unlabeled samples), `value float8`.
const METRICS_TABLE: &str = "hydra_metrics";

/// Server version advertised in `ParameterStatus`: a PostgreSQL-looking
/// version string so version-sniffing drivers proceed, suffixed with the
/// engine's real identity.
pub(crate) const SERVER_VERSION: &str = "14.0 (hydra)";

/// A wire-level error with PostgreSQL's severity / SQLSTATE split.
#[derive(Debug, Clone)]
pub(crate) struct PgError {
    severity: &'static str,
    code: &'static str,
    message: String,
    position: Option<u64>,
}

impl PgError {
    pub(crate) fn fatal(code: &'static str, message: impl Into<String>) -> Self {
        PgError {
            severity: "FATAL",
            code,
            message: message.into(),
            position: None,
        }
    }

    pub(crate) fn error(code: &'static str, message: impl Into<String>) -> Self {
        PgError {
            severity: "ERROR",
            code,
            message: message.into(),
            position: None,
        }
    }

    pub(crate) fn to_message(&self) -> BackendMessage {
        BackendMessage::error(
            self.severity,
            self.code,
            self.message.clone(),
            self.position,
        )
    }

    /// The error's SQLSTATE code (the `sqlstate` label of
    /// `hydra_pg_errors_total`).
    pub(crate) fn code(&self) -> &'static str {
        self.code
    }
}

/// Map a query-path failure onto PostgreSQL's error vocabulary.
/// `offset` is the byte offset of the statement inside the full query
/// string, so `P` positions stay caret-accurate in multi-statement queries.
fn pg_error_of_exec(e: &ExecError, offset: usize) -> PgError {
    use hydra_query::error::QueryError;
    match e {
        ExecError::Query(QueryError::Parse { message, span }) => PgError {
            severity: "ERROR",
            code: "42601",
            message: message.clone(),
            // The paper-side spans are 0-based byte offsets; the protocol's
            // P field is 1-based.
            position: span.map(|s| (offset + s.start + 1) as u64),
        },
        ExecError::Query(QueryError::UnknownReference(m)) => PgError::error("42P01", m.clone()),
        ExecError::Query(QueryError::Unsupported(m)) => PgError::error("0A000", m.clone()),
        ExecError::OutOfClass(reason) => PgError::error("0A000", reason.clone()),
        other => PgError::error("XX000", other.to_string()),
    }
}

/// Resolve the `database` startup parameter (`name[@version]`) to a pinned
/// registry entry. With no parameter, a registry holding exactly one entry
/// binds to it; anything else must name its summary.
pub(crate) fn resolve_database(
    registry: &SummaryRegistry,
    database: Option<&str>,
) -> Result<Arc<RegistryEntry>, PgError> {
    let Some(spec) = database else {
        let entries = registry.list();
        return match entries.len() {
            1 => Ok(entries.into_iter().next().expect("len checked")),
            0 => Err(PgError::fatal("3D000", "no summaries are registered")),
            n => Err(PgError::fatal(
                "3D000",
                format!("{n} summaries registered; connect with database=<name>[@version]"),
            )),
        };
    };
    let (name, version) = match spec.split_once('@') {
        Some((name, version)) => {
            let version: u32 = version.parse().map_err(|_| {
                PgError::fatal(
                    "3D000",
                    format!("invalid version pin in database \"{spec}\""),
                )
            })?;
            (name, Some(version))
        }
        None => (spec, None),
    };
    let entry = registry
        .get(name)
        .ok_or_else(|| PgError::fatal("3D000", format!("database \"{name}\" does not exist")))?;
    match version {
        // A pinned connection binds to that retained version — current or
        // historical (time travel) — for its whole lifetime.
        Some(pinned) if pinned != entry.version => {
            registry.get_version(name, pinned).ok_or_else(|| {
                PgError::fatal(
                    "3D000",
                    format!(
                        "database \"{}\" has no retained version {} (latest is {})",
                        name, pinned, entry.version
                    ),
                )
            })
        }
        _ => Ok(entry),
    }
}

/// Split a simple-query string into `;`-separated statements with their
/// byte offsets, respecting single-quoted literals and double-quoted
/// identifiers so a `;` inside a string does not split.
pub(crate) fn split_statements(sql: &str) -> Vec<(usize, &str)> {
    let bytes = sql.as_bytes();
    let mut statements = Vec::new();
    let mut start = 0;
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'\'' | b'"' => quote = Some(b),
                b';' => {
                    statements.push((start, &sql[start..i]));
                    start = i + 1;
                }
                _ => {}
            },
        }
    }
    statements.push((start, &sql[start..]));
    statements
}

/// What a single trimmed statement asks for.
pub(crate) enum Statement<'a> {
    /// Whitespace only.
    Empty,
    /// `SELECT * FROM <relation>` over a generated relation — a full
    /// regenerate-and-scan of unbounded size, streamed by the reactor.
    Scan(&'a str),
    /// Everything with bounded output, answered by [`run_statement`].
    Bounded(Bounded),
}

/// A statement whose whole answer fits one in-memory buffer.
pub(crate) enum Bounded {
    /// `BEGIN` / `COMMIT` / `ROLLBACK` / `SET …` — acknowledged with a bare
    /// completion tag so ORM session setup does not fail (there is nothing
    /// transactional or settable in a regenerated database).
    Acknowledge(&'static str),
    /// `SELECT <integer>` — the classic liveness ping.
    Ping(i64),
    /// `SELECT * FROM hydra_metrics` — the metrics snapshot as a virtual
    /// table.
    Metrics,
    /// Anything else: the aggregate query path.
    Aggregate,
}

pub(crate) fn classify(stmt: &str) -> Statement<'_> {
    let tokens: Vec<&str> = stmt.split_whitespace().collect();
    let Some(first) = tokens.first() else {
        return Statement::Empty;
    };
    let bounded = match first.to_ascii_lowercase().as_str() {
        "begin" => Bounded::Acknowledge("BEGIN"),
        "commit" => Bounded::Acknowledge("COMMIT"),
        "rollback" => Bounded::Acknowledge("ROLLBACK"),
        "set" => Bounded::Acknowledge("SET"),
        "select" => match tokens[1..] {
            [literal] => literal.parse().map_or(Bounded::Aggregate, Bounded::Ping),
            ["*", from, table] if from.eq_ignore_ascii_case("from") => {
                if !table.eq_ignore_ascii_case(METRICS_TABLE) {
                    return Statement::Scan(table);
                }
                Bounded::Metrics
            }
            _ => Bounded::Aggregate,
        },
        _ => Bounded::Aggregate,
    };
    Statement::Bounded(bounded)
}

/// Look up a `table.column` group key's declared type for `RowDescription`.
fn group_column_field(schema: &Schema, qualified: &str) -> FieldDescription {
    let declared = qualified.split_once('.').and_then(|(table, column)| {
        schema
            .table(table)?
            .columns()
            .iter()
            .find(|c| c.name == column)
            .map(|c| c.data_type.clone())
    });
    let (type_oid, type_len) = declared
        .as_ref()
        .map(pg_type_of)
        .unwrap_or((crate::types::OID_TEXT, -1));
    FieldDescription {
        name: qualified.to_string(),
        type_oid,
        type_len,
    }
}

/// The wire type of one aggregate output column: `count` is int8, `avg` is
/// float8, `sum` follows its target column (float8 over doubles, int8
/// otherwise — the engine's exact integer sums).
fn aggregate_field(
    schema: &Schema,
    query: &AggregateQuery,
    index: usize,
    name: &str,
) -> FieldDescription {
    let oid = match query.aggregates.get(index) {
        Some(agg) => match agg.func {
            AggFunc::Count => OID_INT8,
            AggFunc::Avg => OID_FLOAT8,
            AggFunc::Sum => {
                let is_double = agg.target.as_ref().and_then(|target| {
                    schema
                        .table(&target.table)?
                        .columns()
                        .iter()
                        .find(|c| c.name == target.column)
                        .map(|c| matches!(c.data_type, hydra_catalog::types::DataType::Double))
                });
                if is_double.unwrap_or(false) {
                    OID_FLOAT8
                } else {
                    OID_INT8
                }
            }
        },
        None => OID_FLOAT8,
    };
    FieldDescription {
        name: name.to_string(),
        type_oid: oid,
        type_len: if oid == OID_INT8 || oid == OID_FLOAT8 {
            8
        } else {
            4
        },
    }
}

/// The fixed post-auth handshake tail: trust auth, the parameters drivers
/// sniff, a cancel key (never honored — there is no cancel machinery), then
/// idle.
pub(crate) fn handshake_messages() -> Vec<BackendMessage> {
    let mut messages = vec![BackendMessage::AuthenticationOk];
    for (name, value) in [
        ("server_version", SERVER_VERSION),
        ("server_encoding", "UTF8"),
        ("client_encoding", "UTF8"),
        ("DateStyle", "ISO, MDY"),
        ("integer_datetimes", "on"),
    ] {
        messages.push(BackendMessage::ParameterStatus {
            name: name.to_string(),
            value: value.to_string(),
        });
    }
    messages.push(BackendMessage::BackendKeyData {
        pid: std::process::id() as i32,
        secret: 0,
    });
    messages.push(BackendMessage::ReadyForQuery { status: b'I' });
    messages
}

/// A statement either failed as SQL (report and keep the connection) or its
/// writer broke (close the connection — there is nobody left to tell why).
pub(crate) enum StatementFailure {
    Sql(PgError),
    Wire,
}

impl From<PgWireError> for StatementFailure {
    fn from(_: PgWireError) -> Self {
        StatementFailure::Wire
    }
}

/// An out-of-class aggregate, parsed and classified, left for the worker
/// pool's tuple scan, carrying its statement span so the statement is
/// logged once, end to end.
pub(crate) struct DeferredAggregate {
    query: AggregateQuery,
    span: Span,
}

/// Runs one bounded statement, writing its complete answer to `writer`
/// under a statement span.  An aggregate is answered from the summary
/// only; an out-of-class one comes back as a [`DeferredAggregate`] for
/// [`run_deferred`] on the pool instead of scanning here.
pub(crate) fn run_statement<W: Write>(
    writer: &mut W,
    registry: &SummaryRegistry,
    entry: &RegistryEntry,
    statement: Bounded,
    stmt: &str,
    offset: usize,
) -> Result<Option<Box<DeferredAggregate>>, StatementFailure> {
    let metrics = registry.session().metrics();
    let op = match &statement {
        Bounded::Acknowledge(_) => "pg.ack",
        Bounded::Ping(_) => "pg.ping",
        Bounded::Metrics => "pg.scan",
        Bounded::Aggregate => "pg.aggregate",
    };
    let mut span = metrics.span(op);
    span.set_kind(stmt.trim());
    let result = dispatch_statement(
        writer, registry, entry, &metrics, statement, stmt, offset, &mut span,
    );
    settle(&metrics, &mut span, &result);
    result.map(|deferred| deferred.map(|query| Box::new(DeferredAggregate { query, span })))
}

/// The pool half of a [`DeferredAggregate`]: the tuple scan, answered
/// exactly as [`ExecMode::Auto`] would have.  `hydra_query_seconds` times
/// the scan alone, not the wait for a worker.
pub(crate) fn run_deferred<W: Write>(
    writer: &mut W,
    registry: &SummaryRegistry,
    entry: &RegistryEntry,
    deferred: DeferredAggregate,
    offset: usize,
) -> Result<(), StatementFailure> {
    let DeferredAggregate { query, mut span } = deferred;
    let started = Instant::now();
    let result = QueryEngine::new(&entry.generator())
        .execute_mode(&query, ExecMode::ScanOnly)
        .map_err(|e| StatementFailure::Sql(pg_error_of_exec(&e, offset)))
        .and_then(|answer| {
            write_answer(writer, registry, entry, &query, answer, started, &mut span)
        });
    let metrics = registry.session().metrics();
    settle(&metrics, &mut span, &result);
    result
}

/// Accounts a finished statement on its span: a failure marks the span and
/// counts its SQLSTATE.
fn settle<T>(metrics: &MetricsRegistry, span: &mut Span, result: &Result<T, StatementFailure>) {
    if let Err(failure) = result {
        span.set_error();
        if let StatementFailure::Sql(pg) = failure {
            metrics
                .counter_labeled("hydra_pg_errors_total", "sqlstate", pg.code)
                .inc();
        }
    }
}

/// The statement dispatch behind [`run_statement`], factored out so the
/// span wrapper sees every arm's result (the `?`s in here must not skip
/// the error accounting).  `Some` is an aggregate deferred to the pool.
#[allow(clippy::too_many_arguments)]
fn dispatch_statement<W: Write>(
    writer: &mut W,
    registry: &SummaryRegistry,
    entry: &RegistryEntry,
    metrics: &MetricsRegistry,
    statement: Bounded,
    stmt: &str,
    offset: usize,
    span: &mut Span,
) -> Result<Option<AggregateQuery>, StatementFailure> {
    match statement {
        Bounded::Acknowledge(tag) => {
            write_backend(writer, &BackendMessage::CommandComplete { tag: tag.into() })?;
        }
        Bounded::Ping(n) => {
            let (oid, len) = if i32::try_from(n).is_ok() {
                (OID_INT4, 4)
            } else {
                (OID_INT8, 8)
            };
            write_backend(
                writer,
                &BackendMessage::RowDescription {
                    fields: vec![FieldDescription {
                        name: "?column?".to_string(),
                        type_oid: oid,
                        type_len: len,
                    }],
                },
            )?;
            write_backend(
                writer,
                &BackendMessage::DataRow {
                    values: vec![Some(n.to_string().into_bytes())],
                },
            )?;
            write_backend(
                writer,
                &BackendMessage::CommandComplete {
                    tag: "SELECT 1".to_string(),
                },
            )?;
        }
        Bounded::Metrics => run_metrics_table(writer, metrics)?,
        Bounded::Aggregate => return run_aggregate(writer, registry, entry, stmt, offset, span),
    }
    Ok(None)
}

/// `SELECT * FROM hydra_metrics`: the server's metrics snapshot as a
/// three-column virtual table (`name text`, `label text`, `value float8`)
/// — the same flat samples the frame protocol's `Stats` request returns.
fn run_metrics_table<W: Write>(
    writer: &mut W,
    metrics: &MetricsRegistry,
) -> Result<(), StatementFailure> {
    let fields = vec![
        FieldDescription {
            name: "name".to_string(),
            type_oid: OID_TEXT,
            type_len: -1,
        },
        FieldDescription {
            name: "label".to_string(),
            type_oid: OID_TEXT,
            type_len: -1,
        },
        FieldDescription {
            name: "value".to_string(),
            type_oid: OID_FLOAT8,
            type_len: 8,
        },
    ];
    write_backend(writer, &BackendMessage::RowDescription { fields })?;
    let samples = metrics.snapshot().samples();
    let count = samples.len();
    for sample in samples {
        let values = vec![
            Some(sample.name.into_bytes()),
            sample.label.map(|(k, v)| format!("{k}={v}").into_bytes()),
            Some(float8_text(sample.value).into_bytes()),
        ];
        write_backend(writer, &BackendMessage::DataRow { values })?;
    }
    write_backend(
        writer,
        &BackendMessage::CommandComplete {
            tag: format!("SELECT {count}"),
        },
    )?;
    Ok(())
}

/// Text rendering of a float8 sample value: integral values print without
/// a fraction (`42`, like PostgreSQL's float8 output), everything else in
/// Rust's shortest-roundtrip form.
fn float8_text(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// The aggregate path: parse against the entry's schema, answer from the
/// summary, and write the grouped answer.  An out-of-class query is
/// returned, parsed, for the pool's tuple scan instead.
fn run_aggregate<W: Write>(
    writer: &mut W,
    registry: &SummaryRegistry,
    entry: &RegistryEntry,
    stmt: &str,
    offset: usize,
    span: &mut Span,
) -> Result<Option<AggregateQuery>, StatementFailure> {
    let generator = entry.generator();
    let query = parse_aggregate_query_for_schema("pgwire", stmt, generator.schema)
        .map_err(|e| StatementFailure::Sql(pg_error_of_exec(&ExecError::Query(e), offset)))?;
    let started = Instant::now();
    let answer = match QueryEngine::new(&generator).execute_mode(&query, ExecMode::SummaryOnly) {
        Err(ExecError::OutOfClass(_)) => return Ok(Some(query)),
        result => result.map_err(|e| StatementFailure::Sql(pg_error_of_exec(&e, offset)))?,
    };
    write_answer(writer, registry, entry, &query, answer, started, span)?;
    Ok(None)
}

/// Records an aggregate's answer and writes it as `RowDescription`,
/// `DataRow`s and `CommandComplete`.
fn write_answer<W: Write>(
    writer: &mut W,
    registry: &SummaryRegistry,
    entry: &RegistryEntry,
    query: &AggregateQuery,
    answer: QueryAnswer,
    started: Instant,
    span: &mut Span,
) -> Result<(), StatementFailure> {
    let schema = &entry.regeneration().schema;
    let session = registry.session();
    session.record_query(answer.strategy, started.elapsed());
    span.set_detail(answer.strategy.label());

    let mut fields =
        Vec::with_capacity(answer.group_columns.len() + answer.aggregate_columns.len());
    let mut group_types = Vec::with_capacity(answer.group_columns.len());
    for qualified in &answer.group_columns {
        let field = group_column_field(schema, qualified);
        group_types.push(qualified.split_once('.').and_then(|(table, column)| {
            schema
                .table(table)?
                .columns()
                .iter()
                .find(|c| c.name == column)
                .map(|c| c.data_type.clone())
        }));
        fields.push(field);
    }
    for (i, name) in answer.aggregate_columns.iter().enumerate() {
        fields.push(aggregate_field(schema, query, i, name));
    }
    write_backend(writer, &BackendMessage::RowDescription { fields })?;

    let mut scratch = Vec::new();
    let mut datarow_bytes = 0u64;
    for row in &answer.rows {
        let mut values = Vec::with_capacity(row.key.len() + row.aggregates.len());
        for (i, key) in row.key.iter().enumerate() {
            values.push(
                pg_text(key, group_types.get(i).and_then(|t| t.as_ref())).map(String::into_bytes),
            );
        }
        for agg in &row.aggregates {
            values.push(pg_text(agg, None).map(String::into_bytes));
        }
        scratch.clear();
        encode_backend(&BackendMessage::DataRow { values }, &mut scratch);
        datarow_bytes += scratch.len() as u64;
        writer
            .write_all(&scratch)
            .map_err(|_| StatementFailure::Wire)?;
    }
    session
        .metrics()
        .counter("hydra_pg_datarow_bytes_total")
        .add(datarow_bytes);
    write_backend(
        writer,
        &BackendMessage::CommandComplete {
            tag: format!("SELECT {}", answer.rows.len()),
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_splitting_respects_quotes() {
        let sql = "select count(*) from t where c = 'a;b'; select 1;; \"odd;name\"";
        let parts = split_statements(sql);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].1, "select count(*) from t where c = 'a;b'");
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[1].1, " select 1");
        assert_eq!(sql.as_bytes()[parts[1].0], b' ');
        assert_eq!(parts[2].1, "");
        assert_eq!(parts[3].1, " \"odd;name\"");
    }

    #[test]
    fn classification() {
        assert!(matches!(classify("  "), Statement::Empty));
        assert!(matches!(
            classify("BEGIN"),
            Statement::Bounded(Bounded::Acknowledge("BEGIN"))
        ));
        assert!(matches!(
            classify("set search_path to x"),
            Statement::Bounded(Bounded::Acknowledge("SET"))
        ));
        assert!(matches!(
            classify("select 1"),
            Statement::Bounded(Bounded::Ping(1))
        ));
        assert!(matches!(
            classify("SELECT * FROM item"),
            Statement::Scan("item")
        ));
        assert!(matches!(
            classify("select * from HYDRA_METRICS"),
            Statement::Bounded(Bounded::Metrics)
        ));
        assert!(matches!(
            classify("select count(*) from item"),
            Statement::Bounded(Bounded::Aggregate)
        ));
        assert!(matches!(
            classify("select * from item where x"),
            Statement::Bounded(Bounded::Aggregate)
        ));
    }
}
