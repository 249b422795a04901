//! The analytical query engine: summary-direct answering with a sharded
//! tuple-scan fallback.
//!
//! [`QueryEngine`] is the dispatch layer over one regenerated database:
//!
//! 1. **Summary-direct** (the default, [`ExecMode::Auto`]): in-class queries
//!    are answered by `hydra_summary::exec::SummaryExecutor` from block
//!    cardinalities alone — latency is O(summary blocks), *independent of
//!    the logical row count*, which is the whole point of the paper's
//!    "the summary is the database" claim.
//! 2. **Tuple-scan fallback**: out-of-class queries (see
//!    [`SummaryExecutor::classify`]) are answered by regenerating the fact
//!    relation through the ordinary sharded generation path — one
//!    [`crate::sink::TupleSink`] per shard folding tuples into the shared
//!    [`Aggregator`] kernel, partial aggregates merged in shard order.
//!
//! Because both strategies feed the same order-independent aggregation
//! kernel and share one join resolver, their answers are **bit-identical**;
//! `tests/query_differential.rs` (workspace root) proves it with a
//! property-based differential oracle.

use crate::generator::DynamicGenerator;
use crate::sink::TupleSink;
use crate::stream::RowBlock;
use hydra_catalog::types::Value;
use hydra_engine::error::EngineError;
use hydra_engine::row::Row;
use hydra_query::error::QueryError;
use hydra_query::exec::{AggFunc, AggInput, AggregateQuery, Aggregator, ExecStrategy, QueryAnswer};
use hydra_query::parser::parse_aggregate_query_for_schema;
use hydra_query::predicate::ColumnPredicate;
use hydra_summary::error::SummaryError;
use hydra_summary::exec::{JoinResolver, SummaryExecutor};
use std::collections::BTreeMap;
use std::fmt;

/// How [`QueryEngine::execute_mode`] is allowed to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Summary-direct when the query is in class, tuple scan otherwise.
    #[default]
    Auto,
    /// Summary-direct or error — never scan.  An out-of-class query is
    /// reported as [`ExecError::OutOfClass`], not silently scanned.
    SummaryOnly,
    /// Always regenerate and scan (differential testing, benchmarking).
    ScanOnly,
}

/// Errors raised by the query engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Parsing or validating the query failed.
    Query(QueryError),
    /// Regeneration/streaming failed.
    Engine(EngineError),
    /// The summary layer failed (missing relation, malformed summary).
    Summary(SummaryError),
    /// The query is outside the summary-direct class and the caller forbade
    /// the scan fallback ([`ExecMode::SummaryOnly`]).  The payload names the
    /// out-of-class construct.
    OutOfClass(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Query(e) => write!(f, "query error: {e}"),
            ExecError::Engine(e) => write!(f, "engine error: {e}"),
            ExecError::Summary(e) => write!(f, "summary error: {e}"),
            ExecError::OutOfClass(reason) => {
                write!(f, "out of the summary-direct class: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

impl From<SummaryError> for ExecError {
    fn from(e: SummaryError) -> Self {
        ExecError::Summary(e)
    }
}

/// Convenience result alias.
pub type ExecResult<T> = Result<T, ExecError>;

/// An analytical query engine over one regenerated database.
///
/// ```
/// use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
/// use hydra_catalog::types::Value;
/// use hydra_datagen::exec::QueryEngine;
/// use hydra_datagen::generator::DynamicGenerator;
/// use hydra_summary::summary::{DatabaseSummary, RelationSummary};
/// use hydra_catalog::types::DataType;
/// use std::collections::BTreeMap;
///
/// let schema = SchemaBuilder::new("db")
///     .table("item", |t| {
///         t.column(ColumnBuilder::new("i_pk", DataType::BigInt).primary_key())
///             .column(ColumnBuilder::new("i_qty", DataType::Integer))
///     })
///     .build()
///     .unwrap();
/// let mut item = RelationSummary::new("item", Some("i_pk".to_string()));
/// let mut v = BTreeMap::new();
/// v.insert("i_qty".to_string(), Value::Integer(3));
/// item.push_row(1_000_000, v);
/// let mut summary = DatabaseSummary::new();
/// summary.insert(item);
/// let generator = DynamicGenerator::new(&schema, &summary);
///
/// // A million-row aggregate answered without generating a single tuple.
/// let engine = QueryEngine::new(&generator);
/// let answer = engine.query("select count(*), sum(item.i_qty) from item").unwrap();
/// assert_eq!(answer.single().unwrap().aggregates[0], Value::Integer(1_000_000));
/// assert_eq!(answer.single().unwrap().aggregates[1], Value::Integer(3_000_000));
/// assert_eq!(answer.scanned_tuples, 0);
/// ```
pub struct QueryEngine<'a> {
    generator: DynamicGenerator<'a>,
    /// Shards of a tuple-scan fallback; `None` sizes them to the available
    /// cores when a scan actually runs, so a summary-direct answer never
    /// pays for the (procfs-reading) core-count lookup.
    scan_shards: Option<usize>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a regenerated database; scan fallbacks shard
    /// across the available cores.
    pub fn new(generator: &DynamicGenerator<'a>) -> Self {
        QueryEngine {
            generator: *generator,
            scan_shards: None,
        }
    }

    /// Overrides the shard count used by tuple-scan fallbacks (answers are
    /// bit-identical for every shard count).
    pub fn with_scan_shards(mut self, shards: usize) -> Self {
        self.scan_shards = Some(shards.max(1));
        self
    }

    /// Parses, validates and executes a SQL aggregate query with
    /// [`ExecMode::Auto`].
    pub fn query(&self, sql: &str) -> ExecResult<QueryAnswer> {
        self.query_mode(sql, ExecMode::Auto)
    }

    /// Parses, validates and executes a SQL aggregate query under `mode`.
    pub fn query_mode(&self, sql: &str, mode: ExecMode) -> ExecResult<QueryAnswer> {
        let query = parse_aggregate_query_for_schema("query", sql, self.generator.schema)?;
        self.execute_mode(&query, mode)
    }

    /// Executes an already-parsed query with [`ExecMode::Auto`].
    pub fn execute(&self, query: &AggregateQuery) -> ExecResult<QueryAnswer> {
        self.execute_mode(query, ExecMode::Auto)
    }

    /// Executes an already-parsed (and schema-validated) query under `mode`.
    /// Classification runs exactly once: `execute` classifies internally and
    /// reports out-of-class queries as a structured error this dispatch
    /// turns into either a refusal or the scan fallback.
    pub fn execute_mode(&self, query: &AggregateQuery, mode: ExecMode) -> ExecResult<QueryAnswer> {
        let direct = SummaryExecutor::new(self.generator.schema, self.generator.summary);
        match mode {
            ExecMode::ScanOnly => self.scan(query),
            ExecMode::SummaryOnly => match direct.execute(query) {
                Ok(answer) => Ok(answer),
                Err(SummaryError::OutOfClass(reason)) => Err(ExecError::OutOfClass(reason)),
                Err(e) => Err(e.into()),
            },
            ExecMode::Auto => match direct.execute(query) {
                Ok(answer) => Ok(answer),
                Err(SummaryError::OutOfClass(_)) => self.scan(query),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// The tuple-scan plan: regenerate the fact relation through the sharded
    /// generation path and fold every tuple into the aggregation kernel.
    fn scan(&self, query: &AggregateQuery) -> ExecResult<QueryAnswer> {
        let root = query.spj.root_table()?.to_string();
        let (table, root_summary) = self.generator.relation(&root)?;
        let ctx = ScanContext {
            query,
            root: &root,
            resolver: JoinResolver::new(
                query,
                &root,
                self.generator.schema,
                self.generator.summary,
            )?,
            col_index: table
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name.clone(), i))
                .collect(),
            conjuncts: query
                .spj
                .predicate(&root)
                .map(|p| p.conjuncts().to_vec())
                .unwrap_or_default(),
        };
        let shards = self.scan_shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let run = self
            .generator
            .stream_sharded(&root, shards, |_, _| ScanSink {
                ctx: &ctx,
                agg: Aggregator::for_query(query),
                scanned: 0,
            })?;
        let mut merged = Aggregator::for_query(query);
        let mut scanned = 0u64;
        for sink in run.into_sinks() {
            merged.merge(&sink.agg);
            scanned += sink.scanned;
        }
        Ok(merged.into_answer(
            query,
            ExecStrategy::TupleScan,
            root_summary.row_count() as u64,
            scanned,
        ))
    }
}

/// Shared scan-side context (one per query, borrowed by every shard sink).
struct ScanContext<'q> {
    query: &'q AggregateQuery,
    root: &'q str,
    resolver: JoinResolver<'q>,
    col_index: BTreeMap<String, usize>,
    conjuncts: Vec<ColumnPredicate>,
}

impl ScanContext<'_> {
    fn column<'r>(&self, row: &'r Row, name: &str) -> Option<&'r Value> {
        self.col_index.get(name).map(|&i| &row[i])
    }
}

/// A [`TupleSink`] that folds regenerated tuples into the aggregation
/// kernel; one per shard, merged in shard order after the run.
struct ScanSink<'q, 'c> {
    ctx: &'c ScanContext<'q>,
    agg: Aggregator,
    scanned: u64,
}

impl TupleSink for ScanSink<'_, '_> {
    fn accept(&mut self, row: Row) {
        self.scanned += 1;
        let ctx = self.ctx;
        // Root predicate (pk conjuncts included — the tuple carries its pk).
        if !ctx.conjuncts.iter().all(|c| {
            ctx.column(&row, &c.column)
                .map(|v| c.matches(v))
                .unwrap_or(false)
        }) {
            return;
        }
        // Join fan-out through the shared resolver.
        let Some(resolved) = ctx.resolver.resolve(|col| ctx.column(&row, col)) else {
            return;
        };
        let read = |colref: &hydra_query::exec::ColumnRef| -> Value {
            if colref.table == ctx.root {
                ctx.column(&row, &colref.column)
                    .cloned()
                    .unwrap_or(Value::Null)
            } else {
                match resolved.get(colref.table.as_str()) {
                    Some(dim) => ctx.resolver.dim_value(&colref.table, &colref.column, dim),
                    None => Value::Null,
                }
            }
        };
        let key: Vec<Value> = ctx.query.group_by.iter().map(&read).collect();
        let values: Vec<Option<Value>> = ctx
            .query
            .aggregates
            .iter()
            .map(|agg| match (&agg.func, &agg.target) {
                (AggFunc::Count, _) | (_, None) => None,
                (_, Some(col)) => Some(read(col)),
            })
            .collect();
        let inputs: Vec<AggInput<'_>> = values
            .iter()
            .map(|v| match v {
                None => AggInput::Tuples { n: 1 },
                Some(value) => AggInput::Repeat { value, n: 1 },
            })
            .collect();
        self.agg.add(key, &inputs);
    }

    fn write_block(&mut self, block: &RowBlock<'_>) -> u64 {
        let ctx = self.ctx;
        let n = block.len();
        let template = block.template();
        let is_auto = |name: &str| {
            ctx.col_index
                .get(name)
                .is_some_and(|i| block.auto_columns().contains(i))
        };
        // The pk varies within the block, so any reference to it outside an
        // aggregate target keeps the block's tuples distinguishable — take
        // the bit-identical row-at-a-time path for those queries.
        let pk_in_predicate = ctx.conjuncts.iter().any(|c| is_auto(&c.column));
        let pk_in_group_key = ctx
            .query
            .group_by
            .iter()
            .any(|g| g.table == ctx.root && is_auto(&g.column));
        // Probe the join fan-out on the template while recording whether the
        // resolver ever reads an auto column (it resolves through root fk
        // columns, which are block-constant; the probe guards the invariant).
        let touched_auto = std::cell::Cell::new(false);
        let resolved = ctx.resolver.resolve(|col| {
            if is_auto(col) {
                touched_auto.set(true);
            }
            ctx.column(template, col)
        });
        if pk_in_predicate || pk_in_group_key || touched_auto.get() {
            for row in block.rows() {
                self.accept(row);
            }
            return n;
        }
        // Everything below is block-constant: evaluate once, contribute for
        // all `n` tuples; pk-targeted aggregates use the closed-form
        // `IntRange` input over the block's pk range.
        self.scanned += n;
        if !ctx.conjuncts.iter().all(|c| {
            ctx.column(template, &c.column)
                .map(|v| c.matches(v))
                .unwrap_or(false)
        }) {
            return n;
        }
        let Some(resolved) = resolved else {
            return n;
        };
        let read = |colref: &hydra_query::exec::ColumnRef| -> Value {
            if colref.table == ctx.root {
                ctx.column(template, &colref.column)
                    .cloned()
                    .unwrap_or(Value::Null)
            } else {
                match resolved.get(colref.table.as_str()) {
                    Some(dim) => ctx.resolver.dim_value(&colref.table, &colref.column, dim),
                    None => Value::Null,
                }
            }
        };
        let key: Vec<Value> = ctx.query.group_by.iter().map(&read).collect();
        /// The per-block shape of one aggregate's contribution.
        enum BlockInput {
            /// Count-only: the value is irrelevant.
            Tuples,
            /// Target is the auto-numbered pk: closed form over the range.
            PkRange,
            /// Target is block-constant: one value repeated `n` times.
            Constant(Value),
        }
        let classified: Vec<BlockInput> = ctx
            .query
            .aggregates
            .iter()
            .map(|agg| match (&agg.func, &agg.target) {
                (AggFunc::Count, _) | (_, None) => BlockInput::Tuples,
                (_, Some(col)) if col.table == ctx.root && is_auto(&col.column) => {
                    BlockInput::PkRange
                }
                (_, Some(col)) => BlockInput::Constant(read(col)),
            })
            .collect();
        let pk_range = block.pk_range();
        let inputs: Vec<AggInput<'_>> = classified
            .iter()
            .map(|c| match c {
                BlockInput::Tuples => AggInput::Tuples { n },
                BlockInput::PkRange => AggInput::IntRange {
                    lo: pk_range.start as i64,
                    hi: pk_range.end as i64,
                },
                BlockInput::Constant(value) => AggInput::Repeat { value, n },
            })
            .collect();
        self.agg.add(key, &inputs);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
    use hydra_catalog::types::DataType;
    use hydra_summary::summary::{DatabaseSummary, RelationSummary};

    /// sales → item star with a pk-split-friendly block structure.
    fn fixture() -> (Schema, DatabaseSummary) {
        let schema = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_pk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_cat", DataType::Varchar(None)))
                    .column(ColumnBuilder::new("i_price", DataType::Double))
            })
            .table("sales", |t| {
                t.column(ColumnBuilder::new("s_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("s_item_fk", DataType::BigInt)
                            .references("item", "i_pk"),
                    )
                    .column(ColumnBuilder::new("s_qty", DataType::Integer))
            })
            .build()
            .unwrap();
        let mut item = RelationSummary::new("item", Some("i_pk".to_string()));
        for (count, cat, price) in [(10u64, "Music", 0.1), (5, "Books", 2.0)] {
            let mut v = BTreeMap::new();
            v.insert("i_cat".to_string(), Value::str(cat));
            v.insert("i_price".to_string(), Value::Double(price));
            item.push_row(count, v);
        }
        let mut sales = RelationSummary::new("sales", Some("s_pk".to_string()));
        for (count, fk, qty) in [(500u64, 2i64, 3i64), (250, 12, 7), (100, 777, 1)] {
            let mut v = BTreeMap::new();
            v.insert("s_item_fk".to_string(), Value::Integer(fk));
            v.insert("s_qty".to_string(), Value::Integer(qty));
            sales.push_row(count, v);
        }
        let mut db = DatabaseSummary::new();
        db.insert(item);
        db.insert(sales);
        (schema, db)
    }

    #[test]
    fn auto_mode_answers_in_class_queries_summary_direct() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let engine = QueryEngine::new(&gen);
        let answer = engine
            .query("select count(*), sum(sales.s_qty) from sales")
            .unwrap();
        assert_eq!(answer.strategy(), ExecStrategy::SummaryDirect);
        assert_eq!(answer.scanned_tuples, 0);
        assert_eq!(answer.single().unwrap().aggregates[0], Value::Integer(850));
        assert_eq!(
            answer.single().unwrap().aggregates[1],
            Value::Integer(500 * 3 + 250 * 7 + 100)
        );
    }

    #[test]
    fn scan_only_matches_summary_direct_bit_for_bit() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let engine = QueryEngine::new(&gen).with_scan_shards(3);
        for sql in [
            "select count(*) from sales",
            "select count(*), sum(sales.s_pk), avg(sales.s_qty) from sales \
             where sales.s_pk >= 123 and sales.s_pk < 641",
            "select count(*), sum(item.i_price) from sales, item \
             where sales.s_item_fk = item.i_pk group by item.i_cat",
            "select avg(item.i_price) from sales, item \
             where sales.s_item_fk = item.i_pk and item.i_cat = 'Music'",
        ] {
            let direct = engine.query_mode(sql, ExecMode::SummaryOnly).unwrap();
            let scanned = engine.query_mode(sql, ExecMode::ScanOnly).unwrap();
            assert_eq!(direct.rows, scanned.rows, "{sql}");
            assert_eq!(direct.strategy(), ExecStrategy::SummaryDirect);
            assert_eq!(scanned.strategy(), ExecStrategy::TupleScan);
            assert_eq!(scanned.scanned_tuples, 850, "{sql}");
        }
    }

    #[test]
    fn auto_mode_falls_back_to_scan_for_out_of_class() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let engine = QueryEngine::new(&gen).with_scan_shards(2);
        let sql = "select count(*) from sales group by sales.s_pk";
        let answer = engine.query(sql).unwrap();
        assert_eq!(answer.strategy(), ExecStrategy::TupleScan);
        assert_eq!(answer.rows.len(), 850); // every tuple its own group
        assert!(answer
            .rows
            .iter()
            .all(|r| r.aggregates[0] == Value::Integer(1)));

        // summary_only refuses instead of silently scanning.
        let err = engine.query_mode(sql, ExecMode::SummaryOnly).unwrap_err();
        assert!(matches!(err, ExecError::OutOfClass(_)));
        assert!(err.to_string().contains("out of the summary-direct class"));
    }

    #[test]
    fn shard_count_does_not_change_scan_answers() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let sql = "select count(*), sum(item.i_price) from sales, item \
                   where sales.s_item_fk = item.i_pk group by sales.s_qty";
        let baseline = QueryEngine::new(&gen)
            .with_scan_shards(1)
            .query_mode(sql, ExecMode::ScanOnly)
            .unwrap();
        for shards in [2, 5, 13] {
            let sharded = QueryEngine::new(&gen)
                .with_scan_shards(shards)
                .query_mode(sql, ExecMode::ScanOnly)
                .unwrap();
            assert_eq!(baseline.rows, sharded.rows, "{shards} shards");
        }
    }

    #[test]
    fn parse_and_validation_errors_surface() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let engine = QueryEngine::new(&gen);
        assert!(matches!(
            engine.query("select nonsense"),
            Err(ExecError::Query(_))
        ));
        assert!(matches!(
            engine.query("select count(*) from ghost"),
            Err(ExecError::Query(_))
        ));
        assert!(matches!(
            engine.query("select sum(item.i_cat) from item"),
            Err(ExecError::Query(_))
        ));
    }
}
