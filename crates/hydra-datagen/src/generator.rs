//! The user-facing dynamic generator: streams, materialization, tuple sinks,
//! and rate-controlled generation runs.

use crate::governor::{Pulse, VelocityGovernor};
use crate::shard::{run_sharded, ShardedRun};
use crate::sink::{CollectSink, CountingSink, TupleSink};
use crate::stream::TupleStream;
use hydra_catalog::schema::{Schema, Table};
use hydra_engine::error::{EngineError, EngineResult};
use hydra_engine::exec::TableProvider;
use hydra_engine::row::Row;
use hydra_engine::table::MemTable;
use hydra_summary::summary::{DatabaseSummary, RelationSummary};
use std::ops::Range;
use std::time::Duration;

/// Statistics of one generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStats {
    /// Relation that was generated.
    pub table: String,
    /// Number of tuples produced.
    pub rows: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Achieved rate in rows per second.
    pub achieved_rows_per_sec: f64,
    /// Target rate, if the run was throttled.
    pub target_rows_per_sec: Option<f64>,
    /// Total time the velocity governor slept to hold the target rate
    /// (zero for unthrottled runs).
    pub governor_sleep: Duration,
}

/// A regenerated database: a borrowed view of a schema and the summary that
/// drives it — the paper's dataless database.  Every scan, stream, shard and
/// query of a regenerated relation resolves through
/// [`DynamicGenerator::relation`]; the view is `Copy` and costs two pointers,
/// so callers build one wherever the schema and summary live (a regeneration
/// result, a registry version) instead of copying either.
///
/// It implements the execution engine's [`TableProvider`], so query plans
/// run with **no stored data at all**: every scan is served by the tuple
/// generator (the paper's `datagen` scan operator).
///
/// ```
/// use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
/// use hydra_catalog::types::{DataType, Value};
/// use hydra_datagen::generator::DynamicGenerator;
/// use hydra_datagen::sink::CollectSink;
/// use hydra_summary::summary::{DatabaseSummary, RelationSummary};
/// use std::collections::BTreeMap;
///
/// let schema = SchemaBuilder::new("db")
///     .table("item", |t| {
///         t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
///     })
///     .build()
///     .unwrap();
/// let mut item = RelationSummary::new("item", Some("i_item_sk".to_string()));
/// item.push_row(1_000, BTreeMap::new());
/// let mut summary = DatabaseSummary::new();
/// summary.insert(item);
/// let generator = DynamicGenerator::new(&schema, &summary);
///
/// // Random access: rows [200, 210) without generating rows [0, 200).
/// let slice: Vec<_> = generator.stream_range("item", 200..210).unwrap().collect();
/// assert_eq!(slice.len(), 10);
/// assert_eq!(slice[0][0], Value::Integer(200));
///
/// // Sharded: 4 threads, each with its own sink; concatenation in shard
/// // order is bit-identical to the sequential stream.
/// let run = generator
///     .stream_sharded("item", 4, |_shard, _range| CollectSink::new())
///     .unwrap();
/// let sharded: Vec<_> = run.into_sinks().into_iter().flat_map(|s| s.rows).collect();
/// let sequential: Vec<_> = generator.stream("item").unwrap().collect();
/// assert_eq!(sharded, sequential);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DynamicGenerator<'a> {
    /// Schema of the regenerated database.
    pub schema: &'a Schema,
    /// The driving summary.
    pub summary: &'a DatabaseSummary,
}

impl<'a> DynamicGenerator<'a> {
    /// A view of `schema` regenerated from `summary`.
    pub fn new(schema: &'a Schema, summary: &'a DatabaseSummary) -> Self {
        DynamicGenerator { schema, summary }
    }

    /// Resolves a table name to its schema and summary entries.
    pub fn relation(&self, table: &str) -> EngineResult<(&'a Table, &'a RelationSummary)> {
        let t = self
            .schema
            .table(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        let relation = self
            .summary
            .relation(table)
            .ok_or_else(|| EngineError::UnknownTable(format!("{table} (no summary)")))?;
        Ok((t, relation))
    }

    /// A lazy tuple stream for one relation.
    pub fn stream(&self, table: &str) -> EngineResult<TupleStream<'a>> {
        let (t, summary) = self.relation(table)?;
        Ok(TupleStream::new(t, summary))
    }

    /// A lazy tuple stream over the row range `rows` of one relation (clamped
    /// to the relation's size).  The stream seeks to the start of the range
    /// in O(log B) through the summary's block-offset index — no tuples
    /// before the range are ever generated — and produces exactly the
    /// corresponding slice of [`DynamicGenerator::stream`].
    pub fn stream_range(&self, table: &str, rows: Range<u64>) -> EngineResult<TupleStream<'a>> {
        let (t, summary) = self.relation(table)?;
        Ok(TupleStream::with_range(t, summary, rows))
    }

    /// Regenerates one relation with `shards` parallel workers, each shard
    /// streaming a balanced row range into its own [`TupleSink`] built by
    /// `sink_factory` (called with the shard index and row range).  The
    /// concatenation of the shard sinks in plan order is bit-identical to the
    /// sequential [`DynamicGenerator::stream`].
    pub fn stream_sharded<S, F>(
        &self,
        table: &str,
        shards: usize,
        sink_factory: F,
    ) -> EngineResult<ShardedRun<S>>
    where
        S: TupleSink + Send,
        F: Fn(usize, Range<u64>) -> S + Sync,
    {
        let (t, summary) = self.relation(table)?;
        Ok(run_sharded(t, summary, shards, sink_factory))
    }

    /// Materializes a relation with `shards` parallel workers into an
    /// in-memory table, bit-identical for every shard count.
    pub fn materialize_sharded(&self, table: &str, shards: usize) -> EngineResult<MemTable> {
        let (t, _) = self.relation(table)?;
        Ok(self
            .stream_sharded(table, shards, |_, _| CollectSink::new())?
            .into_table(t))
    }

    /// Materializes a relation into an in-memory table (the demo's optional
    /// "materialize" mode).  Dynamic generation makes this unnecessary for
    /// query execution; it exists for comparison and for exporting data.
    pub fn materialize(&self, table: &str) -> EngineResult<MemTable> {
        self.materialize_sharded(table, 1)
    }

    /// Streams the row range `rows` of a relation (clamped to its size) into
    /// a [`TupleSink`], optionally throttled to `rows_per_sec`, and returns
    /// the run statistics.  The stream seeks to the start of the range
    /// through the summary's block-offset index, so serving rows `[lo, hi)`
    /// never generates a tuple outside the range.  A whole relation is
    /// `0..u64::MAX`; its first `n` tuples are `0..n`.
    pub fn stream_range_into(
        &self,
        table: &str,
        rows: Range<u64>,
        sink: &mut dyn TupleSink,
        rows_per_sec: Option<f64>,
    ) -> EngineResult<GenerationStats> {
        let stream = self.stream_range(table, rows)?;
        Ok(drive_stream(stream, sink, rows_per_sec))
    }

    /// Generates up to `limit` tuples of a relation at the given velocity
    /// (rows per second; `None` = unthrottled), returning run statistics.
    /// Tuples are produced and immediately discarded — this measures the
    /// generator itself, exactly like the demo's velocity screen.
    pub fn generate_with_velocity(
        &self,
        table: &str,
        rows_per_sec: Option<f64>,
        limit: Option<u64>,
    ) -> EngineResult<GenerationStats> {
        let mut sink = CountingSink::new();
        self.stream_range_into(table, 0..limit.unwrap_or(u64::MAX), &mut sink, rows_per_sec)
    }
}

impl TableProvider for DynamicGenerator<'_> {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        self.schema
            .table(table)
            .map(|t| t.columns().iter().map(|c| c.name.clone()).collect())
    }

    fn scan(&self, table: &str) -> Option<Box<dyn Iterator<Item = Row> + '_>> {
        let stream = self.stream(table).ok()?;
        Some(Box::new(stream))
    }

    fn estimated_rows(&self, table: &str) -> Option<u64> {
        self.summary.relation(table).map(|r| r.total_rows)
    }
}

/// Drives a prepared stream into a sink — the one blocking emission loop,
/// behind [`DynamicGenerator::stream_range_into`] and every shard of a
/// sharded run.  [`VelocityGovernor::next_pulse`] paces it: a throttled
/// stream emits one tuple per pulse (the exact per-tuple schedule), an
/// unthrottled one walks whole blocks in a single pulse.  The loop stops
/// early once the sink [aborts](TupleSink::aborted), and the sink is closed
/// either way.
pub(crate) fn drive_stream(
    mut stream: TupleStream<'_>,
    sink: &mut dyn TupleSink,
    rows_per_sec: Option<f64>,
) -> GenerationStats {
    sink.begin(stream.table(), stream.remaining());
    let (mut governor, cap) = match rows_per_sec {
        Some(rate) => (VelocityGovernor::with_rate(rate), 1),
        None => (VelocityGovernor::unthrottled(), u64::MAX),
    };
    'pulses: while !sink.aborted() {
        let mut goal = match governor.next_pulse(stream.remaining(), cap) {
            Pulse::Wait(wait) => {
                std::thread::sleep(wait);
                continue;
            }
            Pulse::Emit(goal) => goal,
            Pulse::Drained => break,
        };
        while goal > 0 {
            let Some(block) = stream.next_block(goal) else {
                break 'pulses;
            };
            let n = sink.write_block(&block);
            governor.note(n);
            if n < block.len() {
                // The sink aborted mid-block; don't credit unconsumed rows.
                break 'pulses;
            }
            goal -= n;
        }
    }
    sink.finish();
    governor.stats(&stream.table().name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};
    use hydra_engine::exec::Executor;
    use hydra_query::parser::parse_query_for_schema;
    use hydra_query::plan::LogicalPlan;
    use std::collections::BTreeMap;

    fn fixture() -> (Schema, DatabaseSummary) {
        let schema = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
            })
            .build()
            .unwrap();
        let mut item = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v = BTreeMap::new();
        v.insert("i_manager_id".to_string(), Value::Integer(40));
        item.push_row(5000, v);
        let mut summary = DatabaseSummary::new();
        summary.insert(item);
        (schema, summary)
    }

    #[test]
    fn stream_and_materialize_agree() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let streamed: Vec<_> = gen.stream("item").unwrap().collect();
        let materialized = gen.materialize("item").unwrap();
        assert_eq!(streamed.len(), 5000);
        assert_eq!(materialized.row_count(), 5000);
        assert_eq!(materialized.rows()[0], streamed[0]);
        assert!(gen.stream("missing").is_err());
        assert!(gen.materialize("missing").is_err());
    }

    #[test]
    fn stream_range_is_a_slice_of_the_full_stream() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let full: Vec<_> = gen.stream("item").unwrap().collect();
        let slice: Vec<_> = gen.stream_range("item", 1000..1010).unwrap().collect();
        assert_eq!(slice, full[1000..1010]);
        assert!(gen.stream_range("missing", 0..10).is_err());
    }

    #[test]
    fn sharded_materialization_matches_sequential() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let sequential = gen.materialize("item").unwrap();
        for shards in [1, 3, 8] {
            let sharded = gen.materialize_sharded("item", shards).unwrap();
            assert_eq!(sharded.rows(), sequential.rows(), "{shards} shards");
        }
        assert!(gen.materialize_sharded("missing", 2).is_err());
    }

    #[test]
    fn sharded_stream_drives_one_sink_per_shard() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let run = gen
            .stream_sharded("item", 4, |_, _| CountingSink::new())
            .unwrap();
        assert_eq!(run.shards.len(), 4);
        assert_eq!(run.total_rows(), 5000);
        assert_eq!(run.aggregate_stats().rows, 5000);
        assert!(gen
            .stream_sharded("missing", 4, |_, _| CountingSink::new())
            .is_err());
    }

    #[test]
    fn unthrottled_generation_stats() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let stats = gen.generate_with_velocity("item", None, None).unwrap();
        assert_eq!(stats.rows, 5000);
        assert!(stats.achieved_rows_per_sec > 0.0);
        assert!(stats.target_rows_per_sec.is_none());
    }

    #[test]
    fn limited_generation_stops_early() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let stats = gen.generate_with_velocity("item", None, Some(100)).unwrap();
        assert_eq!(stats.rows, 100);
    }

    #[test]
    fn stream_range_into_matches_the_slice_and_respects_velocity() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let full: Vec<_> = gen.stream("item").unwrap().collect();

        let mut collect = CollectSink::new();
        let stats = gen
            .stream_range_into("item", 1200..1400, &mut collect, None)
            .unwrap();
        assert_eq!(stats.rows, 200);
        assert_eq!(collect.rows, full[1200..1400]);

        // 200 rows at 2000 rows/s → ~100 ms, paced per emitted tuple.
        let mut sink = CountingSink::new();
        let stats = gen
            .stream_range_into("item", 0..200, &mut sink, Some(2000.0))
            .unwrap();
        assert_eq!(stats.rows, 200);
        assert!(
            stats.elapsed >= Duration::from_millis(90),
            "throttled range stream finished too fast: {:?}",
            stats.elapsed
        );
        assert!(gen
            .stream_range_into("missing", 0..1, &mut sink, None)
            .is_err());
    }

    #[test]
    fn dead_sink_aborts_the_stream_early() {
        /// A sink that goes dead after accepting `alive` tuples — models a
        /// wire sink whose peer disconnected mid-stream.
        struct DyingSink {
            alive: u64,
            accepted: u64,
            finished: bool,
        }
        impl TupleSink for DyingSink {
            fn accept(&mut self, _row: hydra_engine::row::Row) {
                self.accepted += 1;
            }
            fn aborted(&self) -> bool {
                self.accepted >= self.alive
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }

        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        let mut sink = DyingSink {
            alive: 100,
            accepted: 0,
            finished: false,
        };
        let stats = gen
            .stream_range_into("item", 0..u64::MAX, &mut sink, None)
            .unwrap();
        // The driver stopped at the abort signal instead of generating the
        // remaining 4_900 tuples into a dead sink, and still closed it.
        assert_eq!(stats.rows, 100);
        assert_eq!(sink.accepted, 100);
        assert!(sink.finished);
    }

    #[test]
    fn throttled_generation_respects_velocity() {
        let (schema, summary) = fixture();
        let gen = DynamicGenerator::new(&schema, &summary);
        // 500 rows at 5000 rows/s → ~100 ms.
        let stats = gen
            .generate_with_velocity("item", Some(5000.0), Some(500))
            .unwrap();
        assert_eq!(stats.rows, 500);
        assert!(
            stats.elapsed >= Duration::from_millis(90),
            "too fast: {:?}",
            stats.elapsed
        );
        assert!(stats.achieved_rows_per_sec <= 5800.0);
    }

    /// An `item` ← `store_sales` star: sales rows in the first item block
    /// (manager 40) and in the second (manager 91).
    fn star() -> (Schema, DatabaseSummary) {
        let schema = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("i_manager_id", DataType::BigInt)
                            .domain(Domain::integer(0, 100)),
                    )
            })
            .table("store_sales", |t| {
                t.column(ColumnBuilder::new("ss_sk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("ss_item_fk", DataType::BigInt)
                            .references("item", "i_item_sk"),
                    )
            })
            .build()
            .unwrap();

        let mut item = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v1 = BTreeMap::new();
        v1.insert("i_manager_id".to_string(), Value::Integer(40));
        item.push_row(60, v1);
        let mut v2 = BTreeMap::new();
        v2.insert("i_manager_id".to_string(), Value::Integer(91));
        item.push_row(40, v2);

        let mut sales = RelationSummary::new("store_sales", Some("ss_sk".to_string()));
        let mut s1 = BTreeMap::new();
        s1.insert("ss_item_fk".to_string(), Value::Integer(10)); // manager 40 block
        sales.push_row(300, s1);
        let mut s2 = BTreeMap::new();
        s2.insert("ss_item_fk".to_string(), Value::Integer(70)); // manager 91 block
        sales.push_row(700, s2);

        let mut db = DatabaseSummary::new();
        db.insert(item);
        db.insert(sales);
        (schema, db)
    }

    #[test]
    fn provider_interface() {
        let (schema, summary) = star();
        let db = DynamicGenerator::new(&schema, &summary);
        assert_eq!(db.estimated_rows("item"), Some(100));
        assert_eq!(db.estimated_rows("missing"), None);
        assert_eq!(db.estimated_rows("store_sales"), Some(1000));
        assert_eq!(
            db.table_columns("item"),
            Some(vec!["i_item_sk".to_string(), "i_manager_id".to_string()])
        );
        assert!(db.table_columns("missing").is_none());
        assert_eq!(db.scan("item").unwrap().count(), 100);
        assert!(db.scan("missing").is_none());
    }

    #[test]
    fn queries_run_with_no_stored_tuples() {
        // The headline feature: execute a filter + join query with absolutely
        // no materialized tuples.
        let (schema, summary) = star();
        let db = DynamicGenerator::new(&schema, &summary);
        let q = parse_query_for_schema(
            "q",
            "select * from store_sales, item \
             where store_sales.ss_item_fk = item.i_item_sk and item.i_manager_id < 50",
            &schema,
        )
        .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let executor = Executor::new(&db);
        let aqp = executor.run_annotated("q", &plan).unwrap();
        // Sales rows referencing items with manager < 50 are exactly the 300
        // rows whose FK lands in the first item block.
        assert_eq!(executor.run(&plan).unwrap().rows.len(), 300);
        assert_eq!(aqp.root.cardinality, 300);
    }
}
