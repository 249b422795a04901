//! Shard planning and the parallel sharded regeneration driver.
//!
//! Dynamic generation is embarrassingly parallel *if* a worker can start in
//! the middle of a relation without replaying everything before it.  The
//! summary's block-offset index gives exactly that (O(log B) seek, see
//! [`hydra_summary::index::PkBlockIndex`]), so sharding reduces to:
//!
//! 1. [`ShardPlanner`] splits the relation's `[0, total)` row space into
//!    balanced, contiguous, non-overlapping ranges — shard sizes differ by at
//!    most one row, and empty shards are never planned (asking for more
//!    shards than rows yields one single-row shard per row);
//! 2. [`run_sharded`] streams every shard on its own thread
//!    (`std::thread::scope`, mirroring the summary builder's stratum
//!    parallelism) into a per-shard [`TupleSink`] produced by a caller
//!    factory, through the same unthrottled blocking loop as
//!    [`DynamicGenerator::stream_range_into`](crate::generator::DynamicGenerator::stream_range_into):
//!    whole columnar blocks go straight to the shard's own sink.
//!
//! Because each shard is a deterministic range stream, concatenating the
//! shard outputs in shard order is **bit-identical** to the sequential
//! [`TupleStream`] over the whole relation —
//! asserted by the `shard_determinism` property tests.

use crate::generator::{drive_stream, GenerationStats};
use crate::sink::{CollectSink, TupleSink};
use crate::stream::TupleStream;
use hydra_catalog::schema::Table;
use hydra_engine::table::MemTable;
use hydra_summary::summary::RelationSummary;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Splits a relation's row space into balanced, contiguous shards.
///
/// ```
/// use hydra_datagen::shard::ShardPlanner;
///
/// let plan = ShardPlanner::new(4).plan(10);
/// assert_eq!(plan, vec![0..3, 3..6, 6..8, 8..10]);
/// // Never more shards than rows, never an empty shard.
/// assert_eq!(ShardPlanner::new(8).plan(3).len(), 3);
/// assert!(ShardPlanner::new(4).plan(0).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlanner {
    shards: usize,
}

impl ShardPlanner {
    /// A planner targeting `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardPlanner {
            shards: shards.max(1),
        }
    }

    /// The target shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Plans shards over the full row space `[0, total_rows)`.
    pub fn plan(&self, total_rows: u64) -> Vec<Range<u64>> {
        Self::split(0..total_rows, self.shards)
    }

    /// Splits an arbitrary row range into up to `shards` balanced,
    /// contiguous, non-overlapping sub-ranges covering it exactly.  Sub-range
    /// lengths differ by at most one; empty sub-ranges are never produced, so
    /// fewer than `shards` ranges come back when the range is shorter than
    /// the shard count (and none at all for an empty range).
    pub fn split(range: Range<u64>, shards: usize) -> Vec<Range<u64>> {
        let len = range.end.saturating_sub(range.start);
        let n = (shards.max(1) as u64).min(len);
        let mut out = Vec::with_capacity(n as usize);
        if n == 0 {
            return out;
        }
        let base = len / n;
        let remainder = len % n;
        let mut lo = range.start;
        for i in 0..n {
            let size = base + u64::from(i < remainder);
            out.push(lo..lo + size);
            lo += size;
        }
        debug_assert_eq!(lo, range.end);
        out
    }
}

/// The outcome of one shard of a sharded generation run.
#[derive(Debug)]
pub struct ShardOutcome<S> {
    /// Shard position in the plan (concatenation order).
    pub index: usize,
    /// The row range this shard regenerated.
    pub range: Range<u64>,
    /// The caller-provided sink, holding whatever it accumulated.
    pub sink: S,
    /// Per-shard generation statistics.
    pub stats: GenerationStats,
}

/// The outcome of a whole sharded generation run, shards in plan order.
#[derive(Debug)]
pub struct ShardedRun<S> {
    /// Relation that was generated.
    pub table: String,
    /// Per-shard outcomes, in concatenation (row-range) order.
    pub shards: Vec<ShardOutcome<S>>,
    /// Wall-clock duration of the whole run (threads included).
    pub elapsed: std::time::Duration,
}

impl<S> ShardedRun<S> {
    /// Total tuples produced across shards.
    pub fn total_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.rows).sum()
    }

    /// Aggregate throughput in rows per second over the run's wall clock.
    pub fn achieved_rows_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_rows() as f64 / secs
    }

    /// Consumes the run, returning the sinks in concatenation order.
    pub fn into_sinks(self) -> Vec<S> {
        self.shards.into_iter().map(|s| s.sink).collect()
    }

    /// Aggregate statistics of the run (rows summed, wall-clock elapsed).
    pub fn aggregate_stats(&self) -> GenerationStats {
        GenerationStats {
            table: self.table.clone(),
            rows: self.total_rows(),
            elapsed: self.elapsed,
            achieved_rows_per_sec: self.achieved_rows_per_sec(),
            target_rows_per_sec: None,
            governor_sleep: Duration::ZERO,
        }
    }
}

impl ShardedRun<CollectSink> {
    /// The collected shards, concatenated in plan order, as a `table`.
    pub fn into_table(self, table: &Table) -> MemTable {
        let mut mem = MemTable::empty(table.clone());
        for sink in self.into_sinks() {
            mem.load_unchecked(sink.rows);
        }
        mem
    }
}

/// Streams every planned shard of `summary` on its own thread into a sink
/// from `sink_factory` (called with the shard index and row range, from the
/// shard's thread).  Shard outputs concatenated in plan order are
/// bit-identical to the sequential full stream.
pub fn run_sharded<S, F>(
    table: &Table,
    summary: &RelationSummary,
    shards: usize,
    sink_factory: F,
) -> ShardedRun<S>
where
    S: TupleSink + Send,
    F: Fn(usize, Range<u64>) -> S + Sync,
{
    let started = Instant::now();
    let plan = ShardPlanner::new(shards).plan(summary.total_rows);
    // One index build for the whole run; every shard seeks through it.
    let index = summary.block_index();
    let index = &index;
    let sink_factory = &sink_factory;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .into_iter()
            .enumerate()
            .map(|(shard_index, range)| {
                scope.spawn(move || {
                    let mut sink = sink_factory(shard_index, range.clone());
                    let stream =
                        TupleStream::with_range_using(table, summary, index, range.clone());
                    let stats = drive_stream(stream, &mut sink, None);
                    ShardOutcome {
                        index: shard_index,
                        range,
                        sink,
                        stats,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    ShardedRun {
        table: table.name.clone(),
        shards: outcomes,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};
    use hydra_engine::row::Row;
    use std::collections::BTreeMap;

    #[test]
    fn planner_balances_and_covers() {
        for (total, shards) in [(10u64, 4usize), (963, 7), (5, 5), (1, 3), (100, 1)] {
            let plan = ShardPlanner::new(shards).plan(total);
            assert_eq!(plan.len(), shards.min(total as usize));
            // Coverage: contiguous from 0 to total.
            let mut expected_lo = 0;
            for range in &plan {
                assert_eq!(range.start, expected_lo);
                assert!(range.end > range.start, "empty shard in {plan:?}");
                expected_lo = range.end;
            }
            assert_eq!(expected_lo, total);
            // Balance: sizes differ by at most one.
            let sizes: Vec<u64> = plan.iter().map(|r| r.end - r.start).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "unbalanced plan {plan:?}");
        }
    }

    #[test]
    fn planner_edge_cases() {
        assert!(ShardPlanner::new(4).plan(0).is_empty());
        assert_eq!(ShardPlanner::new(0).shards(), 1);
        assert_eq!(ShardPlanner::new(0).plan(10), vec![0..10]);
        assert_eq!(ShardPlanner::split(5..5, 3), vec![]);
        assert_eq!(ShardPlanner::split(7..10, 2), vec![7..9, 9..10]);
    }

    fn fixture() -> (hydra_catalog::schema::Schema, RelationSummary) {
        let schema = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
            })
            .build()
            .unwrap();
        let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
        for (count, manager) in [(917u64, 40i64), (21, 91), (25, 0)] {
            let mut v = BTreeMap::new();
            v.insert("i_manager_id".to_string(), Value::Integer(manager));
            summary.push_row(count, v);
        }
        (schema, summary)
    }

    #[test]
    fn sharded_run_concatenates_bit_identically() {
        let (schema, summary) = fixture();
        let table = schema.table("item").unwrap();
        let sequential: Vec<Row> = TupleStream::new(table, &summary).collect();
        for shards in [1, 2, 4, 7, 963, 2000] {
            let run = run_sharded(table, &summary, shards, |_, _| CollectSink::new());
            assert_eq!(run.total_rows(), summary.total_rows);
            let concatenated: Vec<Row> = run
                .into_sinks()
                .into_iter()
                .flat_map(|sink| sink.rows)
                .collect();
            assert_eq!(concatenated, sequential, "{shards} shards");
        }
    }

    #[test]
    fn sharded_run_reports_per_shard_stats() {
        let (schema, summary) = fixture();
        let table = schema.table("item").unwrap();
        let run = run_sharded(table, &summary, 4, |_, _| CollectSink::new());
        assert_eq!(run.table, "item");
        assert_eq!(run.shards.len(), 4);
        for (i, shard) in run.shards.iter().enumerate() {
            assert_eq!(shard.index, i);
            assert_eq!(shard.stats.rows, shard.range.end - shard.range.start);
            assert_eq!(shard.stats.rows, shard.sink.rows.len() as u64);
        }
        let aggregate = run.aggregate_stats();
        assert_eq!(aggregate.rows, 963);
        assert!(run.achieved_rows_per_sec() > 0.0);
    }

    #[test]
    fn factory_sees_shard_index_and_range() {
        let (schema, summary) = fixture();
        let table = schema.table("item").unwrap();
        let run = run_sharded(table, &summary, 3, |index, range| {
            // Runs on the shard thread with the shard's plan entry.
            assert!(index < 3);
            assert!(range.start < range.end && range.end <= 963);
            CollectSink::new()
        });
        assert_eq!(run.shards.len(), 3);
    }
}
