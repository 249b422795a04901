//! Block/row equivalence: a sink driven through the columnar block path
//! must observe *exactly* the accept sequence of row-at-a-time generation —
//! for arbitrary summaries, arbitrary `next_block` chunk caps, and blocks
//! split across arbitrary range and shard boundaries.  This is the contract
//! that lets `TupleSink::write_block` overrides (counting, CSV, wire-frame
//! templates, scan aggregation) shortcut per-row work without changing a
//! single observable byte.

use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::datagen::shard::ShardPlanner;
use hydra::datagen::sink::TupleSink;
use hydra::datagen::DynamicGenerator;
use hydra::engine::row::Row;
use hydra::summary::summary::{DatabaseSummary, RelationSummary};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A relation whose summary has the given block row counts (zeros allowed —
/// the summary drops empty blocks, matching the generator's invariants).
fn fixture(block_counts: &[u64]) -> (Schema, DatabaseSummary) {
    let schema: Schema = SchemaBuilder::new("db")
        .table("item", |t| {
            t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
                .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
        })
        .build()
        .unwrap();
    let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
    for (i, &count) in block_counts.iter().enumerate() {
        let mut values = BTreeMap::new();
        values.insert("i_manager_id".to_string(), Value::Integer(i as i64 * 7));
        values.insert("i_category".to_string(), Value::str(format!("cat-{i}")));
        summary.push_row(count, values);
    }
    let mut db = DatabaseSummary::new();
    db.insert(summary);
    (schema, db)
}

/// Records every `accept` the block path's default expansion makes.
#[derive(Default)]
struct RecordingSink {
    rows: Vec<Row>,
}

impl TupleSink for RecordingSink {
    fn accept(&mut self, row: Row) {
        self.rows.push(row);
    }
}

fn sequential(generator: &DynamicGenerator) -> Vec<Row> {
    generator.stream("item").unwrap().collect()
}

/// Drains `range` of the relation block-wise, cycling through `caps` as the
/// per-call `next_block` maximum, and returns the accept sequence observed.
fn block_driven(
    generator: &DynamicGenerator,
    range: std::ops::Range<u64>,
    caps: &[u64],
) -> Vec<Row> {
    let mut stream = generator.stream_range("item", range).unwrap();
    let mut sink = RecordingSink::default();
    let mut turn = 0usize;
    loop {
        let cap = caps[turn % caps.len()];
        turn += 1;
        let Some(block) = stream.next_block(cap) else {
            break;
        };
        assert_eq!(sink.write_block(&block), block.len());
    }
    sink.rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary chunk caps never change the accept sequence.
    #[test]
    fn block_path_matches_row_path_for_arbitrary_chunk_caps(
        block_counts in proptest::collection::vec(0u64..400, 0..24),
        caps in proptest::collection::vec(1u64..500, 1..8),
    ) {
        let (schema, summary) = fixture(&block_counts);
        let generator = DynamicGenerator::new(&schema, &summary);
        let expected = sequential(&generator);
        let total = expected.len() as u64;
        let got = block_driven(&generator, 0..total, &caps);
        prop_assert_eq!(got, expected, "blocks {:?}, caps {:?}", block_counts, caps);
    }

    /// Blocks split across arbitrary range boundaries concatenate to the
    /// sequential stream — a cut mid-block yields two partial blocks whose
    /// expansion is still exact.
    #[test]
    fn block_path_survives_arbitrary_range_splits(
        block_counts in proptest::collection::vec(1u64..300, 1..16),
        cuts in proptest::collection::vec(0u64..4_000, 0..6),
        cap in 1u64..512,
    ) {
        let (schema, summary) = fixture(&block_counts);
        let generator = DynamicGenerator::new(&schema, &summary);
        let expected = sequential(&generator);
        let total = expected.len() as u64;
        let mut bounds: Vec<u64> = cuts.iter().map(|&c| c.min(total)).collect();
        bounds.push(0);
        bounds.push(total);
        bounds.sort_unstable();
        let mut got = Vec::new();
        for pair in bounds.windows(2) {
            got.extend(block_driven(&generator, pair[0]..pair[1], &[cap]));
        }
        prop_assert_eq!(got, expected, "blocks {:?}, bounds {:?}", block_counts, bounds);
    }

    /// Shard-planner splits drained block-wise concatenate bit-identically,
    /// so sharded consumers may override `write_block` freely.
    #[test]
    fn block_path_survives_shard_boundaries(
        block_counts in proptest::collection::vec(0u64..400, 0..20),
        shards in 1usize..12,
        cap in 1u64..512,
    ) {
        let (schema, summary) = fixture(&block_counts);
        let generator = DynamicGenerator::new(&schema, &summary);
        let expected = sequential(&generator);
        let total = expected.len() as u64;
        let mut got = Vec::new();
        for range in ShardPlanner::new(shards).plan(total) {
            got.extend(block_driven(&generator, range, &[cap]));
        }
        prop_assert_eq!(got, expected, "blocks {:?}, {} shards", block_counts, shards);
    }
}

/// A zero-cap `next_block` is a no-op, and a drained stream keeps returning
/// `None` (the wire paths poll it after exhaustion).
#[test]
fn edge_cases_zero_cap_and_exhaustion() {
    let (schema, summary) = fixture(&[5]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let mut stream = generator.stream_range("item", 0..5).unwrap();
    assert!(stream.next_block(0).is_none());
    let block = stream.next_block(u64::MAX).unwrap();
    assert_eq!(block.len(), 5);
    assert!(stream.next_block(u64::MAX).is_none());
    assert!(stream.next_block(u64::MAX).is_none());
}
