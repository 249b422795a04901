//! Shard determinism: for *arbitrary* relations and *arbitrary* shard
//! splits, the concatenation of the shard outputs must be bit-identical to
//! the sequential stream — the invariant that makes sharded regeneration a
//! pure scale-out of the paper's dynamic generation (no coordination, no
//! merge logic, no tolerance windows).

use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::datagen::shard::ShardPlanner;
use hydra::datagen::sink::CollectSink;
use hydra::datagen::DynamicGenerator;
use hydra::engine::row::Row;
use hydra::summary::summary::{DatabaseSummary, RelationSummary};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A two-column relation whose summary has the given `#TUPLES` block counts.
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

fn sequential(generator: &DynamicGenerator) -> Vec<Row> {
    generator.stream("item").unwrap().collect()
}

fn sharded_concatenation(generator: &DynamicGenerator, shards: usize) -> Vec<Row> {
    generator
        .stream_sharded("item", shards, |_, _| CollectSink::new())
        .unwrap()
        .into_sinks()
        .into_iter()
        .flat_map(|sink| sink.rows)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary block structures × arbitrary shard counts concatenate
    /// bit-identically to the sequential stream.
    #[test]
    fn arbitrary_shard_splits_concatenate_bit_identically(
        block_counts in proptest::collection::vec(0u64..400, 0..24),
        shards in 1usize..12,
    ) {
        let (schema, summary) = fixture(&block_counts);
        let generator = DynamicGenerator::new(&schema, &summary);
        let expected = sequential(&generator);
        let got = sharded_concatenation(&generator, shards);
        prop_assert_eq!(got, expected, "blocks {:?}, {} shards", block_counts, shards);
    }

    /// Arbitrary sub-ranges equal the same slice of the sequential stream —
    /// random access never depends on generating the prefix.
    #[test]
    fn arbitrary_ranges_match_sequential_slices(
        block_counts in proptest::collection::vec(1u64..300, 1..16),
        lo in 0u64..5_000,
        len in 0u64..5_000,
    ) {
        let (schema, summary) = fixture(&block_counts);
        let generator = DynamicGenerator::new(&schema, &summary);
        let expected = sequential(&generator);
        let total = expected.len() as u64;
        let lo = lo.min(total);
        let hi = (lo + len).min(total);
        let got: Vec<Row> = generator.stream_range("item", lo..hi).unwrap().collect();
        prop_assert_eq!(&got[..], &expected[lo as usize..hi as usize]);
    }

    /// The planner always produces balanced, contiguous, gapless plans.
    #[test]
    fn plans_are_balanced_and_gapless(total in 0u64..100_000, shards in 1usize..64) {
        let plan = ShardPlanner::new(shards).plan(total);
        prop_assert_eq!(plan.len() as u64, (shards as u64).min(total));
        let mut next = 0u64;
        let mut sizes = Vec::new();
        for range in &plan {
            prop_assert_eq!(range.start, next);
            prop_assert!(range.end > range.start);
            sizes.push(range.end - range.start);
            next = range.end;
        }
        prop_assert_eq!(next, total);
        if let (Some(min), Some(max)) = (sizes.iter().min(), sizes.iter().max()) {
            prop_assert!(max - min <= 1, "unbalanced plan {:?}", plan);
        }
    }
}

#[test]
fn edge_case_empty_relation() {
    let (schema, summary) = fixture(&[]);
    let generator = DynamicGenerator::new(&schema, &summary);
    assert!(sequential(&generator).is_empty());
    for shards in [1, 4] {
        let run = generator
            .stream_sharded("item", shards, |_, _| CollectSink::new())
            .unwrap();
        assert_eq!(
            run.shards.len(),
            0,
            "no shards planned for an empty relation"
        );
        assert_eq!(run.total_rows(), 0);
    }
    assert_eq!(generator.stream_range("item", 0..10).unwrap().count(), 0);
    assert_eq!(
        generator
            .materialize_sharded("item", 4)
            .unwrap()
            .row_count(),
        0
    );
}

#[test]
fn edge_case_empty_range() {
    let (schema, summary) = fixture(&[10, 5]);
    let generator = DynamicGenerator::new(&schema, &summary);
    assert_eq!(generator.stream_range("item", 7..7).unwrap().count(), 0);
    assert_eq!(generator.stream_range("item", 15..15).unwrap().count(), 0);
    assert_eq!(generator.stream_range("item", 40..50).unwrap().count(), 0);
}

#[test]
fn edge_case_single_row_shards() {
    let (schema, summary) = fixture(&[3, 1, 2]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let expected = sequential(&generator);
    // Exactly one row per shard.
    let run = generator
        .stream_sharded("item", 6, |_, _| CollectSink::new())
        .unwrap();
    assert_eq!(run.shards.len(), 6);
    for shard in &run.shards {
        assert_eq!(shard.stats.rows, 1);
    }
    let got: Vec<Row> = run.into_sinks().into_iter().flat_map(|s| s.rows).collect();
    assert_eq!(got, expected);
}

#[test]
fn edge_case_more_shards_than_rows() {
    let (schema, summary) = fixture(&[2, 1]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let expected = sequential(&generator);
    for shards in [4, 17, 1_000] {
        let run = generator
            .stream_sharded("item", shards, |_, _| CollectSink::new())
            .unwrap();
        // Empty shards are never planned: the run degrades to one shard per row.
        assert_eq!(run.shards.len(), 3, "{shards} shards requested");
        let got: Vec<Row> = run.into_sinks().into_iter().flat_map(|s| s.rows).collect();
        assert_eq!(got, expected);
    }
}

/// End to end through the session façade on the retail workload: the shard
/// layer must stay bit-identical after LP solving, alignment and referential
/// post-processing produced a real multi-block summary.
#[test]
fn retail_summary_shards_bit_identically_end_to_end() {
    use hydra::workload::{
        generate_client_database, retail_row_targets, retail_schema, DataGenConfig,
        WorkloadGenConfig, WorkloadGenerator,
    };
    use hydra::Hydra;

    let schema = retail_schema();
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), 3_000);
    targets.insert("web_sales".to_string(), 800);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema.clone(),
        WorkloadGenConfig {
            num_queries: 10,
            ..Default::default()
        },
    )
    .generate();
    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).unwrap();
    let result = session.regenerate(&package).unwrap();

    for table in schema.table_names() {
        let mut sequential = CollectSink::new();
        session
            .stream_table(&result, table, &mut sequential, None, None)
            .unwrap();
        for shards in [2, 4, 9] {
            let run = session
                .stream_table_sharded(&result, table, shards, |_, _| CollectSink::new())
                .unwrap();
            let got: Vec<Row> = run.into_sinks().into_iter().flat_map(|s| s.rows).collect();
            assert_eq!(got, sequential.rows, "table {table}, {shards} shards");
        }
    }
}
