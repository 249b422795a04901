//! Dynamic regeneration and velocity control (the demo's §4.3 segment and the
//! Figure 4 velocity slider).
//!
//! Builds a summary for a retail warehouse, then:
//!  1. streams tuples of the `store_sales` relation at several target
//!     velocities, reporting achieved rows/second;
//!  2. regenerates the same relation with 1/2/4 row-range shards (one thread
//!     and one sink per shard) and verifies the shard concatenation is
//!     bit-identical to the sequential stream;
//!  3. compares dynamic (dataless) query execution against execution over a
//!     fully materialized copy of the same regenerated data, demonstrating
//!     that both return identical cardinalities — without HYDRA ever storing
//!     the fact table.
//!
//! Run with: `cargo run --release --example dynamic_generation`

use hydra::engine::database::Database;
use hydra::engine::exec::Executor;
use hydra::query::plan::LogicalPlan;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::Hydra;

fn main() {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 50_000);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema.clone(),
        WorkloadGenConfig {
            num_queries: 16,
            ..Default::default()
        },
    )
    .generate();

    let session = Hydra::builder().parallelism(2).build();
    let package = session.profile(db, &queries).expect("package");
    let result = session.regenerate(&package).expect("regeneration");
    let generator = result.generator();

    // --- velocity regulation -------------------------------------------------
    println!(
        "velocity regulation on store_sales ({} rows available):",
        result.summary.relation("store_sales").unwrap().total_rows
    );
    println!(
        "{:>14} | {:>14} | {:>10}",
        "target rows/s", "achieved rows/s", "rows"
    );
    for target in [1_000.0, 10_000.0, 100_000.0] {
        let stats = generator
            .generate_with_velocity("store_sales", Some(target), Some(5_000))
            .expect("generation run");
        println!(
            "{:>14.0} | {:>14.0} | {:>10}",
            target, stats.achieved_rows_per_sec, stats.rows
        );
    }
    let unthrottled = generator
        .generate_with_velocity("store_sales", None, None)
        .expect("unthrottled run");
    println!(
        "{:>14} | {:>14.0} | {:>10}   (unthrottled)",
        "-", unthrottled.achieved_rows_per_sec, unthrottled.rows
    );

    // --- sharded regeneration ------------------------------------------------
    println!("\nsharded regeneration of store_sales (one thread per shard):");
    println!(
        "{:>7} | {:>14} | {:>12} | identical",
        "shards", "rows/s", "rows"
    );
    let mut sequential = hydra::datagen::CollectSink::new();
    session
        .stream_table(&result, "store_sales", &mut sequential, None, None)
        .expect("sequential stream");
    for shards in [1usize, 2, 4] {
        let run = session
            .stream_table_sharded(&result, "store_sales", shards, |_, _| {
                hydra::datagen::CollectSink::new()
            })
            .expect("sharded stream");
        let throughput = run.achieved_rows_per_sec();
        let rows = run.total_rows();
        let concatenated: Vec<_> = run
            .into_sinks()
            .into_iter()
            .flat_map(|sink| sink.rows)
            .collect();
        let identical = concatenated == sequential.rows;
        assert!(identical, "shard concatenation diverged at {shards} shards");
        println!("{shards:>7} | {throughput:>14.0} | {rows:>12} | {identical}");
    }

    // --- dataless vs materialized execution ----------------------------------
    println!("\ndataless vs materialized execution (same regenerated data):");
    let mut materialized = Database::empty(schema.clone());
    for table in schema.table_names() {
        let mem = generator.materialize(table).expect("materialize");
        materialized
            .table_mut(table)
            .unwrap()
            .load_unchecked(mem.rows().to_vec());
    }
    println!(
        "{:<8} | {:>12} | {:>12}",
        "query", "dataless", "materialized"
    );
    for query in queries.iter().take(8) {
        let plan = LogicalPlan::from_query(query).unwrap();
        let dl = Executor::new(&generator).run(&plan).expect("dataless run");
        let mt = Executor::new(&materialized)
            .run(&plan)
            .expect("materialized run");
        assert_eq!(
            dl.rows.len(),
            mt.rows.len(),
            "cardinality mismatch for {}",
            query.name
        );
        println!(
            "{:<8} | {:>12} | {:>12}",
            query.name,
            dl.rows.len(),
            mt.rows.len()
        );
    }
    println!(
        "\nall compared queries returned identical cardinalities — the fact data was never stored."
    );
}
