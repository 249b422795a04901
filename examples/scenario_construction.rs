//! Scenario construction (§4.4 of the paper): what-if environments built by
//! injecting cardinality annotations into the client's AQPs.
//!
//! Demonstrates:
//!  1. uniform extrapolation of the observed workload up to an exabyte-era
//!     row count, showing that summary-construction cost and summary size are
//!     *data-scale-free*;
//!  2. a stress scenario that overrides one relation's size;
//!  3. an intentionally contradictory injection, caught by the feasibility
//!     check.
//!
//! Run with: `cargo run --release --example scenario_construction`

use hydra::core::scenario::Scenario;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::Hydra;
use std::time::Instant;

fn main() {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.01);
    targets.insert("store_sales".to_string(), 10_000);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 24,
            ..Default::default()
        },
    )
    .generate();
    // Every scenario is a delta against one solved base state: only the
    // relations a scenario actually changes are re-solved.
    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).expect("package");
    let base = session.regenerate_stateful(&package).expect("base solve");

    // --- 1. scale-free extrapolation -----------------------------------------
    println!("uniform extrapolation (construction cost must stay flat):");
    println!(
        "{:>14} | {:>18} | {:>16} | {:>12} | {:>8}",
        "scale factor", "simulated rows", "construction (ms)", "summary (KB)", "feasible"
    );
    for scale in [1.0, 1e3, 1e6, 1e9] {
        let scenario = Scenario::scaled(format!("x{scale:e}"), scale);
        let start = Instant::now();
        let result = session.scenario(&scenario, &base).expect("scenario");
        let elapsed = start.elapsed();
        println!(
            "{:>14.0e} | {:>18} | {:>16.1} | {:>12.2} | {:>8}",
            scale,
            result.regeneration.summary.total_rows(),
            elapsed.as_secs_f64() * 1e3,
            result.regeneration.summary.size_bytes() as f64 / 1024.0,
            result.feasible
        );
    }

    // --- 2. stressing one relation -------------------------------------------
    println!("\nstress scenario: store_sales forced to 10 billion rows");
    let scenario = Scenario::scaled("stress-store-sales", 1.0)
        .with_row_override("store_sales", 10_000_000_000);
    let result = session.scenario(&scenario, &base).expect("scenario");
    let ss = result.regeneration.summary.relation("store_sales").unwrap();
    // Stressing one relation a million-fold past its observed size while the
    // workload's cardinality annotations stay put is contradictory wherever a
    // foreign-key axis is fully covered by predicates — the 10 billion rows
    // must land somewhere, and every region already has a (tiny) demanded
    // count.  The build degrades to a least-violation solution and reports
    // the residual as a diagnostic instead of failing.
    println!(
        "  regenerated store_sales rows: {}   summary rows: {}   feasible: {}",
        ss.total_rows,
        ss.row_count(),
        result.feasible,
    );
    println!(
        "  least-violation diagnostic: total violation {:.3e} — the override \
         contradicts the observed workload cardinalities",
        result.total_violation
    );

    // --- 3. infeasible injection ----------------------------------------------
    println!("\ncontradictory injection (root edge forced above the fact row count):");
    let query_name = package.workload.entries[0].query.name.clone();
    let bad = Scenario::scaled("impossible", 1.0)
        .with_cardinality_override(query_name.clone(), 0, u64::MAX / 4)
        .strict();
    match session.scenario(&bad, &base) {
        Err(e) => println!("  rejected as expected: {e}"),
        Ok(r) => println!(
            "  built with least violation {:.1} (feasible = {})",
            r.total_violation, r.feasible
        ),
    }
}
