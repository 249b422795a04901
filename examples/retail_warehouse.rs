//! Retail warehouse end-to-end: the paper's TPC-DS-style evaluation scenario.
//!
//! Generates a retail client warehouse, the canonical 131-query SPJ workload,
//! runs the full client → vendor pipeline, and prints the vendor-screen
//! reports: per-relation LP statistics, the summary size and the volumetric
//! error CDF (experiment E2), one constraint per annotated AQP edge.
//!
//! Run with: `cargo run --release --example retail_warehouse [scale_factor]`

use hydra::core::session::Hydra;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, retail_workload_131, DataGenConfig,
};
use std::time::Instant;

fn main() {
    let scale_factor: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);

    let schema = retail_schema();
    let targets = retail_row_targets(scale_factor);
    println!(
        "client warehouse at scale factor {scale_factor}: {} total rows",
        targets.values().sum::<u64>()
    );

    println!("generating client data ...");
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    println!("generating the 131-query SPJ workload ...");
    let queries = retail_workload_131(&schema);

    println!("running client profiling + workload execution + vendor regeneration ...\n");
    let session = Hydra::builder().build();
    let client_start = Instant::now();
    let package = session.profile(db, &queries).expect("client profiling");
    let client_time = client_start.elapsed();
    let vendor_start = Instant::now();
    let regeneration = session.regenerate(&package).expect("vendor regeneration");
    let vendor_time = vendor_start.elapsed();

    println!(
        "client-side time (profiling + AQP harvesting): {:.2} s",
        client_time.as_secs_f64()
    );
    println!(
        "vendor-side time (summary construction + verification): {:.2} s",
        vendor_time.as_secs_f64()
    );
    println!(
        "transfer package: {} queries, {} annotated edges, {} bytes of JSON\n",
        package.query_count(),
        package.annotated_edges(),
        package.transfer_size_bytes().unwrap_or(0)
    );

    let report = regeneration.report();
    println!("{}", report.to_display_text());

    // The headline claims of the paper, restated on this run:
    println!("--- headline checks ---");
    println!(
        "summary construction time: {:.2} s (paper: < 2 minutes for 131 queries)",
        regeneration.build_report.total_time.as_secs_f64()
    );
    println!(
        "summary size: {:.1} KB (paper: a few KB)",
        regeneration.summary.size_bytes() as f64 / 1024.0
    );
    println!(
        "constraints with virtually no error: {:.1}% (paper: > 90%)",
        100.0 * regeneration.accuracy.fraction_within(0.001)
    );
    println!(
        "constraints within 10% relative error: {:.1}% (paper: 100%)",
        100.0 * regeneration.accuracy.fraction_within(0.10)
    );
}
