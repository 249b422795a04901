//! Summary-direct query answering: the summary *is* the database.
//!
//! Profiles a retail client, regenerates its summary, then answers
//! analytical aggregates two ways — directly from block cardinalities
//! (no tuples materialized) and by regenerating + scanning — and shows the
//! answers are identical while the latencies are worlds apart.
//!
//! Run with: `cargo run --release --example query_answering`

use hydra::workload::retail_client_fixture;
use hydra::{ExecMode, ExecStrategy, Hydra};
use std::time::Instant;

fn main() {
    // Client site: profile a 50k-row warehouse under a 24-query workload
    // (the richer the workload, the finer the summary's block structure).
    let (db, queries) = retail_client_fixture(50_000, 15_000, 24);
    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).expect("profile");

    // Vendor site: solve the summary once.
    let result = session.regenerate(&package).expect("regenerate");
    let summary_kb = result.summary.size_bytes() as f64 / 1024.0;
    println!(
        "summary: {:.1} KB regenerating {} rows",
        summary_kb,
        result.summary.total_rows()
    );

    let sqls = [
        "select count(*) from store_sales",
        "select count(*), sum(store_sales.ss_quantity) from store_sales \
         where store_sales.ss_quantity >= 1",
        "select count(*), avg(item.i_current_price) from store_sales, item \
         where store_sales.ss_item_fk = item.i_item_sk \
         group by item.i_category",
        "select count(*), sum(store_sales.ss_sk) from store_sales \
         where store_sales.ss_sk >= 100 and store_sales.ss_sk < 2500",
    ];

    for sql in sqls {
        println!("\nquery: {sql}");

        let start = Instant::now();
        let direct = session.query(&result, sql).expect("summary-direct");
        let direct_elapsed = start.elapsed();
        assert_eq!(direct.strategy(), ExecStrategy::SummaryDirect);

        let start = Instant::now();
        let scanned = session
            .query_mode(&result, sql, ExecMode::ScanOnly)
            .expect("tuple scan");
        let scan_elapsed = start.elapsed();

        assert_eq!(
            direct.rows, scanned.rows,
            "summary-direct and scan answers must be identical"
        );
        println!(
            "  summary-direct: {direct_elapsed:?} over {} blocks (0 tuples)",
            direct.fact_blocks
        );
        println!(
            "  tuple-scan:     {scan_elapsed:?} over {} regenerated tuples",
            scanned.scanned_tuples
        );
        print!("{}", direct.to_display_table());
    }

    // Out-of-class queries transparently fall back to the scan — and say so.
    let out_of_class = "select count(*) from store_sales group by store_sales.ss_sk";
    let answer = session.query(&result, out_of_class).expect("fallback");
    println!(
        "\nout-of-class query answered by {} ({} groups)",
        answer.strategy(),
        answer.rows.len()
    );
}
