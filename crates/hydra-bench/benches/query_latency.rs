//! Query-latency experiment: summary-direct answering vs regenerate-and-scan.
//!
//! The paper's core claim is that the LP-solved summary *is* the database:
//! an in-class aggregate is answerable from block cardinalities alone, so
//! its latency depends on the number of summary blocks — **not** on the
//! logical row count.  This bench makes the claim measurable: the retail
//! fact table is scaled to 1e6 / 1e8 / 1e10 logical rows through scenario
//! row overrides, and each scale is queried both ways.
//!
//! The scan series is measured directly at 1e6 rows; at 1e8 and 1e10 a full
//! scan is minutes-to-days of wall clock, so the printed figure is a linear
//! extrapolation from the measured scan throughput (and clearly marked as
//! such).  Summary-direct latency is always measured for real.

use criterion::{criterion_group, criterion_main, Criterion};
use hydra_bench::{retail_package, BenchReport};
use hydra_core::scenario::Scenario;
use hydra_core::session::Hydra;
use hydra_datagen::exec::{ExecMode, QueryEngine};
use hydra_datagen::generator::DynamicGenerator;
use std::time::{Duration, Instant};

const QUERIES: [(&str, &str); 3] = [
    (
        "Q1 count+sum",
        "select count(*), sum(store_sales.ss_quantity) from store_sales",
    ),
    (
        "Q2 join+group",
        "select count(*), avg(item.i_current_price) from store_sales, item \
         where store_sales.ss_item_fk = item.i_item_sk group by item.i_category",
    ),
    (
        "Q3 pk-interval",
        "select count(*), sum(store_sales.ss_sk) from store_sales \
         where store_sales.ss_sk >= 1000 and store_sales.ss_sk < 500000",
    ),
];

fn best_latency(mut run: impl FnMut(), tries: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..tries {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed());
    }
    best
}

/// Measured tuple-scan throughput (rows/s) of one query at the measured
/// scale, used to extrapolate the scan series to scales where a real scan
/// would take minutes to days.
fn scan_rows_per_sec(generator: &DynamicGenerator, sql: &str, rows: u64) -> f64 {
    let engine = QueryEngine::new(generator);
    let elapsed = best_latency(
        || {
            engine
                .query_mode(sql, ExecMode::ScanOnly)
                .expect("scan query");
        },
        2,
    );
    rows as f64 / elapsed.as_secs_f64()
}

fn bench_query_latency(c: &mut Criterion) {
    let package = retail_package(16, 20_000);
    let session = Hydra::builder().compare_aqps(false).build();
    let base = session
        .regenerate_stateful(&package)
        .expect("baseline solve");

    // Scale the fact table to the target logical row counts via scenario
    // row overrides (untouched dimensions are reused from the base).
    let scales: [(u64, &str); 3] = [
        (1_000_000, "1e6"),
        (100_000_000, "1e8"),
        (10_000_000_000, "1e10"),
    ];
    let mut generators: Vec<(u64, &str, DynamicGenerator)> = Vec::new();
    for (rows, label) in scales {
        let scenario =
            Scenario::scaled(format!("rows-{label}"), 1.0).with_row_override("store_sales", rows);
        let result = session.scenario(&scenario, &base).expect("scenario solve");
        let generator = result.regeneration.generator();
        assert_eq!(
            generator
                .summary
                .relation("store_sales")
                .expect("fact summary")
                .total_rows,
            rows
        );
        generators.push((rows, label, generator));
    }

    // Measured scan throughput at the smallest scale anchors the
    // extrapolated entries of the series.
    let mut report = BenchReport::new("query_latency");
    println!("[QL] summary-direct vs regenerate-and-scan on store_sales:");
    for (query_index, (name, sql)) in QUERIES.iter().enumerate() {
        let (anchor_rows, _, anchor_gen) = &generators[0];
        let scan_rate = scan_rows_per_sec(anchor_gen, sql, *anchor_rows);
        println!("[QL] {name}: {sql}");
        println!(
            "[QL]   measured scan throughput at 1e6 rows: {:.0} rows/s",
            scan_rate
        );
        for (rows, label, generator) in &generators {
            let engine = QueryEngine::new(generator);
            let direct = best_latency(
                || {
                    let answer = engine
                        .query_mode(sql, ExecMode::SummaryOnly)
                        .expect("summary-direct query");
                    assert_eq!(answer.scanned_tuples, 0);
                },
                3,
            );
            let blocks = generator
                .summary
                .relation("store_sales")
                .expect("fact summary")
                .row_count();
            let scan = Duration::from_secs_f64(*rows as f64 / scan_rate);
            let scan_note = if *rows == *anchor_rows {
                "measured"
            } else {
                "extrapolated"
            };
            let speedup = scan.as_secs_f64() / direct.as_secs_f64().max(1e-9);
            report
                .metric(
                    &format!("q{}_summary_direct_{label}_us", query_index + 1),
                    direct.as_secs_f64() * 1e6,
                )
                .metric(&format!("q{}_speedup_{label}", query_index + 1), speedup);
            println!(
                "[QL]   rows={label:>4} ({blocks:>4} blocks)  summary-direct {:>10.1?}   \
                 scan {:>10.1?} ({scan_note})   speedup {speedup:>12.0}x",
                direct, scan
            );
            // The acceptance criterion: summary-direct latency stays
            // independent of the logical row count and beats the scan by
            // orders of magnitude from 1e8 up.
            if *rows >= 100_000_000 {
                assert!(
                    speedup >= 100.0,
                    "{name}: summary-direct must be >= 100x faster than the scan \
                     at {label} rows (got {speedup:.0}x)"
                );
            }
        }
    }

    // Criterion series: summary-direct latency per scale (all real), plus
    // the real scan at the 1e6 anchor for an honest same-harness baseline.
    let mut group = c.benchmark_group("query_latency");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for (_, label, generator) in &generators {
        let engine = QueryEngine::new(generator);
        group.bench_function(format!("summary_direct_count_sum_{label}"), |b| {
            b.iter(|| {
                engine
                    .query_mode(QUERIES[0].1, ExecMode::SummaryOnly)
                    .expect("summary-direct")
                    .rows
                    .len()
            });
        });
    }
    let (_, _, anchor_gen) = &generators[0];
    let anchor_engine = QueryEngine::new(anchor_gen);
    group.bench_function("tuple_scan_count_sum_1e6", |b| {
        b.iter(|| {
            anchor_engine
                .query_mode(QUERIES[0].1, ExecMode::ScanOnly)
                .expect("scan")
                .rows
                .len()
        });
    });
    group.finish();
    report.write();
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);
