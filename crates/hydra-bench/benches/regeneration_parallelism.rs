//! Per-relation solve parallelism — the tracked number for the session
//! façade's `parallelism(n)` knob.
//!
//! The paper's LP decomposition makes every relation's preprocess → solve →
//! summarize step independent within a referential stratum, so the summary
//! builder fans them out across worker threads.  This bench compares 1-thread
//! and N-thread regeneration of the same package and asserts (printed, not
//! benchmarked) that the outputs are identical — parallelism must never
//! change accuracy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::{retail_package, BENCH_FACT_ROWS};
use hydra_core::session::Hydra;
use std::time::Duration;

fn session(workers: usize) -> Hydra {
    Hydra::builder()
        .parallelism(workers)
        .compare_aqps(false)
        .build()
}

fn bench_regeneration_parallelism(c: &mut Criterion) {
    let package = retail_package(64, BENCH_FACT_ROWS);

    // Identical-output check once, outside the timing loop.
    let sequential = session(1).regenerate(&package).unwrap();
    let parallel = session(4).regenerate(&package).unwrap();
    println!(
        "[parallelism] identical summaries across 1 vs 4 workers: {}",
        sequential.summary == parallel.summary
    );
    assert_eq!(sequential.summary, parallel.summary);
    assert_eq!(sequential.accuracy, parallel.accuracy);

    let mut group = c.benchmark_group("regeneration_parallelism");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for workers in [1usize, 2, 4, 8] {
        let s = session(workers);
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &package,
            |b, package| {
                b.iter(|| s.regenerate(package).unwrap().summary.total_summary_rows());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_regeneration_parallelism);
criterion_main!(benches);
