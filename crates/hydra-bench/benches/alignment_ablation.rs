//! Experiment E10 — ablation: deterministic alignment (HYDRA) vs.
//! sampling-based instantiation (DataSynth's strategy).
//!
//! The paper attributes HYDRA's construction efficiency and accuracy to its
//! deterministic alignment.  This ablation swaps only the alignment strategy
//! and compares construction time (Criterion) and achieved accuracy /
//! reproducibility (printed).

use criterion::{criterion_group, criterion_main, Criterion};
use hydra_bench::retail_package;
use hydra_core::session::Hydra;
use hydra_summary::align::AlignmentStrategy;
use std::time::Duration;

fn session_with(alignment: AlignmentStrategy) -> Hydra {
    Hydra::builder()
        .alignment(alignment)
        .compare_aqps(false)
        .build()
}

fn bench_alignment_ablation(c: &mut Criterion) {
    let package = retail_package(64, hydra_bench::BENCH_FACT_ROWS);

    // Accuracy / reproducibility comparison.
    let deterministic = session_with(AlignmentStrategy::Deterministic)
        .regenerate(&package)
        .unwrap();
    let deterministic2 = session_with(AlignmentStrategy::Deterministic)
        .regenerate(&package)
        .unwrap();
    let sampled = session_with(AlignmentStrategy::Sampled { seed: 1 })
        .regenerate(&package)
        .unwrap();
    let sampled2 = session_with(AlignmentStrategy::Sampled { seed: 2 })
        .regenerate(&package)
        .unwrap();
    println!(
        "[E10] strategy       | near-exact constraints | within 10% | reproducible across runs"
    );
    println!(
        "[E10] deterministic  | {:>21.1}% | {:>9.1}% | {}",
        100.0 * deterministic.accuracy.fraction_within(0.001),
        100.0 * deterministic.accuracy.fraction_within(0.10),
        deterministic.summary == deterministic2.summary
    );
    println!(
        "[E10] sampled        | {:>21.1}% | {:>9.1}% | {}",
        100.0 * sampled.accuracy.fraction_within(0.001),
        100.0 * sampled.accuracy.fraction_within(0.10),
        sampled.summary == sampled2.summary
    );

    let mut group = c.benchmark_group("E10_alignment_ablation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("deterministic_alignment", |b| {
        let session = session_with(AlignmentStrategy::Deterministic);
        b.iter(|| {
            session
                .regenerate(&package)
                .unwrap()
                .summary
                .total_summary_rows()
        });
    });
    group.bench_function("sampled_instantiation", |b| {
        let session = session_with(AlignmentStrategy::Sampled { seed: 1 });
        b.iter(|| {
            session
                .regenerate(&package)
                .unwrap()
                .summary
                .total_summary_rows()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_alignment_ablation);
criterion_main!(benches);
