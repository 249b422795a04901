//! Experiment E8 — data-scale-free summary construction.
//!
//! Paper claim (§1/§2): summary construction cost depends on the *workload*,
//! not on the data volume.  The bench fixes the 131-query workload and varies
//! only the simulated database size (via the metadata row counts); the
//! construction time per scale should stay flat while the regenerable volume
//! grows by orders of magnitude.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::{retail_package_131, row_targets};
use hydra_core::scenario::Scenario;
use hydra_core::vendor::{HydraConfig, VendorSite};
use std::time::Duration;

fn bench_scale_free_construction(c: &mut Criterion) {
    let package = retail_package_131();
    let base_targets = row_targets(&package);
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());

    let mut group = c.benchmark_group("E8_scale_free_construction");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    println!("[E8] simulated volume multiplier | regenerable rows | construction is benched below");
    for &multiplier in &[1u64, 1_000_000] {
        // Only the row counts grow; the workload annotations stay put.
        let scenario = base_targets.iter().fold(
            Scenario::scaled(format!("x{multiplier}"), 1.0),
            |scenario, (t, r)| scenario.with_row_override(t.clone(), r.saturating_mul(multiplier)),
        );
        let scaled = scenario.apply(&package);
        println!(
            "[E8] {:>28} | {:>16}",
            multiplier,
            scaled.metadata.total_rows()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(multiplier),
            &scaled,
            |b, scaled| b.iter(|| vendor.regenerate(scaled).unwrap().summary.total_rows()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scale_free_construction);
criterion_main!(benches);
