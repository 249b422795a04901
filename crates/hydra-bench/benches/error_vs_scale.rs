//! Experiment E7 — relative error vs. database size.
//!
//! Paper claim (§2): "since the magnitude of the volumetric discrepancy is
//! constant for a given query workload, the relative errors become
//! progressively smaller with increasing database size".
//!
//! The bench scales the same workload to larger simulated volumes, prints the
//! mean/max relative error series, and times the regeneration+verification at
//! each scale (which should stay flat — construction is scale-free).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::retail_package;
use hydra_core::scenario::Scenario;
use hydra_core::vendor::{HydraConfig, VendorSite};
use std::time::Duration;

fn bench_error_vs_scale(c: &mut Criterion) {
    let package = retail_package(64, 10_000);
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());
    let base = vendor.regenerate_stateful(&package).unwrap();

    println!("[E7] scale | mean rel err | max rel err | constraints within 1%");
    let mut previous_mean = f64::INFINITY;
    for &scale in &[1.0f64, 10.0, 100.0, 1000.0] {
        let scenario = Scenario::scaled(format!("x{scale}"), scale);
        let result = vendor.scenario(&scenario, &base).unwrap();
        let acc = &result.regeneration.accuracy;
        println!(
            "[E7] {:>5} | {:>12.5} | {:>11.5} | {:>6.1}%",
            scale,
            acc.mean_relative_error(),
            acc.max_relative_error(),
            100.0 * acc.fraction_within(0.01)
        );
        assert!(
            acc.mean_relative_error() <= previous_mean + 1e-9,
            "mean relative error must not grow with scale"
        );
        previous_mean = acc.mean_relative_error();
    }

    let mut group = c.benchmark_group("E7_error_vs_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for &scale in &[1.0f64, 100.0] {
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, &scale| {
            let scenario = Scenario::scaled("bench", scale);
            b.iter(|| {
                vendor
                    .scenario(&scenario, &base)
                    .unwrap()
                    .regeneration
                    .accuracy
                    .mean_relative_error()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_error_vs_scale);
criterion_main!(benches);
