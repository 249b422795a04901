//! Experiment E6 — scenario construction (§4.4): what-if cardinality
//! injection, feasibility checking, and extrapolated ("exabyte era") summary
//! construction.
//!
//! The timing claim being reproduced: scenario construction cost does not
//! depend on the simulated data volume, so building the summary for a 10⁹×
//! extrapolation costs the same as for the observed database.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::retail_package;
use hydra_core::scenario::Scenario;
use hydra_core::vendor::{HydraConfig, VendorSite};
use std::time::Duration;

fn bench_scenario_construction(c: &mut Criterion) {
    let package = retail_package(32, hydra_bench::BENCH_FACT_ROWS);
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());
    let base = vendor.regenerate_stateful(&package).unwrap();

    println!("[E6] scale factor | simulated rows | summary KB | feasible");
    for &scale in &[1.0f64, 1e3, 1e6, 1e9] {
        let scenario = Scenario::scaled(format!("x{scale:e}"), scale);
        let result = vendor.scenario(&scenario, &base).unwrap();
        println!(
            "[E6] {:>12.0e} | {:>14} | {:>10.2} | {}",
            scale,
            result.regeneration.summary.total_rows(),
            result.regeneration.summary.size_bytes() as f64 / 1024.0,
            result.feasible
        );
    }

    let mut group = c.benchmark_group("E6_scenario_construction");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for &scale in &[1.0f64, 1e9] {
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, &scale| {
            let scenario = Scenario::scaled("bench", scale);
            b.iter(|| vendor.scenario(&scenario, &base).unwrap().feasible);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario_construction);
criterion_main!(benches);
