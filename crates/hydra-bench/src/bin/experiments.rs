//! Regenerates every table / figure / headline number of the paper's
//! evaluation in one run and prints them as text tables.
//!
//! Run with: `cargo run --release -p hydra-bench --bin experiments`
//!
//! The experiment identifiers (E1…E10) match DESIGN.md §5 and EXPERIMENTS.md.

use hydra_bench::{regenerate, retail_package, retail_package_131, row_targets};
use hydra_core::scenario::Scenario;
use hydra_core::vendor::{HydraConfig, VendorSite};
use hydra_partition::grid::GridPartition;
use hydra_partition::region::RegionPartitioner;
use hydra_summary::align::AlignmentStrategy;
use hydra_summary::builder::SummaryBuilderConfig;
use std::time::Instant;

fn main() {
    println!("================================================================");
    println!(" HYDRA reproduction — experiment harness");
    println!("================================================================\n");

    e1_e2_summary_construction_and_accuracy();
    e3_lp_complexity();
    e4_generation_velocity();
    e5_table1_sample();
    e6_scenario_construction();
    e7_error_vs_scale();
    e8_scale_free_construction();
    e10_alignment_ablation();
}

/// E1 + E2: summary construction cost/size and the volumetric error CDF for
/// the 131-query retail workload.
fn e1_e2_summary_construction_and_accuracy() {
    println!("--- E1: summary construction (131-query retail workload) ---");
    let start = Instant::now();
    let package = retail_package_131();
    let client_time = start.elapsed();
    let start = Instant::now();
    let result = regenerate(&package);
    let vendor_time = start.elapsed();
    println!(
        "client-side package preparation : {:>9.2} s",
        client_time.as_secs_f64()
    );
    println!(
        "vendor-side summary construction: {:>9.2} s   (paper: < 2 minutes)",
        vendor_time.as_secs_f64()
    );
    println!(
        "summary size                    : {:>9.2} KB  (paper: a few KB)",
        result.summary.size_bytes() as f64 / 1024.0
    );
    println!(
        "LP totals                       : {} variables, {} constraints across {} relations",
        result.build_report.total_lp_variables(),
        result.build_report.total_lp_constraints(),
        result.build_report.relations.len()
    );
    println!("\nper-relation LP statistics:");
    print!("{}", result.build_report.to_display_table());

    println!("\n--- E2: volumetric accuracy (error CDF) ---");
    for (t, f) in result
        .accuracy
        .error_cdf(&[0.0, 0.001, 0.01, 0.05, 0.10, 0.25])
    {
        println!("rel err <= {:<6} -> {:>6.1}% of constraints", t, f * 100.0);
    }
    println!(
        "near-exact: {:.1}% (paper: >90%)   all within 10%: {} (paper: yes)\n",
        100.0 * result.accuracy.fraction_within(0.001),
        result.accuracy.fraction_within(0.10) >= 0.97
    );
}

/// E3: region vs grid partitioning variable counts.
fn e3_lp_complexity() {
    use hydra_partition::interval::Interval;
    use hydra_partition::space::AttributeSpace;
    println!("--- E3: LP complexity — region (HYDRA) vs grid (DataSynth) ---");
    println!(
        "{:>4} | {:>11} | {:>12} | {:>16} | {:>9}",
        "dims", "constraints", "region vars", "grid vars", "ratio"
    );
    for &(dims, per_dim) in &[(2usize, 8usize), (3, 8), (4, 8), (4, 16), (5, 16)] {
        let space = AttributeSpace::new(
            (0..dims)
                .map(|i| (format!("axis{i}"), Interval::new(0, 10_000)))
                .collect(),
        );
        let mut constraints = Vec::new();
        for axis in 0..dims {
            for j in 0..per_dim {
                let start = ((j * 2_654_435_761 + axis * 40_503) % 9_000) as i64;
                let width = (200 + (j * 97 + axis * 31) % 1_800) as i64;
                let b = space.box_from_intervals(vec![(
                    format!("axis{axis}").as_str(),
                    Interval::new(start, (start + width).min(10_000)),
                )]);
                constraints.push(vec![b]);
            }
        }
        let grid = GridPartition::build(space.clone(), &constraints).unwrap();
        let mut partitioner = RegionPartitioner::new(space);
        for cs in &constraints {
            partitioner = partitioner.add_constraint_union(cs.clone());
        }
        let regions = partitioner.partition().unwrap();
        println!(
            "{:>4} | {:>11} | {:>12} | {:>16} | {:>9.1e}",
            dims,
            constraints.len(),
            regions.num_variables(),
            grid.num_cells(),
            grid.num_cells() as f64 / regions.num_variables() as f64
        );
    }
    println!();
}

/// E4: generation velocity regulation and raw throughput.
fn e4_generation_velocity() {
    println!("--- E4: dynamic generation velocity ---");
    let package = retail_package(32, 30_000);
    let result = regenerate(&package);
    let generator = result.generator();
    println!(
        "{:>14} | {:>15} | {:>8}",
        "target rows/s", "achieved rows/s", "rows"
    );
    for target in [10_000.0, 100_000.0, 1_000_000.0] {
        let stats = generator
            .generate_with_velocity("store_sales", Some(target), Some(20_000))
            .unwrap();
        println!(
            "{:>14.0} | {:>15.0} | {:>8}",
            target, stats.achieved_rows_per_sec, stats.rows
        );
    }
    let unthrottled = generator
        .generate_with_velocity("store_sales", None, None)
        .unwrap();
    println!(
        "{:>14} | {:>15.0} | {:>8}   (unthrottled)\n",
        "-", unthrottled.achieved_rows_per_sec, unthrottled.rows
    );
}

/// E5: Table 1 — sample tuples of the item relation regenerated from its summary.
fn e5_table1_sample() {
    println!("--- E5: Table 1 — sample regenerated tuples of `item` ---");
    let package = retail_package(32, 20_000);
    let result = regenerate(&package);
    let generator = result.generator();
    let item = result.summary.relation("item").unwrap();
    println!(
        "item summary rows: {} (for {} tuples)",
        item.row_count(),
        item.total_rows
    );
    println!("first tuple of each of the first 4 summary-row blocks:");
    let mut next_block_start = 0u64;
    let stream: Vec<_> = generator.stream("item").unwrap().collect();
    for row in item.rows.iter().take(4) {
        let tuple = &stream[next_block_start as usize];
        println!(
            "  item_sk={:<6} {:?}",
            next_block_start,
            tuple
                .iter()
                .skip(1)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        next_block_start += row.count;
    }
    println!();
}

/// E6: what-if scenario construction at extreme extrapolations.
fn e6_scenario_construction() {
    println!("--- E6: scenario construction (what-if extrapolation) ---");
    let package = retail_package(32, 20_000);
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());
    let base = vendor.regenerate_stateful(&package).unwrap();
    println!(
        "{:>12} | {:>18} | {:>17} | {:>11} | {:>8}",
        "scale", "simulated rows", "construction (ms)", "summary (KB)", "feasible"
    );
    for scale in [1.0, 1e3, 1e6, 1e9] {
        let scenario = Scenario::scaled(format!("x{scale:e}"), scale);
        let start = Instant::now();
        let result = vendor.scenario(&scenario, &base).unwrap();
        println!(
            "{:>12.0e} | {:>18} | {:>17.1} | {:>11.2} | {:>8}",
            scale,
            result.regeneration.summary.total_rows(),
            start.elapsed().as_secs_f64() * 1e3,
            result.regeneration.summary.size_bytes() as f64 / 1024.0,
            result.feasible
        );
    }
    // An infeasible injection is detected.
    let query = package.workload.entries[0].query.name.clone();
    let bad = Scenario::scaled("impossible", 1.0)
        .with_cardinality_override(query, 0, u64::MAX / 4)
        .strict();
    match vendor.scenario(&bad, &base) {
        Err(e) => println!("infeasible injection correctly rejected: {e}\n"),
        Ok(_) => println!("WARNING: infeasible injection was not rejected\n"),
    }
}

/// E7: relative error vs. database scale.
fn e7_error_vs_scale() {
    println!("--- E7: relative error vs database size ---");
    let package = retail_package(64, 10_000);
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());
    let base = vendor.regenerate_stateful(&package).unwrap();
    println!(
        "{:>8} | {:>13} | {:>12}",
        "scale", "mean rel err", "max rel err"
    );
    for scale in [1.0, 10.0, 100.0, 1000.0] {
        let scenario = Scenario::scaled(format!("x{scale}"), scale);
        let result = vendor.scenario(&scenario, &base).unwrap();
        let acc = &result.regeneration.accuracy;
        println!(
            "{:>8} | {:>13.6} | {:>12.6}",
            scale,
            acc.mean_relative_error(),
            acc.max_relative_error()
        );
    }
    println!();
}

/// E8: construction time is independent of the simulated data volume.
fn e8_scale_free_construction() {
    println!("--- E8: data-scale-free summary construction ---");
    let package = retail_package_131();
    println!(
        "{:>12} | {:>18} | {:>17}",
        "multiplier", "regenerable rows", "construction (ms)"
    );
    let vendor = VendorSite::new(HydraConfig::without_aqp_comparison());
    for multiplier in [1u64, 1_000, 1_000_000] {
        // Only the row counts grow; the workload annotations stay put.
        let scenario = row_targets(&package).into_iter().fold(
            Scenario::scaled(format!("x{multiplier}"), 1.0),
            |scenario, (t, r)| scenario.with_row_override(t, r.saturating_mul(multiplier)),
        );
        let scaled = scenario.apply(&package);
        let start = Instant::now();
        let result = vendor.regenerate(&scaled).unwrap();
        println!(
            "{:>12} | {:>18} | {:>17.1}",
            multiplier,
            result.summary.total_rows(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    println!();
}

/// E10: deterministic alignment vs sampling-based instantiation.
fn e10_alignment_ablation() {
    println!("--- E10: alignment ablation (deterministic vs sampled) ---");
    let package = retail_package(64, 20_000);
    let build = |alignment| {
        let config = HydraConfig {
            builder: SummaryBuilderConfig::default().with_alignment(alignment),
            compare_aqps: false,
        };
        let start = Instant::now();
        let result = VendorSite::new(config).regenerate(&package).unwrap();
        (result, start.elapsed())
    };
    let (det, det_time) = build(AlignmentStrategy::Deterministic);
    let (det2, _) = build(AlignmentStrategy::Deterministic);
    let (sam, sam_time) = build(AlignmentStrategy::Sampled { seed: 1 });
    let (sam2, _) = build(AlignmentStrategy::Sampled { seed: 2 });
    println!(
        "{:<15} | {:>12} | {:>11} | {:>13} | {:>12}",
        "strategy", "near-exact", "within 10%", "time (ms)", "reproducible"
    );
    println!(
        "{:<15} | {:>11.1}% | {:>10.1}% | {:>13.1} | {:>12}",
        "deterministic",
        100.0 * det.accuracy.fraction_within(0.001),
        100.0 * det.accuracy.fraction_within(0.10),
        det_time.as_secs_f64() * 1e3,
        det.summary == det2.summary
    );
    println!(
        "{:<15} | {:>11.1}% | {:>10.1}% | {:>13.1} | {:>12}",
        "sampled",
        100.0 * sam.accuracy.fraction_within(0.001),
        100.0 * sam.accuracy.fraction_within(0.10),
        sam_time.as_secs_f64() * 1e3,
        sam.summary == sam2.summary
    );
    println!();
}
