//! Delta re-profiling vs full re-profiling on the retail-131 workload.
//!
//! The incremental-evolution claim made measurable: after a summary is
//! solved once (statefully), a workload delta of 1 / 5 / 20 newly observed
//! queries is merged two ways —
//!
//! * **full re-profile**: from-scratch `regenerate` of the merged package
//!   (every relation re-partitions and re-solves cold);
//! * **delta re-profile**: `profile_delta` against the retained state
//!   (unchanged relations reused outright, changed relations re-solved
//!   warm-started from the previous LP basis).
//!
//! The bench prints the speedup series for the README velocity table and
//! **asserts** the two acceptance properties: a single-query delta re-solves
//! only the relation it touches, and beats the full re-profile wall clock by
//! at least 5×.  It also cross-checks equivalence: identical per-relation
//! row counts between the two paths at every delta size.

use criterion::{criterion_group, criterion_main, Criterion};
use hydra_bench::{delta_of, retail_delta_fixture, BenchReport};
use hydra_core::session::Hydra;
use std::time::{Duration, Instant};

fn best_of(mut run: impl FnMut() -> Duration, tries: usize) -> Duration {
    (0..tries).map(|_| run()).min().unwrap_or(Duration::MAX)
}

fn bench_delta_reprofile(c: &mut Criterion) {
    let (package, extras) = retail_delta_fixture(20);
    let session = Hydra::builder().compare_aqps(false).build();

    let start = Instant::now();
    let state = session.regenerate_stateful(&package).expect("base solve");
    let base_solve = start.elapsed();
    println!(
        "retail-131 base profile: {} relations solved in {:.2} s",
        state.regeneration.build_report.relations.len(),
        base_solve.as_secs_f64()
    );

    let mut report = BenchReport::new("delta_reprofile");
    report.metric("base_solve_s", base_solve.as_secs_f64());
    println!(
        "delta size | full re-profile (ms) | delta re-profile (ms) | speedup | reused/warm/cold"
    );
    for n in [1usize, 5, 20] {
        let delta = delta_of(&extras, n);
        let outcome = session.profile_delta(&state, &delta).expect("delta");
        let merged = outcome.state.package.clone();

        let delta_time = best_of(
            || {
                let start = Instant::now();
                session.profile_delta(&state, &delta).expect("delta");
                start.elapsed()
            },
            2,
        );
        let full_time = best_of(
            || {
                let start = Instant::now();
                session.regenerate(&merged).expect("full re-profile");
                start.elapsed()
            },
            2,
        );
        let speedup = full_time.as_secs_f64() / delta_time.as_secs_f64();
        report
            .metric(&format!("delta_{n}_full_ms"), full_time.as_secs_f64() * 1e3)
            .metric(
                &format!("delta_{n}_incremental_ms"),
                delta_time.as_secs_f64() * 1e3,
            )
            .metric(&format!("delta_{n}_speedup"), speedup)
            .metric(&format!("delta_{n}_reused"), outcome.report.reused() as f64)
            .metric(
                &format!("delta_{n}_warm"),
                outcome.report.warm_solved() as f64,
            )
            .metric(
                &format!("delta_{n}_cold"),
                outcome.report.cold_solved() as f64,
            );
        println!(
            "{:>10} | {:>20.1} | {:>21.1} | {:>6.1}x | {}/{}/{}",
            n,
            full_time.as_secs_f64() * 1e3,
            delta_time.as_secs_f64() * 1e3,
            speedup,
            outcome.report.reused(),
            outcome.report.warm_solved(),
            outcome.report.cold_solved(),
        );

        // Equivalence cross-check at every size: identical per-relation row
        // counts between incremental and from-scratch.
        let scratch = session.regenerate(&merged).expect("scratch");
        for (name, relation) in &scratch.summary.relations {
            assert_eq!(
                relation.total_rows,
                outcome
                    .state
                    .regeneration
                    .summary
                    .relation(name)
                    .expect("relation present")
                    .total_rows,
                "{name} diverged at delta size {n}"
            );
        }

        if n == 1 {
            // Acceptance: the narrow single-query delta touches exactly one
            // relation — everything else must be reused, not re-solved.
            assert_eq!(
                outcome.report.reused(),
                outcome.report.relations.len() - 1,
                "single-query delta re-solved untouched relations:\n{}",
                outcome.report.to_display_table()
            );
            assert!(
                speedup >= 5.0,
                "single-query delta re-profile must be >= 5x faster than full \
                 re-profile, measured {speedup:.1}x ({:.1} ms vs {:.1} ms)",
                full_time.as_secs_f64() * 1e3,
                delta_time.as_secs_f64() * 1e3,
            );
        }
    }

    // Criterion series for the record (one delta size per bench id).
    let mut group = c.benchmark_group("delta_reprofile");
    for n in [1usize, 5, 20] {
        let delta = delta_of(&extras, n);
        group.bench_function(format!("delta_{n}_queries"), |b| {
            b.iter(|| session.profile_delta(&state, &delta).expect("delta"))
        });
    }
    group.bench_function("full_reprofile_131", |b| {
        b.iter(|| session.regenerate(&package).expect("full"))
    });
    group.finish();
    report.write();
}

criterion_group!(benches, bench_delta_reprofile);
criterion_main!(benches);
