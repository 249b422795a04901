//! Experiments E6 / E7 (integration level): scenario construction, in-class
//! aggregates answered from the summary alone at any scale, and the
//! behaviour of relative errors as the database grows.

use hydra::catalog::types::Value;
use hydra::core::scenario::Scenario;
use hydra::core::{HydraError, RegenerationState};
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::{ExecMode, Hydra, QueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The solved base state every scenario is built against.
fn base(session: &Hydra) -> RegenerationState {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), 2_500);
    targets.insert("web_sales".to_string(), 800);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 10,
            ..Default::default()
        },
    )
    .generate();
    let package = session.profile(db, &queries).unwrap();
    session.regenerate_stateful(&package).unwrap()
}

fn session() -> Hydra {
    Hydra::builder().build()
}

#[test]
fn scenario_construction_is_scale_free() {
    // E6/E8: cost and summary size of scenario construction do not grow with
    // the simulated data volume.
    let session = session();
    let base = base(&session);

    let mut times = Vec::new();
    let mut sizes = Vec::new();
    for scale in [1.0, 1e4, 1e8] {
        let scenario = Scenario::scaled(format!("x{scale}"), scale);
        let start = Instant::now();
        let result = session.scenario(&scenario, &base).unwrap();
        times.push(start.elapsed());
        sizes.push(result.regeneration.summary.size_bytes());
        assert!(
            result.feasible,
            "uniform scaling at {scale} must stay feasible"
        );
    }
    // Construction time at 10^8x the volume stays within a small factor of the
    // 1x time (wall-clock noise allowed), and summary size is essentially flat.
    let t0 = times[0].as_secs_f64().max(1e-3);
    let t2 = times[2].as_secs_f64();
    assert!(t2 < t0 * 20.0, "construction time grew from {t0}s to {t2}s");
    assert!(
        sizes[2] < sizes[0] * 2 + 4096,
        "summary size grew from {} to {}",
        sizes[0],
        sizes[2]
    );

    // The fact table alone forced to 1e6 / 1e8 / 1e10 logical rows: its
    // summary keeps the same number of blocks, and in-class aggregates are
    // answered from those blocks without regenerating a single tuple.
    let queries = [
        "select count(*), sum(store_sales.ss_quantity) from store_sales",
        "select count(*), avg(item.i_current_price) from store_sales, item \
         where store_sales.ss_item_fk = item.i_item_sk group by item.i_category",
        "select count(*), sum(store_sales.ss_sk) from store_sales \
         where store_sales.ss_sk >= 1000 and store_sales.ss_sk < 500000",
    ];
    let mut blocks = Vec::new();
    for rows in [1_000_000u64, 100_000_000, 10_000_000_000] {
        let scenario =
            Scenario::scaled(format!("rows-{rows}"), 1.0).with_row_override("store_sales", rows);
        let result = session.scenario(&scenario, &base).unwrap();
        let generator = result.regeneration.generator();
        let fact = generator.summary.relation("store_sales").unwrap();
        assert_eq!(fact.total_rows, rows);
        blocks.push(fact.row_count());

        let engine = QueryEngine::new(&generator);
        let answers = queries.map(|sql| engine.query_mode(sql, ExecMode::SummaryOnly).unwrap());
        for (sql, answer) in queries.iter().zip(&answers) {
            assert_eq!(answer.scanned_tuples, 0, "{sql} scanned at {rows} rows");
        }
        assert_eq!(
            answers[0].single().expect("one global row").aggregates[0],
            Value::Integer(rows as i64)
        );
    }
    assert!(
        blocks.iter().all(|&b| b == blocks[0]),
        "store_sales block count moved with its row count: {blocks:?}"
    );
}

#[test]
fn relative_errors_shrink_as_database_grows() {
    // E7: HYDRA's residual discrepancy is additive, so the *relative* error of
    // the volumetric constraints decreases as the database is scaled up.
    let session = session();
    let base = base(&session);

    let mut mean_errors = Vec::new();
    for scale in [1.0, 100.0] {
        let scenario = Scenario::scaled(format!("x{scale}"), scale);
        let result = session.scenario(&scenario, &base).unwrap();
        mean_errors.push(result.regeneration.accuracy.mean_relative_error());
    }
    assert!(
        mean_errors[1] <= mean_errors[0] + 1e-9,
        "relative error did not shrink: {:?}",
        mean_errors
    );
}

#[test]
fn relative_errors_shrink_at_retail_64() {
    // E7 at the paper experiment's scale: 64 queries over a 10 000-row
    // `store_sales`, scaled ×1 → ×1000; the mean relative error must not
    // grow from one scale to the next.
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 10_000);
    targets.insert("web_sales".to_string(), 10_000 / 3);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 64,
            seed: 131,
            ..Default::default()
        },
    )
    .generate();
    let session = session();
    let package = session.profile(db, &queries).unwrap();
    let base = session.regenerate_stateful(&package).unwrap();

    let mut previous_mean = f64::INFINITY;
    for scale in [1.0, 10.0, 100.0, 1000.0] {
        let scenario = Scenario::scaled(format!("x{scale}"), scale);
        let result = session.scenario(&scenario, &base).unwrap();
        let accuracy = &result.regeneration.accuracy;
        let mean = accuracy.mean_relative_error();
        println!(
            "[E7] ×{scale}: mean relative error {mean:.5}, max {:.5}, within 1% {:.1}%",
            accuracy.max_relative_error(),
            100.0 * accuracy.fraction_within(0.01)
        );
        assert!(
            mean <= previous_mean + 1e-9,
            "mean relative error grew to {mean} at ×{scale} (was {previous_mean})"
        );
        previous_mean = mean;
    }
}

#[test]
fn infeasible_injection_is_reported_not_hidden() {
    let session = session();
    let base = base(&session);
    let query = base.package.workload.entries[0].query.name.clone();
    // Claim the root join produces 100x more rows than the fact table has.
    let scenario =
        Scenario::scaled("overload", 1.0).with_cardinality_override(query, 0, 250_000_000);
    let result = session.scenario(&scenario, &base).unwrap();
    assert!(!result.feasible);
    assert!(result.total_violation > 0.0);
    // The accuracy report exposes the violated constraint rather than
    // silently claiming success.
    assert!(result.regeneration.accuracy.max_relative_error() > 0.0);
}

/// Seed of the strict-scenario differential's scenario draws.
const STRICT_DIFFERENTIAL_SEED: u64 = 0x57_1C7;

/// A seeded mix of feasible and contradictory distortions of `base`: each
/// rewrites one annotated edge (to 0, to its observed cardinality, a small
/// multiple of it, or far past the fact table) or one relation's row count
/// (halved, doubled, or kept).
fn drawn_scenarios(base: &RegenerationState, count: usize) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(STRICT_DIFFERENTIAL_SEED);
    let entries: Vec<_> = base
        .package
        .workload
        .entries
        .iter()
        .filter_map(|e| e.aqp.as_ref().map(|aqp| (e.query.name.clone(), aqp)))
        .collect();
    let tables = base.package.metadata.schema.table_names();
    (0..count)
        .map(|i| {
            let name = format!("drawn-{i}");
            if rng.gen_bool(0.7) {
                let (query, aqp) = &entries[rng.gen_range(0..entries.len())];
                let nodes = aqp.root.preorder();
                let edge = rng.gen_range(0..nodes.len());
                let observed = nodes[edge].cardinality;
                let cardinality = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => observed,
                    2 => observed * 2 + 1,
                    _ => 250_000_000,
                };
                Scenario::scaled(name, 1.0).with_cardinality_override(
                    query.clone(),
                    edge,
                    cardinality,
                )
            } else {
                let table = &tables[rng.gen_range(0..tables.len())];
                let observed = base.package.metadata.row_count(table);
                let rows = match rng.gen_range(0..3u32) {
                    0 => observed / 2,
                    1 => observed,
                    _ => observed * 2,
                };
                Scenario::scaled(name, 1.0).with_row_override(table.clone(), rows)
            }
        })
        .collect()
}

#[test]
fn strict_scenarios_fail_exactly_when_the_recovering_build_is_infeasible() {
    let session = session();
    let base = base(&session);
    let query = base.package.workload.entries[0].query.name.clone();
    let mut scenarios = vec![
        Scenario::scaled("identity", 1.0),
        Scenario::scaled("overload", 1.0).with_cardinality_override(query, 0, 250_000_000),
    ];
    scenarios.extend(drawn_scenarios(&base, 12));

    let (mut feasible, mut infeasible) = (0, 0);
    for scenario in &scenarios {
        let recovering = session.scenario(scenario, &base).unwrap();
        match session.scenario(&scenario.clone().strict(), &base) {
            Ok(strict) => {
                assert!(
                    recovering.feasible,
                    "`{}`: strict scenario accepted an infeasible build",
                    scenario.name
                );
                assert!(
                    strict.feasible,
                    "`{}`: strict Ok is infeasible",
                    scenario.name
                );
                feasible += 1;
            }
            Err(HydraError::InfeasibleScenario(_)) => {
                assert!(
                    !recovering.feasible,
                    "`{}`: strict scenario rejected a feasible build",
                    scenario.name
                );
                infeasible += 1;
            }
            Err(other) => panic!("`{}`: unexpected error {other}", scenario.name),
        }
    }
    // The draw must exercise both sides of the equivalence.
    assert!(
        feasible > 0 && infeasible > 0,
        "{feasible} feasible, {infeasible} infeasible"
    );
}
