//! Differential harness for incremental workload evolution.
//!
//! The contract under test: for any base workload and any evolution delta —
//! queries **added**, queries **retired**, and (when the warehouse itself
//! drifted) annotations **revised** by a fresh client run — the regeneration
//! produced by [`Hydra::profile_delta`] equals a from-scratch
//! [`Hydra::regenerate`] of the merged package exactly: a delta reuses a
//! relation whose signature is unchanged and solves any other one from
//! scratch, as the from-scratch build does.  Each case asserts
//!
//! * the same database summary, bit for bit;
//! * the same per-relation LP status and total violation;
//! * the same constraint-satisfaction report, check by check;
//! * the same answer to every workload query re-asked as `count(*)`
//!   through the query engine on both summaries.
//!
//! It pins observability too: the session's `hydra_lp_solves_total`
//! counters move by exactly the reuse / cold tally of the delta's build
//! report.
//!
//! Finally each case draws a what-if [`Scenario`] (a row override or a
//! uniform scale) and builds it as a delta against the evolved state: it
//! must equal a from-scratch regeneration of the distorted package under
//! the same four assertions, and every relation it reused must be the
//! evolved state's.
//!
//! Cases are generated from a single seed (deterministic: the same seed
//! always replays the same base workload, client data and delta), and the
//! seeds in `tests/proptest-regressions/delta_differential.txt` are replayed
//! first — pinned regressions survive the repo the same way real proptest's
//! regression files do.

use hydra::core::scenario::Scenario;
use hydra::core::vendor::RegenerationResult;
use hydra::query::delta::WorkloadDelta;
use hydra::query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra::query::query::SpjQuery;
use hydra::summary::delta::DeltaAction;
use hydra::workload::{
    generate_client_database, harvest_workload, retail_row_targets, retail_schema, DataGenConfig,
    WorkloadGenConfig, WorkloadGenerator,
};
use hydra::TransferPackage;
use hydra::{ExecMode, Hydra, QueryEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// What one differential case exercised (used by the pinned-seed test to
/// make sure every delta shape stays covered).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CaseOutcome {
    added: usize,
    retired: usize,
    reannotated: usize,
}

/// Rewrites an SPJ query as a COUNT(*) aggregate over the same body.
fn count_sql(query: &SpjQuery) -> String {
    query.to_sql().replacen("select *", "select count(*)", 1)
}

/// `incremental` equals `scratch`, the from-scratch regeneration of
/// `package`: summary, per-relation LP status and total violation, accuracy
/// checks, and the `count(*)` answer of every workload query.
fn assert_same_regeneration(
    incremental: &RegenerationResult,
    scratch: &RegenerationResult,
    package: &TransferPackage,
    what: &str,
) {
    let names = |r: &RegenerationResult| r.summary.relations.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(incremental), names(scratch), "{what}: relations");
    for (name, expected) in &scratch.summary.relations {
        let got = &incremental.summary.relations[name];
        assert!(
            got == expected,
            "{what}: summary of `{name}` differs ({} vs {} rows in {} vs {} blocks)",
            got.total_rows,
            expected.total_rows,
            got.rows.len(),
            expected.rows.len()
        );
    }
    let lp = |r: &RegenerationResult| -> Vec<(String, _, u64)> {
        (r.build_report.relations.iter())
            .map(|s| (s.table.clone(), s.lp.status, s.lp.total_violation.to_bits()))
            .collect()
    };
    assert_eq!(
        lp(incremental),
        lp(scratch),
        "{what}: LP status or violation"
    );
    assert_eq!(incremental.accuracy, scratch.accuracy, "{what}: accuracy");

    let inc_engine = QueryEngine::new(&incremental.generator());
    let scratch_engine = QueryEngine::new(&scratch.generator());
    for entry in &package.workload.entries {
        let sql = count_sql(&entry.query);
        let answer = |engine: &QueryEngine| match engine.query_mode(&sql, ExecMode::Auto) {
            Ok(result) => Ok(result.single().expect("count row").aggregates[0]
                .as_i64()
                .expect("integer count")),
            Err(e) => Err(e.to_string()),
        };
        assert_eq!(
            answer(&inc_engine),
            answer(&scratch_engine),
            "{what}: query `{}` ({sql})",
            entry.query.name
        );
    }
}

/// The `hydra_lp_solves_total` counter of every outcome label.
fn solve_counters(session: &Hydra) -> BTreeMap<&'static str, u64> {
    let metrics = session.metrics();
    ["cold", "reused"]
        .into_iter()
        .map(|outcome| {
            let counter = metrics.counter_labeled("hydra_lp_solves_total", "outcome", outcome);
            (outcome, counter.value())
        })
        .collect()
}

/// Runs one end-to-end differential case derived deterministically from
/// `case_seed`.
fn run_case(case_seed: u64) -> CaseOutcome {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let schema = retail_schema();

    // --- Base warehouse + workload -------------------------------------
    let fact_rows = rng.gen_range(600u64..1400);
    let web_rows = rng.gen_range(200u64..500);
    let mut targets = retail_row_targets(0.01);
    targets.insert("store_sales".to_string(), fact_rows);
    targets.insert("web_sales".to_string(), web_rows);
    let data_config = DataGenConfig {
        seed: rng.gen_range(0u64..1 << 48),
        ..Default::default()
    };
    let db = generate_client_database(&schema, &targets, &data_config);

    let n_base = rng.gen_range(3usize..=6);
    let n_add = rng.gen_range(0usize..=2);
    // One batch ⇒ distinct query names across base and added queries.
    let all_queries = WorkloadGenerator::new(
        schema.clone(),
        WorkloadGenConfig {
            num_queries: n_base + n_add,
            seed: rng.gen_range(0u64..1 << 48),
            ..Default::default()
        },
    )
    .generate();
    let base_queries = &all_queries[..n_base];
    let added_queries = &all_queries[n_base..];

    let session = Hydra::builder().build();
    let package = session
        .profile(db.clone(), base_queries)
        .expect("base profile");
    let state = session.regenerate_stateful(&package).expect("base solve");

    // --- The delta ------------------------------------------------------
    let n_retire = rng.gen_range(0usize..=(n_base - 1).min(2));
    let retired: Vec<String> = {
        let mut names: Vec<String> = base_queries.iter().map(|q| q.name.clone()).collect();
        // Deterministic shuffle-by-sampling.
        let mut picked = Vec::new();
        for _ in 0..n_retire {
            let idx = rng.gen_range(0usize..names.len());
            picked.push(names.swap_remove(idx));
        }
        picked
    };
    let surviving: Vec<SpjQuery> = base_queries
        .iter()
        .filter(|q| !retired.contains(&q.name))
        .cloned()
        .collect();

    // 1-in-4 cases the warehouse itself drifts: the client regenerates its
    // data at a new scale and re-annotates every surviving query against
    // it, shipping revised row counts alongside — annotations stay mutually
    // consistent, exactly as a real re-profiling run would produce.
    let drifted = rng.gen_bool(0.25);
    let delta_db = if drifted {
        let factor = rng.gen_range(1.1f64..1.6);
        let mut drifted_targets = targets.clone();
        drifted_targets.insert(
            "store_sales".to_string(),
            (fact_rows as f64 * factor) as u64,
        );
        drifted_targets.insert("web_sales".to_string(), (web_rows as f64 * factor) as u64);
        generate_client_database(&schema, &drifted_targets, &data_config)
    } else {
        db.clone()
    };

    let mut delta = WorkloadDelta::new();
    for name in &retired {
        delta = delta.retire(name.clone());
    }
    let mut reannotated = 0usize;
    if drifted {
        let harvested = harvest_workload(&delta_db, &surviving).expect("re-harvest");
        for entry in harvested.entries {
            delta = delta.reannotate(entry.aqp.expect("annotated"));
            reannotated += 1;
        }
        for table in schema.table_names() {
            delta = delta.with_row_count(table.clone(), delta_db.row_count(table.as_str()));
        }
    }
    let harvested_adds = harvest_workload(&delta_db, added_queries).expect("harvest adds");
    for entry in harvested_adds.entries {
        delta = delta.add_annotated(entry.query, entry.aqp.expect("annotated"));
    }

    // --- Incremental vs from-scratch ------------------------------------
    let counters_before = solve_counters(&session);
    let outcome = session.profile_delta(&state, &delta).expect("delta");
    let incremental = &outcome.state.regeneration;
    let scratch_session = Hydra::builder().build();
    let scratch = scratch_session
        .regenerate(&outcome.state.package)
        .expect("from-scratch");

    assert_same_regeneration(
        incremental,
        &scratch,
        &outcome.state.package,
        &format!("delta (seed {case_seed})"),
    );

    // The solve counters moved by exactly the build report's tally.
    let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
    for relation in &incremental.build_report.relations {
        let outcome = if relation.from_cache {
            "reused"
        } else {
            "cold"
        };
        *tally.entry(outcome).or_default() += 1;
    }
    for (outcome, after) in solve_counters(&session) {
        assert_eq!(
            after - counters_before[outcome],
            tally.get(outcome).copied().unwrap_or(0),
            "hydra_lp_solves_total{{outcome=\"{outcome}\"}} disagrees with the report \
             (seed {case_seed})"
        );
    }
    assert_eq!(
        outcome.report.reused() + outcome.report.cold_solved(),
        outcome.report.relations.len()
    );

    // --- A what-if scenario as a delta against the evolved state --------
    let evolved = &outcome.state;
    let scenario = if rng.gen_bool(0.5) {
        let tables = schema.table_names();
        let table = tables[rng.gen_range(0usize..tables.len())].clone();
        let rows = evolved.package.metadata.row_count(&table).max(1) * rng.gen_range(2u64..=4);
        Scenario::scaled("override", 1.0).with_row_override(table, rows)
    } else {
        Scenario::scaled("scale", rng.gen_range(2u64..=5) as f64)
    };
    let what = format!("scenario {scenario:?} (seed {case_seed})");
    let what_if = session.scenario(&scenario, evolved).expect("scenario");
    let distorted = scenario.apply(&evolved.package);
    let scratch_what_if = scratch_session
        .regenerate(&distorted)
        .expect("from-scratch scenario");
    let built = &what_if.regeneration;
    assert_same_regeneration(built, &scratch_what_if, &distorted, &what);
    for relation in &built.build_report.relations {
        if relation.from_cache {
            assert_eq!(
                built.summary.relation(&relation.table),
                evolved.regeneration.summary.relation(&relation.table),
                "{what}: reused `{}` is not the evolved state's",
                relation.table
            );
        }
    }
    if scenario.scale_factor == 1.0 {
        assert!(
            built.build_report.cached_relations > 0,
            "{what}: a one-relation override re-solved everything"
        );
    }

    CaseOutcome {
        added: delta.added.len(),
        retired: delta.retired.len(),
        reannotated,
    }
}

/// The narrowest delta on the retail-131 fixture (10 000 `store_sales`
/// rows): one new query whose only predicate is local to `web_sales`, a
/// relation no other relation references.  It must re-solve exactly
/// `web_sales`, reuse every other relation, and still equal a from-scratch
/// regeneration of the merged package.
fn run_narrow_web_sales_case() {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 10_000);
    targets.insert("web_sales".to_string(), 3_333);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let base_queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 131,
            seed: 131,
            ..Default::default()
        },
    )
    .generate();
    let session = Hydra::builder().build();
    let package = session
        .profile(db.clone(), &base_queries)
        .expect("base profile");
    let state = session.regenerate_stateful(&package).expect("base solve");

    let mut narrow = SpjQuery::new("delta-narrow");
    narrow.add_table("web_sales");
    narrow.set_predicate(
        "web_sales",
        TablePredicate::always_true().with(ColumnPredicate::new("ws_quantity", CompareOp::Lt, 40)),
    );
    let entry = harvest_workload(&db, &[narrow])
        .expect("harvest narrow query")
        .entries
        .remove(0);
    let delta =
        WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("harvested annotation"));
    let outcome = session.profile_delta(&state, &delta).expect("narrow delta");

    let report = &outcome.report;
    assert_eq!(
        report.reused(),
        report.relations.len() - 1,
        "a one-query web_sales delta re-solved untouched relations:\n{}",
        report.to_display_table()
    );
    let resolved: Vec<&str> = report
        .relations
        .iter()
        .filter(|r| r.action != DeltaAction::Reused)
        .map(|r| r.table.as_str())
        .collect();
    assert_eq!(resolved, ["web_sales"]);

    let scratch = Hydra::builder()
        .build()
        .regenerate(&outcome.state.package)
        .expect("from-scratch");
    assert_same_regeneration(
        &outcome.state.regeneration,
        &scratch,
        &outcome.state.package,
        "narrow web_sales delta",
    );
}

/// Replays the committed regression seeds first — the delta analogue of a
/// `proptest-regressions` file.  The pinned set is chosen to cover every
/// delta shape (pure add, retire-only, data drift with wholesale
/// re-annotation, mixed).  The hand-built narrow `web_sales` delta is
/// pinned alongside.
#[test]
fn pinned_regression_seeds_replay() {
    run_narrow_web_sales_case();
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/proptest-regressions/delta_differential.txt"
    ))
    .expect("pinned regression seeds present");
    let mut outcomes = Vec::new();
    for line in pinned.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line
            .strip_prefix("seed = ")
            .unwrap_or_else(|| panic!("malformed regression line: {line}"))
            .parse()
            .expect("seed parses");
        outcomes.push((seed, run_case(seed)));
    }
    assert!(outcomes.len() >= 6, "regression file lost its pinned seeds");
    assert!(
        outcomes.iter().any(|(_, o)| o.added > 0),
        "no pinned seed adds queries"
    );
    assert!(
        outcomes.iter().any(|(_, o)| o.retired > 0),
        "no pinned seed retires queries"
    );
    assert!(
        outcomes.iter().any(|(_, o)| o.reannotated > 0),
        "no pinned seed re-annotates (data drift)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random base workloads × random deltas: incremental ≡ from-scratch.
    /// CI cranks this to 512 cases via `PROPTEST_CASES`.
    #[test]
    fn incremental_profile_equals_from_scratch(case_seed in 0u64..(1u64 << 48)) {
        run_case(case_seed);
    }
}
