//! Differential harness for incremental workload evolution.
//!
//! The contract under test: for any base workload and any evolution delta —
//! queries **added**, queries **retired**, and (when the warehouse itself
//! drifted) annotations **revised** by a fresh client run — the summary
//! produced by [`Hydra::profile_delta`] must satisfy the merged constraint
//! set *exactly as* a from-scratch [`Hydra::regenerate`] of the merged
//! package does:
//!
//! * identical relation sets and identical per-relation regenerated row
//!   counts — always;
//! * identical constraint-satisfaction report *structure* (same constraints,
//!   same order, same targets), identical per-relation LP status and optimal
//!   total violation — always (the per-relation LPs are the same on both
//!   paths; only the chosen optimal vertex may differ);
//! * in the **strict regime** — both paths round every constraint exactly,
//!   the common case for consistent harvested workloads — the reports are
//!   identical constraint by constraint and the PR 4 query engine returns
//!   **identical answers** for every workload query (each SPJ body re-asked
//!   as `count(*)` on both summaries);
//! * outside it (an LP vertex whose largest-remainder rounding the integral
//!   repair could not fully fix — a property of either path equally), the
//!   satisfaction quality must still track within tight bounds and query
//!   answers within integral rounding slack.
//!
//! The same case also pins retention: a delta built against the full base
//! baseline and against the support-only baseline a state retains must make
//! identical decisions (summary, diff, per-relation action and warm start).
//! It pins observability too: the session's `hydra_lp_solves_total` counters
//! move by exactly the reuse / cold / warm-hit / warm-fell-back tally of the
//! delta's build report.
//!
//! Finally each case draws a what-if [`Scenario`] (a row override or a
//! uniform scale) and builds it as a delta against the evolved state: it must
//! match a from-scratch regeneration of the distorted package — same
//! per-relation row totals, same feasibility, and in the strict regime the
//! same achieved cardinality for every constraint — every relation it
//! reused must be bit-identical to the evolved state's, and every relation
//! it re-solved must have solved cold.
//!
//! Cases are generated from a single seed (deterministic: the same seed
//! always replays the same base workload, client data and delta), and the
//! seeds in `tests/proptest-regressions/delta_differential.txt` are replayed
//! first — pinned regressions survive the repo the same way real proptest's
//! regression files do.

use hydra::core::scenario::Scenario;
use hydra::core::vendor::RegenerationResult;
use hydra::lp::simplex::WarmOutcome;
use hydra::lp::solver::SolveStatus;
use hydra::query::delta::WorkloadDelta;
use hydra::query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra::query::query::SpjQuery;
use hydra::summary::builder::SummaryBuilder;
use hydra::summary::delta::{DeltaAction, DeltaBuild, SolveBaseline};
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
/// make sure the strict, bit-sharp regime is actually covered).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CaseOutcome {
    /// Both paths satisfied every constraint exactly (the strict regime).
    fully_feasible: bool,
    added: usize,
    retired: usize,
    reannotated: usize,
    queries_compared: usize,
    /// Relations of the delta whose warm start fell back to a cold solve.
    warm_fellback: u64,
}

/// Rewrites an SPJ query as a COUNT(*) aggregate over the same body.
fn count_sql(query: &SpjQuery) -> String {
    query.to_sql().replacen("select *", "select count(*)", 1)
}

fn fully_feasible(result: &RegenerationResult) -> bool {
    result
        .build_report
        .relations
        .iter()
        .all(|r| r.lp.status == SolveStatus::Feasible)
}

/// The bit-sharp regime: both paths solved every relation feasibly and
/// rounded every constraint exactly.
fn strict_regime(a: &RegenerationResult, b: &RegenerationResult) -> bool {
    fully_feasible(a)
        && fully_feasible(b)
        && a.accuracy.fraction_within(0.0) == 1.0
        && b.accuracy.fraction_within(0.0) == 1.0
}

/// Identical relation sets with identical regenerated row counts.
fn assert_same_row_totals(a: &RegenerationResult, b: &RegenerationResult, what: &str) {
    assert_eq!(
        a.summary.relations.len(),
        b.summary.relations.len(),
        "{what}"
    );
    for (name, relation) in &b.summary.relations {
        assert_eq!(
            relation.total_rows,
            a.summary
                .relation(name)
                .unwrap_or_else(|| panic!("{what}: lost `{name}`"))
                .total_rows,
            "{what}: row count of `{name}` diverged"
        );
    }
}

/// Every constraint achieved the same cardinality on both paths.
fn assert_same_achieved(a: &RegenerationResult, b: &RegenerationResult, what: &str) {
    for (a, b) in a.accuracy.checks.iter().zip(&b.accuracy.checks) {
        assert_eq!(
            a.achieved, b.achieved,
            "{what}: achieved cardinality of `{}` diverged",
            a.label
        );
    }
}

/// The `hydra_lp_solves_total` counter of every outcome label.
fn solve_counters(session: &Hydra) -> BTreeMap<&'static str, u64> {
    let metrics = session.metrics();
    ["cold", "warm_hit", "warm_fellback", "reused"]
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

    // The solve counters moved by exactly the build report's tally.
    let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
    for relation in &incremental.build_report.relations {
        let outcome = match (relation.from_cache, relation.lp.warm) {
            (true, _) => "reused",
            (false, WarmOutcome::NotAttempted) => "cold",
            (false, WarmOutcome::Hit) => "warm_hit",
            (false, WarmOutcome::FellBack) => "warm_fellback",
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

    assert_same_row_totals(incremental, &scratch, &format!("delta (seed {case_seed})"));

    // The constraint-satisfaction reports cover the identical constraint
    // multiset, in the same order.
    assert_eq!(
        incremental.accuracy.len(),
        scratch.accuracy.len(),
        "reports cover different constraint sets (seed {case_seed})"
    );
    for (a, b) in incremental
        .accuracy
        .checks
        .iter()
        .zip(&scratch.accuracy.checks)
    {
        assert_eq!(a.label, b.label, "constraint order diverged");
        assert_eq!(a.table, b.table);
        assert_eq!(a.target, b.target);
    }

    // The per-relation LPs are the same on both paths, so status and
    // optimal total violation must agree even when the system is
    // inconsistent (only the chosen vertex may differ).
    let by_table = |r: &RegenerationResult| -> BTreeMap<String, (SolveStatus, f64)> {
        r.build_report
            .relations
            .iter()
            .map(|s| (s.table.clone(), (s.lp.status, s.lp.total_violation)))
            .collect()
    };
    let inc_stats = by_table(incremental);
    for (table, (status, violation)) in by_table(&scratch) {
        let (inc_status, inc_violation) = inc_stats
            .get(&table)
            .unwrap_or_else(|| panic!("incremental build lost `{table}`"));
        assert_eq!(
            *inc_status, status,
            "LP status of `{table}` diverged (seed {case_seed})"
        );
        let tolerance = 1e-6 * (1.0 + violation.abs());
        assert!(
            (inc_violation - violation).abs() <= tolerance,
            "optimal violation of `{table}` diverged: {inc_violation} vs {violation} \
             (seed {case_seed})"
        );
    }

    // Satisfaction quality must track between the two paths, always: the
    // LPs are identical, so the only residual freedom is which optimal
    // vertex was reached and how integral rounding repaired it — bounded,
    // never systematic.
    assert!(
        (incremental.accuracy.fraction_within(0.0) - scratch.accuracy.fraction_within(0.0)).abs()
            <= 0.10,
        "exact-satisfaction fractions diverged (seed {case_seed}): {} vs {}\n{}",
        incremental.accuracy.fraction_within(0.0),
        scratch.accuracy.fraction_within(0.0),
        incremental.accuracy.to_display_table()
    );
    assert!(
        (incremental.accuracy.mean_relative_error() - scratch.accuracy.mean_relative_error()).abs()
            <= 0.02,
        "mean relative errors diverged (seed {case_seed}): {} vs {}",
        incremental.accuracy.mean_relative_error(),
        scratch.accuracy.mean_relative_error()
    );

    // The bit-sharp regime: when both paths round cleanly (every constraint
    // satisfied exactly — the common case for consistent harvested
    // workloads), the reports and all query answers must be identical.
    // The pinned regression seeds guarantee this path stays covered.
    let strict = strict_regime(incremental, &scratch);
    if strict {
        assert_same_achieved(incremental, &scratch, &format!("delta (seed {case_seed})"));
    }

    // Every workload query re-asked as COUNT(*) through the PR 4 query
    // engine: identical answers in the strict regime; within integral
    // rounding slack otherwise.
    let inc_engine = QueryEngine::new(&incremental.generator());
    let scratch_engine = QueryEngine::new(&scratch.generator());
    let mut queries_compared = 0usize;
    for entry in &outcome.state.package.workload.entries {
        let sql = count_sql(&entry.query);
        let a = inc_engine.query_mode(&sql, ExecMode::Auto);
        let b = scratch_engine.query_mode(&sql, ExecMode::Auto);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let a = a.single().expect("count row").aggregates[0]
                    .as_i64()
                    .expect("integer count");
                let b = b.single().expect("count row").aggregates[0]
                    .as_i64()
                    .expect("integer count");
                if strict {
                    assert_eq!(
                        a, b,
                        "query `{}` answered differently (seed {case_seed}, sql: {sql})",
                        entry.query.name
                    );
                } else {
                    let slack = 3 + (a.max(b) as f64 * 0.05) as i64;
                    assert!(
                        (a - b).abs() <= slack,
                        "query `{}` answers diverged beyond rounding slack: {a} vs {b} \
                         (seed {case_seed}, sql: {sql})",
                        entry.query.name
                    );
                }
                queries_compared += 1;
            }
            (Err(ea), Err(eb)) => {
                // Both engines must agree a query is unanswerable.
                assert_eq!(ea.to_string(), eb.to_string());
            }
            (a, b) => panic!(
                "engines disagreed on answerability of `{sql}`: {a:?} vs {b:?} \
                 (seed {case_seed})"
            ),
        }
    }
    assert!(
        queries_compared > 0,
        "no workload query was comparable (seed {case_seed})"
    );

    // Incremental bookkeeping sanity: reused + warm + cold covers every
    // relation, and reused relations carried over bit-identically.
    assert_eq!(
        outcome.report.reused() + outcome.report.warm_solved() + outcome.report.cold_solved(),
        outcome.report.relations.len()
    );

    // Retention changes nothing the solver decides: the same delta built
    // against the full baseline of the base solve and against the
    // support-only baseline the state retains gives the same summary, diff,
    // per-relation actions and warm-start outcomes.
    let row_targets = |package: &TransferPackage| -> BTreeMap<String, u64> {
        let metadata = &package.metadata;
        metadata
            .schema
            .table_names()
            .iter()
            .map(|t| (t.clone(), metadata.row_count(t)))
            .collect()
    };
    let builder = SummaryBuilder::new(session.config().builder.clone());
    let (_, _, full_baseline) = builder
        .build_retaining(
            &package.metadata.schema,
            &row_targets(&package),
            state.constraints.by_table(),
            Some(&package.metadata),
        )
        .expect("full base build");
    assert!(full_baseline.retained_regions() >= state.baseline().retained_regions());
    let merged = &outcome.state.package;
    let delta_against = |prev: &SolveBaseline| {
        builder
            .build_delta(
                &merged.metadata.schema,
                &row_targets(merged),
                outcome.state.constraints.by_table(),
                Some(&merged.metadata),
                prev,
            )
            .expect("delta build")
    };
    let from_full = delta_against(&full_baseline);
    let from_retained = delta_against(state.baseline());
    assert_eq!(
        from_full.summary, from_retained.summary,
        "summary depends on retention (seed {case_seed})"
    );
    assert_eq!(
        from_full.diff, from_retained.diff,
        "diff depends on retention (seed {case_seed})"
    );
    let decisions = |built: &DeltaBuild| -> Vec<(String, DeltaAction, WarmOutcome)> {
        built
            .delta_report
            .relations
            .iter()
            .zip(&built.report.relations)
            .map(|(delta, stats)| (delta.table.clone(), delta.action, stats.lp.warm))
            .collect()
    };
    assert_eq!(
        decisions(&from_full),
        decisions(&from_retained),
        "solver decisions depend on retention (seed {case_seed})"
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
    let scratch_what_if = scratch_session
        .regenerate(&scenario.apply(&evolved.package))
        .expect("from-scratch scenario");
    let built = &what_if.regeneration;
    assert_same_row_totals(built, &scratch_what_if, &what);
    assert_eq!(
        what_if.feasible,
        fully_feasible(&scratch_what_if),
        "{what}: feasibility diverged"
    );
    if strict_regime(built, &scratch_what_if) {
        assert_same_achieved(built, &scratch_what_if, &what);
    }
    for relation in &built.build_report.relations {
        if relation.from_cache {
            assert_eq!(
                built.summary.relation(&relation.table),
                evolved.regeneration.summary.relation(&relation.table),
                "{what}: reused `{}` is not the evolved state's",
                relation.table
            );
        } else {
            assert_eq!(
                relation.lp.warm,
                WarmOutcome::NotAttempted,
                "{what}: re-solved `{}` was warm-started",
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
        fully_feasible: strict,
        added: delta.added.len(),
        retired: delta.retired.len(),
        reannotated,
        queries_compared,
        warm_fellback: tally.get("warm_fellback").copied().unwrap_or(0),
    }
}

/// The narrowest delta on the retail-131 fixture (10 000 `store_sales`
/// rows): one new query whose only predicate is local to `web_sales`, a
/// relation no other relation references.  It must re-solve exactly
/// `web_sales`, reuse every other relation, and still regenerate the row
/// totals of a from-scratch solve of the merged package.  Here the warm
/// start hits.  The same delta over a small base (1 000 / 330 rows, six
/// default-seed queries) falls back from its warm start and regenerates
/// 331 `web_sales` rows against the from-scratch 330: the open
/// integral-rounding gap, not covered here.
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
    assert_same_row_totals(
        &outcome.state.regeneration,
        &scratch,
        "narrow web_sales delta",
    );
}

/// Replays the committed regression seeds first — the delta analogue of a
/// `proptest-regressions` file.  The pinned set is chosen to cover every
/// delta shape (pure add, retire-only, data drift with wholesale
/// re-annotation, mixed) and must keep the strict fully-feasible path
/// exercised.  The hand-built narrow `web_sales` delta is pinned alongside.
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
        outcomes.iter().any(|(_, o)| o.fully_feasible),
        "no pinned seed exercises the strict fully-feasible path: {outcomes:?}"
    );
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
    assert!(
        outcomes.iter().any(|(_, o)| o.warm_fellback > 0),
        "no pinned seed falls back from a warm start: {outcomes:?}"
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
