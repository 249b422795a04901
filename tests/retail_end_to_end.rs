//! Experiments E1 / E2 / E3 (integration-level): the retail warehouse with
//! the 131-query workload, checked against the paper's headline claims at a
//! laptop-friendly scale.

use hydra::core::session::Hydra;
use hydra::lp::solver::SolveStatus;
use hydra::partition::grid::GridPartition;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, retail_workload_131,
    DataGenConfig, WorkloadGenConfig, WorkloadGenerator,
};
use std::time::Duration;

mod common;

#[test]
fn retail_131_query_workload_meets_headline_claims() {
    let schema = retail_schema();
    // A reduced client volume keeps the test fast while leaving the workload
    // untouched (summary construction is data-scale-free anyway — that is the
    // point of E8).
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 8_000);
    targets.insert("web_sales".to_string(), 2_500);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = retail_workload_131(&schema);
    assert_eq!(queries.len(), 131);

    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).unwrap();
    let state = session.regenerate_stateful(&package).unwrap();
    let regen = &state.regeneration;

    // E1: summary construction finishes in far less than the paper's
    // two-minute budget and the summary is a few KB.
    assert!(
        regen.build_report.total_time < Duration::from_secs(120),
        "construction took {:?}",
        regen.build_report.total_time
    );
    assert!(
        regen.summary.size_bytes() < 256 * 1024,
        "summary is {} bytes",
        regen.summary.size_bytes()
    );

    // E2: >90% of volumetric constraints with virtually no error, and the
    // remainder within 10% relative error.
    let exact = regen.accuracy.fraction_within(0.001);
    assert!(
        exact > 0.90,
        "only {:.1}% of constraints near-exact",
        100.0 * exact
    );
    let within_10 = regen.accuracy.fraction_within(0.10);
    assert!(
        within_10 > 0.97,
        "only {:.1}% within 10%",
        100.0 * within_10
    );

    // Row counts of every relation are preserved exactly.
    for (table, rows) in &targets {
        assert_eq!(
            regen.summary.relation(table).unwrap().total_rows,
            *rows,
            "table {table}"
        );
    }

    // The per-relation LPs stay bounded and almost all are exactly feasible.
    // The bound leaves room for the interior-refined dimension summaries,
    // whose finer primary-key blocks multiply the fact relations' region
    // counts in exchange for collision-free foreign-key projections.
    //
    // E3: region partitioning needs fewer LP variables than DataSynth's grid
    // over the same constraint unions, relation by relation.  The paper
    // reports a gap of orders of magnitude; the printed rows show this
    // workload's.
    for r in &regen.build_report.relations {
        assert!(
            r.lp.variables <= 150_000,
            "{} needed {} LP variables",
            r.table,
            r.lp.variables
        );
        let partition = &state.baseline().relations[&r.table].solved.partition;
        let unions = partition.constraint_unions();
        let cells = GridPartition::build(partition.space().clone(), unions)
            .unwrap()
            .num_cells();
        println!(
            "[E3] {:<16} {:>3} unions  {:>7} regions  {:>9} grid cells  {:.1}x",
            r.table,
            unions.len(),
            r.lp.variables,
            cells,
            cells as f64 / r.lp.variables as f64
        );
        assert!(
            (r.lp.variables as u128) < cells,
            "{}: {} LP variables, {cells} grid cells",
            r.table,
            r.lp.variables
        );
    }
    let feasible = regen
        .build_report
        .relations
        .iter()
        .filter(|r| r.lp.status == SolveStatus::Feasible)
        .count();
    assert!(feasible >= regen.build_report.relations.len() - 1);
    // The one relation the LP cannot meet, and its least total violation:
    // the LP's optimum value, however many optimal vertices reach it.
    let missed: Vec<(&str, f64)> = (regen.build_report.relations.iter())
        .filter(|r| r.lp.status != SolveStatus::Feasible)
        .map(|r| (r.table.as_str(), r.lp.total_violation))
        .collect();
    assert_eq!(missed.len(), 1, "{missed:?}");
    let (table, violation) = missed[0];
    assert_eq!(table, "store_sales");
    assert!(
        (violation - 990.0).abs() <= 1e-6 * 990.0,
        "store_sales total violation {violation}"
    );

    // Re-executing all 131 queries on the dataless database reproduces every
    // check's `achieved` edge for edge: the accuracy bounds above are the
    // AQP comparison.
    let edges = common::assert_tuple_scan_matches_accuracy(&package, regen);
    assert_eq!(edges, 931);
}

#[test]
fn anonymized_package_regenerates_with_identical_volumetrics() {
    // Privacy pass must not change any cardinality behaviour.
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), 3_000);
    targets.insert("web_sales".to_string(), 800);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 12,
            ..Default::default()
        },
    )
    .generate();

    let run = |db, anonymize| {
        let session = Hydra::builder().anonymize(anonymize).build();
        let package = session.profile(db, &queries).unwrap();
        session.regenerate(&package).unwrap()
    };
    let plain = run(db.clone(), false);
    let anon = run(db, true);

    assert_eq!(plain.accuracy.len(), anon.accuracy.len());
    // Accuracy achieved under anonymization matches the plain run closely
    // (value names differ, volumetric structure does not).
    let plain_exact = plain.accuracy.fraction_exact();
    let anon_exact = anon.accuracy.fraction_exact();
    assert!(
        (plain_exact - anon_exact).abs() < 0.05,
        "plain {plain_exact} vs anonymized {anon_exact}"
    );
}
