//! Experiment E9: the paper's Figure 1 scenario, reproduced end to end.
//!
//! Checks the whole loop: client execution produces the annotated query plan,
//! the vendor regenerates a summary, and re-running the same query on the
//! dataless database reproduces every edge cardinality of the original AQP.

use hydra::catalog::domain::Domain;
use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::Value;
use hydra::engine::database::Database;
use hydra::query::parser::parse_query_for_schema;
use hydra::Hydra;

use hydra::catalog::types::DataType;

mod common;

fn toy_schema() -> Schema {
    SchemaBuilder::new("toy")
        .table("S", |t| {
            t.column(ColumnBuilder::new("S_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("A", DataType::BigInt).domain(Domain::integer(0, 100)))
                .column(ColumnBuilder::new("B", DataType::BigInt).domain(Domain::integer(0, 100)))
        })
        .table("T", |t| {
            t.column(ColumnBuilder::new("T_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("C", DataType::BigInt).domain(Domain::integer(0, 10)))
        })
        .table("R", |t| {
            t.column(ColumnBuilder::new("R_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("S_fk", DataType::BigInt).references("S", "S_pk"))
                .column(ColumnBuilder::new("T_fk", DataType::BigInt).references("T", "T_pk"))
        })
        .build()
        .unwrap()
}

fn toy_database(schema: &Schema) -> Database {
    let mut db = Database::empty(schema.clone());
    for i in 0..100i64 {
        db.insert(
            "S",
            vec![Value::Integer(i), Value::Integer(i), Value::Integer(99 - i)],
        )
        .unwrap();
    }
    for i in 0..10i64 {
        db.insert("T", vec![Value::Integer(i), Value::Integer(i)])
            .unwrap();
    }
    for i in 0..1000i64 {
        db.insert(
            "R",
            vec![
                Value::Integer(i),
                Value::Integer(i % 100),
                Value::Integer(i % 10),
            ],
        )
        .unwrap();
    }
    db
}

const FIG1_SQL: &str = "select * from R, S, T \
    where R.S_fk = S.S_pk and R.T_fk = T.T_pk \
    and S.A >= 20 and S.A < 60 and T.C >= 2 and T.C < 3";

#[test]
fn figure1_aqp_is_reproduced_exactly_by_the_regenerated_database() {
    let schema = toy_schema();
    let db = toy_database(&schema);
    let query = parse_query_for_schema("fig1", FIG1_SQL, &schema).unwrap();

    // Client site.
    let session = Hydra::builder().build();
    let package = session.profile(db, std::slice::from_ref(&query)).unwrap();
    let original = package.workload.entries[0].aqp.clone().unwrap();

    // Sanity of the client-side annotations for this deterministic instance.
    assert_eq!(original.root.cardinality, 40);

    // Vendor site.
    let result = session.regenerate(&package).unwrap();
    assert_eq!(result.summary.relation("R").unwrap().total_rows, 1000);

    // Every volumetric constraint of this workload is satisfied exactly.
    assert_eq!(
        result.accuracy.fraction_exact(),
        1.0,
        "constraint errors: {:?}",
        result
            .accuracy
            .checks
            .iter()
            .filter(|c| c.absolute_error > 0)
            .collect::<Vec<_>>()
    );

    // Re-executing the query on the dataless database reproduces the AQP
    // edge-for-edge: every edge's tuple-scan cardinality is its check's
    // `achieved`, which equals its `target` (all exact, above).
    let edges = common::assert_tuple_scan_matches_accuracy(&package, &result);
    assert_eq!(edges, original.root.preorder().len());
}

#[test]
fn figure1_constraint_extraction_matches_paper_description() {
    // The AQP must decompose into per-relation constraints: filters on S and T
    // and FK-conditioned constraints on R (the preprocessor of Figure 2).
    let schema = toy_schema();
    let db = toy_database(&schema);
    let query = parse_query_for_schema("fig1", FIG1_SQL, &schema).unwrap();
    let session = Hydra::builder().build();
    let package = session.profile(db, &[query]).unwrap();
    let constraints = package.workload.constraints_by_table().unwrap();

    assert!(constraints.contains_key("R"));
    assert!(constraints.contains_key("S"));
    assert!(constraints.contains_key("T"));
    let r = &constraints["R"];
    // Scan, join-with-S, join-with-S-and-T edges.
    assert_eq!(r.len(), 3);
    assert!(r.iter().any(|c| c.fk_conditions.len() == 2));
    let s = &constraints["S"];
    assert!(s
        .iter()
        .any(|c| !c.predicate.is_trivial() && c.cardinality == 40));
}
