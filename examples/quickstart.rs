//! Quickstart: the paper's Figure 1 scenario, end to end.
//!
//! Builds the toy schema `R(R_pk, S_fk, T_fk)`, `S(S_pk, A, B)`, `T(T_pk, C)`,
//! populates a small "client" database, runs the Figure 1b query to obtain its
//! annotated query plan, ships the package to the vendor, regenerates a
//! summary, and finally executes the same query on the **dataless** database —
//! printing the Table 1-style sample tuples along the way.
//!
//! Run with: `cargo run --example quickstart`

use hydra::catalog::domain::Domain;
use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::engine::database::Database;
use hydra::engine::exec::Executor;
use hydra::query::parser::parse_query_for_schema;
use hydra::query::plan::LogicalPlan;
use hydra::Hydra;

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
        .expect("toy schema is valid")
}

/// The query of Figure 1b.
const FIG1_SQL: &str = "select * from R, S, T \
    where R.S_fk = S.S_pk and R.T_fk = T.T_pk \
    and S.A >= 20 and S.A < 60 and T.C >= 2 and T.C < 3";

fn main() {
    let schema = toy_schema();

    // ---- Client site: a small warehouse -------------------------------------
    let mut client_db = Database::empty(schema.clone());
    for i in 0..100i64 {
        client_db
            .insert(
                "S",
                vec![Value::Integer(i), Value::Integer(i), Value::Integer(99 - i)],
            )
            .unwrap();
    }
    for i in 0..10i64 {
        client_db
            .insert("T", vec![Value::Integer(i), Value::Integer(i)])
            .unwrap();
    }
    for i in 0..1000i64 {
        client_db
            .insert(
                "R",
                vec![
                    Value::Integer(i),
                    Value::Integer(i % 100),
                    Value::Integer(i % 10),
                ],
            )
            .unwrap();
    }

    let query = parse_query_for_schema("fig1", FIG1_SQL, &schema).expect("query parses");
    println!("client query (Figure 1b):\n  {}\n", query.to_sql());

    let session = Hydra::builder().build();
    let package = session
        .profile(client_db, std::slice::from_ref(&query))
        .expect("client packaging");
    let aqp = package.workload.entries[0].aqp.as_ref().unwrap();
    println!("annotated query plan (Figure 1c), edge cardinalities:");
    for node in aqp.root.preorder() {
        println!("  {:<40} -> {}", node.op.name(), node.cardinality);
    }
    println!();

    // ---- Vendor site: regenerate --------------------------------------------
    let result = session.regenerate(&package).expect("regeneration");

    println!("database summary (Figure 4 style):");
    for relation in result.summary.relations.values() {
        println!("{}", relation.to_display_table(5));
    }

    // ---- Table 1: sample tuples regenerated from the summary ----------------
    println!("sample regenerated tuples of R (Table 1 pattern — PK is an auto-number):");
    let generator = result.generator();
    for row in generator.stream("R").expect("stream").take(5) {
        println!(
            "  {:?}",
            row.iter().map(Value::to_string).collect::<Vec<_>>()
        );
    }
    println!();

    // ---- Dynamic regeneration: run the query with no stored data ------------
    let plan = LogicalPlan::from_query(&query).unwrap();
    let regenerated_aqp = Executor::new(&generator)
        .run_annotated("fig1", &plan)
        .expect("dataless execution");
    println!(
        "query executed on the DATALESS database: {} output rows (client observed {})",
        regenerated_aqp.root.cardinality, aqp.root.cardinality
    );
    println!("\nregenerated AQP comparison:");
    for (orig, regen) in aqp
        .root
        .preorder()
        .iter()
        .zip(regenerated_aqp.root.preorder())
    {
        println!(
            "  {:<40} original {:>6}   regenerated {:>6}",
            orig.op.name(),
            orig.cardinality,
            regen.cardinality
        );
    }

    println!("\n{}", result.report().to_display_text());
}
