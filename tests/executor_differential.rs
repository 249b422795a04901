//! Differential oracle for the SPJ executor that harvests AQPs.
//!
//! `hydra_engine::exec::Executor` runs plans over row-id tuples and builds
//! rows only at the root of `run`.  This suite checks it against a
//! brute-force reference written here: every operator materializes its
//! rows, a filter looks each conjunct's column up per row, and a join is a
//! nested loop with the FK side outside.  For every plan node the
//! executor's cardinality must equal the reference's count, and
//! `run(plan).rows` must equal the reference rows in the same order.
//!
//! * property-based: small retail client databases × seeded
//!   `WorkloadGenerator` workloads, all queries of a case through one
//!   executor (so its scan-once table cache is shared);
//! * hand-built cases: a NULL FK, a dangling FK, a `Varchar` equality
//!   predicate, a filter on a column its subtree lacks, a filter above a
//!   join, and a join whose FK side is the right input.

use hydra::catalog::domain::Domain;
use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::engine::database::Database;
use hydra::engine::exec::Executor;
use hydra::engine::row::Row;
use hydra::query::plan::{LogicalPlan, PlanOp};
use hydra::query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra::query::query::JoinEdge;
use hydra::workload::datagen::{generate_client_database, DataGenConfig};
use hydra::workload::queries::{WorkloadGenConfig, WorkloadGenerator};
use hydra::workload::retail::retail_schema;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The brute-force reference
// ---------------------------------------------------------------------------

/// One node's reference output: `(table, column)` labels and the rows.
struct Reference {
    columns: Vec<(String, String)>,
    rows: Vec<Row>,
}

impl Reference {
    /// The first column labelled `table.column`.
    fn position(&self, table: &str, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(t, c)| t == table && c == column)
    }
}

/// `value op constant` with SQL semantics: NULL never matches.
fn satisfies(value: &Value, predicate: &ColumnPredicate) -> bool {
    let constant = &predicate.value;
    if value.is_null() || constant.is_null() {
        return false;
    }
    match predicate.op {
        CompareOp::Eq => value == constant,
        CompareOp::Lt => value < constant,
        CompareOp::Le => value <= constant,
        CompareOp::Gt => value > constant,
        CompareOp::Ge => value >= constant,
    }
}

/// Executes `plan` by materializing every operator's rows, pushing each
/// node's row count onto `cards` in pre-order.
fn reference(db: &Database, plan: &LogicalPlan, cards: &mut Vec<u64>) -> Reference {
    let me = cards.len();
    cards.push(0);
    let out = match &plan.op {
        PlanOp::Scan { table } => {
            let mem = db.table(table).expect("scanned table exists");
            Reference {
                columns: mem
                    .schema
                    .columns()
                    .iter()
                    .map(|c| (table.clone(), c.name.clone()))
                    .collect(),
                rows: mem.rows().to_vec(),
            }
        }
        PlanOp::Filter { table, predicate } => {
            let input = reference(db, &plan.children[0], cards);
            let rows = input
                .rows
                .iter()
                .filter(|row| {
                    predicate.conjuncts().iter().all(|c| {
                        input
                            .position(table, &c.column)
                            .is_some_and(|i| satisfies(&row[i], c))
                    })
                })
                .cloned()
                .collect();
            Reference {
                columns: input.columns,
                rows,
            }
        }
        PlanOp::Join { edge } => {
            let left = reference(db, &plan.children[0], cards);
            let right = reference(db, &plan.children[1], cards);
            let joins = |fk: &Value, pk: &Value| !fk.is_null() && fk == pk;
            let mut rows = Vec::new();
            let mut emit = |l: &Row, r: &Row| rows.push(l.iter().chain(r).cloned().collect());
            match (
                left.position(&edge.fact_table, &edge.fk_column),
                right.position(&edge.dim_table, &edge.pk_column),
            ) {
                (Some(fk), Some(pk)) => {
                    for l in &left.rows {
                        for r in &right.rows {
                            if joins(&l[fk], &r[pk]) {
                                emit(l, r);
                            }
                        }
                    }
                }
                _ => {
                    let fk = right
                        .position(&edge.fact_table, &edge.fk_column)
                        .expect("FK column in one input");
                    let pk = left
                        .position(&edge.dim_table, &edge.pk_column)
                        .expect("PK column in the other input");
                    for r in &right.rows {
                        for l in &left.rows {
                            if joins(&r[fk], &l[pk]) {
                                emit(l, r);
                            }
                        }
                    }
                }
            }
            let columns = left.columns.into_iter().chain(right.columns).collect();
            Reference { columns, rows }
        }
        PlanOp::Aggregate { .. } => panic!("the SPJ executor runs no aggregates"),
    };
    cards[me] = out.rows.len() as u64;
    out
}

/// Runs `plan` through `executor` both ways and checks every node's
/// cardinality, the root's columns and its rows against the reference.
fn assert_matches_reference(executor: &Executor, db: &Database, name: &str, plan: &LogicalPlan) {
    let mut cards = Vec::new();
    let expected = reference(db, plan, &mut cards);

    let aqp = executor.run_annotated(name, plan).expect("run_annotated");
    let annotated: Vec<u64> = aqp.root.preorder().iter().map(|n| n.cardinality).collect();
    assert_eq!(
        annotated,
        cards,
        "{name}: AQP cardinalities\n{}",
        plan.explain()
    );

    let result = executor.run(plan).expect("run");
    assert_eq!(
        result.node_cardinalities, cards,
        "{name}: run cardinalities"
    );
    let columns: Vec<(String, String)> = result
        .columns
        .iter()
        .map(|c| (c.table.clone(), c.column.clone()))
        .collect();
    assert_eq!(columns, expected.columns, "{name}: output columns");
    assert!(
        result.rows == expected.rows,
        "{name}: {} rows differ from the reference's {}",
        result.rows.len(),
        expected.rows.len()
    );
}

// ---------------------------------------------------------------------------
// Seeded retail workloads
// ---------------------------------------------------------------------------

/// A retail client database small enough for nested loops.
fn small_retail(seed: u64) -> Database {
    let targets: BTreeMap<String, u64> = [
        ("date_dim", 120),
        ("item", 40),
        ("customer", 60),
        ("store", 8),
        ("promotion", 10),
        ("store_sales", 240),
        ("web_sales", 90),
    ]
    .into_iter()
    .map(|(t, n)| (t.to_string(), n))
    .collect();
    generate_client_database(
        &retail_schema(),
        &targets,
        &DataGenConfig {
            seed,
            ..Default::default()
        },
    )
}

fn run_case(seed: u64) {
    let db = small_retail(seed);
    let queries = WorkloadGenerator::new(
        retail_schema(),
        WorkloadGenConfig {
            seed,
            num_queries: 4,
            ..Default::default()
        },
    )
    .generate();
    let executor = Executor::new(&db);
    for query in &queries {
        let plan = LogicalPlan::from_query(query).expect("plan");
        assert_matches_reference(
            &executor,
            &db,
            &format!("seed {seed} {}", query.name),
            &plan,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded retail databases and workloads: executor ≡ nested loops.
    /// CI cranks this to 512 cases via `PROPTEST_CASES`.
    #[test]
    fn retail_workloads_match_the_nested_loop_reference(seed in 0u64..(1u64 << 48)) {
        run_case(seed);
    }
}

// ---------------------------------------------------------------------------
// Hand-built cases
// ---------------------------------------------------------------------------

/// Figure 1's R(R_pk, S_fk, T_fk) → S(S_pk, A, cat), T(T_pk, C), with a
/// nullable `S_fk` and a `Varchar` category on S.
fn toy_schema() -> Schema {
    SchemaBuilder::new("toy")
        .table("S", |t| {
            t.column(ColumnBuilder::new("S_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("A", DataType::BigInt).domain(Domain::integer(0, 100)))
                .column(
                    ColumnBuilder::new("cat", DataType::Varchar(None))
                        .domain(Domain::categorical(["Books", "Music", "Women"])),
                )
        })
        .table("T", |t| {
            t.column(ColumnBuilder::new("T_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("C", DataType::BigInt).domain(Domain::integer(0, 10)))
        })
        .table("R", |t| {
            t.column(ColumnBuilder::new("R_pk", DataType::BigInt).primary_key())
                .column(
                    ColumnBuilder::new("S_fk", DataType::BigInt)
                        .references("S", "S_pk")
                        .nullable(),
                )
                .column(ColumnBuilder::new("T_fk", DataType::BigInt).references("T", "T_pk"))
        })
        .build()
        .unwrap()
}

/// S: 20 rows, `A = i`, `cat` cycling over three values.  T: 5 rows,
/// `C = i`.  R: 60 rows, `S_fk = i % 23` (17 of them past S's keys, so
/// dangling), every seventh `S_fk` NULL, `T_fk = i % 5`.
fn toy_db() -> Database {
    let mut db = Database::empty(toy_schema());
    let cats = ["Books", "Music", "Women"];
    for i in 0..20 {
        db.insert(
            "S",
            vec![
                Value::Integer(i),
                Value::Integer(i),
                Value::str(cats[i as usize % 3]),
            ],
        )
        .unwrap();
    }
    for i in 0..5 {
        db.insert("T", vec![Value::Integer(i), Value::Integer(i)])
            .unwrap();
    }
    for i in 0..60 {
        let s_fk = if i % 7 == 3 {
            Value::Null
        } else {
            Value::Integer(i % 23)
        };
        db.insert("R", vec![Value::Integer(i), s_fk, Value::Integer(i % 5)])
            .unwrap();
    }
    db
}

fn r_s() -> JoinEdge {
    JoinEdge::new("R", "S_fk", "S", "S_pk")
}

fn r_t() -> JoinEdge {
    JoinEdge::new("R", "T_fk", "T", "T_pk")
}

fn pred(column: &str, op: CompareOp, value: impl Into<Value>) -> TablePredicate {
    TablePredicate::always_true().with(ColumnPredicate::new(column, op, value))
}

fn check(name: &str, plan: &LogicalPlan) {
    let db = toy_db();
    assert_matches_reference(&Executor::new(&db), &db, name, plan);
}

#[test]
fn null_and_dangling_fks_never_join() {
    let plan = LogicalPlan::join(r_s(), LogicalPlan::scan("R"), LogicalPlan::scan("S"));
    check("null_and_dangling", &plan);
    let db = toy_db();
    // 60 rows, minus the NULL ones, minus those whose key is past S's.
    let expected = (0..60).filter(|i| i % 7 != 3 && i % 23 < 20).count() as u64;
    let result = Executor::new(&db).run(&plan).unwrap();
    assert_eq!(result.root_cardinality(), expected);
    assert!(expected < 60 - 60 / 7, "the fixture has dangling keys");
}

#[test]
fn varchar_equality_predicate() {
    let plan = LogicalPlan::join(
        r_s(),
        LogicalPlan::scan("R"),
        LogicalPlan::filter(
            "S",
            pred("cat", CompareOp::Eq, "Music"),
            LogicalPlan::scan("S"),
        ),
    );
    check("varchar_eq", &plan);
}

#[test]
fn filter_on_a_column_its_subtree_lacks_selects_nothing() {
    // `S.A` over a scan of R: the conjunct cannot be resolved, so it fails.
    let plan = LogicalPlan::filter("S", pred("A", CompareOp::Ge, 0), LogicalPlan::scan("R"));
    check("missing_table", &plan);
    // A column S does not have.
    let plan = LogicalPlan::filter("S", pred("nope", CompareOp::Ge, 0), LogicalPlan::scan("S"));
    check("missing_column", &plan);
    let db = toy_db();
    assert_eq!(Executor::new(&db).run(&plan).unwrap().root_cardinality(), 0);
}

#[test]
fn filter_above_a_join() {
    let join = LogicalPlan::join(
        r_t(),
        LogicalPlan::join(r_s(), LogicalPlan::scan("R"), LogicalPlan::scan("S")),
        LogicalPlan::scan("T"),
    );
    let on_dim = LogicalPlan::filter("S", pred("A", CompareOp::Lt, 12), join.clone());
    check("filter_on_dim_above_join", &on_dim);
    let on_fact = LogicalPlan::filter(
        "R",
        pred("T_fk", CompareOp::Ge, 2).with(ColumnPredicate::new("R_pk", CompareOp::Lt, 50)),
        join,
    );
    check("filter_on_fact_above_join", &on_fact);
}

#[test]
fn join_with_the_fk_side_on_the_right() {
    let plan = LogicalPlan::join(
        r_s(),
        LogicalPlan::filter("S", pred("A", CompareOp::Ge, 5), LogicalPlan::scan("S")),
        LogicalPlan::join(r_t(), LogicalPlan::scan("R"), LogicalPlan::scan("T")),
    );
    check("fk_on_the_right", &plan);
}

#[test]
fn one_executor_serves_every_plan_from_its_first_scan() {
    // The scan-once cache must not leak one plan's output into the next.
    let db = toy_db();
    let executor = Executor::new(&db);
    let plans = [
        LogicalPlan::scan("R"),
        LogicalPlan::filter("R", pred("T_fk", CompareOp::Eq, 1), LogicalPlan::scan("R")),
        LogicalPlan::join(r_s(), LogicalPlan::scan("R"), LogicalPlan::scan("S")),
        LogicalPlan::scan("R"),
    ];
    for (i, plan) in plans.iter().enumerate() {
        assert_matches_reference(&executor, &db, &format!("plan {i}"), plan);
    }
}
