//! Plan execution with per-operator cardinality instrumentation.
//!
//! [`Executor::run`] evaluates a logical plan bottom-up and records every
//! operator's output row count.  The counts, in plan pre-order, are exactly
//! the annotations of an AQP — [`Executor::run_annotated`] returns them
//! packaged as an [`AnnotatedQueryPlan`].
//!
//! An executor fetches each base table from its [`TableProvider`] once and
//! keeps it for its own lifetime, so running a whole workload through one
//! executor reads every table once.  Operators pass *row-id tuples* — one
//! row id per scan in their subtree — rather than rows: a filter reads the
//! borrowed base row, a PK–FK join hashes borrowed key values and
//! concatenates id tuples.  Rows are materialized only at the root of
//! [`Executor::run`]; annotation needs the counts alone.
//!
//! Scans are served through the [`TableProvider`] trait, so the same executor
//! runs over a materialized [`crate::database::Database`] (client site) or
//! over a dataless, dynamically generated database (vendor site, see
//! `hydra-datagen`).

use crate::error::{EngineError, EngineResult};
use crate::row::{OutputColumn, Row};
use hydra_catalog::types::Value;
use hydra_query::aqp::AnnotatedQueryPlan;
use hydra_query::plan::{LogicalPlan, PlanOp};
use hydra_query::query::SpjQuery;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Supplies rows for base-table scans.
pub trait TableProvider {
    /// Column names of the table, in order, or `None` if the table is unknown.
    fn table_columns(&self, table: &str) -> Option<Vec<String>>;
    /// An iterator over the table's rows, or `None` if the table is unknown.
    fn scan(&self, table: &str) -> Option<Box<dyn Iterator<Item = Row> + '_>>;
    /// Estimated (or exact) row count, if known.
    fn estimated_rows(&self, table: &str) -> Option<u64>;
}

/// The materialized output of a plan execution.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Layout of `rows`.
    pub columns: Vec<OutputColumn>,
    /// Output rows of the plan root.
    pub rows: Vec<Row>,
    /// Output cardinality of every plan node, in pre-order.
    pub node_cardinalities: Vec<u64>,
}

impl ExecutionResult {
    /// Output cardinality of the plan root.
    pub fn root_cardinality(&self) -> u64 {
        self.node_cardinalities.first().copied().unwrap_or(0)
    }
}

/// The most rows a base table may have, so that its row ids fit in `u32`.
const MAX_TABLE_ROWS: usize = u32::MAX as usize;

/// Ends a match chain in a join's hash table.
const NO_MATCH: u32 = u32::MAX;

/// A base table as fetched from the provider: the executor's one copy.
struct BaseTable {
    name: String,
    columns: Vec<String>,
    rows: Vec<Row>,
}

/// An operator's output: tuples of row ids, one per scan in its subtree.
struct Tuples {
    /// The scanned tables, in output-column order.
    slots: Vec<Rc<BaseTable>>,
    /// The row ids, `slots.len()` per tuple.
    ids: Vec<u32>,
}

impl Tuples {
    fn len(&self) -> usize {
        self.ids.len() / self.slots.len()
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, u32> {
        self.ids.chunks_exact(self.slots.len())
    }

    /// Where `table.column` lives, as `(slot, column index)`: the first slot
    /// scanning `table` — the column [`crate::row::find_column`] finds in
    /// the concatenated output columns.
    fn locate(&self, table: &str, column: &str) -> Option<(usize, usize)> {
        let slot = self.slots.iter().position(|t| t.name == table)?;
        let col = self.slots[slot].columns.iter().position(|c| c == column)?;
        Some((slot, col))
    }

    /// The value at `(slot, column)` of one tuple, borrowed from its base row.
    fn value(&self, tuple: &[u32], (slot, col): (usize, usize)) -> &Value {
        &self.slots[slot].rows[tuple[slot] as usize][col]
    }
}

/// Collects a scan, refusing more than `limit` rows.
fn collect_rows(
    table: &str,
    scan: impl Iterator<Item = Row>,
    limit: usize,
) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    for row in scan {
        if rows.len() == limit {
            return Err(EngineError::TableTooLarge(format!(
                "`{table}` has more than {limit} rows"
            )));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Executes logical plans against a [`TableProvider`].
pub struct Executor<'a> {
    provider: &'a dyn TableProvider,
    /// Every base table scanned so far, fetched once.
    tables: RefCell<HashMap<String, Rc<BaseTable>>>,
}

impl<'a> Executor<'a> {
    /// Creates an executor over the given provider.
    pub fn new(provider: &'a dyn TableProvider) -> Self {
        Executor {
            provider,
            tables: RefCell::new(HashMap::new()),
        }
    }

    /// Executes a plan, returning its output rows and per-node cardinalities.
    pub fn run(&self, plan: &LogicalPlan) -> EngineResult<ExecutionResult> {
        let (root, node_cardinalities) = self.execute(plan)?;
        let columns = root
            .slots
            .iter()
            .flat_map(|t| t.columns.iter().map(|c| OutputColumn::new(&t.name, c)))
            .collect();
        let rows = root
            .iter()
            .map(|tuple| {
                tuple
                    .iter()
                    .zip(&root.slots)
                    .flat_map(|(&id, t)| t.rows[id as usize].iter().cloned())
                    .collect()
            })
            .collect();
        Ok(ExecutionResult {
            columns,
            rows,
            node_cardinalities,
        })
    }

    /// Executes a plan and packages the observed cardinalities as an AQP.
    /// No output row is built.
    pub fn run_annotated(
        &self,
        query_name: &str,
        plan: &LogicalPlan,
    ) -> EngineResult<AnnotatedQueryPlan> {
        let (_, cards) = self.execute(plan)?;
        AnnotatedQueryPlan::from_plan_with_cardinalities(query_name, plan, &cards)
            .map_err(|e| EngineError::BadPlan(e.to_string()))
    }

    /// Convenience: plans and executes an [`SpjQuery`], returning its AQP.
    pub fn run_query(&self, query: &SpjQuery) -> EngineResult<AnnotatedQueryPlan> {
        let plan =
            LogicalPlan::from_query(query).map_err(|e| EngineError::BadPlan(e.to_string()))?;
        self.run_annotated(&query.name, &plan)
    }

    /// Executes a plan into its root's id tuples and every node's
    /// cardinality, in pre-order.
    fn execute(&self, plan: &LogicalPlan) -> EngineResult<(Tuples, Vec<u64>)> {
        let mut cards = vec![0u64; plan.node_count()];
        let mut next_index = 0usize;
        let root = self.exec_node(plan, &mut cards, &mut next_index)?;
        Ok((root, cards))
    }

    fn exec_node(
        &self,
        plan: &LogicalPlan,
        cards: &mut [u64],
        next_index: &mut usize,
    ) -> EngineResult<Tuples> {
        let my_index = *next_index;
        *next_index += 1;
        let out = match &plan.op {
            PlanOp::Scan { table } => {
                let table = self.table(table)?;
                Tuples {
                    ids: (0..table.rows.len() as u32).collect(),
                    slots: vec![table],
                }
            }
            PlanOp::Filter { table, predicate } => {
                if plan.children.len() != 1 {
                    return Err(EngineError::BadPlan(
                        "filter needs exactly one input".into(),
                    ));
                }
                let input = self.exec_node(&plan.children[0], cards, next_index)?;
                // Each conjunct's column is resolved once; one the input
                // lacks fails the conjunct, and so every row.
                let conjuncts: Option<Vec<_>> = predicate
                    .conjuncts()
                    .iter()
                    .map(|c| input.locate(table, &c.column).map(|at| (at, c)))
                    .collect();
                let ids = match conjuncts {
                    Some(conjuncts) => input
                        .iter()
                        .filter(|tuple| {
                            conjuncts
                                .iter()
                                .all(|&(at, c)| c.matches(input.value(tuple, at)))
                        })
                        .flatten()
                        .copied()
                        .collect(),
                    None => Vec::new(),
                };
                Tuples {
                    slots: input.slots,
                    ids,
                }
            }
            PlanOp::Join { edge } => {
                if plan.children.len() != 2 {
                    return Err(EngineError::BadPlan("join needs exactly two inputs".into()));
                }
                let left = self.exec_node(&plan.children[0], cards, next_index)?;
                let right = self.exec_node(&plan.children[1], cards, next_index)?;

                // Locate the FK column (fact side) and PK column (dim side)
                // in whichever child carries them.
                let fk_in_left = left.locate(&edge.fact_table, &edge.fk_column);
                let pk_in_right = right.locate(&edge.dim_table, &edge.pk_column);
                let fk_in_right = right.locate(&edge.fact_table, &edge.fk_column);
                let pk_in_left = left.locate(&edge.dim_table, &edge.pk_column);
                let (probe, probe_key, build, build_key, probe_is_left) =
                    match (fk_in_left, pk_in_right, fk_in_right, pk_in_left) {
                        (Some(fk), Some(pk), _, _) => (&left, fk, &right, pk, true),
                        (_, _, Some(fk), Some(pk)) => (&right, fk, &left, pk, false),
                        _ => {
                            return Err(EngineError::UnknownColumn(format!(
                                "join columns for `{}` not found in inputs",
                                edge.to_sql()
                            )))
                        }
                    };

                // Hash join: build on the dimension (PK) side, probe with the
                // fact (FK) side.  NULL keys are never hashed, so a NULL FK
                // matches nothing.  Each key's build tuples form a chain of
                // `u32` links through `next`, threaded backwards so it reads
                // in build order.
                if build.len() >= NO_MATCH as usize {
                    return Err(EngineError::TableTooLarge(format!(
                        "the PK side of `{}` has {} tuples",
                        edge.to_sql(),
                        build.len()
                    )));
                }
                let mut head: HashMap<&Value, u32> = HashMap::new();
                let mut next = vec![NO_MATCH; build.len()];
                for (i, tuple) in build.iter().enumerate().rev() {
                    let key = build.value(tuple, build_key);
                    if !key.is_null() {
                        next[i] = head.insert(key, i as u32).unwrap_or(NO_MATCH);
                    }
                }
                let build_width = build.slots.len();
                let mut ids = Vec::new();
                for tuple in probe.iter() {
                    let key = probe.value(tuple, probe_key);
                    let mut m = head.get(key).copied().unwrap_or(NO_MATCH);
                    while m != NO_MATCH {
                        let matched = &build.ids[m as usize * build_width..][..build_width];
                        if probe_is_left {
                            ids.extend_from_slice(tuple);
                            ids.extend_from_slice(matched);
                        } else {
                            ids.extend_from_slice(matched);
                            ids.extend_from_slice(tuple);
                        }
                        m = next[m as usize];
                    }
                }
                let slots = left.slots.iter().chain(&right.slots).cloned().collect();
                Tuples { slots, ids }
            }
            PlanOp::Aggregate { .. } => {
                // This executor materializes SPJ outputs for AQP harvesting;
                // aggregate roots are answered by the summary-direct /
                // tuple-scan engine in hydra-datagen instead.
                return Err(EngineError::BadPlan(
                    "aggregate operators are not executed by the SPJ executor; \
                     use the query engine (hydra-datagen::exec)"
                        .into(),
                ));
            }
        };
        cards[my_index] = out.len() as u64;
        Ok(out)
    }

    /// The base table `name`, fetched from the provider on first use.
    fn table(&self, name: &str) -> EngineResult<Rc<BaseTable>> {
        if let Some(table) = self.tables.borrow().get(name) {
            return Ok(Rc::clone(table));
        }
        let unknown = || EngineError::UnknownTable(name.to_string());
        let columns = self.provider.table_columns(name).ok_or_else(unknown)?;
        let scan = self.provider.scan(name).ok_or_else(unknown)?;
        let table = Rc::new(BaseTable {
            name: name.to_string(),
            columns,
            rows: collect_rows(name, scan, MAX_TABLE_ROWS)?,
        });
        self.tables
            .borrow_mut()
            .insert(name.to_string(), Rc::clone(&table));
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::row::find_column;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};
    use hydra_query::parser::parse_query_for_schema;
    use hydra_query::plan::LogicalPlan;

    /// The paper's Figure 1 scenario: R(R_pk, S_fk, T_fk), S(S_pk, A, B), T(T_pk, C).
    fn toy_schema() -> Schema {
        SchemaBuilder::new("toy")
            .table("S", |t| {
                t.column(ColumnBuilder::new("S_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("A", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
                    .column(
                        ColumnBuilder::new("B", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
            })
            .table("T", |t| {
                t.column(ColumnBuilder::new("T_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("C", DataType::BigInt).domain(Domain::integer(0, 10)),
                    )
            })
            .table("R", |t| {
                t.column(ColumnBuilder::new("R_pk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("S_fk", DataType::BigInt).references("S", "S_pk"))
                    .column(ColumnBuilder::new("T_fk", DataType::BigInt).references("T", "T_pk"))
            })
            .build()
            .unwrap()
    }

    /// Deterministic toy instance:
    /// * S has 100 rows, S_pk = i, A = i (so 20 <= A < 60 selects 40 rows).
    /// * T has 10 rows, T_pk = i, C = i (so 2 <= C < 3 selects 1 row).
    /// * R has 1000 rows, S_fk = i % 100, T_fk = i % 10.
    fn toy_db() -> Database {
        let mut db = Database::empty(toy_schema());
        for i in 0..100 {
            db.insert(
                "S",
                vec![Value::Integer(i), Value::Integer(i), Value::Integer(99 - i)],
            )
            .unwrap();
        }
        for i in 0..10 {
            db.insert("T", vec![Value::Integer(i), Value::Integer(i)])
                .unwrap();
        }
        for i in 0..1000 {
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
    fn scan_execution() {
        let db = toy_db();
        let plan = LogicalPlan::scan("S");
        let result = Executor::new(&db).run(&plan).unwrap();
        assert_eq!(result.rows.len(), 100);
        assert_eq!(result.columns.len(), 3);
        assert_eq!(result.root_cardinality(), 100);
    }

    #[test]
    fn unknown_table_fails() {
        let db = toy_db();
        let plan = LogicalPlan::scan("missing");
        assert!(matches!(
            Executor::new(&db).run(&plan),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn filter_execution() {
        let db = toy_db();
        let schema = toy_schema();
        let q =
            parse_query_for_schema("q", "select * from S where S.A >= 20 and S.A < 60", &schema)
                .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let result = Executor::new(&db).run(&plan).unwrap();
        assert_eq!(result.rows.len(), 40);
    }

    #[test]
    fn figure1_join_cardinalities() {
        let db = toy_db();
        let schema = toy_schema();
        let q = parse_query_for_schema("fig1", FIG1_SQL, &schema).unwrap();
        let aqp = Executor::new(&db).run_query(&q).unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let result = Executor::new(&db).run(&plan).unwrap();

        // Selectivities: σ(S) keeps S_pk in [20,60) → R rows with S_fk in that
        // range: 400.  σ(T) keeps T_pk = 2 → of those, the ones with T_fk = 2.
        // R rows have S_fk = i % 100 and T_fk = i % 10; S_fk in [20,60) and
        // T_fk = 2 → i % 100 in {22,32,42,52} → 40 rows.
        assert_eq!(result.rows.len(), 40);
        assert_eq!(aqp.root.cardinality, 40);

        // Check the full set of annotations via the constraint extraction.
        let constraints = aqp.constraints().unwrap();
        let filter_s = constraints
            .iter()
            .find(|c| c.table == "S" && !c.predicate.is_trivial())
            .unwrap();
        assert_eq!(filter_s.cardinality, 40);
        let join_s = constraints
            .iter()
            .find(|c| c.table == "R" && c.fk_conditions.len() == 1)
            .unwrap();
        assert_eq!(join_s.cardinality, 400);
        let scan_r = constraints
            .iter()
            .find(|c| c.table == "R" && c.is_total_row_count())
            .unwrap();
        assert_eq!(scan_r.cardinality, 1000);
    }

    #[test]
    fn join_output_columns_include_both_sides() {
        let db = toy_db();
        let schema = toy_schema();
        let q = parse_query_for_schema("q", "select * from R, S where R.S_fk = S.S_pk", &schema)
            .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let result = Executor::new(&db).run(&plan).unwrap();
        assert_eq!(result.rows.len(), 1000);
        assert_eq!(result.columns.len(), 6); // 3 from R + 3 from S
                                             // Every output row's S_fk equals its S_pk.
        let fk = find_column(&result.columns, "R", "S_fk").unwrap();
        let pk = find_column(&result.columns, "S", "S_pk").unwrap();
        assert!(result.rows.iter().all(|r| r[fk] == r[pk]));
    }

    #[test]
    fn join_with_dangling_fk_drops_rows() {
        let mut db = toy_db();
        // An R row referencing a non-existent S_pk.
        db.insert(
            "R",
            vec![
                Value::Integer(5000),
                Value::Integer(5000),
                Value::Integer(0),
            ],
        )
        .unwrap();
        let schema = toy_schema();
        let q = parse_query_for_schema("q", "select * from R, S where R.S_fk = S.S_pk", &schema)
            .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let result = Executor::new(&db).run(&plan).unwrap();
        assert_eq!(result.rows.len(), 1000); // dangling row contributes nothing
    }

    #[test]
    fn null_fk_never_joins() {
        let schema = SchemaBuilder::new("n")
            .table("D", |t| {
                t.column(ColumnBuilder::new("d_pk", DataType::BigInt).primary_key())
            })
            .table("F", |t| {
                t.column(ColumnBuilder::new("f_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("d_fk", DataType::BigInt)
                            .references("D", "d_pk")
                            .nullable(),
                    )
            })
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert("D", vec![Value::Integer(0)]).unwrap();
        db.insert("F", vec![Value::Integer(0), Value::Integer(0)])
            .unwrap();
        db.insert("F", vec![Value::Integer(1), Value::Null])
            .unwrap();
        let q = parse_query_for_schema("q", "select * from F, D where F.d_fk = D.d_pk", &schema)
            .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let result = Executor::new(&db).run(&plan).unwrap();
        assert_eq!(result.rows.len(), 1);
    }

    /// Counts the scans a provider serves.
    struct CountingProvider {
        db: Database,
        scans: std::cell::Cell<usize>,
    }

    impl TableProvider for CountingProvider {
        fn table_columns(&self, table: &str) -> Option<Vec<String>> {
            self.db.table_columns(table)
        }
        fn scan(&self, table: &str) -> Option<Box<dyn Iterator<Item = Row> + '_>> {
            self.scans.set(self.scans.get() + 1);
            self.db.scan(table)
        }
        fn estimated_rows(&self, table: &str) -> Option<u64> {
            self.db.estimated_rows(table)
        }
    }

    #[test]
    fn an_executor_scans_each_table_once() {
        let provider = CountingProvider {
            db: toy_db(),
            scans: std::cell::Cell::new(0),
        };
        let q = parse_query_for_schema("fig1", FIG1_SQL, &toy_schema()).unwrap();
        let executor = Executor::new(&provider);
        let first = executor.run_query(&q).unwrap();
        let second = executor.run_query(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            executor.run(&LogicalPlan::scan("R")).unwrap().rows.len(),
            1000
        );
        assert_eq!(provider.scans.get(), 3, "R, S and T, once each");
    }

    #[test]
    fn a_table_past_the_row_id_limit_is_an_error() {
        let rows = || (0..4).map(|i| vec![Value::Integer(i)]);
        assert_eq!(collect_rows("t", rows(), 4).unwrap().len(), 4);
        assert!(matches!(
            collect_rows("t", rows(), 3),
            Err(EngineError::TableTooLarge(msg)) if msg.contains("`t`")
        ));
    }

    #[test]
    fn annotated_plan_shape_matches_logical_plan() {
        let db = toy_db();
        let schema = toy_schema();
        let q = parse_query_for_schema("fig1", FIG1_SQL, &schema).unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let aqp = Executor::new(&db).run_annotated("fig1", &plan).unwrap();
        assert_eq!(aqp.edge_count(), plan.node_count());
        // Scan cardinalities appear in the AQP exactly as observed.
        let scan_cards: Vec<u64> = aqp
            .root
            .preorder()
            .into_iter()
            .filter(|n| matches!(n.op, PlanOp::Scan { .. }))
            .map(|n| n.cardinality)
            .collect();
        assert!(scan_cards.contains(&1000));
        assert!(scan_cards.contains(&100));
        assert!(scan_cards.contains(&10));
    }
}
