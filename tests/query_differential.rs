//! Differential oracle for the summary-direct query executor.
//!
//! The executor's contract is absolute: for every query in the closed class,
//! the answer computed from block cardinalities alone must be **bit
//! identical** to the answer obtained by regenerating every tuple through
//! `DynamicGenerator` and aggregating them one by one.  This suite proves it
//! three ways:
//!
//! * property-based: arbitrary block structures × predicates × GROUP BY
//!   keys, checked against an *independent* in-test oracle that materializes
//!   dimensions, hash-joins real tuples and implements the documented
//!   aggregation semantics from scratch;
//! * edge cases: empty relations, predicates selecting zero blocks,
//!   predicates splitting a block, AVG over an empty group, dangling and
//!   negative foreign keys;
//! * end to end: the retail star and the supplier snowflake fixtures pushed
//!   through profiling + LP solving + alignment, then queried both ways.

use hydra::catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::datagen::exec::{ExecMode, QueryEngine};
use hydra::datagen::DynamicGenerator;
use hydra::query::exec::{AggExpr, AggFunc, AggregateQuery, AnswerRow, ColumnRef};
use hydra::query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra::query::query::{JoinEdge, SpjQuery};
use hydra::summary::summary::{DatabaseSummary, RelationSummary};
use hydra::ExecStrategy;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// The independent oracle
// ---------------------------------------------------------------------------

/// Per-aggregate oracle accumulator implementing the documented semantics
/// from scratch: exact i128 integer sums; double SUM = Σ (distinct value ×
/// multiplicity) in ascending `total_cmp` order; SQL NULL rules.
#[derive(Default, Clone)]
struct OracleAgg {
    count: u64,
    sum_int: i128,
    doubles: BTreeMap<u64, u64>,
    non_null: u64,
}

fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl OracleAgg {
    fn add(&mut self, value: Option<&Value>) {
        self.count += 1;
        match value {
            None | Some(Value::Null) | Some(Value::Varchar(_)) => {}
            Some(Value::Integer(v)) => {
                self.sum_int += *v as i128;
                self.non_null += 1;
            }
            Some(Value::Double(d)) => {
                *self.doubles.entry(total_order_key(*d)).or_insert(0) += 1;
                self.non_null += 1;
            }
            Some(Value::Boolean(b)) => {
                self.sum_int += i128::from(*b);
                self.non_null += 1;
            }
        }
    }

    fn double_total(&self) -> f64 {
        let mut acc = 0.0;
        for (&key, &n) in &self.doubles {
            let bits = if key >> 63 == 1 {
                key & !(1 << 63)
            } else {
                !key
            };
            acc += f64::from_bits(bits) * n as f64;
        }
        acc + self.sum_int as f64
    }

    fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Integer(self.count as i64),
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.doubles.is_empty() {
                    Value::Integer(self.sum_int.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                } else {
                    Value::Double(self.double_total())
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    let total = if self.doubles.is_empty() {
                        self.sum_int as f64
                    } else {
                        self.double_total()
                    };
                    Value::Double(total / self.non_null as f64)
                }
            }
        }
    }
}

/// Streams every tuple of the query's relations through `DynamicGenerator`,
/// joins them as real rows (hash maps on materialized dimensions) and
/// aggregates in-test.  Shares no evaluation code with the engine beyond the
/// `Value` comparison semantics that define the predicate language.
fn oracle_answer(generator: &DynamicGenerator, query: &AggregateQuery) -> Vec<AnswerRow> {
    let root = query.spj.root_table().expect("root").to_string();

    // Materialize every dimension: pk value -> row.
    struct Dim {
        rows: Vec<Vec<Value>>,
        by_pk: HashMap<i64, usize>,
        col_idx: BTreeMap<String, usize>,
    }
    let mut dims: BTreeMap<String, Dim> = BTreeMap::new();
    for table in &query.spj.tables {
        if *table == root {
            continue;
        }
        let t = generator.schema.table(table).expect("dim table");
        let col_idx: BTreeMap<String, usize> = t
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        let pk_col = t.primary_key_column().expect("dim pk").to_string();
        let rows: Vec<Vec<Value>> = generator.stream(table).expect("dim stream").collect();
        let pk_idx = col_idx[&pk_col];
        let by_pk = rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r[pk_idx].as_i64().map(|pk| (pk, i)))
            .collect();
        dims.insert(
            table.clone(),
            Dim {
                rows,
                by_pk,
                col_idx,
            },
        );
    }

    // Root bookkeeping.
    let root_table = generator.schema.table(&root).expect("root table");
    let root_idx: BTreeMap<String, usize> = root_table
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.clone(), i))
        .collect();

    // Order join edges so the fact side is always resolved first.
    let mut edges: Vec<&JoinEdge> = Vec::new();
    let mut pending: Vec<&JoinEdge> = query.spj.joins.iter().collect();
    let mut reachable = vec![root.clone()];
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|e| {
            if reachable.contains(&e.fact_table) {
                edges.push(e);
                reachable.push(e.dim_table.clone());
                false
            } else {
                true
            }
        });
        assert!(pending.len() < before, "disconnected join graph");
    }

    let trivial = TablePredicate::always_true();
    let pred_of =
        |table: &str| -> &TablePredicate { query.spj.predicate(table).unwrap_or(&trivial) };
    let matches_row =
        |pred: &TablePredicate, row: &[Value], idx: &BTreeMap<String, usize>| -> bool {
            pred.conjuncts().iter().all(|c| {
                idx.get(&c.column)
                    .map(|&i| c.matches(&row[i]))
                    .unwrap_or(false)
            })
        };

    let mut groups: BTreeMap<Vec<Value>, Vec<OracleAgg>> = BTreeMap::new();
    if query.group_by.is_empty() {
        groups.insert(
            Vec::new(),
            vec![OracleAgg::default(); query.aggregates.len()],
        );
    }

    for row in generator.stream(&root).expect("root stream") {
        if !matches_row(pred_of(&root), &row, &root_idx) {
            continue;
        }
        // Join resolution over real tuples.
        let mut resolved: BTreeMap<&str, usize> = BTreeMap::new();
        let mut joined = true;
        for edge in &edges {
            let fk_value = if edge.fact_table == root {
                root_idx.get(&edge.fk_column).and_then(|&i| row[i].as_i64())
            } else {
                let fact_dim = &dims[&edge.fact_table];
                resolved.get(edge.fact_table.as_str()).and_then(|&ri| {
                    fact_dim
                        .col_idx
                        .get(&edge.fk_column)
                        .and_then(|&i| fact_dim.rows[ri][i].as_i64())
                })
            };
            let dim = &dims[&edge.dim_table];
            let Some(row_index) = fk_value.and_then(|pk| dim.by_pk.get(&pk).copied()) else {
                joined = false;
                break;
            };
            if let Some(&prior) = resolved.get(edge.dim_table.as_str()) {
                if prior != row_index {
                    joined = false;
                    break;
                }
                continue;
            }
            if !matches_row(pred_of(&edge.dim_table), &dim.rows[row_index], &dim.col_idx) {
                joined = false;
                break;
            }
            resolved.insert(edge.dim_table.as_str(), row_index);
        }
        if !joined {
            continue;
        }
        let read = |col: &ColumnRef| -> Option<Value> {
            if col.table == root {
                root_idx.get(&col.column).map(|&i| row[i].clone())
            } else {
                let dim = &dims[&col.table];
                let ri = *resolved.get(col.table.as_str())?;
                dim.col_idx
                    .get(&col.column)
                    .map(|&i| dim.rows[ri][i].clone())
            }
        };
        let key: Vec<Value> = query
            .group_by
            .iter()
            .map(|c| read(c).unwrap_or(Value::Null))
            .collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| vec![OracleAgg::default(); query.aggregates.len()]);
        for (state, agg) in states.iter_mut().zip(&query.aggregates) {
            match &agg.target {
                None => state.add(None),
                Some(col) => state.add(read(col).as_ref()),
            }
        }
    }

    groups
        .into_iter()
        .map(|(key, states)| AnswerRow {
            key,
            aggregates: states
                .iter()
                .zip(&query.aggregates)
                .map(|(s, a)| s.finalize(a.func))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Arbitrary star fixtures
// ---------------------------------------------------------------------------

const CATS: [&str; 4] = ["A", "B", "C", "D"];
const PRICES: [f64; 3] = [0.1, 2.5, -1.25];

fn star_schema() -> Schema {
    SchemaBuilder::new("db")
        .table("item", |t| {
            t.column(ColumnBuilder::new("i_pk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("i_cat", DataType::Varchar(None)))
                .column(ColumnBuilder::new("i_price", DataType::Double))
        })
        .table("sales", |t| {
            t.column(ColumnBuilder::new("s_pk", DataType::BigInt).primary_key())
                .column(
                    ColumnBuilder::new("s_item_fk", DataType::BigInt).references("item", "i_pk"),
                )
                .column(ColumnBuilder::new("s_qty", DataType::Integer))
        })
        .build()
        .unwrap()
}

/// Hand-built star database: dim blocks (count, cat, price), fact blocks
/// (count, fk — possibly dangling or negative, qty).
fn star_fixture(
    dim_blocks: &[(u64, u8, u8)],
    fact_blocks: &[(u64, i64, i64)],
) -> (Schema, DatabaseSummary) {
    let mut item = RelationSummary::new("item", Some("i_pk".to_string()));
    for &(count, cat, price) in dim_blocks {
        let mut v = BTreeMap::new();
        v.insert(
            "i_cat".to_string(),
            Value::str(CATS[cat as usize % CATS.len()]),
        );
        v.insert(
            "i_price".to_string(),
            Value::Double(PRICES[price as usize % PRICES.len()]),
        );
        item.push_row(count, v);
    }
    let mut sales = RelationSummary::new("sales", Some("s_pk".to_string()));
    for &(count, fk, qty) in fact_blocks {
        let mut v = BTreeMap::new();
        v.insert("s_item_fk".to_string(), Value::Integer(fk));
        v.insert("s_qty".to_string(), Value::Integer(qty));
        sales.push_row(count, v);
    }
    let mut db = DatabaseSummary::new();
    db.insert(item);
    db.insert(sales);
    (star_schema(), db)
}

/// The joined star query under test: full aggregate list, a predicate and a
/// GROUP BY drawn from the proptest case.
fn star_query(predicate_choice: u8, pk_bound: u64, group_choice: u8) -> AggregateQuery {
    let mut spj = SpjQuery::new("diff");
    spj.add_join(JoinEdge::new("sales", "s_item_fk", "item", "i_pk"));
    match predicate_choice % 8 {
        0 => {}
        1 => {
            spj.set_predicate(
                "sales",
                TablePredicate::always_true().with(ColumnPredicate::new("s_qty", CompareOp::Ge, 2)),
            );
        }
        2 => {
            spj.set_predicate(
                "sales",
                TablePredicate::always_true()
                    .with(ColumnPredicate::new("s_qty", CompareOp::Ge, 1))
                    .with(ColumnPredicate::new("s_qty", CompareOp::Lt, 4)),
            );
        }
        3 => {
            spj.set_predicate(
                "item",
                TablePredicate::always_true().with(ColumnPredicate::new(
                    "i_cat",
                    CompareOp::Eq,
                    "B",
                )),
            );
        }
        4 => {
            spj.set_predicate(
                "item",
                TablePredicate::always_true().with(ColumnPredicate::new(
                    "i_price",
                    CompareOp::Ge,
                    0.5,
                )),
            );
        }
        5 => {
            // Splits fact blocks on the pk axis (integer literal).
            spj.set_predicate(
                "sales",
                TablePredicate::always_true().with(ColumnPredicate::new(
                    "s_pk",
                    CompareOp::Lt,
                    pk_bound as i64,
                )),
            );
        }
        6 => {
            // Splits fact blocks on the pk axis (non-integral double).
            spj.set_predicate(
                "sales",
                TablePredicate::always_true().with(ColumnPredicate::new(
                    "s_pk",
                    CompareOp::Ge,
                    pk_bound as f64 + 0.5,
                )),
            );
        }
        _ => {
            // Dimension-pk predicate: restricts which items join.
            spj.set_predicate(
                "item",
                TablePredicate::always_true().with(ColumnPredicate::new(
                    "i_pk",
                    CompareOp::Lt,
                    (pk_bound / 16) as i64,
                )),
            );
        }
    }
    let group_by = match group_choice % 7 {
        0 => vec![],
        1 => vec![ColumnRef::new("sales", "s_qty")],
        2 => vec![ColumnRef::new("item", "i_cat")],
        3 => vec![
            ColumnRef::new("item", "i_cat"),
            ColumnRef::new("sales", "s_qty"),
        ],
        4 => vec![ColumnRef::new("item", "i_pk")],
        5 => vec![ColumnRef::new("sales", "s_item_fk")],
        // Out of class: keyed on the fact's auto-numbered pk.
        _ => vec![ColumnRef::new("sales", "s_pk")],
    };
    AggregateQuery::new(
        spj,
        vec![
            AggExpr::count(),
            AggExpr::sum("sales", "s_qty"),
            AggExpr::avg("sales", "s_qty"),
            AggExpr::sum("item", "i_price"),
            AggExpr::avg("item", "i_price"),
            AggExpr::sum("sales", "s_pk"),
        ],
        group_by,
    )
}

/// Asserts the full differential contract for one generator + query: the
/// oracle, the forced tuple scan and (when in class) the summary-direct
/// executor all produce exactly the same rows.
fn assert_differential(generator: &DynamicGenerator, query: &AggregateQuery, label: &str) {
    query.validate(generator.schema).expect("valid query");
    let expected = oracle_answer(generator, query);

    let engine = QueryEngine::new(generator).with_scan_shards(3);
    let scanned = engine
        .execute_mode(query, ExecMode::ScanOnly)
        .expect("scan execution");
    assert_eq!(scanned.rows, expected, "scan vs oracle: {label}");
    assert_eq!(scanned.strategy(), ExecStrategy::TupleScan);

    match engine.execute_mode(query, ExecMode::SummaryOnly) {
        Ok(direct) => {
            assert_eq!(direct.rows, expected, "summary-direct vs oracle: {label}");
            assert_eq!(direct.strategy(), ExecStrategy::SummaryDirect);
            assert_eq!(direct.scanned_tuples, 0, "{label}");
            // Auto must take the summary-direct path for in-class queries.
            let auto = engine.execute(query).expect("auto execution");
            assert_eq!(auto.strategy(), ExecStrategy::SummaryDirect, "{label}");
            assert_eq!(auto.rows, expected, "{label}");
        }
        Err(hydra::datagen::exec::ExecError::OutOfClass(_)) => {
            // Auto must still answer — through the scan — and still agree.
            let auto = engine.execute(query).expect("auto fallback");
            assert_eq!(auto.strategy(), ExecStrategy::TupleScan, "{label}");
            assert_eq!(auto.rows, expected, "{label}");
        }
        Err(other) => panic!("unexpected executor error for {label}: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Property-based differential tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary block structures × predicates × GROUP BY keys on the joined
    /// star: summary-direct ≡ sharded scan ≡ independent oracle.
    #[test]
    fn star_queries_agree_with_the_oracle(
        dim_blocks in proptest::collection::vec((1u64..60, 0u8..4, 0u8..3), 0..8),
        fact_blocks in proptest::collection::vec((0u64..200, -5i64..300, 0i64..6), 0..12),
        predicate_choice in 0u8..8,
        pk_bound in 0u64..1_500,
        group_choice in 0u8..7,
    ) {
        let (schema, summary) = star_fixture(&dim_blocks, &fact_blocks);
        let generator = DynamicGenerator::new(&schema, &summary);
        let query = star_query(predicate_choice, pk_bound, group_choice);
        let label = format!(
            "dims={dim_blocks:?} facts={fact_blocks:?} pred={predicate_choice} \
             bound={pk_bound} group={group_choice}"
        );
        assert_differential(&generator, &query, &label);
    }

    /// Single-relation aggregates with pk-axis interval predicates: every
    /// block split point, including double literals, agrees with the oracle.
    #[test]
    fn single_table_pk_intervals_agree_with_the_oracle(
        fact_blocks in proptest::collection::vec((0u64..150, 0i64..1, 0i64..5), 1..10),
        lo in 0u64..800,
        len in 0u64..800,
        use_double in proptest::prelude::any::<bool>(),
        group_by_qty in proptest::prelude::any::<bool>(),
    ) {
        let (schema, summary) = star_fixture(&[], &fact_blocks);
        let generator = DynamicGenerator::new(&schema, &summary);
        let mut spj = SpjQuery::new("single");
        spj.add_table("sales");
        let (lo_lit, hi_lit) = if use_double {
            // Non-integral doubles straddle tuple boundaries.
            (Value::Double(lo as f64 - 0.5), Value::Double((lo + len) as f64 + 0.5))
        } else {
            (Value::Integer(lo as i64), Value::Integer((lo + len) as i64))
        };
        spj.set_predicate(
            "sales",
            TablePredicate::always_true()
                .with(ColumnPredicate::new("s_pk", CompareOp::Ge, lo_lit))
                .with(ColumnPredicate::new("s_pk", CompareOp::Lt, hi_lit)),
        );
        let query = AggregateQuery::new(
            spj,
            vec![
                AggExpr::count(),
                AggExpr::sum("sales", "s_pk"),
                AggExpr::avg("sales", "s_pk"),
                AggExpr::sum("sales", "s_qty"),
            ],
            if group_by_qty { vec![ColumnRef::new("sales", "s_qty")] } else { vec![] },
        );
        let label = format!(
            "facts={fact_blocks:?} lo={lo} len={len} double={use_double} grouped={group_by_qty}"
        );
        assert_differential(&generator, &query, &label);
    }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

#[test]
fn edge_case_empty_relation() {
    let (schema, summary) = star_fixture(&[(5, 0, 0)], &[]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let query = star_query(0, 0, 0);
    assert_differential(&generator, &query, "empty fact relation");
    // The global aggregate still answers one row: COUNT 0, SUM/AVG NULL.
    let answer = QueryEngine::new(&generator).execute(&query).unwrap();
    let row = answer.single().unwrap();
    assert_eq!(row.aggregates[0], Value::Integer(0));
    assert_eq!(row.aggregates[1], Value::Null);
    assert_eq!(row.aggregates[2], Value::Null);
}

#[test]
fn edge_case_predicate_selecting_zero_blocks() {
    let (schema, summary) = star_fixture(&[(5, 0, 0)], &[(40, 2, 1), (60, 2, 3)]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let mut query = star_query(0, 0, 0);
    query.spj.set_predicate(
        "sales",
        TablePredicate::always_true().with(ColumnPredicate::new("s_qty", CompareOp::Gt, 99)),
    );
    assert_differential(&generator, &query, "predicate selects zero blocks");
}

#[test]
fn edge_case_predicate_splitting_a_block() {
    // One 100-tuple block; the pk predicate keeps rows [37, 63).
    let (schema, summary) = star_fixture(&[(5, 1, 1)], &[(100, 2, 3)]);
    let generator = DynamicGenerator::new(&schema, &summary);
    let mut spj = SpjQuery::new("split");
    spj.add_table("sales");
    spj.set_predicate(
        "sales",
        TablePredicate::always_true()
            .with(ColumnPredicate::new("s_pk", CompareOp::Ge, 37))
            .with(ColumnPredicate::new("s_pk", CompareOp::Lt, 63)),
    );
    let query = AggregateQuery::new(
        spj,
        vec![AggExpr::count(), AggExpr::sum("sales", "s_pk")],
        vec![],
    );
    assert_differential(&generator, &query, "predicate splits a block");
    let answer = QueryEngine::new(&generator)
        .execute_mode(&query, ExecMode::SummaryOnly)
        .unwrap();
    let row = answer.single().unwrap();
    assert_eq!(row.aggregates[0], Value::Integer(26));
    assert_eq!(row.aggregates[1], Value::Integer((37..63).sum::<i64>()));
}

#[test]
fn edge_case_avg_over_empty_group() {
    // Grouped AVG where one group's SUM column is entirely NULL: the fact
    // block carries no `s_qty` value at all.
    let mut sales = RelationSummary::new("sales", Some("s_pk".to_string()));
    let mut v = BTreeMap::new();
    v.insert("s_item_fk".to_string(), Value::Integer(0));
    // No s_qty value: regenerated tuples carry NULL there.
    sales.push_row(10, v);
    let mut db = DatabaseSummary::new();
    let mut item = RelationSummary::new("item", Some("i_pk".to_string()));
    item.push_row(1, BTreeMap::new());
    db.insert(item);
    db.insert(sales);
    let schema = star_schema();
    let generator = DynamicGenerator::new(&schema, &db);

    let mut spj = SpjQuery::new("nullavg");
    spj.add_table("sales");
    let query = AggregateQuery::new(
        spj,
        vec![AggExpr::count(), AggExpr::avg("sales", "s_qty")],
        vec![ColumnRef::new("sales", "s_item_fk")],
    );
    assert_differential(&generator, &query, "AVG over all-NULL group");
    let answer = QueryEngine::new(&generator).execute(&query).unwrap();
    assert_eq!(answer.rows.len(), 1);
    assert_eq!(answer.rows[0].aggregates[0], Value::Integer(10));
    assert_eq!(answer.rows[0].aggregates[1], Value::Null);
}

#[test]
fn edge_case_dangling_and_negative_foreign_keys() {
    let (schema, summary) = star_fixture(
        &[(10, 0, 0), (10, 1, 1)],
        &[(30, 5, 1), (20, 19, 2), (40, 777, 3), (25, -3, 4)],
    );
    let generator = DynamicGenerator::new(&schema, &summary);
    let query = star_query(0, 0, 2);
    assert_differential(&generator, &query, "dangling + negative fks");
    // Only the first two fact blocks join.
    let answer = QueryEngine::new(&generator).execute(&query).unwrap();
    let total: i64 = answer
        .rows
        .iter()
        .map(|r| r.aggregates[0].as_i64().unwrap())
        .sum();
    assert_eq!(total, 50);
}

// ---------------------------------------------------------------------------
// End-to-end fixtures: retail star and supplier snowflake
// ---------------------------------------------------------------------------

#[test]
fn retail_fixture_summary_direct_equals_scan_and_oracle() {
    use hydra::workload::retail_client_fixture;
    use hydra::Hydra;

    let (db, queries) = retail_client_fixture(2_000, 600, 8);
    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).unwrap();
    let result = session.regenerate(&package).unwrap();
    let generator = result.generator();

    // Fixed assertion: the summary-direct COUNT equals the client's row
    // target — the volumetric contract the whole pipeline exists to keep.
    let count = session
        .query(&result, "select count(*) from store_sales")
        .unwrap();
    assert_eq!(count.strategy(), ExecStrategy::SummaryDirect);
    assert_eq!(count.single().unwrap().aggregates[0], Value::Integer(2_000));

    for sql in [
        "select count(*), sum(store_sales.ss_quantity) from store_sales",
        "select count(*), avg(item.i_current_price) from store_sales, item \
         where store_sales.ss_item_fk = item.i_item_sk group by item.i_category",
        "select count(*), sum(store_sales.ss_sales_price) from store_sales, item, date_dim \
         where store_sales.ss_item_fk = item.i_item_sk \
           and store_sales.ss_date_fk = date_dim.d_date_sk \
           and item.i_manager_id >= 40 and date_dim.d_year >= 2000 \
         group by date_dim.d_year",
        "select count(*), sum(store_sales.ss_sk) from store_sales \
         where store_sales.ss_sk >= 123 and store_sales.ss_sk < 1711",
    ] {
        let query =
            hydra::query::parser::parse_aggregate_query_for_schema("retail", sql, generator.schema)
                .unwrap();
        assert_differential(&generator, &query, sql);
    }
}

#[test]
fn supplier_snowflake_fixture_summary_direct_equals_scan_and_oracle() {
    use hydra::workload::supplier_client_fixture;
    use hydra::Hydra;

    let (db, queries) = supplier_client_fixture(3_000, 1_000, 6);
    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).unwrap();
    let result = session.regenerate(&package).unwrap();
    let generator = result.generator();

    // Fixed assertion on the snowflake root.
    let count = session
        .query(&result, "select count(*) from lineitem")
        .unwrap();
    assert_eq!(count.strategy(), ExecStrategy::SummaryDirect);
    assert_eq!(count.single().unwrap().aggregates[0], Value::Integer(3_000));

    for sql in [
        // Two-level snowflake with a mid-level predicate.
        "select count(*), avg(orders.o_totalprice) from lineitem, orders \
         where lineitem.l_order_fk = orders.o_orderkey \
           and orders.o_orderdate >= 9000",
        // Three-level snowflake, grouped by the leaf dimension.
        "select count(*), sum(lineitem.l_quantity) from lineitem, orders, customer \
         where lineitem.l_order_fk = orders.o_orderkey \
           and orders.o_customer_fk = customer.c_custkey \
         group by customer.c_mktsegment",
        // Mixed: root pk split + nested dimension predicate.
        "select count(*), avg(lineitem.l_discount) from lineitem, orders, customer \
         where lineitem.l_order_fk = orders.o_orderkey \
           and orders.o_customer_fk = customer.c_custkey \
           and customer.c_mktsegment = 'BUILDING' \
           and lineitem.l_linekey < 2500",
    ] {
        let query = hydra::query::parser::parse_aggregate_query_for_schema(
            "supplier",
            sql,
            generator.schema,
        )
        .unwrap();
        assert_differential(&generator, &query, sql);
    }
}
