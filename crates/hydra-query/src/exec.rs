//! The aggregate query model and the shared, order-independent aggregation
//! kernel behind summary-direct query answering.
//!
//! HYDRA's central claim is that the LP-solved summary *is* the database:
//! every volumetric question in the closed SPJ workload class — COUNT / SUM /
//! AVG aggregates with conjunctive range/equality predicates, key–FK joins
//! and GROUP BY — is answerable from region (block) cardinalities alone,
//! without materializing a tuple.  This module defines that workload class
//! ([`AggregateQuery`]), the answer shape ([`QueryAnswer`]), and the
//! aggregation kernel ([`Aggregator`]) shared by *both* evaluation
//! strategies:
//!
//! * the **summary-direct** executor (`hydra-summary::exec`) feeds the kernel
//!   one contribution per summary block (closed-form: a value × multiplicity,
//!   or a primary-key range);
//! * the **tuple-scan** executor (`hydra-datagen::exec`) feeds it one
//!   contribution per regenerated tuple.
//!
//! ## Exact, order-independent aggregation semantics
//!
//! For the differential guarantee — summary-direct answers must be *bit
//! identical* to a tuple scan — every aggregate is defined so that its result
//! does not depend on evaluation order or grouping of the input:
//!
//! * `COUNT(*)` and integer `SUM` accumulate in 128-bit integers, which are
//!   associative and exact.
//! * `SUM` over DOUBLE columns is **defined** as Σ (distinct value ×
//!   multiplicity), summed in ascending value order ([`f64::total_cmp`]).
//!   Accumulation therefore builds a value → multiplicity multiset; blockwise
//!   (`v × n`), sharded, and sequential evaluation all build the same
//!   multiset and finalize through the same fold, so they agree bit-for-bit
//!   where naive left-to-right floating-point addition would not.
//! * `AVG` is the double quotient of the `SUM` defined above and the
//!   non-NULL count.
//!
//! NULLs follow SQL semantics: they are skipped by `SUM`/`AVG`, an empty
//! `SUM`/`AVG` is NULL, and `COUNT(*)` of an empty group is 0.

use crate::error::{QueryError, QueryResult};
use crate::query::SpjQuery;
use hydra_catalog::schema::Schema;
use hydra_catalog::types::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A qualified `table.column` reference in a select or GROUP BY list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Owning table.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Creates a reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: table.into(),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// An aggregate function of the closed workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)` — number of qualifying (joined) tuples.
    Count,
    /// `SUM(column)` — exact integer sum, or the order-independent double
    /// sum defined in the module docs.
    Sum,
    /// `AVG(column)` — `SUM / non-NULL count` as a double.
    Avg,
}

/// One aggregate expression of a select list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated column (`None` for `COUNT(*)`).
    pub target: Option<ColumnRef>,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count() -> Self {
        AggExpr {
            func: AggFunc::Count,
            target: None,
        }
    }

    /// `SUM(table.column)`.
    pub fn sum(table: impl Into<String>, column: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Sum,
            target: Some(ColumnRef::new(table, column)),
        }
    }

    /// `AVG(table.column)`.
    pub fn avg(table: impl Into<String>, column: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Avg,
            target: Some(ColumnRef::new(table, column)),
        }
    }

    /// SQL rendering (`sum(t.c)`), used as the answer column name.
    pub fn to_sql(&self) -> String {
        match (&self.func, &self.target) {
            (AggFunc::Count, _) => "count(*)".to_string(),
            (AggFunc::Sum, Some(c)) => format!("sum({c})"),
            (AggFunc::Avg, Some(c)) => format!("avg({c})"),
            (f, None) => format!("{f:?}(?)").to_lowercase(),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sql())
    }
}

/// An aggregate SPJ query: the SPJ body (tables, predicates, FK joins) plus
/// an aggregate select list and optional GROUP BY.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateQuery {
    /// The SPJ body.
    pub spj: SpjQuery,
    /// The aggregate select list (at least one entry).
    pub aggregates: Vec<AggExpr>,
    /// GROUP BY columns (possibly empty: one global group).
    pub group_by: Vec<ColumnRef>,
}

impl AggregateQuery {
    /// Wraps an SPJ body with a select list and GROUP BY.
    pub fn new(spj: SpjQuery, aggregates: Vec<AggExpr>, group_by: Vec<ColumnRef>) -> Self {
        AggregateQuery {
            spj,
            aggregates,
            group_by,
        }
    }

    /// Every column reference of the select list and GROUP BY.
    fn referenced_columns(&self) -> impl Iterator<Item = &ColumnRef> {
        self.aggregates
            .iter()
            .filter_map(|a| a.target.as_ref())
            .chain(self.group_by.iter())
    }

    /// Validates the query against a schema: the SPJ body validates, every
    /// referenced column exists in a table of the FROM list, and SUM/AVG
    /// targets are numeric.
    pub fn validate(&self, schema: &Schema) -> QueryResult<()> {
        self.spj.validate(schema)?;
        if self.aggregates.is_empty() {
            return Err(QueryError::Unsupported(
                "aggregate query has an empty select list".into(),
            ));
        }
        for col in self.referenced_columns() {
            if !self.spj.tables.contains(&col.table) {
                return Err(QueryError::UnknownReference(format!(
                    "column `{col}` references a table outside the FROM list"
                )));
            }
            let table = schema
                .table(&col.table)
                .ok_or_else(|| QueryError::UnknownReference(format!("table `{}`", col.table)))?;
            if table.column(&col.column).is_none() {
                return Err(QueryError::UnknownReference(format!("column `{col}`")));
            }
        }
        for agg in &self.aggregates {
            if let (AggFunc::Sum | AggFunc::Avg, Some(col)) = (&agg.func, &agg.target) {
                let dt = &schema
                    .table(&col.table)
                    .and_then(|t| t.column(&col.column))
                    .expect("checked above")
                    .data_type;
                if !dt.is_numeric() {
                    return Err(QueryError::Unsupported(format!(
                        "{}: {} column `{col}` is not numeric",
                        agg.to_sql(),
                        dt
                    )));
                }
            }
        }
        Ok(())
    }

    /// Renders the query as SQL text.
    pub fn to_sql(&self) -> String {
        let select: Vec<String> = self.aggregates.iter().map(AggExpr::to_sql).collect();
        let mut sql =
            self.spj
                .to_sql()
                .replacen("select *", &format!("select {}", select.join(", ")), 1);
        if !self.group_by.is_empty() {
            let cols: Vec<String> = self.group_by.iter().map(ToString::to_string).collect();
            sql.push_str(&format!(" group by {}", cols.join(", ")));
        }
        sql
    }
}

/// How a [`QueryAnswer`] was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecStrategy {
    /// Answered from region cardinalities alone — closed-form per-block
    /// contributions, no tuple was ever materialized.
    SummaryDirect,
    /// Answered by regenerating and scanning tuples (the fallback for
    /// out-of-class queries).
    TupleScan,
}

impl ExecStrategy {
    /// The `strategy` label value metrics and spans record this strategy
    /// under.
    pub fn label(self) -> &'static str {
        match self {
            ExecStrategy::SummaryDirect => "summary_direct",
            ExecStrategy::TupleScan => "tuple_scan",
        }
    }
}

impl fmt::Display for ExecStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecStrategy::SummaryDirect => write!(f, "summary-direct"),
            ExecStrategy::TupleScan => write!(f, "tuple-scan"),
        }
    }
}

/// One result row of an aggregate query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerRow {
    /// The GROUP BY key values, in GROUP BY order (empty for a global
    /// aggregate).
    pub key: Vec<Value>,
    /// One value per select-list aggregate.
    pub aggregates: Vec<Value>,
}

/// The answer to an [`AggregateQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// Names of the GROUP BY key columns (`table.column`).
    pub group_columns: Vec<String>,
    /// Names of the aggregate columns (`count(*)`, `sum(t.c)`, ...).
    pub aggregate_columns: Vec<String>,
    /// Result rows in ascending key order (one keyless row for a global
    /// aggregate).
    pub rows: Vec<AnswerRow>,
    /// How the answer was computed.
    pub strategy: ExecStrategy,
    /// Summary blocks of the root (fact) relation inspected.
    pub fact_blocks: u64,
    /// Tuples regenerated and scanned (0 for summary-direct answers).
    pub scanned_tuples: u64,
}

impl QueryAnswer {
    /// How the answer was computed.
    pub fn strategy(&self) -> ExecStrategy {
        self.strategy
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the answer has no rows (a GROUP BY that matched nothing).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single row of a global (non-GROUP-BY) aggregate.
    pub fn single(&self) -> Option<&AnswerRow> {
        if self.group_columns.is_empty() && self.rows.len() == 1 {
            self.rows.first()
        } else {
            None
        }
    }

    /// Renders the answer as a text table.
    pub fn to_display_table(&self) -> String {
        let mut out = String::new();
        let header: Vec<&str> = self
            .group_columns
            .iter()
            .chain(self.aggregate_columns.iter())
            .map(String::as_str)
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .key
                .iter()
                .chain(row.aggregates.iter())
                .map(ToString::to_string)
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out.push_str(&format!("({} rows, {})\n", self.rows.len(), self.strategy));
        out
    }
}

/// Monotone sort key over `f64` values: orders exactly like
/// [`f64::total_cmp`], usable as an integer map key.
fn f64_sort_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// One aggregate's running state (the per-group accumulator).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AggState {
    /// Qualifying tuples (drives `COUNT(*)`).
    count: u64,
    /// Exact sum of integer contributions.
    sum_int: i128,
    /// Double contributions: total-order sort key → multiplicity.
    sum_doubles: BTreeMap<u64, u64>,
    /// Non-NULL contributions seen by SUM/AVG.
    non_null: u64,
}

impl AggState {
    /// The double total: ascending distinct doubles × multiplicity, then the
    /// integer part.  This fold *is* the definition of the double SUM — both
    /// strategies and the differential oracle implement it identically.
    fn double_total(&self) -> f64 {
        let mut acc = 0.0f64;
        for (&key, &n) in &self.sum_doubles {
            let bits = if key >> 63 == 1 {
                key & !(1 << 63)
            } else {
                !key
            };
            acc += f64::from_bits(bits) * n as f64;
        }
        acc + self.sum_int as f64
    }

    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum_int += other.sum_int;
        self.non_null += other.non_null;
        for (&k, &n) in &other.sum_doubles {
            *self.sum_doubles.entry(k).or_insert(0) += n;
        }
    }

    fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Integer(self.count.min(i64::MAX as u64) as i64),
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_doubles.is_empty() {
                    Value::Integer(self.sum_int.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
                } else {
                    Value::Double(self.double_total())
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    let total = if self.sum_doubles.is_empty() {
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

/// One contribution to one aggregate expression.
#[derive(Debug, Clone, Copy)]
pub enum AggInput<'a> {
    /// `n` qualifying tuples (for `COUNT(*)` the value is irrelevant).
    Tuples {
        /// Number of tuples.
        n: u64,
    },
    /// `n` tuples all carrying the same value on the target column.
    Repeat {
        /// The shared value (NULLs are skipped by SUM/AVG).
        value: &'a Value,
        /// Number of tuples.
        n: u64,
    },
    /// The target column takes every integer of `[lo, hi)` exactly once —
    /// the closed form for aggregates over an auto-numbered primary key.
    IntRange {
        /// First value of the range.
        lo: i64,
        /// One past the last value.
        hi: i64,
    },
}

/// The grouped aggregation kernel shared by the summary-direct and
/// tuple-scan executors.
///
/// Feed it one [`AggInput`] per aggregate expression per contribution (a
/// block, a tuple, or a pk range); results are independent of contribution
/// order and of how contributions were split (see the module docs), which is
/// what makes sharded scans and closed-form block evaluation bit-identical.
#[derive(Debug, Clone)]
pub struct Aggregator {
    funcs: Vec<AggFunc>,
    groups: BTreeMap<Vec<Value>, Vec<AggState>>,
}

impl Aggregator {
    /// Creates an aggregator for a query's select list.  A query without
    /// GROUP BY pre-seeds the single global group so that zero matching
    /// tuples still produce one answer row (`COUNT = 0`, `SUM`/`AVG` NULL).
    pub fn for_query(query: &AggregateQuery) -> Self {
        let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
        let mut groups = BTreeMap::new();
        if query.group_by.is_empty() {
            groups.insert(Vec::new(), vec![AggState::default(); funcs.len()]);
        }
        Aggregator { funcs, groups }
    }

    /// Adds one contribution: the group key plus one input per aggregate
    /// expression (same order as the select list).
    pub fn add(&mut self, key: Vec<Value>, inputs: &[AggInput<'_>]) {
        debug_assert_eq!(inputs.len(), self.funcs.len());
        let states = self
            .groups
            .entry(key)
            .or_insert_with(|| vec![AggState::default(); self.funcs.len()]);
        for (state, input) in states.iter_mut().zip(inputs) {
            match *input {
                AggInput::Tuples { n } => state.count += n,
                AggInput::Repeat { value, n } => {
                    if n == 0 {
                        continue;
                    }
                    state.count += n;
                    match value {
                        Value::Null => {}
                        Value::Integer(v) => {
                            state.sum_int += *v as i128 * n as i128;
                            state.non_null += n;
                        }
                        Value::Double(d) => {
                            *state.sum_doubles.entry(f64_sort_key(*d)).or_insert(0) += n;
                            state.non_null += n;
                        }
                        Value::Boolean(b) => {
                            state.sum_int += i128::from(*b) * n as i128;
                            state.non_null += n;
                        }
                        Value::Varchar(_) => {}
                    }
                }
                AggInput::IntRange { lo, hi } => {
                    if hi <= lo {
                        continue;
                    }
                    let n = (hi - lo) as u64;
                    state.count += n;
                    // Σ lo..hi = (lo + hi - 1) * n / 2, exactly in i128.
                    state.sum_int += (lo as i128 + hi as i128 - 1) * n as i128 / 2;
                    state.non_null += n;
                }
            }
        }
    }

    /// Merges another aggregator (e.g. one shard's partial result).  Both
    /// must have been built for the same query.
    pub fn merge(&mut self, other: &Aggregator) {
        debug_assert_eq!(self.funcs, other.funcs);
        for (key, states) in &other.groups {
            match self.groups.get_mut(key) {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                None => {
                    self.groups.insert(key.clone(), states.clone());
                }
            }
        }
    }

    /// Number of groups currently held.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Finalizes into a [`QueryAnswer`] for `query`, stamped with the given
    /// strategy and cost counters.
    pub fn into_answer(
        self,
        query: &AggregateQuery,
        strategy: ExecStrategy,
        fact_blocks: u64,
        scanned_tuples: u64,
    ) -> QueryAnswer {
        let rows = self
            .groups
            .iter()
            .map(|(key, states)| AnswerRow {
                key: key.clone(),
                aggregates: states
                    .iter()
                    .zip(&self.funcs)
                    .map(|(s, f)| s.finalize(*f))
                    .collect(),
            })
            .collect();
        QueryAnswer {
            group_columns: query.group_by.iter().map(ToString::to_string).collect(),
            aggregate_columns: query.aggregates.iter().map(AggExpr::to_sql).collect(),
            rows,
            strategy,
            fact_blocks,
            scanned_tuples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SpjQuery;

    fn count_sum_query(group: bool) -> AggregateQuery {
        let mut spj = SpjQuery::new("q");
        spj.add_table("t");
        AggregateQuery::new(
            spj,
            vec![
                AggExpr::count(),
                AggExpr::sum("t", "x"),
                AggExpr::avg("t", "x"),
            ],
            if group {
                vec![ColumnRef::new("t", "g")]
            } else {
                vec![]
            },
        )
    }

    #[test]
    fn global_aggregate_over_nothing_is_zero_and_null() {
        let q = count_sum_query(false);
        let agg = Aggregator::for_query(&q);
        let answer = agg.into_answer(&q, ExecStrategy::SummaryDirect, 0, 0);
        assert_eq!(answer.rows.len(), 1);
        let row = answer.single().unwrap();
        assert_eq!(row.aggregates[0], Value::Integer(0));
        assert_eq!(row.aggregates[1], Value::Null);
        assert_eq!(row.aggregates[2], Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_nothing_is_empty() {
        let q = count_sum_query(true);
        let agg = Aggregator::for_query(&q);
        let answer = agg.into_answer(&q, ExecStrategy::TupleScan, 0, 0);
        assert!(answer.is_empty());
        assert!(answer.single().is_none());
    }

    #[test]
    fn blockwise_equals_tuplewise_for_integers() {
        let q = count_sum_query(true);
        let key = vec![Value::str("a")];
        let v = Value::Integer(7);

        let mut blockwise = Aggregator::for_query(&q);
        blockwise.add(
            key.clone(),
            &[
                AggInput::Tuples { n: 5 },
                AggInput::Repeat { value: &v, n: 5 },
                AggInput::Repeat { value: &v, n: 5 },
            ],
        );
        let mut tuplewise = Aggregator::for_query(&q);
        for _ in 0..5 {
            tuplewise.add(
                key.clone(),
                &[
                    AggInput::Tuples { n: 1 },
                    AggInput::Repeat { value: &v, n: 1 },
                    AggInput::Repeat { value: &v, n: 1 },
                ],
            );
        }
        let a = blockwise.into_answer(&q, ExecStrategy::SummaryDirect, 1, 0);
        let b = tuplewise.into_answer(&q, ExecStrategy::SummaryDirect, 1, 0);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows[0].aggregates[1], Value::Integer(35));
        assert_eq!(a.rows[0].aggregates[2], Value::Double(7.0));
    }

    #[test]
    fn blockwise_equals_tuplewise_for_doubles() {
        // 0.1 summed 10 times naively != 0.1 * 10; the multiset definition
        // makes blockwise and tuplewise agree bit-for-bit.
        let q = count_sum_query(false);
        let v1 = Value::Double(0.1);
        let v2 = Value::Double(-3.25);
        let mut blockwise = Aggregator::for_query(&q);
        blockwise.add(
            vec![],
            &[
                AggInput::Tuples { n: 10 },
                AggInput::Repeat { value: &v1, n: 10 },
                AggInput::Repeat { value: &v1, n: 10 },
            ],
        );
        blockwise.add(
            vec![],
            &[
                AggInput::Tuples { n: 3 },
                AggInput::Repeat { value: &v2, n: 3 },
                AggInput::Repeat { value: &v2, n: 3 },
            ],
        );
        let mut tuplewise = Aggregator::for_query(&q);
        for v in std::iter::repeat_n(&v1, 10).chain(std::iter::repeat_n(&v2, 3)) {
            tuplewise.add(
                vec![],
                &[
                    AggInput::Tuples { n: 1 },
                    AggInput::Repeat { value: v, n: 1 },
                    AggInput::Repeat { value: v, n: 1 },
                ],
            );
        }
        assert_eq!(
            blockwise
                .into_answer(&q, ExecStrategy::SummaryDirect, 2, 0)
                .rows,
            tuplewise
                .into_answer(&q, ExecStrategy::TupleScan, 0, 13)
                .rows
        );
    }

    #[test]
    fn int_range_matches_per_value_sum() {
        let q = count_sum_query(false);
        let mut ranged = Aggregator::for_query(&q);
        ranged.add(
            vec![],
            &[
                AggInput::Tuples { n: 5 },
                AggInput::IntRange { lo: 10, hi: 15 },
                AggInput::IntRange { lo: 10, hi: 15 },
            ],
        );
        let mut pointwise = Aggregator::for_query(&q);
        for pk in 10..15 {
            let v = Value::Integer(pk);
            pointwise.add(
                vec![],
                &[
                    AggInput::Tuples { n: 1 },
                    AggInput::Repeat { value: &v, n: 1 },
                    AggInput::Repeat { value: &v, n: 1 },
                ],
            );
        }
        let a = ranged.into_answer(&q, ExecStrategy::SummaryDirect, 1, 0);
        let b = pointwise.into_answer(&q, ExecStrategy::TupleScan, 0, 5);
        assert_eq!(a.rows, b.rows);
        assert_eq!(
            a.rows[0].aggregates[1],
            Value::Integer(10 + 11 + 12 + 13 + 14)
        );
        assert_eq!(a.rows[0].aggregates[2], Value::Double(12.0));
    }

    #[test]
    fn nulls_follow_sql_semantics() {
        let q = count_sum_query(false);
        let mut agg = Aggregator::for_query(&q);
        let null = Value::Null;
        let three = Value::Integer(3);
        agg.add(
            vec![],
            &[
                AggInput::Tuples { n: 2 },
                AggInput::Repeat { value: &null, n: 2 },
                AggInput::Repeat { value: &null, n: 2 },
            ],
        );
        agg.add(
            vec![],
            &[
                AggInput::Tuples { n: 1 },
                AggInput::Repeat {
                    value: &three,
                    n: 1,
                },
                AggInput::Repeat {
                    value: &three,
                    n: 1,
                },
            ],
        );
        let answer = agg.into_answer(&q, ExecStrategy::SummaryDirect, 2, 0);
        let row = answer.single().unwrap();
        // COUNT(*) counts NULL rows; SUM/AVG skip them.
        assert_eq!(row.aggregates[0], Value::Integer(3));
        assert_eq!(row.aggregates[1], Value::Integer(3));
        assert_eq!(row.aggregates[2], Value::Double(3.0));
    }

    #[test]
    fn merge_is_equivalent_to_single_pass() {
        let q = count_sum_query(true);
        let v = Value::Double(1.5);
        let mut whole = Aggregator::for_query(&q);
        let mut left = Aggregator::for_query(&q);
        let mut right = Aggregator::for_query(&q);
        for i in 0..10i64 {
            let key = vec![Value::Integer(i % 3)];
            let inputs = [
                AggInput::Tuples { n: 1 },
                AggInput::Repeat { value: &v, n: 1 },
                AggInput::Repeat { value: &v, n: 1 },
            ];
            whole.add(key.clone(), &inputs);
            if i < 5 {
                left.add(key, &inputs);
            } else {
                right.add(key, &inputs);
            }
        }
        left.merge(&right);
        assert_eq!(
            whole.into_answer(&q, ExecStrategy::TupleScan, 0, 10).rows,
            left.into_answer(&q, ExecStrategy::TupleScan, 0, 10).rows
        );
    }

    #[test]
    fn answer_rows_are_in_ascending_key_order() {
        let q = count_sum_query(true);
        let mut agg = Aggregator::for_query(&q);
        for g in [5i64, 1, 3, 1, 5] {
            let key = vec![Value::Integer(g)];
            agg.add(
                key,
                &[
                    AggInput::Tuples { n: 1 },
                    AggInput::Tuples { n: 1 },
                    AggInput::Tuples { n: 1 },
                ],
            );
        }
        let answer = agg.into_answer(&q, ExecStrategy::SummaryDirect, 0, 0);
        let keys: Vec<i64> = answer
            .rows
            .iter()
            .map(|r| r.key[0].as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(answer.group_columns, vec!["t.g".to_string()]);
        assert!(answer.to_display_table().contains("count(*)"));
    }

    #[test]
    fn f64_sort_key_is_monotone() {
        let mut values: Vec<f64> = vec![-1e30, -2.5, -0.0, 0.0, 1e-9, 3.7, 1e300];
        values.sort_by(|a, b| a.total_cmp(b));
        let keys: Vec<u64> = values.iter().map(|&v| f64_sort_key(v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn validate_checks_columns_and_types() {
        use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
        use hydra_catalog::types::DataType;
        let schema = SchemaBuilder::new("db")
            .table("t", |t| {
                t.column(ColumnBuilder::new("pk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("x", DataType::BigInt))
                    .column(ColumnBuilder::new("name", DataType::Varchar(None)))
            })
            .build()
            .unwrap();
        let mut spj = SpjQuery::new("q");
        spj.add_table("t");
        let ok = AggregateQuery::new(
            spj.clone(),
            vec![AggExpr::count(), AggExpr::sum("t", "x")],
            vec![ColumnRef::new("t", "name")],
        );
        assert!(ok.validate(&schema).is_ok());
        assert!(ok.to_sql().contains("group by t.name"));

        let bad_col = AggregateQuery::new(spj.clone(), vec![AggExpr::sum("t", "nope")], vec![]);
        assert!(matches!(
            bad_col.validate(&schema),
            Err(QueryError::UnknownReference(_))
        ));

        let bad_type = AggregateQuery::new(spj.clone(), vec![AggExpr::sum("t", "name")], vec![]);
        assert!(matches!(
            bad_type.validate(&schema),
            Err(QueryError::Unsupported(_))
        ));

        let empty = AggregateQuery::new(spj.clone(), vec![], vec![]);
        assert!(empty.validate(&schema).is_err());

        let foreign = AggregateQuery::new(
            spj,
            vec![AggExpr::count()],
            vec![ColumnRef::new("other", "x")],
        );
        assert!(foreign.validate(&schema).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let q = count_sum_query(true);
        let json = serde_json::to_string(&q).unwrap();
        let back: AggregateQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);

        let mut agg = Aggregator::for_query(&q);
        let v = Value::Double(2.25);
        agg.add(
            vec![Value::str("g")],
            &[
                AggInput::Tuples { n: 4 },
                AggInput::Repeat { value: &v, n: 4 },
                AggInput::Repeat { value: &v, n: 4 },
            ],
        );
        let answer = agg.into_answer(&q, ExecStrategy::SummaryDirect, 1, 0);
        let json = serde_json::to_string(&answer).unwrap();
        let back: QueryAnswer = serde_json::from_str(&json).unwrap();
        assert_eq!(answer, back);
        assert_eq!(back.strategy(), ExecStrategy::SummaryDirect);
    }
}
