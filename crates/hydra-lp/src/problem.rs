//! Sparse linear-program model.
//!
//! The constraint matrix is stored once, flat: every row's terms sit in
//! shared vectors (`u32` column indices, and `f64` coefficients unless
//! every coefficient is 1 — HYDRA's matrices are 0/1 and store none) with
//! one offset per row, and a row's terms ascend by column (repeated terms
//! stay, in the order given).  A [`Constraint`] is a borrowed view of one
//! row.
//!
//! The LPs HYDRA solves have a few dozen rows and up to tens of thousands
//! of columns, and most passes over them run column by column: seeding and
//! pricing the master's working set, joining priced columns to it,
//! evaluating a sparse solution, repairing rounded counts.  Those share one
//! [`ColumnView`] — the same entries ordered by column — which
//! [`LpProblem::columns`] derives at most once per problem.  A problem
//! built with [`LpProblem::from_columns`] (HYDRA's formulation, whose
//! columns are its regions' signatures) is given that view at construction
//! and derives its rows from it instead.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `expr = rhs`
    Eq,
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintOp::Eq => write!(f, "="),
            ConstraintOp::Le => write!(f, "<="),
            ConstraintOp::Ge => write!(f, ">="),
        }
    }
}

impl ConstraintOp {
    /// Signed violation of `lhs op rhs` (see [`Constraint::violation`]).
    pub fn violation(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            ConstraintOp::Eq => lhs - rhs,
            ConstraintOp::Le => (lhs - rhs).max(0.0),
            ConstraintOp::Ge => (rhs - lhs).max(0.0),
        }
    }
}

/// The coefficients of a run of terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coefs<'a> {
    /// This many coefficients, every one 1 (stored as none).
    Unit(usize),
    /// The stored coefficients.
    Given(&'a [f64]),
}

impl<'a> Coefs<'a> {
    /// The coefficients, in term order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        let (unit, given) = match *self {
            Coefs::Unit(len) => (len, &[][..]),
            Coefs::Given(coefs) => (0, coefs),
        };
        std::iter::repeat_n(1.0, unit).chain(given.iter().copied())
    }
}

/// One row of a problem: `sum(coef_i * x_i) op rhs`, borrowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint<'a> {
    /// The terms' variable indices, ascending.
    pub columns: &'a [u32],
    /// The terms' coefficients, one per entry of `columns`.
    pub coefs: Coefs<'a>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional human-readable label (e.g. which AQP edge produced it),
    /// carried through to violation reports.
    pub label: Option<&'a str>,
}

impl<'a> Constraint<'a> {
    /// The sparse terms: (variable index, coefficient).
    pub fn terms(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        (self.columns.iter().map(|&j| j as usize)).zip(self.coefs.iter())
    }

    /// Evaluates the left-hand side for a candidate solution.
    pub fn lhs(&self, values: &[f64]) -> f64 {
        self.terms()
            .map(|(i, c)| c * values.get(i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Signed violation of the constraint for a candidate solution
    /// (0 when satisfied; positive magnitude = amount by which it is missed).
    pub fn violation(&self, values: &[f64]) -> f64 {
        self.op.violation(self.lhs(values), self.rhs)
    }
}

/// A row's operator, right-hand side and label: everything but its terms.
#[derive(Debug, Clone, PartialEq)]
pub struct RowHead {
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional label, carried through to violation reports.
    pub label: Option<String>,
}

/// A sparse matrix by lines (rows or columns): line `i`'s entries are
/// `index[start[i]..start[i + 1]]`, with the same range of `coefs` — or
/// no `coefs` at all while every coefficient is 1 (so `coefs` is `None`
/// exactly when every coefficient is 1).
#[derive(Debug, Clone, PartialEq)]
struct Lines {
    start: Vec<usize>,
    index: Vec<u32>,
    coefs: Option<Vec<f64>>,
}

impl Lines {
    /// No lines, room for `lines` of them and `entries` entries.
    fn with_capacity(lines: usize, entries: usize) -> Lines {
        let mut start = Vec::with_capacity(lines + 1);
        start.push(0);
        Lines {
            start,
            index: Vec::with_capacity(entries),
            coefs: None,
        }
    }

    fn num_lines(&self) -> usize {
        self.start.len() - 1
    }

    fn len(&self, i: usize) -> usize {
        self.start[i + 1] - self.start[i]
    }

    fn index(&self, i: usize) -> &[u32] {
        &self.index[self.start[i]..self.start[i + 1]]
    }

    fn coefs(&self, i: usize) -> Coefs<'_> {
        match &self.coefs {
            None => Coefs::Unit(self.len(i)),
            Some(coefs) => Coefs::Given(&coefs[self.start[i]..self.start[i + 1]]),
        }
    }

    /// Appends one entry to the last line (see [`Lines::end_line`]).
    #[inline]
    fn push(&mut self, index: u32, coef: f64) {
        self.index.push(index);
        match &mut self.coefs {
            None if coef == 1.0 => {}
            // The first coefficient other than 1: store all of them.
            None => {
                let mut coefs = Vec::with_capacity(self.index.capacity());
                coefs.resize(self.index.len() - 1, 1.0);
                coefs.push(coef);
                self.coefs = Some(coefs);
            }
            Some(coefs) => coefs.push(coef),
        }
    }

    /// Closes the line the pushed entries belong to.
    fn end_line(&mut self) {
        self.start.push(self.index.len());
    }

    /// The same entries by index: for each of `num_indices` indices, the
    /// lines naming it, ascending (a stable counting sort, so repeated
    /// entries keep their order).
    fn transpose(&self, num_indices: usize) -> Lines {
        let mut start = vec![0usize; num_indices + 1];
        for &i in &self.index {
            start[i as usize + 1] += 1;
        }
        for i in 0..num_indices {
            start[i + 1] += start[i];
        }
        let mut fill = start[..num_indices].to_vec();
        let mut index = vec![0u32; self.index.len()];
        for (line, bounds) in self.start.windows(2).enumerate() {
            for &i in &self.index[bounds[0]..bounds[1]] {
                let slot = &mut fill[i as usize];
                index[*slot] = line as u32;
                *slot += 1;
            }
        }
        // The coefficients follow their entries in a second walk.
        let coefs = self.coefs.as_ref().map(|given| {
            let mut fill = start[..num_indices].to_vec();
            let mut coefs = vec![0.0f64; given.len()];
            for (&i, &coef) in self.index.iter().zip(given) {
                let slot = &mut fill[i as usize];
                coefs[*slot] = coef;
                *slot += 1;
            }
            coefs
        });
        Lines {
            start,
            index,
            coefs,
        }
    }
}

/// A problem's constraint matrix ordered by column: column `j`'s entries
/// are its `(row, coefficient)` pairs, rows ascending, one entry per term
/// (a term repeated in a row repeats that row).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnView(Lines);

impl ColumnView {
    /// The rows naming column `j`, ascending, one entry per term.
    pub fn rows(&self, j: usize) -> &[u32] {
        self.0.index(j)
    }

    /// The coefficients of column `j`, one per entry of
    /// [`ColumnView::rows`].
    pub fn coefs(&self, j: usize) -> Coefs<'_> {
        self.0.coefs(j)
    }

    /// Number of terms in column `j`.
    pub fn len(&self, j: usize) -> usize {
        self.0.len(j)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.0.num_lines()
    }
}

/// A linear program over non-negative variables.
///
/// All variables are implicitly bounded below by zero (tuple counts cannot be
/// negative); optional upper bounds can be attached per variable.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Optional per-variable upper bounds (`None` = unbounded above).
    pub upper_bounds: Vec<Option<f64>>,
    heads: Vec<RowHead>,
    /// The matrix by row: row `r`'s terms, columns ascending.
    rows: Lines,
    /// The matrix by column, derived on first use (or given by
    /// [`LpProblem::from_columns`]) and dropped when a row is added.
    columns: OnceLock<ColumnView>,
}

impl PartialEq for LpProblem {
    /// Equal problems have equal variables, rows and bounds;
    /// whether the column view has been derived yet does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars
            && self.upper_bounds == other.upper_bounds
            && self.heads == other.heads
            && self.rows == other.rows
    }
}

impl LpProblem {
    /// Creates a problem with `num_vars` non-negative variables and no
    /// constraints.
    pub fn new(num_vars: usize) -> Self {
        assert!(
            u32::try_from(num_vars).is_ok(),
            "LP variable index exceeds u32"
        );
        LpProblem {
            num_vars,
            upper_bounds: vec![None; num_vars],
            heads: Vec::new(),
            rows: Lines::with_capacity(0, 0),
            columns: OnceLock::new(),
        }
    }

    /// Builds a problem column by column: one row per entry of `heads`, and
    /// one variable per item of `columns`, each giving its `(row,
    /// coefficient)` entries with rows ascending.  The entries are written
    /// once, into the problem's [`ColumnView`]; the rows are derived from
    /// it.  Panics if an entry names a row past `heads`.
    ///
    /// The columns are walked twice: once for their entries' size hints, to
    /// size the view exactly when the hints are exact, then to write it.
    pub fn from_columns<C, E>(heads: Vec<RowHead>, columns: C) -> Self
    where
        C: IntoIterator<Item = E>,
        C::IntoIter: Clone,
        E: IntoIterator<Item = (usize, f64)>,
    {
        let m = heads.len();
        let columns = columns.into_iter();
        let entries: usize = (columns.clone())
            .map(|column| column.into_iter().size_hint().0)
            .sum();
        let mut view = Lines::with_capacity(columns.size_hint().0, entries);
        for column in columns {
            for (r, c) in column {
                assert!(r < m, "column entry names row {r} of {m}");
                view.push(r as u32, c);
            }
            view.end_line();
        }
        let num_vars = view.num_lines();
        let mut problem = LpProblem::new(num_vars);
        problem.rows = view.transpose(m);
        problem.heads = heads;
        problem.columns = OnceLock::from(ColumnView(view));
        problem
    }

    /// Adds a constraint and returns its index.  Its terms are kept in
    /// column order (a stable sort, so repeated terms keep theirs).
    pub fn add_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.push_row(
            terms,
            RowHead {
                op,
                rhs,
                label: None,
            },
        )
    }

    /// Adds a labelled constraint and returns its index.
    pub fn add_labeled_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
        label: impl Into<String>,
    ) -> usize {
        self.push_row(
            terms,
            RowHead {
                op,
                rhs,
                label: Some(label.into()),
            },
        )
    }

    fn push_row(&mut self, mut terms: Vec<(usize, f64)>, head: RowHead) -> usize {
        terms.sort_by_key(|&(j, _)| j);
        for (j, c) in terms {
            let j = u32::try_from(j).expect("LP variable index exceeds u32");
            self.rows.push(j, c);
        }
        self.rows.end_line();
        self.heads.push(head);
        self.columns = OnceLock::new();
        self.heads.len() - 1
    }

    /// Sets an upper bound on a variable: a hard `x_var <= bound` row that
    /// takes no violation (so a negative bound makes the problem fail to
    /// solve).
    pub fn set_upper_bound(&mut self, var: usize, bound: f64) {
        if var < self.num_vars {
            self.upper_bounds[var] = Some(bound);
        }
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.heads.len()
    }

    /// Total number of non-zero coefficients across all constraints.
    pub fn num_nonzeros(&self) -> usize {
        self.rows.index.len()
    }

    /// Constraint `r`.  Panics if `r` is out of range.
    pub fn constraint(&self, r: usize) -> Constraint<'_> {
        let head = &self.heads[r];
        Constraint {
            columns: self.rows.index(r),
            coefs: self.rows.coefs(r),
            op: head.op,
            rhs: head.rhs,
            label: head.label.as_deref(),
        }
    }

    /// The constraints, in order.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = Constraint<'_>> + '_ {
        (0..self.num_constraints()).map(|r| self.constraint(r))
    }

    /// The rows' operators, right-hand sides and labels, in order.
    pub fn heads(&self) -> &[RowHead] {
        &self.heads
    }

    /// True if every coefficient of every constraint is 1.
    pub fn is_zero_one(&self) -> bool {
        self.rows.coefs.is_none()
    }

    /// The constraint matrix by column, derived from the rows on first use.
    pub fn columns(&self) -> &ColumnView {
        self.columns
            .get_or_init(|| ColumnView(self.rows.transpose(self.num_vars)))
    }

    /// Checks a candidate solution against every constraint and the
    /// non-negativity bounds, within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() < self.num_vars {
            return false;
        }
        if values.iter().take(self.num_vars).any(|v| *v < -tol) {
            return false;
        }
        for (i, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(ub) = ub {
                if values[i] > ub + tol {
                    return false;
                }
            }
        }
        self.constraints().all(|c| c.violation(values).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_evaluation() {
        let mut lp = LpProblem::new(3);
        lp.add_constraint(vec![(0, 2.0), (2, 1.0)], ConstraintOp::Eq, 7.0);
        let c = lp.constraint(0);
        assert_eq!(c.lhs(&[2.0, 99.0, 3.0]), 7.0);
        assert_eq!(c.violation(&[2.0, 99.0, 3.0]), 0.0);
        assert_eq!(c.violation(&[2.0, 0.0, 4.0]), 1.0);
    }

    #[test]
    fn violation_direction_for_inequalities() {
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 5.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 5.0);
        let (le, ge) = (lp.constraint(0), lp.constraint(1));
        assert_eq!(le.violation(&[4.0]), 0.0);
        assert_eq!(le.violation(&[6.0]), 1.0);
        assert_eq!(ge.violation(&[6.0]), 0.0);
        assert_eq!(ge.violation(&[4.0]), 1.0);
    }

    #[test]
    fn rows_keep_column_order_and_repeated_terms() {
        let mut lp = LpProblem::new(4);
        lp.add_labeled_constraint(
            vec![(2, 1.0), (0, 3.0), (2, 2.0)],
            ConstraintOp::Eq,
            1.0,
            "a",
        );
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 1.0);
        let a = lp.constraint(0);
        assert_eq!(
            a.terms().collect::<Vec<_>>(),
            vec![(0, 3.0), (2, 1.0), (2, 2.0)]
        );
        assert_eq!(a.label, Some("a"));
        let columns = lp.columns();
        assert_eq!(columns.num_columns(), 4);
        assert_eq!(columns.rows(0), &[0, 1]);
        assert_eq!(columns.coefs(0), Coefs::Given(&[3.0, 1.0]));
        assert_eq!(columns.rows(1), &[1]);
        assert_eq!(columns.rows(2), &[0, 0]);
        assert_eq!(columns.coefs(2), Coefs::Given(&[1.0, 2.0]));
        assert!(columns.rows(3).is_empty());
        assert_eq!(columns.len(2), 2);
    }

    #[test]
    fn a_problem_built_by_columns_equals_the_one_built_by_rows() {
        let head = |rhs| RowHead {
            op: ConstraintOp::Eq,
            rhs,
            label: None,
        };
        let by_columns = LpProblem::from_columns(
            vec![head(1.0), head(2.0)],
            vec![vec![(0, 1.0), (1, 1.0)], vec![], vec![(1, -1.0)]],
        );
        let mut by_rows = LpProblem::new(3);
        by_rows.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1.0);
        let _ = by_rows.columns();
        by_rows.add_constraint(vec![(2, -1.0), (0, 1.0)], ConstraintOp::Eq, 2.0);
        assert_eq!(by_columns, by_rows);
        assert_eq!(by_columns.columns(), by_rows.columns());
        assert_eq!(by_rows.columns().rows(2), &[1]);
    }

    #[test]
    fn problem_construction_and_feasibility_check() {
        let mut lp = LpProblem::new(3);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Eq, 10.0);
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0, "q1.filter");
        lp.set_upper_bound(2, 5.0);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.num_nonzeros(), 4);
        assert!(lp.is_feasible(&[3.0, 4.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[4.0, 3.0, 3.0], 1e-9)); // violates x0 <= 3
        assert!(!lp.is_feasible(&[0.0, 4.0, 6.0], 1e-9)); // violates upper bound + sum
        assert!(!lp.is_feasible(&[-1.0, 8.0, 3.0], 1e-9)); // negative
        assert!(!lp.is_feasible(&[1.0], 1e-9)); // too short
    }

    #[test]
    fn op_display() {
        assert_eq!(ConstraintOp::Eq.to_string(), "=");
        assert_eq!(ConstraintOp::Le.to_string(), "<=");
        assert_eq!(ConstraintOp::Ge.to_string(), ">=");
    }
}
