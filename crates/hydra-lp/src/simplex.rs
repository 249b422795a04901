//! The elastic restricted master: the one simplex every LP is solved by.
//!
//! HYDRA's per-relation LPs have a few dozen rows (one per deduplicated
//! volumetric constraint) but, for a fact relation, tens of thousands of
//! columns (one per region).  [`crate::solver::LpSolver`] never builds the
//! full-width tableau: the master holds a *working set* of the problem's
//! columns, and the excluded ones are priced against the master's duals;
//! those that price in join the tableau the master already holds.
//!
//! The master is elastic.  Every row `a·x op b` carries violation columns
//! in the directions its operator allows — over (`+1`) for `=` and `>=`,
//! under (`−1`) for `=` and `<=`, each costing 1 — and a zero-cost slack
//! (`+1`, for `<=`) or surplus (`−1`, for `>=`).  An upper bound `x_j <= u`
//! is a hard row with a slack and no violation column.  The master
//! minimizes the total violation.  Its starting basis takes, per row, the
//! `±1` column whose sign is that of the row's right-hand side, so the start
//! is primal feasible without a phase 1, no row is negated, and the duals are
//! always defined.
//!
//! A column joining the master enters nonbasic: its tableau column is
//! `B⁻¹A_j`, read off the columns that started basic (they began as the
//! signed identity), and its reduced cost is `−y·A_j`.  The simplex then
//! continues from the basis it kept.
//!
//! A positive optimum usually leaves a face of optimal solutions that put
//! the same total violation on different rows.  `Master::settle` picks,
//! among them, one of least *relative* violation (each row's violation over
//! `max(|b|, 1)`, the accuracy report's relative error), pivoting only
//! along that face.
//!
//! The tableau is dense: one row-major `Vec<f64>` with stride `cols + 1`
//! (each row's right-hand side last).  A pivot splits the pivot row off with
//! `split_at_mut` and updates every other row, and the cost row, as a zipped
//! loop over two contiguous slices, which the compiler vectorises.  The
//! structural columns come first, ascending by problem column, then the
//! slacks and surpluses, the over columns and the under columns, each group
//! in row order, so Dantzig's rule breaks ties by column index.  The under
//! columns are priced last — a row overshoots only once nothing else
//! improves — so a feasible LP pivots exactly as the classic phase 1 (over
//! columns as its artificials) would.  Bland's rule takes over after half
//! the pivot budget, which guarantees termination.

use crate::problem::{ConstraintOp, LpProblem};
use crate::solver::LpError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Numerical tolerance used for pivot and optimality tests.
const EPS: f64 = 1e-9;

/// A warm-start hint: the structural columns expected to carry the optimal
/// basis, typically the support of a previously solved, structurally similar
/// LP (delta re-profiling maps the old solution's nonzero regions into the
/// new problem's column space).
///
/// Warm starting is *advisory*: the hinted columns join the master's initial
/// working set, and pricing brings in whatever else the LP needs, so a warm
/// solve reaches the same optimum as a cold one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Structural column indices to start the working set with.
    pub columns: Vec<usize>,
}

impl WarmStart {
    /// A warm start over the given structural columns.
    pub fn new(columns: Vec<usize>) -> Self {
        WarmStart { columns }
    }
}

/// What a warm-start hint contributed to a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarmOutcome {
    /// No (usable) hint was supplied; the solve was cold.
    NotAttempted,
    /// The working set seeded with the hint closed without a pricing round,
    /// and the solution rests on hinted columns.
    Hit,
    /// The hint was tried but was stale or incompatible: the solve needed
    /// pricing (or did not use a hinted column), and still solved.
    FellBack,
}

/// Hard cap on pivots per optimization (raised with problem size at solve
/// time).
pub const MAX_PIVOTS: usize = 50_000;

/// The elastic restricted master of one LP (see the module doc).
pub(crate) struct Master {
    /// `rows × (cols + 1)` coefficient matrix, row-major with stride
    /// `cols + 1` (the last entry of each row is its right-hand side).
    a: Vec<f64>,
    /// Reduced cost per column, then minus the current objective.
    cost: Vec<f64>,
    /// The column basic in each row.
    basis: Vec<usize>,
    rows: usize,
    cols: usize,
    /// The problem column held by each structural tableau column,
    /// ascending: the tableau's first `structural.len()` columns.
    structural: Vec<usize>,
    /// The cost of each auxiliary column; auxiliary column `k` is tableau
    /// column `structural.len() + k`.
    aux_cost: Vec<f64>,
    /// Each auxiliary column's cost per unit of relative violation: its
    /// row's `1 / max(|b|, 1)` for a violation column, else 0.
    relative_cost: Vec<f64>,
    /// The first under column, as an auxiliary column.
    under: usize,
    /// Per row: the auxiliary column that started basic in it, and its sign
    /// in the constraint matrix.
    start: Vec<(usize, f64)>,
    /// The hard row of each bounded problem column.
    bound_rows: BTreeMap<usize, usize>,
}

impl Master {
    /// The master of `problem` over the structural `columns` (ascending),
    /// at its starting basis.  Errs if an upper bound is negative: a hard
    /// row no point satisfies.
    pub(crate) fn new(problem: &LpProblem, columns: &[usize]) -> Result<Master, LpError> {
        // Rows: the constraints, elastic, then one hard row per upper bound.
        let mut heads: Vec<(ConstraintOp, f64, bool)> = (problem.heads().iter())
            .map(|h| (h.op, h.rhs, true))
            .collect();
        let mut bound_rows = BTreeMap::new();
        for (var, bound) in problem.upper_bounds.iter().enumerate() {
            if let Some(bound) = *bound {
                if bound < 0.0 {
                    return Err(LpError::NegativeUpperBound { var, bound });
                }
                bound_rows.insert(var, heads.len());
                heads.push((ConstraintOp::Le, bound, false));
            }
        }
        // Auxiliary columns `(row, sign, cost)`: slacks and surpluses, then
        // over, then under columns.
        let mut aux: Vec<(usize, f64, f64)> = Vec::new();
        for (r, &(op, _, _)) in heads.iter().enumerate() {
            match op {
                ConstraintOp::Le => aux.push((r, 1.0, 0.0)),
                ConstraintOp::Ge => aux.push((r, -1.0, 0.0)),
                ConstraintOp::Eq => {}
            }
        }
        for (r, &(op, _, elastic)) in heads.iter().enumerate() {
            if elastic && op != ConstraintOp::Le {
                aux.push((r, 1.0, 1.0));
            }
        }
        let under = aux.len();
        for (r, &(op, _, elastic)) in heads.iter().enumerate() {
            if elastic && op != ConstraintOp::Ge {
                aux.push((r, -1.0, 1.0));
            }
        }
        let sign = |rhs: f64| if rhs < 0.0 { -1.0 } else { 1.0 };
        let start: Vec<(usize, f64)> = (heads.iter().enumerate())
            .map(|(r, &(_, rhs, _))| {
                let k = (aux.iter())
                    .position(|&(row, s, _)| row == r && s == sign(rhs))
                    .expect("every row has a column of its right-hand side's sign");
                (k, aux[k].1)
            })
            .collect();

        // The starting tableau is `B⁻¹A` for the starting basis `B`, the
        // signed identity: row `r` scaled by its starting column's sign.
        let rows = heads.len();
        let ns = columns.len();
        let cols = ns + aux.len();
        let stride = cols + 1;
        let mut a = vec![0.0; rows * stride];
        for (p, &j) in columns.iter().enumerate() {
            for (r, c) in entries(problem, &bound_rows, j) {
                a[r * stride + p] += start[r].1 * c;
            }
        }
        for (k, &(r, s, _)) in aux.iter().enumerate() {
            a[r * stride + ns + k] = start[r].1 * s;
        }
        for (r, &(_, rhs, _)) in heads.iter().enumerate() {
            a[r * stride + cols] = start[r].1 * rhs;
        }
        let mut master = Master {
            a,
            cost: vec![0.0; cols + 1],
            basis: start.iter().map(|&(k, _)| ns + k).collect(),
            rows,
            cols,
            structural: columns.to_vec(),
            aux_cost: aux.iter().map(|&(_, _, cost)| cost).collect(),
            relative_cost: (aux.iter())
                .map(|&(r, _, cost)| cost / heads[r].1.abs().max(1.0))
                .collect(),
            under,
            start,
            bound_rows,
        };
        master.cost[ns..cols].copy_from_slice(&master.aux_cost);
        master.canonicalize();
        Ok(master)
    }

    /// Eliminates the basic columns from the cost row.
    fn canonicalize(&mut self) {
        for r in 0..self.rows {
            let factor = self.cost[self.basis[r]];
            if factor.abs() > EPS {
                self.eliminate_from_cost(r, factor);
            }
        }
    }

    /// Row `r`, right-hand side included.
    fn row(&self, r: usize) -> &[f64] {
        let stride = self.cols + 1;
        &self.a[r * stride..(r + 1) * stride]
    }

    fn rhs(&self, r: usize) -> f64 {
        self.row(r)[self.cols]
    }

    /// Subtracts `factor` times row `r` from the cost row.
    fn eliminate_from_cost(&mut self, r: usize, factor: f64) {
        let stride = self.cols + 1;
        let row = &self.a[r * stride..(r + 1) * stride];
        for (c, p) in self.cost.iter_mut().zip(row) {
            *c -= factor * p;
        }
    }

    /// Performs a pivot on (row, col): row is scaled so the pivot becomes 1,
    /// and the pivot column is eliminated from all other rows and the cost row.
    ///
    /// Every row update is a zipped loop over two contiguous slices, so it
    /// vectorises; each entry still sees the same operations in the same
    /// order as an element-by-element update.
    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.cols + 1;
        let (above, rest) = self.a.split_at_mut(row * stride);
        let (pivot_row, below) = rest.split_at_mut(stride);
        let pivot_val = pivot_row[col];
        debug_assert!(pivot_val.abs() > EPS);
        let inv = 1.0 / pivot_val;
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        // Defensive exactness: the pivot element should be exactly 1.
        pivot_row[col] = 1.0;
        let pivot_row = &*pivot_row;
        for other in above
            .chunks_exact_mut(stride)
            .chain(below.chunks_exact_mut(stride))
        {
            let factor = other[col];
            if factor.abs() > EPS {
                for (v, p) in other.iter_mut().zip(pivot_row) {
                    *v -= factor * p;
                }
                other[col] = 0.0;
            }
        }
        let factor = self.cost[col];
        if factor.abs() > EPS {
            for (v, p) in self.cost.iter_mut().zip(pivot_row) {
                *v -= factor * p;
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Pivots from the current basis to an optimum.  Every cost is
    /// non-negative, so the objective is bounded below by zero: a ray with
    /// no leaving row is a numerical failure, reported like an exhausted
    /// pivot budget.
    pub(crate) fn optimize(&mut self) -> Result<(), LpError> {
        let max_pivots = MAX_PIVOTS.max(20 * (self.rows + self.cols));
        // Dantzig is faster in practice, Bland guarantees no cycling: switch
        // once half the budget is used.
        let bland_after = max_pivots / 2;
        for pivots in 0..max_pivots {
            let reduced = &self.cost[..self.cols];
            let entering = if pivots >= bland_after {
                reduced.iter().position(|&rc| rc < -EPS)
            } else {
                let under = self.structural.len() + self.under;
                dantzig(&reduced[..under], 0).or_else(|| dantzig(&reduced[under..], under))
            };
            let Some(col) = entering else {
                return Ok(());
            };
            // Ratio test for the leaving row, ties to the smallest basic
            // column (Bland).
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let coef = self.a[r * (self.cols + 1) + col];
                if coef > EPS {
                    let ratio = self.rhs(r) / coef;
                    match leaving {
                        None => leaving = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < lratio - EPS
                                || ((ratio - lratio).abs() <= EPS && self.basis[r] < self.basis[lr])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return Err(LpError::IterationLimit);
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }

    /// From an optimum, moves to an optimal solution of least relative
    /// violation over the working set.  A column of positive reduced cost
    /// would raise the total violation, so it gets an infinite cost and
    /// never enters; a pivot on a column of zero reduced cost leaves the
    /// total, and every reduced cost, where they are.  Afterwards
    /// [`Master::objective`] reads the relative violation.
    pub(crate) fn settle(&mut self) -> Result<(), LpError> {
        let ns = self.structural.len();
        let mut cost = vec![0.0; self.cols + 1];
        cost[ns..self.cols].copy_from_slice(&self.relative_cost);
        for (c, &reduced) in cost.iter_mut().zip(&self.cost[..self.cols]) {
            if reduced > EPS {
                *c = f64::INFINITY;
            }
        }
        self.cost = cost;
        self.canonicalize();
        self.optimize()
    }

    /// The current total violation (or, once settled, relative violation).
    pub(crate) fn objective(&self) -> f64 {
        // The cost row's last entry holds minus the objective.
        -self.cost[self.cols]
    }

    /// The dual price of every row (the constraints', then the bounds'):
    /// row `r`'s starting column is `s·e_r` with cost `c`, so its reduced
    /// cost `c − s·y_r` gives `y_r`.
    pub(crate) fn duals(&self) -> Vec<f64> {
        let ns = self.structural.len();
        (self.start.iter())
            .map(|&(k, s)| s * (self.aux_cost[k] - self.cost[ns + k]))
            .collect()
    }

    /// The value of each of the problem's `n` columns at the current basis
    /// (zero off the working set).
    pub(crate) fn values(&self, n: usize) -> Vec<f64> {
        let mut values = vec![0.0; n];
        for (r, &b) in self.basis.iter().enumerate() {
            if let Some(&j) = self.structural.get(b) {
                values[j] = self.rhs(r).max(0.0);
            }
        }
        values
    }

    /// Adds problem columns `joining` (ascending, none held yet) to the
    /// working set as nonbasic columns, keeping the basis: column `j`'s
    /// tableau column is `B⁻¹A_j`, where `B⁻¹`'s column `r` is the current
    /// tableau column of row `r`'s starting column times its sign, and its
    /// reduced cost is `−y·A_j`.
    pub(crate) fn join(&mut self, problem: &LpProblem, joining: &[usize]) {
        let (rows, ns, stride) = (self.rows, self.structural.len(), self.cols + 1);
        let y = self.duals();
        let fresh: Vec<(Vec<f64>, f64)> = (joining.iter())
            .map(|&j| {
                let mut column = vec![0.0; rows];
                let mut reduced = 0.0;
                for (r, c) in entries(problem, &self.bound_rows, j) {
                    let (k, s) = self.start[r];
                    let from = ns + k;
                    for (i, v) in column.iter_mut().enumerate() {
                        *v += c * s * self.a[i * stride + from];
                    }
                    reduced -= c * y[r];
                }
                (column, reduced)
            })
            .collect();

        // Merge the joining columns into the ascending structural columns;
        // every held column keeps its order and shifts right.
        let cols = self.cols + joining.len();
        let mut moved = Vec::with_capacity(self.cols);
        let mut placed = Vec::with_capacity(joining.len());
        let mut structural = Vec::with_capacity(ns + joining.len());
        let mut next = joining.iter().peekable();
        for &held in &self.structural {
            while let Some(&j) = next.next_if(|&&j| j < held) {
                placed.push(structural.len());
                structural.push(j);
            }
            moved.push(structural.len());
            structural.push(held);
        }
        for &j in next {
            placed.push(structural.len());
            structural.push(j);
        }
        moved.extend((ns..self.cols).map(|p| p + joining.len()));

        let mut a = vec![0.0; rows * (cols + 1)];
        for (r, row) in a.chunks_exact_mut(cols + 1).enumerate() {
            let old = self.row(r);
            for (&to, &v) in moved.iter().zip(old) {
                row[to] = v;
            }
            for (&to, (column, _)) in placed.iter().zip(&fresh) {
                row[to] = column[r];
            }
            row[cols] = old[self.cols];
        }
        let mut cost = vec![0.0; cols + 1];
        for (&to, &v) in moved.iter().zip(&self.cost) {
            cost[to] = v;
        }
        for (&to, &(_, reduced)) in placed.iter().zip(&fresh) {
            cost[to] = reduced;
        }
        cost[cols] = self.cost[self.cols];
        for b in &mut self.basis {
            *b = moved[*b];
        }
        self.a = a;
        self.cost = cost;
        self.cols = cols;
        self.structural = structural;
    }
}

/// The column of most negative reduced cost below `-EPS`, first on ties,
/// numbered from `offset`.
fn dantzig(reduced: &[f64], offset: usize) -> Option<usize> {
    let mut entering = None;
    let mut best = -EPS;
    for (j, &rc) in reduced.iter().enumerate() {
        if rc < best {
            best = rc;
            entering = Some(offset + j);
        }
    }
    entering
}

/// Problem column `j`'s `(row, coefficient)` entries in the master: its
/// constraint terms, then its bound row's 1.
fn entries<'a>(
    problem: &'a LpProblem,
    bound_rows: &BTreeMap<usize, usize>,
    j: usize,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    let view = problem.columns();
    (view.rows(j).iter().map(|&r| r as usize))
        .zip(view.coefs(j).iter())
        .chain(bound_rows.get(&j).map(|&r| (r, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};

    /// The master over every column, optimized: values and total violation.
    fn solve(lp: &LpProblem) -> (Vec<f64>, f64) {
        let all: Vec<usize> = (0..lp.num_vars).collect();
        let mut master = Master::new(lp, &all).unwrap();
        master.optimize().unwrap();
        (master.values(lp.num_vars), master.objective())
    }

    #[test]
    fn simple_feasibility() {
        // x0 + x1 = 10
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        let (values, violation) = solve(&lp);
        assert!(violation.abs() < 1e-9);
        assert!((values[0] + values[1] - 10.0).abs() < 1e-6);
        assert!(values.iter().all(|v| *v >= -1e-9));
    }

    #[test]
    fn infeasible_detection() {
        // x0 <= 1 and x0 >= 3: the least total violation is 2.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 3.0);
        let (values, violation) = solve(&lp);
        assert!((violation - 2.0).abs() < 1e-9);
        assert!((1.0 - 1e-9..=3.0 + 1e-9).contains(&values[0]));
    }

    #[test]
    fn negative_right_hand_sides_start_feasible() {
        // -x0 <= -5 (x0 >= 5), -x1 = -2, -x0 - x1 >= -9: the starting basis
        // takes each row's column of its right-hand side's sign.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -5.0);
        lp.add_constraint(vec![(1, -1.0)], ConstraintOp::Eq, -2.0);
        lp.add_constraint(vec![(0, -1.0), (1, -1.0)], ConstraintOp::Ge, -9.0);
        let (values, violation) = solve(&lp);
        assert!(violation.abs() < 1e-9);
        assert!(lp.is_feasible(&values, 1e-9), "{values:?}");
        let master = Master::new(&lp, &[0, 1]).unwrap();
        assert!((master.objective() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn upper_bounds_are_hard() {
        // x0 >= 9 against the bound x0 <= 7: the bound holds and the
        // constraint takes the violation.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 9.0);
        lp.set_upper_bound(0, 7.0);
        let (values, violation) = solve(&lp);
        assert!((values[0] - 7.0).abs() < 1e-9);
        assert!((violation - 2.0).abs() < 1e-9);

        lp.set_upper_bound(0, -1.0);
        assert_eq!(
            Master::new(&lp, &[0]).err(),
            Some(LpError::NegativeUpperBound {
                var: 0,
                bound: -1.0
            })
        );
    }

    #[test]
    fn no_constraints_trivial() {
        let lp = LpProblem::new(3);
        let (values, violation) = solve(&lp);
        assert_eq!(values, vec![0.0; 3]);
        assert_eq!(violation, 0.0);
    }

    #[test]
    fn degenerate_equalities() {
        // x0 + x1 = 5, x0 + x1 = 5 (redundant), x0 - x1 = 1
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
        let (values, _) = solve(&lp);
        assert!((values[0] - 3.0).abs() < 1e-6);
        assert!((values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn duals_price_the_starting_basis() {
        // At the start every equality's over column is basic at cost 1, so
        // each row's dual is 1; a `<=` row's slack is basic at cost 0.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 3.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, -2.0);
        let master = Master::new(&lp, &[]).unwrap();
        assert_eq!(master.duals(), vec![1.0, 0.0, -1.0]);
        assert!((master.objective() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn joined_columns_continue_from_the_kept_basis() {
        // A block LP solved over the first column of each block, capped at
        // 1, then the rest joined one by one from the last: each join keeps
        // the basis (the objective does not move until the next pivots) and
        // the end is the full optimum.
        let n = 40;
        let mut lp = LpProblem::new(n);
        for k in 0..8 {
            let lo = k * 5;
            let terms: Vec<(usize, f64)> = (lo..lo + 5).map(|j| (j, 1.0)).collect();
            lp.add_constraint(terms, ConstraintOp::Eq, 10.0 + k as f64);
            lp.set_upper_bound(lo, 1.0);
        }
        lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 108.0);
        let (_, full) = solve(&lp);
        assert!(full.abs() < 1e-9);
        let held: Vec<usize> = (0..n).step_by(5).collect();
        let mut master = Master::new(&lp, &held).unwrap();
        master.optimize().unwrap();
        assert!(master.objective() > 1.0);
        for j in (0..n).filter(|j| j % 5 != 0).rev() {
            let before = master.objective();
            master.join(&lp, &[j]);
            assert_eq!(master.objective(), before);
            master.optimize().unwrap();
        }
        assert!((master.objective() - full).abs() < 1e-9);
        assert!(master.structural.windows(2).all(|w| w[0] < w[1]));
        let values = master.values(n);
        assert!(lp.is_feasible(&values, 1e-6), "{values:?}");
    }

    #[test]
    fn settling_moves_the_violation_to_the_largest_target() {
        // x0 = 4, x0 + x1 = 10, x1 = 8 miss by 2 in total wherever the 2
        // lands: on the first row (relative 0.5), the second (0.2) or the
        // third (0.25).  The simplex lands on the third; settling moves the
        // miss to the second and keeps the total.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 8.0);
        let mut master = Master::new(&lp, &[0, 1]).unwrap();
        master.optimize().unwrap();
        assert!((master.objective() - 2.0).abs() < 1e-9);
        assert_eq!(master.values(2), vec![4.0, 6.0]);
        master.settle().unwrap();
        assert!((master.objective() - 0.2).abs() < 1e-9);
        assert_eq!(master.values(2), vec![4.0, 8.0]);
    }

    #[test]
    fn larger_block_lp() {
        // A HYDRA-shaped LP: 100 region variables, 20 equality constraints each
        // touching a contiguous block, plus a total-sum constraint.
        let n = 100;
        let mut lp = LpProblem::new(n);
        for k in 0..20 {
            let lo = k * 5;
            let terms: Vec<(usize, f64)> = (lo..lo + 5).map(|j| (j, 1.0)).collect();
            lp.add_constraint(terms, ConstraintOp::Eq, 50.0);
        }
        lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 1000.0);
        let (values, violation) = solve(&lp);
        assert!(violation.abs() < 1e-9);
        assert!(lp.is_feasible(&values, 1e-5));
    }
}
