//! Dense two-phase primal simplex.
//!
//! The tableau is dense.  HYDRA's per-relation LPs have a few dozen rows
//! (one per deduplicated volumetric constraint), but a fact relation's
//! region partition can have tens of thousands of columns.  Those LPs reach
//! the tableau only as the working sets of [`crate::solver::LpSolver`]'s
//! delayed column generation, about 300–1 400 columns each; the dimension
//! LPs are a handful of columns.  At that size a dense tableau is simple and
//! fast enough.
//!
//! The tableau is one row-major `Vec<f64>` with stride `cols + 1` (each
//! row's right-hand side is its last entry).  A pivot splits the pivot row
//! off with `split_at_mut` and updates every other row, and the cost row,
//! as a zipped loop over two contiguous slices, which the compiler
//! vectorises.
//!
//! The implementation is a textbook two-phase method:
//!
//! 1. every constraint is normalized to `a·x (op) b` with `b >= 0`;
//! 2. slack variables are added for `<=`, surplus + artificial for `>=`,
//!    artificial for `=`;
//! 3. phase 1 minimizes the sum of artificial variables — a positive optimum
//!    means the LP is infeasible;
//! 4. phase 2 minimizes the user objective starting from the phase-1 basis.
//!
//! Pivoting uses Dantzig's rule with a Bland's-rule fallback after a pivot
//! budget is exhausted, which guarantees termination.

use crate::problem::{Coefs, ConstraintOp, LpProblem};
use serde::{Deserialize, Serialize};

/// Numerical tolerance used for pivot and optimality tests.
const EPS: f64 = 1e-9;

/// Outcome of a simplex run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexOutcome {
    /// An optimal (or feasible, for pure feasibility problems) solution.
    Optimal {
        /// Value per structural variable.
        values: Vec<f64>,
        /// Objective value achieved.
        objective: f64,
    },
    /// The constraint system has no feasible point.
    Infeasible {
        /// The positive phase-1 optimum certifying infeasibility.
        phase1_objective: f64,
    },
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The pivot budget was exhausted (should not happen with Bland's rule;
    /// kept as a defensive terminal state).
    IterationLimit,
}

/// A warm-start hint: the structural columns expected to carry the optimal
/// basis, typically the support of a previously solved, structurally similar
/// LP (delta re-profiling maps the old solution's nonzero regions into the
/// new problem's column space).
///
/// Warm starting is *advisory*: phase 1 first pivots only over the hinted
/// columns (plus slacks and artificials), and if that restricted pass cannot
/// drive the artificials out — a stale or incompatible basis — the solver
/// transparently continues over the full column set, so a warm solve accepts
/// exactly the problems a cold solve accepts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Structural column indices to prioritize during phase 1.
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
    /// The hinted columns alone produced a feasible basis — phase 1 never
    /// had to look at the rest of the column space.
    Hit,
    /// The hint was tried but was stale or incompatible; the solver fell
    /// back to the full (cold-equivalent) pivot space and still solved.
    FellBack,
}

/// A simplex outcome plus the dual prices of the user constraints, when
/// available.  Duals enable delayed column generation in `LpSolver`: an
/// excluded column with non-negative reduced cost `c_j - y·A_j` cannot
/// improve the current (phase-1 or phase-2) objective.
#[derive(Debug, Clone)]
pub struct SolveDetail {
    /// The primal outcome.
    pub outcome: SimplexOutcome,
    /// Dual value per user constraint — phase-2 duals for `Optimal`, phase-1
    /// duals for `Infeasible`.  `None` when a row had to be negated during
    /// normalization (negative RHS), where this bookkeeping is not
    /// maintained.
    pub duals: Option<Vec<f64>>,
}

/// Hard cap on pivots per phase (raised with problem size at solve time).
pub const MAX_PIVOTS: usize = 50_000;

/// Dense two-phase primal simplex solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simplex;

struct Tableau {
    /// rows x (cols + 1) coefficient matrix, row-major with stride
    /// `cols + 1` (the last entry of each row is its RHS).
    a: Vec<f64>,
    /// Objective row (length cols), minimized.
    cost: Vec<f64>,
    /// Current basis: basis[r] = column index basic in row r.
    basis: Vec<usize>,
    rows: usize,
    cols: usize, // number of structural+slack+artificial columns (excludes RHS)
}

impl Tableau {
    /// Row `r`, RHS included.
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

    /// Reduced cost of column j given the current basis (costs are kept
    /// explicitly; the tableau rows are maintained in canonical form, so the
    /// reduced cost is simply the cost row entry).
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j]
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

    /// Runs simplex iterations until optimality, unboundedness or the pivot
    /// budget is exhausted.  `allowed` masks the columns eligible to enter.
    fn optimize(&mut self, allowed: &[bool], max_pivots: usize) -> SimplexResult {
        let mut pivots = 0usize;
        // Switch to Bland's rule once we have used half the budget; Dantzig is
        // faster in practice, Bland guarantees no cycling.
        let bland_after = max_pivots / 2;
        loop {
            if pivots >= max_pivots {
                return SimplexResult::IterationLimit;
            }
            let use_bland = pivots >= bland_after;
            // Choose entering column.
            let mut entering: Option<usize> = None;
            if use_bland {
                entering = allowed[..self.cols]
                    .iter()
                    .enumerate()
                    .find(|(j, ok)| **ok && self.reduced_cost(*j) < -EPS)
                    .map(|(j, _)| j);
            } else {
                let mut best = -EPS;
                for (j, ok) in allowed[..self.cols].iter().enumerate() {
                    if *ok {
                        let rc = self.reduced_cost(j);
                        if rc < best {
                            best = rc;
                            entering = Some(j);
                        }
                    }
                }
            }
            let Some(col) = entering else {
                return SimplexResult::Optimal;
            };
            // Ratio test for leaving row.
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let coef = self.a[r * (self.cols + 1) + col];
                if coef > EPS {
                    let ratio = self.rhs(r) / coef;
                    match leaving {
                        None => leaving = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            // Tie-break on smallest basis index (Bland).
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
                return SimplexResult::Unbounded;
            };
            self.pivot(row, col);
            pivots += 1;
        }
    }

    fn objective_value(&self) -> f64 {
        // cost row's RHS holds -(current objective) in canonical form.
        -self.cost[self.cols]
    }

    fn extract(&self, num_structural: usize) -> Vec<f64> {
        let mut values = vec![0.0; num_structural];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < num_structural {
                values[b] = self.rhs(r).max(0.0);
            }
        }
        values
    }
}

enum SimplexResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl Simplex {
    /// Solves the given LP (minimizing its objective; pure feasibility when
    /// the objective is empty).  Per-variable upper bounds are handled by
    /// adding explicit `x_i <= u_i` rows.
    pub fn solve(&self, problem: &LpProblem) -> SimplexOutcome {
        self.solve_detailed(problem).outcome
    }

    /// [`Simplex::solve`] additionally recovering constraint duals (see
    /// [`SolveDetail`]).
    pub fn solve_detailed(&self, problem: &LpProblem) -> SolveDetail {
        self.solve_detailed_warm(problem, None).0
    }

    /// [`Simplex::solve_detailed`] with an optional [`WarmStart`]: phase 1
    /// first pivots only over the hinted structural columns (plus auxiliary
    /// columns) and widens to the full column set only if that restricted
    /// pass cannot reach feasibility.  Behaviour with `None` is identical to
    /// a cold solve.
    pub fn solve_detailed_warm(
        &self,
        problem: &LpProblem,
        warm: Option<&WarmStart>,
    ) -> (SolveDetail, WarmOutcome) {
        let n = problem.num_vars;
        let mut warm_outcome = WarmOutcome::NotAttempted;

        // Materialize all rows: user constraints plus upper-bound rows.
        struct Row<'a> {
            columns: &'a [u32],
            coefs: Coefs<'a>,
            op: ConstraintOp,
            rhs: f64,
        }
        let mut rows: Vec<Row> = problem
            .constraints()
            .map(|c| Row {
                columns: c.columns,
                coefs: c.coefs,
                op: c.op,
                rhs: c.rhs,
            })
            .collect();
        let bounded: Vec<(u32, f64)> = (problem.upper_bounds.iter().enumerate())
            .filter_map(|(i, ub)| ub.map(|u| (i as u32, u)))
            .collect();
        for (i, u) in &bounded {
            rows.push(Row {
                columns: std::slice::from_ref(i),
                coefs: Coefs::Unit(1),
                op: ConstraintOp::Le,
                rhs: *u,
            });
        }

        let m = rows.len();
        if m == 0 {
            // Trivially feasible: all-zeros minimizes any non-negative cone
            // objective with non-negative coefficients; for general objectives
            // the LP is unbounded unless coefficients are >= 0.
            let has_negative_cost = problem.objective.iter().any(|(_, c)| *c < 0.0);
            if has_negative_cost {
                return (
                    SolveDetail {
                        outcome: SimplexOutcome::Unbounded,
                        duals: None,
                    },
                    warm_outcome,
                );
            }
            return (
                SolveDetail {
                    outcome: SimplexOutcome::Optimal {
                        values: vec![0.0; n],
                        objective: 0.0,
                    },
                    duals: Some(Vec::new()),
                },
                warm_outcome,
            );
        }

        // Count auxiliary columns.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for row in &rows {
            let rhs_nonneg = row.rhs >= 0.0;
            let effective_op = if rhs_nonneg {
                row.op
            } else {
                // Row will be negated.
                match row.op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                }
            };
            match effective_op {
                ConstraintOp::Le => num_slack += 1,
                ConstraintOp::Ge => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                ConstraintOp::Eq => num_artificial += 1,
            }
        }

        let cols = n + num_slack + num_artificial;
        let stride = cols + 1;
        let mut a = vec![0.0; m * stride];
        let mut basis = vec![usize::MAX; m];
        // Per row: the column that starts in the basis for it (used to read
        // duals off the final cost row), and whether any row was negated
        // (which breaks that bookkeeping).
        let mut init_col = vec![usize::MAX; m];
        let mut negated_any = false;

        // Columns are laid out structural, slack, artificial: every column
        // from `artificial_start` on is artificial.
        let artificial_start = n + num_slack;
        let mut next_slack = n;
        let mut next_artificial = artificial_start;
        for (r, (row, a)) in rows.iter().zip(a.chunks_exact_mut(stride)).enumerate() {
            let mut sign = 1.0;
            let mut rhs = row.rhs;
            let mut op = row.op;
            if rhs < 0.0 {
                sign = -1.0;
                rhs = -rhs;
                negated_any = true;
                op = match op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
            }
            for (&j, c) in row.columns.iter().zip(row.coefs.iter()) {
                if (j as usize) < n {
                    a[j as usize] += sign * c;
                }
            }
            a[cols] = rhs;
            match op {
                ConstraintOp::Le => {
                    a[next_slack] = 1.0;
                    basis[r] = next_slack;
                    init_col[r] = next_slack;
                    next_slack += 1;
                }
                ConstraintOp::Ge => {
                    a[next_slack] = -1.0;
                    next_slack += 1;
                    a[next_artificial] = 1.0;
                    basis[r] = next_artificial;
                    init_col[r] = next_artificial;
                    next_artificial += 1;
                }
                ConstraintOp::Eq => {
                    a[next_artificial] = 1.0;
                    basis[r] = next_artificial;
                    init_col[r] = next_artificial;
                    next_artificial += 1;
                }
            }
        }

        // Reads the duals of the user constraints off the current cost row:
        // the reduced cost of row r's initial basis column is
        // `c_init - y_r` (its tableau column is the r-th identity column).
        let num_user = problem.num_constraints();
        let duals_from =
            |tableau: &Tableau, init_cost: &dyn Fn(usize) -> f64| -> Option<Vec<f64>> {
                if negated_any {
                    return None;
                }
                Some(
                    (0..num_user)
                        .map(|r| init_cost(init_col[r]) - tableau.cost[init_col[r]])
                        .collect(),
                )
            };

        let max_pivots = MAX_PIVOTS.max(20 * (m + cols));

        // ---- Phase 1: minimize sum of artificial variables. ----
        let mut tableau = Tableau {
            a,
            cost: vec![0.0; cols + 1],
            basis,
            rows: m,
            cols,
        };
        // Phase-1 infeasibility cutoff (see the comment further down); also
        // used to decide whether a warm-restricted pass closed feasibility.
        let rhs_scale = rows.iter().map(|r| r.rhs.abs()).fold(0.0f64, f64::max);
        let phase1_cutoff = (1e-10 * rhs_scale).max(1e-6);

        if num_artificial > 0 {
            for slot in &mut tableau.cost[artificial_start..cols] {
                *slot = 1.0;
            }
            // Canonicalize: eliminate basic artificial columns from cost row.
            for r in 0..m {
                let b = tableau.basis[r];
                if b >= artificial_start {
                    let factor = tableau.cost[b];
                    if factor.abs() > EPS {
                        tableau.eliminate_from_cost(r, factor);
                    }
                }
            }
            // Warm-restricted pass: pivot only over the hinted structural
            // columns (plus every auxiliary column).  A hint with any
            // out-of-range column is stale by definition and skipped.
            let mut closed_by_warm = false;
            if let Some(w) = warm {
                if !w.columns.is_empty() && w.columns.iter().all(|&j| j < n) {
                    let mut mask = vec![false; cols];
                    for &j in &w.columns {
                        mask[j] = true;
                    }
                    for slot in mask.iter_mut().take(cols).skip(n) {
                        *slot = true;
                    }
                    if matches!(tableau.optimize(&mask, max_pivots), SimplexResult::Optimal)
                        && tableau.objective_value() <= phase1_cutoff
                    {
                        closed_by_warm = true;
                        warm_outcome = WarmOutcome::Hit;
                    } else {
                        // Stale basis: keep whatever progress the restricted
                        // pivots made and widen to the full column set.
                        warm_outcome = WarmOutcome::FellBack;
                    }
                }
            }
            if !closed_by_warm {
                match tableau.optimize(&vec![true; cols], max_pivots) {
                    SimplexResult::Optimal => {}
                    SimplexResult::Unbounded => {
                        // Phase-1 objective is bounded below by zero; treat as limit.
                        return (
                            SolveDetail {
                                outcome: SimplexOutcome::IterationLimit,
                                duals: None,
                            },
                            warm_outcome,
                        );
                    }
                    SimplexResult::IterationLimit => {
                        return (
                            SolveDetail {
                                outcome: SimplexOutcome::IterationLimit,
                                duals: None,
                            },
                            warm_outcome,
                        );
                    }
                }
            }
            let phase1 = tableau.objective_value();
            // The infeasibility cutoff has two parts: an absolute floor
            // (the classic 1e-6) plus a term relative to the magnitude of
            // the right-hand sides.  At what-if scales (rows in the
            // billions) the phase-1 optimum of a feasible system
            // accumulates floating-point residue on the order of
            // `eps * rhs * pivots` — absolutely large but relatively
            // negligible — and a purely absolute cutoff turned that noise
            // into hard `Infeasible` errors, even for the elastic
            // least-violation relaxation, which is feasible by
            // construction.  The relative factor is deliberately tiny
            // (1e-10) so that a *real* contradiction among small-scale
            // constraints is still caught even when an unrelated huge row
            // target sits in the same system.
            if phase1 > phase1_cutoff {
                // Phase-1 duals: slacks cost 0, artificials cost 1.
                let duals = duals_from(&tableau, &|col| {
                    if col >= artificial_start {
                        1.0
                    } else {
                        0.0
                    }
                });
                return (
                    SolveDetail {
                        outcome: SimplexOutcome::Infeasible {
                            phase1_objective: phase1,
                        },
                        duals,
                    },
                    warm_outcome,
                );
            }
            // Drive any artificial variables still in the basis out of it
            // (degenerate rows); if impossible the row is redundant.
            for r in 0..m {
                if tableau.basis[r] >= artificial_start {
                    // Find a non-artificial column with a non-zero entry.
                    let found = tableau.row(r)[..artificial_start]
                        .iter()
                        .position(|v| v.abs() > EPS);
                    if let Some(j) = found {
                        tableau.pivot(r, j);
                    }
                }
            }
        }

        // ---- Phase 2: minimize the user objective. ----
        let mut cost = vec![0.0; cols + 1];
        for (j, c) in &problem.objective {
            if *j < n {
                cost[*j] += *c;
            }
        }
        tableau.cost = cost;
        // Canonicalize cost row w.r.t. current basis.
        for r in 0..m {
            let b = tableau.basis[r];
            let factor = tableau.cost[b];
            if factor.abs() > EPS {
                tableau.eliminate_from_cost(r, factor);
            }
        }
        // Artificial columns may not re-enter the basis.
        let allowed: Vec<bool> = (0..cols).map(|j| j < artificial_start).collect();
        match tableau.optimize(&allowed, max_pivots) {
            SimplexResult::Optimal => {}
            SimplexResult::Unbounded => {
                return (
                    SolveDetail {
                        outcome: SimplexOutcome::Unbounded,
                        duals: None,
                    },
                    warm_outcome,
                )
            }
            SimplexResult::IterationLimit => {
                return (
                    SolveDetail {
                        outcome: SimplexOutcome::IterationLimit,
                        duals: None,
                    },
                    warm_outcome,
                )
            }
        }

        // Phase-2 duals: every slack/artificial costs 0.
        let duals = duals_from(&tableau, &|_| 0.0);
        let values = tableau.extract(n);
        let objective: f64 = problem.objective.iter().map(|(j, c)| c * values[*j]).sum();
        (
            SolveDetail {
                outcome: SimplexOutcome::Optimal { values, objective },
                duals,
            },
            warm_outcome,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};

    fn solve(lp: &LpProblem) -> SimplexOutcome {
        Simplex.solve(lp)
    }

    #[test]
    fn simple_feasibility() {
        // x0 + x1 = 10
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => {
                assert!((values[0] + values[1] - 10.0).abs() < 1e-6);
                assert!(values.iter().all(|v| *v >= -1e-9));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn optimization_with_objective() {
        // minimize 2x0 + x1  s.t. x0 + x1 >= 4, x0 <= 3
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
        lp.set_objective(vec![(0, 2.0), (1, 1.0)]);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, objective } => {
                // Optimum: x0 = 0, x1 = 4, objective 4.
                assert!((values[0]).abs() < 1e-6);
                assert!((values[1] - 4.0).abs() < 1e-6);
                assert!((objective - 4.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detection() {
        // x0 <= 1 and x0 >= 3
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 3.0);
        assert!(matches!(solve(&lp), SimplexOutcome::Infeasible { .. }));
    }

    #[test]
    fn unbounded_detection() {
        // minimize -x0 with only x0 >= 1
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
        lp.set_objective(vec![(0, -1.0)]);
        assert!(matches!(solve(&lp), SimplexOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x0 <= -5   (i.e. x0 >= 5), minimize x0.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -5.0);
        lp.set_objective(vec![(0, 1.0)]);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => assert!((values[0] - 5.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn upper_bounds_respected() {
        // maximize x0 (minimize -x0) with x0 <= 7 via upper bound.
        let mut lp = LpProblem::new(1);
        lp.set_upper_bound(0, 7.0);
        lp.set_objective(vec![(0, -1.0)]);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => assert!((values[0] - 7.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn no_constraints_trivial() {
        let lp = LpProblem::new(3);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, objective } => {
                assert_eq!(values, vec![0.0; 3]);
                assert_eq!(objective, 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![(0, -1.0)]);
        assert!(matches!(solve(&lp), SimplexOutcome::Unbounded));
    }

    #[test]
    fn degenerate_equalities() {
        // x0 + x1 = 5, x0 + x1 = 5 (redundant), x0 - x1 = 1
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => {
                assert!((values[0] - 3.0).abs() < 1e-6);
                assert!((values[1] - 2.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn phase1_tolerance_is_relative_to_rhs_scale() {
        // At 1e10 scale, a 1e-3 absolute inconsistency is floating-point
        // noise (what-if scenarios hit this); it must not read as infeasible.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 2e10);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3e10 + 1e-3);
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => {
                assert!((values[0] - 1e10).abs() < 1.0);
                assert!((values[1] - 2e10).abs() < 1.0);
            }
            other => panic!("expected optimal at scale, got {other:?}"),
        }

        // The same absolute gap at unit scale is a real contradiction.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 12.001);
        assert!(matches!(solve(&lp), SimplexOutcome::Infeasible { .. }));

        // Mixed scales: an unrelated 1e10 row target must not mask a real
        // unit-scale contradiction elsewhere in the same system.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        assert!(matches!(solve(&lp), SimplexOutcome::Infeasible { .. }));
    }

    #[test]
    fn warm_start_respects_mixed_scale_infeasibility_detection() {
        // A huge row target must not mask a real small-scale contradiction,
        // warm-started or not.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        for warm in [None, Some(WarmStart::new(vec![0, 1]))] {
            let (detail, _) = Simplex.solve_detailed_warm(&lp, warm.as_ref());
            assert!(
                matches!(detail.outcome, SimplexOutcome::Infeasible { .. }),
                "warm {warm:?}: {:?}",
                detail.outcome
            );
        }
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
        match solve(&lp) {
            SimplexOutcome::Optimal { values, .. } => {
                assert!(lp.is_feasible(&values, 1e-5));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
