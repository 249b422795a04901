//! High-level LP solving interface used by the summary generator.

use crate::diagnostics::ViolationReport;
use crate::problem::{Coefs, ConstraintOp, LpProblem, RowHead};
use crate::simplex::{Simplex, SimplexOutcome, WarmOutcome, WarmStart};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// How a solution was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// All constraints satisfied exactly (up to tolerance).
    Feasible,
    /// The original system was infeasible; the returned solution minimizes the
    /// total absolute violation (HYDRA's "minor additive errors").
    LeastViolation,
}

/// A solution to an LP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Value per decision variable.
    pub values: Vec<f64>,
    /// Objective value achieved (0 for pure feasibility problems).
    pub objective: f64,
    /// Whether the solution is exactly feasible or least-violation.
    pub status: SolveStatus,
    /// Total absolute violation across constraints (0 when feasible).
    pub total_violation: f64,
    /// Wall-clock time spent solving.
    pub solve_time: Duration,
    /// Number of variables in the problem (for reporting).
    pub num_vars: usize,
    /// Number of constraints in the problem (for reporting).
    pub num_constraints: usize,
}

impl LpSolution {
    /// Builds a violation report for this solution against a problem.
    pub fn violations(&self, problem: &LpProblem) -> ViolationReport {
        ViolationReport::evaluate(problem, &self.values)
    }
}

/// Errors from the high-level solver.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The LP objective is unbounded below.
    Unbounded,
    /// The solver exceeded its pivot budget.
    IterationLimit,
    /// Even the least-violation relaxation, where every constraint has
    /// slack, came out infeasible: a numerical failure, since that system
    /// is feasible in exact arithmetic.
    Infeasible {
        /// The positive phase-1 optimum certifying infeasibility.
        phase1_objective: f64,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "LP objective is unbounded"),
            LpError::IterationLimit => write!(f, "LP solver exceeded its pivot budget"),
            LpError::Infeasible { phase1_objective } => {
                write!(
                    f,
                    "LP is infeasible (phase-1 objective {phase1_objective:.4})"
                )
            }
        }
    }
}

impl std::error::Error for LpError {}

/// High-level LP solver.
///
/// `solve` first attempts an exact feasibility/optimality solve; if the system
/// is infeasible, it re-solves a soft version where every constraint gets
/// slack variables and the total slack is minimized.  This mirrors HYDRA's
/// behaviour: the post-processing step may introduce small additive errors,
/// and the reported relative errors stay small.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpSolver;

/// Feasibility tolerance used when classifying a recovered solution,
/// relative to the largest right-hand side: a least-violation solution
/// within it counts as [`SolveStatus::Feasible`].
pub const FEASIBILITY_TOLERANCE: f64 = 1e-6;

/// The absolute violation below which a recovered solution counts as
/// feasible: [`FEASIBILITY_TOLERANCE`], scaled by the magnitude of the
/// right-hand sides.  Large-scale what-if scenarios (cardinalities in the
/// trillions) accumulate floating-point rounding that is absolutely large
/// but relatively negligible; classifying those infeasible would be
/// reporting noise.
fn feasibility_tolerance(problem: &LpProblem) -> f64 {
    let rhs_scale = problem
        .heads()
        .iter()
        .map(|c| c.rhs.abs())
        .fold(1.0f64, f64::max);
    FEASIBILITY_TOLERANCE * rhs_scale
}

/// Column count above which pure-feasibility problems try restricted
/// working-set solves before touching the full tableau.
const WORKING_SET_MIN_VARS: usize = 1024;

/// Cap on column-generation rounds before giving up on the restricted path.
const COLUMN_GENERATION_ROUNDS: usize = 50;

/// Outcome of the column-generation feasibility loop.
enum ColumnGeneration {
    /// A feasible full-length solution (zeros outside the working set).
    Feasible(Vec<f64>),
    /// Certified infeasible: no excluded column can reduce the restricted
    /// phase-1 optimum below its positive value.
    Infeasible,
    /// Pricing information was unavailable or the loop did not converge; the
    /// caller falls back to the full dense solve.
    GaveUp,
}

/// Columns each constraint contributes to the seed working set from either
/// end of its `(degree, column)` order.
const SEED_PER_END: usize = 13;

/// Seeds the working set: per constraint, a spread of its lowest-degree
/// columns (private freedom) and highest-degree columns (shared mass) —
/// the first and last [`SEED_PER_END`] of its terms in `(degree, column)`
/// order, where a column's degree counts its terms across all constraints.
///
/// One sort of all columns ranks them in that order.  Walking the columns
/// up that order, then down it, each constraint takes the columns of its
/// first [`SEED_PER_END`] terms met (repeated terms count toward its
/// length, as in a sort of its terms); a walk stops once every constraint
/// has taken its share, so the cost is at most the nonzeros twice plus
/// the one sort.  The working set is a membership mask over the columns.
fn initial_working_set(problem: &LpProblem) -> Vec<bool> {
    let n = problem.num_vars;
    let columns = problem.columns();
    // `(degree, column)` packed into one sort key.
    let mut order: Vec<u64> = (0..n)
        .map(|j| ((columns.len(j) as u64) << 32) | j as u64)
        .collect();
    order.sort_unstable();
    let order: Vec<usize> = order.into_iter().map(|key| key as u32 as usize).collect();
    let share: Vec<usize> = problem
        .constraints()
        .map(|c| c.columns.len().min(SEED_PER_END))
        .collect();
    let mut selected = vec![false; n];
    let mut take = |walk: &mut dyn Iterator<Item = &usize>| {
        let mut left = share.clone();
        let mut outstanding: usize = left.iter().sum();
        for &j in walk {
            if outstanding == 0 {
                break;
            }
            for &r in columns.rows(j) {
                let left = &mut left[r as usize];
                if *left > 0 {
                    *left -= 1;
                    outstanding -= 1;
                    selected[j] = true;
                }
            }
        }
    };
    take(&mut order.iter());
    take(&mut order.iter().rev());
    selected
}

/// Projects the problem onto the working set (excluded columns are fixed at
/// zero).  Returns the subproblem and the working set in slot order.  Only
/// the working set's columns are read.
fn restrict(problem: &LpProblem, selected: &[bool]) -> (LpProblem, Vec<usize>) {
    let columns: Vec<usize> = (0..selected.len()).filter(|&j| selected[j]).collect();
    let view = problem.columns();
    let heads = problem
        .heads()
        .iter()
        .map(|head| RowHead {
            op: head.op,
            rhs: head.rhs,
            label: None,
        })
        .collect();
    let mut sub = LpProblem::from_columns(
        heads,
        columns
            .iter()
            .map(|&j| (view.rows(j).iter().map(|&r| r as usize)).zip(view.coefs(j).iter())),
    );
    for (slot, &j) in columns.iter().enumerate() {
        sub.upper_bounds[slot] = problem.upper_bounds[j];
    }
    (sub, columns)
}

/// Builds the soft (elastic) relaxation: every constraint `a·x op b` gains
/// violation variables in the directions its operator allows, and the total
/// violation is minimized (plus a tiny weight on the original objective for
/// consistent tie-breaking).
fn soften(problem: &LpProblem) -> LpProblem {
    let n = problem.num_vars;
    let m = problem.num_constraints();
    // Two slack variables per constraint (over- and under-shoot).
    let mut soft = LpProblem::new(n + 2 * m);
    soft.upper_bounds[..n].clone_from_slice(&problem.upper_bounds);
    let mut objective: Vec<(usize, f64)> = Vec::with_capacity(2 * m + problem.objective.len());
    for (r, c) in problem.constraints().enumerate() {
        let over = n + 2 * r; // adds to LHS
        let under = n + 2 * r + 1; // subtracts from LHS
        let mut terms: Vec<(usize, f64)> = c.terms().collect();
        match c.op {
            ConstraintOp::Eq => {
                terms.push((over, 1.0));
                terms.push((under, -1.0));
                objective.push((over, 1.0));
                objective.push((under, 1.0));
            }
            ConstraintOp::Le => {
                // a·x - s_under <= b : s_under absorbs overshoot.
                terms.push((under, -1.0));
                objective.push((under, 1.0));
            }
            ConstraintOp::Ge => {
                terms.push((over, 1.0));
                objective.push((over, 1.0));
            }
        }
        match c.label {
            Some(label) => soft.add_labeled_constraint(terms, c.op, c.rhs, label),
            None => soft.add_constraint(terms, c.op, c.rhs),
        };
    }
    // Tiny weight on the original objective so ties are broken consistently.
    for (j, c) in &problem.objective {
        objective.push((*j, 1e-6 * c));
    }
    soft.set_objective(objective);
    soft
}

/// Prices every excluded column against the duals (`rc_j = -y·A_j` for
/// zero-cost structural columns) and adds the most promising ones to the
/// working set.  Returns how many were added.
///
/// A column's score `y·A_j` adds its terms in row order over the
/// [`crate::problem::ColumnView`], skipping rows whose dual is negligible.
fn price_and_add(problem: &LpProblem, duals: &[f64], selected: &mut [bool]) -> usize {
    let columns = problem.columns();
    let y: Vec<f64> = (0..problem.num_constraints())
        .map(|r| {
            duals
                .get(r)
                .copied()
                .filter(|y| y.abs() > 1e-12)
                .unwrap_or(0.0)
        })
        .collect();
    // Improving columns have score > 0.
    let mut candidates: Vec<(f64, usize)> = Vec::new();
    for j in (0..problem.num_vars).filter(|&j| !selected[j]) {
        let rows = columns.rows(j);
        let score = match columns.coefs(j) {
            // `y * 1.0` is `y`, and a skipped row's `+0.0` leaves the sum
            // unchanged (it starts at `+0.0`, so it is never `-0.0`).
            Coefs::Unit(_) => rows.iter().fold(0.0f64, |score, &r| score + y[r as usize]),
            Coefs::Given(coefs) => rows.iter().zip(coefs).fold(0.0f64, |score, (&r, coef)| {
                let y = y[r as usize];
                if y == 0.0 {
                    score
                } else {
                    score + y * coef
                }
            }),
        };
        if score > 1e-7 {
            candidates.push((score, j));
        }
    }
    // The budget's best, in order: highest score first, ties by column.
    let budget = (4 * problem.num_constraints()).max(64);
    let order = |a: &(f64, usize), b: &(f64, usize)| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    };
    if candidates.len() > budget {
        candidates.select_nth_unstable_by(budget - 1, order);
        candidates.truncate(budget);
    }
    candidates.sort_by(order);
    for &(_, j) in &candidates {
        selected[j] = true;
    }
    candidates.len()
}

impl LpSolver {
    /// Solves the problem.
    pub fn solve(&self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        self.solve_warm(problem, None).map(|(solution, _)| solution)
    }

    /// [`LpSolver::solve`] with an optional [`WarmStart`] — the support of a
    /// previously solved, structurally similar LP mapped into this problem's
    /// column space (delta re-profiling).
    ///
    /// The hint is advisory on every path: the dense simplex runs a
    /// warm-restricted phase 1 first, the delayed-column-generation fast
    /// path seeds its working set with the hinted columns, and a stale or
    /// incompatible hint falls back to the cold pivot space — so a warm
    /// solve reaches a feasible optimum on every problem the cold solver
    /// handles.  The returned [`WarmOutcome`] reports what the hint
    /// contributed.
    pub fn solve_warm(
        &self,
        problem: &LpProblem,
        warm: Option<&WarmStart>,
    ) -> Result<(LpSolution, WarmOutcome), LpError> {
        let start = Instant::now();

        // Fast path for HYDRA's fact-relation LPs: tens of thousands of
        // region columns against a few dozen equality rows.  A basic feasible
        // solution never needs more columns than rows, so solve over a small
        // working set and grow it by dual pricing (delayed column
        // generation): a restricted phase-1 optimum with no negatively-priced
        // excluded column proves infeasibility of the *full* problem, and any
        // restricted feasible point zero-pads to a full feasible point.
        if problem.objective.is_empty() && problem.num_vars >= WORKING_SET_MIN_VARS {
            let (generated, cg_outcome) = self.column_generation_feasibility(problem, warm);
            match generated {
                ColumnGeneration::Feasible(values) => {
                    let report = ViolationReport::evaluate(problem, &values);
                    return Ok((
                        LpSolution {
                            objective: 0.0,
                            status: SolveStatus::Feasible,
                            total_violation: report.total_absolute_violation,
                            solve_time: start.elapsed(),
                            num_vars: problem.num_vars,
                            num_constraints: problem.num_constraints(),
                            values,
                        },
                        cg_outcome,
                    ));
                }
                ColumnGeneration::Infeasible => {
                    if let Some(solution) =
                        self.column_generation_least_violation(problem, start, warm)
                    {
                        return Ok((solution, cg_outcome));
                    }
                }
                ColumnGeneration::GaveUp => {}
            }
        }

        let (detail, warm_outcome) = Simplex.solve_detailed_warm(problem, warm);
        match detail.outcome {
            SimplexOutcome::Optimal { values, objective } => {
                let report = ViolationReport::evaluate(problem, &values);
                Ok((
                    LpSolution {
                        values,
                        objective,
                        status: SolveStatus::Feasible,
                        total_violation: report.total_absolute_violation,
                        solve_time: start.elapsed(),
                        num_vars: problem.num_vars,
                        num_constraints: problem.num_constraints(),
                    },
                    warm_outcome,
                ))
            }
            SimplexOutcome::Infeasible { .. } => {
                // Credit the *recovery* solve's warm outcome — the strict
                // pass necessarily fell short, but the hint can still close
                // the elastic system's phase 1.
                self.solve_least_violation(problem, start, warm)
            }
            SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            SimplexOutcome::IterationLimit => Err(LpError::IterationLimit),
        }
    }

    /// Runs delayed column generation for pure feasibility.  A warm start
    /// seeds the working set with the hinted columns: a previous solution's
    /// support is usually a feasible basis already, so the first restricted
    /// solve closes feasibility without any pricing rounds.
    fn column_generation_feasibility(
        &self,
        problem: &LpProblem,
        warm: Option<&WarmStart>,
    ) -> (ColumnGeneration, WarmOutcome) {
        let n = problem.num_vars;
        let mut selected = initial_working_set(problem);
        let mut warm_outcome = WarmOutcome::NotAttempted;
        if let Some(w) = warm {
            if !w.columns.is_empty() && w.columns.iter().all(|&j| j < n) {
                for &j in &w.columns {
                    selected[j] = true;
                }
                // Provisional: upgraded to `Hit` if the seeded working set
                // closes feasibility without a single pricing round.
                warm_outcome = WarmOutcome::FellBack;
            }
        }
        for round in 0..COLUMN_GENERATION_ROUNDS {
            if selected.iter().all(|&s| s) {
                return (ColumnGeneration::GaveUp, warm_outcome);
            }
            let (sub, columns) = restrict(problem, &selected);
            let detail = Simplex.solve_detailed(&sub);
            match detail.outcome {
                crate::simplex::SimplexOutcome::Optimal { values, .. } => {
                    let mut full = vec![0.0; n];
                    for (slot, &j) in columns.iter().enumerate() {
                        full[j] = values[slot];
                    }
                    // Credit the hint only when the seeded working set
                    // closed feasibility without pricing rounds *and* the
                    // found solution actually rests on hinted columns — a
                    // junk hint riding on the heuristic seed is not a hit.
                    if round == 0
                        && warm_outcome == WarmOutcome::FellBack
                        && warm.is_some_and(|w| {
                            w.columns
                                .iter()
                                .any(|&j| full.get(j).is_some_and(|v| *v > 1e-9))
                        })
                    {
                        warm_outcome = WarmOutcome::Hit;
                    }
                    return (ColumnGeneration::Feasible(full), warm_outcome);
                }
                crate::simplex::SimplexOutcome::Infeasible { .. } => {
                    let Some(duals) = detail.duals else {
                        return (ColumnGeneration::GaveUp, warm_outcome);
                    };
                    // Price excluded columns against the phase-1 duals: the
                    // structural phase-1 cost is 0, so rc_j = -y·A_j.
                    let added = price_and_add(problem, &duals, &mut selected);
                    if added == 0 {
                        // No column can lower the positive phase-1 optimum:
                        // the full problem is infeasible, certified.
                        return (ColumnGeneration::Infeasible, warm_outcome);
                    }
                }
                _ => return (ColumnGeneration::GaveUp, warm_outcome),
            }
        }
        (ColumnGeneration::GaveUp, warm_outcome)
    }

    /// Runs delayed column generation for the least-violation relaxation.
    /// The elastic problem is always feasible, so each round solves to
    /// optimality over the working set and prices the excluded structural
    /// columns with the phase-2 duals; no negative price means the global
    /// least-violation optimum has been reached.
    fn column_generation_least_violation(
        &self,
        problem: &LpProblem,
        start: Instant,
        warm: Option<&WarmStart>,
    ) -> Option<LpSolution> {
        let n = problem.num_vars;
        let mut selected = initial_working_set(problem);
        if let Some(w) = warm {
            if w.columns.iter().all(|&j| j < n) {
                for &j in &w.columns {
                    selected[j] = true;
                }
            }
        }
        for _round in 0..COLUMN_GENERATION_ROUNDS {
            if selected.iter().all(|&s| s) {
                return None;
            }
            let (sub, columns) = restrict(problem, &selected);
            let soft = soften(&sub);
            let detail = Simplex.solve_detailed(&soft);
            match detail.outcome {
                crate::simplex::SimplexOutcome::Optimal { values, .. } => {
                    let duals = detail.duals?;
                    let added = price_and_add(problem, &duals, &mut selected);
                    if added > 0 {
                        continue;
                    }
                    // Globally optimal: expand and classify.
                    let mut full = vec![0.0; n];
                    for (slot, &j) in columns.iter().enumerate() {
                        full[j] = values[slot];
                    }
                    let report = ViolationReport::evaluate(problem, &full);
                    let status =
                        if report.total_absolute_violation <= feasibility_tolerance(problem) {
                            SolveStatus::Feasible
                        } else {
                            SolveStatus::LeastViolation
                        };
                    return Some(LpSolution {
                        values: full,
                        objective: 0.0,
                        status,
                        total_violation: report.total_absolute_violation,
                        solve_time: start.elapsed(),
                        num_vars: problem.num_vars,
                        num_constraints: problem.num_constraints(),
                    });
                }
                _ => return None,
            }
        }
        None
    }

    /// Solves the soft relaxation: every constraint `a·x op b` becomes
    /// `a·x + s⁺ - s⁻ op b` (with the slack signs restricted according to the
    /// operator) and `Σ(s⁺ + s⁻)` is minimized.
    fn solve_least_violation(
        &self,
        problem: &LpProblem,
        start: Instant,
        warm: Option<&WarmStart>,
    ) -> Result<(LpSolution, WarmOutcome), LpError> {
        let n = problem.num_vars;
        let soft = soften(problem);

        // Structural columns keep their indices in the softened problem, so
        // the hint stays valid — extended with the violation variables, which
        // are what makes the elastic system feasible in the first place.
        let soft_warm = warm.map(|w| {
            let mut columns = w.columns.clone();
            columns.extend(n..soft.num_vars);
            WarmStart::new(columns)
        });

        let (detail, warm_outcome) = Simplex.solve_detailed_warm(&soft, soft_warm.as_ref());
        match detail.outcome {
            SimplexOutcome::Optimal { values, .. } => {
                let values: Vec<f64> = values.into_iter().take(n).collect();
                let report = ViolationReport::evaluate(problem, &values);
                let status = if report.total_absolute_violation <= feasibility_tolerance(problem) {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::LeastViolation
                };
                let objective: f64 = problem.objective.iter().map(|(j, c)| c * values[*j]).sum();
                Ok((
                    LpSolution {
                        values,
                        objective,
                        status,
                        total_violation: report.total_absolute_violation,
                        solve_time: start.elapsed(),
                        num_vars: problem.num_vars,
                        num_constraints: problem.num_constraints(),
                    },
                    warm_outcome,
                ))
            }
            SimplexOutcome::Infeasible { phase1_objective } => {
                Err(LpError::Infeasible { phase1_objective })
            }
            SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            SimplexOutcome::IterationLimit => Err(LpError::IterationLimit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintOp;
    use proptest::prelude::*;

    #[test]
    fn feasible_solve_reports_feasible() {
        let mut lp = LpProblem::new(3);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Eq, 9.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = LpSolver.solve(&lp).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert!(sol.total_violation < 1e-6);
        assert!(lp.is_feasible(&sol.values, 1e-6));
        assert_eq!(sol.num_vars, 3);
        assert_eq!(sol.num_constraints, 2);
    }

    #[test]
    fn infeasible_recovers_least_violation() {
        // x0 = 5 and x0 = 7 cannot both hold; best compromise violates by 2 total.
        let mut lp = LpProblem::new(1);
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0, "c1");
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 7.0, "c2");
        let sol = LpSolver.solve(&lp).unwrap();
        assert_eq!(sol.status, SolveStatus::LeastViolation);
        assert!((sol.total_violation - 2.0).abs() < 1e-5);
        assert!(sol.values[0] >= 5.0 - 1e-6 && sol.values[0] <= 7.0 + 1e-6);
    }

    #[test]
    fn unbounded_propagates() {
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
        lp.set_objective(vec![(0, -1.0)]);
        assert_eq!(LpSolver.solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn violation_report_from_solution() {
        let mut lp = LpProblem::new(1);
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0, "edge a");
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 6.0, "edge b");
        let sol = LpSolver.solve(&lp).unwrap();
        let report = sol.violations(&lp);
        assert_eq!(report.violations.len(), 2);
        assert!(report.max_relative_error() <= 0.2 + 1e-9);
    }

    #[test]
    fn least_violation_respects_inequalities() {
        // x0 <= 10, x0 >= 4, x0 = 20 → compromise should keep x0 <= 10.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 10.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 4.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 20.0);
        let sol = LpSolver.solve(&lp).unwrap();
        assert_eq!(sol.status, SolveStatus::LeastViolation);
        assert!(sol.values[0] <= 10.0 + 1e-6);
        assert!(sol.values[0] >= 4.0 - 1e-6);
    }

    /// The support (nonzero columns) of a solution — what delta re-profiling
    /// carries from one solve to the next.
    fn support(solution: &LpSolution) -> Vec<usize> {
        solution
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 1e-9)
            .map(|(j, _)| j)
            .collect()
    }

    /// A HYDRA-shaped feasibility LP: block equalities plus a total sum.
    fn blocky_lp(total: f64) -> LpProblem {
        let n = 60;
        let mut lp = LpProblem::new(n);
        for k in 0..12 {
            let lo = k * 5;
            let terms: Vec<(usize, f64)> = (lo..lo + 5).map(|j| (j, 1.0)).collect();
            lp.add_constraint(terms, ConstraintOp::Eq, 40.0);
        }
        lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, total);
        lp
    }

    #[test]
    fn warm_start_from_previous_support_hits() {
        let lp = blocky_lp(480.0);
        let solver = LpSolver;
        let cold = solver.solve(&lp).unwrap();
        assert_eq!(cold.status, SolveStatus::Feasible);

        // Re-solve the same structure with a revised RHS (a re-annotation
        // delta): the old support is still a feasible basis.
        let warm_hint = WarmStart::new(support(&cold));
        let (warm_sol, outcome) = solver.solve_warm(&lp, Some(&warm_hint)).unwrap();
        assert_eq!(outcome, WarmOutcome::Hit);
        assert_eq!(warm_sol.status, SolveStatus::Feasible);
        assert!(lp.is_feasible(&warm_sol.values, 1e-5));
    }

    #[test]
    fn warm_start_matches_cold_feasibility_on_all_fixtures() {
        // Every fixture the cold solver handles must be handled warm too —
        // with a good hint, a junk hint, and an empty hint.
        let fixtures: Vec<LpProblem> = {
            let mut v = Vec::new();
            let mut lp = LpProblem::new(3);
            lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Eq, 9.0);
            lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 2.0);
            v.push(lp);
            v.push(blocky_lp(480.0));
            // The PR 3 mixed-scale phase-1 tolerance fixture: a huge row
            // target plus small-scale equalities that are exactly feasible.
            let mut lp = LpProblem::new(3);
            lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
            lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 5.0);
            lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Eq, 12.0);
            v.push(lp);
            // Inequalities + upper bounds.
            let mut lp = LpProblem::new(2);
            lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
            lp.set_upper_bound(0, 3.0);
            v.push(lp);
            v
        };
        let solver = LpSolver;
        for (i, lp) in fixtures.iter().enumerate() {
            let cold = solver.solve(lp).unwrap();
            let hints = [
                WarmStart::new(support(&cold)),
                WarmStart::new((0..lp.num_vars).rev().collect()),
                WarmStart::new(Vec::new()),
            ];
            for hint in &hints {
                let (warm_sol, _) = solver.solve_warm(lp, Some(hint)).unwrap();
                assert_eq!(warm_sol.status, cold.status, "fixture {i}");
                assert!(
                    lp.is_feasible(&warm_sol.values, 1e-5),
                    "fixture {i} warm solution infeasible"
                );
            }
        }
    }

    #[test]
    fn stale_warm_basis_falls_back_to_cold() {
        // A hint pointing at columns that cannot span a feasible basis: only
        // x0 is hinted, but feasibility needs x1 (x0 is capped below the
        // demand).  The restricted pass must fail over to the full space.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        lp.set_upper_bound(0, 3.0);
        let solver = LpSolver;
        let (sol, outcome) = solver
            .solve_warm(&lp, Some(&WarmStart::new(vec![0])))
            .unwrap();
        assert_eq!(outcome, WarmOutcome::FellBack);
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert!(lp.is_feasible(&sol.values, 1e-6));

        // An incompatible hint (columns out of range — a basis saved against
        // a different problem) is skipped entirely, not an error.
        let (sol, outcome) = solver
            .solve_warm(&lp, Some(&WarmStart::new(vec![0, 99])))
            .unwrap();
        assert_eq!(outcome, WarmOutcome::NotAttempted);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn warm_and_cold_reach_the_same_least_violation_compromise() {
        // A unit-scale contradiction (the mixed-scale one is
        // `simplex.rs::warm_start_respects_mixed_scale_infeasibility_detection`),
        // where the violation is relatively significant.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 3.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        let solver = LpSolver;
        let cold = solver.solve(&lp).unwrap();
        let (warm, _) = solver
            .solve_warm(&lp, Some(&WarmStart::new(vec![0, 1])))
            .unwrap();
        assert_eq!(cold.status, SolveStatus::LeastViolation);
        assert_eq!(warm.status, SolveStatus::LeastViolation);
        assert!((cold.total_violation - warm.total_violation).abs() < 1e-5);
    }

    /// The columns a working-set mask holds, ascending.
    fn members(mask: &[bool]) -> Vec<usize> {
        (0..mask.len()).filter(|&j| mask[j]).collect()
    }

    /// The working-set seed as it was first written: each constraint's
    /// columns sorted on their own.  Kept as the reference the linear seed
    /// must reproduce exactly.
    fn initial_working_set_reference(problem: &LpProblem) -> Vec<usize> {
        let n = problem.num_vars;
        let mut degree = vec![0u32; n];
        for c in problem.constraints() {
            for (j, _) in c.terms() {
                degree[j] += 1;
            }
        }
        let mut selected = std::collections::BTreeSet::new();
        for c in problem.constraints() {
            let mut cols: Vec<usize> = c.terms().map(|(j, _)| j).collect();
            cols.sort_unstable_by_key(|&j| (degree[j], j));
            for &j in cols.iter().take(13) {
                selected.insert(j);
            }
            for &j in cols.iter().rev().take(13) {
                selected.insert(j);
            }
        }
        selected.into_iter().collect()
    }

    /// A random 0/1 equality system: `n` columns, constraints of random
    /// width whose terms may repeat a column.
    fn zero_one_system() -> impl Strategy<Value = LpProblem> {
        (1usize..160, 1usize..12).prop_flat_map(|(n, m)| {
            let row = proptest::collection::vec(0..n, 0..80);
            proptest::collection::vec(row, m).prop_map(move |rows| {
                let mut lp = LpProblem::new(n);
                for row in rows {
                    let rhs = row.len() as f64;
                    lp.add_constraint(
                        row.into_iter().map(|j| (j, 1.0)).collect(),
                        ConstraintOp::Eq,
                        rhs,
                    );
                }
                lp
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The linear seed selects exactly the columns the per-constraint
        /// sorts select, repeated terms included.
        #[test]
        fn working_set_seed_matches_the_reference(lp in zero_one_system()) {
            prop_assert_eq!(members(&initial_working_set(&lp)), initial_working_set_reference(&lp));
        }
    }

    #[test]
    fn working_set_seed_takes_both_ends_of_long_constraints() {
        // One 40-column constraint plus the total row: 26 of the 40 are
        // seeded, and repeated terms count toward a constraint's length.
        let mut lp = LpProblem::new(40);
        lp.add_constraint((0..40).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 1.0);
        lp.add_constraint((0..40).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 1.0);
        let seed = members(&initial_working_set(&lp));
        assert_eq!(seed.len(), 26);
        assert_eq!(seed, initial_working_set_reference(&lp));
        lp.add_constraint(vec![(5, 1.0), (5, 1.0), (6, 1.0)], ConstraintOp::Eq, 1.0);
        assert_eq!(
            members(&initial_working_set(&lp)),
            initial_working_set_reference(&lp)
        );
    }

    #[test]
    fn warm_start_seeds_the_column_generation_path() {
        // Big enough to take the delayed-column-generation fast path
        // (>= WORKING_SET_MIN_VARS), structured like a fact-relation LP.
        let n = 1500usize;
        let mut lp = LpProblem::new(n);
        for k in 0..10 {
            let lo = k * 150;
            let terms: Vec<(usize, f64)> = (lo..lo + 150).map(|j| (j, 1.0)).collect();
            lp.add_constraint(terms, ConstraintOp::Eq, 100.0);
        }
        lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 1000.0);
        let solver = LpSolver;
        let cold = solver.solve(&lp).unwrap();
        assert_eq!(cold.status, SolveStatus::Feasible);
        let (warm_sol, outcome) = solver
            .solve_warm(&lp, Some(&WarmStart::new(support(&cold))))
            .unwrap();
        assert_eq!(outcome, WarmOutcome::Hit);
        assert!(lp.is_feasible(&warm_sol.values, 1e-5));
    }
}
