//! High-level LP solving interface used by the summary generator.

use crate::diagnostics::ViolationReport;
use crate::problem::{Coefs, LpProblem};
use crate::simplex::{Master, WarmOutcome, WarmStart};
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
    /// The solver exceeded its pivot budget.
    IterationLimit,
    /// A variable's upper bound is below zero, so no non-negative value
    /// meets it (bounds are hard; only constraints take violation).
    NegativeUpperBound {
        /// The bounded variable.
        var: usize,
        /// Its upper bound.
        bound: f64,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "LP solver exceeded its pivot budget"),
            LpError::NegativeUpperBound { var, bound } => {
                write!(f, "LP variable {var} has a negative upper bound {bound}")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// High-level LP solver.
///
/// `solve` minimizes the total violation of the constraints over the
/// elastic restricted master ([`crate::simplex`]), growing its working set
/// by dual pricing until no excluded column can lower it.  A zero optimum
/// (within [`FEASIBILITY_TOLERANCE`]) is a feasible point; a positive one
/// is the certified least-violation compromise, HYDRA's "minor additive
/// errors", placed where its relative error is smallest.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpSolver;

/// Feasibility tolerance used when classifying a solution, relative to the
/// largest right-hand side: a total violation within it counts as
/// [`SolveStatus::Feasible`].
pub const FEASIBILITY_TOLERANCE: f64 = 1e-6;

/// The absolute violation below which a solution counts as feasible: [`FEASIBILITY_TOLERANCE`], scaled by the magnitude of the
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

/// Prices every excluded column against the duals (`rc_j = -y·A_j` for
/// zero-cost structural columns) and adds the most promising ones to the
/// working set.  Returns the added columns, ascending.
///
/// A column's score `y·A_j` adds its terms in row order over the
/// [`crate::problem::ColumnView`], skipping rows whose dual is negligible.
fn price_and_add(problem: &LpProblem, duals: &[f64], selected: &mut [bool]) -> Vec<usize> {
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
    let mut added: Vec<usize> = candidates.into_iter().map(|(_, j)| j).collect();
    added.sort_unstable();
    for &j in &added {
        selected[j] = true;
    }
    added
}

/// The master's optimum over a working set grown by pricing.
struct Priced {
    /// Value per problem column (zero off the working set).
    values: Vec<f64>,
    /// Whether the total violation is within the feasibility tolerance.
    feasible: bool,
    /// Whether any priced column joined the working set.
    grew: bool,
}

/// Solves the master over the working set `selected`, then prices the
/// excluded columns against its duals and lets those that price in join
/// the kept basis, until none does (or the violation is already within
/// the tolerance, where no column can lower it further).  The working set
/// only grows, so the loop ends.  A least-violation optimum is then
/// settled onto the rows where its violation is relatively smallest.
fn solve_priced(problem: &LpProblem, mut selected: Vec<bool>) -> Result<Priced, LpError> {
    let tolerance = feasibility_tolerance(problem);
    let working: Vec<usize> = (0..problem.num_vars).filter(|&j| selected[j]).collect();
    let mut master = Master::new(problem, &working)?;
    let mut grew = false;
    loop {
        master.optimize()?;
        if master.objective() <= tolerance {
            break;
        }
        let joining = price_and_add(problem, &master.duals(), &mut selected);
        if joining.is_empty() {
            break;
        }
        master.join(problem, &joining);
        grew = true;
    }
    let feasible = master.objective() <= tolerance;
    if !feasible {
        master.settle()?;
    }
    Ok(Priced {
        values: master.values(problem.num_vars),
        feasible,
        grew,
    })
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
    /// The hinted columns join the seeded working set; pricing brings in
    /// anything else the LP needs, so a warm solve reaches the optimum a
    /// cold one does.  An empty hint, or one naming a column past the
    /// problem (saved against another problem), is ignored.  The returned
    /// [`WarmOutcome`] reports what the hint contributed.
    pub fn solve_warm(
        &self,
        problem: &LpProblem,
        warm: Option<&WarmStart>,
    ) -> Result<(LpSolution, WarmOutcome), LpError> {
        let start = Instant::now();
        let n = problem.num_vars;
        let hint = warm.filter(|w| !w.columns.is_empty() && w.columns.iter().all(|&j| j < n));
        let mut selected = initial_working_set(problem);
        for &j in hint.map_or(&[][..], |w| &w.columns) {
            selected[j] = true;
        }
        let priced = solve_priced(problem, selected)?;
        // A hit closed on the seeded working set and rests on hinted
        // columns: a junk hint riding on the seed is not a hit.
        let warm_outcome = match hint {
            None => WarmOutcome::NotAttempted,
            Some(w) if !priced.grew && w.columns.iter().any(|&j| priced.values[j] > 1e-9) => {
                WarmOutcome::Hit
            }
            Some(_) => WarmOutcome::FellBack,
        };
        let report = ViolationReport::evaluate(problem, &priced.values);
        Ok((
            LpSolution {
                status: if priced.feasible {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::LeastViolation
                },
                total_violation: report.total_absolute_violation,
                solve_time: start.elapsed(),
                num_vars: n,
                num_constraints: problem.num_constraints(),
                values: priced.values,
            },
            warm_outcome,
        ))
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
            // The mixed-scale tolerance fixture: a huge row target plus
            // small-scale equalities that are exactly feasible.
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
        // A hint whose columns cannot carry the solution: 60 columns must
        // sum to 20 while columns 20..60 sum to 0 and every column is capped
        // at 1, so each of columns 0..20 must hold 1.  The seed takes only
        // 13 of those (the rest sit mid-order in both rows), so pricing has
        // to bring the others in.
        let mut lp = LpProblem::new(60);
        lp.add_constraint((0..60).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 20.0);
        lp.add_constraint((20..60).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 0.0);
        for j in 0..60 {
            lp.set_upper_bound(j, 1.0);
        }
        assert!(!initial_working_set(&lp)[15]);
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
        // A unit-scale contradiction, where the violation is relatively
        // significant.
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

    #[test]
    fn feasibility_tolerance_is_relative_to_rhs_scale() {
        // At 1e10 scale, a 1e-3 absolute inconsistency is floating-point
        // noise (what-if scenarios hit this): it reads as feasible.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 2e10);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3e10 + 1e-3);
        let sol = LpSolver.solve(&lp).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert!((sol.values[0] - 1e10).abs() < 1.0);
        assert!((sol.values[1] - 2e10).abs() < 1.0);

        // The same absolute gap at unit scale is a real contradiction.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 12.001);
        let sol = LpSolver.solve(&lp).unwrap();
        assert_eq!(sol.status, SolveStatus::LeastViolation);
        assert!((sol.total_violation - 0.001).abs() < 1e-9);
    }

    #[test]
    fn warm_start_keeps_a_mixed_scale_violation() {
        // A unit-scale contradiction next to a 1e10 row target falls within
        // the scale-relative tolerance, but its violation is still reported,
        // warm-started or not.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 1e10);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 7.0);
        for warm in [None, Some(WarmStart::new(vec![0, 1]))] {
            let (sol, _) = LpSolver.solve_warm(&lp, warm.as_ref()).unwrap();
            assert_eq!(sol.status, SolveStatus::Feasible, "warm {warm:?}");
            assert!((sol.total_violation - 2.0).abs() < 1e-6, "warm {warm:?}");
        }
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

    /// A 0/1 equality system wider than the seed takes: 40–300 columns,
    /// 3–12 rows each over about half of them, and a total row.  The
    /// right-hand sides are read off a hidden non-negative integer point
    /// whose support sits on columns the seed tends to skip (median degree,
    /// middle third by index), so pricing has to find them.  With `perturb`,
    /// one row's right-hand side moves by up to ±40 (it may turn negative),
    /// which usually makes the system infeasible.  Returns the system and
    /// whether it is feasible by construction.
    fn wide_system(perturb: bool) -> impl Strategy<Value = (LpProblem, bool)> {
        (40usize..300, 3usize..12).prop_flat_map(move |(n, m)| {
            let masks = proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), m);
            let point = proptest::collection::vec(0u32..16, n);
            (masks, point, 0..m, -40i32..40).prop_map(move |(masks, point, row, delta)| {
                let degree: Vec<usize> = (0..n)
                    .map(|j| masks.iter().filter(|mask| mask[j]).count())
                    .collect();
                let mut sorted = degree.clone();
                sorted.sort_unstable();
                let median = sorted[n / 2];
                let middle = n / 3..2 * n / 3;
                // About one such column in four carries 1..=4 units.
                let point: Vec<f64> = (0..n)
                    .map(|j| match degree[j] == median && middle.contains(&j) {
                        true => point[j].saturating_sub(11) as f64,
                        false => 0.0,
                    })
                    .collect();
                let mut lp = LpProblem::new(n);
                let rows = masks
                    .iter()
                    .map(|mask| (0..n).filter(|&j| mask[j]).collect());
                for (r, row_columns) in rows.chain([(0..n).collect::<Vec<usize>>()]).enumerate() {
                    let mut rhs: f64 = row_columns.iter().map(|&j| point[j]).sum();
                    if perturb && r == row {
                        rhs += delta as f64;
                    }
                    let terms = row_columns.into_iter().map(|j| (j, 1.0)).collect();
                    lp.add_constraint(terms, ConstraintOp::Eq, rhs);
                }
                (lp, !perturb || delta == 0)
            })
        })
    }

    /// `a` and `b` agree to 1e-6, relative to the larger (or to 1).
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
    }

    /// Status and total violation of the master over every column.
    fn full_master(lp: &LpProblem) -> (SolveStatus, f64) {
        let full = solve_priced(lp, vec![true; lp.num_vars]).unwrap();
        let status = if full.feasible {
            SolveStatus::Feasible
        } else {
            SolveStatus::LeastViolation
        };
        let violation = ViolationReport::evaluate(lp, &full.values).total_absolute_violation;
        (status, violation)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Pricing from the seed reaches the optimum of the master that
        /// holds every column from the start, feasible or not; a system
        /// feasible by construction solves `Feasible`.
        #[test]
        fn pricing_reaches_the_full_master_optimum(
            (lp, feasible) in wide_system(false),
            (soft, soft_feasible) in wide_system(true),
        ) {
            for (lp, feasible) in [(lp, feasible), (soft, soft_feasible)] {
                let sol = LpSolver.solve(&lp).unwrap();
                let (status, violation) = full_master(&lp);
                prop_assert_eq!(sol.status, status);
                prop_assert!(close(sol.total_violation, violation),
                    "priced {} vs full {}", sol.total_violation, violation);
                if feasible {
                    prop_assert_eq!(sol.status, SolveStatus::Feasible);
                }
            }
        }

        /// The master started on any working set, the empty one included,
        /// prices its way to the full master's optimum.
        #[test]
        fn pricing_from_any_working_set_reaches_the_full_optimum(
            (lp, _) in wide_system(true),
            mask in proptest::collection::vec(0u32..8, 300),
        ) {
            let selected: Vec<bool> = (0..lp.num_vars).map(|j| mask[j] == 0).collect();
            let priced = solve_priced(&lp, selected).unwrap();
            let violation = ViolationReport::evaluate(&lp, &priced.values).total_absolute_violation;
            let (status, full) = full_master(&lp);
            prop_assert_eq!(priced.feasible, status == SolveStatus::Feasible);
            prop_assert!(close(violation, full), "priced {} vs full {}", violation, full);
        }

        /// A warm hint — any subset of the columns, possibly empty — gives
        /// the status and total violation of the cold solve.
        #[test]
        fn warm_hint_changes_neither_status_nor_violation(
            (lp, _) in wide_system(true),
            mask in proptest::collection::vec(any::<bool>(), 300),
        ) {
            let hint: Vec<usize> = (0..lp.num_vars).filter(|&j| mask[j]).collect();
            let cold = LpSolver.solve(&lp).unwrap();
            let (warm, _) = LpSolver.solve_warm(&lp, Some(&WarmStart::new(hint))).unwrap();
            prop_assert_eq!(warm.status, cold.status);
            prop_assert!(close(warm.total_violation, cold.total_violation),
                "warm {} vs cold {}", warm.total_violation, cold.total_violation);
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
    fn warm_start_seeds_the_working_set() {
        // Wider than the seed takes, structured like a fact-relation LP.
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
