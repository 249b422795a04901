//! Constraint-violation diagnostics.
//!
//! HYDRA's accuracy experiments (E2, E7) report the distribution of *relative
//! errors* across volumetric constraints.  The [`ViolationReport`] here is the
//! numeric backbone of those reports: for every constraint it records the
//! achieved LHS, the target RHS, and the absolute/relative error.

use crate::problem::LpProblem;
use serde::{Deserialize, Serialize};

/// The violation of a single constraint by a candidate solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintViolation {
    /// Constraint index in the problem.
    pub index: usize,
    /// Optional label carried from the constraint (e.g. AQP edge id).
    pub label: Option<String>,
    /// Achieved left-hand side.
    pub achieved: f64,
    /// Target right-hand side.
    pub target: f64,
    /// Absolute violation (0 when satisfied).
    pub absolute: f64,
    /// Relative violation: `absolute / max(|target|, 1)`.
    pub relative: f64,
}

/// Violations of every constraint in a problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ViolationReport {
    /// Per-constraint violations (one entry per constraint, satisfied or not).
    pub violations: Vec<ConstraintViolation>,
    /// Sum of absolute violations.
    pub total_absolute_violation: f64,
}

impl ViolationReport {
    /// Evaluates a candidate solution against all constraints of a problem.
    ///
    /// The left-hand sides are summed column by column over the problem's
    /// [`crate::problem::ColumnView`], skipping zero values: a row's terms
    /// ascend by column, so each row still adds its nonzero terms in its
    /// own order, and a sparse solution costs its support's nonzeros.
    pub fn evaluate(problem: &LpProblem, values: &[f64]) -> Self {
        let columns = problem.columns();
        let mut lhs = vec![0.0f64; problem.num_constraints()];
        for (j, &v) in values.iter().enumerate().take(problem.num_vars) {
            if v != 0.0 {
                for (&r, c) in columns.rows(j).iter().zip(columns.coefs(j).iter()) {
                    lhs[r as usize] += c * v;
                }
            }
        }
        let mut violations = Vec::with_capacity(lhs.len());
        let mut total = 0.0;
        for (i, (head, achieved)) in problem.heads().iter().zip(lhs).enumerate() {
            let absolute = head.op.violation(achieved, head.rhs).abs();
            let relative = absolute / head.rhs.abs().max(1.0);
            total += absolute;
            violations.push(ConstraintViolation {
                index: i,
                label: head.label.clone(),
                achieved,
                target: head.rhs,
                absolute,
                relative,
            });
        }
        ViolationReport {
            violations,
            total_absolute_violation: total,
        }
    }

    /// Number of constraints satisfied within the given relative error.
    pub fn satisfied_within(&self, relative_error: f64) -> usize {
        self.violations
            .iter()
            .filter(|v| v.relative <= relative_error)
            .count()
    }

    /// Fraction (0..=1) of constraints satisfied within the given relative error.
    pub fn fraction_within(&self, relative_error: f64) -> f64 {
        if self.violations.is_empty() {
            return 1.0;
        }
        self.satisfied_within(relative_error) as f64 / self.violations.len() as f64
    }

    /// The largest relative error across constraints (0 if there are none).
    pub fn max_relative_error(&self) -> f64 {
        self.violations
            .iter()
            .map(|v| v.relative)
            .fold(0.0, f64::max)
    }

    /// Mean relative error across constraints (0 if there are none).
    pub fn mean_relative_error(&self) -> f64 {
        if self.violations.is_empty() {
            return 0.0;
        }
        self.violations.iter().map(|v| v.relative).sum::<f64>() / self.violations.len() as f64
    }

    /// Cumulative-distribution points of relative error at the given
    /// thresholds, as `(threshold, fraction satisfied)` pairs.  This is the
    /// "percentage of volumetric constraints satisfied within a given relative
    /// error" plot from the vendor screen (Figure 4, bottom left).
    pub fn error_cdf(&self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        thresholds
            .iter()
            .map(|t| (*t, self.fraction_within(*t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};

    fn report() -> (LpProblem, ViolationReport) {
        let mut lp = LpProblem::new(2);
        lp.add_labeled_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 100.0, "a");
        lp.add_labeled_constraint(vec![(1, 1.0)], ConstraintOp::Eq, 200.0, "b");
        lp.add_labeled_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1000.0, "c");
        let r = ViolationReport::evaluate(&lp, &[100.0, 190.0]);
        (lp, r)
    }

    #[test]
    fn evaluate_computes_absolute_and_relative() {
        let (_, r) = report();
        assert_eq!(r.violations.len(), 3);
        assert_eq!(r.violations[0].absolute, 0.0);
        assert_eq!(r.violations[1].absolute, 10.0);
        assert!((r.violations[1].relative - 0.05).abs() < 1e-12);
        assert_eq!(r.violations[2].absolute, 0.0); // inequality satisfied
        assert_eq!(r.total_absolute_violation, 10.0);
    }

    #[test]
    fn cdf_and_summaries() {
        let (_, r) = report();
        assert_eq!(r.satisfied_within(0.0), 2);
        assert_eq!(r.satisfied_within(0.1), 3);
        assert!((r.fraction_within(0.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.max_relative_error() - 0.05).abs() < 1e-12);
        assert!(r.mean_relative_error() > 0.0);
        let cdf = r.error_cdf(&[0.0, 0.01, 0.1]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[2].1, 1.0);
    }

    #[test]
    fn empty_report() {
        let lp = LpProblem::new(1);
        let r = ViolationReport::evaluate(&lp, &[0.0]);
        assert_eq!(r.fraction_within(0.0), 1.0);
        assert_eq!(r.max_relative_error(), 0.0);
        assert_eq!(r.mean_relative_error(), 0.0);
    }

    #[test]
    fn relative_error_uses_unit_floor_for_tiny_targets() {
        let mut lp = LpProblem::new(1);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 0.0);
        let r = ViolationReport::evaluate(&lp, &[0.5]);
        assert_eq!(r.violations[0].relative, 0.5);
    }
}
