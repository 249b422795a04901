//! Sparse linear-program model.

use serde::{Deserialize, Serialize};
use std::fmt;

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

/// A single linear constraint `sum(coef_i * x_i) op rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse terms: (variable index, coefficient).
    pub terms: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional human-readable label (e.g. which AQP edge produced it),
    /// carried through to violation reports.
    pub label: Option<String>,
}

impl Constraint {
    /// Evaluates the left-hand side for a candidate solution.
    pub fn lhs(&self, values: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|(i, c)| c * values.get(*i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Signed violation of the constraint for a candidate solution
    /// (0 when satisfied; positive magnitude = amount by which it is missed).
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.lhs(values);
        match self.op {
            ConstraintOp::Eq => lhs - self.rhs,
            ConstraintOp::Le => (lhs - self.rhs).max(0.0),
            ConstraintOp::Ge => (self.rhs - lhs).max(0.0),
        }
    }
}

/// A linear program over non-negative variables.
///
/// All variables are implicitly bounded below by zero (tuple counts cannot be
/// negative); optional upper bounds can be attached per variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpProblem {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Constraints.
    pub constraints: Vec<Constraint>,
    /// Optional sparse objective (minimized).  Empty = pure feasibility.
    pub objective: Vec<(usize, f64)>,
    /// Optional per-variable upper bounds (`None` = unbounded above).
    pub upper_bounds: Vec<Option<f64>>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` non-negative variables and no
    /// constraints.
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            constraints: Vec::new(),
            objective: Vec::new(),
            upper_bounds: vec![None; num_vars],
        }
    }

    /// Adds a constraint and returns its index.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint {
            terms,
            op,
            rhs,
            label: None,
        });
        self.constraints.len() - 1
    }

    /// Adds a labelled constraint and returns its index.
    pub fn add_labeled_constraint(
        &mut self,
        terms: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
        label: impl Into<String>,
    ) -> usize {
        self.constraints.push(Constraint {
            terms,
            op,
            rhs,
            label: Some(label.into()),
        });
        self.constraints.len() - 1
    }

    /// Sets the (sparse) linear objective to minimize.
    pub fn set_objective(&mut self, terms: Vec<(usize, f64)>) {
        self.objective = terms;
    }

    /// Sets an upper bound on a variable.
    pub fn set_upper_bound(&mut self, var: usize, bound: f64) {
        if var < self.num_vars {
            self.upper_bounds[var] = Some(bound);
        }
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of non-zero coefficients across all constraints.
    pub fn num_nonzeros(&self) -> usize {
        self.constraints.iter().map(|c| c.terms.len()).sum()
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
        self.constraints
            .iter()
            .all(|c| c.violation(values).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_evaluation() {
        let c = Constraint {
            terms: vec![(0, 2.0), (2, 1.0)],
            op: ConstraintOp::Eq,
            rhs: 7.0,
            label: None,
        };
        assert_eq!(c.lhs(&[2.0, 99.0, 3.0]), 7.0);
        assert_eq!(c.violation(&[2.0, 99.0, 3.0]), 0.0);
        assert_eq!(c.violation(&[2.0, 0.0, 4.0]), 1.0);
    }

    #[test]
    fn violation_direction_for_inequalities() {
        let le = Constraint {
            terms: vec![(0, 1.0)],
            op: ConstraintOp::Le,
            rhs: 5.0,
            label: None,
        };
        assert_eq!(le.violation(&[4.0]), 0.0);
        assert_eq!(le.violation(&[6.0]), 1.0);
        let ge = Constraint {
            terms: vec![(0, 1.0)],
            op: ConstraintOp::Ge,
            rhs: 5.0,
            label: None,
        };
        assert_eq!(ge.violation(&[6.0]), 0.0);
        assert_eq!(ge.violation(&[4.0]), 1.0);
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
