//! # hydra-lp
//!
//! Linear-program modelling and solving for HYDRA.
//!
//! The original system hands its per-relation linear programs to the Z3 SMT
//! solver.  Mature LP bindings are not available offline, so this crate
//! provides a self-contained replacement:
//!
//! * [`problem::LpProblem`] — a sparse LP model (variables, linear
//!   constraints, non-negativity and optional hard upper bounds);
//! * [`simplex`] — the elastic restricted master: one dense primal simplex
//!   that minimizes the constraints' total violation over a working set of
//!   columns, which priced columns join without losing its basis;
//! * [`solver::LpSolver`] — the entry point used by `hydra-summary`: it
//!   grows the master's working set by dual pricing until nothing prices,
//!   and reports a zero optimum as feasible and a positive one as the
//!   certified least-violation solution; a [`WarmStart`] hint seeds the
//!   working set;
//! * [`rounding`] — largest-remainder rounding of fractional solutions into
//!   integral tuple counts that preserve group sums;
//! * [`diagnostics`] — constraint-violation reports used by the accuracy
//!   experiments (E2, E7).
//!
//! The LPs HYDRA produces are pure feasibility problems over non-negative
//! variables (one per region) with equality constraints (one per volumetric
//! annotation), so a primal simplex is an exact functional replacement for
//! the paper's Z3 usage.
//!
//! ## Example
//!
//! ```
//! use hydra_lp::problem::{LpProblem, ConstraintOp};
//! use hydra_lp::solver::{LpSolver, SolveStatus};
//!
//! // x0 + x1 = 10, x0 <= 4, x1 >= 7: feasible only with x0 <= 3.
//! let mut lp = LpProblem::new(2);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
//! lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Ge, 7.0);
//! let sol = LpSolver.solve(&lp).unwrap();
//! assert_eq!(sol.status, SolveStatus::Feasible);
//! assert!(lp.is_feasible(&sol.values, 1e-9));
//!
//! // Asking for x0 = 5 as well contradicts x1 >= 7: the solver returns the
//! // least total violation, 2.
//! lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0);
//! let sol = LpSolver.solve(&lp).unwrap();
//! assert_eq!(sol.status, SolveStatus::LeastViolation);
//! assert!((sol.total_violation - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod diagnostics;
pub mod problem;
pub mod refine;
pub mod rounding;
pub mod simplex;
pub mod solver;

pub use diagnostics::{ConstraintViolation, ViolationReport};
pub use problem::{Constraint, ConstraintOp, LpProblem};
pub use refine::{refine_toward, repair_rounded_counts};
pub use rounding::largest_remainder_round;
pub use simplex::{WarmOutcome, WarmStart};
pub use solver::{LpError, LpSolution, LpSolver, SolveStatus};
