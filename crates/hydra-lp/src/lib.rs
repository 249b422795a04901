//! # hydra-lp
//!
//! Linear-program modelling and solving for HYDRA.
//!
//! The original system hands its per-relation linear programs to the Z3 SMT
//! solver.  Mature LP bindings are not available offline, so this crate
//! provides a self-contained replacement:
//!
//! * [`problem::LpProblem`] — a sparse LP model (variables, linear
//!   constraints, optional linear objective, non-negativity bounds);
//! * [`simplex::Simplex`] — a dense two-phase primal simplex solver with
//!   Bland's-rule anti-cycling over a flat row-major tableau, which sees a
//!   fact relation's LP only as column-generation working sets of a few
//!   hundred to about 1 400 columns;
//! * [`solver::LpSolver`] — the high-level entry point used by
//!   `hydra-summary`: feasibility solving, least-violation ("soft") solving
//!   when the constraint system is over-determined, and optional objective
//!   minimization;
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
//! use hydra_lp::solver::LpSolver;
//!
//! // x0 + x1 = 10, x0 <= 4, minimize x1
//! let mut lp = LpProblem::new(2);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
//! lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
//! lp.set_objective(vec![(1, 1.0)]);
//! let sol = LpSolver.solve(&lp).unwrap();
//! assert!((sol.values[0] - 4.0).abs() < 1e-6);
//! assert!((sol.values[1] - 6.0).abs() < 1e-6);
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
