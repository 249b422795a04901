//! Property-based tests for the simplex solver and rounding.

use hydra_lp::problem::{ConstraintOp, LpProblem};
use hydra_lp::rounding::largest_remainder_round;
use hydra_lp::solver::{LpSolver, SolveStatus};
use proptest::prelude::*;

/// Strategy: HYDRA-shaped feasible LPs.  We first draw a hidden "ground truth"
/// assignment, then emit constraints whose RHS are computed from it, so the
/// system is feasible by construction.
fn feasible_lp() -> impl Strategy<Value = (LpProblem, Vec<f64>)> {
    (2usize..12, 1usize..8).prop_flat_map(|(n, m)| {
        let truth = proptest::collection::vec(0.0f64..50.0, n);
        let masks = proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), m);
        (truth, masks).prop_map(|(truth, masks)| {
            let truth: Vec<f64> = truth.iter().map(|v| v.round()).collect();
            let mut lp = LpProblem::new(truth.len());
            for mask in masks {
                let terms: Vec<(usize, f64)> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| **b)
                    .map(|(i, _)| (i, 1.0))
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                let rhs: f64 = terms.iter().map(|(i, _)| truth[*i]).sum();
                lp.add_constraint(terms, ConstraintOp::Eq, rhs);
            }
            // Total-sum constraint, always present in HYDRA LPs.
            let total: f64 = truth.iter().sum();
            lp.add_constraint(
                (0..truth.len()).map(|i| (i, 1.0)).collect(),
                ConstraintOp::Eq,
                total,
            );
            (lp, truth)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any feasible-by-construction LP must be solved exactly feasibly.
    #[test]
    fn simplex_finds_feasible_solutions((lp, _truth) in feasible_lp()) {
        let sol = LpSolver.solve(&lp).unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Feasible);
        prop_assert!(lp.is_feasible(&sol.values, 1e-4),
            "solution {:?} violates constraints", sol.values);
    }

    /// Solutions never contain negative values.
    #[test]
    fn simplex_solutions_are_nonnegative((lp, _truth) in feasible_lp()) {
        let sol = LpSolver.solve(&lp).unwrap();
        prop_assert!(sol.values.iter().all(|v| *v >= -1e-9));
    }

    /// Largest-remainder rounding preserves the requested total exactly and
    /// never moves an entry by a full unit or more (when the fractional sum
    /// matches the target).
    #[test]
    fn rounding_preserves_total(values in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let total: f64 = values.iter().sum();
        let target = total.round() as u64;
        let rounded = largest_remainder_round(&values, target);
        prop_assert_eq!(rounded.iter().sum::<u64>(), target);
        for (orig, r) in values.iter().zip(&rounded) {
            prop_assert!((*r as f64 - orig).abs() <= 1.0 + 1e-9,
                "entry moved too far: {} -> {}", orig, r);
        }
    }

    /// Rounding with an arbitrary target still hits the target exactly.
    #[test]
    fn rounding_hits_arbitrary_targets(
        values in proptest::collection::vec(0.0f64..100.0, 1..20),
        target in 0u64..5000,
    ) {
        let rounded = largest_remainder_round(&values, target);
        prop_assert_eq!(rounded.iter().sum::<u64>(), target);
    }
}
