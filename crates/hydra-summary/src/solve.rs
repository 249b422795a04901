//! Per-relation LP formulation and solving.
//!
//! One LP variable per region of the relation's region partition, one equality
//! constraint per (deduplicated) volumetric constraint, plus the relation's
//! total row count.  The LP is solved by `hydra-lp`'s elastic master, which
//! minimizes the total violation: if the workload is inconsistent (which can
//! happen for what-if scenarios with injected cardinalities) its optimum is a
//! least-violation solution, exactly the "minor additive errors" the paper
//! tolerates.

use crate::axes::RelationAxes;
use crate::error::SummaryResult;
use crate::summary::RelationSummary;
use hydra_catalog::schema::Table;
use hydra_lp::problem::{ConstraintOp, LpProblem, RowHead};
use hydra_lp::rounding::largest_remainder_round;
use hydra_lp::simplex::{WarmOutcome, WarmStart};
use hydra_lp::solver::{LpSolver, SolveStatus};
use hydra_partition::refine::check_refinable;
use hydra_partition::region::{RegionPartition, RegionPartitioner};
use hydra_query::aqp::VolumetricConstraint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Statistics about one relation's LP (reported on the vendor screen and used
/// by experiments E1/E3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpStats {
    /// Number of LP variables (= regions).
    pub variables: usize,
    /// Number of LP constraints (volumetric + total row count).
    pub constraints: usize,
    /// Time spent partitioning the attribute space.
    pub partition_time: Duration,
    /// Time spent in the simplex solver.
    pub solve_time: Duration,
    /// Whether the LP was satisfied exactly or by least violation.
    pub status: SolveStatus,
    /// Total absolute violation of the LP solution (0 when feasible).
    pub total_violation: f64,
    /// Number of workload constraints whose FK projection had to be coalesced
    /// (an approximation; usually 0).
    pub coalesced_constraints: usize,
    /// Number of workload constraints dropped because their constraint region
    /// was empty (unsatisfiable against the dimension summaries).
    pub empty_constraints: usize,
    /// Number of workload constraints that collided with another constraint
    /// on an identical box set at a different cardinality and were merged at
    /// the group median (their residual error is part of
    /// [`LpStats::total_violation`]).
    pub conflicting_constraints: usize,
    /// What a warm-start hint contributed to this solve
    /// ([`WarmOutcome::NotAttempted`] on cold, from-scratch builds).
    pub warm: WarmOutcome,
}

/// The solved placement of a relation's rows across its regions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolvedRelation {
    /// The region partition of the relation's attribute space.
    pub partition: RegionPartition,
    /// Integral tuple count assigned to each region (same order as
    /// `partition.regions()`); sums to the relation's row target.
    pub region_counts: Vec<u64>,
    /// LP statistics.
    pub stats: LpStats,
}

impl SolvedRelation {
    /// Indices of the regions holding tuples — the LP solution's support.
    pub fn support(&self) -> Vec<usize> {
        self.region_counts
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(region, _)| region)
            .collect()
    }

    /// The retained form of the solve: the partition restricted to its
    /// support, with the matching counts.  The space and constraint unions
    /// stay, so a later delta re-solve refines and warm-starts exactly as it
    /// would from the full partition; the empty regions — nearly all of a
    /// large partition — are dropped.  `stats` still describes the full LP.
    pub fn support_only(self) -> SolvedRelation {
        let support = self.support();
        SolvedRelation {
            partition: self.partition.restrict_to(&support),
            region_counts: self.region_counts.into_iter().filter(|&c| c > 0).collect(),
            stats: self.stats,
        }
    }
}

/// A constraint translated to its boxes over the relation's attribute space,
/// after dedup, conflict merging, and dropping of empty/total-row
/// constraints.
struct BoxedConstraints {
    /// Surviving constraints with their box unions, in input order.
    pub boxed: Vec<(VolumetricConstraint, Vec<hydra_partition::nbox::NBox>)>,
    /// Constraints whose FK projection was coalesced (approximation count).
    pub coalesced_constraints: usize,
    /// Constraints dropped because their region was empty.
    pub empty_constraints: usize,
    /// Constraints that mapped to an identical box set as another constraint
    /// but demanded a different cardinality — irreconcilable in this encoding
    /// (the classic FK-projection granularity loss).  Each group is replaced
    /// by one constraint at the group's median cardinality, which is exactly
    /// the least-violation optimum for the group.
    pub conflicting_constraints: usize,
    /// Total absolute violation the conflict merges pre-committed to
    /// (`Σ |cardinality - group median|`); added to the LP's own violation.
    pub conflict_violation: f64,
}

/// Translates constraints to boxes, dropping total-row-count duplicates and
/// unsatisfiable (empty-region) constraints, and merging identical-box
/// conflicts at their median.
fn boxed_constraints(
    table: &Table,
    axes: &RelationAxes,
    constraints: &[VolumetricConstraint],
    summaries: &BTreeMap<String, RelationSummary>,
) -> SummaryResult<BoxedConstraints> {
    let mut coalesced_constraints = 0usize;
    let mut empty_constraints = 0usize;

    // Group surviving constraints by their box set, preserving first-seen
    // order for determinism.
    let mut groups: Vec<(Vec<hydra_partition::nbox::NBox>, Vec<VolumetricConstraint>)> = Vec::new();
    for c in constraints {
        if c.is_total_row_count() {
            continue;
        }
        let (boxes, coalesced) = axes.constraint_boxes(table, c, summaries)?;
        if coalesced {
            coalesced_constraints += 1;
        }
        if boxes.is_empty() {
            empty_constraints += 1;
            continue;
        }
        match groups.iter_mut().find(|(b, _)| *b == boxes) {
            Some((_, members)) => members.push(c.clone()),
            None => groups.push((boxes, vec![c.clone()])),
        }
    }

    let mut boxed = Vec::with_capacity(groups.len());
    let mut conflicting_constraints = 0usize;
    let mut conflict_violation = 0.0f64;
    for (boxes, members) in groups {
        let mut cards: Vec<u64> = members.iter().map(|m| m.cardinality).collect();
        cards.sort_unstable();
        let median = cards[(cards.len() - 1) / 2];
        if cards.iter().any(|&c| c != median) {
            conflicting_constraints += members.len();
            conflict_violation += cards
                .iter()
                .map(|&c| (c as f64 - median as f64).abs())
                .sum::<f64>();
        }
        let mut merged = members[0].clone();
        merged.cardinality = median;
        boxed.push((merged, boxes));
    }
    Ok(BoxedConstraints {
        boxed,
        coalesced_constraints,
        empty_constraints,
        conflicting_constraints,
        conflict_violation,
    })
}

/// Formulates the per-relation LP over an already-built partition (one
/// variable per region, one equality per surviving constraint, plus the
/// total row count).  A region's signature is its column: the LP matrix is
/// written in one pass over the signatures, each region a unit entry in
/// the rows of its constraints and in the total row.
fn formulate_lp(
    table: &Table,
    partition: &RegionPartition,
    boxed: &[(VolumetricConstraint, Vec<hydra_partition::nbox::NBox>)],
    row_target: u64,
) -> LpProblem {
    let equality = |rhs: u64, label: String| RowHead {
        op: ConstraintOp::Eq,
        rhs: rhs as f64,
        label: Some(label),
    };
    let mut heads: Vec<RowHead> = boxed
        .iter()
        .map(|(c, _)| equality(c.cardinality, c.label.clone()))
        .collect();
    let total_row = heads.len();
    heads.push(equality(row_target, format!("{}.total_rows", table.name)));
    LpProblem::from_columns(
        heads,
        partition.signatures().map(|signature| {
            (signature.iter())
                .chain(std::iter::once(total_row))
                .map(|r| (r, 1.0))
        }),
    )
}

/// Iteration budget for post-rounding integral repair.
const REPAIR_MAX_MOVES: usize = 2_000;

/// Solves one relation: partitions its attribute space into regions,
/// formulates and solves the LP, optionally refines the solution into the
/// interior of the feasible set, rounds to integral counts, and repairs
/// rounding drift.
///
/// `summaries` must already contain the summaries of every dimension this
/// relation references (dimensions-first processing order).
///
/// `interior` should be set for relations that other relations reference
/// (dimensions): vertex solutions collapse regions that distinguish different
/// workload predicates, which makes their foreign-key projections collide on
/// the primary-key axis and turns consistent fact constraints into
/// contradictions.  Moving to the volume-proportional interior point keeps
/// distinguishing regions populated.  Fact relations keep vertex solutions —
/// they give the smallest summaries and nothing projects *onto* them.
///
/// `previous` is the relation's last solve, when this is a delta re-profile:
/// its support (full or [`SolvedRelation::support_only`]) is carried into
/// the re-swept partition by representative point and warm-starts the
/// simplex.  A stale, dimensionally incompatible or support-less previous
/// solve is silently ignored — the solve degrades to a cold partition +
/// solve.
pub fn solve_relation(
    table: &Table,
    axes: &RelationAxes,
    constraints: &[VolumetricConstraint],
    row_target: u64,
    summaries: &BTreeMap<String, RelationSummary>,
    interior: bool,
    previous: Option<&SolvedRelation>,
) -> SummaryResult<SolvedRelation> {
    let partition_start = Instant::now();
    let pre = boxed_constraints(table, axes, constraints, summaries)?;

    // Partition the space against the constraint boxes — incrementally when
    // a compatible previous partition is available.
    let mut partitioner = RegionPartitioner::new(axes.space.clone());
    for (_, boxes) in &pre.boxed {
        partitioner = partitioner.add_constraint_union(boxes.clone());
    }
    // A previous solve with no support carries nothing to warm-start from,
    // so it solves cold.
    let usable_previous = previous.filter(|prev| {
        !prev.support().is_empty() && check_refinable(&prev.partition, axes.space.dims()).is_ok()
    });
    let (partition, warm_hint) = match usable_previous {
        Some(prev) => {
            // The previous solution's support (nonzero regions) is all the
            // warm start needs; a basic solution keeps it small no matter
            // how many regions the partition has.
            let refinement = partitioner.refine(&prev.partition, &prev.support())?;
            let hint = WarmStart::new(refinement.warm_columns());
            (refinement.partition, Some(hint))
        }
        None => (partitioner.partition()?, None),
    };
    let partition_time = partition_start.elapsed();

    let lp = formulate_lp(table, &partition, &pre.boxed, row_target);
    let (solution, warm) = LpSolver.solve_warm(&lp, warm_hint.as_ref())?;
    let mut values = solution.values.clone();
    if interior && solution.status == SolveStatus::Feasible {
        let volumes: Vec<f64> = partition.regions().map(|r| r.volume as f64).collect();
        let total_volume: f64 = volumes.iter().sum();
        let num_regions = volumes.len();
        if total_volume > 0.0 && num_regions > 0 {
            // Blend volume-proportional with uniform-per-region mass: the
            // volume term approximates attribute independence, the uniform
            // term keeps *small* dimensions from rounding their
            // predicate-distinguishing regions down to zero.
            let attractor: Vec<f64> = volumes
                .iter()
                .map(|v| row_target as f64 * 0.5 * (v / total_volume + 1.0 / num_regions as f64))
                .collect();
            values = hydra_lp::refine::refine_toward(&lp, &values, &attractor);
        }
    }
    let mut region_counts = largest_remainder_round(&values, row_target);
    hydra_lp::refine::repair_rounded_counts(&lp, &mut region_counts, REPAIR_MAX_MOVES);

    // Conflict merges pre-committed some violation before the LP ever ran;
    // report it honestly (status and total).
    let total_violation = solution.total_violation + pre.conflict_violation;
    let status = if pre.conflict_violation > 0.0 {
        SolveStatus::LeastViolation
    } else {
        solution.status
    };

    Ok(SolvedRelation {
        region_counts,
        stats: LpStats {
            variables: partition.num_variables(),
            constraints: lp.num_constraints(),
            partition_time,
            solve_time: solution.solve_time,
            status,
            total_violation,
            coalesced_constraints: pre.coalesced_constraints,
            empty_constraints: pre.empty_constraints,
            conflicting_constraints: pre.conflicting_constraints,
            warm,
        },
        partition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};

    fn schema() -> Schema {
        SchemaBuilder::new("toy")
            .table("S", |t| {
                t.column(ColumnBuilder::new("S_pk", big_int()).primary_key())
                    .column(ColumnBuilder::new("A", big_int()).domain(Domain::integer(0, 100)))
                    .column(ColumnBuilder::new("B", big_int()).domain(Domain::integer(0, 100)))
            })
            .build()
            .unwrap()
    }

    fn big_int() -> hydra_catalog::types::DataType {
        hydra_catalog::types::DataType::BigInt
    }

    fn constraint(label: &str, column: &str, lo: i64, hi: i64, card: u64) -> VolumetricConstraint {
        VolumetricConstraint {
            table: "S".into(),
            predicate: TablePredicate::always_true()
                .with(ColumnPredicate::new(column, CompareOp::Ge, lo))
                .with(ColumnPredicate::new(column, CompareOp::Lt, hi)),
            fk_conditions: vec![],
            cardinality: card,
            label: label.into(),
        }
    }

    fn solve(constraints: &[VolumetricConstraint], total: u64) -> SolvedRelation {
        let schema = schema();
        let table = schema.table("S").unwrap();
        let axes = RelationAxes::build(table, constraints, &BTreeMap::new()).unwrap();
        solve_relation(
            table,
            &axes,
            constraints,
            total,
            &BTreeMap::new(),
            false,
            None,
        )
        .unwrap()
    }

    #[test]
    fn feasible_system_is_satisfied_exactly() {
        let cs = vec![
            constraint("q1#1", "A", 20, 60, 400),
            constraint("q2#1", "A", 40, 80, 300),
        ];
        let solved = solve(&cs, 1000);
        assert_eq!(solved.stats.status, SolveStatus::Feasible);
        assert_eq!(solved.region_counts.iter().sum::<u64>(), 1000);
        // Check the two constraints against the rounded counts.
        for (ci, c) in cs.iter().enumerate() {
            let achieved: u64 = solved
                .partition
                .regions_in_constraint(ci)
                .iter()
                .map(|&r| solved.region_counts[r])
                .sum();
            assert_eq!(achieved, c.cardinality, "constraint {}", c.label);
        }
    }

    #[test]
    fn total_row_count_always_respected_after_rounding() {
        let cs = vec![constraint("q1#1", "A", 0, 10, 333)];
        let solved = solve(&cs, 997);
        assert_eq!(solved.region_counts.iter().sum::<u64>(), 997);
    }

    #[test]
    fn duplicate_constraints_are_deduplicated() {
        let cs = vec![
            constraint("q1#1", "A", 20, 60, 400),
            constraint("q7#3", "A", 20, 60, 400),
        ];
        let solved = solve(&cs, 1000);
        // 1 deduped volumetric constraint + 1 total row constraint.
        assert_eq!(solved.stats.constraints, 2);
    }

    #[test]
    fn infeasible_system_recovers_with_small_violation() {
        // Two contradictory cardinalities for the same box.
        let cs = vec![
            constraint("q1#1", "A", 20, 60, 400),
            constraint("q2#1", "A", 20, 60, 500),
        ];
        let solved = solve(&cs, 1000);
        assert_eq!(solved.stats.status, SolveStatus::LeastViolation);
        assert!(solved.stats.total_violation >= 99.0);
        assert_eq!(solved.region_counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn multi_column_constraints() {
        let cs = vec![
            constraint("q1#1", "A", 0, 50, 600),
            constraint("q2#1", "B", 0, 50, 300),
        ];
        let solved = solve(&cs, 1000);
        assert_eq!(solved.stats.status, SolveStatus::Feasible);
        assert!(solved.stats.variables <= 4);
        let total: u64 = solved.region_counts.iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn support_only_keeps_exactly_the_nonzero_regions() {
        let cs = vec![
            constraint("q1#1", "A", 20, 60, 400),
            constraint("q2#1", "B", 40, 80, 300),
            constraint("q3#1", "A", 50, 90, 0),
        ];
        let solved = solve(&cs, 1000);
        let support = solved.support();
        assert!(support.len() < solved.partition.num_variables());
        let kept: Vec<_> = support
            .iter()
            .map(|&r| (solved.partition.region(r), solved.region_counts[r]))
            .collect();
        let retained = solved.clone().support_only();
        assert_eq!(retained.partition.num_variables(), support.len());
        assert!(retained.region_counts.iter().all(|&c| c > 0));
        let retained_pairs: Vec<_> = retained
            .partition
            .regions()
            .zip(retained.region_counts.iter().copied())
            .collect();
        assert_eq!(retained_pairs, kept);
        assert_eq!(retained.stats, solved.stats);
        assert_eq!(
            retained.partition.constraint_unions(),
            solved.partition.constraint_unions()
        );
    }

    #[test]
    fn stats_capture_problem_size() {
        let cs = vec![
            constraint("q1#1", "A", 20, 60, 400),
            constraint("q2#1", "A", 40, 80, 300),
        ];
        let solved = solve(&cs, 1000);
        assert_eq!(solved.stats.variables, solved.partition.num_variables());
        assert_eq!(solved.stats.constraints, 3);
        assert_eq!(solved.stats.empty_constraints, 0);
        assert_eq!(solved.stats.coalesced_constraints, 0);
    }
}
