//! Incremental partition refinement for delta re-profiling.
//!
//! When a workload evolves, most relations' constraint boxes are unchanged —
//! and even on a changed relation, most of the attribute space keeps exactly
//! the predicate boundaries it had.  [`RegionPartitioner::refine`] sweeps the
//! new constraint set once (bit-identical to a from-scratch partition) and
//! maps the previous solution's *support* — the regions that actually held
//! tuples; a basic LP solution has at most one per constraint, so this set is
//! small regardless of how many regions the partition has — forward into
//! the new partition, so a downstream LP warm start can inherit it instead
//! of starting from nothing ([`PartitionRefinement::warm_columns`]).
//!
//! Each supported region is located by its representative point alone, so
//! the previous partition may be *support-only* (see
//! [`RegionPartition::restrict_to`]): a retained solve keeps kilobytes of
//! regions instead of the whole partition, and refines exactly as the full
//! partition would.
//!
//! The carry-over map is advisory (it feeds warm-start *hints*, never
//! correctness): a supported previous region maps to the new region
//! containing its representative point.  Mapping only the support keeps
//! refinement linear in the support size instead of quadratic in the
//! region count.

use crate::region::{RegionPartition, RegionPartitioner};
use crate::{PartitionError, PartitionResult};
use std::collections::BTreeSet;

/// The result of incrementally refining a partition against a previous one.
#[derive(Debug, Clone)]
pub struct PartitionRefinement {
    /// The partition of the *new* constraint set.
    pub partition: RegionPartition,
    /// `(old region, new region)` pairs: where each *supported* previous
    /// region's representative point landed in the new partition.
    pub carried: Vec<(usize, usize)>,
}

impl PartitionRefinement {
    /// The new-region indices to prioritize in a warm-started LP: the
    /// regions that inherit the previous solution's support.
    pub fn warm_columns(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.carried.iter().map(|&(_, new)| new).collect();
        set.into_iter().collect()
    }
}

impl RegionPartitioner {
    /// Partitions the added constraints *incrementally* against a previous
    /// partition of the same relation, which may be full or support-only
    /// (see the module docs).  `prev_support` lists the previous regions
    /// worth carrying forward — typically the indices whose solved tuple
    /// count is nonzero.  The resulting partition is bit-identical to what
    /// [`RegionPartitioner::partition`] would produce from scratch.
    pub fn refine(
        self,
        prev: &RegionPartition,
        prev_support: &[usize],
    ) -> PartitionResult<PartitionRefinement> {
        let (space, constraints, max_regions) = self.parts();

        // Sweep the new constraint set once, then carry the previous
        // *support* forward — each supported old region's representative
        // point is located in the new partition (linear in the support size,
        // not in the region count).
        let mut partitioner = RegionPartitioner::new(space).with_max_regions(max_regions);
        for boxes in constraints {
            partitioner = partitioner.add_constraint_union(boxes);
        }
        let partition = partitioner.partition()?;
        let carried = prev_support
            .iter()
            .filter(|&&old| old < prev.num_variables())
            .filter_map(|&old| {
                let point = prev.region(old).representative_point();
                partition.region_containing(&point).map(|new| (old, new))
            })
            .collect();
        Ok(PartitionRefinement { partition, carried })
    }
}

/// Guard against misuse: refinement only makes sense against a previous
/// partition of the same dimensionality (callers catch this as a stale
/// baseline and fall back to a cold partition + solve).
pub fn check_refinable(prev: &RegionPartition, dims: usize) -> PartitionResult<()> {
    if prev.space().dims() != dims {
        return Err(PartitionError::DimensionMismatch {
            expected: dims,
            got: prev.space().dims(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::nbox::NBox;
    use crate::space::AttributeSpace;

    fn space_1d() -> AttributeSpace {
        AttributeSpace::new(vec![("a".to_string(), Interval::new(0, 100))])
    }

    fn space_2d() -> AttributeSpace {
        AttributeSpace::new(vec![
            ("a".to_string(), Interval::new(0, 100)),
            ("b".to_string(), Interval::new(0, 100)),
        ])
    }

    #[test]
    fn identical_boxes_resweep_to_the_same_partition_and_carry_every_region() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(40, 80)]))
            .partition()
            .unwrap();
        let support: Vec<usize> = (0..prev.num_variables()).collect();
        let refinement = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(40, 80)]))
            .refine(&prev, &support)
            .unwrap();
        assert_eq!(refinement.partition, prev);
        // Every region carries onto itself.
        let identity: Vec<(usize, usize)> = support.iter().map(|&i| (i, i)).collect();
        assert_eq!(refinement.carried, identity);
        assert_eq!(refinement.warm_columns(), support);
    }

    #[test]
    fn support_only_previous_refines_like_the_full_partition() {
        let c_a = |lo, hi| space_2d().box_from_intervals(vec![("a", Interval::new(lo, hi))]);
        let c_b = |lo, hi| space_2d().box_from_intervals(vec![("b", Interval::new(lo, hi))]);
        let full = RegionPartitioner::new(space_2d())
            .add_constraint_box(c_a(20, 60))
            .add_constraint_box(c_b(10, 30))
            .add_constraint_box(c_a(40, 90))
            .partition()
            .unwrap();
        // A sparse support, as a basic LP solution leaves it.
        let support: Vec<usize> = (0..full.num_variables()).step_by(2).collect();
        let restricted = full.restrict_to(&support);
        let restricted_support: Vec<usize> = (0..restricted.num_variables()).collect();

        let identical = || {
            RegionPartitioner::new(space_2d())
                .add_constraint_box(c_a(20, 60))
                .add_constraint_box(c_b(10, 30))
                .add_constraint_box(c_a(40, 90))
        };
        let moved = || {
            RegionPartitioner::new(space_2d())
                .add_constraint_box(c_a(20, 60))
                .add_constraint_box(c_b(15, 30))
                .add_constraint_box(c_a(40, 90))
                .add_constraint_box(c_b(50, 70))
        };
        for (name, new) in [("identical", identical()), ("moved", moved())] {
            let from_full = new.clone().refine(&full, &support).unwrap();
            let from_support = new.refine(&restricted, &restricted_support).unwrap();
            assert_eq!(from_full.partition, from_support.partition, "{name}");
            assert_eq!(
                from_full.warm_columns(),
                from_support.warm_columns(),
                "{name}"
            );
        }
    }

    #[test]
    fn a_new_boundary_resweeps_like_scratch_and_carries_all_support() {
        let c_a = |lo, hi| space_2d().box_from_intervals(vec![("a", Interval::new(lo, hi))]);
        let c_b = |lo, hi| space_2d().box_from_intervals(vec![("b", Interval::new(lo, hi))]);
        let prev = RegionPartitioner::new(space_2d())
            .add_constraint_box(c_a(20, 60))
            .add_constraint_box(c_b(10, 30))
            .partition()
            .unwrap();
        let support: Vec<usize> = (0..prev.num_variables()).collect();
        // A new predicate boundary on axis b only; axis a's cuts unchanged.
        let refinement = RegionPartitioner::new(space_2d())
            .add_constraint_box(c_a(20, 60))
            .add_constraint_box(c_b(10, 30))
            .add_constraint_box(c_b(50, 90))
            .refine(&prev, &support)
            .unwrap();
        // Every supported old region lands somewhere in the new partition
        // (the space did not shrink).
        assert_eq!(refinement.carried.len(), support.len());
        // The refined partition equals a from-scratch partition.
        let scratch = RegionPartitioner::new(space_2d())
            .add_constraint_box(c_a(20, 60))
            .add_constraint_box(c_b(10, 30))
            .add_constraint_box(c_b(50, 90))
            .partition()
            .unwrap();
        assert_eq!(refinement.partition, scratch);
    }

    #[test]
    fn carried_support_feeds_warm_columns() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        // prev has 2 regions: outside {}, inside {0}. Give the inside
        // support and refine with an extra disjoint constraint.
        let inside = prev
            .regions()
            .position(|r| r.signature.contains(0))
            .unwrap();
        let refinement = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(80, 90)]))
            .refine(&prev, &[inside])
            .unwrap();
        // The supported [20,60) region carries into the matching new
        // region; nothing else is mapped.
        let new_inside = refinement
            .partition
            .regions()
            .position(|r| r.signature.contains(0))
            .unwrap();
        assert_eq!(refinement.carried, vec![(inside, new_inside)]);
        assert_eq!(refinement.warm_columns(), vec![new_inside]);
    }

    #[test]
    fn domain_change_drops_unmappable_support() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        // A *narrower* new space: the old outside region's representative
        // (a = 0) no longer exists, so its support cannot carry.
        let narrow = AttributeSpace::new(vec![("a".to_string(), Interval::new(15, 70))]);
        let outside = prev.regions().position(|r| r.signature.is_empty()).unwrap();
        let inside = prev
            .regions()
            .position(|r| r.signature.contains(0))
            .unwrap();
        let refinement = RegionPartitioner::new(narrow)
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .refine(&prev, &[outside, inside])
            .unwrap();
        // Only the inside region (representative a = 20) maps.
        assert_eq!(refinement.carried.len(), 1);
        assert_eq!(refinement.carried[0].0, inside);
        // Out-of-range support indices are ignored, not a panic.
        let refinement = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .refine(&prev, &[99])
            .unwrap();
        assert!(refinement.carried.is_empty());
    }

    #[test]
    fn refine_honors_the_region_budget() {
        let prev = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        // The refined sweep must enforce the caller's budget exactly like a
        // from-scratch partition would (10 disjoint ranges > 4 regions).
        let mut partitioner = RegionPartitioner::new(space_1d()).with_max_regions(4);
        for i in 0..10 {
            partitioner =
                partitioner.add_constraint_box(NBox::new(vec![Interval::new(i * 10, i * 10 + 5)]));
        }
        assert!(matches!(
            partitioner.refine(&prev, &[0]),
            Err(PartitionError::TooManyRegions { .. })
        ));
    }

    #[test]
    fn refinable_check_catches_dimension_drift() {
        let prev = RegionPartitioner::new(space_1d()).partition().unwrap();
        assert!(check_refinable(&prev, 1).is_ok());
        assert!(check_refinable(&prev, 2).is_err());
    }
}
