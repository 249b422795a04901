//! DataSynth-style grid partitioning (the baseline HYDRA improves on).
//!
//! Grid partitioning splits every axis at every predicate boundary occurring
//! anywhere in the workload and takes the cross product of the per-axis
//! elementary intervals.  Every grid cell becomes one LP variable, so the
//! variable count is the *product* of the per-axis boundary counts — compared
//! to region partitioning, whose variable count is the number of distinct
//! constraint-membership signatures.  Experiment E3 reproduces the paper's
//! orders-of-magnitude gap between the two.

use crate::error::{PartitionError, PartitionResult};
use crate::nbox::NBox;
use crate::space::AttributeSpace;
use serde::{Deserialize, Serialize};

/// The grid partition of an attribute space induced by a set of constraint
/// boxes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridPartition {
    space: AttributeSpace,
    /// Per-axis sorted cut points (including the domain bounds).
    boundaries: Vec<Vec<i64>>,
}

impl GridPartition {
    /// Builds the grid induced by the given constraint boxes (each constraint
    /// may be a union of boxes, exactly as for region partitioning).
    pub fn build(
        space: AttributeSpace,
        constraints: &[Vec<NBox>],
    ) -> PartitionResult<GridPartition> {
        space.validate()?;
        let dims = space.dims();
        for boxes in constraints {
            for b in boxes {
                if b.dims() != dims {
                    return Err(PartitionError::DimensionMismatch {
                        expected: dims,
                        got: b.dims(),
                    });
                }
            }
        }
        let mut boundaries: Vec<Vec<i64>> = (0..dims)
            .map(|axis| {
                let d = space.domain(axis);
                vec![d.lo, d.hi]
            })
            .collect();
        for boxes in constraints {
            for b in boxes {
                for (axis, axis_bounds) in boundaries.iter_mut().enumerate() {
                    let domain = space.domain(axis);
                    let iv = b.interval(axis).intersect(&domain);
                    if iv.is_empty() {
                        continue;
                    }
                    // Only boundaries strictly inside the domain create cuts.
                    if iv.lo > domain.lo && iv.lo < domain.hi {
                        axis_bounds.push(iv.lo);
                    }
                    if iv.hi > domain.lo && iv.hi < domain.hi {
                        axis_bounds.push(iv.hi);
                    }
                }
            }
        }
        for axis_bounds in &mut boundaries {
            axis_bounds.sort_unstable();
            axis_bounds.dedup();
        }
        Ok(GridPartition { space, boundaries })
    }

    /// Number of elementary intervals on each axis.
    pub fn intervals_per_axis(&self) -> Vec<usize> {
        self.boundaries
            .iter()
            .map(|b| b.len().saturating_sub(1))
            .collect()
    }

    /// Number of grid cells (= LP variables under grid partitioning).
    pub fn num_cells(&self) -> u128 {
        self.intervals_per_axis()
            .iter()
            .map(|&n| n as u128)
            .product()
    }

    /// Alias of [`GridPartition::num_cells`] mirroring the region API.
    pub fn num_variables(&self) -> u128 {
        self.num_cells()
    }

    /// The partitioned space.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn space_2d() -> AttributeSpace {
        AttributeSpace::new(vec![
            ("a".to_string(), Interval::new(0, 100)),
            ("b".to_string(), Interval::new(0, 10)),
        ])
    }

    #[test]
    fn no_constraints_single_cell() {
        let g = GridPartition::build(space_2d(), &[]).unwrap();
        assert_eq!(g.num_cells(), 1);
        assert_eq!(g.intervals_per_axis(), vec![1, 1]);
    }

    #[test]
    fn grid_is_cross_product_of_boundaries() {
        let space = space_2d();
        let c0 = vec![space.box_from_intervals(vec![("a", Interval::new(20, 60))])];
        let c1 = vec![space.box_from_intervals(vec![("b", Interval::new(0, 5))])];
        let g = GridPartition::build(space, &[c0, c1]).unwrap();
        // Axis a: cuts at 20, 60 → 3 intervals.  Axis b: cut at 5 → 2 intervals.
        assert_eq!(g.intervals_per_axis(), vec![3, 2]);
        assert_eq!(g.num_cells(), 6);
    }

    #[test]
    fn grid_exceeds_region_count_with_independent_predicates() {
        // d independent axes each cut by k disjoint ranges:
        // grid = (2k+1)^d cells, regions = d*k + 1.
        let d = 3usize;
        let k = 4usize;
        let space = AttributeSpace::new(
            (0..d)
                .map(|i| (format!("x{i}"), Interval::new(0, 1000)))
                .collect(),
        );
        let mut constraints = Vec::new();
        for axis in 0..d {
            for j in 0..k {
                let lo = (j as i64 + 1) * 100;
                let b = space.box_from_intervals(vec![(
                    format!("x{axis}").as_str(),
                    Interval::new(lo, lo + 50),
                )]);
                constraints.push(vec![b]);
            }
        }
        let grid = GridPartition::build(space.clone(), &constraints).unwrap();
        assert_eq!(grid.num_cells(), ((2 * k + 1) as u128).pow(d as u32));

        let mut rp = crate::region::RegionPartitioner::new(space);
        for c in &constraints {
            rp = rp.add_constraint_union(c.clone());
        }
        let regions = rp.partition().unwrap();
        // Region count is far smaller than the grid (this is HYDRA's claim).
        assert!(
            (regions.num_variables() as u128) < grid.num_cells(),
            "regions {} should be < grid {}",
            regions.num_variables(),
            grid.num_cells()
        );
    }

    #[test]
    fn boundaries_outside_domain_are_clamped() {
        let space = space_2d();
        let c = vec![vec![
            space.box_from_intervals(vec![("a", Interval::new(-50, 200))])
        ]];
        let g = GridPartition::build(space, &c).unwrap();
        // The constraint spans the whole domain: no internal cuts.
        assert_eq!(g.num_cells(), 1);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = GridPartition::build(space_2d(), &[vec![NBox::new(vec![Interval::new(0, 1)])]])
            .unwrap_err();
        assert!(matches!(err, PartitionError::DimensionMismatch { .. }));
    }
}
