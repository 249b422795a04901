//! Property-based tests for region partitioning invariants.

use hydra_partition::interval::Interval;
use hydra_partition::nbox::NBox;
use hydra_partition::region::{RegionPartition, RegionPartitioner};
use hydra_partition::signature::Signature;
use hydra_partition::space::AttributeSpace;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A region as partitions first stored it — its own signature and boxes —
/// kept as the reference layout: the reference sweep produces it, and it
/// fixes the JSON a partition reads and writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParentRegion {
    signature: Signature,
    pieces: Vec<NBox>,
    volume: u128,
}

/// A partition in the reference layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParentPartition {
    space: AttributeSpace,
    regions: Vec<ParentRegion>,
    constraints: Vec<Vec<NBox>>,
}

/// A partition's regions copied out of their views into the reference
/// layout.
fn parent_regions(p: &RegionPartition) -> Vec<ParentRegion> {
    p.regions()
        .map(|r| ParentRegion {
            signature: r.signature.to_signature(),
            pieces: r.pieces(),
            volume: r.volume,
        })
        .collect()
}

/// Partitions `space` against `unions`.
fn partition(space: &AttributeSpace, unions: &[Vec<NBox>]) -> RegionPartition {
    let mut partitioner = RegionPartitioner::new(space.clone());
    for union in unions {
        partitioner = partitioner.add_constraint_union(union.clone());
    }
    partitioner.partition().unwrap()
}

/// The strictly ascending region indices `mask` keeps, plus one index past
/// the end (which `restrict_to` ignores).
fn kept(mask: &[bool], regions: usize) -> Vec<usize> {
    let mut keep: Vec<usize> = (0..regions)
        .filter(|&i| mask.get(i).copied().unwrap_or(false))
        .collect();
    keep.push(regions + 1);
    keep
}

/// Strategy: a small attribute space (1–3 axes) plus 1–6 constraint boxes.
fn space_and_constraints() -> impl Strategy<Value = (AttributeSpace, Vec<NBox>)> {
    (1usize..=3).prop_flat_map(|dims| {
        let axis = (10i64..60).prop_map(|hi| Interval::new(0, hi));
        let axes = proptest::collection::vec(axis, dims);
        axes.prop_flat_map(move |axes| {
            let space = AttributeSpace::new(
                axes.iter()
                    .enumerate()
                    .map(|(i, iv)| (format!("x{i}"), *iv))
                    .collect(),
            );
            let space_for_boxes = space.clone();
            let one_box =
                proptest::collection::vec((0i64..50, 1i64..30), dims).prop_map(move |ranges| {
                    let intervals: Vec<Interval> = ranges
                        .iter()
                        .zip(space_for_boxes.full_box().intervals())
                        .map(|((lo, len), domain)| Interval::new(*lo, lo + len).intersect(domain))
                        .collect();
                    NBox::new(intervals)
                });
            (Just(space), proptest::collection::vec(one_box, 1..6))
        })
    })
}

/// Strategy: a small attribute space (1–3 axes) plus 1–6 constraints, each
/// a union of 1–3 boxes (the shape foreign-key projections produce).
fn space_and_unions() -> impl Strategy<Value = (AttributeSpace, Vec<Vec<NBox>>)> {
    (1usize..=3).prop_flat_map(|dims| {
        let axis = (10i64..60).prop_map(|hi| Interval::new(0, hi));
        proptest::collection::vec(axis, dims).prop_flat_map(move |axes| {
            let space = AttributeSpace::new(
                axes.iter()
                    .enumerate()
                    .map(|(i, iv)| (format!("x{i}"), *iv))
                    .collect(),
            );
            let full = space.full_box();
            let one_box =
                proptest::collection::vec((0i64..50, 1i64..30), dims).prop_map(move |ranges| {
                    NBox::new(
                        ranges
                            .iter()
                            .zip(full.intervals())
                            .map(|((lo, len), domain)| {
                                Interval::new(*lo, lo + len).intersect(domain)
                            })
                            .collect(),
                    )
                });
            let union = proptest::collection::vec(one_box, 1..4);
            (Just(space), proptest::collection::vec(union, 1..6))
        })
    })
}

/// The axis sweep as it was first written — every cell a cloned interval
/// prefix, masks found by testing every box against every elementary
/// interval — kept as the reference the partitioner must reproduce.
fn reference_regions(space: &AttributeSpace, constraints: &[Vec<NBox>]) -> Vec<ParentRegion> {
    struct Partial {
        volume: u128,
        cells: Vec<Vec<Interval>>,
    }
    let k = constraints.len();
    let mut partials: BTreeMap<Signature, Partial> = BTreeMap::new();
    partials.insert(
        Signature::from_indices(&(0..k).collect::<Vec<_>>()),
        Partial {
            volume: 1,
            cells: vec![Vec::new()],
        },
    );
    for axis in 0..space.dims() {
        let domain = space.domain(axis);
        let mut cuts = vec![domain.lo, domain.hi];
        for b in constraints.iter().flatten() {
            let iv = b.interval(axis).intersect(&domain);
            if iv.is_empty() {
                continue;
            }
            if iv.lo > domain.lo && iv.lo < domain.hi {
                cuts.push(iv.lo);
            }
            if iv.hi > domain.lo && iv.hi < domain.hi {
                cuts.push(iv.hi);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let elementary: Vec<(Interval, Signature)> = cuts
            .windows(2)
            .map(|w| {
                let e = Interval::new(w[0], w[1]);
                let mut mask = Signature::empty();
                for (ci, boxes) in constraints.iter().enumerate() {
                    if boxes
                        .iter()
                        .any(|b| b.interval(axis).intersect(&domain).contains_interval(&e))
                    {
                        mask.insert(ci);
                    }
                }
                (e, mask)
            })
            .collect();
        let mut next: BTreeMap<Signature, Partial> = BTreeMap::new();
        for (mask, partial) in &partials {
            for (e, e_mask) in &elementary {
                let entry = next.entry(mask.intersect(e_mask)).or_insert(Partial {
                    volume: 0,
                    cells: Vec::new(),
                });
                entry.volume = entry
                    .volume
                    .saturating_add(partial.volume.saturating_mul(e.len() as u128));
                for prefix in &partial.cells {
                    if entry.cells.len() >= 8 {
                        break;
                    }
                    let mut cell = prefix.clone();
                    cell.push(*e);
                    entry.cells.push(cell);
                }
            }
        }
        partials = next;
    }
    partials
        .into_iter()
        .map(|(signature, partial)| {
            let mut pieces: Vec<NBox> = partial.cells.into_iter().map(NBox::new).collect();
            pieces.sort_by_cached_key(NBox::lower_corner);
            ParentRegion {
                signature,
                pieces,
                volume: partial.volume,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partitioner reproduces the reference sweep exactly: the same
    /// regions in the same order, with the same volumes and pieces.
    #[test]
    fn partition_matches_the_reference_sweep((space, unions) in space_and_unions()) {
        let p = partition(&space, &unions);
        prop_assert_eq!(parent_regions(&p), reference_regions(&space, &unions));
    }

    /// A full or restricted partition serializes to exactly the JSON of
    /// the reference layout holding the reference sweep's regions, and that
    /// JSON deserializes to an equal partition.
    #[test]
    fn partition_json_matches_the_reference_layout(
        (space, unions) in space_and_unions(),
        mask in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let full = partition(&space, &unions);
        let reference = reference_regions(&space, &unions);
        let keep = kept(&mask, full.num_variables());
        let restricted = full.restrict_to(&keep);
        let restricted_reference: Vec<ParentRegion> = keep
            .iter()
            .filter_map(|&i| reference.get(i).cloned())
            .collect();
        for (p, regions) in [(&full, reference.clone()), (&restricted, restricted_reference)] {
            let parent = ParentPartition {
                space: space.clone(),
                regions,
                constraints: unions.clone(),
            };
            let json = serde_json::to_string(&parent).unwrap();
            prop_assert_eq!(serde_json::to_string(p).unwrap(), json.clone());
            let read: RegionPartition = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&read, p);
        }
    }

    /// The binary search finds the same region as a linear scan over the
    /// signatures, on full and restricted partitions, for points inside and
    /// outside the space.
    #[test]
    fn region_containing_matches_a_linear_scan(
        (space, unions) in space_and_unions(),
        mask in proptest::collection::vec(any::<bool>(), 0..64),
        points in proptest::collection::vec(proptest::collection::vec(-5i64..70, 3), 1..24),
    ) {
        let full = partition(&space, &unions);
        let restricted = full.restrict_to(&kept(&mask, full.num_variables()));
        for p in [&full, &restricted] {
            for point in &points {
                let point = &point[..space.dims()];
                let inside = point
                    .iter()
                    .enumerate()
                    .all(|(axis, &x)| space.domain(axis).contains(x));
                let mut signature = Signature::empty();
                for (ci, union) in unions.iter().enumerate() {
                    let covered = (0..space.dims()).all(|axis| {
                        union.iter().any(|b| b.interval(axis).contains(point[axis]))
                    });
                    if covered && !union.is_empty() {
                        signature.insert(ci);
                    }
                }
                let scan = if inside {
                    p.regions().position(|r| r.signature == signature)
                } else {
                    None
                };
                prop_assert_eq!(p.region_containing(point), scan, "point {:?}", point);
            }
        }
    }

    /// Regions cover the whole space exactly once (volumes add up) and are
    /// pairwise disjoint in signature.
    #[test]
    fn regions_partition_the_space((space, boxes) in space_and_constraints()) {
        let total = space.volume();
        let mut partitioner = RegionPartitioner::new(space);
        for b in &boxes {
            partitioner = partitioner.add_constraint_box(b.clone());
        }
        let p = partitioner.partition().unwrap();
        prop_assert_eq!(p.total_volume(), total);
        // Signatures are unique per region.
        for i in 0..p.regions().len() {
            for j in (i + 1)..p.regions().len() {
                prop_assert_ne!(p.region(i).signature, p.region(j).signature);
            }
        }
    }

    /// For every constraint, the volume of its member regions equals the
    /// volume of the constraint box clipped to the space.
    #[test]
    fn constraint_volumes_are_preserved((space, boxes) in space_and_constraints()) {
        let full = space.full_box();
        let mut partitioner = RegionPartitioner::new(space);
        for b in &boxes {
            partitioner = partitioner.add_constraint_box(b.clone());
        }
        let p = partitioner.partition().unwrap();
        for (ci, b) in boxes.iter().enumerate() {
            let expected = b.intersect(&full).volume();
            let got: u128 = p
                .regions_in_constraint(ci)
                .iter()
                .map(|&i| p.region(i).volume)
                .sum();
            prop_assert_eq!(got, expected, "constraint {} volume mismatch", ci);
        }
    }

    /// Any sampled point of a region carries exactly the region's signature:
    /// it is inside constraint i iff the signature contains i.
    #[test]
    fn region_points_match_signatures((space, boxes) in space_and_constraints()) {
        let mut partitioner = RegionPartitioner::new(space);
        for b in &boxes {
            partitioner = partitioner.add_constraint_box(b.clone());
        }
        let p = partitioner.partition().unwrap();
        for region in p.regions() {
            for k in [0u128, 1, 7] {
                if let Some(point) = region.point_at(k) {
                    for (ci, b) in boxes.iter().enumerate() {
                        let inside = b.contains_point(&point);
                        prop_assert_eq!(
                            inside,
                            region.signature.contains(ci),
                            "point {:?} of region {} disagrees with constraint {}",
                            point, region.signature, ci
                        );
                    }
                }
            }
        }
    }
}
