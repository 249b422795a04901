//! HYDRA's region partitioning.
//!
//! Given the constraint boxes that the workload induces over a relation's
//! attribute space, two points are *equivalent* if they lie in exactly the
//! same subset of constraint boxes; the equivalence classes are the
//! **regions**.  Every region becomes one LP variable, which is the minimum
//! possible number of variables for an exact encoding (any two equivalent
//! points are interchangeable in every constraint).
//!
//! ## Algorithm
//!
//! The partitioner works axis by axis ("axis sweep") instead of maintaining an
//! explicit geometric decomposition, so its cost is proportional to the number
//! of *regions*, never to the number of geometric fragments:
//!
//! 1. On every axis, the constraint interval endpoints cut the domain into
//!    elementary intervals; each elementary interval gets the mask of
//!    constraints whose projection onto that axis covers it.
//! 2. A cell's signature is the intersection of its per-axis masks.  Distinct
//!    signatures are accumulated one axis at a time, merging equal partial
//!    signatures as we go, so the working-set size is bounded by the number of
//!    distinct signatures — the region count — rather than by the grid size.
//!    The merge is an ordered map whose keys carry a signature's first two
//!    bitset words inline, so comparisons rarely chase the bitset's pointer.
//! 3. Each region keeps its total point count (volume) and a bounded sample of
//!    representative cells, which is all that deterministic alignment needs to
//!    place concrete attribute values inside the region.  During the sweep a
//!    cell is an id into an arena of `(parent, interval)` prefix nodes, so
//!    extending it by an axis is one push, and the finished partition keeps
//!    the arena as its cell store (see *Layout*).
//!
//! The region budget is checked every time a partial signature is added,
//! so a hostile constraint set fails as soon as it exceeds the budget, not
//! after an axis has multiplied the working set.
//!
//! Constraint unions are interpreted as the product of their per-axis
//! projections (which is exactly how the summary layer constructs them: a
//! foreign-key condition contributes a set of primary-key intervals on one
//! axis, crossed with the other axes' intervals).
//!
//! ## Layout
//!
//! A [`RegionPartition`] holds no per-region heap object.  Its regions live
//! in a few flat vectors written straight from the sweep: signature words
//! at one fixed stride (enough words for every constraint index), volumes,
//! and each region's sample cells as ids into the sweep's own prefix arena,
//! which the partition keeps instead of spelling every cell out as a box.
//! A [`Region`] is a borrowed view of one row; its cells become boxes only
//! when asked for ([`Region::pieces`]), which alignment does for the LP
//! support alone.  A region's signature is its 0/1 column in the
//! relation's LP: constraint `i` has a unit coefficient on the region
//! exactly when bit `i` is set.

use crate::error::{PartitionError, PartitionResult};
use crate::interval::Interval;
use crate::nbox::NBox;
use crate::signature::{Signature, SignatureRef};
use crate::space::AttributeSpace;
use serde::{Content, Deserialize, Serialize, Sink};
use std::collections::BTreeMap;

/// Default bound on the number of regions (LP variables).  Workloads in the
/// paper's class stay far below this; the bound exists to fail fast on
/// pathological inputs instead of formulating an unsolvable LP.
pub const DEFAULT_MAX_REGIONS: usize = 200_000;

/// How many representative cells each region retains for value placement.
const CELLS_PER_REGION: usize = 8;

/// One region: a maximal set of points sharing a constraint signature,
/// borrowed from its partition's flat storage.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a> {
    /// The set of constraints that cover this region (its LP column).
    pub signature: SignatureRef<'a>,
    /// Total number of integer points in the region (saturating).
    pub volume: u128,
    /// The retained cells, as prefixes in `arena`.
    cells: &'a [usize],
    arena: &'a PrefixArena,
    dims: usize,
}

impl PartialEq for Region<'_> {
    /// Regions are equal when their signatures, volumes and pieces are.
    fn eq(&self, other: &Self) -> bool {
        self.signature == other.signature
            && self.volume == other.volume
            && self.pieces() == other.pieces()
    }
}

impl Eq for Region<'_> {}

impl Region<'_> {
    /// A bounded sample of disjoint cells lying inside the region, ordered
    /// by lower corner (the region may contain more points than these cells
    /// cover; see [`Region::volume`]).
    pub fn pieces(&self) -> Vec<NBox> {
        let mut pieces: Vec<NBox> = self
            .cells
            .iter()
            .map(|&cell| {
                let mut intervals = vec![Interval::empty(); self.dims];
                self.arena.write(cell, &mut intervals);
                NBox::new(intervals)
            })
            .collect();
        // By lower corner: cells are never empty, so that is the order of
        // their intervals' lower bounds.
        pieces.sort_by(|a, b| {
            let lo = |iv: &Interval| iv.lo;
            a.intervals()
                .iter()
                .map(lo)
                .cmp(b.intervals().iter().map(lo))
        });
        pieces
    }

    /// A deterministic representative point of the region (the lower corner
    /// of its first retained cell).
    pub fn representative_point(&self) -> Vec<i64> {
        self.pieces()
            .first()
            .and_then(NBox::lower_corner)
            .unwrap_or_default()
    }

    /// Total number of points covered by the retained representative cells.
    pub fn sampled_volume(&self) -> u128 {
        sampled_volume(&self.pieces())
    }

    /// The `idx`-th point of the region in a fixed enumeration order over the
    /// retained cells (cells in order; within a cell, row-major over the
    /// axes).  Indices wrap around modulo the retained-cell volume, so any
    /// index yields a valid point for non-empty regions.
    pub fn point_at(&self, idx: u128) -> Option<Vec<i64>> {
        let pieces = self.pieces();
        let total = sampled_volume(&pieces);
        if total == 0 {
            return None;
        }
        let mut k = idx % total;
        for piece in &pieces {
            let v = piece.volume();
            if k < v {
                // Decode k into coordinates (row-major, last axis fastest).
                let mut coords = vec![0i64; piece.dims()];
                let mut rem = k;
                for axis in (0..piece.dims()).rev() {
                    let len = piece.interval(axis).len() as u128;
                    let offset = (rem % len) as i64;
                    coords[axis] = piece.interval(axis).lo + offset;
                    rem /= len;
                }
                return Some(coords);
            }
            k -= v;
        }
        None
    }

    /// True if the point lies inside one of the retained representative cells
    /// (a sufficient but not necessary membership test; use
    /// [`RegionPartition::region_containing`] for an exact lookup).
    pub fn contains_point(&self, point: &[i64]) -> bool {
        self.pieces().iter().any(|p| p.contains_point(point))
    }
}

/// Total number of points the pieces cover (saturating).
fn sampled_volume(pieces: &[NBox]) -> u128 {
    pieces
        .iter()
        .fold(0u128, |acc, p| acc.saturating_add(p.volume()))
}

/// The result of region partitioning.
///
/// Serializes as the space, a list of regions (each a signature, its
/// sample cells as boxes, and its volume) and the constraint unions.
#[derive(Debug, Clone)]
pub struct RegionPartition {
    space: AttributeSpace,
    constraints: Vec<Vec<NBox>>,
    /// Region `i`'s signature words: `signatures[i * stride..][..stride]`,
    /// with `stride` words enough for every constraint index.
    signatures: Vec<u64>,
    volumes: Vec<u128>,
    /// Region `i`'s sample cells are `cells[cell_start[i]..cell_start[i + 1]]`,
    /// each a full-length prefix in `arena`.
    cell_start: Vec<usize>,
    cells: Vec<usize>,
    arena: PrefixArena,
}

impl PartialEq for RegionPartition {
    /// Partitions are equal when their spaces, constraints and regions are,
    /// however their cells' prefixes are shared in the arena.
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.constraints == other.constraints
            && self.signatures == other.signatures
            && self.volumes == other.volumes
            && self.regions().eq(other.regions())
    }
}

impl RegionPartition {
    /// An empty partition (no regions yet) of `space` against `constraints`.
    fn empty(space: AttributeSpace, constraints: Vec<Vec<NBox>>, capacity: usize) -> Self {
        let mut cell_start = Vec::with_capacity(capacity + 1);
        cell_start.push(0);
        RegionPartition {
            signatures: Vec::with_capacity(capacity * constraints.len().div_ceil(64)),
            volumes: Vec::with_capacity(capacity),
            cell_start,
            cells: Vec::new(),
            arena: PrefixArena::default(),
            space,
            constraints,
        }
    }

    /// Signature words per region.
    fn stride(&self) -> usize {
        self.constraints.len().div_ceil(64)
    }

    /// The signature words of region `index`.
    fn signature_words(&self, index: usize) -> &[u64] {
        let stride = self.stride();
        &self.signatures[index * stride..(index + 1) * stride]
    }

    /// The partitioned attribute space.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// The regions, in canonical (signature-sorted) order.
    pub fn regions(
        &self,
    ) -> impl ExactSizeIterator<Item = Region<'_>> + DoubleEndedIterator + Clone + '_ {
        (0..self.num_variables()).map(|index| self.region(index))
    }

    /// Every region's signature, in region order: the LP's columns.
    pub fn signatures(&self) -> impl ExactSizeIterator<Item = SignatureRef<'_>> + Clone + '_ {
        (0..self.num_variables()).map(|index| SignatureRef::new(self.signature_words(index)))
    }

    /// The region at `index`.  Panics if `index` is out of range.
    pub fn region(&self, index: usize) -> Region<'_> {
        Region {
            signature: SignatureRef::new(self.signature_words(index)),
            volume: self.volumes[index],
            cells: &self.cells[self.cell_start[index]..self.cell_start[index + 1]],
            arena: &self.arena,
            dims: self.space.dims(),
        }
    }

    /// Number of LP variables this encoding needs (= number of regions).
    pub fn num_variables(&self) -> usize {
        self.volumes.len()
    }

    /// Number of constraints that were partitioned against.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraint box unions this partition was built against, in the
    /// order the signatures index them (used by incremental refinement to
    /// detect unchanged boxes and moved predicate boundaries).
    pub fn constraint_unions(&self) -> &[Vec<NBox>] {
        &self.constraints
    }

    /// Indices of the regions covered by the given constraint.
    pub fn regions_in_constraint(&self, constraint: usize) -> Vec<usize> {
        (0..self.num_variables())
            .filter(|&i| self.region(i).signature.contains(constraint))
            .collect()
    }

    /// Index of the region containing a point (exact: the point's signature is
    /// computed against the stored constraints, then found by binary search
    /// among the signature-sorted regions).  `None` if the point lies
    /// outside the attribute space, or in no retained region of a
    /// restricted partition.
    pub fn region_containing(&self, point: &[i64]) -> Option<usize> {
        if point.len() != self.space.dims() {
            return None;
        }
        for (axis, coord) in point.iter().enumerate() {
            if !self.space.domain(axis).contains(*coord) {
                return None;
            }
        }
        let mut signature = vec![0u64; self.stride()];
        for (ci, boxes) in self.constraints.iter().enumerate() {
            let covered = (0..self.space.dims())
                .all(|axis| boxes.iter().any(|b| b.interval(axis).contains(point[axis])));
            if covered && !boxes.is_empty() {
                signature[ci / 64] |= 1u64 << (ci % 64);
            }
        }
        // Fixed-stride words compare as the signatures they pad.
        let (mut lo, mut hi) = (0, self.num_variables());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.signature_words(mid).cmp(&signature) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Total volume across all regions (equals the space volume; saturating
    /// for astronomically large spaces).
    pub fn total_volume(&self) -> u128 {
        self.volumes
            .iter()
            .fold(0u128, |acc, v| acc.saturating_add(*v))
    }

    /// Restricts the partition to the regions at the given indices (strictly
    /// ascending; indices past the end are ignored), keeping the space and
    /// the constraint unions.  Only the kept regions are copied, each cell
    /// into an arena of its own.
    ///
    /// The result no longer covers the whole space: it is the retained form
    /// of a solved partition — typically its LP *support* — which is all
    /// incremental refinement needs (see [`RegionPartitioner::refine`]).
    pub fn restrict_to(&self, keep: &[usize]) -> RegionPartition {
        let mut restricted =
            RegionPartition::empty(self.space.clone(), self.constraints.clone(), keep.len());
        let mut intervals = vec![Interval::empty(); self.space.dims()];
        for &index in keep
            .iter()
            .take_while(|&&index| index < self.num_variables())
        {
            let region = self.region(index);
            let cells = region.cells.iter().map(|&cell| {
                self.arena.write(cell, &mut intervals);
                intervals.clone()
            });
            restricted.push(self.signature_words(index), region.volume, cells);
        }
        restricted
    }

    /// Appends a region: its signature words (`stride` of them), volume,
    /// and its cells' per-axis intervals.
    fn push(
        &mut self,
        signature: &[u64],
        volume: u128,
        cells: impl IntoIterator<Item = impl AsRef<[Interval]>>,
    ) {
        debug_assert_eq!(signature.len(), self.stride());
        self.signatures.extend_from_slice(signature);
        self.volumes.push(volume);
        for cell in cells {
            let prefix = self.arena.push_cell(cell.as_ref());
            self.cells.push(prefix);
        }
        self.cell_start.push(self.cells.len());
    }
}

/// One region as a partition serializes it.
#[derive(Serialize, Deserialize)]
struct RegionRecord {
    signature: Signature,
    pieces: Vec<NBox>,
    volume: u128,
}

impl Serialize for RegionPartition {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.begin_map(3);
        sink.entry("space", &self.space);
        sink.key("regions");
        sink.begin_seq(self.num_variables());
        for region in self.regions() {
            RegionRecord {
                signature: region.signature.to_signature(),
                pieces: region.pieces(),
                volume: region.volume,
            }
            .serialize(sink);
        }
        sink.end_seq();
        sink.entry("constraints", &self.constraints);
        sink.end_map();
    }
}

impl Deserialize for RegionPartition {
    /// Reads what [`Serialize`] writes.  Fails on a region whose signature
    /// names a constraint the partition lacks, whose cells do not have one
    /// interval per axis, or that is not ordered after its predecessor.
    fn deserialize_content(content: &Content) -> Result<Self, serde::Error> {
        const TY: &str = "RegionPartition";
        let entries = content
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", TY))?;
        let space: AttributeSpace = serde::field(entries, "space", TY)?;
        let records: Vec<RegionRecord> = serde::field(entries, "regions", TY)?;
        let constraints: Vec<Vec<NBox>> = serde::field(entries, "constraints", TY)?;
        let mut partition = RegionPartition::empty(space, constraints, records.len());
        let (stride, dims) = (partition.stride(), partition.space.dims());
        let mut words = vec![0u64; stride];
        for (index, record) in records.into_iter().enumerate() {
            let signature = record.signature.words();
            if signature.len() > stride && signature[stride..].iter().any(|&w| w != 0) {
                return Err(serde::Error::custom(format!(
                    "region {index} names a constraint past the partition's {}",
                    partition.num_constraints()
                )));
            }
            words.fill(0);
            for (word, &w) in words.iter_mut().zip(signature) {
                *word = w;
            }
            if index > 0 && partition.signature_words(index - 1) >= &words[..] {
                return Err(serde::Error::custom(format!(
                    "region {index} is not ordered after region {}",
                    index - 1
                )));
            }
            if let Some(piece) = record.pieces.iter().find(|p| p.dims() != dims) {
                return Err(serde::Error::custom(format!(
                    "region {index} has a {}-axis cell in a {dims}-axis space",
                    piece.dims()
                )));
            }
            partition.push(
                &words,
                record.volume,
                record.pieces.iter().map(NBox::intervals),
            );
        }
        Ok(partition)
    }
}

/// Cell prefixes of the axis sweep, stored once each: a node is an
/// interval on the next axis appended to its parent prefix.  Extending a
/// cell by one axis is one push instead of a copy of its whole prefix.  A
/// partition keeps its sweep's arena as the store of its regions' cells.
#[derive(Debug, Clone, Default)]
struct PrefixArena {
    nodes: Vec<(usize, Interval)>,
}

impl PrefixArena {
    /// The empty prefix (a cell before the first axis).
    const EMPTY: usize = usize::MAX;

    /// The prefix `prefix` followed by `interval`.
    fn extend(&mut self, prefix: usize, interval: Interval) -> usize {
        self.nodes.push((prefix, interval));
        self.nodes.len() - 1
    }

    /// The prefix of the given intervals, first axis first, as a chain of
    /// new nodes.
    fn push_cell(&mut self, intervals: &[Interval]) -> usize {
        intervals.iter().fold(Self::EMPTY, |prefix, &interval| {
            self.extend(prefix, interval)
        })
    }

    /// Writes the intervals of a prefix of `out.len()` axes into `out`,
    /// first axis first.
    fn write(&self, mut prefix: usize, out: &mut [Interval]) {
        for slot in out.iter_mut().rev() {
            let (parent, interval) = self.nodes[prefix];
            *slot = interval;
            prefix = parent;
        }
        debug_assert_eq!(prefix, Self::EMPTY);
    }
}

/// A partial signature as the sweep's ordered map keys it: its first two
/// bitset words inline, ahead of the signature itself, so comparing two
/// keys rarely follows the signature's heap pointer.  Signatures keep no
/// trailing zero words, so comparing zero-padded words orders them exactly
/// as [`Signature`]'s own `Ord` does, and the map iterates in signature
/// order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SweepKey {
    head: [u64; 2],
    signature: Signature,
}

impl SweepKey {
    fn new(signature: Signature) -> SweepKey {
        SweepKey {
            head: signature.head(),
            signature,
        }
    }

    /// Becomes the key of `a ∩ b`, reusing this key's allocation.
    fn set_intersection(&mut self, a: &Signature, b: &Signature) {
        a.intersect_into(b, &mut self.signature);
        self.head = self.signature.head();
    }
}

/// Builder/driver for region partitioning.
#[derive(Debug, Clone)]
pub struct RegionPartitioner {
    space: AttributeSpace,
    /// Each constraint is a union of boxes over the space, interpreted as the
    /// product of its per-axis projections.
    constraints: Vec<Vec<NBox>>,
    max_regions: usize,
}

impl RegionPartitioner {
    /// Creates a partitioner over the given attribute space.
    pub fn new(space: AttributeSpace) -> Self {
        RegionPartitioner {
            space,
            constraints: Vec::new(),
            max_regions: DEFAULT_MAX_REGIONS,
        }
    }

    /// Overrides the region budget.
    pub fn with_max_regions(mut self, max_regions: usize) -> Self {
        self.max_regions = max_regions;
        self
    }

    /// Adds a constraint consisting of a single box.
    pub fn add_constraint_box(mut self, b: NBox) -> Self {
        self.constraints.push(vec![b]);
        self
    }

    /// Adds a constraint that is a union of (axis-decomposable) boxes.
    pub fn add_constraint_union(mut self, boxes: Vec<NBox>) -> Self {
        self.constraints.push(boxes);
        self
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Deconstructs the partitioner into its space, constraint unions and
    /// region budget (used by [`RegionPartitioner::refine`], which needs to
    /// compare them against a previous partition before sweeping).
    pub(crate) fn parts(self) -> (AttributeSpace, Vec<Vec<NBox>>, usize) {
        (self.space, self.constraints, self.max_regions)
    }

    /// Runs the partitioning.
    pub fn partition(self) -> PartitionResult<RegionPartition> {
        self.space.validate()?;
        let dims = self.space.dims();
        for boxes in &self.constraints {
            for b in boxes {
                if b.dims() != dims {
                    return Err(PartitionError::DimensionMismatch {
                        expected: dims,
                        got: b.dims(),
                    });
                }
            }
        }
        let k = self.constraints.len();

        /// Partial state of the axis sweep: the total point count and a
        /// bounded sample of cells, held inline, each an interval prefix
        /// in `arena`.
        #[derive(Default)]
        struct Partial {
            volume: u128,
            cells: [usize; CELLS_PER_REGION],
            len: usize,
        }

        // The initial partial covers the whole space with "all constraints
        // still possible"; its one cell is the empty prefix.
        let mut arena = PrefixArena::default();
        let all = Signature::from_indices(&(0..k).collect::<Vec<_>>());
        let mut partials: BTreeMap<SweepKey, Partial> = BTreeMap::new();
        partials.insert(
            SweepKey::new(all),
            Partial {
                volume: 1,
                cells: [PrefixArena::EMPTY; CELLS_PER_REGION],
                len: 1,
            },
        );

        for axis in 0..dims {
            let domain = self.space.domain(axis);
            // Elementary intervals of this axis and, for each, the mask of
            // constraints whose projection covers it.
            let mut cuts = vec![domain.lo, domain.hi];
            for boxes in &self.constraints {
                for b in boxes {
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
            }
            cuts.sort_unstable();
            cuts.dedup();
            let elementary: Vec<(Interval, Signature)> = cuts
                .windows(2)
                .map(|w| {
                    let e = Interval::new(w[0], w[1]);
                    let mut mask = Signature::empty();
                    for (ci, boxes) in self.constraints.iter().enumerate() {
                        let covers = boxes
                            .iter()
                            .any(|b| b.interval(axis).intersect(&domain).contains_interval(&e));
                        if covers {
                            mask.insert(ci);
                        }
                    }
                    (e, mask)
                })
                .collect();

            let mut next: BTreeMap<SweepKey, Partial> = BTreeMap::new();
            let mut key = SweepKey::new(Signature::empty());
            for (mask, partial) in &partials {
                for (e, e_mask) in &elementary {
                    key.set_intersection(&mask.signature, e_mask);
                    let mut absorb = |entry: &mut Partial| {
                        let added_volume = partial.volume.saturating_mul(e.len() as u128);
                        entry.volume = entry.volume.saturating_add(added_volume);
                        for &prefix in &partial.cells[..partial.len] {
                            if entry.len >= CELLS_PER_REGION {
                                break;
                            }
                            entry.cells[entry.len] = arena.extend(prefix, *e);
                            entry.len += 1;
                        }
                    };
                    // The key is built in place; only a new one is copied.
                    match next.get_mut(&key) {
                        Some(entry) => absorb(entry),
                        None => {
                            let mut entry = Partial::default();
                            absorb(&mut entry);
                            next.insert(key.clone(), entry);
                            // Fail as soon as the budget is exceeded: `next`
                            // (and the arena with it) would otherwise grow to
                            // partials × elementary intervals before the axis
                            // ends.
                            if next.len() > self.max_regions {
                                return Err(PartitionError::TooManyRegions {
                                    limit: self.max_regions,
                                });
                            }
                        }
                    }
                }
            }
            partials = next;
        }

        // Write the regions straight into the partition's flat vectors; the
        // arena moves in with them as the store of their cells.
        let mut partition = RegionPartition::empty(self.space, self.constraints, partials.len());
        let stride = partition.stride();
        for (key, partial) in &partials {
            // The inline head holds a signature of up to 128 constraints
            // whole; only longer ones are read through their pointer.
            let head = &key.head[..stride.min(2)];
            partition.signatures.extend_from_slice(head);
            if stride > 2 {
                let tail = key.signature.words().get(2..).unwrap_or_default();
                partition.signatures.extend_from_slice(tail);
                (partition.signatures).extend(std::iter::repeat_n(0, stride - 2 - tail.len()));
            }
            partition.volumes.push(partial.volume);
            (partition.cells).extend_from_slice(&partial.cells[..partial.len]);
            partition.cell_start.push(partition.cells.len());
        }
        partition.arena = arena;
        Ok(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn space_1d() -> AttributeSpace {
        AttributeSpace::new(vec![("a".to_string(), Interval::new(0, 100))])
    }

    fn space_2d() -> AttributeSpace {
        AttributeSpace::new(vec![
            ("a".to_string(), Interval::new(0, 100)),
            ("b".to_string(), Interval::new(0, 10)),
        ])
    }

    #[test]
    fn no_constraints_single_region() {
        let p = RegionPartitioner::new(space_1d()).partition().unwrap();
        assert_eq!(p.num_variables(), 1);
        assert_eq!(p.region(0).volume, 100);
        assert!(p.region(0).signature.is_empty());
        assert_eq!(p.total_volume(), 100);
    }

    #[test]
    fn overlapping_1d_constraints() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(40, 80)]))
            .partition()
            .unwrap();
        // Signatures: {} -> [0,20)+[80,100), {0} -> [20,40), {0,1} -> [40,60), {1} -> [60,80).
        assert_eq!(p.num_variables(), 4);
        assert_eq!(p.total_volume(), 100);
        let both = p.regions().find(|r| r.signature.count() == 2).unwrap();
        assert_eq!(both.volume, 20);
        let none = p.regions().find(|r| r.signature.is_empty()).unwrap();
        assert_eq!(none.volume, 40);
        assert_eq!(none.pieces().len(), 2);
    }

    #[test]
    fn nested_constraints() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(10, 90)]))
            .add_constraint_box(NBox::new(vec![Interval::new(30, 50)]))
            .partition()
            .unwrap();
        // {} , {0}, {0,1} — the inner box is fully inside the outer one.
        assert_eq!(p.num_variables(), 3);
        let inner = p.regions().find(|r| r.signature.count() == 2).unwrap();
        assert_eq!(inner.volume, 20);
    }

    #[test]
    fn identical_constraints_share_regions() {
        let b = NBox::new(vec![Interval::new(20, 60)]);
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(b.clone())
            .add_constraint_box(b)
            .partition()
            .unwrap();
        // Only {} and {0,1}: identical boxes never split each other.
        assert_eq!(p.num_variables(), 2);
    }

    #[test]
    fn union_constraint() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_union(vec![
                NBox::new(vec![Interval::new(10, 20)]),
                NBox::new(vec![Interval::new(50, 60)]),
            ])
            .partition()
            .unwrap();
        assert_eq!(p.num_variables(), 2);
        let inside = p.regions().find(|r| r.signature.contains(0)).unwrap();
        assert_eq!(inside.volume, 20);
        assert_eq!(inside.pieces().len(), 2);
    }

    #[test]
    fn two_dimensional_cross() {
        // Constraint 0 restricts axis a, constraint 1 restricts axis b; the
        // cross produces 4 regions.
        let space = space_2d();
        let c0 = space.box_from_intervals(vec![("a", Interval::new(20, 60))]);
        let c1 = space.box_from_intervals(vec![("b", Interval::new(0, 5))]);
        let p = RegionPartitioner::new(space)
            .add_constraint_box(c0)
            .add_constraint_box(c1)
            .partition()
            .unwrap();
        assert_eq!(p.num_variables(), 4);
        assert_eq!(p.total_volume(), 1000);
        // Region with both constraints: 40 x 5 = 200 points.
        let both = p.regions().find(|r| r.signature.count() == 2).unwrap();
        assert_eq!(both.volume, 200);
    }

    #[test]
    fn regions_in_constraint_lookup() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(40, 80)]))
            .partition()
            .unwrap();
        let in0 = p.regions_in_constraint(0);
        let vol0: u128 = in0.iter().map(|&i| p.region(i).volume).sum();
        assert_eq!(vol0, 40);
        let in1 = p.regions_in_constraint(1);
        let vol1: u128 = in1.iter().map(|&i| p.region(i).volume).sum();
        assert_eq!(vol1, 40);
    }

    #[test]
    fn region_point_enumeration() {
        let p = RegionPartitioner::new(space_2d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 22), Interval::new(3, 5)]))
            .partition()
            .unwrap();
        let region = p.regions().find(|r| r.signature.contains(0)).unwrap();
        assert_eq!(region.volume, 4);
        let pts: Vec<Vec<i64>> = (0..4).map(|i| region.point_at(i).unwrap()).collect();
        // All distinct, all inside the region.
        for (i, p1) in pts.iter().enumerate() {
            assert!(region.contains_point(p1));
            for p2 in &pts[i + 1..] {
                assert_ne!(p1, p2);
            }
        }
        // Wrap-around yields a valid point again.
        assert_eq!(region.point_at(4), region.point_at(0));
        assert_eq!(region.representative_point(), vec![20, 3]);
    }

    #[test]
    fn region_containing_point() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .partition()
            .unwrap();
        let inside = p.region_containing(&[30]).unwrap();
        assert!(p.region(inside).signature.contains(0));
        let outside = p.region_containing(&[70]).unwrap();
        assert!(p.region(outside).signature.is_empty());
        assert!(p.region_containing(&[1000]).is_none());
        assert!(p.region_containing(&[1, 2]).is_none());
    }

    #[test]
    fn restriction_keeps_the_chosen_regions_in_order() {
        let p = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(20, 60)]))
            .add_constraint_box(NBox::new(vec![Interval::new(40, 80)]))
            .partition()
            .unwrap();
        let restricted = p.restrict_to(&[1, 3, 99]);
        assert_eq!(restricted.num_variables(), 2);
        assert_eq!(restricted.region(0), p.region(1));
        assert_eq!(restricted.region(1), p.region(3));
        assert_eq!(restricted.space(), p.space());
        assert_eq!(restricted.constraint_unions(), p.constraint_unions());
    }

    #[test]
    fn sweep_keys_order_as_their_signatures() {
        // Signatures of one to four words, including equal heads with
        // different tails and prefixes of one another.
        let signatures: Vec<Signature> = [
            vec![],
            vec![0],
            vec![63],
            vec![64],
            vec![0, 64],
            vec![0, 64, 130],
            vec![0, 64, 200],
            vec![0, 130],
            vec![3, 70, 140, 250],
            vec![3, 70, 140],
            vec![128],
            vec![1, 128],
        ]
        .iter()
        .map(|indices| Signature::from_indices(indices))
        .collect();
        for a in &signatures {
            for b in &signatures {
                let keys = (SweepKey::new(a.clone()), SweepKey::new(b.clone()));
                assert_eq!(keys.0.cmp(&keys.1), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = RegionPartitioner::new(space_1d())
            .add_constraint_box(NBox::new(vec![Interval::new(0, 1), Interval::new(0, 1)]))
            .partition()
            .unwrap_err();
        assert!(matches!(err, PartitionError::DimensionMismatch { .. }));
    }

    #[test]
    fn region_budget_enforced() {
        let mut partitioner = RegionPartitioner::new(space_1d()).with_max_regions(4);
        for i in 0..10 {
            partitioner =
                partitioner.add_constraint_box(NBox::new(vec![Interval::new(i * 10, i * 10 + 5)]));
        }
        assert!(matches!(
            partitioner.partition(),
            Err(PartitionError::TooManyRegions { .. })
        ));

        // A last axis that would multiply the partials far past the cap:
        // 60 distinct signatures after the first axis, 4 000 elementary
        // intervals on the second, 120 060 signatures in all against a cap
        // of 64 — an 1 800x overshoot had the budget been checked only once
        // the axis ends.
        let space = AttributeSpace::new(vec![
            ("a".to_string(), Interval::new(0, 60)),
            ("b".to_string(), Interval::new(0, 8_000)),
        ]);
        let mut partitioner = RegionPartitioner::new(space).with_max_regions(64);
        for i in 0..60 {
            partitioner = partitioner.add_constraint_box(NBox::new(vec![
                Interval::new(i, i + 1),
                Interval::new(0, 8_000),
            ]));
        }
        for i in 0..2_000 {
            partitioner = partitioner.add_constraint_box(NBox::new(vec![
                Interval::new(0, 60),
                Interval::new(4 * i, 4 * i + 2),
            ]));
        }
        assert_eq!(
            partitioner.partition(),
            Err(PartitionError::TooManyRegions { limit: 64 })
        );
    }

    #[test]
    fn empty_axis_rejected() {
        let space = AttributeSpace::new(vec![("a".to_string(), Interval::new(5, 5))]);
        assert!(matches!(
            RegionPartitioner::new(space).partition(),
            Err(PartitionError::EmptyAxis(_))
        ));
    }

    #[test]
    fn many_disjoint_constraints_scale_linearly() {
        // 50 disjoint 1-D ranges → 51 regions (50 inside + 1 outside).
        let mut partitioner = RegionPartitioner::new(AttributeSpace::new(vec![(
            "a".to_string(),
            Interval::new(0, 1000),
        )]));
        for i in 0..50 {
            partitioner =
                partitioner.add_constraint_box(NBox::new(vec![Interval::new(i * 20, i * 20 + 10)]));
        }
        let p = partitioner.partition().unwrap();
        assert_eq!(p.num_variables(), 51);
        assert_eq!(p.total_volume(), 1000);
    }

    #[test]
    fn many_constraints_across_many_axes_stay_output_sensitive() {
        // A workload-shaped stress case: 6 axes, 120 constraints drawn from a
        // small pool of per-axis predicates (the TPC-DS template pattern).
        // The piece-splitting approach fragments combinatorially here; the
        // axis sweep must stay proportional to the true region count.
        let dims = 6usize;
        let space = AttributeSpace::new(
            (0..dims)
                .map(|i| (format!("x{i}"), Interval::new(0, 10_000)))
                .collect(),
        );
        let pool: Vec<Interval> = vec![
            Interval::new(0, 2_500),
            Interval::new(2_000, 6_000),
            Interval::new(7_000, 9_000),
        ];
        let mut partitioner = RegionPartitioner::new(space.clone());
        for c in 0..120 {
            // Each constraint touches two axes with pooled predicates.
            let a1 = c % dims;
            let a2 = (c / dims) % dims;
            let mut intervals = vec![space.domain(0); dims];
            for (axis, d) in intervals.iter_mut().enumerate() {
                *d = space.domain(axis);
            }
            intervals[a1] = pool[c % pool.len()];
            intervals[a2] = pool[(c / 3) % pool.len()];
            partitioner = partitioner.add_constraint_box(NBox::new(intervals));
        }
        let p = partitioner.partition().unwrap();
        // Each axis has at most 3 pooled ranges → at most 6-7 per-axis masks;
        // the region count stays far below the grid size.
        assert!(p.num_variables() < 150_000, "{} regions", p.num_variables());
        assert_eq!(p.total_volume(), space.volume());
    }
}
