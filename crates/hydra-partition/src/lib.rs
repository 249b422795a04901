//! # hydra-partition
//!
//! The combinatorial core of HYDRA: partitioning a relation's attribute space
//! into the *regions* induced by the workload's predicate boxes.
//!
//! Every volumetric constraint on a relation is (after preprocessing) an
//! axis-aligned box — or a union of disjoint boxes, once foreign-key
//! conditions are projected onto the FK axis — over the relation's normalized
//! attribute space.  The LP that HYDRA solves per relation has **one variable
//! per region**, where a region is a maximal set of points that lie in exactly
//! the same subset of constraint boxes.  Two points with the same membership
//! signature are interchangeable in every constraint, so this encoding has the
//! minimum possible number of variables; the paper credits this
//! *region-partitioning* with the orders-of-magnitude reduction in LP size
//! over DataSynth's *grid-partitioning*, which instead splits every axis at
//! every predicate boundary and takes the cross product of the per-axis
//! elementary intervals.
//!
//! This crate implements both:
//!
//! * [`region::RegionPartitioner`] — the HYDRA encoding (used by the summary
//!   generator), which also retains the geometry of each region so that tuples
//!   can later be generated inside it;
//! * [`grid::GridPartition`] — the DataSynth baseline, used by the LP
//!   complexity experiment (E3).
//!
//! ## Example
//!
//! ```
//! use hydra_partition::interval::Interval;
//! use hydra_partition::nbox::NBox;
//! use hydra_partition::space::AttributeSpace;
//! use hydra_partition::region::RegionPartitioner;
//!
//! // A 1-D attribute with domain [0, 100) and two overlapping predicates.
//! let space = AttributeSpace::new(vec![("a".to_string(), Interval::new(0, 100))]);
//! let c1 = NBox::new(vec![Interval::new(20, 60)]);
//! let c2 = NBox::new(vec![Interval::new(40, 80)]);
//! let partition = RegionPartitioner::new(space)
//!     .add_constraint_box(c1)
//!     .add_constraint_box(c2)
//!     .partition()
//!     .unwrap();
//! // Regions: [0,20)∪[80,100) (no constraint), [20,40) (c1), [40,60) (both), [60,80) (c2).
//! assert_eq!(partition.regions().len(), 4);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod grid;
pub mod interval;
pub mod nbox;
pub mod region;
pub mod signature;
pub mod space;

pub use error::{PartitionError, PartitionResult};
pub use grid::GridPartition;
pub use interval::Interval;
pub use nbox::NBox;
pub use region::{Region, RegionPartition, RegionPartitioner};
pub use signature::{Members, Signature, SignatureRef};
pub use space::AttributeSpace;
