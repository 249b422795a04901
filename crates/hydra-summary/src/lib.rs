//! # hydra-summary
//!
//! The vendor-side core of HYDRA: turning a workload's volumetric constraints
//! into a **database summary** — a memory-resident structure, a few KB in
//! size, from which a volumetrically similar database of any size can be
//! regenerated on the fly.
//!
//! The pipeline implemented here follows the paper's architecture (Figure 2):
//!
//! 1. **Axes construction** ([`axes`]) — for every relation, the columns the
//!    workload references (filter columns plus foreign-key reference axes)
//!    become a normalized [`hydra_partition::AttributeSpace`]; every
//!    volumetric constraint becomes an axis-aligned box (or union of boxes,
//!    for foreign-key conditions that project onto several primary-key
//!    blocks of an already-summarized dimension).
//! 2. **LP formulation and solving** ([`solve`]) — one variable per region of
//!    the region partition, one equality constraint per AQP edge, one total
//!    row-count constraint; solved by `hydra-lp`'s simplex (Z3's role in the
//!    paper), with least-violation recovery when a workload is inconsistent.
//! 3. **Deterministic alignment** ([`align`]) — region solutions are laid out
//!    as contiguous primary-key blocks in canonical region order and each
//!    region contributes one summary row (`#TUPLES` + value vector), exactly
//!    the summary format shown in the paper's Figure 4 / Table 1.
//! 4. **Referential post-processing** ([`builder`]) — relations are processed
//!    dimensions-first so that foreign-key axes always point at concrete
//!    primary-key blocks of the referenced relation; any residual clamping is
//!    recorded as additive error.
//! 5. **Verification** ([`verify`]) — the summary is replayed against every
//!    volumetric constraint to produce the relative-error report of the
//!    vendor screen (and experiments E2/E7).
//!
//! Stages 2 and 3 are one fixed chain per relation:
//! [`solve::solve_relation`] (partition, LP, rounding and repair) followed by
//! [`align::build_relation_summary`]. The builder solves independent
//! relations of the referential DAG in parallel and, against a previous
//! [`delta::SolveBaseline`], reuses every relation whose constraint
//! signature is unchanged.

//!
//! Because alignment is deterministic, each summary row's tuples occupy one
//! contiguous primary-key block; [`index::PkBlockIndex`] exposes that layout
//! as an O(log B) seekable prefix-sum index, which is what gives downstream
//! tuple generation random access (and therefore sharding) over the
//! regenerated relation.

#![warn(missing_docs)]

pub mod align;
pub mod axes;
pub mod builder;
pub mod delta;
pub mod error;
pub mod exec;
pub mod index;
pub mod solve;
pub mod summary;
pub mod verify;

pub use align::AlignmentStrategy;
pub use builder::{RelationBuildStats, SummaryBuildReport, SummaryBuilder, SummaryBuilderConfig};
pub use delta::{
    DeltaAction, DeltaBuild, DeltaBuildReport, RelationDiff, SolveBaseline, SummaryDiff,
};
pub use error::{SummaryError, SummaryResult};
pub use exec::{JoinResolver, ResolvedDim, SummaryExecutor};
pub use index::{BlockPos, PkBlockIndex};
pub use summary::{DatabaseSummary, RelationSummary, SummaryRow};
pub use verify::{ConstraintCheck, VolumetricAccuracyReport};
