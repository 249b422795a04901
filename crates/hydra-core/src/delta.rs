//! Incremental workload evolution at the vendor site.
//!
//! A [`RegenerationState`] is a regeneration that *remembers how it was
//! solved*: the published package, the extracted constraint set with
//! per-query provenance, and the per-relation solve baseline (constraint
//! signatures, summaries and build statistics).  Against that state, a
//! [`hydra_query::delta::WorkloadDelta`] — queries added, retired, or
//! re-annotated after a fresh client run — is applied **incrementally**:
//!
//! 1. the delta merges into the workload and constraint set without
//!    re-extracting untouched annotated plans;
//! 2. relations whose constraint signature is unchanged reuse their previous
//!    summary bit-identically (no partitioning, no LP);
//! 3. changed relations re-solve from scratch;
//! 4. the structural outcome is reported as a
//!    [`hydra_summary::delta::SummaryDiff`] (blocks added / removed /
//!    resized per relation).
//!
//! The incremental summary equals the one a from-scratch
//! [`VendorSite::regenerate`] over the merged package builds, bit for bit —
//! the property the `delta_differential` proptest harness pins down.

use crate::error::HydraResult;
use crate::transfer::TransferPackage;
use crate::vendor::{RegenerationResult, VendorSite};
use hydra_query::delta::{ConstraintSet, WorkloadDelta};
use hydra_summary::builder::{SummaryBuildReport, SummaryBuilder};
use hydra_summary::delta::{DeltaBuildReport, SolveBaseline, SummaryDiff};
use hydra_summary::summary::DatabaseSummary;
use hydra_summary::verify::verify_summary;
use std::collections::BTreeMap;

/// A regeneration plus everything needed to evolve it incrementally.
#[derive(Debug, Clone)]
pub struct RegenerationState {
    /// The (merged) package this state was solved from.
    pub package: TransferPackage,
    /// The solved regeneration (summary, reports, schema).
    pub regeneration: RegenerationResult,
    /// The extracted constraint set, with per-query provenance retained for
    /// incremental merging.
    pub constraints: ConstraintSet,
    /// Per-relation solve artifacts (signatures, summaries, stats; the
    /// partitions keep no regions).
    baseline: SolveBaseline,
}

impl RegenerationState {
    /// The one constructor: every relation's solve is retained
    /// [`without_regions`](hydra_summary::solve::SolvedRelation::without_regions),
    /// since a changed relation re-solves from scratch and nothing reads a
    /// retained region — in memory, or in whatever a durable registry logs.
    fn new(
        package: TransferPackage,
        regeneration: RegenerationResult,
        constraints: ConstraintSet,
        baseline: SolveBaseline,
    ) -> Self {
        let relations = (baseline.relations.into_iter())
            .map(|(name, mut relation)| {
                relation.solved = relation.solved.without_regions();
                (name, relation)
            })
            .collect();
        RegenerationState {
            package,
            regeneration,
            constraints,
            baseline: SolveBaseline { relations },
        }
    }

    /// Number of relations with retained solve artifacts.
    pub fn baseline_relations(&self) -> usize {
        self.baseline.len()
    }

    /// The per-relation solve artifacts backing this state (no regions).
    /// Exposed so a durable registry can serialize the solved state and
    /// later rebuild it via [`VendorSite::restore_stateful`] without
    /// re-solving.
    pub fn baseline(&self) -> &SolveBaseline {
        &self.baseline
    }
}

/// The outcome of applying a workload delta to a [`RegenerationState`].
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The evolved state (merged package, rebuilt regeneration, refreshed
    /// baseline) — feed it to the next [`VendorSite::apply_delta`].
    pub state: RegenerationState,
    /// Structural diff against the previous summary (blocks added / removed
    /// / resized per relation).
    pub diff: SummaryDiff,
    /// What re-solved and what was reused.
    pub report: DeltaBuildReport,
}

/// Per-relation row targets: the package metadata's row counts.
fn row_targets(package: &TransferPackage) -> BTreeMap<String, u64> {
    let metadata = &package.metadata;
    metadata
        .schema
        .table_names()
        .iter()
        .map(|t| (t.clone(), metadata.row_count(t)))
        .collect()
}

impl TransferPackage {
    /// The package a delta evolves this one into: the delta merged into the
    /// workload, and the client metadata revised where the delta observed
    /// new row counts (a drifted warehouse).  [`VendorSite::apply_delta`]
    /// solves this package, and a durable registry re-derives a delta
    /// version's package with it instead of logging the package again.
    pub fn apply_delta(&self, delta: &WorkloadDelta) -> HydraResult<TransferPackage> {
        let workload = self.workload.apply_delta(delta)?;
        let mut metadata = self.metadata.clone();
        for (table, rows) in &delta.row_counts {
            metadata.tables.entry(table.clone()).or_default().row_count = *rows;
        }
        Ok(TransferPackage::new(metadata, workload))
    }
}

impl VendorSite {
    /// [`VendorSite::regenerate`] retaining the per-relation solve artifacts
    /// needed for incremental evolution (and for what-if scenarios against
    /// this state, [`VendorSite::scenario`]).
    pub fn regenerate_stateful(&self, package: &TransferPackage) -> HydraResult<RegenerationState> {
        let constraints = ConstraintSet::from_workload(&package.workload)?;
        let builder = SummaryBuilder::new(self.config.builder.clone());
        let (summary, build_report, baseline) = builder.build_retaining(
            &package.metadata.schema,
            &row_targets(package),
            constraints.by_table(),
            Some(&package.metadata),
        )?;
        self.finish(
            package.clone(),
            constraints,
            summary,
            build_report,
            baseline,
        )
    }

    /// Rebuilds a [`RegenerationState`] from a previously solved baseline —
    /// the recovery path of a durable registry.  No partitioning and no LP
    /// runs: the summary is reassembled from the baseline's solved
    /// relations, the stored build report is reattached verbatim (so
    /// descriptions stay bit-identical across a restart), and only the
    /// cheap artifacts (constraint extraction and verification) are
    /// recomputed.  A baseline whose partitions still hold regions (as
    /// older registries logged it, full or support-only) is accepted, and
    /// the regions are dropped.
    pub fn restore_stateful(
        &self,
        package: &TransferPackage,
        build_report: SummaryBuildReport,
        baseline: SolveBaseline,
    ) -> HydraResult<RegenerationState> {
        let constraints = ConstraintSet::from_workload(&package.workload)?;
        let summary = baseline.to_summary();
        self.finish(
            package.clone(),
            constraints,
            summary,
            build_report,
            baseline,
        )
    }

    /// Applies a workload delta to a previous stateful regeneration: the
    /// constraint merge, the summary rebuild (reuse or re-solve per
    /// relation) and the structural diff, end to end.
    pub fn apply_delta(
        &self,
        prev: &RegenerationState,
        delta: &WorkloadDelta,
    ) -> HydraResult<DeltaOutcome> {
        // The constraints of untouched queries are reused verbatim.
        let package = prev.package.apply_delta(delta)?;
        let constraints = prev.constraints.merge_delta(&package.workload, delta)?;
        self.rebuild(package, constraints, &prev.baseline)
    }

    /// Builds `package` as a delta against `prev`: relations whose
    /// signature is unchanged are reused, the rest re-solve from scratch.
    /// Shared by [`VendorSite::apply_delta`] and [`VendorSite::scenario`].
    pub(crate) fn rebuild(
        &self,
        package: TransferPackage,
        constraints: ConstraintSet,
        prev: &SolveBaseline,
    ) -> HydraResult<DeltaOutcome> {
        let builder = SummaryBuilder::new(self.config.builder.clone());
        let built = builder.build_delta(
            &package.metadata.schema,
            &row_targets(&package),
            constraints.by_table(),
            Some(&package.metadata),
            prev,
        )?;
        Ok(DeltaOutcome {
            state: self.finish(
                package,
                constraints,
                built.summary,
                built.report,
                built.baseline,
            )?,
            diff: built.diff,
            report: built.delta_report,
        })
    }

    /// The tail every build shares: verify the summary against the
    /// constraint set and wrap the result as a state.
    fn finish(
        &self,
        package: TransferPackage,
        constraints: ConstraintSet,
        summary: DatabaseSummary,
        build_report: SummaryBuildReport,
        baseline: SolveBaseline,
    ) -> HydraResult<RegenerationState> {
        let schema = package.metadata.schema.clone();
        let accuracy = verify_summary(&summary, constraints.by_table())?;
        let regeneration = RegenerationResult {
            summary,
            build_report,
            accuracy,
            schema,
        };
        Ok(RegenerationState::new(
            package,
            regeneration,
            constraints,
            baseline,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientSite;
    use hydra_engine::database::Database;
    use hydra_engine::exec::Executor;
    use hydra_query::query::SpjQuery;
    use hydra_summary::delta::DeltaAction;
    use hydra_workload::retail_client_fixture;

    fn fixture() -> (Database, Vec<SpjQuery>) {
        retail_client_fixture(1_500, 500, 8)
    }

    fn vendor() -> VendorSite {
        VendorSite::default()
    }

    /// Harvests one extra query (unused seed range) against the client DB.
    fn harvested_delta(db: &Database, queries: &[SpjQuery]) -> WorkloadDelta {
        let executor = Executor::new(db);
        let mut delta = WorkloadDelta::new();
        for query in queries {
            let aqp = executor.run_query(query).unwrap();
            delta = delta.add_annotated(query.clone(), aqp);
        }
        delta
    }

    #[test]
    fn stateful_regeneration_matches_stateless() {
        let (db, queries) = fixture();
        let package = ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap();
        let stateless = vendor().regenerate(&package).unwrap();
        let stateful = vendor().regenerate_stateful(&package).unwrap();
        assert_eq!(stateless.summary, stateful.regeneration.summary);
        assert_eq!(stateless.accuracy, stateful.regeneration.accuracy);
        assert!(stateful.baseline_relations() > 0);
        // The state retains no regions and no counts.
        for relation in stateful.baseline().relations.values() {
            assert!(relation.solved.region_counts.is_empty());
            assert_eq!(relation.solved.partition.num_variables(), 0);
        }
    }

    #[test]
    fn empty_delta_reuses_every_relation() {
        let (db, queries) = fixture();
        let package = ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap();
        let state = vendor().regenerate_stateful(&package).unwrap();
        let outcome = vendor().apply_delta(&state, &WorkloadDelta::new()).unwrap();
        assert_eq!(
            outcome.report.reused(),
            outcome.report.relations.len(),
            "{}",
            outcome.report.to_display_table()
        );
        assert!(outcome.diff.is_unchanged());
        assert_eq!(
            outcome.state.regeneration.summary,
            state.regeneration.summary
        );
    }

    #[test]
    fn retire_and_add_queries_incrementally() {
        use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};

        let (db, queries) = fixture();
        let package = ClientSite::new(db.clone())
            .prepare_package(&queries, false)
            .unwrap();
        let state = vendor().regenerate_stateful(&package).unwrap();

        // A narrow new observation: a local-predicate query on web_sales
        // (which references no dimension in this query), plus retiring one
        // of the original queries.
        let mut narrow = SpjQuery::new("delta-q1");
        narrow.add_table("web_sales");
        narrow.set_predicate(
            "web_sales",
            TablePredicate::always_true().with(ColumnPredicate::new(
                "ws_quantity",
                CompareOp::Lt,
                40,
            )),
        );
        let delta = harvested_delta(&db, &[narrow]);
        let outcome = vendor().apply_delta(&state, &delta).unwrap();
        assert_eq!(outcome.state.package.query_count(), 9);
        // Only web_sales is touched: every other relation is reused, and
        // referencing relations cascade reuse through identical dimension
        // summaries.
        assert_eq!(
            outcome.report.reused(),
            outcome.report.relations.len() - 1,
            "only web_sales re-solves: {}",
            outcome.report.to_display_table()
        );
        let ws = outcome
            .report
            .relations
            .iter()
            .find(|r| r.table == "web_sales")
            .unwrap();
        assert_ne!(ws.action, DeltaAction::Reused);

        // Equivalence: a from-scratch regeneration of the merged package
        // satisfies the same constraints with the same row counts.
        let scratch = vendor().regenerate(&outcome.state.package).unwrap();
        for (name, relation) in &scratch.summary.relations {
            assert_eq!(
                relation.total_rows,
                outcome
                    .state
                    .regeneration
                    .summary
                    .relation(name)
                    .unwrap()
                    .total_rows,
                "{name} row count"
            );
        }
        assert_eq!(
            scratch.accuracy.fraction_within(0.0),
            outcome.state.regeneration.accuracy.fraction_within(0.0),
            "incremental and from-scratch satisfy the same constraints exactly"
        );

        // A second delta chains off the evolved state: retiring the narrow
        // query restores the original constraint set, so web_sales re-solves
        // and everything else is reused again.
        let delta2 = WorkloadDelta::new().retire("delta-q1");
        let outcome2 = vendor().apply_delta(&outcome.state, &delta2).unwrap();
        assert_eq!(outcome2.state.package.query_count(), 8);
        assert_eq!(
            outcome2.report.reused(),
            outcome2.report.relations.len() - 1
        );
    }

    #[test]
    fn row_count_revision_rescales_the_relation() {
        let (db, queries) = fixture();
        let package = ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap();
        let state = vendor().regenerate_stateful(&package).unwrap();
        let old_rows = state
            .regeneration
            .summary
            .relation("store_sales")
            .unwrap()
            .total_rows;
        let delta = WorkloadDelta::new().with_row_count("store_sales", old_rows * 2);
        let outcome = vendor().apply_delta(&state, &delta).unwrap();
        assert_eq!(
            outcome
                .state
                .regeneration
                .summary
                .relation("store_sales")
                .unwrap()
                .total_rows,
            old_rows * 2
        );
        let ss = outcome
            .report
            .relations
            .iter()
            .find(|r| r.table == "store_sales")
            .unwrap();
        assert_ne!(ss.action, DeltaAction::Reused);
        let diff = outcome
            .diff
            .relations
            .iter()
            .find(|r| r.table == "store_sales")
            .unwrap();
        assert_eq!(diff.rows_before, old_rows);
        assert_eq!(diff.rows_after, old_rows * 2);
    }

    #[test]
    fn invalid_delta_surfaces_as_query_error() {
        let (db, queries) = fixture();
        let package = ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap();
        let state = vendor().regenerate_stateful(&package).unwrap();
        let err = vendor()
            .apply_delta(&state, &WorkloadDelta::new().retire("no-such-query"))
            .unwrap_err();
        assert!(err.to_string().contains("workload delta rejected"));
    }
}
