//! Scenario construction ("what-if" regeneration).
//!
//! The vendor can pro-actively simulate anticipated client environments by
//! injecting cardinality annotations into the original AQPs — e.g. scaling
//! everything by 10⁶ to model an exabyte-era warehouse, or stressing one
//! relation far beyond its observed size.  HYDRA builds the regeneration
//! summary and reports whether the synthetic assignments are feasible (every
//! per-relation LP is met exactly); a strict scenario turns infeasibility
//! into an error.  Because summary construction is data-scale-free, this
//! costs the same regardless of the simulated volume.
//!
//! A scenario is a delta against a solved base state
//! ([`VendorSite::scenario`]): the distorted package is built against the
//! base's solve baseline, so relations the scenario leaves untouched are
//! reused and the rest re-solve cold.

use crate::delta::RegenerationState;
use crate::error::{HydraError, HydraResult};
use crate::transfer::TransferPackage;
use crate::vendor::{RegenerationResult, VendorSite};
use hydra_lp::solver::SolveStatus;
use hydra_query::delta::ConstraintSet;
use std::collections::BTreeMap;

/// A what-if scenario: how to distort the observed workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// Uniform scale factor applied to every cardinality annotation and every
    /// table row count.
    pub scale_factor: f64,
    /// Per-relation row-count overrides applied after scaling (absolute
    /// values, e.g. "make store_sales a trillion rows").
    pub row_overrides: BTreeMap<String, u64>,
    /// Per-edge cardinality overrides applied after scaling, keyed by
    /// `(query name, pre-order edge index)`.
    pub cardinality_overrides: BTreeMap<(String, usize), u64>,
    /// When `true`, an infeasible scenario is an error naming every relation
    /// that is not exactly feasible; when `false`, the least-violation
    /// summary is returned and the violation is reported.
    pub strict: bool,
}

impl Scenario {
    /// A pure scale-up/down scenario.
    pub fn scaled(name: impl Into<String>, scale_factor: f64) -> Self {
        Scenario {
            name: name.into(),
            scale_factor,
            row_overrides: BTreeMap::new(),
            cardinality_overrides: BTreeMap::new(),
            strict: false,
        }
    }

    /// Adds an absolute row-count override for one relation.
    pub fn with_row_override(mut self, table: impl Into<String>, rows: u64) -> Self {
        self.row_overrides.insert(table.into(), rows);
        self
    }

    /// Adds a cardinality override for one annotated edge.
    pub fn with_cardinality_override(
        mut self,
        query: impl Into<String>,
        edge_index: usize,
        cardinality: u64,
    ) -> Self {
        self.cardinality_overrides
            .insert((query.into(), edge_index), cardinality);
        self
    }

    /// Requires the scenario to be exactly feasible.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Applies the scenario to a transfer package, producing the distorted
    /// package that the vendor pipeline will regenerate from.
    pub fn apply(&self, package: &TransferPackage) -> TransferPackage {
        let mut out = package.clone();
        // Scale metadata row counts, then apply overrides.
        out.metadata = out.metadata.scaled(self.scale_factor);
        for (table, rows) in &self.row_overrides {
            if let Some(stats) = out.metadata.tables.get_mut(table) {
                stats.row_count = *rows;
            } else {
                let stats = hydra_catalog::stats::TableStatistics {
                    row_count: *rows,
                    ..Default::default()
                };
                out.metadata.tables.insert(table.clone(), stats);
            }
        }
        // Scale AQP annotations, then apply per-edge overrides.
        for entry in out.workload.entries.iter_mut() {
            if let Some(aqp) = entry.aqp.as_mut() {
                aqp.scale_cardinalities(self.scale_factor);
                let mut index = 0usize;
                aqp.root.for_each_mut(&mut |node| {
                    if let Some(card) = self
                        .cardinality_overrides
                        .get(&(entry.query.name.clone(), index))
                    {
                        node.cardinality = *card;
                    }
                    index += 1;
                });
            }
        }
        out
    }
}

/// The outcome of constructing a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that was constructed.
    pub scenario_name: String,
    /// Whether every relation's LP was exactly feasible.
    pub feasible: bool,
    /// Total LP violation across relations (0 when feasible).
    pub total_violation: f64,
    /// The regeneration result (summary, reports, dataless database).
    pub regeneration: RegenerationResult,
}

impl VendorSite {
    /// Constructs a what-if scenario over a solved base state: applies the
    /// distortion to the base package and builds the summary as a delta
    /// against the base — relations whose signature the scenario leaves
    /// unchanged are reused
    /// ([`hydra_summary::builder::SummaryBuildReport::cached_relations`]).
    /// A strict scenario whose build leaves any relation short of
    /// [`SolveStatus::Feasible`] is [`HydraError::InfeasibleScenario`], so a
    /// strict `Ok` is always feasible.
    ///
    /// Changed relations solve from scratch, as in any delta, so each
    /// re-solved relation is the one a from-scratch regeneration of the
    /// distorted package produces.
    pub fn scenario(
        &self,
        scenario: &Scenario,
        base: &RegenerationState,
    ) -> HydraResult<ScenarioResult> {
        let distorted = scenario.apply(&base.package);
        let constraints = ConstraintSet::from_workload(&distorted.workload)?;
        let regeneration = self
            .rebuild(distorted, constraints, base.baseline())?
            .state
            .regeneration;
        let relations = &regeneration.build_report.relations;
        let infeasible: Vec<String> = relations
            .iter()
            .filter(|r| r.lp.status != SolveStatus::Feasible)
            .map(|r| format!("{} (violation {})", r.table, r.lp.total_violation))
            .collect();
        if scenario.strict && !infeasible.is_empty() {
            return Err(HydraError::InfeasibleScenario(format!(
                "scenario `{}` is infeasible: no exact solution for {}",
                scenario.name,
                infeasible.join(", ")
            )));
        }
        let feasible = infeasible.is_empty();
        let total_violation = relations.iter().map(|r| r.lp.total_violation).sum();
        Ok(ScenarioResult {
            scenario_name: scenario.name.clone(),
            feasible,
            total_violation,
            regeneration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientSite;
    use hydra_workload::retail_client_fixture;

    fn vendor() -> VendorSite {
        VendorSite::default()
    }

    fn base() -> RegenerationState {
        let (db, queries) = retail_client_fixture(1_500, 400, 6);
        let package = ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap();
        vendor().regenerate_stateful(&package).unwrap()
    }

    #[test]
    fn scaled_scenario_preserves_feasibility() {
        let base = base();
        let scenario = Scenario::scaled("x100", 100.0);
        let result = vendor().scenario(&scenario, &base).unwrap();
        assert!(result.feasible, "uniform scaling must stay feasible");
        assert_eq!(
            result
                .regeneration
                .summary
                .relation("store_sales")
                .unwrap()
                .total_rows,
            150_000
        );
        // Construction is scale-free: the summary stays small even though the
        // simulated database is 100x larger.
        assert!(result.regeneration.summary.size_bytes() < 64 * 1024);
    }

    #[test]
    fn extreme_extrapolation_is_cheap() {
        // An "exabyte era" extrapolation: a billion times the observed volume.
        let base = base();
        let scenario = Scenario::scaled("exabyte", 1e9);
        let result = vendor().scenario(&scenario, &base).unwrap();
        let ss = result.regeneration.summary.relation("store_sales").unwrap();
        assert_eq!(ss.total_rows, 1_500_000_000_000);
        assert!(result.regeneration.summary.size_bytes() < 64 * 1024);
    }

    #[test]
    fn contradictory_injection_is_detected() {
        let base = base();
        // Make one query's root claim more rows than the fact table has.
        let query_name = base.package.workload.entries[0].query.name.clone();
        let scenario = Scenario::scaled("broken", 1.0)
            .with_cardinality_override(query_name, 0, 10_000_000)
            .strict();
        let err = vendor().scenario(&scenario, &base).unwrap_err();
        let HydraError::InfeasibleScenario(message) = err else {
            panic!("expected InfeasibleScenario, got {err:?}");
        };

        // Without strict mode the scenario builds with a recorded violation,
        // and the strict error names exactly the relations it left short.
        let scenario = Scenario {
            strict: false,
            ..scenario
        };
        let result = vendor().scenario(&scenario, &base).unwrap();
        assert!(!result.feasible);
        assert!(result.total_violation > 0.0);
        let short: Vec<&str> = result
            .regeneration
            .build_report
            .relations
            .iter()
            .filter(|r| r.lp.status != SolveStatus::Feasible)
            .map(|r| r.table.as_str())
            .collect();
        assert!(!short.is_empty());
        for relation in &result.regeneration.build_report.relations {
            assert_eq!(
                message.contains(&format!("{} (violation", relation.table)),
                short.contains(&relation.table.as_str()),
                "{message}: {}",
                relation.table
            );
        }
    }

    #[test]
    fn row_override_changes_one_relation() {
        let base = base();
        let scenario = Scenario::scaled("stress-item", 1.0).with_row_override("item", 500_000);
        let result = vendor().scenario(&scenario, &base).unwrap();
        assert_eq!(
            result
                .regeneration
                .summary
                .relation("item")
                .unwrap()
                .total_rows,
            500_000
        );
    }
}
