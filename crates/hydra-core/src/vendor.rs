//! The vendor site: regeneration from a transfer package.
//!
//! Mirrors the paper's architecture: Preprocessor → LP Formulator → solver →
//! Summary Generator → referential post-processing, followed by verification
//! and (on demand) dynamic tuple generation through the dataless database.

use crate::error::HydraResult;
use crate::report::RegenerationReport;
use crate::transfer::TransferPackage;
use hydra_datagen::generator::DynamicGenerator;
use hydra_summary::builder::{SummaryBuildReport, SummaryBuilderConfig};
use hydra_summary::summary::DatabaseSummary;
use hydra_summary::verify::VolumetricAccuracyReport;

/// Configuration of the vendor-side regeneration.
#[derive(Debug, Clone, Default)]
pub struct HydraConfig {
    /// Summary-builder configuration (alignment strategy and per-stratum
    /// parallelism).
    pub builder: SummaryBuilderConfig,
}

/// The outcome of a regeneration run.
#[derive(Debug, Clone)]
pub struct RegenerationResult {
    /// The database summary (the deliverable of the vendor pipeline).
    pub summary: DatabaseSummary,
    /// Per-relation LP / construction statistics.
    pub build_report: SummaryBuildReport,
    /// Volumetric-constraint accuracy of the summary: one check per
    /// annotated AQP edge, labelled `{query}#{pre-order index}`.
    pub accuracy: VolumetricAccuracyReport,
    /// The schema the summary regenerates.
    pub schema: hydra_catalog::schema::Schema,
}

impl RegenerationResult {
    /// The regenerated database: a borrowed view of the schema and summary
    /// that streams, shards, scans and answers queries without copying
    /// either.
    pub fn generator(&self) -> DynamicGenerator<'_> {
        DynamicGenerator::new(&self.schema, &self.summary)
    }

    /// The consolidated report (build + accuracy).
    pub fn report(&self) -> RegenerationReport {
        RegenerationReport {
            build: self.build_report.clone(),
            accuracy: self.accuracy.clone(),
            summary_bytes: self.summary.size_bytes(),
            regenerated_rows: self.summary.total_rows(),
        }
    }
}

/// The vendor-side driver.
#[derive(Debug, Clone, Default)]
pub struct VendorSite {
    /// Configuration.
    pub config: HydraConfig,
}

impl VendorSite {
    /// Creates a vendor site with the given configuration.
    pub fn new(config: HydraConfig) -> Self {
        VendorSite { config }
    }

    /// Runs the full regeneration pipeline on a transfer package:
    /// preprocess → solve → summarize → verify.  This is
    /// [`VendorSite::regenerate_stateful`] without the retained state.
    pub fn regenerate(&self, package: &TransferPackage) -> HydraResult<RegenerationResult> {
        Ok(self.regenerate_stateful(package)?.regeneration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientSite;
    use hydra_workload::retail_client_fixture;

    fn small_package() -> TransferPackage {
        let (db, queries) = retail_client_fixture(2_000, 600, 10);
        ClientSite::new(db)
            .prepare_package(&queries, false)
            .unwrap()
    }

    #[test]
    fn end_to_end_regeneration_quality() {
        let package = small_package();
        let vendor = VendorSite::new(HydraConfig::default());
        let result = vendor.regenerate(&package).unwrap();

        // Row counts match the client's database.
        assert_eq!(
            result.summary.relation("store_sales").unwrap().total_rows,
            package.metadata.row_count("store_sales")
        );

        // The paper's headline accuracy claim: the vast majority of
        // constraints within 10% relative error.
        assert!(
            result.accuracy.fraction_within(0.10) > 0.9,
            "only {:.1}% of constraints within 10%",
            100.0 * result.accuracy.fraction_within(0.10)
        );

        // The summary is orders of magnitude smaller than the client data.
        let client_rows: u64 = package.metadata.total_rows();
        assert!(result.summary.size_bytes() < 64 * 1024);
        assert_eq!(result.summary.total_rows(), client_rows);

        // The regenerated database serves every relation, in place.
        let generator = result.generator();
        assert_eq!(
            generator.stream("store_sales").unwrap().remaining(),
            package.metadata.row_count("store_sales")
        );
        assert!(std::ptr::eq(generator.summary, &result.summary));
        assert!(std::ptr::eq(generator.schema, &result.schema));

        let text = result.report().to_display_text();
        assert!(text.contains("volumetric"));
    }
}
