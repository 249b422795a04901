//! Shared fixtures for the benchmark harness.
//!
//! Every bench builds its inputs through these helpers so that the
//! workloads, scale factors and seeds are consistent across experiments
//! (and with the integration tests).

use hydra_core::client::ClientSite;
use hydra_core::transfer::TransferPackage;
use hydra_core::vendor::{HydraConfig, RegenerationResult, VendorSite};
use hydra_query::aqp::VolumetricConstraint;
use hydra_workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use std::collections::BTreeMap;

/// The fixture scale used by default across benches: small enough for quick
/// iterations, large enough that the constraint structure is non-trivial.
pub const BENCH_FACT_ROWS: u64 = 10_000;

/// Builds a retail client database + `num_queries`-query workload and returns
/// the client's transfer package.
pub fn retail_package(num_queries: usize, fact_rows: u64) -> TransferPackage {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), fact_rows);
    targets.insert("web_sales".to_string(), fact_rows / 3);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries,
            seed: 131,
            ..Default::default()
        },
    )
    .generate();
    ClientSite::new(db)
        .prepare_package(&queries, false)
        .expect("client package")
}

/// The canonical 131-query package (experiments E1, E2, E7, E8, E10).
pub fn retail_package_131() -> TransferPackage {
    retail_package(131, BENCH_FACT_ROWS)
}

/// Regenerates a package with the default configuration (no AQP re-execution,
/// so the measurement isolates summary construction).
pub fn regenerate(package: &TransferPackage) -> RegenerationResult {
    VendorSite::new(HydraConfig::without_aqp_comparison())
        .regenerate(package)
        .expect("regeneration")
}

/// Per-relation volumetric constraints of a package (the preprocessor output).
pub fn constraints_by_table(
    package: &TransferPackage,
) -> BTreeMap<String, Vec<VolumetricConstraint>> {
    package
        .workload
        .constraints_by_table()
        .expect("constraint extraction")
}

/// Row targets implied by a package's metadata.
pub fn row_targets(package: &TransferPackage) -> BTreeMap<String, u64> {
    package
        .metadata
        .schema
        .table_names()
        .iter()
        .map(|t| (t.clone(), package.metadata.row_count(t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let package = retail_package(8, 2_000);
        assert_eq!(package.query_count(), 8);
        let result = regenerate(&package);
        assert!(result.accuracy.fraction_within(0.1) > 0.8);
        assert!(!constraints_by_table(&package).is_empty());
        assert_eq!(row_targets(&package)["store_sales"], 2_000);
    }
}
