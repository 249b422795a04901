//! # hydra-workload
//!
//! The client-side substrate used by HYDRA's experiments: synthetic "customer
//! warehouse" schemas, deterministic data generators with realistic skew, and
//! SPJ query-workload generators.
//!
//! The paper evaluates HYDRA on a TPC-DS warehouse with a 131-query SPJ
//! workload.  The proprietary TPC-DS data and the authors' exact query set are
//! not available here, so this crate provides the closest synthetic
//! equivalents (`PAPER.md` has the paper's abstract, and
//! `docs/ARCHITECTURE.md` places this crate in the pipeline):
//!
//! * [`retail`] — a TPC-DS-like retail star schema (two fact tables,
//!   five dimensions) with scale-factor-controlled row counts;
//! * [`supplier`] — a TPC-H-like snowflake schema
//!   (lineitem → orders → customer → nation → region) exercising nested
//!   foreign-key conditions;
//! * [`datagen`] — a deterministic, seeded client-data generator with Zipfian
//!   skew on categorical, numeric and foreign-key columns;
//! * [`queries`] — SPJ workload generators, including the canonical 131-query
//!   retail workload used by experiments E1/E2/E8;
//! * [`harvest`] — runs a workload on the client database and collects the
//!   annotated query plans (the client-site step of the architecture).
//!
//! The structural properties that matter for reproducing the paper's results
//! — multi-dimensional star joins, skewed value distributions, a large number
//! of overlapping range predicates — are all present; absolute numbers differ
//! from the authors' testbed but the shapes of the results carry over.

pub mod datagen;
pub mod harvest;
pub mod queries;
pub mod retail;
pub mod supplier;

pub use datagen::{generate_client_database, DataGenConfig};
pub use harvest::harvest_workload;
pub use queries::{retail_workload_131, WorkloadGenConfig, WorkloadGenerator};
pub use retail::{retail_row_targets, retail_schema};
pub use supplier::{supplier_row_targets, supplier_schema};

/// A ready-made small retail client environment: the star-schema warehouse
/// with explicit fact-table sizes plus a deterministic SPJ workload over it.
///
/// This is the fixture behind most of the workspace's tests, examples and
/// the `hydra-serve` demo dataset — one call instead of five lines of
/// schema/target/generator boilerplate:
///
/// ```
/// use hydra_workload::retail_client_fixture;
/// let (db, queries) = retail_client_fixture(1_000, 300, 5);
/// assert_eq!(queries.len(), 5);
/// assert_eq!(db.table("store_sales").unwrap().row_count(), 1_000);
/// ```
pub fn retail_client_fixture(
    store_sales_rows: u64,
    web_sales_rows: u64,
    num_queries: usize,
) -> (
    hydra_engine::database::Database,
    Vec<hydra_query::query::SpjQuery>,
) {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), store_sales_rows);
    targets.insert("web_sales".to_string(), web_sales_rows);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries,
            ..Default::default()
        },
    )
    .generate();
    (db, queries)
}

/// A ready-made small supplier (TPC-H-like snowflake) client environment:
/// the lineitem → orders → customer → nation → region warehouse with
/// explicit sizes for the two biggest relations plus a deterministic SPJ
/// workload — the snowflake counterpart of [`retail_client_fixture`],
/// exercising *nested* foreign-key conditions end to end.
///
/// ```
/// use hydra_workload::supplier_client_fixture;
/// let (db, queries) = supplier_client_fixture(2_000, 700, 4);
/// assert_eq!(queries.len(), 4);
/// assert_eq!(db.table("lineitem").unwrap().row_count(), 2_000);
/// ```
pub fn supplier_client_fixture(
    lineitem_rows: u64,
    orders_rows: u64,
    num_queries: usize,
) -> (
    hydra_engine::database::Database,
    Vec<hydra_query::query::SpjQuery>,
) {
    let schema = supplier_schema();
    let mut targets = supplier_row_targets(0.05);
    targets.insert("lineitem".to_string(), lineitem_rows);
    targets.insert("orders".to_string(), orders_rows);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries,
            ..Default::default()
        },
    )
    .generate();
    (db, queries)
}
