//! # hydra-core
//!
//! The public face of the HYDRA reproduction: the end-to-end
//! client-site → vendor-site pipeline of the paper's architecture (Figure 2).
//!
//! * [`client::ClientSite`] — profiles the customer warehouse (schema,
//!   metadata, statistics), executes the query workload to obtain annotated
//!   query plans, and packages everything for transfer, optionally through an
//!   anonymization layer.
//! * [`transfer::TransferPackage`] — the JSON-serializable information
//!   synopsis shipped from client to vendor.
//! * [`vendor::VendorSite`] — the vendor-side regenerator: preprocesses the
//!   AQPs into per-relation constraints, formulates and solves the LPs,
//!   builds the database summary, verifies volumetric similarity, and exposes
//!   the dataless database for dynamic regeneration during query execution.
//! * [`scenario`] — "what-if" scenario construction: inject or scale
//!   cardinality annotations, check feasibility, and build summaries for
//!   extrapolated (up to exabyte-row-count) environments as deltas against
//!   a solved base state.
//! * [`report`] — human-readable regeneration-quality reports (the vendor
//!   screens of the original demo).
//!
//! All of it is fronted by [`session::Hydra`] — a configured session built
//! from a typed builder, with a selectable alignment strategy and parallel
//! per-relation solving.
//!
//! ## Quickstart
//!
//! ```
//! use hydra_core::session::Hydra;
//! use hydra_workload::{generate_client_database, DataGenConfig, retail_row_targets,
//!                      retail_schema, WorkloadGenConfig, WorkloadGenerator};
//!
//! // Client site: a small retail warehouse and an 8-query workload.
//! let schema = retail_schema();
//! let mut targets = retail_row_targets(0.005);
//! targets.insert("store_sales".to_string(), 2_000);
//! targets.insert("web_sales".to_string(), 500);
//! let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
//! let queries = WorkloadGenerator::new(schema.clone(),
//!     WorkloadGenConfig { num_queries: 8, ..Default::default() }).generate();
//!
//! // One session drives both sites: profile, ship, regenerate, verify.
//! let session = Hydra::builder().parallelism(2).build();
//! let package = session.profile(db, &queries).unwrap();
//! let result = session.regenerate(&package).unwrap();
//! assert!(result.accuracy.fraction_within(0.10) > 0.9);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod delta;
pub mod error;
pub mod report;
pub mod scenario;
pub mod session;
pub mod transfer;
pub mod vendor;

pub use client::ClientSite;
pub use delta::{DeltaOutcome, RegenerationState};
pub use error::{HydraError, HydraResult};
pub use report::RegenerationReport;
pub use scenario::{Scenario, ScenarioResult};
pub use session::{Hydra, HydraBuilder};
pub use transfer::TransferPackage;
pub use vendor::{HydraConfig, RegenerationResult, VendorSite};
