//! # HYDRA — a dynamic big data regenerator (Rust reproduction)
//!
//! This crate is the façade of the workspace: it re-exports every subsystem of
//! the reproduction of *"HYDRA: A Dynamic Big Data Regenerator"* (Sanghi,
//! Sood, Singh, Haritsa, Tirthapura — PVLDB 11(12), 2018) under one roof, so
//! downstream users can depend on a single crate.
//!
//! ## Subsystems
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`catalog`] | `hydra-catalog` | schema, value model, statistics, metadata transfer |
//! | [`query`] | `hydra-query` | SPJ queries, logical plans, annotated query plans (AQPs) |
//! | [`engine`] | `hydra-engine` | in-memory relational executor with cardinality instrumentation |
//! | [`lp`] | `hydra-lp` | LP model + elastic restricted-master simplex (Z3 substitute) |
//! | [`partition`] | `hydra-partition` | region partitioning (HYDRA) and grid partitioning (DataSynth baseline) |
//! | [`summary`] | `hydra-summary` | LP formulation, deterministic alignment, database summaries, verification |
//! | [`datagen`] | `hydra-datagen` | the dataless database (`DynamicGenerator`), dynamic tuple generation, velocity regulation |
//! | [`workload`] | `hydra-workload` | synthetic client schemas, data generators, SPJ workloads |
//! | [`core`] | `hydra-core` | client site, transfer package, vendor site, scenarios, reports |
//! | [`service`] | `hydra-service` | frame protocol for a `ReactorBuilder` listener, durable summary registry, typed client |
//! | [`pgwire`] | `hydra-pgwire` | PostgreSQL simple-query protocol for the same reactor and registry |
//! | [`obs`] | `hydra-obs` | metrics, latency histograms, tracing spans, Prometheus exposition |
//!
//! ## Quickstart
//!
//! Everything is driven through a [`Hydra`] session built from a typed
//! builder: pick an alignment strategy and a worker count for the
//! per-relation solves; the solve itself is the paper's fixed pipeline
//! (region partitioning, one LP per relation, deterministic alignment).
//!
//! ```
//! use hydra::Hydra;
//! use hydra::workload::{generate_client_database, retail_row_targets, retail_schema,
//!                       DataGenConfig, WorkloadGenConfig, WorkloadGenerator};
//!
//! let schema = retail_schema();
//! let mut targets = retail_row_targets(0.005);
//! targets.insert("store_sales".to_string(), 1_000);
//! targets.insert("web_sales".to_string(), 300);
//! let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
//! let queries = WorkloadGenerator::new(schema,
//!     WorkloadGenConfig { num_queries: 5, ..Default::default() }).generate();
//!
//! let session = Hydra::builder().parallelism(2).build();
//! let package = session.profile(db, &queries).unwrap();
//! let state = session.regenerate_stateful(&package).unwrap();
//! let result = &state.regeneration;
//! assert!(result.accuracy.fraction_within(0.10) > 0.9);
//!
//! // What-if scenario as a delta against the solved state: only the
//! // relations the scenario touches re-solve.
//! use hydra::core::scenario::Scenario;
//! let what_if = session.scenario(&Scenario::scaled("x1000", 1000.0), &state).unwrap();
//! assert!(what_if.feasible);
//!
//! // Analytical aggregates are answered summary-direct — from block
//! // cardinalities alone, without materializing a tuple.
//! use hydra::ExecStrategy;
//! let answer = session
//!     .query(result, "select count(*), avg(item.i_current_price) \
//!                      from store_sales, item \
//!                      where store_sales.ss_item_fk = item.i_item_sk \
//!                      group by item.i_category")
//!     .unwrap();
//! assert_eq!(answer.strategy(), ExecStrategy::SummaryDirect);
//! assert_eq!(answer.scanned_tuples, 0);
//! ```

pub use hydra_catalog as catalog;
pub use hydra_core as core;
pub use hydra_datagen as datagen;
pub use hydra_engine as engine;
pub use hydra_lp as lp;
pub use hydra_obs as obs;
pub use hydra_partition as partition;
pub use hydra_pgwire as pgwire;
pub use hydra_query as query;
pub use hydra_service as service;
pub use hydra_summary as summary;
pub use hydra_workload as workload;

pub use hydra_core::session::{Hydra, HydraBuilder};
pub use hydra_core::{DeltaOutcome, RegenerationResult, RegenerationState, TransferPackage};
pub use hydra_datagen::exec::{ExecMode, QueryEngine};
pub use hydra_pgwire::PgClient;
pub use hydra_query::delta::{ConstraintSet, WorkloadDelta};
pub use hydra_query::exec::{AggregateQuery, ExecStrategy, QueryAnswer};
pub use hydra_service::{HydraClient, ShutdownSignal, SummaryRegistry};
pub use hydra_summary::delta::{DeltaBuildReport, SummaryDiff};
