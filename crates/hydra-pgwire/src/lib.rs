//! # hydra-pgwire
//!
//! A PostgreSQL wire-protocol front-end for the HYDRA regeneration service:
//! the dataless database as a drop-in test double for a real Postgres.
//!
//! The crate implements the **simple-query protocol** (v3 message framing)
//! from scratch over `std::net` — no external dependencies — and translates
//! incoming `SELECT`s into the existing `hydra-query` execution path:
//!
//! * in-class aggregate queries are answered **summary-direct** in
//!   O(blocks), never materializing a tuple;
//! * `SELECT * FROM <relation>` (and out-of-class aggregates, via the
//!   engine's automatic fallback) regenerate tuples dynamically; a scan
//!   streams them block-wise as `DataRow` messages — the same
//!   `RowBlock` generation path the frame protocol's `Stream` request
//!   drives, paced by the same velocity governor.
//!
//! Both protocol front-ends serve one [`SummaryRegistry`]; the `database`
//! startup parameter (`name[@version]`) selects the registry entry.  A pg
//! listener is a [`PgProtocol`] bound on a
//! [`ReactorBuilder`](hydra_service::ReactorBuilder): v3 messages are
//! decoded incrementally on the event loop, bounded statements are answered
//! there, and scans and scan fallbacks run on the fixed worker pool.  Bind
//! it on the same builder as the frame listener (as `hydra-serve` does), or
//! start both under one [`ShutdownSignal`](hydra_service::ShutdownSignal),
//! so either side's shutdown stops both accept loops.
//!
//! ```
//! use hydra_core::session::Hydra;
//! use hydra_pgwire::{PgClient, PgProtocol};
//! use hydra_service::registry::SummaryRegistry;
//! use hydra_service::{ReactorBuilder, ShutdownSignal};
//! use hydra_workload::retail_client_fixture;
//! use std::sync::Arc;
//!
//! let session = Hydra::builder().build();
//! let registry = Arc::new(SummaryRegistry::in_memory(session.clone()));
//! let (db, queries) = retail_client_fixture(300, 80, 4);
//! let package = session.profile(db, &queries).unwrap();
//! registry.publish("retail", package).unwrap();
//!
//! let mut builder = ReactorBuilder::new(session.metrics());
//! let addr = builder
//!     .listen("127.0.0.1:0", Arc::new(PgProtocol::new(registry)))
//!     .unwrap();
//! let server = builder.start(ShutdownSignal::new()).unwrap();
//! let mut client = PgClient::connect(addr, Some("retail")).unwrap();
//! let answer = client.query("select count(*) from store_sales").unwrap();
//! assert_eq!(answer.columns, vec!["count(*)".to_string()]);
//! client.terminate().unwrap();
//! server.shutdown();
//! ```
//!
//! [`SummaryRegistry`]: hydra_service::registry::SummaryRegistry

#![warn(missing_docs)]

pub mod client;
pub mod codec;
mod connection;
mod datarow;
pub mod error;
pub mod reactor;
pub mod types;

pub use client::{PgClient, PgRows};
pub use codec::{BackendMessage, FieldDescription, FrontendMessage, StartupPacket};
pub use error::{PgResult, PgWireError, ServerError};
pub use reactor::PgProtocol;
