//! # hydra-service
//!
//! The network face of the reproduction: a TCP server, hosted on the
//! `hydra-reactor` event loop, that makes regeneration a shared,
//! long-lived, concurrent resource — the paper's client/vendor deployment
//! model made literal.  A client site ships its
//! transfer package to a running `hydra-serve`; the vendor side solves it
//! once, registers the summary under a name in a
//! [`registry::SummaryRegistry`], and then serves any number of concurrent
//! consumers:
//!
//! * **Publish** — upload a [`hydra_core::transfer::TransferPackage`], solve
//!   it server-side, register the summary (versioned; logged to a
//!   write-ahead log when the registry is durable);
//! * **List / Describe** — registry introspection with per-relation row
//!   counts and constraint signatures;
//! * **Stream** — regenerate a row range of one relation as framed tuple
//!   batches, seeking through the summary's block index so concurrent
//!   clients can pull disjoint shards of the same relation, each paced by
//!   its own velocity governor;
//! * **Scenario** — server-side what-if, built as a delta against the
//!   latest registered version (unchanged relations are reused).
//!
//! The wire format is length-prefixed JSON frames ([`protocol`]) over the
//! same serde path the in-process transfer package uses.  Concatenating
//! wire-streamed shards in plan order is bit-identical to local sequential
//! generation — the integration tests assert it.
//!
//! A listener is a [`FrameProtocol`] bound on a [`ReactorBuilder`]: frames
//! are decoded incrementally on the reactor's event loop, bounded requests
//! (summary-direct queries, `Describe`, `List`) are answered right there,
//! and the rest run as cooperative tasks on a **fixed** worker pool — ten
//! thousand idle or slow clients cost ten thousand fds, never ten thousand
//! threads.  Tuple streams run the in-process generation path in bounded
//! slices, paced by a per-connection `VelocityGovernor` through the
//! reactor's timer wheel and backpressured by each connection's bounded
//! write queue.  One builder can host several protocols (`hydra-serve`
//! binds frames, pg and `/metrics` on one loop), all stopping on one
//! [`ShutdownSignal`]; a `Shutdown` frame triggers it.
//!
//! ```
//! use hydra_core::session::Hydra;
//! use hydra_service::client::HydraClient;
//! use hydra_service::protocol::StreamRequest;
//! use hydra_service::registry::SummaryRegistry;
//! use hydra_service::{FrameProtocol, ReactorBuilder, ShutdownSignal};
//! use hydra_workload::retail_client_fixture;
//! use std::sync::Arc;
//!
//! // Vendor site: a frame listener over an in-memory registry on an
//! // ephemeral port, its reactor recording into the session's metrics.
//! let session = Hydra::builder().build();
//! let registry = Arc::new(SummaryRegistry::in_memory(session.clone()));
//! let signal = ShutdownSignal::new();
//! let mut builder = ReactorBuilder::new(session.metrics());
//! let addr = builder
//!     .listen("127.0.0.1:0", Arc::new(FrameProtocol::new(registry, signal.clone())))
//!     .unwrap();
//! let server = builder.start(signal).unwrap();
//!
//! // Client site: profile a warehouse, publish the package, stream a shard.
//! let (db, queries) = retail_client_fixture(400, 120, 4);
//! let package = session.profile(db, &queries).unwrap();
//! let mut client = HydraClient::connect(addr).unwrap();
//! let info = client.publish("retail", &package).unwrap();
//! assert_eq!(info.version, 1);
//! let (rows, _) = client
//!     .stream_collect(StreamRequest::full("retail", "store_sales").range(100, 200))
//!     .unwrap();
//! assert_eq!(rows.len(), 100);
//! client.shutdown().unwrap();
//! server.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod metrics_http;
pub mod protocol;
pub mod pump;
pub mod registry;
pub mod wire;

pub use client::HydraClient;
pub use error::{ServiceError, ServiceResult};
pub use frame::FrameProtocol;
pub use hydra_reactor::{ReactorBuilder, ReactorConfig, ReactorHandle, ShutdownSignal};
pub use metrics_http::MetricsProtocol;
pub use protocol::{
    DeltaPublished, MetricSample, QueryRequest, Request, Response, ScenarioSpec, StreamRequest,
};
pub use registry::{RegistryEntry, SummaryRegistry};
pub use wire::FrameSink;
