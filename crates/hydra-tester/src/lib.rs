//! # hydra-tester
//!
//! One-line Hydra-backed "postgres" for downstream tests — the
//! kassandra-tester pattern applied to this workspace: every test boots its
//! own server pair on **ephemeral ports**, gets a typed handle to both
//! protocol surfaces, and a **registry snapshot** is dumped when a test
//! panics so the failing state is visible in the test output.
//!
//! One [`HydraTester`] owns:
//!
//! * a shared in-memory [`SummaryRegistry`] (publish once, query from both
//!   protocols);
//! * a frame-protocol listener ([`HydraClient`] side);
//! * a PostgreSQL wire-protocol listener ([`PgClient`] side);
//! * one reactor event loop hosting both listeners under one
//!   [`ShutdownSignal`], so dropping the tester tears the whole double
//!   down (and [`HydraTester::obs`] sees both protocols' traffic).
//!
//! ```
//! use hydra_tester::HydraTester;
//!
//! // The one-liner: a Hydra-backed "postgres" seeded with the retail fixture.
//! let tester = HydraTester::retail();
//! let mut pg = tester.pg(None);
//! let count = pg.query("select count(*) from store_sales").unwrap();
//! assert_eq!(count.rows.len(), 1);
//! ```

#![warn(missing_docs)]

use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_obs::MetricsRegistry;
use hydra_pgwire::{PgClient, PgProtocol};
use hydra_service::protocol::SummaryInfo;
use hydra_service::registry::{RegistryEntry, SummaryRegistry};
use hydra_service::server::{ReactorBuilder, ReactorHandle};
use hydra_service::{FrameProtocol, HydraClient, ShutdownSignal};
use hydra_workload::{retail_client_fixture, supplier_client_fixture};
use std::net::SocketAddr;
use std::sync::Arc;

/// Default tuple counts for the seeded retail fixture: big enough for a
/// multi-block summary with real joins, small enough for unit-test latency.
const RETAIL_STORE_SALES: u64 = 400;
const RETAIL_WEB_SALES: u64 = 120;
const RETAIL_QUERIES: usize = 4;

/// An ephemeral, fully wired Hydra test double: frame + pg listeners on
/// **one shared reactor event loop** over one registry, torn down (and
/// snapshotted on panic) when dropped.
#[derive(Debug)]
pub struct HydraTester {
    session: Hydra,
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    frame_addr: SocketAddr,
    pg_addr: SocketAddr,
    reactor: Option<ReactorHandle>,
}

impl Default for HydraTester {
    fn default() -> Self {
        Self::new()
    }
}

impl HydraTester {
    /// Boots an empty tester (no summaries published) over a default
    /// session.
    pub fn new() -> Self {
        Self::with_session(Hydra::builder().build())
    }

    /// Boots a tester over a caller-configured session (velocity caps,
    /// parallelism, alignment…).  Both protocol listeners share one
    /// reactor event loop, exactly like a production `hydra-serve`.
    pub fn with_session(session: Hydra) -> Self {
        Self::with_registry(SummaryRegistry::in_memory(session.clone()), session)
    }

    /// Boots a tester over a **durable** (WAL + snapshot) registry rooted
    /// at `wal_dir`, checkpointing every `checkpoint_every` records — the
    /// recovery path under test: reboot by building a second tester over
    /// the same directory.
    pub fn durable(
        session: Hydra,
        wal_dir: impl Into<std::path::PathBuf>,
        checkpoint_every: usize,
    ) -> Self {
        let registry = SummaryRegistry::durable(session.clone(), wal_dir, checkpoint_every)
            .expect("open durable registry");
        Self::with_registry(registry, session)
    }

    fn with_registry(registry: SummaryRegistry, session: Hydra) -> Self {
        let registry = Arc::new(registry);
        let signal = ShutdownSignal::new();
        let mut builder = ReactorBuilder::new(session.metrics());
        let frame_addr = builder
            .listen(
                "127.0.0.1:0",
                Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone())),
            )
            .expect("bind ephemeral frame listener");
        let pg_addr = builder
            .listen(
                "127.0.0.1:0",
                Arc::new(PgProtocol::new(Arc::clone(&registry))),
            )
            .expect("bind ephemeral pg listener");
        let reactor = builder.start(signal.clone()).expect("start shared reactor");
        HydraTester {
            session,
            registry,
            signal,
            frame_addr,
            pg_addr,
            reactor: Some(reactor),
        }
    }

    /// The one-liner: a tester with the retail fixture profiled and
    /// published as `retail`.
    pub fn retail() -> Self {
        let tester = Self::new();
        tester.publish_retail("retail");
        tester
    }

    /// Profiles the synthetic retail workload and publishes it as `name`.
    pub fn publish_retail(&self, name: &str) -> Arc<RegistryEntry> {
        let (db, queries) =
            retail_client_fixture(RETAIL_STORE_SALES, RETAIL_WEB_SALES, RETAIL_QUERIES);
        let package = self
            .session
            .profile(db, &queries)
            .expect("profile retail fixture");
        self.publish(name, package)
    }

    /// Profiles the synthetic supplier workload and publishes it as `name`.
    pub fn publish_supplier(&self, name: &str) -> Arc<RegistryEntry> {
        let (db, queries) = supplier_client_fixture(300, 100, 3);
        let package = self
            .session
            .profile(db, &queries)
            .expect("profile supplier fixture");
        self.publish(name, package)
    }

    /// Publishes an arbitrary transfer package under `name` (solves it
    /// server-side, exactly like a wire publish).
    pub fn publish(&self, name: &str, package: TransferPackage) -> Arc<RegistryEntry> {
        self.registry
            .publish(name, package)
            .unwrap_or_else(|e| panic!("publish `{name}`: {e}"))
    }

    /// The session driving solves and pacing.
    pub fn session(&self) -> &Hydra {
        &self.session
    }

    /// The registry both listeners serve.
    pub fn registry(&self) -> &Arc<SummaryRegistry> {
        &self.registry
    }

    /// The frame-protocol listener's address.
    pub fn frame_addr(&self) -> SocketAddr {
        self.frame_addr
    }

    /// The PostgreSQL listener's address.
    pub fn pg_addr(&self) -> SocketAddr {
        self.pg_addr
    }

    /// The session's observability registry, shared by the reactor and both
    /// protocol layers — everything a production `/metrics` scrape would
    /// see, queryable in-process.
    pub fn obs(&self) -> Arc<MetricsRegistry> {
        self.session.metrics()
    }

    /// A connected frame-protocol client.
    pub fn client(&self) -> HydraClient {
        HydraClient::connect(self.frame_addr()).expect("connect frame client")
    }

    /// A connected PostgreSQL simple-query client. `database` picks the
    /// registry entry (`name[@version]`); `None` binds to the sole entry.
    pub fn pg(&self, database: Option<&str>) -> PgClient {
        PgClient::connect(self.pg_addr(), database).expect("connect pg client")
    }

    /// The shared shutdown signal (trigger it to stop both listeners, e.g.
    /// to test shutdown symmetry).
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// A point-in-time description of every published summary.
    pub fn snapshot(&self) -> Vec<SummaryInfo> {
        self.registry
            .list()
            .into_iter()
            .map(|entry| entry.info())
            .collect()
    }
}

impl Drop for HydraTester {
    fn drop(&mut self) {
        // kassandra-tester's best trick: when the owning test panics, dump
        // the registry state so the failure is debuggable from CI output.
        if std::thread::panicking() {
            eprintln!("hydra-tester registry snapshot at panic:");
            for info in self.snapshot() {
                eprintln!("  {info:?}");
            }
            eprintln!("hydra-tester metrics snapshot at panic:");
            for line in self.obs().snapshot().render_prometheus().lines() {
                if !line.starts_with('#') {
                    eprintln!("  {line}");
                }
            }
        }
        self.signal.trigger();
        // Dropping the reactor handle joins the event loop serving both
        // listeners and drains in-flight connections.
        self.reactor.take();
    }
}
