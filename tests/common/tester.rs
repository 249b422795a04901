//! The one server harness of the root tests: a Hydra-backed "postgres" on
//! ephemeral ports.
//!
//! A [`HydraTester`] owns an in-memory [`SummaryRegistry`] and one reactor
//! hosting a frame listener and a pg listener over it under one
//! [`ShutdownSignal`], exactly like `hydra-serve`; the reactor records into
//! the session's metrics, so [`HydraTester::obs`] sees both protocols'
//! traffic.  Dropping the tester stops both listeners, and when the owning
//! test panics it first prints the registry and metrics so the failing
//! state shows in the test output.
//!
//! Include it with `#[path = "common/tester.rs"] mod tester;`.  Each test
//! binary compiles its own copy and calls a subset of it, hence the
//! `dead_code` allowance.
#![allow(dead_code)]

use hydra::obs::MetricsRegistry;
use hydra::pgwire::{PgClient, PgProtocol};
use hydra::service::registry::RegistryEntry;
use hydra::service::{FrameProtocol, HydraClient, ReactorBuilder, ReactorHandle};
use hydra::workload::{retail_client_fixture, supplier_client_fixture};
use hydra::{Hydra, ShutdownSignal, SummaryRegistry, TransferPackage};
use std::net::SocketAddr;
use std::sync::Arc;

/// Tuple counts of the seeded retail fixture: big enough for a multi-block
/// summary with real joins, small enough for unit-test latency.
const RETAIL_STORE_SALES: u64 = 400;
const RETAIL_WEB_SALES: u64 = 120;
const RETAIL_QUERIES: usize = 4;

/// Frame and pg listeners on one reactor over one registry.
pub struct HydraTester {
    session: Hydra,
    registry: Arc<SummaryRegistry>,
    frame_addr: SocketAddr,
    pg_addr: SocketAddr,
    reactor: ReactorHandle,
}

impl HydraTester {
    /// An empty tester over a default session.
    pub fn new() -> Self {
        Self::with_session(Hydra::builder().build())
    }

    /// An empty tester over a caller-configured session.
    pub fn with_session(session: Hydra) -> Self {
        let registry = Arc::new(SummaryRegistry::in_memory(session.clone()));
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
        let reactor = builder.start(signal).expect("start shared reactor");
        HydraTester {
            session,
            registry,
            frame_addr,
            pg_addr,
            reactor,
        }
    }

    /// A tester with the retail fixture profiled and published as `retail`.
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

    /// Solves `package` server-side and publishes it under `name`.
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

    /// The session's metrics, shared by the reactor and both protocols.
    pub fn obs(&self) -> Arc<MetricsRegistry> {
        self.session.metrics()
    }

    /// A connected frame-protocol client.
    pub fn client(&self) -> HydraClient {
        HydraClient::connect(self.frame_addr).expect("connect frame client")
    }

    /// A connected pg client; `database` picks the registry entry
    /// (`name[@version]`), `None` binds to the sole entry.
    pub fn pg(&self, database: Option<&str>) -> PgClient {
        PgClient::connect(self.pg_addr, database).expect("connect pg client")
    }

    /// The signal both listeners stop on.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.reactor.shutdown_signal()
    }
}

impl Drop for HydraTester {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("tester registry snapshot at panic:");
            for entry in self.registry.list() {
                eprintln!("  {:?}", entry.info());
            }
            eprintln!("tester metrics snapshot at panic:");
            for line in self.obs().snapshot().render_prometheus().lines() {
                if !line.starts_with('#') {
                    eprintln!("  {line}");
                }
            }
        }
        // Dropping `reactor` afterwards triggers the signal and joins the
        // event loop serving both listeners.
    }
}
