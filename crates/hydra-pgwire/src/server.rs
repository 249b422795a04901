//! The pgwire listener — the PostgreSQL face of a running registry.
//!
//! A thin configuration layer over [`hydra-reactor`](hydra_reactor),
//! structurally a twin of `hydra-service`'s frame server: [`serve_pg`]
//! binds a listener on a shared epoll event loop, v3 messages are decoded
//! incrementally on the loop by [`crate::reactor::PgProtocol`], bounded
//! statements are answered right there, and scans and scan fallbacks
//! execute as cooperative tasks on a **fixed** worker pool.  Both
//! front-ends are meant to run under one shared [`ShutdownSignal`], so a
//! `Shutdown` frame on the service port (or a programmatic shutdown of
//! either handle) stops this listener too — no orphaned accept loops.

use crate::error::PgResult;
use crate::reactor::PgProtocol;
use hydra_reactor::{ReactorBuilder, ReactorConfig, ReactorHandle};
use hydra_service::registry::SummaryRegistry;
use hydra_service::ShutdownSignal;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// A pgwire server bound to a socket on a shared reactor event loop.
/// Dropping the handle triggers the shared shutdown signal (stopping every
/// co-registered listener) and drains connections.
#[derive(Debug)]
pub struct PgServerHandle {
    local_addr: SocketAddr,
    signal: ShutdownSignal,
    reactor: Option<ReactorHandle>,
}

/// Starts a PostgreSQL wire-protocol listener over `registry` on `addr`
/// (port 0 for ephemeral), stopping when `signal` triggers.
///
/// Pass the [`ShutdownSignal`](hydra_service::ServerHandle::shutdown_signal)
/// of an existing frame server to couple the two listeners' lifetimes, or a
/// fresh signal for a pg-only server.
pub fn serve_pg(
    registry: Arc<SummaryRegistry>,
    addr: impl ToSocketAddrs,
    signal: ShutdownSignal,
) -> PgResult<PgServerHandle> {
    serve_pg_with_options(registry, addr, signal, ReactorConfig::default())
}

/// [`serve_pg`] with explicit reactor tuning (worker count, connection
/// ceiling, write-queue cap, stall deadline).  The reactor records into the
/// registry's session metrics, next to the statement counters.
pub fn serve_pg_with_options(
    registry: Arc<SummaryRegistry>,
    addr: impl ToSocketAddrs,
    signal: ShutdownSignal,
    config: ReactorConfig,
) -> PgResult<PgServerHandle> {
    let mut builder = ReactorBuilder::new(registry.session().metrics()).config(config);
    let protocol = Arc::new(PgProtocol::new(registry));
    let local_addr = builder.listen(addr, protocol)?;
    let reactor = builder.start(signal.clone())?;
    Ok(PgServerHandle {
        local_addr,
        signal,
        reactor: Some(reactor),
    })
}

impl PgServerHandle {
    /// The address the pg listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shutdown signal this listener's event loop runs under.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// True once a shutdown was requested anywhere on the shared signal.
    pub fn is_shutting_down(&self) -> bool {
        self.signal.is_triggered()
    }

    /// Blocks until the shared signal stops the event loop, then drains
    /// in-flight connections.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
    }

    /// Triggers the shared signal (stopping every co-registered listener)
    /// and blocks until the event loop has exited.
    pub fn shutdown(mut self) {
        self.signal.trigger();
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
    }
}

impl Drop for PgServerHandle {
    fn drop(&mut self) {
        self.signal.trigger();
        // Dropping the reactor handle joins the event loop.
        self.reactor.take();
    }
}
