//! The regeneration server.
//!
//! A thin configuration layer over [`hydra-reactor`](hydra_reactor):
//! [`serve`] binds a listener on a shared epoll event loop, frames are
//! decoded incrementally on the loop by [`crate::frame::FrameProtocol`],
//! bounded requests (summary-direct queries, `Describe`, `List`) are
//! answered right there, and the rest execute as cooperative tasks on a
//! **fixed** worker pool — ten thousand idle or slow clients cost ten
//! thousand fds, never ten thousand threads.  Tuple streams run the exact in-process generation path in
//! bounded slices, paced by a per-connection `VelocityGovernor` through the
//! reactor's timer wheel and backpressured by each connection's bounded
//! write queue.

use crate::error::ServiceResult;
use crate::frame::FrameProtocol;
use crate::registry::SummaryRegistry;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

pub use hydra_reactor::{ReactorBuilder, ReactorConfig, ReactorHandle, ShutdownSignal};

/// A regeneration server bound to a socket on a shared reactor event loop.
/// Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    signal: ShutdownSignal,
    reactor: Option<ReactorHandle>,
    registry: Arc<SummaryRegistry>,
}

/// Starts a server over `registry` on `addr` (use port 0 for an ephemeral
/// port; the bound address is available from [`ServerHandle::local_addr`]).
pub fn serve(registry: SummaryRegistry, addr: impl ToSocketAddrs) -> ServiceResult<ServerHandle> {
    serve_shared(Arc::new(registry), addr)
}

/// [`serve`] over an already-shared registry (lets the host keep a handle
/// for direct in-process access alongside the network surface).
pub fn serve_shared(
    registry: Arc<SummaryRegistry>,
    addr: impl ToSocketAddrs,
) -> ServiceResult<ServerHandle> {
    serve_with_signal(registry, addr, ShutdownSignal::new())
}

/// [`serve_shared`] under a caller-supplied [`ShutdownSignal`], so several
/// protocol front-ends (this frame server, a pgwire server) stop together:
/// a `Shutdown` frame received here triggers the shared signal, and an
/// external trigger stops this listener.
pub fn serve_with_signal(
    registry: Arc<SummaryRegistry>,
    addr: impl ToSocketAddrs,
    signal: ShutdownSignal,
) -> ServiceResult<ServerHandle> {
    serve_with_options(registry, addr, signal, ReactorConfig::default())
}

/// [`serve_with_signal`] with explicit reactor tuning (worker count,
/// connection ceiling, write-queue cap, stall deadline).  The reactor
/// records into the registry's session metrics, next to the request
/// counters.
pub fn serve_with_options(
    registry: Arc<SummaryRegistry>,
    addr: impl ToSocketAddrs,
    signal: ShutdownSignal,
    config: ReactorConfig,
) -> ServiceResult<ServerHandle> {
    let mut builder = ReactorBuilder::new(registry.session().metrics()).config(config);
    let protocol = Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone()));
    let local_addr = builder.listen(addr, protocol)?;
    let reactor = builder.start(signal.clone())?;
    Ok(ServerHandle {
        local_addr,
        signal,
        reactor: Some(reactor),
        registry,
    })
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry behind the server (for in-process publishing alongside
    /// the network surface — e.g. seeding a demo dataset).
    pub fn registry(&self) -> &Arc<SummaryRegistry> {
        &self.registry
    }

    /// The shutdown signal shared by this server's event loop.  Clone it
    /// into other protocol front-ends (e.g. a pgwire listener) so a
    /// `Shutdown` frame — or a programmatic shutdown of either side — stops
    /// every listener together.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// True once a shutdown was requested (programmatically or by a client's
    /// `Shutdown` frame).
    pub fn is_shutting_down(&self) -> bool {
        self.signal.is_triggered()
    }

    /// Blocks until the server stops (a client sent `Shutdown`, or
    /// [`ServerHandle::shutdown`] was called from another thread), then
    /// drains in-flight connections.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
    }

    /// Requests a shutdown and blocks until the event loop has exited and
    /// in-flight connections have drained.  Every other listener sharing
    /// this server's [`ShutdownSignal`] is stopped too.
    pub fn shutdown(mut self) {
        self.signal.trigger();
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.signal.trigger();
        // Dropping the reactor handle joins the event loop.
        self.reactor.take();
    }
}
