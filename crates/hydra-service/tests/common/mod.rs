//! The frame listener the service integration tests run against.

use hydra_service::{
    FrameProtocol, ReactorBuilder, ReactorHandle, ShutdownSignal, SummaryRegistry,
};
use std::net::SocketAddr;
use std::sync::Arc;

/// Starts a frame listener over `registry` on an ephemeral port, on its own
/// reactor recording into the registry's session metrics.  Dropping the
/// handle stops it.
pub fn serve(registry: impl Into<Arc<SummaryRegistry>>) -> (ReactorHandle, SocketAddr) {
    let registry = registry.into();
    let signal = ShutdownSignal::new();
    let mut builder = ReactorBuilder::new(registry.session().metrics());
    let addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone())),
        )
        .expect("bind frame listener");
    (builder.start(signal).expect("start reactor"), addr)
}
