//! The helpers the service integration tests share: the frame listener
//! they run against, and the legacy snapshot files the durable registry
//! still boots from.

// Each test binary calls a subset.
#![allow(dead_code)]

use hydra_service::{
    FrameProtocol, ReactorBuilder, ReactorHandle, ShutdownSignal, SummaryRegistry,
};
use std::net::SocketAddr;
use std::path::Path;
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

/// Writes `payload` at `path` as a legacy snapshot file, the form registries
/// checkpointed into before sealed WAL segments: the payload, then a footer
/// of its CRC32 (`u32` LE), its length (`u64` LE) and the magic `HYSNAP01`.
/// Nothing writes these any more; boot still reads them.
pub fn write_legacy_snapshot(path: &Path, payload: &[u8]) {
    let mut bytes = payload.to_vec();
    bytes.extend_from_slice(&hydra_wal::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(b"HYSNAP01");
    std::fs::write(path, bytes).expect("write legacy snapshot");
}
