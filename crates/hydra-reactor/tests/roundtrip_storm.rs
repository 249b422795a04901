//! Regression storm for the request/response fast path: one connection,
//! one reactor, hundreds of thousands of strictly alternating
//! request/response round trips.
//!
//! Every round trip crosses the full reactor machinery — readable event,
//! incremental parse, worker-pool submit, response enqueue from the worker
//! thread, dirty-list wake, flush — so a race anywhere in the
//! wake/dirty/completion handshake eventually shows up here as a hang.
//! The connection torture suite exercises breadth (many connections);
//! this test exercises depth on a single connection, which is exactly the
//! access pattern of a latency benchmark probe.

use hydra_obs::MetricsRegistry;
use hydra_reactor::{
    ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, ReactorBuilder, ReactorConfig,
    ShutdownSignal, TaskPoll,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Newline-delimited echo: each complete line becomes a worker-pool task
/// that pushes the line back.  The smallest possible protocol that still
/// routes every message through the pool and the write queue.
struct EchoProtocol;

struct EchoHandler;

struct EchoTask {
    line: Vec<u8>,
}

impl Protocol for EchoProtocol {
    fn connect(&self) -> Box<dyn ConnHandler> {
        Box::new(EchoHandler)
    }
}

impl ConnHandler for EchoHandler {
    fn on_bytes(&mut self, buf: &[u8], _out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (
                pos + 1,
                HandlerOutcome::Task(Box::new(EchoTask {
                    line: buf[..=pos].to_vec(),
                })),
            ),
            None => (0, HandlerOutcome::Continue),
        }
    }
}

impl ConnTask for EchoTask {
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
        conn.push(std::mem::take(&mut self.line));
        TaskPoll::Done
    }
}

fn read_exact_or_panic(stream: &mut TcpStream, buf: &mut [u8], iteration: usize) {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => panic!("server closed the connection at iteration {iteration}"),
            Ok(n) => filled += n,
            Err(e) => panic!(
                "round trip stalled at iteration {iteration}: {e} \
                 (likely a lost wake/completion in the reactor)"
            ),
        }
    }
}

#[test]
fn single_connection_roundtrip_storm() {
    let iterations: usize = std::env::var("HYDRA_STORM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) {
            20_000
        } else {
            100_000
        });

    let signal = ShutdownSignal::new();
    let metrics = MetricsRegistry::new();
    let mut builder = ReactorBuilder::new(Arc::clone(&metrics)).config(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let addr = builder
        .listen("127.0.0.1:0", Arc::new(EchoProtocol))
        .expect("bind echo listener");
    let reactor = builder.start(signal.clone()).expect("start reactor");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let request = b"ping-0123456789\n";
    let mut response = [0u8; 16];
    for i in 0..iterations {
        stream.write_all(request).expect("write request");
        read_exact_or_panic(&mut stream, &mut response, i);
        assert_eq!(&response, request, "echo mismatch at iteration {i}");
    }
    drop(stream);

    assert_eq!(
        metrics.counter("hydra_reactor_pool_submits_total").value(),
        iterations as u64
    );
    // The client unblocks on the flushed response, which can beat the
    // reactor's processing of the final completion by one loop iteration.
    let inflight = metrics.gauge("hydra_reactor_tasks_inflight");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while inflight.value() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "final completion never settled: {} tasks in flight",
            inflight.value()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    reactor.shutdown();
}
