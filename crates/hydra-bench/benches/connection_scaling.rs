//! Experiment E12 — connection scaling of the reactor core (ISSUE 7's
//! headline numbers).
//!
//! Three measurements against one reactor server:
//!
//! * **accepted-connection ceiling** — idle connections opened (and each
//!   verified served) until the first failure or the attempt cap; asserted
//!   to reach the cap;
//! * **frame latency under load** — p50/p99 of a probe client's `List`
//!   round-trip while N idle connections sit open and M clients stream
//!   throttled tuple ranges;
//! * **concurrent streaming fan-out** — 1 000 simultaneous throttled
//!   streams served on a 2-thread worker pool; the fixed-pool argument is
//!   asserted outright: the process's peak thread count stays within the
//!   configured workers plus a small constant of its baseline.
//!
//! The CI smoke variant of this experiment lives in
//! `tests/connection_torture.rs` (`reactor_accepts_256_concurrent_
//! connections_on_one_worker`) so the scaling claim is asserted on every
//! push, not only when benches run.

use criterion::{criterion_group, criterion_main, Criterion};
use hydra_bench::{retail_package, BenchReport};
use hydra_core::session::Hydra;
use hydra_service::protocol::{read_frame, write_frame, Request, Response, StreamRequest};
use hydra_service::registry::SummaryRegistry;
use hydra_service::server::{serve_with_options, ReactorConfig, ShutdownSignal};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle connections held open during the latency probe.
const IDLE_CONNS: usize = 512;
/// Concurrent streaming clients during the latency probe.
const STREAMING_CLIENTS: usize = 16;
/// Probe round-trips for the p50/p99 estimate.
const PROBE_REQUESTS: usize = 200;
/// Attempt cap for the connection-ceiling sweep.
const CEILING_ATTEMPTS: usize = 2_048;
/// Concurrent throttled streams in the fan-out experiment.
const FANOUT_STREAMS: usize = 1_000;
/// Worker-pool size of the reactor under test.
const WORKERS: usize = 2;
/// Threads the fan-out may cost beyond the workers: the event loop and the
/// bench's own thread-count watcher.
const THREAD_SLACK: usize = 2;
/// Reactor `List` p99 measured at the PR 7 baseline (µs), before the
/// observability instrumentation landed.  The metrics record path must not
/// measurably regress request latency: the bench asserts p99 stays within
/// 2× this figure (override the budget with `HYDRA_BENCH_P99_BUDGET_US`
/// on a noisy host).
const PR7_BASELINE_LIST_P99_US: f64 = 115.0;

fn boot_registry() -> Arc<SummaryRegistry> {
    let session = Hydra::builder().compare_aqps(false).build();
    let registry = SummaryRegistry::in_memory(session);
    registry
        .publish("retail", retail_package(8, 2_000))
        .expect("publish retail package");
    Arc::new(registry)
}

fn list_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Request::List).expect("encode List");
    bytes
}

/// One full `List` round-trip on an existing connection.
fn list_round_trip(stream: &mut TcpStream, request: &[u8]) -> bool {
    if stream.write_all(request).is_err() {
        return false;
    }
    matches!(
        read_frame::<_, Response>(stream),
        Ok(Some(Response::SummaryList(_)))
    )
}

/// Opens connections until one fails to be served, up to `attempts`.
fn connection_ceiling(addr: SocketAddr, attempts: usize) -> usize {
    let request = list_bytes();
    let mut held = Vec::new();
    for _ in 0..attempts {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            break;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        if !list_round_trip(&mut stream, &request) {
            break;
        }
        held.push(stream);
    }
    held.len()
}

/// Samples the process thread count every 10 ms until stopped, tracking
/// the peak (a thread-per-connection cost would show here).
fn spawn_thread_watcher(stop: Arc<AtomicBool>) -> std::thread::JoinHandle<usize> {
    std::thread::spawn(move || {
        let mut peak = 0;
        while !stop.load(Ordering::Relaxed) {
            peak = peak.max(thread_count());
            std::thread::sleep(Duration::from_millis(10));
        }
        peak
    })
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn percentile(sorted_micros: &[u128], p: f64) -> u128 {
    let index = ((sorted_micros.len() as f64 - 1.0) * p).round() as usize;
    sorted_micros[index]
}

/// p50/p99 of `List` round-trips while idle connections sit open and
/// streaming clients pull throttled ranges.
fn latency_under_load(addr: SocketAddr) -> (u128, u128) {
    let request = list_bytes();
    let _idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let streamers: Vec<_> = (0..STREAMING_CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream_req = Vec::new();
                write_frame(
                    &mut stream_req,
                    &Request::Stream(
                        StreamRequest::full("retail", "store_sales")
                            .range(0, 500)
                            .rows_per_sec(2_000.0),
                    ),
                )
                .expect("encode stream");
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut conn) = TcpStream::connect(addr) else {
                        continue;
                    };
                    conn.write_all(&stream_req).expect("stream request");
                    // Drain header + batches + end.
                    while let Ok(Some(response)) = read_frame::<_, Response>(&mut conn) {
                        if matches!(response, Response::StreamEnd(_) | Response::Error { .. }) {
                            break;
                        }
                    }
                }
            })
        })
        .collect();

    let mut probe = TcpStream::connect(addr).expect("probe connect");
    probe.set_nodelay(true).ok();
    let mut micros: Vec<u128> = (0..PROBE_REQUESTS)
        .map(|_| {
            let started = Instant::now();
            assert!(list_round_trip(&mut probe, &request), "probe failed");
            started.elapsed().as_micros()
        })
        .collect();
    stop.store(true, Ordering::Relaxed);
    for streamer in streamers {
        streamer.join().expect("streamer");
    }
    micros.sort_unstable();
    (percentile(&micros, 0.50), percentile(&micros, 0.99))
}

/// Fires `FANOUT_STREAMS` simultaneous throttled streams and drains them
/// all; returns (wall clock, completed streams, peak process threads).
fn streaming_fanout(addr: SocketAddr, streams: usize) -> (Duration, usize, usize) {
    let mut request = Vec::new();
    write_frame(
        &mut request,
        &Request::Stream(
            StreamRequest::full("retail", "web_sales")
                .range(0, 100)
                .batch_rows(25)
                .rows_per_sec(50.0),
        ),
    )
    .expect("encode stream");

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = spawn_thread_watcher(Arc::clone(&stop));
    let started = Instant::now();
    let mut conns = Vec::with_capacity(streams);
    for _ in 0..streams {
        let Ok(mut conn) = TcpStream::connect(addr) else {
            break;
        };
        if conn.write_all(&request).is_err() {
            break;
        }
        conns.push(conn);
    }
    // Every stream is paced server-side; drain them all and count the ones
    // that delivered the full range.
    let completed = AtomicUsize::new(0);
    for mut conn in conns {
        conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let mut rows = 0usize;
        loop {
            match read_frame::<_, Response>(&mut conn) {
                Ok(Some(Response::Batch { rows: batch })) => rows += batch.len(),
                Ok(Some(Response::StreamEnd(_))) => {
                    if rows == 100 {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let peak_threads = watcher.join().expect("thread watcher");
    (elapsed, completed.into_inner(), peak_threads)
}

fn bench_connection_scaling(c: &mut Criterion) {
    let registry = boot_registry();

    println!("[E12] connection scaling: reactor ({WORKERS} workers)");
    let base_threads = thread_count();

    let reactor = serve_with_options(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ShutdownSignal::new(),
        ReactorConfig {
            workers: WORKERS,
            max_connections: 16_384,
            ..ReactorConfig::default()
        },
    )
    .expect("reactor server");
    let ceiling = connection_ceiling(reactor.local_addr(), CEILING_ATTEMPTS);
    let (p50, p99) = latency_under_load(reactor.local_addr());
    let (wall, completed, peak) = streaming_fanout(reactor.local_addr(), FANOUT_STREAMS);
    println!(
        "[E12]   reactor : ceiling {ceiling}/{CEILING_ATTEMPTS} conns · \
         List p50 {p50} µs p99 {p99} µs ({IDLE_CONNS} idle + {STREAMING_CLIENTS} streaming) · \
         {completed}/{FANOUT_STREAMS} streams in {wall:.2?} at {peak} threads \
         (baseline {base_threads})"
    );
    let metrics = registry.session().metrics();
    println!(
        "[E12]   reactor : accepted {} total, peak write-queue {} bytes",
        metrics.counter("hydra_reactor_accepts_total").value(),
        metrics
            .gauge("hydra_reactor_write_queue_peak_bytes")
            .value()
    );
    assert_eq!(
        ceiling, CEILING_ATTEMPTS,
        "reactor stopped serving new connections below the attempt cap"
    );
    assert!(
        completed >= FANOUT_STREAMS * 99 / 100,
        "reactor dropped streams: {completed}/{FANOUT_STREAMS}"
    );
    // The fixed-pool argument: a thousand concurrent streams cost the
    // configured workers, not a thread each.
    assert!(
        peak <= base_threads + WORKERS + THREAD_SLACK,
        "{FANOUT_STREAMS} streams grew the process to {peak} threads \
         (baseline {base_threads} + {WORKERS} workers + {THREAD_SLACK})"
    );
    let p99_budget_us = std::env::var("HYDRA_BENCH_P99_BUDGET_US")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0 * PR7_BASELINE_LIST_P99_US);
    assert!(
        (p99 as f64) <= p99_budget_us,
        "instrumented List p99 {p99} µs blew the {p99_budget_us} µs budget \
         (2× the PR 7 baseline of {PR7_BASELINE_LIST_P99_US} µs)"
    );
    reactor.shutdown();

    // A timed micro-benchmark for trend tracking: one List round-trip
    // against an otherwise idle reactor.
    let reactor = serve_with_options(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ShutdownSignal::new(),
        ReactorConfig::default(),
    )
    .expect("idle reactor");
    let request = list_bytes();
    let mut probe = TcpStream::connect(reactor.local_addr()).expect("probe");
    probe.set_nodelay(true).ok();
    c.bench_function("connection_scaling/list_round_trip_reactor", |b| {
        b.iter(|| assert!(list_round_trip(&mut probe, &request)));
    });
    drop(probe);
    reactor.shutdown();

    BenchReport::new("connection_scaling")
        .metric("reactor_ceiling_conns", ceiling as f64)
        .metric("reactor_list_p50_us", p50 as f64)
        .metric("reactor_list_p99_us", p99 as f64)
        .metric("reactor_fanout_streams_completed", completed as f64)
        .metric("reactor_fanout_wall_s", wall.as_secs_f64())
        .metric("reactor_fanout_peak_threads", peak as f64)
        .metric("list_p99_budget_us", p99_budget_us)
        .write();
}

criterion_group!(benches, bench_connection_scaling);
criterion_main!(benches);
