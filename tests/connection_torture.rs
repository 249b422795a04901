//! Connection torture suite for the reactor core (ISSUE 7).
//!
//! The reactor's promise is that *connections* are cheap — only fds and
//! state machines — while *work* runs on a fixed pool.  Each test attacks
//! one way a hostile or unlucky client could break that promise:
//!
//! * **slow clients** dripping requests a byte at a time must not pin a
//!   thread each, must not stall healthy peers, and must get responses
//!   byte-identical to an un-dripped session and to the in-process
//!   reference encoder;
//! * **connection churn** (drop before, during and after the handshake,
//!   and mid-stream) must leak no fds, spawn no threads, and abort
//!   server-side generation for vanished peers;
//! * a **stalled reader** must cap the server's write-queue memory at the
//!   configured bound and be evicted by the stall deadline while
//!   neighbors stream on — whether its replies come from pool tasks or are
//!   answered inline on the event loop;
//! * the reactor must hold **hundreds of concurrent connections on one
//!   worker**, and serve as many concurrent throttled streams on it
//!   without growing a thread;
//! * a **shutdown racing an accept storm** must never strand a listener
//!   (the self-pipe waker regression);
//! * an **over-cap length prefix** on either protocol must get its error
//!   reply, then the close, and be counted as a framing violation.
//!
//! Several tests count process-wide fds and threads, so the suite
//! serializes itself behind one mutex instead of relying on
//! `--test-threads=1`.

use hydra::service::protocol::{
    read_frame, write_frame, QueryRequest, Request, Response, StreamRequest,
};
use hydra::service::registry::SummaryRegistry;
use hydra::service::{
    FrameProtocol, FrameSink, HydraClient, ReactorBuilder, ReactorConfig, ReactorHandle,
    ShutdownSignal,
};
use hydra::workload::retail_client_fixture;
use hydra::Hydra;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[path = "common/tester.rs"]
mod tester;
use tester::HydraTester;

/// Serializes the fd/thread-counting tests against each other (the default
/// harness runs tests on parallel threads, which would skew the counters).
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Open fds of this process (servers under test run in-process).
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// OS threads of this process.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Polls `predicate` until it holds or `deadline` elapses.
fn eventually(deadline: Duration, what: &str, mut predicate: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !predicate() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A frame listener over `registry` on its own reactor under `config`,
/// recording into the registry's session metrics; stops on `signal`.
fn frame_reactor(
    registry: Arc<SummaryRegistry>,
    signal: ShutdownSignal,
    config: ReactorConfig,
) -> (ReactorHandle, SocketAddr) {
    let mut builder = ReactorBuilder::new(registry.session().metrics()).config(config);
    let addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(registry, signal.clone())),
        )
        .expect("bind frame listener");
    (builder.start(signal).expect("start reactor"), addr)
}

/// One request as raw wire bytes (length prefix + JSON payload).
fn frame_bytes(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, request).expect("encode request");
    bytes
}

/// Reads one raw frame (4-byte header + payload) off the socket.
fn read_frame_raw(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_be_bytes(header) as usize;
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&header);
    stream.read_exact(&mut frame[4..]).expect("frame payload");
    frame
}

/// Decodes a raw frame collected by [`read_frame_raw`].
fn parse_frame(raw: &[u8]) -> Response {
    read_frame::<_, Response>(&mut &raw[..])
        .expect("decode frame")
        .expect("non-empty frame")
}

/// Writes `bytes` to `stream`, either at once or one byte at a time with a
/// pause — the slow-client torture mode.
fn send(stream: &mut TcpStream, bytes: &[u8], drip: Option<Duration>) {
    match drip {
        None => stream.write_all(bytes).expect("send"),
        Some(pause) => {
            for byte in bytes {
                stream.write_all(std::slice::from_ref(byte)).expect("drip");
                stream.flush().expect("flush");
                std::thread::sleep(pause);
            }
        }
    }
}

/// The fixed request script every frame session must answer identically:
/// registry introspection, a summary-direct aggregate, and a batched
/// stream slice.
fn frame_script() -> Vec<(Request, usize)> {
    vec![
        (Request::List, 1),
        (
            Request::Describe {
                name: "retail".to_string(),
            },
            1,
        ),
        (
            Request::Query(QueryRequest::new(
                "retail",
                "select count(*) from store_sales",
            )),
            1,
        ),
        // 40 rows in batches of 16: StreamStart + 3 batches + StreamEnd.
        (
            Request::Stream(
                StreamRequest::full("retail", "web_sales")
                    .range(0, 40)
                    .batch_rows(16),
            ),
            5,
        ),
    ]
}

/// Runs [`frame_script`] against a frame server, returning every response
/// frame raw.  `drip` selects the slow-client mode.
fn run_frame_script(addr: SocketAddr, drip: Option<Duration>) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut frames = Vec::new();
    for (request, responses) in frame_script() {
        send(&mut stream, &frame_bytes(&request), drip);
        for _ in 0..responses {
            frames.push(read_frame_raw(&mut stream));
        }
    }
    frames
}

/// PostgreSQL startup packet for `database`.
fn pg_startup_bytes(database: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&196_608u32.to_be_bytes()); // protocol 3.0
    for (key, value) in [("user", "torture"), ("database", database)] {
        payload.extend_from_slice(key.as_bytes());
        payload.push(0);
        payload.extend_from_slice(value.as_bytes());
        payload.push(0);
    }
    payload.push(0);
    let mut packet = ((payload.len() + 4) as u32).to_be_bytes().to_vec();
    packet.extend_from_slice(&payload);
    packet
}

/// PostgreSQL simple-query message.
fn pg_query_bytes(sql: &str) -> Vec<u8> {
    let mut packet = vec![b'Q'];
    packet.extend_from_slice(&((sql.len() + 1 + 4) as u32).to_be_bytes());
    packet.extend_from_slice(sql.as_bytes());
    packet.push(0);
    packet
}

/// Reads backend messages until (and including) `ReadyForQuery`, returning
/// the raw bytes.
fn pg_read_until_ready(stream: &mut TcpStream) -> Vec<u8> {
    let mut collected = Vec::new();
    loop {
        let mut head = [0u8; 5];
        stream.read_exact(&mut head).expect("pg message head");
        let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
        let mut payload = vec![0u8; len - 4];
        stream.read_exact(&mut payload).expect("pg message payload");
        collected.extend_from_slice(&head);
        collected.extend_from_slice(&payload);
        if head[0] == b'Z' {
            return collected;
        }
    }
}

/// Runs a fixed pg session (handshake, aggregate, scan, multi-statement,
/// error recovery) and returns all backend bytes.
fn run_pg_script(addr: SocketAddr, drip: Option<Duration>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect pg");
    stream.set_nodelay(true).ok();
    let mut collected = Vec::new();
    send(&mut stream, &pg_startup_bytes("retail"), drip);
    collected.extend_from_slice(&pg_read_until_ready(&mut stream));
    for sql in [
        "select count(*) from store_sales",
        "select * from web_sales",
        "begin; select 1; commit",
        "select definitely not sql",
    ] {
        send(&mut stream, &pg_query_bytes(sql), drip);
        collected.extend_from_slice(&pg_read_until_ready(&mut stream));
    }
    send(&mut stream, &[b'X', 0, 0, 0, 4], None); // Terminate
    collected
}

/// The `Stream` leg of [`frame_script`] through the in-process reference
/// encoder: the `StreamStart` header and every `Batch` frame (the trailer
/// carries wall-clock timings and is the server's own), each raw.
fn reference_stream_frames(registry: &SummaryRegistry) -> Vec<Vec<u8>> {
    let entry = registry.resolve("retail").expect("retail entry");
    let mut bytes = Vec::new();
    let mut sink = FrameSink::new(&mut bytes, 16, (0, 40));
    entry
        .generator()
        .stream_range_into("web_sales", 0..40, &mut sink, None)
        .expect("in-process stream");
    assert!(sink.into_error().is_none());
    let mut frames = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let (frame, tail) = rest.split_at(4 + len);
        frames.push(frame.to_vec());
        rest = tail;
    }
    frames
}

/// Satellite 1 — slow clients: byte-dripped requests on both protocols,
/// interleaved with a healthy peer, must cost no threads, must not stall
/// the healthy peer, and must produce responses byte-identical to an
/// un-dripped session — whose stream frames are in turn byte-identical to
/// `FrameSink` driven in-process.
#[test]
fn slow_clients_match_reference_transcripts_without_thread_growth() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let frame_addr = tester.frame_addr();
    let pg_addr = tester.pg_addr();

    // Reference transcripts: the same scripts, un-dripped and alone.
    let reference_frames = run_frame_script(frame_addr, None);
    let reference_pg = run_pg_script(pg_addr, None);
    // Script responses 3..7 are the stream's header and three batches.
    assert_eq!(
        reference_frames[3..7],
        reference_stream_frames(tester.registry())[..],
        "wire stream frames diverge from the in-process FrameSink"
    );

    // Slow clients: 3 frame + 2 pg drippers, each on a thread of ours (the
    // only threads this should cost the process).
    let threads_before = thread_count();
    let drip = Some(Duration::from_millis(1));
    let mut slow = Vec::new();
    for _ in 0..3 {
        slow.push(std::thread::spawn(move || {
            run_frame_script(frame_addr, drip)
        }));
    }
    let mut slow_pg = Vec::new();
    for _ in 0..2 {
        slow_pg.push(std::thread::spawn(move || run_pg_script(pg_addr, drip)));
    }

    // The healthy peer runs the same script at full speed, concurrently.
    let healthy_started = Instant::now();
    let healthy_frames = run_frame_script(frame_addr, None);
    let healthy_elapsed = healthy_started.elapsed();

    // No per-connection threads: everything beyond our own client threads
    // would be the reactor spawning per connection.
    assert!(
        thread_count() <= threads_before + slow.len() + slow_pg.len(),
        "reactor grew threads under slow clients"
    );
    // The healthy peer was not stalled behind the drippers (each dripper
    // takes its full drip time; the healthy script is sub-second).
    assert!(
        healthy_elapsed < Duration::from_secs(5),
        "healthy client stalled behind slow clients: {healthy_elapsed:?}"
    );

    // Byte-identical responses, dripped or not, contended or alone.  The
    // stream's closing stats frame carries wall-clock timings, so it is
    // compared structurally.
    let mut sessions = vec![healthy_frames];
    for handle in slow {
        sessions.push(handle.join().expect("slow frame client"));
    }
    for frames in &sessions {
        assert_eq!(frames.len(), reference_frames.len());
        for (got, want) in frames.iter().zip(&reference_frames).take(frames.len() - 1) {
            assert_eq!(got, want, "response bytes diverge from the reference");
        }
        match (
            parse_frame(frames.last().expect("stream end")),
            parse_frame(reference_frames.last().expect("stream end")),
        ) {
            (Response::StreamEnd(got), Response::StreamEnd(want)) => {
                assert_eq!(got.rows, want.rows);
                assert_eq!(got.target_rows_per_sec, want.target_rows_per_sec);
            }
            (got, want) => panic!("expected StreamEnd frames, got {got:?} / {want:?}"),
        }
    }
    for handle in slow_pg {
        let bytes = handle.join().expect("slow pg client");
        assert_eq!(
            bytes, reference_pg,
            "pg response bytes diverge from the reference"
        );
    }
}

/// Satellite 2 — connection churn: a thousand rapid connect/disconnect
/// cycles (pre-handshake, mid-handshake and mid-stream) leak no fds, grow
/// no threads, and abort server-side generation for vanished peers.
#[test]
fn connection_churn_leaks_no_fds_and_aborts_generation() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let frame_addr = tester.frame_addr();
    let pg_addr = tester.pg_addr();
    let obs = tester.obs();
    let inflight = obs.gauge("hydra_reactor_tasks_inflight");
    let active = obs.gauge("hydra_connections_active");
    let accepts = obs.counter("hydra_reactor_accepts_total");
    let accepts_before = accepts.value();

    // Let the freshly booted servers settle, then snapshot the baselines.
    std::thread::sleep(Duration::from_millis(50));
    let fd_base = fd_count();
    let threads_base = thread_count();

    let stream_request = frame_bytes(&Request::Stream(
        // ~100 rows/s over 400 rows: hours of work if not aborted.
        StreamRequest::full("retail", "store_sales").rows_per_sec(100.0),
    ));
    for i in 0..1_000 {
        match i % 4 {
            // Connect and vanish before saying anything.
            0 => {
                let _ = TcpStream::connect(frame_addr).expect("connect");
            }
            // Die mid-frame-header.
            1 => {
                let mut stream = TcpStream::connect(frame_addr).expect("connect");
                stream.write_all(&[0, 0]).expect("partial header");
            }
            // Die before the pg startup packet.
            2 => {
                let _ = TcpStream::connect(pg_addr).expect("connect pg");
            }
            // Die mid-startup-packet.
            _ => {
                let mut stream = TcpStream::connect(pg_addr).expect("connect pg");
                stream
                    .write_all(&pg_startup_bytes("retail")[..5])
                    .expect("partial startup");
            }
        }
        // Every 100th cycle: start a long throttled stream, read its
        // header, vanish mid-stream.
        if i % 100 == 0 {
            let mut stream = TcpStream::connect(frame_addr).expect("connect");
            stream.write_all(&stream_request).expect("stream request");
            let header = read_frame_raw(&mut stream);
            assert!(matches!(parse_frame(&header), Response::StreamStart(_)));
            drop(stream);
        }
        if i % 50 == 0 {
            assert!(
                thread_count() <= threads_base,
                "thread count grew during churn (cycle {i})"
            );
        }
    }

    // Abort-on-disconnect: the mid-stream drops above left tasks whose
    // peers are gone; they must notice and stop generating.
    eventually(Duration::from_secs(10), "in-flight tasks to abort", || {
        inflight.value() == 0
    });
    // Fd hygiene: every churned connection's fd is returned.
    eventually(Duration::from_secs(10), "connections to close", || {
        active.value() == 0
    });
    eventually(
        Duration::from_secs(10),
        "fd count to return to baseline",
        || fd_count() <= fd_base,
    );
    let accepted = accepts.value() - accepts_before;
    assert!(
        accepted >= 1_000,
        "churned connections were not accepted: {accepted}"
    );
}

/// Satellite 3 — backpressure: a reader that stops draining caps the
/// server's write-queue memory at the configured bound and is evicted by
/// the stall deadline, while a throttled stream and a summary-direct
/// query on neighbor connections proceed unaffected.
#[test]
fn stalled_reader_is_capped_and_evicted_while_neighbors_proceed() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let registry = Arc::clone(tester.registry());
    // The custom server records into the tester's session registry.
    let obs = tester.obs();
    let evictions = obs.counter("hydra_reactor_evictions_total");
    let evictions_before = evictions.value();

    const CAP: usize = 256 << 10;
    let (_server, addr) = frame_reactor(
        registry,
        ShutdownSignal::new(),
        ReactorConfig {
            workers: 2,
            write_queue_cap: CAP,
            stall_timeout: Duration::from_millis(700),
            ..ReactorConfig::default()
        },
    );

    // The stalled reader pipelines hundreds of full-table streams —
    // megabytes of demand — and never reads a byte.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let one = frame_bytes(&Request::Stream(StreamRequest::full(
        "retail",
        "store_sales",
    )));
    let demand: Vec<u8> = one.iter().copied().cycle().take(one.len() * 400).collect();
    let demand_responses = 400u64 * 40_000; // ≫ CAP: ~40 KB of rows per stream
    stalled.write_all(&demand).expect("pipeline demand");

    // Neighbors proceed while the stall builds and trips: a throttled
    // stream completes with every row, a summary-direct query answers.
    let mut client = HydraClient::connect(addr).expect("connect client");
    let (rows, _stats) = client
        .stream_collect(StreamRequest::full("retail", "web_sales").rows_per_sec(300.0))
        .expect("neighbor stream");
    assert_eq!(rows.len(), 120, "neighbor stream lost rows during stall");
    let answer = client
        .query("retail", "select count(*) from store_sales")
        .expect("neighbor query");
    assert!(!answer.rows.is_empty());

    // The stalled connection is evicted by the stall deadline...
    eventually(Duration::from_secs(10), "stalled reader eviction", || {
        evictions.value() > evictions_before
    });
    // ...with the write queue never growing past the bound (+ one
    // generation slice of overshoot), despite megabytes of demand.  The
    // tester's own reactor carries no traffic here, so the shared peak is
    // this server's.
    let peak = obs.gauge("hydra_reactor_write_queue_peak_bytes").value() as u64;
    assert!(
        peak <= (CAP + (512 << 10)) as u64,
        "write queue exceeded its bound: peak {peak} bytes"
    );
    assert!(
        peak < demand_responses,
        "bound must be far below total demand to prove backpressure"
    );

    // The stalled socket really is dead: draining it hits EOF or a reset.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = [0u8; 64 << 10];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Connection scaling: one worker thread holds hundreds of concurrent
/// connections, all answered, and then serves a throttled stream on every
/// one of them at once on the same fixed pool (no thread per connection or
/// per stream).
#[test]
fn reactor_accepts_256_concurrent_connections_on_one_worker() {
    let _guard = counters_lock();
    let session = Hydra::builder().build();
    let obs = session.metrics();
    let (db, queries) = retail_client_fixture(400, 120, 4);
    let package = session.profile(db, &queries).expect("profile retail");
    let registry = Arc::new(SummaryRegistry::in_memory(session));
    registry.publish("retail", package).expect("publish retail");
    let threads_base = thread_count();
    let (_server, addr) = frame_reactor(
        registry,
        ShutdownSignal::new(),
        ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        },
    );
    // The fixed pool: the event loop plus the one worker.
    let threads_served = thread_count();
    assert!(
        threads_served <= threads_base + 2,
        "a one-worker reactor started {} threads",
        threads_served - threads_base
    );

    let list = frame_bytes(&Request::List);
    let mut connections: Vec<TcpStream> = (0..256)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    // All 256 still open, all served by the single worker.
    for stream in &mut connections {
        stream.write_all(&list).expect("send list");
    }
    for stream in &mut connections {
        let frame = read_frame_raw(stream);
        assert!(matches!(parse_frame(&frame), Response::SummaryList(_)));
    }
    assert_eq!(obs.gauge("hydra_connections_active").value(), 256);
    assert_eq!(obs.counter("hydra_reactor_accepts_total").value(), 256);

    // Every connection now streams 100 paced rows at once: 256 concurrent
    // streams cost no thread beyond the pool, and each delivers every row.
    let stream = frame_bytes(&Request::Stream(
        StreamRequest::full("retail", "web_sales")
            .range(0, 100)
            .batch_rows(25)
            .rows_per_sec(200.0),
    ));
    for conn in &mut connections {
        conn.write_all(&stream).expect("send stream");
    }
    for conn in &mut connections {
        let mut rows = 0;
        loop {
            match parse_frame(&read_frame_raw(conn)) {
                Response::Batch { rows: batch } => rows += batch.len(),
                Response::StreamEnd(_) => break,
                Response::StreamStart(_) => {}
                other => panic!("unexpected stream response {other:?}"),
            }
            assert!(
                thread_count() <= threads_served,
                "256 concurrent streams grew the process past its fixed pool"
            );
        }
        assert_eq!(rows, 100, "a concurrent stream lost rows");
    }
}

/// Satellite 5 — the `ShutdownSignal` race: a trigger landing during an
/// accept storm (or even before the accept loop starts) must stop every
/// listener; the old wake-by-connect hack could strand one.
#[test]
fn shutdown_during_accept_storm_leaves_no_stragglers() {
    let _guard = counters_lock();
    let session = Hydra::builder().build();
    let registry = Arc::new(SummaryRegistry::in_memory(session));

    // A reactor under an accept storm, shut down at staggered offsets to
    // sweep the trigger across the accept path.
    for round in 0u64..15 {
        let signal = ShutdownSignal::new();
        let (server, addr) = frame_reactor(
            Arc::clone(&registry),
            signal.clone(),
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = TcpStream::connect(addr);
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_micros(300 * round));
        signal.trigger();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            done_tx.send(()).ok();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("reactor join hung after shutdown during accept storm");
        stop.store(true, Ordering::Relaxed);
        for hammer in hammers {
            hammer.join().expect("hammer thread");
        }
    }

    // The pre-bind trigger race: a signal tripped before the server starts
    // must stop it immediately (the waker registration observes an
    // already-triggered signal).
    let signal = ShutdownSignal::new();
    signal.trigger();
    let (server, _) = frame_reactor(Arc::clone(&registry), signal, ReactorConfig::default());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("pre-triggered reactor never stopped");
}

/// Depth attack: one connection, one reactor, a hundred thousand strictly
/// alternating request/response round trips.  `List` is bounded work, so
/// every iteration is answered on the event loop — readable event,
/// incremental frame decode, inline reply, flush in the same tick — and the
/// worker pool must never see one of them.  (The pool hand-off keeps its
/// own lost-wake regression net in `hydra-reactor/tests/roundtrip_storm.rs`,
/// which routes every line through the pool.)
#[test]
fn single_connection_roundtrip_storm() {
    let _guard = counters_lock();
    let session = Hydra::builder().build();
    let obs = session.metrics();
    let registry = Arc::new(SummaryRegistry::in_memory(session));
    let (reactor, addr) = frame_reactor(registry, ShutdownSignal::new(), ReactorConfig::default());
    let pool_submits = || {
        obs.snapshot()
            .value("hydra_reactor_pool_submits_total", None)
            .expect("pool submit counter registered")
    };
    let submits_before = pool_submits();

    let iterations: usize = std::env::var("HYDRA_STORM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) {
            10_000
        } else {
            100_000
        });
    let list = frame_bytes(&Request::List);
    let mut probe = TcpStream::connect(addr).expect("probe");
    probe.set_nodelay(true).expect("nodelay");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for i in 0..iterations {
        probe.write_all(&list).expect("send list");
        let mut header = [0u8; 4];
        if let Err(e) = probe.read_exact(&mut header) {
            panic!(
                "round trip stalled at iteration {i}: {e} \
                 (pool submits {}, queued peak {})",
                pool_submits() - submits_before,
                obs.gauge("hydra_reactor_write_queue_peak_bytes").value(),
            );
        }
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        probe.read_exact(&mut payload).expect("frame payload");
        assert!(
            matches!(
                read_frame::<_, Response>(&mut &[&header[..], &payload[..]].concat()[..]),
                Ok(Some(Response::SummaryList(_)))
            ),
            "unexpected response at iteration {i}"
        );
    }
    assert_eq!(
        pool_submits(),
        submits_before,
        "a bounded List round trip crossed the worker pool"
    );
    assert_eq!(
        obs.snapshot()
            .value("hydra_requests_total", Some(("op", "frame.list"))),
        Some(iterations as f64),
        "every inline List keeps its span"
    );
    reactor.shutdown();
}

/// Inline answers obey the write-queue bound: a client that pipelines fifty
/// thousand summary-direct queries and never reads stops being parsed once
/// its queue reaches the cap (it grows by at most one reply past it), is
/// evicted at the stall deadline, and never costs the worker pool a task —
/// while a neighbor's round trips keep succeeding.
#[test]
fn pipelined_inline_queries_are_capped_and_evicted_while_neighbors_proceed() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let registry = Arc::clone(tester.registry());
    // The custom server records into the tester's session registry.
    let obs = tester.obs();
    let evictions = obs.counter("hydra_reactor_evictions_total");
    let pool_submits = obs.counter("hydra_reactor_pool_submits_total");
    let (evictions_before, submits_before) = (evictions.value(), pool_submits.value());

    const CAP: usize = 64 << 10;
    let (_server, addr) = frame_reactor(
        registry,
        ShutdownSignal::new(),
        ReactorConfig {
            workers: 2,
            write_queue_cap: CAP,
            stall_timeout: Duration::from_millis(700),
            ..ReactorConfig::default()
        },
    );
    let sql = "select count(*) from store_sales";
    let one = frame_bytes(&Request::Query(QueryRequest::new("retail", sql)));

    // One round trip measures the reply: the bound is the cap plus one.
    let mut sizer = TcpStream::connect(addr).expect("connect sizer");
    sizer.write_all(&one).expect("send query");
    let reply = read_frame_raw(&mut sizer);
    assert!(matches!(parse_frame(&reply), Response::QueryResult(_)));
    drop(sizer);

    const PIPELINED: usize = 50_000;
    let demand: Vec<u8> = one
        .iter()
        .copied()
        .cycle()
        .take(one.len() * PIPELINED)
        .collect();
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled.write_all(&demand).expect("pipeline demand");

    // The neighbor's round trips succeed while the stall builds and trips.
    let mut client = HydraClient::connect(addr).expect("connect client");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut round_trips = 0;
    while evictions.value() == evictions_before {
        assert!(
            Instant::now() < deadline,
            "stalled pipeline was never evicted"
        );
        let answer = client.query("retail", sql).expect("neighbor query");
        assert_eq!(answer.scanned_tuples, 0);
        round_trips += 1;
    }
    assert!(round_trips > 0);
    let answer = client
        .query("retail", sql)
        .expect("neighbor query after eviction");
    assert!(!answer.rows.is_empty());

    // The tester's own reactor carries no traffic here, so the shared peak
    // is this server's.
    let peak = obs.gauge("hydra_reactor_write_queue_peak_bytes").value() as usize;
    assert!(
        peak <= CAP + reply.len(),
        "write queue exceeded cap + one reply: peak {peak} bytes, reply {}",
        reply.len()
    );
    assert!(
        PIPELINED * reply.len() > 4 * CAP,
        "demand must dwarf the cap to prove the bound"
    );
    assert_eq!(
        pool_submits.value(),
        submits_before,
        "summary-direct queries crossed the worker pool"
    );

    // The stalled socket really is dead: draining it hits EOF or a reset.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = [0u8; 64 << 10];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// One pg message whose statements start on the event loop and finish on
/// the pool — a ping and an in-class aggregate inline, then a scan that
/// hands the same task to the pool, then an aggregate after it — answers
/// with exactly the bytes recorded before statements ran on the loop.
#[test]
fn pg_message_crossing_loop_and_pool_matches_the_pinned_transcript() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let mut stream = TcpStream::connect(tester.pg_addr()).expect("connect pg");
    stream.set_nodelay(true).ok();
    send(&mut stream, &pg_startup_bytes("retail"), None);
    pg_read_until_ready(&mut stream);
    send(
        &mut stream,
        &pg_query_bytes(
            "select 1; select count(*) from store_sales; select * from web_sales; \
             select count(*) from store_sales",
        ),
        None,
    );
    let transcript = pg_read_until_ready(&mut stream);
    let pinned: &[u8] = include_bytes!("fixtures/pg_mixed_statements.bin");
    assert_eq!(transcript.len(), pinned.len(), "transcript length moved");
    assert!(transcript == pinned, "transcript bytes moved");
}

/// The 64 KiB inline byte budget on both protocols.  A pg message of two
/// thousand pings is small, but its output passes the budget, so the loop
/// hands the rest of it to the pool mid-message; a ping padded past 64 KiB
/// is split and run on the pool from the start; a frame `Query` padded
/// past 64 KiB skips the loop.  Each costs exactly one pool submit and
/// answers byte for byte as the all-inline requests do.
#[test]
fn requests_past_the_inline_byte_budget_finish_on_the_pool_unchanged() {
    let _guard = counters_lock();
    let tester = HydraTester::retail();
    let obs = tester.obs();
    let pool_submits = || {
        obs.snapshot()
            .value("hydra_reactor_pool_submits_total", None)
            .expect("pool submit counter registered")
    };
    const PAD: usize = 70 << 10;

    let mut pg = TcpStream::connect(tester.pg_addr()).expect("connect pg");
    send(&mut pg, &pg_startup_bytes("retail"), None);
    pg_read_until_ready(&mut pg);
    let mut roundtrip = |sql: &str| {
        let before = pool_submits();
        send(&mut pg, &pg_query_bytes(sql), None);
        let transcript = pg_read_until_ready(&mut pg);
        (transcript, pool_submits() - before)
    };
    let (one, submits) = roundtrip("select 1");
    assert_eq!(submits, 0.0, "a ping crossed the worker pool");
    // Every ping answers RowDescription, DataRow, CommandComplete; the
    // message closes with one ReadyForQuery (6 bytes).
    let (ping, ready) = one.split_at(one.len() - 6);
    const PINGS: usize = 2_000;
    let mut expected = ping.repeat(PINGS);
    expected.extend_from_slice(ready);
    assert!(expected.len() > 64 << 10, "output must pass the budget");

    let pings = "select 1;".repeat(PINGS);
    assert!(pings.len() < 64 << 10, "the message itself must be inline");
    let (split, submits) = roundtrip(&pings);
    assert_eq!(submits, 1.0, "mid-message hand-off");
    assert!(split == expected, "mid-message hand-off changed the bytes");
    let (pooled, submits) = roundtrip(&format!("select 1;{}", " ".repeat(PAD)));
    assert_eq!(submits, 1.0, "an oversized message stayed on the loop");
    assert!(pooled == one, "the pool answered differently");

    let query = Request::Query(QueryRequest::new(
        "retail",
        "select count(*) from store_sales",
    ));
    let small = frame_bytes(&query);
    let mut large = small.clone();
    large.extend(std::iter::repeat_n(b' ', PAD));
    let payload_len = (large.len() - 4) as u32;
    large[..4].copy_from_slice(&payload_len.to_be_bytes());
    let mut frame = TcpStream::connect(tester.frame_addr()).expect("connect frame");
    let mut answer = |request: &[u8]| {
        let before = pool_submits();
        send(&mut frame, request, None);
        let reply = read_frame_raw(&mut frame);
        (reply, pool_submits() - before)
    };
    let (inline, submits) = answer(&small);
    assert_eq!(submits, 0.0, "an in-class query crossed the worker pool");
    assert!(matches!(parse_frame(&inline), Response::QueryResult(_)));
    let (pooled, submits) = answer(&large);
    assert_eq!(submits, 1.0, "an oversized frame stayed on the loop");
    assert!(pooled == inline, "the pool answered differently");
}

/// Observability invariants under load: one reactor hosts the frame
/// protocol and the `/metrics` endpoint over one shared registry, a storm
/// of clients hammers `List` while a scraper polls `/metrics`, and at
/// quiescence the books must balance exactly —
///
/// * every accepted connection is either closed or still live;
/// * the reactor's bytes-out counter equals the bytes the clients (frame
///   and scraper alike) actually received;
/// * the request latency histogram counted every request the storm sent;
/// * no scrape ever blocked behind the storm (bounded scrape latency —
///   rendering happens on the worker pool, not the event loop);
/// * `List` is answered on the event loop, so the only pool submits are
///   the scrapes, and the loop's dispatch p99 stays under 2 ms in release
///   builds — the guard on "bounded work only" for inline answers.
#[test]
fn metrics_invariants_hold_under_connection_storm() {
    use hydra::service::MetricsProtocol;

    let _guard = counters_lock();
    let session = Hydra::builder().build();
    let obs = session.metrics();
    let registry = Arc::new(SummaryRegistry::in_memory(session.clone()));
    let (db, queries) = hydra::workload::retail_client_fixture(200, 60, 3);
    let package = session.profile(db, &queries).expect("profile retail");
    registry.publish("retail", package).expect("publish retail");

    let signal = ShutdownSignal::new();
    let mut builder = ReactorBuilder::new(Arc::clone(&obs)).config(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let frame_addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone())),
        )
        .expect("bind frame listener");
    let metrics_addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(MetricsProtocol::new(Arc::clone(&obs))),
        )
        .expect("bind metrics listener");
    let reactor = builder.start(signal.clone()).expect("start reactor");

    const CLIENTS: usize = 16;
    const REQUESTS_PER_CLIENT: usize = 100;
    let list = frame_bytes(&Request::List);
    let storm: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let list = list.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(frame_addr).expect("storm connect");
                stream.set_nodelay(true).ok();
                let mut received = 0u64;
                for _ in 0..REQUESTS_PER_CLIENT {
                    stream.write_all(&list).expect("storm send");
                    received += read_frame_raw(&mut stream).len() as u64;
                }
                received
            })
        })
        .collect();

    // Scrape concurrently with the storm; every scrape must come back in
    // bounded time (the render runs on the worker pool, so a scrape can
    // never wedge the event loop — and the event loop never waits on it).
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut received = 0u64;
            let mut scrapes = 0u64;
            let mut worst = Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                let mut conn = TcpStream::connect(metrics_addr).expect("scrape connect");
                conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
                    .expect("scrape send");
                let mut response = Vec::new();
                conn.read_to_end(&mut response).expect("scrape read");
                let elapsed = started.elapsed();
                assert!(
                    response.starts_with(b"HTTP/1.0 200"),
                    "scrape failed mid-storm"
                );
                received += response.len() as u64;
                scrapes += 1;
                worst = worst.max(elapsed);
            }
            (received, scrapes, worst)
        })
    };

    let mut client_bytes = 0u64;
    for handle in storm {
        client_bytes += handle.join().expect("storm client");
    }
    scrape_stop.store(true, Ordering::Relaxed);
    let (scrape_bytes, scrapes, worst_scrape) = scraper.join().expect("scraper");
    assert!(scrapes >= 1, "scraper never completed a scrape");
    assert!(
        worst_scrape < Duration::from_secs(2),
        "a scrape blocked behind the storm: {worst_scrape:?}"
    );

    // Quiescence: every storm/scrape connection observed closed.
    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let value = |name: &str, label: Option<(&str, &str)>| {
        obs.snapshot()
            .value(name, label)
            .unwrap_or_else(|| panic!("metric {name} {label:?} missing"))
    };
    eventually(Duration::from_secs(10), "all connections to close", || {
        let snapshot = obs.snapshot();
        snapshot.value("hydra_connections_active", None) == Some(0.0)
    });

    // Invariant 1: accepted == closed + live (live is zero by now).
    assert_eq!(
        value("hydra_reactor_accepts_total", None),
        value("hydra_reactor_closes_total", None),
        "accepted connections unaccounted for"
    );
    // Every participant was actually accepted on this reactor.
    assert!(value("hydra_reactor_accepts_total", None) >= CLIENTS as f64 + scrapes as f64);

    // Invariant 2: the reactor's bytes-out equals what the clients read —
    // every frame response byte and every scrape byte, none invented,
    // none lost.
    assert_eq!(
        value("hydra_reactor_bytes_out_total", None),
        (client_bytes + scrape_bytes) as f64,
        "reactor bytes-out diverges from bytes clients received"
    );

    // Invariant 3: the latency histogram counted every storm request, and
    // the request counter agrees with it.
    assert_eq!(
        value("hydra_request_seconds_count", Some(("op", "frame.list"))),
        total_requests,
        "histogram lost requests"
    );
    assert_eq!(
        value("hydra_requests_total", Some(("op", "frame.list"))),
        total_requests
    );
    assert_eq!(
        value("hydra_requests_total", Some(("op", "http.metrics"))),
        scrapes as f64
    );

    // Invariant 4: inline requests never cross the pool, and answering
    // them on the loop keeps each tick short.
    assert_eq!(
        value("hydra_reactor_pool_submits_total", None),
        scrapes as f64,
        "a List crossed the worker pool"
    );
    // A tick answers up to one `List` per storm client.  Unoptimized
    // builds run that path about ten times slower, so only a gross breach
    // (a scan on the loop takes seconds) is caught there; the release
    // bound is the guard.
    let bound = if cfg!(debug_assertions) { 0.1 } else { 0.002 };
    let dispatch_p99 = value("hydra_reactor_dispatch_seconds_p99", None);
    assert!(
        dispatch_p99 < bound,
        "event-loop dispatch p99 {:.0} us exceeds {:.0} us",
        dispatch_p99 * 1e6,
        bound * 1e6
    );

    signal.trigger();
    reactor.join();
}

/// Reads until the peer closes, failing if it sends another byte or holds
/// the connection open past five seconds.
fn assert_closed(stream: &mut TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .unwrap_or_else(|e| panic!("{what}: the connection stayed open ({e})"));
    assert!(
        rest.is_empty(),
        "{what}: {} bytes after the error",
        rest.len()
    );
}

/// A length prefix over either protocol's cap desynchronizes the byte
/// stream: the server answers with an error, closes the connection, and
/// counts one framing violation under the protocol's `op`.
#[test]
fn over_cap_length_prefixes_are_answered_closed_and_counted() {
    let tester = HydraTester::retail();
    let framing = |op: &str| {
        tester
            .obs()
            .counter_labeled("hydra_request_errors_total", "op", op)
            .value()
    };

    // Frame: a header claiming one byte past the 64 MiB cap.
    let mut stream = TcpStream::connect(tester.frame_addr()).expect("connect frame");
    let over_cap = hydra::service::protocol::MAX_FRAME_BYTES + 1;
    stream
        .write_all(&over_cap.to_be_bytes())
        .expect("send hostile header");
    match parse_frame(&read_frame_raw(&mut stream)) {
        Response::Error { message } => assert!(message.contains("cap"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_closed(&mut stream, "frame");
    eventually(Duration::from_secs(5), "frame.framing", || {
        framing("frame.framing") == 1
    });

    // pg: a 'Q' message claiming a 1 GiB body after the handshake.
    let mut stream = TcpStream::connect(tester.pg_addr()).expect("connect pg");
    send(&mut stream, &pg_startup_bytes("retail"), None);
    pg_read_until_ready(&mut stream);
    let mut hostile = vec![b'Q'];
    hostile.extend_from_slice(&(1u32 << 30).to_be_bytes());
    hostile.extend_from_slice(b"select 1\0");
    stream.write_all(&hostile).expect("send hostile message");
    let mut head = [0u8; 5];
    stream.read_exact(&mut head).expect("error response head");
    assert_eq!(head[0], b'E', "an ErrorResponse");
    let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
    let mut fields = vec![0u8; len - 4];
    stream
        .read_exact(&mut fields)
        .expect("error response fields");
    let fields = String::from_utf8_lossy(&fields);
    assert!(
        fields.contains("SFATAL") && fields.contains("C08P01"),
        "{fields}"
    );
    assert_closed(&mut stream, "pg");
    eventually(Duration::from_secs(5), "pg.framing", || {
        framing("pg.framing") == 1
    });
    assert_eq!(framing("frame.framing"), 1);
}
