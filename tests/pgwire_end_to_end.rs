//! End-to-end acceptance for the PostgreSQL front-end: a full pg-wire
//! conversation (startup → joined GROUP BY aggregates → DataRow stream →
//! CommandComplete → ReadyForQuery) against the same dual-listener wiring
//! `hydra-serve --pg-addr` uses, with answers equal to `HydraClient::query`
//! on the same registry entry — **while a frame-protocol stream is
//! verifiably in flight on the other listener** — plus the shutdown
//! symmetry, database selection, and error-position contracts.

use hydra::pgwire::codec::{encode_startup, read_backend_message, BackendMessage, StartupPacket};
use hydra::pgwire::{PgClient, PgProtocol, PgWireError};
use hydra::service::{FrameProtocol, ReactorBuilder, StreamRequest};
use hydra::ShutdownSignal;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "common/tester.rs"]
mod tester;
use tester::HydraTester;

/// A connect attempt against a stopped listener must fail; a raced accept
/// (connection taken off the backlog, then dropped by the dying server)
/// also counts as refusal. Polls because the accept loop exits
/// asynchronously after the shutdown trigger.
fn assert_eventually_refused(mut connect: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if !connect() {
            return; // refused — the listener is gone
        }
        assert!(
            Instant::now() < deadline,
            "listener still accepting 5s after shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The acceptance scenario from the issue: joined GROUP BY aggregates over
/// the pg wire, equal to the frame answer, concurrent with a throttled
/// frame stream that is still mid-flight when the pg answer lands.
#[test]
fn pg_queries_answer_while_frame_stream_is_in_flight() {
    let tester = HydraTester::retail();
    let streamed = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Frame listener: a velocity-throttled stream of the fact table
        // (400 rows at 150 rows/s ≈ 2.7s) running for the whole test.
        let stream_thread = scope.spawn(|| {
            let mut client = tester.client();
            let (rows, stats) = client
                .stream_collect(
                    StreamRequest::full("retail", "store_sales")
                        .batch_rows(32)
                        .rows_per_sec(150.0),
                )
                .expect("frame stream");
            streamed.store(true, Ordering::SeqCst);
            (rows.len(), stats.rows)
        });

        // Give the stream a head start so it is genuinely in flight.
        std::thread::sleep(Duration::from_millis(200));

        // Pg listener: the issue's `count(*)` / `avg(...)` with a join and
        // GROUP BY, via raw wire bytes only.
        let mut pg = tester.pg(Some("retail"));
        let sql = "select count(*), avg(item.i_current_price) from store_sales, item \
                   where store_sales.ss_item_fk = item.i_item_sk group by item.i_category";
        let pg_answer = pg.query(sql).expect("pg aggregate");
        assert_eq!(
            pg_answer.columns,
            vec![
                "item.i_category".to_string(),
                "count(*)".to_string(),
                "avg(item.i_current_price)".to_string()
            ]
        );
        assert!(!pg_answer.rows.is_empty());
        assert_eq!(pg_answer.tag, format!("SELECT {}", pg_answer.rows.len()));

        // A second statement exercises the idle ↔ query cycle on the same
        // connection, and the scan path (DataRow stream → CommandComplete).
        let scan = pg.query("select * from item").expect("pg scan");
        assert!(!scan.rows.is_empty());

        // The frame stream must still be running: the pg conversation
        // happened strictly inside the stream's lifetime.
        assert!(
            !streamed.load(Ordering::SeqCst),
            "frame stream finished before the pg queries — not concurrent"
        );

        // The frame protocol agrees with the pg answer on the same entry.
        let frame_answer = tester.client().query("retail", sql).expect("frame query");
        assert_eq!(frame_answer.rows.len(), pg_answer.rows.len());
        for (frame_row, pg_row) in frame_answer.rows.iter().zip(&pg_answer.rows) {
            use hydra::pgwire::types::pg_text;
            assert_eq!(
                pg_row[0],
                frame_row.key.first().and_then(|v| pg_text(v, None))
            );
            assert_eq!(
                pg_row[1],
                frame_row.aggregates.first().and_then(|v| pg_text(v, None))
            );
            assert_eq!(
                pg_row[2],
                frame_row.aggregates.get(1).and_then(|v| pg_text(v, None))
            );
        }

        pg.terminate().expect("clean terminate");
        let (collected, reported) = stream_thread.join().expect("stream thread");
        assert_eq!(collected as u64, reported);
        assert_eq!(collected, 400);
    });
}

/// Satellite: a frame-protocol `Shutdown` must stop the pg listener too —
/// no orphaned accept loops.
#[test]
fn frame_shutdown_stops_pg_listener() {
    let tester = HydraTester::retail();
    // Sanity: pg accepts before the shutdown.
    tester.pg(Some("retail")).terminate().expect("terminate");

    tester.client().shutdown().expect("frame shutdown");
    assert!(tester.shutdown_signal().is_triggered());
    assert_eventually_refused(|| PgClient::connect(tester.pg_addr(), Some("retail")).is_ok());
}

/// Satellite, the other direction: shutting the pg reactor down stops the
/// frame reactor started on the same signal, and the frame side's `join`
/// returns.
#[test]
fn pg_shutdown_stops_frame_listener() {
    use hydra::core::session::Hydra;
    use hydra::service::registry::SummaryRegistry;

    let session = Hydra::builder().build();
    let registry = Arc::new(SummaryRegistry::in_memory(session.clone()));
    let signal = ShutdownSignal::new();
    let mut frame = ReactorBuilder::new(session.metrics());
    let frame_addr = frame
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone())),
        )
        .expect("frame listener");
    let frame = frame.start(signal.clone()).expect("frame reactor");
    let mut pg = ReactorBuilder::new(session.metrics());
    pg.listen("127.0.0.1:0", Arc::new(PgProtocol::new(registry)))
        .expect("pg listener");
    let pg = pg.start(signal).expect("pg reactor");

    pg.shutdown();
    assert!(frame.is_shutting_down());
    // join() blocking forever here would mean the frame accept loop
    // survived the pg-side shutdown.
    frame.join();
    assert_eventually_refused(|| hydra::HydraClient::connect(frame_addr).is_ok());
}

/// Satellite: parse errors carry SQLSTATE 42601 and a 1-based `P` position
/// derived from the parser's span — including the statement offset in
/// multi-statement queries.
#[test]
fn parse_errors_carry_caret_positions() {
    let tester = HydraTester::retail();
    let mut pg = tester.pg(None);

    let err = pg
        .query("select frogs from store_sales")
        .expect_err("must fail");
    let PgWireError::Server(server) = err else {
        panic!("expected a server error, got {err:?}");
    };
    assert_eq!(server.severity, "ERROR");
    assert_eq!(server.code, "42601");
    let position = server.position.expect("parse errors carry a position");
    assert!(position >= 1, "positions are 1-based");

    // The same error behind a leading statement: the position shifts by
    // the statement's byte offset, staying caret-accurate.
    let prefix = "select 1; ";
    let err = pg
        .simple_query(&format!("{prefix}select frogs from store_sales"))
        .expect_err("must fail");
    let PgWireError::Server(shifted) = err else {
        panic!("expected a server error, got {err:?}");
    };
    assert_eq!(
        shifted.position.expect("position"),
        position + prefix.len() as u64
    );

    // The connection survived both errors.
    let ok = pg
        .query("select count(*) from store_sales")
        .expect("recovered");
    assert_eq!(ok.rows.len(), 1);

    // Unknown relations map to 42P01, out-of-dialect shapes to 0A000.
    let err = pg
        .query("select count(*) from nonexistent")
        .expect_err("unknown");
    let PgWireError::Server(server) = err else {
        panic!("expected a server error, got {err:?}");
    };
    assert_eq!(server.code, "42P01");
}

/// The `database` startup parameter selects the entry; `@version` pins one;
/// unknown names and stale pins are FATAL 3D000 at startup.
#[test]
fn database_parameter_selects_and_pins_entries() {
    let tester = HydraTester::retail();
    tester.publish_supplier("supplier");

    // Two entries: an unnamed connection is ambiguous.
    let err = PgClient::connect(tester.pg_addr(), None).expect_err("ambiguous");
    let PgWireError::Server(server) = err else {
        panic!("expected a server error, got {err:?}");
    };
    assert_eq!(
        (server.severity.as_str(), server.code.as_str()),
        ("FATAL", "3D000")
    );

    // Naming works; each connection sees its own entry's relations.
    let mut retail = tester.pg(Some("retail"));
    assert_eq!(
        retail
            .query("select count(*) from store_sales")
            .expect("retail")
            .rows
            .len(),
        1
    );
    let mut supplier = tester.pg(Some("supplier"));
    assert_eq!(
        supplier
            .query("select count(*) from lineitem")
            .expect("supplier")
            .rows
            .len(),
        1
    );

    // Version pins: the current version connects, a stale pin is refused.
    tester.pg(Some("retail@1")).terminate().expect("pinned v1");
    let err = PgClient::connect(tester.pg_addr(), Some("retail@9")).expect_err("stale pin");
    assert!(matches!(err, PgWireError::Server(e) if e.code == "3D000"));

    // Unknown database.
    let err = PgClient::connect(tester.pg_addr(), Some("nope")).expect_err("unknown db");
    assert!(matches!(err, PgWireError::Server(e) if e.code == "3D000"));
}

/// Simple-protocol niceties: multi-statement queries, transaction no-ops,
/// empty queries, and the `select <n>` liveness ping.
#[test]
fn simple_query_batching_and_noops() {
    let tester = HydraTester::retail();
    let mut pg = tester.pg(None);

    let results = pg
        .simple_query("begin; select 1; select count(*) from store_sales; commit")
        .expect("batch");
    let tags: Vec<&str> = results.iter().map(|r| r.tag.as_str()).collect();
    assert_eq!(tags, vec!["BEGIN", "SELECT 1", "SELECT 1", "COMMIT"]);
    assert_eq!(results[1].columns, vec!["?column?".to_string()]);
    assert_eq!(results[1].rows, vec![vec![Some("1".to_string())]]);
    assert_eq!(results[2].rows[0][0].as_deref(), Some("400"));

    // An empty query string is acknowledged, not an error.
    let results = pg.simple_query("  ;  ").expect("empty");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].tag, "");
    assert!(results[0].rows.is_empty());

    // An error mid-batch aborts the rest but keeps the connection.
    let err = pg
        .simple_query("select count(*) from store_sales; select oops; select 1")
        .expect_err("mid-batch error");
    assert!(matches!(err, PgWireError::Server(_)));
    assert_eq!(
        pg.query("select 2").expect("alive").rows,
        vec![vec![Some("2".to_string())]]
    );
    pg.terminate().expect("terminate");
}

/// Hostile framing after a successful handshake: a length field over the
/// 64 MiB cap is answered with a FATAL `ErrorResponse` and the connection
/// is closed — never a panic, never an allocation of the advertised size.
#[test]
fn hostile_length_field_gets_error_response_then_close() {
    let tester = HydraTester::retail();
    let mut stream = std::net::TcpStream::connect(tester.pg_addr()).expect("connect");

    let mut startup = Vec::new();
    encode_startup(
        &StartupPacket::Startup {
            major: 3,
            minor: 0,
            params: vec![
                ("user".to_string(), "tester".to_string()),
                ("database".to_string(), "retail".to_string()),
            ],
        },
        &mut startup,
    );
    stream.write_all(&startup).expect("send startup");

    // Drain the handshake to ReadyForQuery.
    loop {
        match read_backend_message(&mut stream).expect("handshake message") {
            Some(BackendMessage::ReadyForQuery { .. }) => break,
            Some(_) => {}
            None => panic!("server closed during handshake"),
        }
    }

    // A 'Q' frame claiming a 1 GiB body.
    let mut hostile = vec![b'Q'];
    hostile.extend_from_slice(&(1_073_741_824_i32).to_be_bytes());
    hostile.extend_from_slice(b"select 1\0");
    stream.write_all(&hostile).expect("send hostile frame");

    let response = read_backend_message(&mut stream)
        .expect("read error response")
        .expect("an ErrorResponse, not EOF");
    let error = response.as_server_error().expect("ErrorResponse");
    assert_eq!(error.severity, "FATAL");
    assert_eq!(error.code, "08P01");
    assert!(error.message.contains("cap"), "message: {}", error.message);

    // ... and then the connection is gone.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match read_backend_message(&mut stream) {
        Ok(None) => {}
        other => panic!("expected clean close after FATAL, got {other:?}"),
    }
}

/// A pg reactor built over the session's metrics records into them, so
/// `hydra_metrics` counts the very connection that asks.
#[test]
fn library_pg_server_reports_reactor_accepts() {
    let tester = HydraTester::retail();
    // The tester's own reactor shares the session registry: count from here.
    let accepts_before = tester.obs().counter("hydra_reactor_accepts_total").value() as f64;
    let mut builder = ReactorBuilder::new(tester.obs());
    let addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(PgProtocol::new(Arc::clone(tester.registry()))),
        )
        .expect("pg listener");
    let _server = builder.start(ShutdownSignal::new()).expect("pg reactor");
    let mut pg = PgClient::connect(addr, Some("retail")).expect("connect pg");
    let metrics = pg
        .query("select * from hydra_metrics")
        .expect("metrics table");
    let accepts: f64 = metrics
        .rows
        .iter()
        .find(|row| row[0].as_deref() == Some("hydra_reactor_accepts_total"))
        .and_then(|row| row[2].as_deref())
        .expect("accepts row")
        .parse()
        .expect("float8 text");
    assert!(
        accepts >= accepts_before + 1.0,
        "the reactor's accepts never reached the session registry: {accepts}"
    );
}
