//! End-to-end observability tests through the tester double: the frame
//! `Stats` surface, the pg `hydra_metrics` virtual table, and the
//! slow-request log — all fed by one shared registry across the reactor
//! and both protocol front-ends.

use hydra::datagen::sink::CountingSink;
use hydra::obs::SlowLog;
use hydra::pgwire::codec::{encode_startup, read_backend_message, write_frontend};
use hydra::pgwire::{BackendMessage, FrontendMessage, StartupPacket};
use hydra::service::protocol::{read_frame, write_frame, Request, Response, StreamRequest};
use hydra::workload::retail_client_fixture;
use hydra::Hydra;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[path = "common/tester.rs"]
mod tester;
use tester::HydraTester;

/// Frame `Stats` returns the same registry a `/metrics` scrape renders,
/// and the op counters reflect the requests this very client sent.
#[test]
fn frame_stats_reports_request_counters() {
    let tester = HydraTester::retail();
    let mut client = tester.client();
    client.list().expect("list");
    client.list().expect("list");
    let described = client.describe("retail").expect("describe");
    assert_eq!(described.info.name, "retail");

    let samples = client.stats().expect("stats");
    let value = |name: &str, key: &str, val: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.label_key == key && s.label_value == val)
            .map(|s| s.value)
    };
    assert_eq!(
        value("hydra_requests_total", "op", "frame.list"),
        Some(2.0),
        "two lists were sent"
    );
    assert_eq!(
        value("hydra_requests_total", "op", "frame.describe"),
        Some(1.0)
    );
    // The Stats request itself is spanned, but its own span closes only
    // after the response is encoded — so it may or may not appear; the
    // describe latency histogram must.
    assert!(
        samples
            .iter()
            .any(|s| s.name == "hydra_request_seconds_count" && s.label_value == "frame.describe"),
        "describe latency histogram missing from {samples:?}"
    );
    // Every frame response was counted into the byte totals.
    let frame_bytes = samples
        .iter()
        .find(|s| s.name == "hydra_frame_bytes_total")
        .map(|s| s.value)
        .unwrap_or_default();
    assert!(frame_bytes > 0.0, "frame bytes counter never moved");
}

/// `SELECT * FROM hydra_metrics` exposes the same registry over pg wire.
#[test]
fn pg_virtual_table_serves_metrics() {
    let tester = HydraTester::retail();
    let mut pg = tester.pg(None);
    let count = pg.query("select count(*) from store_sales").expect("count");
    assert_eq!(count.rows.len(), 1);

    let metrics = pg
        .query("select * from hydra_metrics")
        .expect("metrics table");
    assert_eq!(metrics.columns, vec!["name", "label", "value"]);
    assert!(
        metrics.tag.starts_with("SELECT "),
        "unexpected tag {:?}",
        metrics.tag
    );
    let find = |name: &str, label: Option<&str>| {
        metrics
            .rows
            .iter()
            .find(|row| row[0].as_deref() == Some(name) && row[1].as_deref() == label)
    };
    // The aggregate that just ran is visible, strategy-labelled.
    let agg = find("hydra_requests_total", Some("op=pg.aggregate"))
        .expect("pg.aggregate request counter missing");
    assert_eq!(agg[2].as_deref(), Some("1"));
    assert!(
        find("hydra_query_total", Some("strategy=summary_direct")).is_some()
            || find("hydra_query_total", Some("strategy=tuple_scan")).is_some(),
        "query engine strategy counter missing"
    );
    // Reactor counters share the registry (both listeners, one loop).
    let accepts =
        find("hydra_reactor_accepts_total", None).expect("reactor accepts counter missing");
    let accepted: f64 = accepts[2].as_deref().unwrap().parse().unwrap();
    assert!(accepted >= 1.0);
}

/// Requests over the slow threshold emit one structured log line carrying
/// the request id, op, duration, and detail; fast requests stay silent.
#[test]
fn slow_request_log_fires_only_over_threshold() {
    let session = Hydra::builder().build();
    // Threshold zero: everything is "slow", so every op must log.
    let (slow, lines) = SlowLog::buffered(Duration::ZERO);
    session.metrics().set_slow_log(Some(slow));
    let tester = HydraTester::with_session(session);
    tester.publish_retail("retail");
    let mut client = tester.client();
    client.list().expect("list");
    let (rows, _) = client
        .stream_collect(StreamRequest::full("retail", "store_sales").range(0, 10))
        .expect("stream");
    assert_eq!(rows.len(), 10);
    drop(client);

    // A wire stream must settle the datagen account even though it drives
    // the generator directly rather than through `Hydra::stream_table`.
    let snapshot = tester.obs().snapshot();
    assert_eq!(
        snapshot.value("hydra_datagen_rows_total", Some(("table", "store_sales"))),
        Some(10.0),
        "wire stream did not reach the datagen counters"
    );

    let logged = lines.lock().unwrap().clone();
    let list_line = logged
        .iter()
        .find(|l| l.contains("op=frame.list"))
        .expect("list was slower than 0ms yet never logged");
    assert!(
        list_line.starts_with("hydra-slow-request id="),
        "{list_line}"
    );
    assert!(list_line.contains("duration_ms="), "{list_line}");
    assert!(list_line.contains("outcome=ok"), "{list_line}");
    let stream_line = logged
        .iter()
        .find(|l| l.contains("op=frame.stream"))
        .expect("stream never logged");
    assert!(
        stream_line.contains("retail.store_sales"),
        "stream line lacks its kind: {stream_line}"
    );

    // Raise the threshold out of reach: nothing new may be logged.
    let (quiet, quiet_lines) = SlowLog::buffered(Duration::from_secs(3600));
    tester.obs().set_slow_log(Some(quiet));
    let mut client = tester.client();
    client.list().expect("list");
    drop(client);
    assert!(
        quiet_lines.lock().unwrap().is_empty(),
        "fast request crossed a one-hour threshold"
    );
}

/// A pg scan settles its datagen account before `CommandComplete` is
/// queued, so the counter is exact the moment the client has the tag.
#[test]
fn pg_scan_settles_datagen_rows_before_command_complete() {
    let tester = HydraTester::retail();
    let mut pg = tester.pg(None);
    for round in 1..=20u32 {
        let scan = pg.query("select * from web_sales").expect("scan");
        assert_eq!(scan.tag, "SELECT 120");
        let snapshot = tester.obs().snapshot();
        assert_eq!(
            snapshot.value("hydra_datagen_rows_total", Some(("table", "web_sales"))),
            Some(120.0 * f64::from(round)),
            "pg scan settled after its CommandComplete (round {round})"
        );
        assert_eq!(
            snapshot.value("hydra_requests_total", Some(("op", "pg.scan"))),
            Some(f64::from(round)),
            "pg scan span closed after its CommandComplete (round {round})"
        );
    }
}

/// The tester's obs registry is the session's: counters recorded anywhere
/// in the stack are visible without any wire round-trip.
#[test]
fn obs_registry_is_shared_with_the_session() {
    let tester = HydraTester::retail();
    let mut client = tester.client();
    client.list().expect("list");
    drop(client);
    let snapshot = tester.obs().snapshot();
    assert!(
        snapshot.counter_total("hydra_requests_total") >= 1,
        "session registry missed the wire request"
    );
    let rendered = snapshot.render_prometheus();
    assert!(rendered.contains("hydra_registry_publishes_total 1"));
}

/// The sharded entry points settle their generation account, as
/// `stream_table` does: every tuple they generate is in
/// `hydra_datagen_rows_total`.
#[test]
fn sharded_runs_settle_their_generation_account() {
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(1_000, 300, 5);
    let package = session.profile(db, &queries).expect("profile");
    let result = session.regenerate(&package).expect("regenerate");
    let rows = || {
        session
            .metrics()
            .snapshot()
            .value("hydra_datagen_rows_total", Some(("table", "store_sales")))
    };
    let run = session
        .stream_table_sharded(&result, "store_sales", 4, |_, _| CountingSink::new())
        .expect("sharded stream");
    assert_eq!(run.total_rows(), 1_000);
    assert_eq!(rows(), Some(1_000.0), "stream_table_sharded went uncounted");
    let table = session
        .materialize_sharded(&result, "store_sales", 3)
        .expect("sharded materialization");
    assert_eq!(table.row_count(), 1_000);
    assert_eq!(rows(), Some(2_000.0), "materialize_sharded went uncounted");
}

/// One publish records its build: the summary build time once, and the
/// partitioning and LP time of every relation it solved.
#[test]
fn publish_records_partition_and_summary_build_time() {
    let tester = HydraTester::new();
    let count = |family: &str, relation: Option<&str>| {
        tester
            .obs()
            .snapshot()
            .value(
                &format!("{family}_count"),
                relation.map(|r| ("relation", r)),
            )
            .unwrap_or_default()
    };
    assert_eq!(count("hydra_summary_build_seconds", None), 0.0);
    let entry = tester.publish_retail("retail");
    assert_eq!(count("hydra_summary_build_seconds", None), 1.0);
    let relations = &entry.regeneration().build_report.relations;
    assert!(!relations.is_empty());
    for relation in relations {
        let table = Some(relation.table.as_str());
        assert_eq!(
            count("hydra_partition_seconds", table),
            1.0,
            "{}",
            relation.table
        );
        assert_eq!(
            count("hydra_lp_solve_seconds", table),
            1.0,
            "{}",
            relation.table
        );
    }
}

/// A stream throttled to `rate` rows/s must have spent about `rows / rate`
/// seconds parked by its governor; the factor is loose because the timer
/// wheel may wake a stream a few milliseconds either side of its deadline.
fn assert_sleep_accounted(slept_secs: f64, rows: f64, rate: f64) {
    let expected = rows / rate;
    assert!(
        (0.5 * expected..=2.0 * expected).contains(&slept_secs),
        "governor sleep {slept_secs:.3} s is not within 2x of {rows}/{rate} = {expected:.3} s"
    );
}

/// A `rows_per_sec`-throttled frame stream accounts its timer-wheel waits
/// in `hydra_governor_sleep_seconds_total`, read back over `Stats`.
#[test]
fn throttled_frame_stream_accounts_governor_sleep() {
    let tester = HydraTester::retail();
    let mut client = tester.client();
    let (rows, _) = client
        .stream_collect(
            StreamRequest::full("retail", "store_sales")
                .range(0, 100)
                .batch_rows(25)
                .rows_per_sec(500.0),
        )
        .expect("throttled stream");
    assert_eq!(rows.len(), 100);
    let slept = client
        .stats()
        .expect("stats")
        .into_iter()
        .find(|s| s.name == "hydra_governor_sleep_seconds_total")
        .expect("governor sleep sample")
        .value;
    assert_sleep_accounted(slept, 100.0, 500.0);
}

/// A pg scan under a session velocity cap (`hydra-serve --velocity`)
/// accounts its waits too, read back through `hydra_metrics`.
#[test]
fn velocity_capped_pg_scan_accounts_governor_sleep() {
    let session = Hydra::builder().velocity(600.0).build();
    let tester = HydraTester::with_session(session);
    tester.publish_retail("retail");
    let mut pg = tester.pg(None);
    let scan = pg.query("select * from web_sales").expect("capped scan");
    assert_eq!(scan.rows.len(), 120);
    let metrics = pg
        .query("select * from hydra_metrics")
        .expect("metrics table");
    let slept: f64 = metrics
        .rows
        .iter()
        .find(|row| row[0].as_deref() == Some("hydra_governor_sleep_seconds_total"))
        .and_then(|row| row[2].as_deref())
        .expect("governor sleep row")
        .parse()
        .expect("float8 text");
    assert_sleep_accounted(slept, 120.0, 600.0);
}

/// The counters a stream's account lives in: rows generated for `table`,
/// rows put on the wire, and failed requests of operation `op`.
#[derive(Debug, Clone, Copy)]
struct StreamAccount {
    generated: f64,
    streamed: f64,
    errors: f64,
}

fn stream_account(tester: &HydraTester, table: &str, op: &str) -> StreamAccount {
    let snapshot = tester.obs().snapshot();
    let value = |name, label| snapshot.value(name, label).unwrap_or(0.0);
    StreamAccount {
        generated: value("hydra_datagen_rows_total", Some(("table", table))),
        streamed: value("hydra_stream_rows_total", None),
        errors: value("hydra_request_errors_total", Some(("op", op))),
    }
}

/// Once the task of a stream whose peer vanished is gone, every row it
/// put on the wire is settled as generated, and the stream is logged as
/// one failed request.
fn assert_aborted_stream_settled(
    tester: &HydraTester,
    table: &str,
    op: &str,
    before: StreamAccount,
) {
    let inflight = tester.obs().gauge("hydra_reactor_tasks_inflight");
    let deadline = Instant::now() + Duration::from_secs(10);
    while inflight.value() != 0 {
        assert!(
            Instant::now() < deadline,
            "the aborted stream's task never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = stream_account(tester, table, op);
    let streamed = after.streamed - before.streamed;
    assert!(streamed > 0.0, "no rows streamed before the disconnect");
    assert_eq!(
        after.generated - before.generated,
        streamed,
        "the aborted stream left generated rows unsettled"
    );
    assert_eq!(
        after.errors - before.errors,
        1.0,
        "the aborted stream was not logged as a failed {op}"
    );
}

/// A throttled frame stream whose client leaves after the first batch
/// settles its rows and counts as a failed `frame.stream`.
#[test]
fn disconnected_frame_stream_settles_its_rows_as_a_failure() {
    let tester = HydraTester::retail();
    let before = stream_account(&tester, "store_sales", "frame.stream");
    let mut socket = TcpStream::connect(tester.frame_addr()).expect("connect");
    // 400 rows at 100 rows/s: four seconds of stream, a batch every 0.1 s.
    let request = StreamRequest::full("retail", "store_sales")
        .batch_rows(10)
        .rows_per_sec(100.0);
    write_frame(&mut socket, &Request::Stream(request)).expect("send stream");
    let header = read_frame::<_, Response>(&mut socket).expect("header");
    assert!(
        matches!(header, Some(Response::StreamStart(_))),
        "{header:?}"
    );
    let batch = read_frame::<_, Response>(&mut socket).expect("first batch");
    assert!(matches!(batch, Some(Response::Batch { .. })), "{batch:?}");
    drop(socket);
    assert_aborted_stream_settled(&tester, "store_sales", "frame.stream", before);
}

/// A velocity-capped pg scan whose client leaves after the first `DataRow`
/// settles its rows and counts as a failed `pg.scan`.
#[test]
fn disconnected_pg_scan_settles_its_rows_as_a_failure() {
    // 3000 rows at 2000 rows/s: three 1024-row pulses half a second apart.
    let session = Hydra::builder().velocity(2000.0).build();
    let tester = HydraTester::with_session(session);
    let (db, queries) = retail_client_fixture(3000, 120, 4);
    let package = tester.session().profile(db, &queries).expect("profile");
    tester.publish("retail", package);
    let before = stream_account(&tester, "store_sales", "pg.scan");

    let mut socket = TcpStream::connect(tester.pg_addr()).expect("connect pg");
    let mut startup = Vec::new();
    let params = [("user", "observability"), ("database", "retail")];
    encode_startup(
        &StartupPacket::Startup {
            major: 3,
            minor: 0,
            params: params.map(|(k, v)| (k.to_string(), v.to_string())).to_vec(),
        },
        &mut startup,
    );
    socket.write_all(&startup).expect("startup");
    while !matches!(
        read_backend_message(&mut socket).expect("handshake"),
        Some(BackendMessage::ReadyForQuery { .. })
    ) {}
    let sql = "select * from store_sales".to_string();
    write_frontend(&mut socket, &FrontendMessage::Query { sql }).expect("query");
    let description = read_backend_message(&mut socket).expect("description");
    assert!(
        matches!(description, Some(BackendMessage::RowDescription { .. })),
        "{description:?}"
    );
    let row = read_backend_message(&mut socket).expect("first row");
    assert!(
        matches!(row, Some(BackendMessage::DataRow { .. })),
        "{row:?}"
    );
    drop(socket);
    assert_aborted_stream_settled(&tester, "store_sales", "pg.scan", before);
}
