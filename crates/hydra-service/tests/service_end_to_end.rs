//! End-to-end service tests over real TCP sockets.
//!
//! The headline assertion (the PR's acceptance criterion): two concurrent
//! clients streaming disjoint row ranges of the retail fact table produce,
//! concatenated in plan order, output **bit-identical** to a local
//! sequential `DynamicGenerator::stream` — while a third client's scenario
//! re-solve is served mid-stream without blocking either stream.

use hydra_core::session::Hydra;
use hydra_engine::row::Row;
use hydra_query::exec::ExecStrategy;
use hydra_service::client::HydraClient;
use hydra_service::protocol::{read_frame, write_frame, Request, Response};
use hydra_service::protocol::{QueryRequest, ScenarioSpec, StreamRequest};
use hydra_service::registry::SummaryRegistry;
use hydra_service::{FrameProtocol, ReactorBuilder, ReactorConfig, ShutdownSignal};
use hydra_workload::retail_client_fixture;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;

fn retail_package(
    session: &Hydra,
    sales: u64,
    web: u64,
    queries: usize,
) -> hydra_core::transfer::TransferPackage {
    let (db, queries) = retail_client_fixture(sales, web, queries);
    session.profile(db, &queries).expect("profile")
}

#[test]
fn concurrent_disjoint_shards_concatenate_bit_identically() {
    let session = Hydra::builder().build();
    let package = retail_package(&session, 2_000, 600, 8);

    // Local ground truth: the sequential stream of the fact table.
    let local = session.regenerate(&package).expect("local solve");
    let expected: Vec<Row> = local
        .generator()
        .stream("store_sales")
        .expect("local stream")
        .collect();
    let total = expected.len() as u64;
    assert_eq!(total, 2_000);

    // Vendor site: fresh server (its own session) on an ephemeral port.
    let server_session = Hydra::builder().build();
    let (server, addr) = common::serve(SummaryRegistry::in_memory(server_session));

    HydraClient::connect(addr)
        .expect("connect publisher")
        .publish("retail", &package)
        .expect("publish");

    // Two clients pull disjoint shards concurrently (throttled so the
    // streams stay in flight long enough to overlap the scenario), a third
    // runs a what-if re-solve and a describe mid-stream.
    let mid = total / 2;
    let streams_done = Arc::new(AtomicUsize::new(0));
    let (first, second, scenario_report, detail) = std::thread::scope(|scope| {
        let ranges = [(0, mid), (mid, total)];
        let stream_handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                let done = Arc::clone(&streams_done);
                scope.spawn(move || {
                    let mut client = HydraClient::connect(addr).expect("connect streamer");
                    let request = StreamRequest::full("retail", "store_sales")
                        .range(start, end)
                        .batch_rows(64)
                        .rows_per_sec(400.0); // 1000 rows → ~2.5 s in flight
                    let (rows, stats) = client.stream_collect(request).expect("stream shard");
                    done.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(stats.rows, end - start);
                    rows
                })
            })
            .collect();

        let scenario_handle = {
            let done = Arc::clone(&streams_done);
            scope.spawn(move || {
                // Give the streams a head start, then re-solve while they run.
                std::thread::sleep(std::time::Duration::from_millis(300));
                let mut client = HydraClient::connect(addr).expect("connect scenario");
                let spec =
                    ScenarioSpec::scaled("stress", 1.0).with_row_override("store_sales", 50_000);
                let report = client.scenario("retail", &spec).expect("scenario");
                let detail = client.describe("retail").expect("describe");
                // A summary-direct analytical answer is served mid-stream
                // too: the server interrogates the summary without touching
                // (or being blocked by) the tuple path both streams are on.
                let answer = client
                    .query_request(
                        QueryRequest::new("retail", "select count(*) from store_sales")
                            .summary_only(),
                    )
                    .expect("query mid-stream");
                let streams_still_running = done.load(Ordering::SeqCst) < 2;
                (report, detail, answer, streams_still_running)
            })
        };

        let mut rows = stream_handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"));
        let first = rows.next().unwrap();
        let second = rows.next().unwrap();
        let (report, detail, answer, still_running) =
            scenario_handle.join().expect("scenario thread");
        assert!(
            still_running,
            "scenario must be served while the streams are in flight, not after"
        );
        assert_eq!(answer.strategy(), ExecStrategy::SummaryDirect);
        assert_eq!(answer.scanned_tuples, 0);
        assert_eq!(
            answer.single().expect("one global row").aggregates[0].as_i64(),
            Some(2_000),
            "mid-stream query must count the full fact table"
        );
        (first, second, report, detail)
    });

    // Bit-identical concatenation in plan order.
    let concatenated: Vec<Row> = first.into_iter().chain(second).collect();
    assert_eq!(concatenated, expected);

    // The scenario saw the override and reused untouched relations.
    assert_eq!(scenario_report.relation_rows["store_sales"], 50_000);
    assert!(scenario_report.cached_relations > 0);

    // Describe reflects the published package.
    assert_eq!(detail.info.total_rows, package.metadata.total_rows());
    let fact = detail
        .relations
        .iter()
        .find(|r| r.table == "store_sales")
        .expect("fact relation described");
    assert_eq!(fact.total_rows, 2_000);
    assert!(fact.constraints > 0);

    // Clean protocol-driven shutdown.
    HydraClient::connect(addr)
        .expect("connect closer")
        .shutdown()
        .expect("shutdown");
    server.join();
}

#[test]
fn persistent_registry_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!(
        "hydra-service-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let session = Hydra::builder().build();
    let package = retail_package(&session, 600, 200, 5);
    let expected: Vec<Row> = session
        .regenerate(&package)
        .expect("local solve")
        .generator()
        .stream("store_sales")
        .expect("local stream")
        .collect();

    // First server generation: publish twice (version bump), then stop.
    {
        let registry =
            SummaryRegistry::durable(Hydra::builder().build(), &dir, 64).expect("open registry");
        let (server, addr) = common::serve(registry);
        let mut client = HydraClient::connect(addr).expect("connect");
        assert_eq!(
            client.publish("retail", &package).expect("publish").version,
            1
        );
        assert_eq!(
            client
                .publish("retail", &package)
                .expect("republish")
                .version,
            2
        );
        assert!(matches!(
            client.publish("../escape", &package),
            Err(hydra_service::ServiceError::Remote(_))
        ));
        server.shutdown();
    }

    // Second generation: the solved state is recovered from the WAL — no
    // client ever publishes, no LP runs — and streams the same bits.
    let rebooted = Hydra::builder().build();
    let registry = SummaryRegistry::durable(rebooted.clone(), &dir, 64).expect("reopen registry");
    assert_eq!(registry.len(), 1);
    let (server, addr) = common::serve(registry);
    let mut client = HydraClient::connect(addr).expect("reconnect");

    let listed = client.list().expect("list");
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].name, "retail");
    assert_eq!(listed[0].version, 2);

    let (rows, _) = client
        .stream_collect(StreamRequest::full("retail", "store_sales"))
        .expect("stream");
    assert_eq!(
        rows, expected,
        "reloaded summary must regenerate the same bits"
    );
    let lp_solves: u64 = ["cold", "warm_hit", "warm_fellback", "reused"]
        .iter()
        .map(|outcome| {
            rebooted
                .metrics()
                .counter_labeled("hydra_lp_solves_total", "outcome", outcome)
                .value()
        })
        .sum();
    assert_eq!(lp_solves, 0, "recovery and serving must not run the LP");

    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_queries_round_trip_and_report_out_of_class() {
    let session = Hydra::builder().build();
    let package = retail_package(&session, 1_200, 400, 6);

    // Local ground truth: the same package solved locally answers the same
    // queries (the vendor pipeline is deterministic).
    let local = session.regenerate(&package).expect("local solve");

    let (server, addr) = common::serve(SummaryRegistry::in_memory(Hydra::builder().build()));
    let mut client = HydraClient::connect(addr).expect("connect");
    client.publish("retail", &package).expect("publish");

    // A grouped, joined aggregate: the wire answer equals the local
    // summary-direct answer row for row, and no tuples were regenerated.
    let sql = "select count(*), avg(item.i_current_price) from store_sales, item \
               where store_sales.ss_item_fk = item.i_item_sk \
               group by item.i_category";
    let wire = client.query("retail", sql).expect("wire query");
    let expected = session.query(&local, sql).expect("local query");
    assert_eq!(wire.strategy(), ExecStrategy::SummaryDirect);
    assert_eq!(wire.scanned_tuples, 0);
    assert_eq!(wire.rows, expected.rows);
    assert_eq!(wire.group_columns, expected.group_columns);

    // Unknown summary name: a reported error, connection stays usable.
    assert!(matches!(
        client.query("ghost", "select count(*) from store_sales"),
        Err(hydra_service::ServiceError::Remote(_))
    ));

    // Out-of-class + summary_only: reported, not silently scanned.
    let out_of_class = "select count(*) from store_sales group by store_sales.ss_sk";
    let err = client
        .query_request(QueryRequest::new("retail", out_of_class).summary_only())
        .unwrap_err();
    match err {
        hydra_service::ServiceError::Remote(message) => {
            assert!(
                message.contains("out of the summary-direct class"),
                "error must explain the class violation: {message}"
            );
        }
        other => panic!("expected a remote error, got {other:?}"),
    }

    // The same query without summary_only is answered by the scan fallback
    // and says so.
    let scanned = client.query("retail", out_of_class).expect("scan fallback");
    assert_eq!(scanned.strategy(), ExecStrategy::TupleScan);
    assert_eq!(scanned.scanned_tuples, 1_200);
    assert_eq!(scanned.rows.len(), 1_200);

    // Malformed SQL: a reported (spanned) parse error, connection usable.
    assert!(matches!(
        client.query("retail", "select median(x) from store_sales"),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    let again = client
        .query("retail", "select count(*) from store_sales")
        .expect("connection still healthy");
    assert_eq!(again.single().unwrap().aggregates[0].as_i64(), Some(1_200));

    client.shutdown().expect("shutdown");
    server.join();
}

/// The CI `delta-differential` job drives exactly this flow against a
/// `hydra-serve` binary on an ephemeral port; this test pins the same
/// round-trip in-process: publish → DeltaPublish over the wire → version
/// bump + structural diff + reuse report come back, and the evolved summary
/// serves queries reflecting the merged workload.
#[test]
fn delta_publish_round_trips_over_the_wire() {
    use hydra_query::delta::WorkloadDelta;
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
    use hydra_query::query::SpjQuery;
    use hydra_workload::harvest_workload;

    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(1_200, 400, 6);
    let package = session.profile(db.clone(), &queries).expect("profile");

    let (server, addr) = common::serve(SummaryRegistry::in_memory(Hydra::builder().build()));
    let mut client = HydraClient::connect(addr).expect("connect");
    let info = client.publish("retail", &package).expect("publish");
    assert_eq!(info.version, 1);

    // The delta: one narrow query on web_sales, harvested client-side, plus
    // a drifted web_sales row count — shipped over the wire.
    let mut narrow = SpjQuery::new("drift-1");
    narrow.add_table("web_sales");
    narrow.set_predicate(
        "web_sales",
        TablePredicate::always_true().with(ColumnPredicate::new("ws_quantity", CompareOp::Lt, 35)),
    );
    let harvested = harvest_workload(&db, &[narrow]).expect("harvest");
    let entry = harvested.entries.into_iter().next().expect("entry");
    let matching = entry.aqp.as_ref().expect("annotated").root.cardinality;
    let delta = WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("annotated"));

    let published = client.delta_publish("retail", &delta).expect("delta");
    assert_eq!(published.info.version, 2);
    assert_eq!(published.info.queries, 7);
    // Only web_sales re-solved; the rest of the schema was reused.
    assert_eq!(
        published.report.reused(),
        published.report.relations.len() - 1,
        "{}",
        published.report.to_display_table()
    );
    // The structural diff singles out web_sales.
    assert_eq!(published.diff.changed_relations(), vec!["web_sales"]);

    // The evolved summary answers the *new* query's constraint exactly,
    // summary-direct.
    let answer = client
        .query_request(
            QueryRequest::new(
                "retail",
                "select count(*) from web_sales where web_sales.ws_quantity < 35",
            )
            .summary_only(),
        )
        .expect("query");
    assert_eq!(
        answer.single().expect("row").aggregates[0].as_i64(),
        Some(matching as i64),
        "evolved summary must satisfy the delta query's annotated cardinality"
    );

    // Describe reflects the bumped version; the fact table is untouched.
    let detail = client.describe("retail").expect("describe");
    assert_eq!(detail.info.version, 2);

    // Error paths: unknown name, invalid delta — both reported, connection
    // stays usable.
    assert!(matches!(
        client.delta_publish("nope", &WorkloadDelta::new()),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    assert!(matches!(
        client.delta_publish("retail", &WorkloadDelta::new().retire("ghost")),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    assert_eq!(client.list().expect("list").len(), 1);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn error_paths_keep_the_connection_usable() {
    let (server, addr) = common::serve(SummaryRegistry::in_memory(Hydra::builder().build()));
    let mut client = HydraClient::connect(addr).expect("connect");

    // Unknown summary / unknown relation / bad name — each answered with an
    // error frame, none of them fatal to the connection.
    assert!(matches!(
        client.describe("nope"),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    assert!(matches!(
        client.stream_collect(StreamRequest::full("nope", "store_sales")),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    assert!(matches!(
        client.scenario("nope", &ScenarioSpec::scaled("x", 1.0)),
        Err(hydra_service::ServiceError::Remote(_))
    ));
    assert!(client.list().expect("list still works").is_empty());

    // A stream range beyond the relation clamps instead of failing.
    let session = Hydra::builder().build();
    let package = retail_package(&session, 300, 100, 4);
    client.publish("tiny", &package).expect("publish");
    let (rows, _) = client
        .stream_collect(StreamRequest::full("tiny", "store_sales").range(250, 9_999))
        .expect("clamped stream");
    assert_eq!(rows.len(), 50);

    // A zero-row range is a complete, well-formed stream over the wire:
    // StreamStart and StreamEnd must both arrive even though no batch ever
    // forces the writer out (the header used to sit in the buffer until the
    // connection moved on).
    let (rows, stats) = client
        .stream_collect(StreamRequest::full("tiny", "store_sales").range(250, 250))
        .expect("zero-row stream completes");
    assert!(rows.is_empty());
    assert_eq!(stats.rows, 0);

    assert!(matches!(
        client.stream_collect(StreamRequest::full("tiny", "no_such_table")),
        Err(hydra_service::ServiceError::Remote(_))
    ));

    // Hostile pacing values are rejected before they can turn the
    // connection thread into a permanent sleeper.  (Non-finite rates never
    // even arrive: the JSON layer encodes NaN/∞ as null, i.e. unthrottled.)
    for rate in [0.0, -5.0, 1e-9] {
        assert!(
            matches!(
                client
                    .stream_collect(StreamRequest::full("tiny", "store_sales").rows_per_sec(rate)),
                Err(hydra_service::ServiceError::Remote(_))
            ),
            "rate {rate} must be rejected"
        );
    }
    let (rows, _) = client
        .stream_collect(StreamRequest::full("tiny", "store_sales"))
        .expect("connection still healthy after rejected rates");
    assert_eq!(rows.len(), 300);

    client.shutdown().expect("shutdown");
    server.join();
}

/// A frame nested 10 000 deep — 10 KB, far under the frame cap — is
/// answered with an `Error` frame naming the offset where the JSON parser
/// gave up, and the connection keeps serving.  Unbounded, the parser's
/// recursion overflowed the stack of the thread parsing it and aborted the
/// whole server.
#[test]
fn nested_frame_is_an_error_not_a_crash() {
    use std::io::Write;
    let (server, addr) = common::serve(SummaryRegistry::in_memory(Hydra::builder().build()));
    let mut conn = TcpStream::connect(addr).expect("connect");
    let payload = format!("{{\"Publish\":{}", "[".repeat(10_000));
    conn.write_all(&(payload.len() as u32).to_be_bytes())
        .expect("write header");
    conn.write_all(payload.as_bytes()).expect("write payload");
    match read_frame::<_, Response>(&mut conn).expect("a reply") {
        Some(Response::Error { message }) => assert!(
            message.contains("nesting deeper than 128 at offset"),
            "{message}"
        ),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    write_frame(&mut conn, &Request::List).expect("list");
    conn.flush().expect("flush");
    match read_frame::<_, Response>(&mut conn).expect("a reply") {
        Some(Response::SummaryList(list)) => assert!(list.is_empty()),
        other => panic!("expected the listing, got {other:?}"),
    }
    drop(conn);
    HydraClient::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
}

/// A reactor built over the session's metrics records into them, so the
/// `Stats` frame counts the very connection that asks.
#[test]
fn library_server_stats_report_reactor_accepts() {
    let session = Hydra::builder().build();
    let (_server, addr) = common::serve(SummaryRegistry::in_memory(session));
    let mut client = HydraClient::connect(addr).expect("connect");
    client.list().expect("list");
    let accepts = client
        .stats()
        .expect("stats")
        .into_iter()
        .find(|s| s.name == "hydra_reactor_accepts_total")
        .expect("accepts sample")
        .value;
    assert!(
        accepts >= 1.0,
        "the reactor's accepts never reached the session registry: {accepts}"
    );
}

/// `max_connections: 0` and `write_queue_cap: 0` are raised to one when the
/// reactor starts, so the server answers instead of pausing its accepts
/// forever or spinning its event loop on a zero-byte queue bound.
#[test]
fn zero_valued_reactor_config_still_answers() {
    let session = Hydra::builder().build();
    let signal = ShutdownSignal::new();
    let mut builder = ReactorBuilder::new(session.metrics()).config(ReactorConfig {
        max_connections: 0,
        write_queue_cap: 0,
        ..ReactorConfig::default()
    });
    let registry = Arc::new(SummaryRegistry::in_memory(session));
    let addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(registry, signal.clone())),
        )
        .expect("bind");
    let _server = builder.start(signal).expect("start");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write_frame(&mut stream, &Request::List).expect("send list");
    let response: Response = read_frame(&mut stream)
        .expect("List answered within the deadline")
        .expect("a response frame");
    assert!(matches!(response, Response::SummaryList(_)), "{response:?}");
}
