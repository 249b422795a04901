//! Crash-injection suite for the durable registry (ISSUE 9).
//!
//! These tests SIGKILL a real `hydra-serve` child — no drop handlers, no
//! flushes, exactly what a power cut leaves behind — and assert the
//! recovery contract of the WAL, whose checkpoints seal `wal.log` into
//! numbered segments:
//!
//! * every version **acknowledged** before the kill is served after
//!   restart, bit-identical to its pre-kill description;
//! * unacknowledged tails (a torn WAL record from a kill mid-append) are
//!   discarded cleanly — recovery never fails, never serves a torn entry;
//! * recovery performs **zero cold LP solves**: the restarted server's
//!   `hydra_lp_solves_total` counters are all zero before any new publish;
//! * pinned historical versions (`name@version`) are served after the
//!   restart over **both** wire protocols (frame and PostgreSQL).
//!
//! The CI `durability-smoke` job runs this file in release mode.

use hydra::service::protocol::SummaryDetail;
use hydra::service::HydraClient;
use hydra::Hydra;
use hydra_engine::database::Database;
use hydra_pgwire::PgClient;
use hydra_query::delta::WorkloadDelta;
use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra_query::query::SpjQuery;
use hydra_workload::{harvest_workload, retail_client_fixture};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hydra-crash-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A running `hydra-serve` child with its bound addresses.  Killing it with
/// SIGKILL (`Child::kill` on Unix) is the crash under test.
struct Server {
    child: Child,
    frame: SocketAddr,
    pg: SocketAddr,
}

impl Server {
    /// Spawns `hydra-serve --wal-dir <dir>` on ephemeral ports and waits
    /// for both listeners to report their bound addresses.
    fn spawn(wal_dir: &Path, checkpoint_every: usize) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hydra-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--pg-addr",
                "127.0.0.1:0",
                "--wal-dir",
                wal_dir.to_str().expect("utf-8 dir"),
                "--checkpoint-every",
                &checkpoint_every.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hydra-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut frame = None;
        let mut pg = None;
        let deadline = Instant::now() + Duration::from_secs(120);
        while frame.is_none() || pg.is_none() {
            assert!(Instant::now() < deadline, "hydra-serve did not come up");
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "hydra-serve exited before binding: {line}");
            if let Some(addr) = line.trim().strip_prefix("hydra-serve pg listening on ") {
                pg = Some(addr.parse().expect("pg addr"));
            } else if let Some(addr) = line.trim().strip_prefix("hydra-serve listening on ") {
                frame = Some(addr.parse().expect("frame addr"));
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Server {
            child,
            frame: frame.expect("frame addr seen"),
            pg: pg.expect("pg addr seen"),
        }
    }

    /// SIGKILL — the crash.  Nothing in the process gets to run: no flush,
    /// no Drop, no atexit.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL hydra-serve");
        self.child.wait().expect("reap hydra-serve");
    }
}

/// A narrow web_sales query harvested against `db`, as a workload delta
/// with a unique query id.
fn narrow_delta(db: &Database, id: &str, threshold: i64) -> WorkloadDelta {
    let mut narrow = SpjQuery::new(id);
    narrow.add_table("web_sales");
    narrow.set_predicate(
        "web_sales",
        TablePredicate::always_true().with(ColumnPredicate::new(
            "ws_quantity",
            CompareOp::Lt,
            threshold,
        )),
    );
    let harvested = harvest_workload(db, &[narrow]).expect("harvest");
    let entry = harvested.entries.into_iter().next().expect("entry");
    WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("annotated"))
}

/// Sum of `hydra_lp_solves_total` across every outcome label, read over the
/// wire from a freshly restarted server.
fn lp_solves(client: &mut HydraClient) -> f64 {
    client
        .stats()
        .expect("stats")
        .iter()
        .filter(|s| s.name == "hydra_lp_solves_total")
        .map(|s| s.value)
        .sum()
}

/// One acknowledged operation: the version the server confirmed, plus its
/// full description when the killer left us time to fetch it.
struct Acked {
    name: String,
    version: u32,
    detail: Option<String>,
}

fn detail_json(detail: &SummaryDetail) -> String {
    serde_json::to_string(detail).expect("encode detail")
}

/// SIGKILL a publish/delta storm at randomized points, restart on the same
/// directory, and verify the recovery contract after every crash.
#[test]
fn sigkill_storm_recovers_every_acknowledged_version() {
    let dir = temp_dir("storm");
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = session.profile(db.clone(), &queries).expect("profile");
    // Pre-harvested deltas with unique query ids; the storm consumes them
    // in order so a re-publish after recovery never collides with a query
    // id already merged (acknowledged or not) before the kill.
    let deltas: Arc<Mutex<Vec<WorkloadDelta>>> = Arc::new(Mutex::new(
        (0..18)
            .map(|i| narrow_delta(&db, &format!("storm-drift-{i}"), 20 + 2 * i))
            .rev()
            .collect(),
    ));

    let acked: Arc<Mutex<Vec<Acked>>> = Arc::new(Mutex::new(Vec::new()));
    // Deterministic pseudo-random kill delays (no clocks or RNG seeds that
    // would make the failure unreproducible).
    let mut rng: u64 = 0x5EED_CAFE_D15C_0BAD;
    let mut lcg = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };

    for round in 0..3 {
        let server = Server::spawn(&dir, 2);
        let storm = {
            let acked = Arc::clone(&acked);
            let deltas = Arc::clone(&deltas);
            let package = package.clone();
            let frame = server.frame;
            std::thread::spawn(move || {
                let Ok(mut client) = HydraClient::connect(frame) else {
                    return;
                };
                for i in 0.. {
                    // Alternate full publishes and chained deltas; stop at
                    // the first error (the kill severed the connection).
                    let info = if i % 3 == 0 {
                        client.publish("storm", &package)
                    } else {
                        let Some(delta) = deltas.lock().expect("deltas").pop() else {
                            break;
                        };
                        client.delta_publish("storm", &delta).map(|p| p.info)
                    };
                    let Ok(info) = info else { break };
                    // The ack is durable; try to also capture the full
                    // description (the kill may beat us to it).
                    let detail = client
                        .describe(&format!("storm@{}", info.version))
                        .ok()
                        .map(|d| detail_json(&d));
                    acked.lock().expect("acked").push(Acked {
                        name: info.name,
                        version: info.version,
                        detail,
                    });
                }
            })
        };

        // Kill at a randomized point inside the storm.
        std::thread::sleep(Duration::from_millis(40 + lcg() % 400));
        server.kill9();
        storm.join().expect("storm thread");

        // Restart on the same directory and verify the contract.
        let server = Server::spawn(&dir, 2);
        let mut client = HydraClient::connect(server.frame).expect("connect after restart");
        assert_eq!(
            lp_solves(&mut client),
            0.0,
            "round {round}: recovery must not run the LP solver"
        );
        let acked_now = acked.lock().expect("acked");
        for op in acked_now.iter() {
            let detail = client
                .describe(&format!("{}@{}", op.name, op.version))
                .unwrap_or_else(|e| {
                    panic!(
                        "round {round}: acknowledged {}@{} lost after crash: {e}",
                        op.name, op.version
                    )
                });
            assert_eq!(detail.info.version, op.version);
            if let Some(expected) = &op.detail {
                assert_eq!(
                    &detail_json(&detail),
                    expected,
                    "round {round}: {}@{} must recover bit-identical",
                    op.name,
                    op.version
                );
            }
        }
        // Unacknowledged tails discarded cleanly: whatever the registry
        // now lists describes successfully end to end.
        for info in client.list().expect("list") {
            client
                .describe(&format!("{}@{}", info.name, info.version))
                .expect("recovered entry must describe");
        }
        drop(acked_now);
        server.kill9();
    }

    let acked = acked.lock().expect("acked");
    assert!(
        !acked.is_empty(),
        "the storm must acknowledge at least one operation across 3 rounds"
    );
}

/// Live kill -9, restart, then `Describe` and `Query` of a pinned
/// historical version over both wire protocols — the time-travel smoke the
/// CI `durability-smoke` job drives.
#[test]
fn kill9_restart_serves_historical_versions_over_both_protocols() {
    let dir = temp_dir("timetravel");
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(500, 150, 4);
    let package = session.profile(db.clone(), &queries).expect("profile");

    let server = Server::spawn(&dir, 2);
    let mut client = HydraClient::connect(server.frame).expect("connect");
    let v1 = client.publish("retail", &package).expect("publish v1");
    assert_eq!(v1.version, 1);
    let delta = narrow_delta(&db, "tt-drift", 30);
    let v2 = client.delta_publish("retail", &delta).expect("delta v2");
    assert_eq!(v2.info.version, 2);

    // Ground truth before the crash: descriptions and query answers for
    // both the pinned v1 and the latest v2, over both protocols.
    let detail_v1 = client.describe("retail@1").expect("describe v1");
    let detail_v2 = client.describe("retail").expect("describe latest");
    assert_eq!(detail_v1.info.version, 1);
    assert_eq!(detail_v2.info.version, 2);
    let sql = "select count(*) from web_sales";
    let frame_v1 =
        serde_json::to_string(&client.query("retail@1", sql).expect("frame query v1").rows)
            .expect("encode rows");
    let mut pg = PgClient::connect(server.pg, Some("retail@1")).expect("pg pinned v1");
    let pg_v1 = pg.query(sql).expect("pg query v1").rows;
    pg.terminate().expect("terminate");

    server.kill9();

    let server = Server::spawn(&dir, 2);
    let mut client = HydraClient::connect(server.frame).expect("reconnect");
    assert_eq!(lp_solves(&mut client), 0.0, "recovery must be solve-free");

    // Frame protocol: describe + query the pinned historical version.
    let recovered_v1 = client
        .describe("retail@1")
        .expect("describe v1 after crash");
    assert_eq!(detail_json(&recovered_v1), detail_json(&detail_v1));
    let recovered_latest = client
        .describe("retail")
        .expect("describe latest after crash");
    assert_eq!(detail_json(&recovered_latest), detail_json(&detail_v2));
    assert_eq!(
        serde_json::to_string(&client.query("retail@1", sql).expect("frame query").rows)
            .expect("encode rows"),
        frame_v1,
        "pinned historical query must answer identically after recovery"
    );

    // PostgreSQL protocol: a pinned startup parameter binds to the
    // recovered historical version.
    let mut pg = PgClient::connect(server.pg, Some("retail@1")).expect("pg pinned after crash");
    assert_eq!(pg.query(sql).expect("pg query").rows, pg_v1);
    pg.terminate().expect("terminate");
    let mut pg = PgClient::connect(server.pg, Some("retail@2")).expect("pg pinned latest");
    pg.query(sql).expect("pg query latest");
    pg.terminate().expect("terminate");
    // A version that was never retained is a structured FATAL, not a hang.
    let err = PgClient::connect(server.pg, Some("retail@9")).expect_err("missing version");
    assert!(
        err.to_string().contains("no retained version"),
        "unexpected error: {err}"
    );

    server.kill9();
}
