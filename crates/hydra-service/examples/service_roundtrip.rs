//! One-shot client round-trip against a running `hydra-serve` — the CI
//! smoke driver and a minimal usage example.
//!
//! ```sh
//! cargo run --release -p hydra --bin hydra-serve -- --addr 127.0.0.1:0 &
//! cargo run --release -p hydra-service --example service_roundtrip -- 127.0.0.1:PORT
//! ```
//!
//! Publishes the retail fixture, lists and describes it, streams two
//! disjoint shards of the fact table (verifying they concatenate to the
//! full prefix), runs a what-if scenario, evolves the workload with an
//! incremental `DeltaPublish` (verifying the version bump and the
//! structural diff), checks that an identity scenario against the new
//! version reuses every relation, and asks the server to shut down.

use hydra_core::session::Hydra;
use hydra_query::delta::WorkloadDelta;
use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra_query::query::SpjQuery;
use hydra_service::client::HydraClient;
use hydra_service::protocol::{ScenarioSpec, StreamRequest};
use hydra_workload::{harvest_workload, retail_client_fixture};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .expect("usage: service_roundtrip HOST:PORT");

    // Client site: profile a small retail warehouse.
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(1_200, 400, 6);
    let package = session.profile(db.clone(), &queries).expect("profile");

    let mut client = HydraClient::connect(addr.as_str()).expect("connect");
    let info = client.publish("smoke", &package).expect("publish");
    println!(
        "published `{}` v{}: {} relations, {} rows, {} summary bytes",
        info.name, info.version, info.relations, info.total_rows, info.summary_bytes
    );

    let listed = client.list().expect("list");
    assert!(
        listed.iter().any(|s| s.name == "smoke"),
        "listing lost the summary"
    );

    let detail = client.describe("smoke").expect("describe");
    println!("relation | rows | summary rows | constraints | signature");
    for r in &detail.relations {
        println!(
            "{} | {} | {} | {} | {:016x}",
            r.table, r.total_rows, r.summary_rows, r.constraints, r.constraint_signature
        );
    }

    // Two disjoint shards, pulled back to back over the wire.
    let (first, _) = client
        .stream_collect(StreamRequest::full("smoke", "store_sales").range(0, 600))
        .expect("stream shard 0");
    let (second, _) = client
        .stream_collect(StreamRequest::full("smoke", "store_sales").range(600, 1_200))
        .expect("stream shard 1");
    assert_eq!(first.len(), 600);
    assert_eq!(second.len(), 600);

    // Their concatenation is exactly the full range streamed in one go.
    let (full, stats) = client
        .stream_collect(StreamRequest::full("smoke", "store_sales"))
        .expect("stream full");
    let concatenated: Vec<_> = first.into_iter().chain(second).collect();
    assert_eq!(
        concatenated, full,
        "shards must concatenate bit-identically"
    );
    println!(
        "streamed {} rows in {} us ({} rows total across shards)",
        stats.rows,
        stats.elapsed_micros,
        concatenated.len()
    );

    let report = client
        .scenario("smoke", &ScenarioSpec::scaled("x1000", 1_000.0))
        .expect("scenario");
    println!(
        "scenario `{}`: feasible={} violation={:.1} cached={}",
        report.scenario, report.feasible, report.total_violation, report.cached_relations
    );
    assert!(report.feasible, "uniform scaling must stay feasible");

    // Workload evolution: a newly observed query arrives; ship only the
    // delta and let the server re-solve just the relation it touches.
    let mut drift = SpjQuery::new("drift-1");
    drift.add_table("web_sales");
    drift.set_predicate(
        "web_sales",
        TablePredicate::always_true().with(ColumnPredicate::new("ws_quantity", CompareOp::Lt, 30)),
    );
    let harvested = harvest_workload(&db, &[drift]).expect("harvest delta query");
    let entry = harvested.entries.into_iter().next().expect("one entry");
    let delta = WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("annotated"));
    let published = client
        .delta_publish("smoke", &delta)
        .expect("delta publish");
    assert_eq!(published.info.version, 2, "delta must bump the version");
    assert_eq!(
        published.report.reused(),
        published.report.relations.len() - 1,
        "only web_sales re-solves"
    );
    assert_eq!(published.diff.changed_relations(), vec!["web_sales"]);
    println!(
        "delta-published `{}` v{}: {} reused, {} re-solved; changed: {:?}",
        published.info.name,
        published.info.version,
        published.report.reused(),
        published.report.cold_solved(),
        published.diff.changed_relations()
    );

    // A scenario is a delta against the latest version: an identity
    // scenario on the delta-published v2 reuses every relation.
    let identity = client
        .scenario("smoke", &ScenarioSpec::scaled("x1", 1.0))
        .expect("identity scenario");
    assert_eq!(
        identity.cached_relations, published.info.relations,
        "an identity scenario must reuse every relation of v2"
    );
    println!(
        "scenario `{}` against v2: {} of {} relations reused",
        identity.scenario, identity.cached_relations, published.info.relations
    );

    client.shutdown().expect("shutdown");
    println!("service round-trip OK");
}
