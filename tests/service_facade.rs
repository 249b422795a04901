//! The service layer through the façade crate: a downstream consumer that
//! depends only on `hydra` can run a full publish → describe → stream →
//! scenario → shutdown round-trip over TCP.

use hydra::service::protocol::{ScenarioSpec, StreamRequest};
use hydra::service::{FrameProtocol, ReactorBuilder};
use hydra::workload::retail_client_fixture;
use hydra::{Hydra, HydraClient, ShutdownSignal, SummaryRegistry};
use std::sync::Arc;

#[test]
fn facade_exposes_the_full_service_round_trip() {
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(500, 150, 5);
    let package = session.profile(db, &queries).expect("profile");

    let vendor = Hydra::builder().build();
    let registry = Arc::new(SummaryRegistry::in_memory(vendor.clone()));
    let signal = ShutdownSignal::new();
    let mut builder = ReactorBuilder::new(vendor.metrics());
    let addr = builder
        .listen(
            "127.0.0.1:0",
            Arc::new(FrameProtocol::new(registry, signal.clone())),
        )
        .expect("bind");
    let server = builder.start(signal).expect("start");

    let mut client = HydraClient::connect(addr).expect("connect");
    let info = client.publish("facade", &package).expect("publish");
    assert_eq!(info.version, 1);
    assert_eq!(info.total_rows, package.metadata.total_rows());

    let detail = client.describe("facade").expect("describe");
    assert!(detail.relations.iter().any(|r| r.table == "store_sales"));

    // The wire stream matches the façade's local sequential stream.
    let local = session.regenerate(&package).expect("solve");
    let mut collect = hydra::datagen::CollectSink::new();
    session
        .stream_table(&local, "store_sales", &mut collect, None, None)
        .expect("local stream");
    let (rows, _) = client
        .stream_collect(StreamRequest::full("facade", "store_sales"))
        .expect("wire stream");
    assert_eq!(rows, collect.rows);

    let report = client
        .scenario("facade", &ScenarioSpec::scaled("x100", 100.0))
        .expect("scenario");
    assert!(report.feasible);
    assert_eq!(report.relation_rows["store_sales"], 50_000);

    client.shutdown().expect("shutdown");
    server.join();
}
