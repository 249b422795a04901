//! Pins the bytes the encoders write for the benchmark's drift base.
//!
//! The drift base is the retail-32 package of `hydra-benchmark`'s recipe
//! (retail schema, `retail_row_targets(0.02)` with 10 000 `store_sales`
//! and 3 333 `web_sales` rows, client data seed 500, workload seed 131);
//! its first delta is the first query past the 64-query workload.  The
//! test publishes the base on a WAL-backed registry, applies the delta,
//! and pins FNV-1a digests of:
//!
//! * the package's compact and pretty JSON text;
//! * the delta's WAL record bytes as the codec writes them;
//! * the `Describe` reply (`SummaryDetail`) of the delta's version, as
//!   compact JSON and as codec bytes.
//!
//! A record carries wall-clock build times, so before it is digested every
//! `Duration` in it (a `{secs, nanos}` map) is zeroed and the typed record
//! is encoded again.  Any change to the JSON writer, the codec or a
//! signature hash that moves a byte of an artifact written to disk or the
//! wire fails here.

use hydra_core::client::ClientSite;
use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_query::delta::WorkloadDelta;
use hydra_service::codec;
use hydra_service::registry::{SummaryRegistry, WalRecord};
use hydra_workload::{
    generate_client_database, harvest_workload, retail_row_targets, retail_schema, DataGenConfig,
    WorkloadGenConfig, WorkloadGenerator,
};
use serde::{Content, Deserialize};

/// The benchmark's client-data and workload seeds.
const CLIENT_DATA_SEED: u64 = 500;
const WORKLOAD_SEED: u64 = 131;
/// Queries the benchmark harvests past the 64-query workload as deltas.
const DELTA_TAIL_AT_64: usize = 24;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The drift base package and its first delta.
fn drift_base() -> (TransferPackage, WorkloadDelta) {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 10_000);
    targets.insert("web_sales".to_string(), 3_333);
    let db = generate_client_database(
        &schema,
        &targets,
        &DataGenConfig {
            seed: CLIENT_DATA_SEED,
            ..Default::default()
        },
    );
    let queries = |num_queries| {
        WorkloadGenerator::new(
            schema.clone(),
            WorkloadGenConfig {
                num_queries,
                seed: WORKLOAD_SEED,
                ..Default::default()
            },
        )
        .generate()
    };
    let site = ClientSite::new(db.clone());
    let package = site
        .prepare_package(&queries(32), false)
        .expect("profile retail-32");
    let tail = queries(64 + DELTA_TAIL_AT_64);
    let entry = harvest_workload(&db, &tail[64..65])
        .expect("harvest the first delta query")
        .entries
        .remove(0);
    let delta = WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("annotated"));
    (package, delta)
}

/// `content` with every `{secs, nanos}` map set to zero.
fn zero_durations(content: &mut Content) {
    match content {
        Content::Map(entries) => {
            let is_duration = entries.len() == 2
                && entries[0].0 == "secs"
                && entries[1].0 == "nanos"
                && entries.iter().all(|(_, v)| matches!(v, Content::I64(_)));
            if is_duration {
                for (_, v) in entries.iter_mut() {
                    *v = Content::I64(0);
                }
            } else {
                entries.iter_mut().for_each(|(_, v)| zero_durations(v));
            }
        }
        Content::Seq(items) => items.iter_mut().for_each(zero_durations),
        _ => {}
    }
}

#[test]
fn drift_base_encodes_to_its_pinned_bytes() {
    let (package, delta) = drift_base();
    let compact = serde_json::to_string(&package).expect("compact JSON");
    let pretty = serde_json::to_string_pretty(&package).expect("pretty JSON");

    let dir = std::env::temp_dir().join(format!("hydra-encode-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry =
        SummaryRegistry::durable(Hydra::builder().build(), &dir, 1000).expect("open durable");
    registry.publish("drift", package).expect("publish");
    registry.delta_publish("drift", &delta).expect("delta");
    let detail = registry.get("drift").expect("registered").detail();
    drop(registry);
    let records = hydra_wal::replay(&dir.join("wal.log"))
        .expect("replay")
        .records;
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(records.len(), 2, "a publish and a delta record");
    let mut content: Content = codec::from_bytes(&records[1]).expect("decode the delta record");
    zero_durations(&mut content);
    let record = WalRecord::deserialize_content(&content).expect("a WAL record");
    assert_eq!(record.version, 2);
    let record_bytes = codec::to_bytes(&record);
    let detail_json = serde_json::to_string(&detail).expect("detail JSON");
    let detail_bytes = codec::to_bytes(&detail);

    let digests = [
        ("package JSON", compact.len(), fnv1a(compact.as_bytes())),
        (
            "package pretty JSON",
            pretty.len(),
            fnv1a(pretty.as_bytes()),
        ),
        ("delta WAL record", record_bytes.len(), fnv1a(&record_bytes)),
        (
            "Describe JSON",
            detail_json.len(),
            fnv1a(detail_json.as_bytes()),
        ),
        ("Describe codec", detail_bytes.len(), fnv1a(&detail_bytes)),
    ];
    assert_eq!(digests, PINNED);
}

/// `(artifact, length in bytes, FNV-1a digest)`, recorded before the
/// encoders wrote into sinks instead of through a data-model tree (the
/// delta WAL record since retained solves keep no regions).
const PINNED: [(&str, usize, u64); 5] = [
    ("package JSON", 75054, 0xa4cc_d156_c710_863d),
    ("package pretty JSON", 258370, 0xbe54_5200_dc65_a3a3),
    ("delta WAL record", 8787, 0x64cc_e7ee_b70e_e81a),
    ("Describe JSON", 1040, 0x447b_920c_44ec_c26d),
    ("Describe codec", 412, 0x51da_aac8_24a6_ea31),
];
