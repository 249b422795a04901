//! Transfer-package round-trips: the client → vendor hand-off survives JSON
//! serialization (the demo's interchange format) with and without the
//! anonymization layer, and the vendor produces identical summaries from the
//! original and the deserialized package.

use hydra::core::transfer::TransferPackage;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::Hydra;

fn package(anonymize: bool) -> TransferPackage {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), 2_000);
    targets.insert("web_sales".to_string(), 500);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 8,
            ..Default::default()
        },
    )
    .generate();
    Hydra::builder()
        .anonymize(anonymize)
        .build()
        .profile(db, &queries)
        .unwrap()
}

#[test]
fn package_json_round_trip_is_lossless() {
    for anonymize in [false, true] {
        let original = package(anonymize);
        let json = original.to_json().unwrap();
        let parsed = TransferPackage::from_json(&json).unwrap();
        assert_eq!(original, parsed, "anonymize = {anonymize}");
        assert_eq!(original.transfer_size_bytes().unwrap(), json.len());
    }
}

#[test]
fn vendor_output_is_identical_for_serialized_and_in_memory_packages() {
    let original = package(false);
    let parsed = TransferPackage::from_json(&original.to_json().unwrap()).unwrap();
    // Cache off: both regenerations must independently produce identical
    // summaries from the serialized and in-memory packages.
    let session = Hydra::builder().build();
    let a = session.regenerate(&original).unwrap();
    let b = session.regenerate(&parsed).unwrap();
    // Deterministic alignment ⇒ byte-identical summaries.
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.accuracy, b.accuracy);
}

#[test]
fn package_is_orders_of_magnitude_smaller_than_the_client_database() {
    let p = package(false);
    let client_rows = p.metadata.total_rows();
    let bytes = p.transfer_size_bytes().unwrap();
    // ~2.5K fact rows (each tens of bytes wide) vs a JSON synopsis; the ratio
    // only improves at real scale because the synopsis is data-scale-free.
    assert!(client_rows > 2_000);
    assert!(
        bytes < 3_000_000,
        "package unexpectedly large: {bytes} bytes"
    );
}

#[test]
fn unknown_fields_are_tolerated_for_forward_compatibility() {
    // A vendor running this version must accept packages produced by a newer
    // client that extends the synopsis (versioned transfer format): unknown
    // object keys are ignored at every nesting level.
    let original = package(false);
    let json = original.to_json().unwrap();

    // Inject unknown fields at the top level and inside nested objects.
    let extended = json
        .replacen(
            "{",
            "{\n  \"synopsis_version\": 7,\n  \"producer\": {\"name\": \"hydra-next\", \"build\": [2, 1]},",
            1,
        )
        .replacen("\"metadata\":", "\"future_hint\": null, \"metadata\":", 1);
    assert_ne!(extended, json);

    let parsed = TransferPackage::from_json(&extended).unwrap();
    assert_eq!(
        original, parsed,
        "unknown fields must not change the decoded package"
    );
}

#[test]
fn roundtrip_preserves_every_annotated_cardinality() {
    let original = package(false);
    let parsed = TransferPackage::from_json(&original.to_json().unwrap()).unwrap();
    for (a, b) in original
        .workload
        .entries
        .iter()
        .zip(&parsed.workload.entries)
    {
        let (Some(aqp_a), Some(aqp_b)) = (a.aqp.as_ref(), b.aqp.as_ref()) else {
            panic!("AQP lost in roundtrip")
        };
        let cards_a: Vec<u64> = aqp_a
            .root
            .preorder()
            .iter()
            .map(|n| n.cardinality)
            .collect();
        let cards_b: Vec<u64> = aqp_b
            .root
            .preorder()
            .iter()
            .map(|n| n.cardinality)
            .collect();
        assert_eq!(cards_a, cards_b, "query {}", a.query.name);
    }
}
