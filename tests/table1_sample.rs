//! Experiment E5: the paper's Table 1 — sample tuples regenerated from the
//! ITEM summary.
//!
//! The defining pattern of Table 1 is that the primary key is an auto-number
//! and each summary row's value vector repeats for exactly `#TUPLES`
//! consecutive keys: the sample shows `item_sk` 0, 917, 938, 963 as the starts
//! of consecutive blocks.  This test rebuilds that situation and asserts the
//! same structure on the regenerated stream.

use hydra::catalog::schema::{ColumnBuilder, SchemaBuilder};
use hydra::catalog::types::{DataType, Value};
use hydra::datagen::generator::DynamicGenerator;
use hydra::summary::summary::{DatabaseSummary, RelationSummary};
use std::collections::BTreeMap;

fn item_summary() -> RelationSummary {
    // The exact groups from Table 1: (40, pop, Music) x 917, (91, dresses,
    // Women) x 21, (0, accessories, Men) x 25, (1, reference, Electronics) ...
    let mut s = RelationSummary::new("item", Some("i_item_sk".to_string()));
    for (manager, class, category, count) in [
        (40i64, "pop", "Music", 917u64),
        (91, "dresses", "Women", 21),
        (0, "accessories", "Men", 25),
        (1, "reference", "Electronics", 37),
    ] {
        let mut v = BTreeMap::new();
        v.insert("i_manager_id".to_string(), Value::Integer(manager));
        v.insert("i_class".to_string(), Value::str(class));
        v.insert("i_category".to_string(), Value::str(category));
        s.push_row(count, v);
    }
    s
}

#[test]
fn table1_sample_tuples_follow_the_block_pattern() {
    let schema = SchemaBuilder::new("db")
        .table("item", |t| {
            t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
                .column(ColumnBuilder::new("i_class", DataType::Varchar(None)))
                .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
        })
        .build()
        .unwrap();
    let mut summary = DatabaseSummary::new();
    summary.insert(item_summary());
    let generator = DynamicGenerator::new(&schema, &summary);

    let rows: Vec<_> = generator.stream("item").unwrap().collect();
    assert_eq!(rows.len(), 1000);

    // Block starts land exactly at the Table 1 item_sk values.
    let starts = [0usize, 917, 938, 963];
    let expected = [
        (40i64, "pop", "Music"),
        (91, "dresses", "Women"),
        (0, "accessories", "Men"),
        (1, "reference", "Electronics"),
    ];
    for (&start, &(manager, class, category)) in starts.iter().zip(&expected) {
        let row = &rows[start];
        assert_eq!(row[0], Value::Integer(start as i64), "auto-numbered PK");
        assert_eq!(row[1], Value::Integer(manager));
        assert_eq!(row[2], Value::str(class));
        assert_eq!(row[3], Value::str(category));
    }

    // Within each block every tuple shares the value vector, and the PK is
    // strictly increasing by one.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Integer(i as i64));
    }
    assert!(rows[0..917].iter().all(|r| r[3] == Value::str("Music")));
    assert!(rows[917..938].iter().all(|r| r[3] == Value::str("Women")));
    assert!(rows[938..963].iter().all(|r| r[3] == Value::str("Men")));
    assert!(rows[963..1000]
        .iter()
        .all(|r| r[3] == Value::str("Electronics")));
}

#[test]
fn table1_run_lengths_match_tuple_counts() {
    let summary = item_summary();
    assert_eq!(
        summary.pk_block(0).unwrap(),
        hydra::partition::interval::Interval::new(0, 917)
    );
    assert_eq!(
        summary.pk_block(1).unwrap(),
        hydra::partition::interval::Interval::new(917, 938)
    );
    assert_eq!(
        summary.pk_block(2).unwrap(),
        hydra::partition::interval::Interval::new(938, 963)
    );
    assert_eq!(
        summary.pk_block(3).unwrap(),
        hydra::partition::interval::Interval::new(963, 1000)
    );
    // The summary for 1000 tuples is a few hundred bytes — "a few KB" at the
    // scale of a full schema.
    assert!(summary.size_bytes() < 1024);
}
