//! Protocol differential: the PostgreSQL front-end and the frame protocol
//! are two skins over one engine, so the same query issued through
//! `HydraClient::query` (typed frames) and through the in-tree pg
//! simple-query client (raw wire bytes) must return *identical* answers —
//! for in-class summary-direct queries and for out-of-class scan fallbacks
//! alike — and a pg `SELECT * FROM t` must concatenate bit-identical to
//! `DynamicGenerator::stream`.
//!
//! Both sides of every comparison are rendered through the same
//! `pg_text` encoder, so equality is exact string equality on the wire
//! representation, not a lossy numeric comparison.

use hydra::catalog::schema::Schema;
use hydra::datagen::exec::{ExecMode, QueryEngine};
use hydra::pgwire::types::pg_text;
use hydra::query::exec::{ExecStrategy, QueryAnswer};

#[path = "common/tester.rs"]
mod tester;
use tester::HydraTester;

/// Render a frame-protocol `QueryAnswer` exactly as the pg front-end must:
/// group keys typed by the schema (dates become ISO strings), aggregates by
/// value.
fn answer_as_pg_grid(schema: &Schema, answer: &QueryAnswer) -> Vec<Vec<Option<String>>> {
    answer
        .rows
        .iter()
        .map(|row| {
            let keys = row.key.iter().enumerate().map(|(i, value)| {
                let declared = answer
                    .group_columns
                    .get(i)
                    .and_then(|qualified| qualified.split_once('.'))
                    .and_then(|(table, column)| {
                        schema
                            .table(table)?
                            .columns()
                            .iter()
                            .find(|c| c.name == column)
                            .map(|c| c.data_type.clone())
                    });
                pg_text(value, declared.as_ref())
            });
            let aggregates = row.aggregates.iter().map(|value| pg_text(value, None));
            keys.chain(aggregates).collect()
        })
        .collect()
}

/// The retail star schema queried both ways: summary-direct aggregates
/// (joins, GROUP BY, range predicates) and an out-of-class query that the
/// engine silently degrades to a tuple scan — answers must match exactly.
#[test]
fn frame_and_pg_answers_are_identical() {
    let tester = HydraTester::retail();
    let mut frame = tester.client();
    let mut pg = tester.pg(Some("retail"));
    let entry = tester.registry().get("retail").expect("published");
    let schema = entry.regeneration().schema.clone();

    for sql in [
        // Global aggregate, no joins: the volumetric contract.
        "select count(*), sum(store_sales.ss_quantity) from store_sales",
        // FK join + GROUP BY over a dimension attribute.
        "select count(*), avg(item.i_current_price) from store_sales, item \
         where store_sales.ss_item_fk = item.i_item_sk group by item.i_category",
        // Two joins, two dimension predicates, GROUP BY.
        "select count(*), sum(store_sales.ss_sales_price) from store_sales, item, date_dim \
         where store_sales.ss_item_fk = item.i_item_sk \
           and store_sales.ss_date_fk = date_dim.d_date_sk \
           and item.i_manager_id >= 40 and date_dim.d_year >= 2000 \
         group by date_dim.d_year",
        // Fact-side range predicate.
        "select count(*), sum(store_sales.ss_sk) from store_sales \
         where store_sales.ss_sk >= 123 and store_sales.ss_sk < 1711",
        // Out of the summary-direct class (GROUP BY a primary key):
        // answered by the scan fallback on both protocol paths.
        "select count(*) from store_sales \
         where store_sales.ss_sk < 40 group by store_sales.ss_sk",
    ] {
        let frame_answer = frame.query("retail", sql).expect(sql);
        let pg_answer = pg.query(sql).expect(sql);

        let expected_columns: Vec<String> = frame_answer
            .group_columns
            .iter()
            .chain(frame_answer.aggregate_columns.iter())
            .cloned()
            .collect();
        assert_eq!(pg_answer.columns, expected_columns, "columns for {sql}");
        assert_eq!(
            pg_answer.rows,
            answer_as_pg_grid(&schema, &frame_answer),
            "grid for {sql}"
        );
        assert_eq!(
            pg_answer.tag,
            format!("SELECT {}", frame_answer.rows.len()),
            "tag for {sql}"
        );
    }
}

/// The loop/pool split of an out-of-class query equals `ExecMode::Auto`:
/// a primary key compared with a string is out of the summary-direct
/// class, so both protocols classify it on the event loop, hand it to the
/// pool, and answer it by tuple scan — identically.
#[test]
fn out_of_class_fallback_scans_identically_on_both_protocols() {
    let tester = HydraTester::retail();
    let mut frame = tester.client();
    let mut pg = tester.pg(Some("retail"));
    let entry = tester.registry().get("retail").expect("published");
    let schema = entry.regeneration().schema.clone();
    let tuple_scans = || {
        tester
            .obs()
            .snapshot()
            .value("hydra_query_total", Some(("strategy", "tuple_scan")))
            .unwrap_or(0.0)
    };
    let sql = "select count(*), sum(store_sales.ss_quantity) from store_sales \
               where store_sales.ss_sk < 'zzz'";

    let frame_answer = frame.query("retail", sql).expect(sql);
    assert_eq!(frame_answer.strategy, ExecStrategy::TupleScan);
    assert!(frame_answer.scanned_tuples > 0);
    assert_eq!(tuple_scans(), 1.0);
    let auto = QueryEngine::new(&entry.generator())
        .query_mode(sql, ExecMode::Auto)
        .expect("in-process Auto");
    assert_eq!(frame_answer, auto, "loop/pool split diverges from Auto");

    let pg_answer = pg.query(sql).expect(sql);
    assert_eq!(tuple_scans(), 2.0, "pg did not answer by tuple scan");
    assert_eq!(pg_answer.rows, answer_as_pg_grid(&schema, &frame_answer));
    assert_eq!(pg_answer.tag, format!("SELECT {}", frame_answer.rows.len()));
}

/// `SELECT * FROM t` over the pg wire is the *same stream* as
/// `DynamicGenerator::stream`: every relation of the summary, every row,
/// every column, bit-identical after text encoding.
#[test]
fn pg_scan_is_bit_identical_to_dynamic_generation() {
    let tester = HydraTester::retail();
    let mut pg = tester.pg(None); // sole entry: no database parameter needed
    let entry = tester.registry().get("retail").expect("published");
    let schema = entry.regeneration().schema.clone();
    let generator = entry.generator();

    for table_name in ["store_sales", "item", "date_dim"] {
        let table = schema.table(table_name).expect(table_name);
        let column_types: Vec<_> = table
            .columns()
            .iter()
            .map(|c| c.data_type.clone())
            .collect();
        let expected: Vec<Vec<Option<String>>> = generator
            .stream(table_name)
            .expect(table_name)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, value)| pg_text(value, column_types.get(i)))
                    .collect()
            })
            .collect();

        let got = pg
            .query(&format!("select * from {table_name}"))
            .expect(table_name);
        let expected_columns: Vec<String> =
            table.columns().iter().map(|c| c.name.clone()).collect();
        assert_eq!(got.columns, expected_columns, "columns of {table_name}");
        assert_eq!(got.rows, expected, "rows of {table_name}");
        assert_eq!(got.tag, format!("SELECT {}", expected.len()));
    }
}
