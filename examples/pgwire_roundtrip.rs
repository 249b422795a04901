//! One-shot round trip over *both* wire protocols of a running
//! `hydra-serve` — the pgwire CI smoke driver and a minimal usage example.
//!
//! ```sh
//! cargo run --release -p hydra --bin hydra-serve -- \
//!     --addr 127.0.0.1:0 --pg-addr 127.0.0.1:0 &
//! cargo run --release --example pgwire_roundtrip -- \
//!     127.0.0.1:FRAME_PORT 127.0.0.1:PG_PORT
//! ```
//!
//! Publishes the retail fixture over the frame protocol, then speaks raw
//! PostgreSQL v3 to the other listener: startup handshake (`database`
//! parameter selects the summary), a summary-direct aggregate, a full
//! `SELECT *` scan, and a clean `Terminate`.  Every pg answer is checked
//! against the frame protocol's answer for the same question, then the
//! frame `Shutdown` stops both listeners.
//!
//! Pass `--no-shutdown` as a trailing flag to leave the server running
//! (the obs-smoke CI job scrapes `/metrics` after the round trip).

use hydra::core::session::Hydra;
use hydra::pgwire::types::pg_text;
use hydra::pgwire::PgClient;
use hydra::service::client::HydraClient;
use hydra::service::protocol::StreamRequest;
use hydra::workload::retail_client_fixture;

fn main() {
    let mut args = std::env::args().skip(1);
    let frame_addr = args
        .next()
        .expect("usage: pgwire_roundtrip FRAME PG [--no-shutdown]");
    let pg_addr = args
        .next()
        .expect("usage: pgwire_roundtrip FRAME PG [--no-shutdown]");
    let shutdown = match args.next().as_deref() {
        None => true,
        Some("--no-shutdown") => false,
        Some(other) => panic!("unknown argument `{other}` (try --no-shutdown)"),
    };

    // Client site: profile a small retail warehouse and publish it over
    // the frame protocol — the pg listener serves the same registry.
    let session = Hydra::builder().build();
    let (db, queries) = retail_client_fixture(900, 300, 6);
    let schema = db.schema.clone();
    let package = session.profile(db, &queries).expect("profile");

    let mut frame = HydraClient::connect(frame_addr.as_str()).expect("frame connect");
    let info = frame.publish("smoke", &package).expect("publish");
    println!(
        "published `{}` v{}: {} relations, {} rows",
        info.name, info.version, info.relations, info.total_rows
    );

    // PostgreSQL startup: the `database` parameter names the summary.
    let mut pg = PgClient::connect(pg_addr.as_str(), Some("smoke")).expect("pg connect");
    println!("pg handshake OK (backend pid {:?})", pg.backend_pid());

    // A summary-direct aggregate, answered identically on both protocols.
    let sql = "select count(*), avg(item.i_current_price) from store_sales, item \
               where store_sales.ss_item_fk = item.i_item_sk group by item.i_category";
    let frame_answer = frame.query("smoke", sql).expect("frame query");
    let pg_answer = pg.query(sql).expect("pg query");
    assert_eq!(
        pg_answer.tag,
        format!("SELECT {}", frame_answer.rows.len()),
        "pg and frame answers must have the same cardinality"
    );
    for (frame_row, pg_row) in frame_answer.rows.iter().zip(&pg_answer.rows) {
        let frame_cells: Vec<Option<String>> = frame_row
            .key
            .iter()
            .chain(frame_row.aggregates.iter())
            .map(|value| pg_text(value, None))
            .collect();
        assert_eq!(&frame_cells, pg_row, "pg and frame answers must agree");
    }
    println!(
        "aggregate over pg wire: {} groups, columns {:?}",
        pg_answer.rows.len(),
        pg_answer.columns
    );

    // A full scan: `SELECT *` over pg must stream exactly the rows the
    // frame protocol's tuple stream regenerates.
    let (frame_rows, _) = frame
        .stream_collect(StreamRequest::full("smoke", "item"))
        .expect("frame stream");
    let scan = pg.query("select * from item").expect("pg scan");
    assert_eq!(scan.rows.len(), frame_rows.len(), "scan cardinality");
    let column_types: Vec<_> = schema
        .table("item")
        .expect("item in schema")
        .columns()
        .iter()
        .map(|c| c.data_type.clone())
        .collect();
    for (frame_row, pg_row) in frame_rows.iter().zip(&scan.rows) {
        let frame_cells: Vec<Option<String>> = frame_row
            .iter()
            .enumerate()
            .map(|(i, value)| pg_text(value, column_types.get(i)))
            .collect();
        assert_eq!(&frame_cells, pg_row, "pg scan must match the frame stream");
    }
    println!(
        "scanned {} rows of `item` over pg wire ({})",
        scan.rows.len(),
        scan.tag
    );

    // Errors carry SQLSTATE + caret position and keep the session alive.
    let err = pg
        .query("select count(* from store_sales")
        .expect_err("bad sql");
    println!("parse error surfaced as: {err}");
    let recovered = pg.query("select 1").expect("session survives an error");
    assert_eq!(recovered.rows, vec![vec![Some("1".to_string())]]);

    pg.terminate().expect("pg terminate");

    if shutdown {
        // The frame Shutdown stops *both* listeners — the server exits 0.
        frame.shutdown().expect("frame shutdown");
    }
    println!("pgwire round-trip OK");
}
