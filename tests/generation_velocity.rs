//! Experiment E4 — dynamic generation velocity against the memcpy floor.
//!
//! Block-constant structure means streaming a relation is *supposed* to cost
//! about as much as copying its wire bytes. This gate measures that: a
//! row-chunked copy of the same byte volume is the floor any per-tuple wire
//! protocol can reach, and both wire streaming (frame assembly into a byte
//! counter) and sequential unthrottled generation must stay within 2× of it.
//!
//! Timing assertions mean nothing unoptimized, so the gate runs in release
//! builds only: `cargo test --release --test generation_velocity -- --nocapture`.

use hydra::core::client::ClientSite;
use hydra::core::vendor::VendorSite;
use hydra::datagen::sink::TupleSink;
use hydra::service::wire::FrameSink;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Discards everything, counting bytes — the wire half must measure frame
/// assembly, not kernel socket buffers.
struct NullCounter {
    bytes: u64,
}

impl Write for NullCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; run with --release")]
fn wire_streaming_and_generation_stay_within_2x_of_memcpy() {
    // 32 queries over a 30 000-row `store_sales`.
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 30_000);
    targets.insert("web_sales".to_string(), 30_000 / 3);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: 32,
            seed: 131,
            ..Default::default()
        },
    )
    .generate();
    let package = ClientSite::new(db)
        .prepare_package(&queries, false)
        .expect("client package");
    let result = VendorSite::default()
        .regenerate(&package)
        .expect("regeneration");
    let generator = result.generator();
    let rows = result.summary.relation("store_sales").unwrap().total_rows;

    let sequential_best = (0..3)
        .map(|_| {
            generator
                .generate_with_velocity("store_sales", None, None)
                .unwrap()
                .achieved_rows_per_sec
        })
        .fold(0.0f64, f64::max);

    let table = result.schema.table("store_sales").unwrap().clone();
    let wire_run = || {
        let mut counter = NullCounter { bytes: 0 };
        let start = Instant::now();
        let mut sink = FrameSink::new(&mut counter, 1024, (0, rows));
        sink.begin(&table, rows);
        let mut stream = generator.stream_range("store_sales", 0..rows).unwrap();
        while let Some(block) = stream.next_block(u64::MAX) {
            assert_eq!(sink.write_block(&block), block.len());
        }
        sink.finish();
        assert!(sink.into_error().is_none());
        (start.elapsed(), counter.bytes)
    };
    let (_, total_bytes) = wire_run(); // warm-up + byte volume
    let wire_time = (0..5).map(|_| wire_run().0).min().unwrap();
    let row_bytes = (total_bytes / rows.max(1)).max(1) as usize;
    let src = vec![0x5au8; total_bytes as usize + row_bytes];
    let mut dst: Vec<u8> = Vec::with_capacity(src.len());
    let memcpy_time = (0..5)
        .map(|_| {
            dst.clear();
            let start = Instant::now();
            let mut off = 0usize;
            while dst.len() < total_bytes as usize {
                dst.extend_from_slice(&src[off..off + row_bytes]);
                off += row_bytes;
            }
            black_box(&dst);
            start.elapsed()
        })
        .min()
        .unwrap();
    let memcpy_bps = total_bytes as f64 / memcpy_time.as_secs_f64();
    let wire_bps = total_bytes as f64 / wire_time.as_secs_f64();
    let wire_ratio = wire_time.as_secs_f64() / memcpy_time.as_secs_f64();
    let generation_time = Duration::from_secs_f64(rows as f64 / sequential_best.max(1.0));
    let generation_ratio = generation_time.as_secs_f64() / memcpy_time.as_secs_f64();
    println!(
        "[E4] memcpy floor ({} MiB in {}-byte rows)  ->  {:>8.0} MiB/s",
        total_bytes >> 20,
        row_bytes,
        memcpy_bps / (1u64 << 20) as f64
    );
    println!(
        "[E4]   wire streaming  ->  {:>8.0} MiB/s   ({wire_ratio:.2}x memcpy)",
        wire_bps / (1u64 << 20) as f64
    );
    println!("[E4]   sequential generation  ->  {generation_ratio:.2}x memcpy");
    for (name, ratio) in [
        ("wire streaming", wire_ratio),
        ("sequential generation", generation_ratio),
    ] {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "{name} ratio must be a positive finite number, got {ratio}"
        );
        assert!(
            ratio <= 2.0,
            "{name} must stay within 2x of the memcpy floor, measured {ratio:.2}x \
             ({:.1} ms vs memcpy {:.1} ms for {total_bytes} bytes)",
            if name.starts_with("wire") {
                wire_time.as_secs_f64() * 1e3
            } else {
                generation_time.as_secs_f64() * 1e3
            },
            memcpy_time.as_secs_f64() * 1e3,
        );
    }
}
