//! Experiment E4 — dynamic generation velocity (the Figure 4 rows/s slider and
//! the paper's "velocity can be closely regulated" claim).
//!
//! Measures (a) the raw, unthrottled tuple-generation throughput of the
//! dynamic generator, sequential vs. sharded (1/2/4/8 row-range shards, one
//! thread per shard), (b) execution of a join query over the dataless
//! database vs. over a fully materialized copy, and prints how closely the
//! governor tracks several target velocities.
//!
//! The sharded series is the scale-out headline: on an N-core machine the
//! 4-shard row should approach 4× the 1-shard throughput (on a single-core
//! container the series degenerates to ~1×, which the printed table makes
//! visible rather than hiding).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hydra_bench::{regenerate, retail_package};
use hydra_datagen::sink::{CountingSink, TupleSink};
use hydra_engine::database::Database;
use hydra_engine::exec::Executor;
use hydra_query::plan::LogicalPlan;
use hydra_service::wire::FrameSink;
use std::io::Write;
use std::time::{Duration, Instant};

/// Discards everything, counting bytes — the wire bench must measure frame
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

fn bench_generation_velocity(c: &mut Criterion) {
    let package = retail_package(32, 30_000);
    let result = regenerate(&package);
    let generator = result.generator();
    let dataless = result.dataless_database();
    let schema = result.schema.clone();
    let rows = result.summary.relation("store_sales").unwrap().total_rows;

    // Velocity-tracking table (not a timing bench: the run time is the target).
    println!("[E4] velocity regulation on store_sales ({rows} rows):");
    for target in [10_000.0, 100_000.0, 1_000_000.0] {
        let stats = generator
            .generate_with_velocity("store_sales", Some(target), Some(20_000))
            .unwrap();
        println!(
            "[E4]   target {:>9.0} rows/s  ->  achieved {:>9.0} rows/s ({} rows)",
            target, stats.achieved_rows_per_sec, stats.rows
        );
    }
    let unthrottled = generator
        .generate_with_velocity("store_sales", None, None)
        .unwrap();
    println!(
        "[E4]   unthrottled          ->  achieved {:>9.0} rows/s ({} rows)",
        unthrottled.achieved_rows_per_sec, unthrottled.rows
    );

    // Sequential vs sharded throughput series (1-vs-N shards, same relation,
    // same CountingSink consumer so the multiplier is apples-to-apples).
    println!("[E4] sharded generation throughput on store_sales ({rows} rows):");
    let sequential_best = (0..3)
        .map(|_| {
            generator
                .generate_with_velocity("store_sales", None, None)
                .unwrap()
                .achieved_rows_per_sec
        })
        .fold(0.0f64, f64::max);
    println!("[E4]   sequential  ->  {sequential_best:>12.0} rows/s   (baseline)");
    for shards in [1usize, 2, 4, 8] {
        // A couple of timed runs outside criterion so the series is printed
        // as an at-a-glance table.
        let mut best = 0.0f64;
        for _ in 0..3 {
            let run = generator
                .stream_sharded("store_sales", shards, |_, _| CountingSink::new())
                .unwrap();
            assert_eq!(run.total_rows(), rows);
            best = best.max(run.achieved_rows_per_sec());
        }
        println!(
            "[E4]   {shards} shard(s)  ->  {best:>12.0} rows/s   ({:.2}x vs sequential)",
            if sequential_best > 0.0 {
                best / sequential_best
            } else {
                0.0
            }
        );
    }

    // Memcpy-relative series: block-constant structure means streaming a
    // relation is *supposed* to cost about as much as copying its wire bytes.
    // Measure that honestly — a row-chunked copy of the same byte volume is
    // the floor any per-tuple wire protocol can reach — and hard-assert the
    // 2x acceptance bound so a regression fails CI, not just a README table.
    let table = schema.table("store_sales").unwrap().clone();
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
            criterion::black_box(&dst);
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

    let mut group = c.benchmark_group("E4_generation_velocity");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Elements(rows));
    group.bench_function("stream_store_sales_unthrottled", |b| {
        b.iter(|| generator.stream("store_sales").unwrap().count());
    });
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("stream_store_sales_{shards}_shards"), |b| {
            b.iter(|| {
                generator
                    .stream_sharded("store_sales", shards, |_, _| CountingSink::new())
                    .unwrap()
                    .total_rows()
            });
        });
    }

    // Dataless vs materialized query execution.
    let query = package.workload.entries[0].query.clone();
    let plan = LogicalPlan::from_query(&query).unwrap();
    let mut materialized = Database::empty(schema.clone());
    for table in schema.table_names() {
        let mem = generator.materialize(table).unwrap();
        materialized
            .table_mut(table)
            .unwrap()
            .load_unchecked(mem.rows().to_vec());
    }
    group.bench_function("query_on_dataless_database", |b| {
        b.iter(|| Executor::new(&dataless).run(&plan).unwrap().rows.len());
    });
    group.bench_function("query_on_materialized_database", |b| {
        b.iter(|| Executor::new(&materialized).run(&plan).unwrap().rows.len());
    });
    group.finish();
}

criterion_group!(benches, bench_generation_velocity);
criterion_main!(benches);
