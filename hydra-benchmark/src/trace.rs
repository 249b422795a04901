//! The per-layer run: spans around calls into each layer's public
//! functions, replayed **in-process and single-threaded** on a reduced
//! slice of every phase's inputs, plus the server's own counters scraped
//! before and after each timed window of a normal session.
//!
//! Spans are recorded from the benchmark's own files only; the program is
//! not instrumented.  They are kept in memory and written to `trace.jsonl`
//! when the replay ends.  A span's *self time* is its duration minus the
//! durations of its direct children.  Two kinds of children exist: `call`
//! spans measured here with a clock around the call, and `reported` spans
//! whose duration the callee returned in its own report (the summary
//! builder reports partitioning and LP time per relation) — those are laid
//! out back to back from their parent's start.

use crate::inputs::{ClientInputs, OpKind, Plan, Shape, PACKAGE_QUERIES, SLICE_ROWS};
use crate::session::{ClientTimings, Metric, Metrics, Outcome};
use crate::stats::{percentile, sorted};
use crate::wire::CountingWriter;
use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_datagen::exec::{ExecMode, QueryEngine};
use hydra_datagen::sink::{CountingSink, CsvSink, TupleSink};
use hydra_query::delta::ConstraintSet;
use hydra_query::parser::parse_aggregate_query_for_schema;
use hydra_service::protocol::{encode_frame, Response, StreamRequest};
use hydra_service::registry::SummaryRegistry;
use hydra_service::FrameSink;
use hydra_summary::builder::SummaryBuilder;
use hydra_summary::exec::SummaryExecutor;
use hydra_summary::index::PkBlockIndex;
use hydra_summary::verify::verify_summary;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Crate name without `hydra-`.
    pub layer: &'static str,
    /// Spans of one replayed op share an id.
    pub op_id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// `call` (clocked here) or `reported` (duration returned by the callee).
    pub source: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for single-threaded replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Next free offset for a reported child, per open span.
    reported_cursor: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            reported_cursor: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            source: "call",
        });
        self.stack.push(index);
        self.reported_cursor.push(start_ns);
        let value = f(self);
        self.reported_cursor.pop();
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Records a child of the innermost open span whose duration the callee
    /// reported; must be called after the work it describes, while the
    /// parent is still open.
    pub fn reported(&mut self, name: &'static str, layer: &'static str, duration: Duration) {
        let (Some(&parent), Some(cursor)) = (self.stack.last(), self.reported_cursor.last_mut())
        else {
            return;
        };
        let start_ns = *cursor;
        let end_ns = start_ns + duration.as_nanos() as u64;
        *cursor = end_ns;
        self.spans.push(Span {
            name,
            layer,
            op_id: self.spans[parent].op_id,
            parent: Some(parent),
            start_ns,
            end_ns,
            source: "reported",
        });
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations (ms) of the spans named `name`, optionally of one op.
    pub fn durations_ms(&self, name: &str, op_id: Option<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && op_id.is_none_or(|id| s.op_id == id))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(own) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"source\":\"{}\"}}",
                span.name,
                span.layer,
                span.op_id,
                parent,
                span.start_ns,
                span.end_ns,
                own,
                span.source
            )?;
        }
        out.flush()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn p50(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5).map_or(0.0, |p| p.value)
}

/// What the replay yields besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer metrics measured in-process.
    pub metrics: Metrics,
    /// Σ children self time ÷ the real parent call, per parent: how much of
    /// `VendorSite::regenerate_stateful` / `apply_delta` the spans explain.
    pub coverage: BTreeMap<&'static str, f64>,
}

fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
    metrics.insert(
        name.into(),
        Metric {
            value,
            unit,
            n,
            supported: true,
        },
    );
}

/// Rows the stream probes generate.
const PROBE_ROWS: u64 = 2_000_000;

/// Replays a reduced slice of every phase in-process under `tracer`.
/// `scratch` is an empty directory for the in-process durable registry.
pub fn replay(
    tracer: &mut Tracer,
    client: &ClientInputs,
    plan: &Plan,
    scratch: &Path,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let session = Hydra::builder().compare_aqps(false).build();
    replay_publish(tracer, &session, client, &mut out)?;
    replay_drift(tracer, &session, client, scratch, &mut out)?;
    let registry = SummaryRegistry::in_memory(session.clone());
    replay_stream(&registry, plan, &mut out)?;
    replay_serve(&registry, plan, &mut out)?;
    Ok(out)
}

/// The vendor pipeline on one package of every size, composed here from
/// the layers' public functions exactly as `VendorSite::regenerate_stateful`
/// composes them, next to one clocked call of the real thing.
fn replay_publish(
    tracer: &mut Tracer,
    session: &Hydra,
    client: &ClientInputs,
    out: &mut Replay,
) -> Result<(), String> {
    let m = &mut out.metrics;
    for (size, package) in client.base.iter().enumerate() {
        let op = size as u64;
        let q = PACKAGE_QUERIES[size];
        let json = tracer.span("serde_json.package_encode", "serde_json", op, |_| {
            package.to_json()
        });
        let json = json.map_err(|e| e.to_string())?;
        let decoded = tracer.span("serde_json.package_decode", "serde_json", op, |_| {
            TransferPackage::from_json(&json)
        });
        decoded.map_err(|e| e.to_string())?;

        let built = tracer.span("core.regenerate", "core", op, |tracer| {
            let schema = &package.metadata.schema;
            let constraints = tracer.span("query.constraints", "query", op, |_| {
                ConstraintSet::from_workload(&package.workload)
            })?;
            let row_targets: BTreeMap<String, u64> = schema
                .table_names()
                .iter()
                .map(|t| (t.clone(), package.metadata.row_count(t)))
                .collect();
            let builder = SummaryBuilder::new(session.config().builder.clone());
            let (summary, report, baseline) = tracer
                .span("summary.build", "summary", op, |tracer| {
                    let built = builder.build_retaining(
                        schema,
                        &row_targets,
                        constraints.by_table(),
                        Some(&package.metadata),
                    );
                    if let Ok((_, report, _)) = &built {
                        for relation in &report.relations {
                            tracer.reported(
                                "partition.region",
                                "partition",
                                relation.lp.partition_time,
                            );
                            tracer.reported("lp.solve", "lp", relation.lp.solve_time);
                        }
                    }
                    built
                })
                .map_err(hydra_core::error::HydraError::Summary)?;
            tracer
                .span("summary.verify", "summary", op, |_| {
                    verify_summary(&summary, constraints.by_table())
                })
                .map_err(hydra_core::error::HydraError::Summary)?;
            Ok::<_, hydra_core::error::HydraError>((summary, report, baseline))
        });
        let (summary, report, baseline) =
            built.map_err(|e| format!("replaying retail-{q}: {e}"))?;
        let real = tracer.span("core.regenerate_stateful", "core", op, |_| {
            session.regenerate_stateful(package)
        });
        real.map_err(|e| format!("regenerating retail-{q}: {e}"))?;

        let ms_of = |t: &Tracer, name: &str| t.durations_ms(name, Some(op)).iter().sum::<f64>();
        let regenerate = ms_of(tracer, "core.regenerate_stateful");
        let solve = ms_of(tracer, "lp.solve");
        put(m, format!("core.regenerate_ms.q{q}"), regenerate, "ms", 1);
        put(
            m,
            format!("lp.solve_ms.q{q}"),
            solve,
            "ms",
            report.relations.len(),
        );
        if size == 2 {
            let build = ms_of(tracer, "summary.build");
            let partition = ms_of(tracer, "partition.region");
            put(m, "core.regenerate_ms", regenerate, "ms", 1);
            put(m, "lp.solve_ms", solve, "ms", report.relations.len());
            put(
                m,
                "serde_json.package_encode_ms",
                ms_of(tracer, "serde_json.package_encode"),
                "ms",
                1,
            );
            put(
                m,
                "serde_json.package_decode_ms",
                ms_of(tracer, "serde_json.package_decode"),
                "ms",
                1,
            );
            put(
                m,
                "query.constraints_ms",
                ms_of(tracer, "query.constraints"),
                "ms",
                1,
            );
            put(
                m,
                "partition.region_ms",
                partition,
                "ms",
                report.relations.len(),
            );
            put(m, "summary.build_ms", build, "ms", 1);
            // What the builder does besides partitioning and solving:
            // alignment of region counts to pk blocks and referential
            // post-processing.
            put(
                m,
                "summary.align_ms",
                (build - partition - solve).max(0.0),
                "ms",
                1,
            );
            put(
                m,
                "summary.verify_ms",
                ms_of(tracer, "summary.verify"),
                "ms",
                1,
            );
            let regions: usize = baseline
                .relations
                .values()
                .map(|r| r.solved.partition.regions().len())
                .sum();
            put(m, "partition.regions", regions as f64, "count", 1);
            put(
                m,
                "lp.variables",
                report.total_lp_variables() as f64,
                "count",
                1,
            );
            put(
                m,
                "lp.constraints",
                report.total_lp_constraints() as f64,
                "count",
                1,
            );
            put(
                m,
                "summary.blocks",
                summary.total_summary_rows() as f64,
                "count",
                1,
            );
            // Coverage: the children's time against the real call.
            let explained =
                ms_of(tracer, "query.constraints") + build + ms_of(tracer, "summary.verify");
            out.coverage
                .insert("core.regenerate_ms", explained / regenerate);

            let registry = SummaryRegistry::in_memory(session.clone());
            let published = tracer.span("service.registry_publish", "service", op, |_| {
                registry.publish("replay", package.clone())
            });
            published.map_err(|e| e.to_string())?;
            put(
                m,
                "service.registry_publish_ms",
                ms_of(tracer, "service.registry_publish"),
                "ms",
                1,
            );
        }
    }
    Ok(())
}

/// Deltas replayed in-process.
const REPLAY_DELTAS: usize = 4;

/// The delta pipeline and the durable registry, in-process.
fn replay_drift(
    tracer: &mut Tracer,
    session: &Hydra,
    client: &ClientInputs,
    scratch: &Path,
    out: &mut Replay,
) -> Result<(), String> {
    let m = &mut out.metrics;
    let base = client.drift_base();
    let mut state = session
        .regenerate_stateful(base)
        .map_err(|e| format!("drift base: {e}"))?;
    let builder = SummaryBuilder::new(session.config().builder.clone());
    let (mut warm, mut solved, mut reused) = (0usize, 0usize, 0usize);
    let mut explained_ms = 0.0;
    for i in 0..REPLAY_DELTAS {
        let op = 100 + i as u64;
        let delta = client.delta(i);
        // The steps of `VendorSite::apply_delta`, composed from the layers'
        // public functions against the previous state.  Whichever of the
        // composed and the real call runs second finds the caches warm, so
        // the order alternates.
        let composed = |tracer: &mut Tracer| {
            tracer.span("core.delta", "core", op, |tracer| {
                let merged = tracer.span("query.merge_delta", "query", op, |_| {
                    let workload = state.package.workload.apply_delta(&delta)?;
                    let constraints = state.constraints.merge_delta(&workload, &delta)?;
                    Ok::<_, hydra_query::error::QueryError>((workload, constraints))
                });
                let (_, constraints) = merged.map_err(|e| e.to_string())?;
                let schema = &state.package.metadata.schema;
                let row_targets: BTreeMap<String, u64> = schema
                    .table_names()
                    .iter()
                    .map(|t| (t.clone(), state.package.metadata.row_count(t)))
                    .collect();
                let built = tracer.span("summary.build_delta", "summary", op, |tracer| {
                    let built = builder.build_delta(
                        schema,
                        &row_targets,
                        constraints.by_table(),
                        Some(&state.package.metadata),
                        state.baseline(),
                    );
                    if let Ok(built) = &built {
                        for relation in &built.delta_report.relations {
                            tracer.reported(
                                "lp.solve",
                                "lp",
                                Duration::from_micros(relation.solve_micros),
                            );
                        }
                    }
                    built
                });
                let built = built.map_err(|e| e.to_string())?;
                tracer
                    .span("summary.verify", "summary", op, |_| {
                        verify_summary(&built.summary, constraints.by_table())
                    })
                    .map_err(|e| e.to_string())?;
                // Handed out, so that — as for the real call — dropping the
                // rebuilt summary is not on the clock.
                Ok::<_, String>((built, constraints))
            })
        };
        let real = |tracer: &mut Tracer| {
            tracer.span("core.profile_delta", "core", op, |_| {
                session.profile_delta(&state, &delta)
            })
        };
        let (replayed, outcome) = if i % 2 == 0 {
            (composed(tracer), real(tracer))
        } else {
            let outcome = real(tracer);
            (composed(tracer), outcome)
        };
        replayed.map_err(|e| format!("replaying delta {i}: {e}"))?;
        let outcome = outcome.map_err(|e| format!("delta {i}: {e}"))?;
        explained_ms += tracer
            .durations_ms("core.delta", Some(op))
            .iter()
            .sum::<f64>();
        warm += outcome.report.warm_solved();
        solved += outcome.report.warm_solved() + outcome.report.cold_solved();
        reused += outcome.report.reused();
        state = outcome.state;
    }
    let real = tracer.durations_ms("core.profile_delta", None);
    put(m, "core.delta_ms", mean(&real), "ms", real.len());
    out.coverage
        .insert("core.delta_ms", explained_ms / real.iter().sum::<f64>());
    put(
        m,
        "lp.warm_hit_ratio",
        if solved == 0 {
            0.0
        } else {
            warm as f64 / solved as f64
        },
        "ratio",
        solved,
    );
    put(
        m,
        "summary.delta_reused_relations",
        reused as f64 / REPLAY_DELTAS as f64,
        "count",
        REPLAY_DELTAS,
    );

    // Durable against in-memory publish of the same package, then the
    // checkpoint and the recovery of the resulting directory.
    let op = 200;
    let memory = SummaryRegistry::in_memory(session.clone());
    tracer
        .span("service.registry_publish", "service", op, |_| {
            memory.publish("drift", base.clone())
        })
        .map_err(|e| e.to_string())?;
    let dir = scratch.join("replay-wal");
    let every = crate::inputs::CHECKPOINT_EVERY;
    let durable =
        SummaryRegistry::durable(session.clone(), &dir, every).map_err(|e| e.to_string())?;
    tracer
        .span("wal.durable_publish", "wal", op, |_| {
            durable.publish("drift", base.clone())
        })
        .map_err(|e| e.to_string())?;
    let in_memory_ms = tracer.durations_ms("service.registry_publish", Some(op))[0];
    let durable_ms = tracer.durations_ms("wal.durable_publish", Some(op))[0];
    put(
        m,
        "wal.durable_publish_extra_ms",
        durable_ms - in_memory_ms,
        "ms",
        1,
    );
    for i in 0..REPLAY_DELTAS - 1 {
        durable
            .delta_publish("drift", &client.delta(i))
            .map_err(|e| e.to_string())?;
    }
    tracer
        .span("wal.checkpoint", "wal", op, |_| durable.checkpoint())
        .map_err(|e| e.to_string())?;
    put(
        m,
        "wal.checkpoint_ms",
        tracer.durations_ms("wal.checkpoint", Some(op))[0],
        "ms",
        1,
    );
    drop(durable);
    let recovered = tracer
        .span("wal.recover", "wal", op, |_| {
            SummaryRegistry::durable(session.clone(), &dir, every)
        })
        .map_err(|e| e.to_string())?;
    put(
        m,
        "wal.recover_ms",
        tracer.durations_ms("wal.recover", Some(op))[0],
        "ms",
        1,
    );
    let spec = format!("drift@{}", REPLAY_DELTAS);
    const RESOLVES: usize = 20_000;
    let started = Instant::now();
    for _ in 0..RESOLVES {
        std::hint::black_box(recovered.resolve(std::hint::black_box(&spec)).is_ok());
    }
    put(
        m,
        "service.registry_resolve_ns",
        started.elapsed().as_nanos() as f64 / RESOLVES as f64,
        "ns",
        RESOLVES,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Generation and encoding floors of the bulk stream.
fn replay_stream(registry: &SummaryRegistry, plan: &Plan, out: &mut Replay) -> Result<(), String> {
    let m = &mut out.metrics;
    let bulk = registry
        .publish(&plan.bulk.0, plan.bulk.1.clone())
        .map_err(|e| e.to_string())?;
    let generator = bulk.generator();
    let range = 0..PROBE_ROWS;

    // FrameSink first: it fixes bytes per row for the memcpy floor.
    let mut writer = CountingWriter::default();
    let started = Instant::now();
    let mut sink = FrameSink::new(
        &mut writer,
        StreamRequest::DEFAULT_BATCH_ROWS,
        (0, PROBE_ROWS),
    );
    generator
        .stream_range_into("store_sales", range.clone(), &mut sink, None)
        .map_err(|e| e.to_string())?;
    let took = started.elapsed().as_secs_f64();
    let frame_bytes = writer.0;
    put(
        m,
        "service.frame_sink_mb_per_s",
        frame_bytes as f64 / 1e6 / took,
        "MB/s",
        1,
    );
    let bytes_per_row = frame_bytes as f64 / PROBE_ROWS as f64;
    put(m, "service.frame_bytes_per_row", bytes_per_row, "B", 1);

    // The floor: the same bytes moved row-sized chunk by row-sized chunk.
    let row = vec![0x5au8; bytes_per_row.ceil() as usize];
    let mut buffer: Vec<u8> = Vec::with_capacity(row.len() * 65_536);
    let started = Instant::now();
    let mut moved = 0u64;
    while moved < frame_bytes {
        buffer.clear();
        for _ in 0..65_536 {
            buffer.extend_from_slice(std::hint::black_box(&row));
        }
        std::hint::black_box(&buffer);
        moved += buffer.len() as u64;
    }
    put(
        m,
        "host.memcpy_mb_per_s",
        moved as f64 / 1e6 / started.elapsed().as_secs_f64(),
        "MB/s",
        1,
    );

    let started = Instant::now();
    let mut stream = generator
        .stream_range("store_sales", range.clone())
        .map_err(|e| e.to_string())?;
    let mut sink = CountingSink::new();
    while let Some(block) = stream.next_block(StreamRequest::DEFAULT_BATCH_ROWS) {
        sink.write_block(&block);
    }
    put(
        m,
        "datagen.block_rows_per_s",
        PROBE_ROWS as f64 / started.elapsed().as_secs_f64(),
        "rows/s",
        1,
    );

    let row_probe = PROBE_ROWS / 4;
    let started = Instant::now();
    let mut sink = CountingSink::new();
    for row in generator
        .stream_range("store_sales", 0..row_probe)
        .map_err(|e| e.to_string())?
    {
        sink.accept(row);
    }
    put(
        m,
        "datagen.row_rows_per_s",
        row_probe as f64 / started.elapsed().as_secs_f64(),
        "rows/s",
        1,
    );

    let started = Instant::now();
    let mut csv = CsvSink::new(CountingWriter::default());
    generator
        .stream_range_into("store_sales", 0..row_probe, &mut csv, None)
        .map_err(|e| e.to_string())?;
    let csv_bytes = csv.into_inner().0;
    put(
        m,
        "datagen.csv_mb_per_s",
        csv_bytes as f64 / 1e6 / started.elapsed().as_secs_f64(),
        "MB/s",
        1,
    );
    Ok(())
}

/// Median round trip of a 64-byte ping against an in-process echo thread:
/// the floor under every query latency on this host.
fn loopback_rtt_us() -> Result<f64, String> {
    const PINGS: usize = 2_000;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || {
        let Ok((mut peer, _)) = listener.accept() else {
            return;
        };
        let _ = peer.set_nodelay(true);
        let mut buf = [0u8; 64];
        while peer.read_exact(&mut buf).is_ok() {
            if peer.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::with_capacity(PINGS);
    {
        let mut conn = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut buf = [7u8; 64];
        for _ in 0..PINGS {
            let started = Instant::now();
            conn.write_all(&buf).map_err(|e| e.to_string())?;
            conn.read_exact(&mut buf).map_err(|e| e.to_string())?;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
    } // closing the connection ends the echo loop
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    Ok(p50(samples))
}

/// The layers under one interactive query, one scan and one slice.
fn replay_serve(registry: &SummaryRegistry, plan: &Plan, out: &mut Replay) -> Result<(), String> {
    let m = &mut out.metrics;
    let mid = registry
        .publish(&plan.mid.0, plan.mid.1.clone())
        .map_err(|e| e.to_string())?;
    let regeneration = mid.regeneration();
    let schema = &regeneration.schema;
    let executor = SummaryExecutor::new(schema, &regeneration.summary);
    put(m, "host.loopback_rtt_us", loopback_rtt_us()?, "us", 2_000);

    const REPS: usize = 20;
    let (mut parse, mut classify, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut exec: BTreeMap<Shape, Vec<f64>> = BTreeMap::new();
    for text in &plan.queries {
        let OpKind::InClass(shape) = text.kind else {
            continue;
        };
        for _ in 0..REPS {
            let started = Instant::now();
            let query = parse_aggregate_query_for_schema("query", &text.sql, schema)
                .map_err(|e| e.to_string())?;
            parse.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let class = executor.classify(&query).map_err(|e| e.to_string())?;
            classify.push(started.elapsed().as_secs_f64() * 1e6);
            class.map_err(|reason| format!("`{}` is out of class: {reason}", text.sql))?;
            let started = Instant::now();
            let answer = executor.execute(&query).map_err(|e| e.to_string())?;
            exec.entry(shape)
                .or_default()
                .push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let frame = encode_frame(&Response::QueryResult(answer)).map_err(|e| e.to_string())?;
            encode.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(frame);
        }
    }
    let n = parse.len();
    put(m, "query.parse_us", p50(parse), "us", n);
    put(m, "summary.classify_us", p50(classify), "us", n);
    put(m, "serde_json.answer_encode_us", p50(encode), "us", n);
    let all: Vec<f64> = exec.values().flatten().copied().collect();
    put(m, "summary.direct_exec_us", p50(all), "us", n);
    for (shape, samples) in exec {
        let n = samples.len();
        put(
            m,
            format!("summary.direct_exec_us.{}", shape.suffix()),
            p50(samples),
            "us",
            n,
        );
    }

    // The scan fallback, in-process: rows regenerated per second.
    let generator = mid.generator();
    let engine = QueryEngine::new(&generator).with_scan_shards(2);
    if let Some(text) = plan.queries.iter().find(|t| t.kind == OpKind::Scan) {
        let started = Instant::now();
        let answer = engine
            .query_mode(&text.sql, ExecMode::ScanOnly)
            .map_err(|e| e.to_string())?;
        put(
            m,
            "datagen.scan_rows_per_s",
            answer.scanned_tuples as f64 / started.elapsed().as_secs_f64(),
            "rows/s",
            1,
        );
    }

    // One slice: locate, seek to a cold offset, encode 1000 rows.
    let bulk = registry
        .resolve(&plan.bulk.0)
        .map_err(|e| format!("bulk fixture: {e}"))?;
    let bulk_generator = bulk.generator();
    let relation = bulk_generator
        .summary
        .relation("store_sales")
        .ok_or("bulk has no store_sales")?;
    let index = PkBlockIndex::new(relation);
    let starts = plan.slice_starts();
    if starts.is_empty() {
        return Err("the plan has no slices".to_string());
    }
    const LOCATES: usize = 200_000;
    let started = Instant::now();
    for i in 0..LOCATES {
        std::hint::black_box(index.locate(std::hint::black_box(starts[i % starts.len()])));
    }
    put(
        m,
        "summary.index_locate_ns",
        started.elapsed().as_nanos() as f64 / LOCATES as f64,
        "ns",
        LOCATES,
    );
    let (mut seek, mut slice) = (Vec::new(), Vec::new());
    for &start in &starts {
        let started = Instant::now();
        let mut stream = bulk_generator
            .stream_range("store_sales", start..start + SLICE_ROWS)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(stream.next_block(1).map(|b| b.len()));
        seek.push(started.elapsed().as_secs_f64() * 1e6);

        let mut writer = CountingWriter::default();
        let started = Instant::now();
        let mut sink = FrameSink::new(
            &mut writer,
            StreamRequest::DEFAULT_BATCH_ROWS,
            (start, start + SLICE_ROWS),
        );
        bulk_generator
            .stream_range_into("store_sales", start..start + SLICE_ROWS, &mut sink, None)
            .map_err(|e| e.to_string())?;
        slice.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let n = seek.len();
    put(m, "datagen.seek_us", p50(seek), "us", n);
    put(m, "service.slice_encode_us", p50(slice), "us", n);
    Ok(())
}

/// Combines the replay, the scraped session and the client timings into
/// the per-layer metric set.
pub fn per_layer_metrics(
    replay: Replay,
    session: &Outcome,
    timings: ClientTimings,
) -> Result<Metrics, String> {
    let mut m = replay.metrics;
    let side = |key: &str| -> Result<f64, String> {
        session
            .side
            .get(key)
            .copied()
            .ok_or_else(|| format!("the session did not record `{key}`"))
    };
    let e2e = |name: &str| -> Result<f64, String> {
        session
            .end_to_end
            .get(name)
            .map(|metric| metric.value)
            .ok_or_else(|| format!("the session did not measure `{name}`"))
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    // → setup_s
    put(&mut m, "workload.clientdb_ms", timings.clientdb_ms, "ms", 1);
    put(&mut m, "core.profile_ms", timings.profile_131_ms, "ms", 1);
    put(&mut m, "workload.harvest_ms", timings.harvest_ms, "ms", 1);

    // wal: the server's own counters over the drift window and at restart.
    let records = side("drift.hydra_wal_records_total")?;
    put(&mut m, "wal.records", records, "count", 1);
    put(
        &mut m,
        "wal.bytes_per_record",
        ratio(side("drift.hydra_wal_bytes_total")?, records),
        "B",
        records as usize,
    );
    put(
        &mut m,
        "wal.checkpoints",
        side("drift.hydra_wal_checkpoints_total")?,
        "count",
        1,
    );
    put(
        &mut m,
        "wal.checkpoint_stall_max_ms",
        side("drift.checkpoint_stall_max_ms")?,
        "ms",
        1,
    );
    put(
        &mut m,
        "wal.amplification",
        ratio(side("drift.wal_dir_bytes")?, side("drift.request_bytes")?),
        "ratio",
        1,
    );
    put(
        &mut m,
        "wal.recovered_versions",
        side("drift.recovered_versions")?,
        "count",
        1,
    );
    put(
        &mut m,
        "wal.recovered_cold_solves",
        side("drift.recovered_cold_solves")?,
        "count",
        1,
    );

    // pgwire and reactor: measured at the socket and by `Stats`.
    put(
        &mut m,
        "pgwire.scan_mb_per_s",
        ratio(side("stream.pg_bytes")? / 1e6, side("stream.pg_seconds")?),
        "MB/s",
        1,
    );
    put(
        &mut m,
        "pgwire.datarow_bytes_per_row",
        ratio(
            side("stream_pg.hydra_pg_datarow_bytes_total")?,
            side("stream.pg_rows")?,
        ),
        "B",
        1,
    );
    put(
        &mut m,
        "reactor.bytes_out_per_s",
        ratio(
            side("stream_frame.hydra_reactor_bytes_out_total")?,
            side("stream.frame_seconds")?,
        ),
        "B/s",
        1,
    );
    put(
        &mut m,
        "reactor.parks",
        side("stream_frame.hydra_reactor_parks_total")?,
        "count",
        1,
    );
    put(
        &mut m,
        "reactor.write_queue_peak_bytes",
        side("stream_frame.hydra_reactor_write_queue_peak_bytes")?,
        "B",
        1,
    );
    put(
        &mut m,
        "reactor.dispatch_p99_us",
        side("stream_frame.hydra_reactor_dispatch_seconds_p99")? * 1e6,
        "us",
        1,
    );
    put(
        &mut m,
        "reactor.poll_wait_p99_us",
        side("stream_frame.hydra_reactor_poll_wait_seconds_p99")? * 1e6,
        "us",
        1,
    );

    // What the wire adds to an interactive query.
    let in_process = [
        "query.parse_us",
        "summary.classify_us",
        "summary.direct_exec_us",
        "serde_json.answer_encode_us",
    ]
    .iter()
    .map(|name| m.get(*name).map_or(0.0, |metric| metric.value))
    .sum::<f64>();
    let floor = m
        .get("host.loopback_rtt_us")
        .map_or(0.0, |metric| metric.value);
    let frame_p50 = e2e("frame_query_p50_us")?;
    put(
        &mut m,
        "service.query_overhead_us",
        frame_p50 - in_process - floor,
        "us",
        1,
    );
    put(
        &mut m,
        "pgwire.query_overhead_us",
        e2e("pg_query_p50_us")? - frame_p50,
        "us",
        1,
    );
    // What the session measured at the socket but is too unsteady to bound.
    put(
        &mut m,
        "service.slice_p50_us",
        side("serve.slice_p50_us")?,
        "us",
        side("serve.slice_p50_us.n")? as usize,
    );
    put(
        &mut m,
        "datagen.scan_query_p50_ms",
        side("serve.scan_query_p50_ms")?,
        "ms",
        side("serve.scan_query_p50_ms.n")? as usize,
    );
    put(
        &mut m,
        "service.frame_query_p99_us",
        side("serve.frame_query_p99_us")?,
        "us",
        side("serve.frame_query_p99_us.n")? as usize,
    );
    put(
        &mut m,
        "service.drift_query_p99_us",
        side("drift.reader_p99_us")?,
        "us",
        side("drift.reader_p99_us.n")? as usize,
    );
    let direct = side("serve.hydra_query_total.summary_direct")?;
    let scanned = side("serve.hydra_query_total.tuple_scan")?;
    put(
        &mut m,
        "datagen.direct_ratio",
        ratio(direct, direct + scanned),
        "ratio",
        1,
    );
    put(
        &mut m,
        "obs.stats_scrape_ms",
        side("serve.stats_scrape_ms")?,
        "ms",
        1,
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose spans are written by hand, so durations are exact.
    fn hand_built() -> Tracer {
        let mut tracer = Tracer::default();
        let mut push = |name, parent, start_ns, end_ns| {
            tracer.spans.push(Span {
                name,
                layer: "test",
                op_id: 1,
                parent,
                start_ns,
                end_ns,
                source: "call",
            });
        };
        push("root", None, 0, 1_000); // 0
        push("a", Some(0), 100, 400); // 1: child of root
        push("a.inner", Some(1), 150, 250); // 2: grandchild
        push("b", Some(0), 400, 900); // 3: sibling of a
        push("other", None, 2_000, 2_500); // 4: second root
        tracer
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = hand_built().self_times_ns();
        assert_eq!(own[0], 1_000 - 300 - 500, "root minus its two children");
        assert_eq!(own[1], 300 - 100, "a minus its child");
        assert_eq!(own[2], 100, "a leaf keeps its duration");
        assert_eq!(own[3], 500);
        assert_eq!(own[4], 500, "an unrelated root is untouched");
        // Self times of a tree sum to its root's duration.
        assert_eq!(own[..4].iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn nested_and_reported_spans_are_children_of_the_open_span() {
        let mut tracer = Tracer::default();
        tracer.span("parent", "core", 7, |t| {
            t.span("child", "summary", 7, |t| {
                t.reported("lp.solve", "lp", Duration::from_nanos(40));
                t.reported("lp.solve", "lp", Duration::from_nanos(60));
            });
            t.span("sibling", "summary", 7, |_| {});
        });
        let names: Vec<_> = tracer.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("parent", None),
                ("child", Some(0)),
                ("lp.solve", Some(1)),
                ("lp.solve", Some(1)),
                ("sibling", Some(0)),
            ]
        );
        // Reported siblings are laid out back to back from the parent's start.
        assert_eq!(tracer.spans[2].start_ns, tracer.spans[1].start_ns);
        assert_eq!(tracer.spans[3].start_ns, tracer.spans[2].end_ns);
        assert_eq!(tracer.spans[3].duration_ns(), 60);
        assert_eq!(tracer.spans[2].source, "reported");
        assert!(tracer.spans.iter().all(|s| s.op_id == 7));
        assert_eq!(tracer.durations_ms("lp.solve", Some(7)).len(), 2);
        assert!(tracer.durations_ms("lp.solve", Some(8)).is_empty());
    }
}
