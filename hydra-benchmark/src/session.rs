//! One benchmark run: set-up, then rounds that each drive a slice of the
//! four phases against a spawned `hydra-serve`, and the end-to-end metrics
//! the samples of all rounds yield.
//!
//! Every loop is **closed** — HYDRA's callers are test harnesses and
//! drivers that block on each reply — and **fixed-work**: the op sequence
//! is generated up front from `--seed` and `--seconds` and is the same on
//! both commits of a comparison.  A round trip is timed from the first
//! request byte written to the last reply byte read; decoding and checking
//! the reply happen after the clock has stopped.

use crate::inputs::{
    stream_frame, ClientInputs, OpKind, Plan, QueryText, ServeOp, Workload, CHECKPOINT_EVERY,
    PACKAGE_QUERIES, SLICE_ROWS,
};
use crate::server::{dir_bytes, ServerFlags, ServerProcess};
use crate::stats::{percentile, sorted};
use crate::wire::{decode_response, pg_data_row_values, CountingWriter, FrameConn, PgConn};
use hydra_core::session::Hydra;
use hydra_datagen::exec::{ExecMode, QueryEngine};
use hydra_pgwire::types::pg_text;
use hydra_query::exec::{AnswerRow, ExecStrategy, QueryAnswer};
use hydra_service::protocol::{
    encode_frame, MetricSample, Request, Response, StreamRequest, SummaryDetail,
};
use hydra_service::registry::{RegistryEntry, SummaryRegistry};
use hydra_service::FrameSink;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload whose phase runs at full size.
    pub workload: Workload,
    /// Seed of names, orders, literals and offsets.
    pub seed: u64,
    /// Measurement budget the op counts are derived from.
    pub seconds: f64,
    /// Also scrape server counters around each phase (per-layer run).
    pub scrape: bool,
    /// Directory for the WAL and anything else this run writes.
    pub run_dir: PathBuf,
    /// The `hydra-serve` binary.
    pub server_bin: PathBuf,
    /// Rounds the run is divided into.
    pub rounds: usize,
    /// How many times set-up runs, spread over the rounds; `setup_s` is
    /// their median.
    pub setup_repeats: usize,
    /// Whole-run deadline; an op that starts after it fails the run.
    pub deadline: Instant,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it (1 for a single measurement or a ratio).
    pub n: usize,
    /// `false` for a percentile with fewer than ten samples beyond it.
    pub supported: bool,
}

impl Metric {
    /// A single measurement.
    pub fn single(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            n: 1,
            supported: true,
        }
    }

    /// A nearest-rank percentile of `samples`.
    pub fn percentile_of(samples: &[f64], p: f64, unit: &'static str) -> Option<Metric> {
        let pct = percentile(&sorted(samples.to_vec()), p)?;
        Some(Metric {
            value: pct.value,
            unit,
            n: pct.n,
            supported: pct.supported,
        })
    }
}

/// Named metrics, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Ops sent, refused and answered wrongly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or timed out.
    pub failed: u64,
    /// Requests answered, but not with the expected answer.
    pub wrong: u64,
}

impl Ops {
    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    fn wrong(&mut self) {
        self.attempted += 1;
        self.wrong += 1;
    }
}

/// Outcome of the correctness checks: what failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// `name: detail` of every failed check (capped).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` is only rendered on failure.
    pub fn expect(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        if !ok && self.failures.len() < 64 {
            self.failures.push(format!("{name}: {}", detail()));
        }
        ok
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (tracing off).
    pub end_to_end: Metrics,
    /// Counters and timings that only explain the end-to-end numbers:
    /// server `Stats` deltas per phase (when scraping) and harness-side
    /// by-products.  [`crate::trace`] turns them into per-layer metrics.
    pub side: BTreeMap<String, f64>,
    /// Per-phase op accounting.
    pub ops: BTreeMap<&'static str, Ops>,
    /// Correctness checks.
    pub checks: Checks,
    /// Hash of every generated request byte.
    pub manifest_hash: u64,
}

impl Outcome {
    /// Total ops over all phases.
    pub fn total_ops(&self) -> Ops {
        let mut total = Ops::default();
        for ops in self.ops.values() {
            total.add(*ops);
        }
        total
    }

    /// True when every check passed and no op failed or answered wrongly.
    pub fn correct(&self) -> bool {
        let total = self.total_ops();
        self.checks.passed() && total.failed == 0 && total.wrong == 0
    }
}

/// What the serve phase expects back for one query text.
#[derive(Debug, Clone)]
struct Expected {
    rows: Vec<AnswerRow>,
    pg_grid: Vec<Vec<Option<String>>>,
}

/// The in-process twin of the server: the same packages published to an
/// in-memory registry through `hydra_service`'s public API.  It provides
/// the oracle answers, the reference descriptions and the reference
/// stream encodings; nothing here is timed.
struct Reference {
    registry: SummaryRegistry,
    bulk: Arc<RegistryEntry>,
    expected: Vec<Expected>,
}

/// The product of one set-up.
struct Fixture {
    client: ClientInputs,
    plan: Plan,
    reference: Reference,
    main: ServerProcess,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn check_deadline(options: &Options) -> Result<(), String> {
    if Instant::now() > options.deadline {
        Err("watchdog: the run exceeded its deadline".to_string())
    } else {
        Ok(())
    }
}

/// Sums the `Stats` samples named `name` (optionally of one label value).
pub fn stat(samples: &[MetricSample], name: &str, label: Option<&str>) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && label.is_none_or(|l| s.label_value == l))
        .map(|s| s.value)
        .sum()
}

fn scrape(addr: std::net::SocketAddr) -> Result<(Vec<MetricSample>, Duration), String> {
    let frame = encode_frame(&Request::Stats).map_err(|e| e.to_string())?;
    let mut conn = FrameConn::connect(addr)?;
    let started = Instant::now();
    let reply = conn.round_trip(&frame)?;
    let took = started.elapsed();
    match decode_response(reply)? {
        Response::Stats { samples } => Ok((samples, took)),
        other => Err(format!("unexpected reply to Stats: {other:?}")),
    }
}

/// Counter families whose per-phase deltas the trace run reports.
const SCRAPED: [&str; 9] = [
    "hydra_reactor_bytes_out_total",
    "hydra_reactor_parks_total",
    "hydra_reactor_write_queue_peak_bytes",
    "hydra_reactor_dispatch_seconds_p99",
    "hydra_reactor_poll_wait_seconds_p99",
    "hydra_pg_datarow_bytes_total",
    "hydra_wal_bytes_total",
    "hydra_wal_records_total",
    "hydra_wal_checkpoints_total",
];

/// Renders a frame-protocol answer as the pg front-end must (group keys
/// typed by the schema, aggregates by value).
fn pg_grid(entry: &RegistryEntry, answer: &QueryAnswer) -> Vec<Vec<Option<String>>> {
    let schema = &entry.regeneration().schema;
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

impl Reference {
    /// Publishes the fixtures in-process and computes the serve oracle:
    /// scan-fallback texts and one text per in-class shape by
    /// `ExecMode::ScanOnly`, the remaining in-class texts summary-direct
    /// (the repository's differential tests pin the two to be identical;
    /// scanning 300 k rows for every literal would triple set-up time).
    fn build(plan: &Plan, checks: &mut Checks) -> Result<Reference, String> {
        let session = Hydra::builder().compare_aqps(false).build();
        let registry = SummaryRegistry::in_memory(session);
        let publish = |name: &str, package| {
            registry
                .publish(name, package)
                .map_err(|e| format!("in-process publish of `{name}`: {e}"))
        };
        let mid = publish(&plan.mid.0, plan.mid.1.clone())?;
        let bulk = publish(&plan.bulk.0, plan.bulk.1.clone())?;
        let generator = mid.generator();
        let engine = QueryEngine::new(&generator).with_scan_shards(2);
        let mut scanned_shapes = BTreeSet::new();
        let mut expected = Vec::with_capacity(plan.queries.len());
        for text in &plan.queries {
            let by_scan = match text.kind {
                OpKind::InClass(shape) => scanned_shapes.insert(shape),
                _ => true,
            };
            let mode = if by_scan {
                ExecMode::ScanOnly
            } else {
                ExecMode::SummaryOnly
            };
            let answer = engine
                .query_mode(&text.sql, mode)
                .map_err(|e| format!("oracle for `{}`: {e}", text.sql))?;
            if by_scan && matches!(text.kind, OpKind::InClass(_)) {
                let direct = engine
                    .query_mode(&text.sql, ExecMode::SummaryOnly)
                    .map_err(|e| format!("oracle for `{}`: {e}", text.sql))?;
                checks.expect(
                    "oracle.scan_equals_direct",
                    direct.rows == answer.rows,
                    || text.sql.clone(),
                );
            }
            expected.push(Expected {
                pg_grid: pg_grid(&mid, &answer),
                rows: answer.rows,
            });
        }
        Ok(Reference {
            registry,
            bulk,
            expected,
        })
    }
}

/// Whether a first `Published` acknowledgement matches what the package
/// itself declares: name, version 1, relation and query counts exactly,
/// and the row total to within one tuple per relation — the integral
/// repair of an LP solution may leave a ±1-tuple rounding residue per
/// relation (the exact total is pinned by the in-process `Describe` check).
fn published_as_declared(
    info: &hydra_service::protocol::SummaryInfo,
    name: &str,
    package: &hydra_core::transfer::TransferPackage,
) -> bool {
    let relations = package.metadata.schema.tables().len();
    info.name == name
        && info.version == 1
        && info.relations == relations
        && info.queries == package.query_count()
        && info.total_rows.abs_diff(package.metadata.total_rows()) <= relations as u64
}

/// Publishes `package` under `name` over the wire and checks the
/// acknowledgement against the package's own metadata.
fn publish_fixture(
    conn: &mut FrameConn,
    name: &str,
    frame: &[u8],
    package: &hydra_core::transfer::TransferPackage,
    checks: &mut Checks,
) -> Result<(), String> {
    match conn.call(frame)? {
        Response::Published(info) => {
            checks.expect(
                "fixture.published",
                published_as_declared(&info, name, package),
                || format!("{info:?}"),
            );
            Ok(())
        }
        other => Err(format!("publishing fixture `{name}`: {other:?}")),
    }
}

/// One full set-up: inputs, in-process twin, the main server, fixtures,
/// warm-up.  Everything a run needs before its first timed window.  (A
/// drift cycle brings up its own durable server on an empty directory.)
fn set_up(options: &Options, checks: &mut Checks) -> Result<Fixture, String> {
    let client = ClientInputs::generate()?;
    let plan = Plan::generate(
        &client,
        options.workload,
        options.seed,
        options.seconds,
        options.rounds,
    )?;
    let reference = Reference::build(&plan, checks)?;
    let main = ServerProcess::spawn(
        &options.server_bin,
        &ServerFlags {
            pg: true,
            wal: None,
        },
    )?;
    let mut conn = FrameConn::connect(main.frame_addr)?;
    publish_fixture(&mut conn, &plan.mid.0, &plan.mid_frame, &plan.mid.1, checks)?;
    publish_fixture(
        &mut conn,
        &plan.bulk.0,
        &plan.bulk_frame,
        &plan.bulk.1,
        checks,
    )?;

    // Warm-up: every in-class text once per protocol and one of each other
    // op, so lazily built state (block indexes, wire templates, the
    // connection's first dispatch) is paid before the first window.
    let pg_addr = main.pg_addr.ok_or("main server has no pg listener")?;
    let mut pg = PgConn::connect(pg_addr, &plan.mid.0)?;
    let mut warmed_scan = false;
    for text in &plan.queries {
        if text.kind == OpKind::Scan && std::mem::replace(&mut warmed_scan, true) {
            continue;
        }
        conn.round_trip(&text.frame)?;
        pg.query(&text.pg, false)?;
    }
    let warm = stream_frame(&plan.bulk.0, "store_sales", 0, 50_000)?;
    conn.stream(&warm, false)?;
    pg.query(
        &crate::wire::pg_query_message("select * from web_sales"),
        false,
    )?;

    Ok(Fixture {
        client,
        plan,
        reference,
        main,
    })
}

/// Think time of the drift reader between a reply and its next query.  A
/// reader that spins keeps three threads runnable on the box's two cores
/// (itself, the worker answering it, the worker solving the delta), which
/// makes every delta's latency a scheduler lottery (+-50 % within one run),
/// and it samples by completion: a 300 ms stall is one sample in 40 000.
/// Paced, it samples the server about once a millisecond of wall time.
const READER_THINK: Duration = Duration::from_millis(1);

/// The median over `blocks` of each block's p99.  A p99 over a whole run is
/// the tail of whichever stretch the host treated worst (one 50 ms stall
/// is twenty consecutive slow queries); the p99 of the median block is the
/// tail the server produces when left alone.
fn median_p99(blocks: &[&[f64]]) -> Option<Metric> {
    let tails: Vec<Metric> = blocks
        .iter()
        .filter_map(|block| Metric::percentile_of(block, 0.99, "us"))
        .collect();
    let values: Vec<f64> = tails.iter().map(|m| m.value).collect();
    crate::stats::median(&values).map(|value| Metric {
        value,
        unit: "us",
        n: tails.iter().map(|m| m.n).min().unwrap_or(0),
        supported: tails.iter().all(|m| m.supported),
    })
}

/// [`median_p99`] over five consecutive fifths of time-ordered samples.
fn tail_of_the_median_fifth(samples: &[f64]) -> Option<Metric> {
    let len = samples.len().div_ceil(5).max(1);
    let fifths: Vec<&[f64]> = samples.chunks(len).collect();
    median_p99(&fifths)
}

/// Accumulates what the rounds measure.
#[derive(Default)]
struct Collector {
    side: BTreeMap<String, f64>,
    ops: BTreeMap<&'static str, Ops>,
    checks: Checks,
    peak_rss_mb: f64,
    setup_seconds: Vec<f64>,
    publish_ms: Vec<f64>,
    publish_queries_acked: usize,
    publish_seconds_acked: f64,
    delta_ms: Vec<f64>,
    drift_apply_s: Vec<f64>,
    recovery_s: Vec<f64>,
    wal_bytes_per_version: Vec<f64>,
    /// The reader's latencies, one vector per drift cycle.
    reader_us: Vec<Vec<f64>>,
    // Samples of every round, in time order.
    frame_query_us: Vec<f64>,
    pg_query_us: Vec<f64>,
    scan_ms: Vec<f64>,
    slice_us: Vec<f64>,
    by_shape_us: BTreeMap<&'static str, Vec<f64>>,
    by_size_ms: [Vec<f64>; 3],
}

impl Collector {
    fn ops(&mut self, phase: &'static str) -> &mut Ops {
        self.ops.entry(phase).or_default()
    }

    fn add_side(&mut self, key: impl Into<String>, value: f64) {
        *self.side.entry(key.into()).or_insert(0.0) += value;
    }

    fn max_side(&mut self, key: impl Into<String>, value: f64) {
        let slot = self.side.entry(key.into()).or_insert(value);
        *slot = slot.max(value);
    }

    /// Adds the counter deltas of one scraped window to `phase.*`; gauges
    /// and quantiles keep their highest reading.
    fn record_scrape(&mut self, phase: &str, before: &[MetricSample], after: &[MetricSample]) {
        for family in SCRAPED {
            let key = format!("{phase}.{family}");
            if family.ends_with("_p99") || family.ends_with("_peak_bytes") {
                self.max_side(key, stat(after, family, None));
            } else {
                self.add_side(key, stat(after, family, None) - stat(before, family, None));
            }
        }
        for strategy in ["summary_direct", "tuple_scan"] {
            self.add_side(
                format!("{phase}.hydra_query_total.{strategy}"),
                stat(after, "hydra_query_total", Some(strategy))
                    - stat(before, "hydra_query_total", Some(strategy)),
            );
        }
    }

    /// The end-to-end metrics.  Every phase is spread over all rounds of
    /// the run, so each statistic is taken over samples from the whole run:
    /// on a host whose memory performance swings by a factor of two every
    /// few seconds (the sandbox this was defined on does), that is what
    /// makes a median repeat — a phase run in one piece reports whichever
    /// regime it happened to sit in.
    fn end_to_end(&self) -> Result<Metrics, String> {
        let mut metrics = Metrics::new();
        let mut put = |name: &str, metric: Option<Metric>| -> Result<(), String> {
            let metric = metric.ok_or_else(|| format!("no samples for `{name}`"))?;
            if !(metric.value.is_finite() && metric.value > 0.0) {
                return Err(format!("metric `{name}` is {}", metric.value));
            }
            metrics.insert(name.to_string(), metric);
            Ok(())
        };
        // One measurement per set-up / drift cycle: the median of them.
        let median_of = |values: &[f64], unit: &'static str| {
            crate::stats::median(values).map(|value| Metric {
                value,
                unit,
                n: values.len(),
                supported: true,
            })
        };
        let rate = |amount: f64, seconds: f64, unit: &'static str, n: usize| {
            (seconds > 0.0).then(|| Metric {
                value: amount / seconds,
                unit,
                n,
                supported: true,
            })
        };
        let side = |key: &str| self.side.get(key).copied().unwrap_or(0.0);
        put("setup_s", median_of(&self.setup_seconds, "s"))?;
        put(
            "publish_p50_ms",
            Metric::percentile_of(&self.publish_ms, 0.5, "ms"),
        )?;
        put(
            "publish_queries_per_s",
            rate(
                self.publish_queries_acked as f64,
                self.publish_seconds_acked,
                "1/s",
                self.publish_ms.len(),
            ),
        )?;
        put(
            "delta_publish_p50_ms",
            Metric::percentile_of(&self.delta_ms, 0.5, "ms"),
        )?;
        put("drift_apply_s", median_of(&self.drift_apply_s, "s"))?;
        put("recovery_s", median_of(&self.recovery_s, "s"))?;
        put(
            "wal_bytes_per_version",
            median_of(&self.wal_bytes_per_version, "B"),
        )?;
        put(
            "frame_stream_rows_per_s",
            rate(
                side("stream.frame_rows"),
                side("stream.frame_seconds"),
                "rows/s",
                self.ops
                    .get("stream.frame")
                    .map_or(0, |o| o.attempted as usize),
            ),
        )?;
        put(
            "pg_scan_rows_per_s",
            rate(
                side("stream.pg_rows"),
                side("stream.pg_seconds"),
                "rows/s",
                self.ops
                    .get("stream.pg")
                    .map_or(0, |o| o.attempted as usize),
            ),
        )?;
        put(
            "frame_query_p50_us",
            Metric::percentile_of(&self.frame_query_us, 0.5, "us"),
        )?;
        put(
            "pg_query_p50_us",
            Metric::percentile_of(&self.pg_query_us, 0.5, "us"),
        )?;
        put(
            "server_peak_rss_mb",
            Some(Metric::single(self.peak_rss_mb, "MB")),
        )?;
        Ok(metrics)
    }

    /// Harness-side by-products the per-layer run reports.
    fn finish_side(&mut self) {
        let p50 = |samples: &[f64]| Metric::percentile_of(samples, 0.5, "").map(|m| m.value);
        let by_shape: Vec<(String, f64)> = self
            .by_shape_us
            .iter()
            .filter_map(|(shape, samples)| {
                Some((format!("serve.frame_p50_us.{shape}"), p50(samples)?))
            })
            .collect();
        let by_size: Vec<(String, f64)> = self
            .by_size_ms
            .iter()
            .enumerate()
            .filter_map(|(size, samples)| {
                Some((
                    format!("publish.p50_ms.q{}", PACKAGE_QUERIES[size]),
                    p50(samples)?,
                ))
            })
            .collect();
        self.side.extend(by_shape);
        self.side.extend(by_size);
        // Too unsteady on this host for a bounded end-to-end metric (see
        // BENCHMARK.md), so reported by the per-layer run: the two tails;
        // the scan fallback, which runs on both cores at once and takes
        // twice as long whenever the host gives the box one; and the slice,
        // which moves 137 KB through the write queue and the socket and
        // takes a third longer whenever the host's memory is slow.
        let cycles: Vec<&[f64]> = self.reader_us.iter().map(Vec::as_slice).collect();
        for (key, metric) in [
            (
                "serve.frame_query_p99_us",
                tail_of_the_median_fifth(&self.frame_query_us),
            ),
            ("drift.reader_p99_us", median_p99(&cycles)),
            (
                "serve.scan_query_p50_ms",
                Metric::percentile_of(&self.scan_ms, 0.5, "ms"),
            ),
            (
                "serve.slice_p50_us",
                Metric::percentile_of(&self.slice_us, 0.5, "us"),
            ),
        ] {
            if let Some(metric) = metric {
                self.side.insert(key.to_string(), metric.value);
                self.side.insert(format!("{key}.n"), metric.n as f64);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Publish slice
// ---------------------------------------------------------------------------

fn publish_slice(
    options: &Options,
    fx: &Fixture,
    round: usize,
    out: &mut Collector,
) -> Result<(), String> {
    let publishes = &fx.plan.rounds[round].publishes;
    let mut conn = FrameConn::connect(fx.main.frame_addr)?;
    for op in publishes {
        check_deadline(options)?;
        let started = Instant::now();
        let reply = conn.round_trip(&op.frame).map(<[u8]>::to_vec);
        let took = started.elapsed();
        let info = match reply.and_then(|payload| decode_response(&payload)) {
            Ok(Response::Published(info)) => info,
            _ => {
                out.ops("publish").fail();
                continue;
            }
        };
        if !published_as_declared(&info, &op.name, &op.package) {
            out.ops("publish").wrong();
            continue;
        }
        out.ops("publish").ok();
        out.publish_ms.push(ms(took));
        out.by_size_ms[op.size].push(ms(took));
        out.publish_queries_acked += info.queries;
        out.publish_seconds_acked += took.as_secs_f64();
    }

    // Untimed, first round only: the server's description of one package
    // per size must equal the in-process twin's.  The heavy run checks
    // every size; a light run only the smallest (a retail-131 reference
    // solve costs half a second).
    if round == 0 {
        let sizes_checked = if options.workload == Workload::IngestDrift {
            3
        } else {
            1
        };
        for size in 0..sizes_checked {
            let Some(op) = publishes.iter().find(|op| op.size == size) else {
                continue;
            };
            let twin = fx
                .reference
                .registry
                .publish(&op.name, op.package.clone())
                .map_err(|e| format!("in-process publish of `{}`: {e}", op.name))?
                .detail();
            let described = describe(&mut conn, &op.name)?;
            out.checks.expect(
                "publish.describe_equals_in_process",
                described == twin,
                || format!("{}: server {described:?} vs in-process {twin:?}", op.name),
            );
        }
    }
    Ok(())
}

fn describe(conn: &mut FrameConn, spec: &str) -> Result<SummaryDetail, String> {
    let frame = encode_frame(&Request::Describe {
        name: spec.to_string(),
    })
    .map_err(|e| e.to_string())?;
    match conn.call(&frame)? {
        Response::Described(detail) => Ok(detail),
        other => Err(format!("Describe `{spec}`: {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Drift cycle: deltas on a durable server, crash, recovery
// ---------------------------------------------------------------------------

/// Crash-and-recover rounds per drift cycle.
const RECOVERIES_PER_CYCLE: u64 = 2;

/// One reader sample: which text, how long, and the answer's rows.
struct ReaderSample {
    text: usize,
    micros: f64,
    rows: Vec<AnswerRow>,
    direct: bool,
}

fn drift_cycle(
    options: &Options,
    fx: &Fixture,
    round: usize,
    out: &mut Collector,
) -> Result<(), String> {
    let plan = &fx.plan;
    let wal_dir = options.run_dir.join(format!("wal-{round}"));
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let flags = ServerFlags {
        pg: false,
        wal: Some((wal_dir.clone(), CHECKPOINT_EVERY)),
    };
    // Untimed: a durable server on an empty directory, the base published
    // (WAL record 1) and the reader's texts warmed.
    let durable = ServerProcess::spawn(&options.server_bin, &flags)?;
    let addr = durable.frame_addr;
    let mut writer = FrameConn::connect(addr)?;
    let mut reader = FrameConn::connect(addr)?;
    publish_fixture(
        &mut writer,
        &plan.drift_name,
        &plan.drift_base_frame,
        fx.client.drift_base(),
        &mut out.checks,
    )?;
    for text in &plan.reader_queries {
        reader.round_trip(&text.frame)?;
    }
    let scraped_before = if options.scrape {
        Some(scrape(addr)?.0)
    } else {
        None
    };

    let done = AtomicBool::new(false);
    let mut writer_ops = Ops::default();
    // Round trips of the steps that do not trigger a checkpoint, and the
    // slowest of all steps.
    let mut delta_ms = Vec::new();
    let mut slowest_delta_ms = 0.0f64;
    let mut reader_failed = 0u64;
    let mut window = Duration::ZERO;
    let reader_samples = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut samples: Vec<ReaderSample> = Vec::new();
            let mut next = 0usize;
            // `SeqCst`: the flag orders nothing but itself; the strongest
            // ordering costs nothing at one load per round trip.
            while !done.load(Ordering::SeqCst) {
                let text = next % plan.reader_queries.len();
                next += 1;
                let started = Instant::now();
                let reply = reader.round_trip(&plan.reader_queries[text].frame);
                let took = started.elapsed();
                match reply.and_then(decode_response) {
                    Ok(Response::QueryResult(answer)) => samples.push(ReaderSample {
                        text,
                        micros: us(took),
                        direct: answer.strategy == ExecStrategy::SummaryDirect
                            && answer.scanned_tuples == 0,
                        rows: answer.rows,
                    }),
                    _ => reader_failed += 1,
                }
                std::thread::sleep(READER_THINK);
            }
            samples
        });

        let started = Instant::now();
        for (i, frame) in plan.delta_frames.iter().enumerate() {
            if check_deadline(options).is_err() {
                break;
            }
            let sent = Instant::now();
            let reply = writer.round_trip(frame).map(<[u8]>::to_vec);
            let took = sent.elapsed();
            match reply.and_then(|payload| decode_response(&payload)) {
                Ok(Response::DeltaPublished(published)) => {
                    // Versions are strictly monotonic: base is 1.
                    if published.info.version == i as u32 + 2 {
                        writer_ops.ok();
                        slowest_delta_ms = slowest_delta_ms.max(ms(took));
                        // The base publish is WAL record 1, delta `i` record
                        // `i + 2`; every `CHECKPOINT_EVERY`-th record stalls
                        // behind a checkpoint.  `delta_publish_p50_ms` is the
                        // plain step; `drift_apply_s` pays for the stalls.
                        if (i + 2) % CHECKPOINT_EVERY != 0 {
                            delta_ms.push(ms(took));
                        }
                    } else {
                        writer_ops.wrong();
                    }
                }
                _ => writer_ops.fail(),
            }
        }
        window = started.elapsed();
        done.store(true, Ordering::SeqCst);
        reader_thread.join().expect("reader thread does not panic")
    });
    check_deadline(options)?;

    let versions = plan.delta_frames.len() as u32 + 1;
    out.max_side("drift.checkpoint_stall_max_ms", slowest_delta_ms);
    out.delta_ms.extend(delta_ms);
    out.drift_apply_s.push(window.as_secs_f64());
    out.reader_us
        .push(reader_samples.iter().map(|s| s.micros).collect());
    out.side.insert(
        "drift.request_bytes".into(),
        (plan.drift_base_frame.len() + plan.delta_frames.iter().map(Vec::len).sum::<usize>())
            as f64,
    );

    // Untimed: pin every acknowledged version before the crash.
    let mut pinned: Vec<(SummaryDetail, Vec<Vec<AnswerRow>>)> = Vec::new();
    for version in 1..=versions {
        pinned.push(pin_version(&mut writer, plan, version)?);
    }
    // A reader answer must be the answer of *some* acknowledged version:
    // no torn reads while deltas and checkpoints ran.
    let mut reader_ops = Ops {
        attempted: reader_failed,
        failed: reader_failed,
        wrong: 0,
    };
    for sample in &reader_samples {
        let known = pinned
            .iter()
            .any(|(_, answers)| answers[sample.text] == sample.rows);
        if known && sample.direct {
            reader_ops.ok();
        } else {
            reader_ops.wrong();
        }
    }

    let wal_bytes = dir_bytes(&wal_dir);
    out.wal_bytes_per_version
        .push(wal_bytes as f64 / f64::from(versions));
    out.side
        .insert("drift.wal_dir_bytes".into(), wal_bytes as f64);
    if let Some(before) = &scraped_before {
        let (after, _) = scrape(addr)?;
        out.record_scrape("drift", before, &after);
    }

    // Crash: SIGKILL, restart on the same directory, time to the first
    // successful pinned `Describe` of the last acknowledged version.  The
    // restarted server is crashed once more: recovery is idempotent, and a
    // second sample per cycle halves the spread of a half-second measurement.
    drop(writer);
    let mut recovery_ops = Ops::default();
    let mut victim = durable;
    let (restarted, mut conn) = loop {
        let crashed = Instant::now();
        out.peak_rss_mb = out.peak_rss_mb.max(victim.kill());
        let restarted = ServerProcess::spawn(&options.server_bin, &flags)?;
        let mut conn = FrameConn::connect(restarted.frame_addr)?;
        let last = describe(&mut conn, &format!("{}@{versions}", plan.drift_name));
        out.recovery_s.push(crashed.elapsed().as_secs_f64());
        match last {
            Ok(detail) if detail == pinned[versions as usize - 1].0 => recovery_ops.ok(),
            Ok(_) => recovery_ops.wrong(),
            Err(_) => recovery_ops.fail(),
        }
        if recovery_ops.attempted == RECOVERIES_PER_CYCLE {
            break (restarted, conn);
        }
        victim = restarted;
    };

    // Durability: every acknowledged version reads back bit-identical, and
    // the restarted process solved nothing.
    for version in 1..=versions {
        let after = pin_version(&mut conn, plan, version)?;
        let before = &pinned[version as usize - 1];
        out.checks.expect(
            "drift.version_identical_after_restart",
            after.0 == before.0 && after.1 == before.1,
            || format!("{}@{version}", plan.drift_name),
        );
    }
    let (after_restart, _) = scrape(restarted.frame_addr)?;
    let solves = stat(&after_restart, "hydra_lp_solves_total", None);
    let recovered = stat(&after_restart, "hydra_wal_recovered_records_total", None);
    out.checks
        .expect("drift.zero_solves_after_restart", solves == 0.0, || {
            format!("{solves} LP solves counted by the restarted server")
        });
    out.checks.expect(
        "drift.all_versions_recovered",
        recovered == f64::from(versions),
        || format!("recovered {recovered} of {versions} versions"),
    );
    out.side
        .insert("drift.recovered_versions".into(), recovered);
    out.max_side("drift.recovered_cold_solves", solves);
    drop(conn);
    let (rss, clean) = restarted.shutdown();
    out.peak_rss_mb = out.peak_rss_mb.max(rss);
    out.checks
        .expect("drift.clean_shutdown", clean, || "exit status".to_string());
    let _ = std::fs::remove_dir_all(&wal_dir);

    out.ops("drift.delta").add(writer_ops);
    out.ops("drift.reader").add(reader_ops);
    out.ops("drift.recovery").add(recovery_ops);
    Ok(())
}

/// `Describe name@version` plus the answer rows of every reader text
/// pinned to that version.
fn pin_version(
    conn: &mut FrameConn,
    plan: &Plan,
    version: u32,
) -> Result<(SummaryDetail, Vec<Vec<AnswerRow>>), String> {
    let spec = format!("{}@{version}", plan.drift_name);
    let detail = describe(conn, &spec)?;
    if detail.info.version != version {
        return Err(format!("`{spec}` described as v{}", detail.info.version));
    }
    let mut answers = Vec::with_capacity(plan.reader_queries.len());
    for text in &plan.reader_queries {
        let frame = encode_frame(&Request::Query(hydra_service::protocol::QueryRequest::new(
            spec.clone(),
            text.sql.clone(),
        )))
        .map_err(|e| e.to_string())?;
        match conn.call(&frame)? {
            Response::QueryResult(answer) => answers.push(answer.rows),
            other => return Err(format!("query on `{spec}`: {other:?}")),
        }
    }
    Ok((detail, answers))
}

// ---------------------------------------------------------------------------
// Stream slice: bulk streams over both protocols
// ---------------------------------------------------------------------------

/// Bytes the in-process `FrameSink` produces for `[start, end)` of
/// `bulk.store_sales` (header and batches; no trailer).
fn reference_stream_bytes(entry: &RegistryEntry, start: u64, end: u64) -> Result<u64, String> {
    let mut writer = CountingWriter::default();
    let mut sink = FrameSink::new(&mut writer, StreamRequest::DEFAULT_BATCH_ROWS, (start, end));
    entry
        .generator()
        .stream_range_into("store_sales", start..end, &mut sink, None)
        .map_err(|e| format!("in-process stream: {e}"))?;
    if let Some(e) = sink.into_error() {
        return Err(format!("in-process stream: {e}"));
    }
    Ok(writer.0)
}

/// Streams `[start, start + rows)` fully decoded and compares it, row by
/// row, with the in-process generator.
fn verify_decoded_stream(
    conn: &mut FrameConn,
    fx: &Fixture,
    start: u64,
    rows: u64,
    checks: &mut Checks,
) -> Result<(), String> {
    let frame = stream_frame(&fx.plan.bulk.0, "store_sales", start, start + rows)?;
    let tally = conn.stream(&frame, true)?;
    let mut got = Vec::with_capacity(rows as usize);
    for payload in &tally.batch_payloads {
        match decode_response(payload)? {
            Response::Batch { rows } => got.extend(rows),
            other => return Err(format!("expected a Batch, got {other:?}")),
        }
    }
    let generator = fx.reference.bulk.generator();
    let want: Vec<_> = generator
        .stream_range("store_sales", start..start + rows)
        .map_err(|e| e.to_string())?
        .collect();
    checks.expect("stream.decoded_rows_equal_in_process", got == want, || {
        format!(
            "rows [{start}, {}) differ ({} vs {})",
            start + rows,
            got.len(),
            want.len()
        )
    });
    let reference = reference_stream_bytes(&fx.reference.bulk, start, start + rows)?;
    checks.expect(
        "stream.decoded_bytes_equal_frame_sink",
        tally.bytes - tally.end_bytes == reference,
        || format!("{} vs {reference}", tally.bytes - tally.end_bytes),
    );
    Ok(())
}

/// Streams 100 k rows at 100 k rows/s; the velocity slider must hold ±3 %.
fn paced_check(conn: &mut FrameConn, fx: &Fixture, checks: &mut Checks) -> Result<(), String> {
    const ROWS: u64 = 100_000;
    const RATE: f64 = 100_000.0;
    let frame = encode_frame(&Request::Stream(
        StreamRequest::full(&fx.plan.bulk.0, "store_sales")
            .range(0, ROWS)
            .rows_per_sec(RATE),
    ))
    .map_err(|e| e.to_string())?;
    // Up to three attempts: the sandbox stalls for tens of milliseconds now
    // and then, and one stall in a one-second stream is already 3 %.
    let mut achieved = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let tally = conn.stream(&frame, false)?;
        let rate = ROWS as f64 / started.elapsed().as_secs_f64();
        achieved.push(rate);
        if tally.end.as_ref().is_some_and(|e| e.rows == ROWS) && (rate / RATE - 1.0).abs() <= 0.03 {
            break;
        }
    }
    checks.expect(
        "stream.paced_within_3_percent",
        achieved
            .last()
            .is_some_and(|rate| (rate / RATE - 1.0).abs() <= 0.03),
        || format!("{achieved:.0?} rows/s against a target of {RATE:.0}"),
    );
    Ok(())
}

fn stream_slice(
    options: &Options,
    fx: &Fixture,
    round: usize,
    out: &mut Collector,
) -> Result<(), String> {
    let plan = &fx.plan;
    let frame_addr = fx.main.frame_addr;
    let pg_addr = fx.main.pg_addr.ok_or("main server has no pg listener")?;
    let frame_ranges = &plan.rounds[round].frame_ranges;

    // Untimed, first round: a decoded pass, and (heavy run) the paced pass.
    if round == 0 {
        let mut conn = FrameConn::connect(frame_addr)?;
        let first = frame_ranges[0].first().map_or(0, |r| r.0);
        verify_decoded_stream(&mut conn, fx, first, 20_000, &mut out.checks)?;
        if options.workload == Workload::StreamServe {
            paced_check(&mut conn, fx, &mut out.checks)?;
        }
    }

    // Part A: the two frame connections stream their chunks of
    // `bulk.store_sales`, taking turns.  A walking client and the reactor
    // worker feeding it already keep both cores of the box busy; two
    // streams at once would measure the scheduler.
    let scraped_before = if options.scrape {
        Some(scrape(frame_addr)?.0)
    } else {
        None
    };
    // Wire bytes (trailer excluded) per distinct range.
    let mut range_bytes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ranges in frame_ranges {
        let mut conn = FrameConn::connect(frame_addr)?;
        let frames = ranges
            .iter()
            .map(|&(s, e)| stream_frame(&plan.bulk.0, "store_sales", s, e))
            .collect::<Result<Vec<_>, _>>()?;
        for (&(start, end), frame) in ranges.iter().zip(&frames) {
            check_deadline(options)?;
            let started = Instant::now();
            let reply = conn.stream(frame, false);
            let took = started.elapsed().as_secs_f64();
            match reply {
                Ok(tally) => {
                    let rows = tally.end.as_ref().map_or(0, |e| e.rows);
                    let body = tally.bytes - tally.end_bytes;
                    let repeat = *range_bytes.entry((start, end)).or_insert(body);
                    if rows == end - start && repeat == body {
                        out.ops("stream.frame").ok();
                        out.add_side("stream.frame_rows", rows as f64);
                        out.add_side("stream.frame_bytes", tally.bytes as f64);
                        out.add_side("stream.frame_seconds", took);
                    } else {
                        out.ops("stream.frame").wrong();
                    }
                }
                Err(_) => {
                    out.ops("stream.frame").fail();
                    // The connection is in an unknown state.
                    conn = FrameConn::connect(frame_addr)?;
                }
            }
        }
    }
    if let Some(before) = &scraped_before {
        let (after, _) = scrape(frame_addr)?;
        out.record_scrape("stream_frame", before, &after);
    }
    // Untimed: every distinct range's byte count equals the in-process
    // FrameSink's for that range.
    for (&(start, end), &body) in &range_bytes {
        let reference = reference_stream_bytes(&fx.reference.bulk, start, end)?;
        out.checks.expect(
            "stream.range_bytes_equal_frame_sink",
            body == reference,
            || format!("[{start}, {end}): {body} vs {reference}"),
        );
    }

    // Part B: the two pg connections scan `mid.store_sales`, taking turns.
    let scraped_before = if options.scrape {
        Some(scrape(frame_addr)?.0)
    } else {
        None
    };
    let mid_rows = plan.mid.1.metadata.row_count("store_sales");
    let want_tag = format!("SELECT {mid_rows}");
    let message = crate::wire::pg_query_message("select * from store_sales");
    let mut first_pass_bytes = None;
    for _ in 0..2 {
        let mut conn = PgConn::connect(pg_addr, &plan.mid.0)?;
        for _ in 0..plan.sizes.pg_passes {
            check_deadline(options)?;
            let started = Instant::now();
            let reply = conn.query(&message, false);
            let took = started.elapsed().as_secs_f64();
            match reply {
                Ok(tally) if tally.error.is_none() => {
                    let same = *first_pass_bytes.get_or_insert(tally.bytes);
                    if tally.tag.as_deref() == Some(want_tag.as_str())
                        && tally.data_rows == mid_rows
                        && same == tally.bytes
                    {
                        out.ops("stream.pg").ok();
                        out.add_side("stream.pg_rows", tally.data_rows as f64);
                        out.add_side("stream.pg_bytes", tally.bytes as f64);
                        out.add_side("stream.pg_seconds", took);
                    } else {
                        out.ops("stream.pg").wrong();
                    }
                }
                Ok(_) => out.ops("stream.pg").fail(),
                Err(_) => {
                    out.ops("stream.pg").fail();
                    conn = PgConn::connect(pg_addr, &plan.mid.0)?;
                }
            }
        }
    }
    if let Some(before) = &scraped_before {
        let (after, _) = scrape(frame_addr)?;
        out.record_scrape("stream_pg", before, &after);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serve slice: the interactive mix
// ---------------------------------------------------------------------------

fn check_frame_answer(text: &QueryText, expected: &Expected, answer: &QueryAnswer) -> bool {
    let strategy_ok = match text.kind {
        OpKind::InClass(_) => {
            answer.strategy == ExecStrategy::SummaryDirect && answer.scanned_tuples == 0
        }
        _ => answer.strategy == ExecStrategy::TupleScan && answer.scanned_tuples > 0,
    };
    strategy_ok && answer.rows == expected.rows
}

fn serve_slice(
    options: &Options,
    fx: &Fixture,
    round: usize,
    out: &mut Collector,
) -> Result<(), String> {
    let plan = &fx.plan;
    let frame_addr = fx.main.frame_addr;
    let pg_addr = fx.main.pg_addr.ok_or("main server has no pg listener")?;
    let expected = &fx.reference.expected;
    let ops = &plan.rounds[round];

    // Untimed, first round: one slice decoded and compared with the
    // in-process generator.
    let mut conn = FrameConn::connect(frame_addr)?;
    if round == 0 {
        if let Some(&start) = plan.slice_starts().first() {
            verify_decoded_stream(&mut conn, fx, start, SLICE_ROWS, &mut out.checks)?;
        }
    }
    let scraped_before = if options.scrape {
        Some(scrape(frame_addr)?)
    } else {
        None
    };

    // The frame connection runs its sequence, then the pg connection runs
    // its own: one client thread and the worker answering it fill the two
    // cores, and a 20 ms scan on one connection does not sit on the core
    // the other connection's 150 µs aggregates need.
    for op in &ops.frame_ops {
        check_deadline(options)?;
        match op {
            ServeOp::Query(i) => {
                let text = &plan.queries[*i];
                let started = Instant::now();
                let reply = conn.round_trip(&text.frame);
                let took = us(started.elapsed());
                match reply.and_then(decode_response) {
                    Ok(Response::QueryResult(answer)) => {
                        if check_frame_answer(text, &expected[*i], &answer) {
                            out.ops("serve.frame").ok();
                            match text.kind {
                                OpKind::InClass(shape) => {
                                    out.frame_query_us.push(took);
                                    out.by_shape_us
                                        .entry(shape.suffix())
                                        .or_default()
                                        .push(took);
                                }
                                _ => out.scan_ms.push(took / 1e3),
                            }
                        } else {
                            out.ops("serve.frame").wrong();
                        }
                    }
                    _ => out.ops("serve.frame").fail(),
                }
            }
            ServeOp::Slice { frame, .. } => {
                let started = Instant::now();
                let reply = conn.stream(frame, false);
                let took = us(started.elapsed());
                match reply {
                    Ok(tally) if tally.end.as_ref().is_some_and(|e| e.rows == SLICE_ROWS) => {
                        out.ops("serve.frame").ok();
                        out.slice_us.push(took);
                    }
                    Ok(_) => out.ops("serve.frame").wrong(),
                    Err(_) => {
                        out.ops("serve.frame").fail();
                        conn = FrameConn::connect(frame_addr)?;
                    }
                }
            }
        }
    }
    drop(conn);

    let mut conn = PgConn::connect(pg_addr, &plan.mid.0)?;
    for op in &ops.pg_ops {
        check_deadline(options)?;
        let ServeOp::Query(i) = op else { continue };
        let text = &plan.queries[*i];
        let started = Instant::now();
        let reply = conn.query(&text.pg, true);
        let took = us(started.elapsed());
        match reply {
            Ok(tally) if tally.error.is_none() => {
                let grid: Result<Vec<_>, _> =
                    tally.rows.iter().map(|r| pg_data_row_values(r)).collect();
                let want_tag = format!("SELECT {}", expected[*i].pg_grid.len());
                if grid.is_ok_and(|g| g == expected[*i].pg_grid)
                    && tally.tag.as_deref() == Some(want_tag.as_str())
                {
                    out.ops("serve.pg").ok();
                    match text.kind {
                        OpKind::InClass(_) => out.pg_query_us.push(took),
                        _ => out.scan_ms.push(took / 1e3),
                    }
                } else {
                    out.ops("serve.pg").wrong();
                }
            }
            Ok(_) => out.ops("serve.pg").fail(),
            Err(_) => {
                out.ops("serve.pg").fail();
                conn = PgConn::connect(pg_addr, &plan.mid.0)?;
            }
        }
    }
    drop(conn);

    if let Some((before, scrape_took)) = &scraped_before {
        let (after, _) = scrape(frame_addr)?;
        out.record_scrape("serve", before, &after);
        out.max_side("serve.stats_scrape_ms", ms(*scrape_took));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Runs one workload end to end and returns what it measured.  `Err` means
/// the run could not be carried out (no server, a dead connection, the
/// watchdog); failed ops and failed checks are reported in the `Outcome`.
pub fn run(options: &Options) -> Result<Artifacts, String> {
    std::fs::create_dir_all(&options.run_dir)
        .map_err(|e| format!("{}: {e}", options.run_dir.display()))?;
    let mut out = Collector::default();

    let started = Instant::now();
    let mut fixture = set_up(options, &mut out.checks)?;
    out.setup_seconds.push(started.elapsed().as_secs_f64());
    let timings = ClientTimings {
        clientdb_ms: fixture.client.clientdb_ms,
        profile_131_ms: fixture.client.profile_131_ms,
        harvest_ms: fixture.client.harvest_ms,
    };

    // Set-up is repeated between rounds, spread over the run like every
    // other measurement; the repeats' servers are shut down at once.
    let rounds = fixture.plan.rounds.len();
    let repeat_after: Vec<usize> = (1..options.setup_repeats)
        .map(|i| i * rounds / options.setup_repeats)
        .collect();
    for round in 0..rounds {
        check_deadline(options)?;
        if repeat_after.contains(&round) {
            let started = Instant::now();
            let mut throwaway = set_up(options, &mut out.checks)?;
            out.setup_seconds.push(started.elapsed().as_secs_f64());
            out.peak_rss_mb = out.peak_rss_mb.max(throwaway.main.sample_rss());
        }
        publish_slice(options, &fixture, round, &mut out)?;
        if fixture.plan.rounds[round].drift {
            drift_cycle(options, &fixture, round, &mut out)?;
        }
        stream_slice(options, &fixture, round, &mut out)?;
        serve_slice(options, &fixture, round, &mut out)?;
    }

    out.peak_rss_mb = out.peak_rss_mb.max(fixture.main.sample_rss());
    let Fixture {
        client, plan, main, ..
    } = fixture;
    let (rss, clean) = main.shutdown();
    out.checks
        .expect("main.clean_shutdown", clean, || "exit status".to_string());
    out.peak_rss_mb = out.peak_rss_mb.max(rss);
    // The same chain on an empty directory writes the same records, give
    // or take the digits of the solve durations the build reports carry.
    let (low, high) = out
        .wal_bytes_per_version
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    out.checks.expect(
        "drift.wal_bytes_repeat",
        out.wal_bytes_per_version.is_empty() || (high - low) / high < 1e-3,
        || format!("{:?}", out.wal_bytes_per_version),
    );

    out.finish_side();
    let end_to_end = out.end_to_end()?;
    Ok(Artifacts {
        outcome: Outcome {
            end_to_end,
            side: out.side,
            ops: out.ops,
            checks: out.checks,
            manifest_hash: plan.manifest_hash,
        },
        timings,
        client,
        plan,
    })
}

/// What a run hands back: its outcome, and the inputs it used so the traced
/// run can replay a slice of them in-process.
#[derive(Debug)]
pub struct Artifacts {
    /// Metrics, op counts and checks.
    pub outcome: Outcome,
    /// Client-site timings of the first set-up.
    pub timings: ClientTimings,
    /// The client site of the first set-up.
    pub client: ClientInputs,
    /// The plan that was executed.
    pub plan: Plan,
}

/// Client-site timings of a set-up (per-layer `→ setup_s` metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTimings {
    /// `workload.clientdb_ms`.
    pub clientdb_ms: f64,
    /// `core.profile_ms`.
    pub profile_131_ms: f64,
    /// `workload.harvest_ms`.
    pub harvest_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_collector_emits_exactly_the_cataloged_end_to_end_metrics() {
        let mut out = Collector::default();
        let samples: Vec<f64> = (1..=1200).map(f64::from).collect();
        out.setup_seconds = vec![1.0, 2.0, 4.0];
        out.publish_ms = samples[..30].to_vec();
        out.publish_queries_acked = 960;
        out.publish_seconds_acked = 4.0;
        out.delta_ms = samples[..19].to_vec();
        out.drift_apply_s = vec![0.7, 0.9];
        out.recovery_s = vec![0.4, 0.5];
        out.wal_bytes_per_version = vec![2e6, 2e6];
        out.reader_us = vec![
            samples.clone(),
            samples[..1100].to_vec(),
            samples[..1000].to_vec(),
        ];
        out.frame_query_us = samples.clone();
        out.pg_query_us = samples.clone();
        out.scan_ms = samples[..40].to_vec();
        out.slice_us = samples[..80].to_vec();
        out.peak_rss_mb = 300.0;
        for (rows, seconds) in [
            ("stream.frame_rows", "stream.frame_seconds"),
            ("stream.pg_rows", "stream.pg_seconds"),
        ] {
            out.add_side(rows, 1e6);
            out.add_side(seconds, 0.1);
        }
        let metrics = out.end_to_end().unwrap();
        let emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut cataloged: Vec<&str> = crate::catalog::END_TO_END.iter().map(|m| m.name).collect();
        cataloged.sort_unstable();
        assert_eq!(emitted, cataloged);
        for entry in &crate::catalog::END_TO_END {
            assert_eq!(metrics[entry.name].unit, entry.unit, "{}", entry.name);
        }
        assert_eq!(metrics["setup_s"].value, 2.0, "the median of the set-ups");
        assert_eq!(metrics["publish_queries_per_s"].value, 240.0);
        assert_eq!(metrics["frame_query_p50_us"].value, 600.0);
        assert!(
            !metrics["delta_publish_p50_ms"].supported,
            "19 samples: 9 beyond rank 10"
        );

        // What the per-layer run reports of the session's own samples.
        out.finish_side();
        // Fifths of 240 samples: p99s 238, 478, 718, 958, 1198; the median.
        assert_eq!(out.side["serve.frame_query_p99_us"], 718.0);
        assert_eq!(out.side["serve.scan_query_p50_ms"], 20.0);
        assert_eq!(out.side["serve.slice_p50_us"], 40.0);
        // Cycles of 1200, 1100 and 1000 samples: p99s 1188, 1089, 990.
        assert_eq!(out.side["drift.reader_p99_us"], 1089.0);
        assert_eq!(out.side["drift.reader_p99_us.n"], 1000.0);
    }

    #[test]
    fn a_missing_sample_is_an_error_not_a_zero() {
        let out = Collector::default();
        assert!(out.end_to_end().is_err());
    }
}
