//! Everything the server will be sent, generated before any clock starts.
//!
//! The client site (synthetic warehouse, profiled packages, harvested
//! delta queries) is a fixed family: LP solve time is chaotic in its
//! right-hand side — scaling one package's cardinalities by 13 % moves a
//! retail-131 solve between 0.6 s and 1.6 s — so drawing packages from
//! `--seed` would turn every latency into a lottery over seeds.  The seed
//! instead draws what a faster server must not be able to exploit and what
//! does not change the amount of work: registry names, the order in which
//! the pool is published and streamed, query literals and slice offsets.
//! The op *counts* are a pure function of `--seconds` (see [`Sizes`]), so
//! two commits compared with the same arguments do exactly the same work,
//! and the manifest hash printed by every run proves it.

use crate::wire::pg_query_message;
use hydra_core::client::ClientSite;
use hydra_core::scenario::Scenario;
use hydra_core::transfer::TransferPackage;
use hydra_query::delta::WorkloadDelta;
use hydra_query::workload::WorkloadEntry;
use hydra_service::protocol::{encode_frame, QueryRequest, Request, StreamRequest};
use hydra_workload::{
    generate_client_database, harvest_workload, retail_row_targets, retail_schema, DataGenConfig,
    WorkloadGenConfig, WorkloadGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The two workloads.  Every run drives all four phases (publish, drift,
/// stream, serve) so that every metric is measured on every workload; the
/// workload names which two run at full size (scaled by `--seconds`), the
/// other two run at a fixed light size.  (The issue's four workloads are
/// the four phases; as four workloads their runs were too short for this
/// host, see `BENCHMARK.md`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The solve side at full size: cold publishes of distinct packages,
    /// and incremental drift on a durable registry with crash recovery.
    IngestDrift,
    /// The wire side at full size: bulk regeneration over both protocols,
    /// and the interactive mix of aggregates, scan fallbacks and slices.
    StreamServe,
}

impl Workload {
    /// All workloads, in the order `--all` runs them.
    pub const ALL: [Workload; 2] = [Workload::IngestDrift, Workload::StreamServe];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDrift => "ingest_drift",
            Workload::StreamServe => "stream_serve",
        }
    }

    /// The other workload: the one on which this one's full-size phases
    /// run light.
    pub fn other(self) -> Workload {
        match self {
            Workload::IngestDrift => Workload::StreamServe,
            Workload::StreamServe => Workload::IngestDrift,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Query counts of the three package sizes, smallest first.
pub const PACKAGE_QUERIES: [usize; 3] = [32, 64, 131];
/// Workload-generator seed of the base packages and client-data seed of
/// the warehouse (a fixed family member whose solves are of moderate cost).
const WORKLOAD_SEED: u64 = 131;
const CLIENT_DATA_SEED: u64 = 500;
/// Most scale variants of one package size a run publishes.
const MAX_VARIANTS: usize = 60;

/// Cardinality scale factor of pool variant `i`.  Every variant has
/// different LP right-hand sides, hence a different constraint signature: a
/// signature cache cannot turn a publish into a lookup.  Whole factors keep
/// every scaled cardinality integral, so row counts stay exactly checkable.
fn pool_scale(variant: usize) -> f64 {
    1.0 + variant as f64
}

/// Delta queries harvested beyond the drift base workload.
const MAX_DELTAS: usize = 24;
/// `bulk` is the drift base scaled ×1000 (10 M `store_sales` rows).
pub const BULK_SCALE: f64 = 1000.0;
/// `mid` is the drift base scaled ×30 (300 k `store_sales` rows).
pub const MID_SCALE: f64 = 30.0;
/// Rows per `Stream` slice of the serve phase.
pub const SLICE_ROWS: u64 = 1000;

/// How much work each phase does — a pure function of the workload,
/// `--seconds` and the round count, so it is identical on both commits of
/// a comparison.  All counts except the drift ones are *per round*.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Rounds the run is divided into.
    pub rounds: usize,
    /// Publishes per round: the package sizes (indexes into
    /// [`PACKAGE_QUERIES`]) of one group, and how many groups.  The largest
    /// package is published in even rounds only.
    pub publish_group: &'static [usize],
    /// See [`Sizes::publish_group`].
    pub publish_groups: usize,
    /// Drift cycles per run (each in a round of its own).
    pub drift_cycles: usize,
    /// `DeltaPublish` steps per cycle (a multiple of the checkpoint interval).
    pub drift_deltas: usize,
    /// `bulk.store_sales` chunks each frame connection streams per round.
    pub frame_chunks: usize,
    /// `select *` passes over `mid.store_sales` per pg connection per round.
    pub pg_passes: usize,
    /// Ops per connection per round in the serve phase.
    pub serve_ops: usize,
}

/// Checkpoint interval of the durable server (`--checkpoint-every`).
pub const CHECKPOINT_EVERY: usize = 4;
/// Rounds of a full run; `--smoke` uses [`SMOKE_ROUNDS`].
pub const ROUNDS: usize = 20;
/// `--seconds` at which the full-size phases have their nominal size.
pub const NOMINAL_SECONDS: f64 = 30.0;
/// Rounds of a smoke run.
pub const SMOKE_ROUNDS: usize = 2;

impl Sizes {
    /// Sizes for `workload`: its own two phases sized so that, at the commit
    /// that defined the benchmark, they measure for about `seconds` over a
    /// full run; the other two at a fixed light size.
    pub fn new(workload: Workload, seconds: f64, rounds: usize) -> Sizes {
        let scale = (seconds / NOMINAL_SECONDS).max(0.05);
        let scaled = |nominal: f64, floor: usize| ((nominal * scale).round() as usize).max(floor);
        let ingest = workload == Workload::IngestDrift;
        let rounds = rounds.max(1);
        Sizes {
            rounds,
            // A retail-131 solve costs as much as the rest of a light round,
            // so only the ingest workload pays for it.  The light size
            // publishes the middle package alone: the nearest-rank median of
            // a {32, 64} mix would be the slowest retail-32, an extreme.
            // Two of the middle size per group keep the median of the mix
            // inside that size's samples.
            publish_group: if ingest { &[0, 1, 1, 2] } else { &[1, 1] },
            publish_groups: if ingest {
                scaled(1.0, 1).min(MAX_VARIANTS / (2 * rounds))
            } else {
                1
            },
            // A cycle costs 1.3 s (3 s at full size): every third round.
            drift_cycles: rounds.div_ceil(3),
            drift_deltas: if ingest {
                (scaled(8.0, CHECKPOINT_EVERY) / CHECKPOINT_EVERY * CHECKPOINT_EVERY)
                    .clamp(CHECKPOINT_EVERY, MAX_DELTAS)
            } else {
                CHECKPOINT_EVERY
            },
            frame_chunks: if ingest { 2 } else { scaled(4.0, 2) },
            pg_passes: if ingest { 2 } else { scaled(8.0, 2) },
            serve_ops: if ingest { 200 } else { scaled(800.0, 200) },
        }
    }
}

/// The client site: what a customer would profile and ship.  Built once
/// per set-up; its three timings are per-layer metrics.
#[derive(Debug)]
pub struct ClientInputs {
    /// Base packages of 32, 64 and 131 queries over one warehouse.
    pub base: [TransferPackage; 3],
    /// Annotated queries beyond the 64-query workload, one per delta.
    pub extras: Vec<WorkloadEntry>,
    /// `workload.clientdb_ms`.
    pub clientdb_ms: f64,
    /// `core.profile_ms`: `ClientSite::prepare_package` of retail-131.
    pub profile_131_ms: f64,
    /// `workload.harvest_ms`: harvesting the delta queries.
    pub harvest_ms: f64,
}

impl ClientInputs {
    /// Generates the warehouse, profiles the three packages and harvests
    /// the delta queries.
    pub fn generate() -> Result<ClientInputs, String> {
        let schema = retail_schema();
        let mut targets = retail_row_targets(0.02);
        targets.insert("store_sales".to_string(), 10_000);
        targets.insert("web_sales".to_string(), 3_333);
        let started = Instant::now();
        let db = generate_client_database(
            &schema,
            &targets,
            &DataGenConfig {
                seed: CLIENT_DATA_SEED,
                ..Default::default()
            },
        );
        let clientdb_ms = ms(started);

        let site = ClientSite::new(db.clone());
        let mut packages = Vec::with_capacity(3);
        let mut profile_131_ms = 0.0;
        let mut extras = Vec::new();
        let mut harvest_ms = 0.0;
        for queries in PACKAGE_QUERIES {
            // The drift base's generator also yields the delta queries: the
            // tail of a longer workload, so names never collide.
            let extra = if queries == 64 { MAX_DELTAS } else { 0 };
            let all = WorkloadGenerator::new(
                schema.clone(),
                WorkloadGenConfig {
                    num_queries: queries + extra,
                    seed: WORKLOAD_SEED,
                    ..Default::default()
                },
            )
            .generate();
            let started = Instant::now();
            let package = site
                .prepare_package(&all[..queries], false)
                .map_err(|e| format!("profiling retail-{queries}: {e}"))?;
            if queries == 131 {
                profile_131_ms = ms(started);
            }
            packages.push(package);
            if extra > 0 {
                let started = Instant::now();
                extras = harvest_workload(&db, &all[queries..])
                    .map_err(|e| format!("harvesting delta queries: {e}"))?
                    .entries;
                harvest_ms = ms(started);
            }
        }
        let base: [TransferPackage; 3] = packages
            .try_into()
            .map_err(|_| "three package sizes".to_string())?;
        Ok(ClientInputs {
            base,
            extras,
            clientdb_ms,
            profile_131_ms,
            harvest_ms,
        })
    }

    /// The drift base package (retail-32 at scale 1).
    pub fn drift_base(&self) -> &TransferPackage {
        &self.base[0]
    }

    /// The retail-64 package with every cardinality scaled by `factor`.
    pub fn scaled_base(&self, factor: f64) -> TransferPackage {
        Scenario::scaled("scale", factor).apply(&self.base[1])
    }

    /// The `i`-th single-query delta.
    pub fn delta(&self, i: usize) -> WorkloadDelta {
        let entry = &self.extras[i];
        WorkloadDelta::new().add_annotated(
            entry.query.clone(),
            entry.aqp.clone().expect("harvested entries are annotated"),
        )
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// One `Publish` of the publish phase.
#[derive(Debug, Clone)]
pub struct PublishOp {
    /// Fresh registry name.
    pub name: String,
    /// Index into [`PACKAGE_QUERIES`].
    pub size: usize,
    /// The package (kept for the in-process reference check).
    pub package: TransferPackage,
    /// The encoded request frame.
    pub frame: Vec<u8>,
}

/// The in-class aggregate shapes of the serve and drift-reader mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `count(*), sum(q)` under a value predicate on the fact table.
    CountSum,
    /// Fact ⋈ item with a dimension predicate, grouped by category.
    JoinGroup,
    /// `count(*), sum(pk)` over a primary-key interval.
    PkInterval,
}

impl Shape {
    /// All shapes.
    pub const ALL: [Shape; 3] = [Shape::CountSum, Shape::JoinGroup, Shape::PkInterval];

    /// Metric-name suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            Shape::CountSum => "count_sum",
            Shape::JoinGroup => "join_group",
            Shape::PkInterval => "pk_interval",
        }
    }

    /// SQL of this shape with a literal drawn from `rng`; `fact_rows` bounds
    /// the pk interval.
    pub fn sql(self, rng: &mut StdRng, fact_rows: u64) -> String {
        match self {
            Shape::CountSum => format!(
                "select count(*), sum(store_sales.ss_quantity) from store_sales \
                 where store_sales.ss_quantity < {}",
                rng.gen_range(10..100)
            ),
            Shape::JoinGroup => format!(
                "select count(*), avg(item.i_current_price) from store_sales, item \
                 where store_sales.ss_item_fk = item.i_item_sk and item.i_manager_id >= {} \
                 group by item.i_category",
                rng.gen_range(5..90)
            ),
            Shape::PkInterval => {
                let lo = rng.gen_range(0..fact_rows / 2);
                let hi = lo + rng.gen_range(1..fact_rows / 2);
                format!(
                    "select count(*), sum(store_sales.ss_sk) from store_sales \
                     where store_sales.ss_sk >= {lo} and store_sales.ss_sk < {hi}"
                )
            }
        }
    }
}

/// What a serve-phase op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// An in-class aggregate (summary-direct).
    InClass(Shape),
    /// An out-of-class aggregate answered by the scan fallback.
    Scan,
}

/// One distinct query text and its encodings for both protocols.
#[derive(Debug, Clone)]
pub struct QueryText {
    /// In-class shape or scan.
    pub kind: OpKind,
    /// The SQL.
    pub sql: String,
    /// Frame-protocol request against `mid`.
    pub frame: Vec<u8>,
    /// PostgreSQL `Q` message.
    pub pg: Vec<u8>,
}

/// One op of a serve-phase connection.
#[derive(Debug, Clone)]
pub enum ServeOp {
    /// Index into [`Plan::queries`].
    Query(usize),
    /// A slice request: encoded frame and its first row.
    Slice {
        /// The encoded `Stream` request.
        frame: Vec<u8>,
        /// First row of the slice.
        start: u64,
    },
}

/// Distinct literals drawn per in-class shape; scans draw [`SCAN_TEXTS`].
const TEXTS_PER_SHAPE: usize = 12;
const SCAN_TEXTS: usize = 4;

/// One round of the run: a slice of every phase.  Rounds spread each
/// phase over the whole run, so every metric sees every performance regime
/// the host goes through while the run lasts (see `BENCHMARK.md`).
#[derive(Debug)]
pub struct Round {
    /// Publish groups, each smallest package first.
    pub publishes: Vec<PublishOp>,
    /// Whether a drift cycle (durable server, deltas, crash, recovery)
    /// runs in this round.
    pub drift: bool,
    /// Per frame connection: `bulk.store_sales` ranges in streaming order.
    pub frame_ranges: [Vec<(u64, u64)>; 2],
    /// Op sequence of the frame connection.
    pub frame_ops: Vec<ServeOp>,
    /// Op sequence of the pg connection (no slices).
    pub pg_ops: Vec<ServeOp>,
}

/// Everything one run sends, in sending order, plus its hash.
#[derive(Debug)]
pub struct Plan {
    /// Work sizes this plan was generated for.
    pub sizes: Sizes,
    /// The rounds, in execution order.
    pub rounds: Vec<Round>,
    /// Registry name of the drift summary.
    pub drift_name: String,
    /// Encoded `Publish` of the drift base.
    pub drift_base_frame: Vec<u8>,
    /// Encoded `DeltaPublish` steps of one drift cycle (every cycle starts
    /// from an empty WAL directory and replays the same chain).
    pub delta_frames: Vec<Vec<u8>>,
    /// Query texts of the drift reader (against the drift summary).
    pub reader_queries: Vec<QueryText>,
    /// `mid`/`bulk` fixture names and packages.
    pub mid: (String, TransferPackage),
    /// See [`Plan::mid`].
    pub bulk: (String, TransferPackage),
    /// Encoded `Publish` of `mid`.
    pub mid_frame: Vec<u8>,
    /// Encoded `Publish` of `bulk`.
    pub bulk_frame: Vec<u8>,
    /// Distinct serve-phase query texts (against `mid`).
    pub queries: Vec<QueryText>,
    /// FNV-1a over every generated request byte, in sending order.
    pub manifest_hash: u64,
}

/// Rows of one `Stream` request of the bulk phase.
pub const STREAM_CHUNK_ROWS: u64 = 500_000;

fn frame<T: serde::Serialize>(request: &T) -> Result<Vec<u8>, String> {
    encode_frame(request).map_err(|e| format!("encoding a request: {e}"))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Encodes a `Stream` request for `[start, end)` of `table` in `name`.
pub fn stream_frame(name: &str, table: &str, start: u64, end: u64) -> Result<Vec<u8>, String> {
    frame(&Request::Stream(
        StreamRequest::full(name, table).range(start, end),
    ))
}

impl Plan {
    /// Generates the plan of `workload` for `seed`, `seconds` and `rounds`.
    pub fn generate(
        client: &ClientInputs,
        workload: Workload,
        seed: u64,
        seconds: f64,
        rounds: usize,
    ) -> Result<Plan, String> {
        let sizes = Sizes::new(workload, seconds, rounds);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4859_4452_4100_0000);
        let tag = format!("{:08x}", rng.gen_range(0..u32::MAX));

        // Drift phase.
        let drift_name = format!("drift{tag}");
        let drift_base_frame = frame(&Request::Publish {
            name: drift_name.clone(),
            package: client.drift_base().clone(),
        })?;
        let delta_frames = (0..sizes.drift_deltas)
            .map(|i| {
                frame(&Request::DeltaPublish {
                    name: drift_name.clone(),
                    delta: client.delta(i),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let drift_rows = client.drift_base().metadata.row_count("store_sales");
        let reader_queries =
            Self::query_texts(&drift_name, drift_rows, TEXTS_PER_SHAPE / 3, 0, &mut rng)?;

        // Fixtures of the stream and serve phases.
        let mid = (format!("mid{tag}"), client.scaled_base(MID_SCALE));
        let bulk = (format!("bulk{tag}"), client.scaled_base(BULK_SCALE));
        let publish_frame = |(name, package): &(String, TransferPackage)| {
            frame(&Request::Publish {
                name: name.clone(),
                package: package.clone(),
            })
        };
        let (mid_frame, bulk_frame) = (publish_frame(&mid)?, publish_frame(&bulk)?);
        let bulk_rows = bulk.1.metadata.row_count("store_sales");
        let mid_rows = mid.1.metadata.row_count("store_sales");
        let queries = Self::query_texts(&mid.0, mid_rows, TEXTS_PER_SHAPE, SCAN_TEXTS, &mut rng)?;

        // Publish pool: per size a seeded permutation of the scale variants.
        // (A size can occur twice in a group, so twice the groups.)
        let groups = sizes.publish_groups * sizes.rounds;
        let variant_order: Vec<Vec<usize>> = (0..3)
            .map(|_| {
                let mut variants: Vec<usize> = (0..2 * groups).collect();
                shuffle(&mut variants, &mut rng);
                variants
            })
            .collect();
        // Stream chunks: each connection owns one half of the table and
        // walks its chunks in a seeded order, wrapping around.
        let half = bulk_rows / 2;
        let chunk_order: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut chunks: Vec<u64> = (0..half / STREAM_CHUNK_ROWS).collect();
                shuffle(&mut chunks, &mut rng);
                chunks
            })
            .collect();
        // Drift cycles are spread evenly over the rounds.
        let drift_rounds: Vec<usize> = (0..sizes.drift_cycles)
            .map(|c| c * sizes.rounds / sizes.drift_cycles)
            .collect();

        let mut plan_rounds = Vec::with_capacity(sizes.rounds);
        for round in 0..sizes.rounds {
            let mut publishes = Vec::new();
            for g in 0..sizes.publish_groups {
                let group = round * sizes.publish_groups + g;
                for (slot, &size) in sizes.publish_group.iter().enumerate() {
                    if size == 2 && round % 2 == 1 {
                        continue;
                    }
                    // The second occurrence of a size draws from the second
                    // half of that size's permutation.
                    let repeat = sizes.publish_group[..slot].contains(&size);
                    let variant = variant_order[size][group + usize::from(repeat) * groups];
                    let package =
                        Scenario::scaled("variant", pool_scale(variant)).apply(&client.base[size]);
                    let name = format!("p{tag}_{}_{variant}", PACKAGE_QUERIES[size]);
                    let frame = frame(&Request::Publish {
                        name: name.clone(),
                        package: package.clone(),
                    })?;
                    publishes.push(PublishOp {
                        name,
                        size,
                        package,
                        frame,
                    });
                }
            }
            let mut frame_ranges: [Vec<(u64, u64)>; 2] = [Vec::new(), Vec::new()];
            for (conn, ranges) in frame_ranges.iter_mut().enumerate() {
                let chunks = &chunk_order[conn];
                for c in 0..sizes.frame_chunks {
                    let chunk = chunks[(round * sizes.frame_chunks + c) % chunks.len()];
                    let start = conn as u64 * half + chunk * STREAM_CHUNK_ROWS;
                    ranges.push((start, start + STREAM_CHUNK_ROWS));
                }
            }
            plan_rounds.push(Round {
                publishes,
                drift: drift_rounds.contains(&round),
                frame_ranges,
                frame_ops: Self::serve_ops(
                    &queries,
                    sizes.serve_ops,
                    Some((&bulk.0, bulk_rows)),
                    &mut rng,
                )?,
                pg_ops: Self::serve_ops(&queries, sizes.serve_ops, None, &mut rng)?,
            });
        }

        let mut plan = Plan {
            sizes,
            rounds: plan_rounds,
            drift_name,
            drift_base_frame,
            delta_frames,
            reader_queries,
            mid,
            bulk,
            mid_frame,
            bulk_frame,
            queries,
            manifest_hash: 0,
        };
        plan.manifest_hash = plan.hash()?;
        Ok(plan)
    }

    /// Start rows of every slice of the plan, in sending order.
    pub fn slice_starts(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .flat_map(|round| &round.frame_ops)
            .filter_map(|op| match op {
                ServeOp::Slice { start, .. } => Some(*start),
                ServeOp::Query(_) => None,
            })
            .collect()
    }

    /// `per_shape` distinct texts of every in-class shape plus `scans`
    /// out-of-class texts, encoded against `name`.
    fn query_texts(
        name: &str,
        fact_rows: u64,
        per_shape: usize,
        scans: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<QueryText>, String> {
        let mut texts = Vec::new();
        for shape in Shape::ALL {
            for _ in 0..per_shape {
                texts.push((OpKind::InClass(shape), shape.sql(rng, fact_rows)));
            }
        }
        for _ in 0..scans {
            // Comparing the auto-numbered key with a string literal forces
            // per-tuple evaluation: the scan fallback regenerates the table.
            texts.push((
                OpKind::Scan,
                format!(
                    "select count(*), sum(store_sales.ss_quantity) from store_sales \
                     where store_sales.ss_sk >= '{}'",
                    rng.gen_range(1..9)
                ),
            ));
        }
        texts
            .into_iter()
            .map(|(kind, sql)| {
                Ok(QueryText {
                    kind,
                    frame: frame(&Request::Query(QueryRequest::new(name, sql.clone())))?,
                    pg: pg_query_message(&sql),
                    sql,
                })
            })
            .collect()
    }

    /// A shuffled op sequence with exact shares: 2 % scans, 4 % slices
    /// (frame connection only; the pg connection runs aggregates instead),
    /// the rest in-class aggregates spread evenly over the shapes.
    fn serve_ops(
        queries: &[QueryText],
        count: usize,
        slices_of: Option<(&str, u64)>,
        rng: &mut StdRng,
    ) -> Result<Vec<ServeOp>, String> {
        let in_class: Vec<usize> = (0..queries.len())
            .filter(|&i| matches!(queries[i].kind, OpKind::InClass(_)))
            .collect();
        let scans: Vec<usize> = (0..queries.len())
            .filter(|&i| queries[i].kind == OpKind::Scan)
            .collect();
        let n_scans = count / 50;
        let n_slices = if slices_of.is_some() { count / 25 } else { 0 };
        let mut ops = Vec::with_capacity(count);
        for i in 0..n_scans {
            ops.push(ServeOp::Query(scans[i % scans.len()]));
        }
        if let Some((name, rows)) = slices_of {
            for _ in 0..n_slices {
                let start = rng.gen_range(0..rows - SLICE_ROWS);
                ops.push(ServeOp::Slice {
                    frame: stream_frame(name, "store_sales", start, start + SLICE_ROWS)?,
                    start,
                });
            }
        }
        for i in 0..count - n_scans - n_slices {
            ops.push(ServeOp::Query(in_class[i % in_class.len()]));
        }
        shuffle(&mut ops, rng);
        Ok(ops)
    }

    /// FNV-1a (64 bit) over every request byte in sending order.
    fn hash(&self) -> Result<u64, String> {
        let mut hash = Fnv::default();
        hash.write(&self.mid_frame);
        hash.write(&self.bulk_frame);
        hash.write(&self.drift_base_frame);
        for delta in &self.delta_frames {
            hash.write(delta);
        }
        for query in &self.reader_queries {
            hash.write(&query.frame);
        }
        for round in &self.rounds {
            for op in &round.publishes {
                hash.write(&op.frame);
            }
            for ranges in &round.frame_ranges {
                for &(start, end) in ranges {
                    hash.write(&stream_frame(&self.bulk.0, "store_sales", start, end)?);
                }
            }
            for (ops, pg) in [(&round.frame_ops, false), (&round.pg_ops, true)] {
                for op in ops {
                    match op {
                        ServeOp::Query(i) if pg => hash.write(&self.queries[*i].pg),
                        ServeOp::Query(i) => hash.write(&self.queries[*i].frame),
                        ServeOp::Slice { frame, .. } => hash.write(frame),
                    }
                }
            }
        }
        Ok(hash.0)
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_depend_only_on_workload_seconds_and_rounds() {
        let wire = Sizes::new(Workload::StreamServe, NOMINAL_SECONDS, ROUNDS);
        let ingest = Sizes::new(Workload::IngestDrift, NOMINAL_SECONDS, ROUNDS);
        assert_eq!(wire.publish_group, &[1, 1]);
        assert_eq!(ingest.publish_group, &[0, 1, 1, 2]);
        assert_eq!(
            (ingest.frame_chunks, ingest.serve_ops, ingest.drift_deltas),
            (2, 200, 8),
            "ingest_drift streams and serves at the light size"
        );
        assert_eq!(
            (wire.frame_chunks, wire.serve_ops, wire.drift_deltas),
            (4, 800, 4)
        );
        assert_eq!(wire.drift_cycles, 7);
        // Drift deltas come in whole checkpoint intervals.
        for seconds in [0.5, 3.0, 10.0, 25.0, 60.0] {
            let sizes = Sizes::new(Workload::IngestDrift, seconds, ROUNDS);
            assert_eq!(sizes.drift_deltas % CHECKPOINT_EVERY, 0);
            assert!((CHECKPOINT_EVERY..=MAX_DELTAS).contains(&sizes.drift_deltas));
        }
        // Smoke: op counts shrink, nothing vanishes.
        let smoke = Sizes::new(Workload::StreamServe, 0.5, SMOKE_ROUNDS);
        assert!(smoke.serve_ops >= 200 && smoke.rounds == SMOKE_ROUNDS);
        assert_eq!(
            Sizes::new(Workload::StreamServe, 10.0, ROUNDS),
            Sizes::new(Workload::StreamServe, 10.0, ROUNDS)
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_requests_and_another_seed_others() {
        let client = ClientInputs::generate().unwrap();
        let plan =
            |seed| Plan::generate(&client, Workload::StreamServe, seed, 0.5, SMOKE_ROUNDS).unwrap();
        let (a, again, b) = (plan(11), plan(11), plan(12));
        assert_eq!(a.manifest_hash, again.manifest_hash);
        assert_ne!(a.manifest_hash, b.manifest_hash);
        // The seed draws names, orders, literals and offsets — not the
        // amount of work.
        assert_eq!(a.sizes, b.sizes);
        assert_ne!(a.drift_name, b.drift_name);
        assert_eq!(a.rounds.len(), SMOKE_ROUNDS);
        let ops = &a.rounds[0].frame_ops;
        assert_eq!(ops.len(), a.sizes.serve_ops);
        let slices = ops
            .iter()
            .filter(|op| matches!(op, ServeOp::Slice { .. }))
            .count();
        let scans = ops
            .iter()
            .filter(|op| matches!(op, ServeOp::Query(i) if a.queries[*i].kind == OpKind::Scan))
            .count();
        assert_eq!((slices, scans), (ops.len() / 25, ops.len() / 50));
        assert!(a.rounds[0]
            .pg_ops
            .iter()
            .all(|op| matches!(op, ServeOp::Query(_))));
        // A client site generated again is the same client site.
        let client_again = ClientInputs::generate().unwrap();
        let plan_again =
            Plan::generate(&client_again, Workload::StreamServe, 11, 0.5, SMOKE_ROUNDS).unwrap();
        assert_eq!(a.manifest_hash, plan_again.manifest_hash);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut hash = Fnv::default();
        hash.write(b"");
        assert_eq!(hash.0, 0xcbf2_9ce4_8422_2325);
        hash.write(b"a");
        assert_eq!(hash.0, 0xaf63_dc4c_8601_ec8c);
    }
}
