//! The `Hydra` session façade — the one front door to the reproduction.
//!
//! A session owns a fully-resolved pipeline configuration (alignment
//! strategy, parallelism) and an observability registry, and exposes the
//! paper's workflow as these entry points:
//!
//! * [`Hydra::profile`] — the client site: profile a warehouse, execute the
//!   workload, package the synopsis (optionally anonymized);
//! * [`Hydra::regenerate`] / [`Hydra::regenerate_stateful`] — the vendor
//!   site: preprocess → solve → summarize → verify, with independent
//!   relations solved in parallel; the stateful form retains what later
//!   deltas and scenarios build against;
//! * [`Hydra::profile_delta`] — incremental workload evolution against a
//!   solved state;
//! * [`Hydra::scenario`] — what-if construction as a delta against a solved
//!   state, so only relations whose constraint signature the scenario
//!   changes are re-solved;
//! * [`Hydra::query`] — analytical aggregates answered *summary-direct*
//!   (from block cardinalities alone, no tuples materialized), falling back
//!   to a sharded regenerate-and-scan plan for out-of-class queries;
//! * [`Hydra::stream_table`] — dynamic generation of one regenerated relation
//!   into any [`TupleSink`], with optional velocity regulation;
//! * [`Hydra::stream_table_sharded`] / [`Hydra::materialize_sharded`] —
//!   sharded parallel generation: balanced row-range shards, one thread and
//!   one sink per shard, output bit-identical to the sequential stream.
//!
//! ```
//! use hydra_core::session::Hydra;
//! use hydra_workload::{generate_client_database, retail_row_targets, retail_schema,
//!                      DataGenConfig, WorkloadGenConfig, WorkloadGenerator};
//!
//! let schema = retail_schema();
//! let mut targets = retail_row_targets(0.005);
//! targets.insert("store_sales".to_string(), 1_000);
//! targets.insert("web_sales".to_string(), 300);
//! let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
//! let queries = WorkloadGenerator::new(schema,
//!     WorkloadGenConfig { num_queries: 5, ..Default::default() }).generate();
//!
//! let session = Hydra::builder().parallelism(2).build();
//! let package = session.profile(db, &queries).unwrap();
//! let result = session.regenerate(&package).unwrap();
//! assert!(result.accuracy.fraction_within(0.10) > 0.9);
//! ```

use crate::client::ClientSite;
use crate::delta::{DeltaOutcome, RegenerationState};
use crate::error::HydraResult;
use crate::scenario::{Scenario, ScenarioResult};
use crate::transfer::TransferPackage;
use crate::vendor::{HydraConfig, RegenerationResult, VendorSite};
use hydra_datagen::exec::{ExecMode, QueryEngine};
use hydra_datagen::generator::GenerationStats;
use hydra_datagen::governor::VelocityGovernor;
use hydra_datagen::shard::ShardedRun;
use hydra_datagen::sink::{CollectSink, TupleSink};
use hydra_engine::database::Database;
use hydra_engine::table::MemTable;
use hydra_obs::MetricsRegistry;
use hydra_query::exec::{ExecStrategy, QueryAnswer};
use hydra_query::query::SpjQuery;
use hydra_summary::align::AlignmentStrategy;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Typed builder for a [`Hydra`] session.
///
/// ```
/// use hydra_core::session::Hydra;
/// use hydra_summary::align::AlignmentStrategy;
///
/// let session = Hydra::builder()
///     .parallelism(4)                                  // per-relation solve workers
///     .alignment(AlignmentStrategy::Deterministic)     // the paper's alignment
///     .build();
/// assert_eq!(session.config().builder.parallelism, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HydraBuilder {
    config: HydraConfig,
    anonymize: bool,
    velocity: Option<f64>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl HydraBuilder {
    /// Shares an observability registry with this session.  Every query,
    /// LP solve and generation stream records into it; the default is a
    /// fresh private registry per session.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Selects the alignment flavour (deterministic by default; sampled for
    /// the E10 ablation).
    pub fn alignment(mut self, alignment: AlignmentStrategy) -> Self {
        self.config.builder.alignment = alignment;
        self
    }

    /// Number of worker threads for per-relation solving (relations are
    /// independent in the paper's LP decomposition). 1 = sequential; output
    /// is identical either way.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.builder = self.config.builder.with_parallelism(workers);
        self
    }

    /// Does nothing: a regeneration's accuracy report already holds every
    /// AQP edge's regenerated cardinality, so no workload is re-executed
    /// whatever `_enabled` says.  Kept only so existing callers still build.
    pub fn compare_aqps(self, _enabled: bool) -> Self {
        self
    }

    /// Whether [`Hydra::profile`] passes the package through the
    /// anonymization layer (default: false).
    pub fn anonymize(mut self, enabled: bool) -> Self {
        self.anonymize = enabled;
        self
    }

    /// Default generation velocity in rows per second (the paper's vendor
    /// "velocity" slider), applied by [`Hydra::stream_table`] whenever the
    /// caller does not pass an explicit per-call rate.  `None` (the default)
    /// streams unthrottled.  Each stream gets its own
    /// [`hydra_datagen::governor::VelocityGovernor`], so concurrent streams
    /// from one session are paced independently.
    ///
    /// # Panics
    ///
    /// Panics when a rate is given that is not finite and at least
    /// [`VelocityGovernor::MIN_RATE`] (0.001 rows/s) — the same validation
    /// the wire protocol applies, so a zero/subnormal/NaN rate fails at
    /// configuration time instead of stalling every stream.
    pub fn velocity(mut self, rows_per_sec: impl Into<Option<f64>>) -> Self {
        self.velocity = (rows_per_sec.into())
            .map(|rate| VelocityGovernor::check_rate(rate).unwrap_or_else(|e| panic!("{e}")));
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Hydra {
        Hydra {
            config: self.config,
            anonymize: self.anonymize,
            velocity: self.velocity,
            metrics: self.metrics.unwrap_or_default(),
        }
    }
}

/// A configured HYDRA session: client profiling, vendor regeneration,
/// scenario construction and dynamic generation behind one handle.
///
/// Sessions are cheap to build and thread-safe (`&self` everywhere).
#[derive(Debug, Clone)]
pub struct Hydra {
    config: HydraConfig,
    anonymize: bool,
    velocity: Option<f64>,
    metrics: Arc<MetricsRegistry>,
}

impl Default for Hydra {
    fn default() -> Self {
        Hydra::builder().build()
    }
}

impl Hydra {
    /// Starts a session builder with the paper's default pipeline.
    pub fn builder() -> HydraBuilder {
        HydraBuilder::default()
    }

    /// The session's resolved vendor configuration.
    pub fn config(&self) -> &HydraConfig {
        &self.config
    }

    /// The session's observability registry: every regeneration, query and
    /// stream records into it, and the serving layers expose it (Prometheus
    /// `/metrics`, frame `Stats`, pg `hydra_metrics`).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Records one build report — each solved relation's LP outcome, LP
    /// time and partitioning time, and the build's total time — the one
    /// recorder for every build (regeneration, delta, scenario).
    fn record_build_report(&self, report: &hydra_summary::builder::SummaryBuildReport) {
        for relation in &report.relations {
            let outcome = if relation.from_cache {
                "reused"
            } else {
                "cold"
            };
            self.metrics
                .counter_labeled("hydra_lp_solves_total", "outcome", outcome)
                .inc();
            if !relation.from_cache {
                self.metrics
                    .histogram_labeled("hydra_lp_solve_seconds", "relation", &relation.table)
                    .record_duration(relation.lp.solve_time);
                self.metrics
                    .histogram_labeled("hydra_partition_seconds", "relation", &relation.table)
                    .record_duration(relation.lp.partition_time);
            }
        }
        self.metrics
            .histogram("hydra_summary_build_seconds")
            .record_duration(report.total_time);
    }

    /// Client site: profiles the warehouse, executes the workload to obtain
    /// annotated query plans, and packages the synopsis for transfer
    /// (anonymized when the session was built with `.anonymize(true)`).
    pub fn profile(
        &self,
        database: Database,
        queries: &[SpjQuery],
    ) -> HydraResult<TransferPackage> {
        ClientSite::new(database).prepare_package(queries, self.anonymize)
    }

    /// Vendor site: runs the full regeneration pipeline on a transfer
    /// package. Independent relations are solved in parallel under the
    /// session's `parallelism`.
    pub fn regenerate(&self, package: &TransferPackage) -> HydraResult<RegenerationResult> {
        let result = self.vendor().regenerate(package)?;
        self.record_build_report(&result.build_report);
        Ok(result)
    }

    /// [`Hydra::regenerate`] retaining the per-relation solve artifacts
    /// (constraint signatures, summaries, build statistics) that make the
    /// regeneration *evolvable*: feed the returned state and a
    /// [`hydra_query::delta::WorkloadDelta`] to [`Hydra::profile_delta`] and
    /// only the relations the delta actually touches re-solve.
    pub fn regenerate_stateful(&self, package: &TransferPackage) -> HydraResult<RegenerationState> {
        let state = self.vendor().regenerate_stateful(package)?;
        self.record_build_report(&state.regeneration.build_report);
        Ok(state)
    }

    /// Rebuilds a [`RegenerationState`] from a previously solved baseline
    /// without running the LP solver — the recovery path of a durable
    /// registry replaying its write-ahead log.  The stored
    /// build report is reattached verbatim, and **no** solve metrics are
    /// recorded: recovery performs zero cold solves and the
    /// `hydra_lp_solves_total` counters prove it.
    pub fn restore_stateful(
        &self,
        package: &TransferPackage,
        build_report: hydra_summary::builder::SummaryBuildReport,
        baseline: hydra_summary::delta::SolveBaseline,
    ) -> HydraResult<RegenerationState> {
        self.vendor()
            .restore_stateful(package, build_report, baseline)
    }

    /// Applies a workload delta (queries added / retired / re-annotated,
    /// revised row counts) to a previous stateful regeneration
    /// *incrementally*: unchanged relations are reused bit-identically,
    /// changed relations re-solve from scratch, and the outcome reports a
    /// structural [`hydra_summary::delta::SummaryDiff`] plus a per-relation
    /// reuse/re-solve account.
    ///
    /// The evolved summary equals the one a from-scratch
    /// [`Hydra::regenerate`] of the merged package builds, bit for bit.
    pub fn profile_delta(
        &self,
        prev: &RegenerationState,
        delta: &hydra_query::delta::WorkloadDelta,
    ) -> HydraResult<DeltaOutcome> {
        let outcome = self.vendor().apply_delta(prev, delta)?;
        self.record_build_report(&outcome.state.regeneration.build_report);
        Ok(outcome)
    }

    /// Constructs a what-if scenario as a delta against a solved base
    /// state (from [`Hydra::regenerate_stateful`], [`Hydra::profile_delta`]
    /// or a registry version): the scenario distorts the base package,
    /// every relation whose constraint signature it leaves unchanged is
    /// reused from the base, and the rest re-solve cold.
    pub fn scenario(
        &self,
        scenario: &Scenario,
        base: &RegenerationState,
    ) -> HydraResult<ScenarioResult> {
        let result = self.vendor().scenario(scenario, base)?;
        self.record_build_report(&result.regeneration.build_report);
        Ok(result)
    }

    /// Answers an analytical SQL aggregate (COUNT / SUM / AVG, conjunctive
    /// predicates, key–FK joins, GROUP BY) over a regenerated database.
    ///
    /// In-class queries are answered **summary-direct** — from the solved
    /// summary's block cardinalities alone, without materializing a single
    /// tuple — so latency is independent of the logical row count.
    /// Out-of-class queries transparently fall back to a sharded
    /// regenerate-and-scan plan; [`QueryAnswer::strategy`] reports which
    /// path answered.
    ///
    /// ```
    /// use hydra_core::session::Hydra;
    /// use hydra_query::exec::ExecStrategy;
    /// use hydra_workload::retail_client_fixture;
    ///
    /// let (db, queries) = retail_client_fixture(1_000, 300, 5);
    /// let session = Hydra::builder().build();
    /// let package = session.profile(db, &queries).unwrap();
    /// let result = session.regenerate(&package).unwrap();
    ///
    /// let answer = session
    ///     .query(&result, "select count(*) from store_sales")
    ///     .unwrap();
    /// assert_eq!(answer.strategy(), ExecStrategy::SummaryDirect);
    /// assert_eq!(answer.single().unwrap().aggregates[0].as_i64(), Some(1_000));
    /// ```
    pub fn query(&self, regeneration: &RegenerationResult, sql: &str) -> HydraResult<QueryAnswer> {
        self.query_mode(regeneration, sql, ExecMode::Auto)
    }

    /// [`Hydra::query`] with an explicit execution mode:
    /// [`ExecMode::SummaryOnly`] errors on out-of-class queries instead of
    /// scanning, [`ExecMode::ScanOnly`] forces the regenerate-and-scan plan
    /// (differential testing, benchmarking).
    pub fn query_mode(
        &self,
        regeneration: &RegenerationResult,
        sql: &str,
        mode: ExecMode,
    ) -> HydraResult<QueryAnswer> {
        // Scan fallbacks respect the session's parallelism knob, like every
        // other multi-threaded path of the session.
        let started = std::time::Instant::now();
        let answer = QueryEngine::new(&regeneration.generator())
            .with_scan_shards(self.config.builder.parallelism)
            .query_mode(sql, mode)?;
        self.record_query(answer.strategy(), started.elapsed());
        Ok(answer)
    }

    /// Records one answered query under its strategy label
    /// (`hydra_query_total`, `hydra_query_seconds`) — the one recorder for
    /// [`Hydra::query`] and the wire front-ends alike.
    pub fn record_query(&self, strategy: ExecStrategy, elapsed: Duration) {
        let label = strategy.label();
        self.metrics
            .counter_labeled("hydra_query_total", "strategy", label)
            .inc();
        self.metrics
            .histogram_labeled("hydra_query_seconds", "strategy", label)
            .record_duration(elapsed);
    }

    /// Streams one regenerated relation into a [`TupleSink`], optionally
    /// velocity-regulated (`rows_per_sec`) and truncated (`limit`).
    ///
    /// When `rows_per_sec` is `None`, the session's default velocity (set
    /// with [`HydraBuilder::velocity`]) applies; if neither is set the stream
    /// is unthrottled.
    pub fn stream_table(
        &self,
        regeneration: &RegenerationResult,
        table: &str,
        sink: &mut dyn TupleSink,
        rows_per_sec: Option<f64>,
        limit: Option<u64>,
    ) -> HydraResult<GenerationStats> {
        let stats = regeneration.generator().stream_range_into(
            table,
            0..limit.unwrap_or(u64::MAX),
            sink,
            rows_per_sec.or(self.velocity),
        )?;
        self.record_generation(&stats);
        Ok(stats)
    }

    /// Records one completed generation stream's velocity account.
    ///
    /// [`Hydra::stream_table`] and the sharded entry points call this
    /// automatically; the wire front-ends (frame `Stream`, pg `SELECT *`
    /// scans) drive the generator directly and call it themselves so
    /// `hydra_datagen_rows_total` and friends account for every generated
    /// tuple regardless of the entry point.
    pub fn record_generation(&self, stats: &GenerationStats) {
        self.metrics
            .counter_labeled("hydra_datagen_rows_total", "table", &stats.table)
            .add(stats.rows);
        self.metrics
            .gauge("hydra_datagen_rows_per_sec")
            .set(stats.achieved_rows_per_sec as i64);
        self.metrics
            .counter("hydra_governor_sleep_seconds_total")
            .add(u64::try_from(stats.governor_sleep.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The session's default generation velocity in rows per second, if one
    /// was configured with [`HydraBuilder::velocity`].
    pub fn velocity(&self) -> Option<f64> {
        self.velocity
    }

    /// Regenerates one relation with `shards` parallel workers: the row
    /// space is split into balanced contiguous ranges, each range seeks
    /// directly into the summary's block-offset index (no replay from row 0)
    /// and streams on its own thread into a [`TupleSink`] built by
    /// `sink_factory` (called with the shard index and row range).
    ///
    /// Concatenating the shard sinks in plan order is bit-identical to the
    /// sequential [`Hydra::stream_table`] output of the same relation.
    ///
    /// ```
    /// use hydra_core::session::Hydra;
    /// use hydra_datagen::sink::CollectSink;
    /// use hydra_workload::{generate_client_database, retail_row_targets, retail_schema,
    ///                      DataGenConfig, WorkloadGenConfig, WorkloadGenerator};
    ///
    /// let schema = retail_schema();
    /// let mut targets = retail_row_targets(0.005);
    /// targets.insert("store_sales".to_string(), 1_000);
    /// targets.insert("web_sales".to_string(), 300);
    /// let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    /// let queries = WorkloadGenerator::new(schema,
    ///     WorkloadGenConfig { num_queries: 4, ..Default::default() }).generate();
    ///
    /// let session = Hydra::builder().build();
    /// let package = session.profile(db, &queries).unwrap();
    /// let result = session.regenerate(&package).unwrap();
    ///
    /// let run = session
    ///     .stream_table_sharded(&result, "store_sales", 4, |_shard, _rows| CollectSink::new())
    ///     .unwrap();
    /// assert_eq!(run.shards.len(), 4);
    /// assert_eq!(run.total_rows(), 1_000);
    /// ```
    pub fn stream_table_sharded<S, F>(
        &self,
        regeneration: &RegenerationResult,
        table: &str,
        shards: usize,
        sink_factory: F,
    ) -> HydraResult<ShardedRun<S>>
    where
        S: TupleSink + Send,
        F: Fn(usize, Range<u64>) -> S + Sync,
    {
        let run = regeneration
            .generator()
            .stream_sharded(table, shards, sink_factory)?;
        self.record_generation(&run.aggregate_stats());
        Ok(run)
    }

    /// Materializes one regenerated relation with `shards` parallel workers;
    /// the resulting table is bit-identical to a sequential materialization.
    pub fn materialize_sharded(
        &self,
        regeneration: &RegenerationResult,
        table: &str,
        shards: usize,
    ) -> HydraResult<MemTable> {
        let (t, _) = regeneration.generator().relation(table)?;
        let run =
            self.stream_table_sharded(regeneration, table, shards, |_, _| CollectSink::new())?;
        Ok(run.into_table(t))
    }

    fn vendor(&self) -> VendorSite {
        VendorSite::new(self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_datagen::sink::CountingSink;
    use hydra_workload::retail_client_fixture;

    fn client_fixture() -> (Database, Vec<SpjQuery>) {
        retail_client_fixture(2_000, 600, 8)
    }

    #[test]
    fn session_profile_and_regenerate() {
        let (db, queries) = client_fixture();
        let session = Hydra::builder().build();
        let package = session.profile(db, &queries).unwrap();
        assert_eq!(package.query_count(), 8);
        let result = session.regenerate(&package).unwrap();
        assert!(result.accuracy.fraction_within(0.10) > 0.9);
        assert_eq!(result.build_report.cached_relations, 0);
    }

    #[test]
    fn parallel_session_matches_sequential_accuracy() {
        let (db, queries) = client_fixture();
        let sequential = Hydra::builder().parallelism(1).build();
        let parallel = Hydra::builder().parallelism(4).build();
        let package = sequential.profile(db, &queries).unwrap();
        let a = sequential.regenerate(&package).unwrap();
        let b = parallel.regenerate(&package).unwrap();
        // Identical accuracy output — parallelism must not change results.
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn scenario_sweep_reuses_unchanged_relations() {
        let (db, queries) = client_fixture();
        let session = Hydra::builder().build();
        let package = session.profile(db, &queries).unwrap();
        let base = session.regenerate_stateful(&package).unwrap();

        // A row override on one fact relation: every dimension it does not
        // touch is reused from the base state.
        let scenario = Scenario::scaled("stress", 1.0).with_row_override("store_sales", 100_000);
        let result = session.scenario(&scenario, &base).unwrap();
        assert_eq!(
            result
                .regeneration
                .summary
                .relation("store_sales")
                .unwrap()
                .total_rows,
            100_000
        );
        let cached = result.regeneration.build_report.cached_relations;
        let total = result.regeneration.build_report.relations.len();
        assert!(
            cached >= total - 2,
            "only {cached}/{total} relations reused from the base state"
        );
    }

    #[test]
    fn session_query_answers_summary_direct_with_scan_parity() {
        use hydra_query::exec::ExecStrategy;

        let (db, queries) = client_fixture();
        let session = Hydra::builder().build();
        let package = session.profile(db, &queries).unwrap();
        let result = session.regenerate(&package).unwrap();

        // COUNT(*) over the fact table answers from the summary and agrees
        // with the published row target.
        let answer = session
            .query(&result, "select count(*) from store_sales")
            .unwrap();
        assert_eq!(answer.strategy(), ExecStrategy::SummaryDirect);
        assert_eq!(answer.scanned_tuples, 0);
        assert_eq!(answer.single().unwrap().aggregates[0].as_i64(), Some(2_000));

        // A joined, grouped aggregate: the summary-direct answer equals the
        // forced tuple scan bit-for-bit.
        let sql = "select count(*), avg(item.i_current_price) from store_sales, item \
                   where store_sales.ss_item_fk = item.i_item_sk \
                   group by item.i_category";
        let direct = session.query(&result, sql).unwrap();
        let scanned = session
            .query_mode(&result, sql, ExecMode::ScanOnly)
            .unwrap();
        assert_eq!(direct.strategy(), ExecStrategy::SummaryDirect);
        assert_eq!(scanned.strategy(), ExecStrategy::TupleScan);
        assert_eq!(direct.rows, scanned.rows);
        assert!(!direct.rows.is_empty());

        // SummaryOnly surfaces out-of-class queries as errors.
        let err = session
            .query_mode(
                &result,
                "select count(*) from store_sales group by store_sales.ss_sk",
                ExecMode::SummaryOnly,
            )
            .unwrap_err();
        assert!(err.to_string().contains("out of the summary-direct class"));

        // Parse errors surface as query errors.
        assert!(session.query(&result, "select oops").is_err());
    }

    #[test]
    fn stream_table_drives_sinks() {
        let (db, queries) = client_fixture();
        let session = Hydra::builder().build();
        let package = session.profile(db, &queries).unwrap();
        let result = session.regenerate(&package).unwrap();

        let mut collect = CollectSink::new();
        let stats = session
            .stream_table(&result, "item", &mut collect, None, Some(50))
            .unwrap();
        assert_eq!(stats.rows, 50);
        assert_eq!(collect.rows.len(), 50);

        let mut count = CountingSink::new();
        let stats = session
            .stream_table(&result, "item", &mut count, None, None)
            .unwrap();
        assert_eq!(
            stats.rows,
            result.summary.relation("item").unwrap().total_rows
        );
        assert_eq!(count.rows, stats.rows);

        assert!(session
            .stream_table(&result, "missing", &mut CountingSink::new(), None, None)
            .is_err());
    }

    #[test]
    fn session_velocity_knob_throttles_streams() {
        let (db, queries) = client_fixture();
        // 2_500 rows/s session default → 250 rows take at least ~100 ms.
        let session = Hydra::builder().velocity(2_500.0).build();
        assert_eq!(session.velocity(), Some(2_500.0));
        let package = session.profile(db, &queries).unwrap();
        let result = session.regenerate(&package).unwrap();

        let mut sink = CountingSink::new();
        let stats = session
            .stream_table(&result, "store_sales", &mut sink, None, Some(250))
            .unwrap();
        assert_eq!(stats.rows, 250);
        assert_eq!(stats.target_rows_per_sec, Some(2_500.0));
        assert!(
            stats.elapsed >= std::time::Duration::from_millis(90),
            "throttled stream finished too fast: {:?}",
            stats.elapsed
        );
        assert!(
            stats.achieved_rows_per_sec <= 2_500.0 * 1.16,
            "stream emitted faster than the session target: {:.0} rows/s",
            stats.achieved_rows_per_sec
        );

        // An explicit per-call rate overrides the session default.
        let stats = session
            .stream_table(&result, "store_sales", &mut sink, Some(1e9), Some(100))
            .unwrap();
        assert_eq!(stats.target_rows_per_sec, Some(1e9));
    }

    #[test]
    fn builder_velocity_accepts_the_wire_minimum_and_none() {
        let builder = Hydra::builder().velocity(1e-3).velocity(None);
        assert_eq!(builder.build().velocity(), None);
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn builder_velocity_rejects_zero() {
        let _ = Hydra::builder().velocity(0.0);
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn builder_velocity_rejects_subnormal() {
        let _ = Hydra::builder().velocity(f64::MIN_POSITIVE);
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn builder_velocity_rejects_infinity() {
        let _ = Hydra::builder().velocity(f64::INFINITY);
    }

    #[test]
    fn sharded_streaming_concatenates_to_the_sequential_output() {
        let (db, queries) = client_fixture();
        let session = Hydra::builder().build();
        let package = session.profile(db, &queries).unwrap();
        let result = session.regenerate(&package).unwrap();

        let mut sequential = CollectSink::new();
        session
            .stream_table(&result, "store_sales", &mut sequential, None, None)
            .unwrap();

        for shards in [1, 2, 5] {
            let run = session
                .stream_table_sharded(&result, "store_sales", shards, |_, _| CollectSink::new())
                .unwrap();
            assert_eq!(run.total_rows(), sequential.rows.len() as u64);
            let concatenated: Vec<_> = run.into_sinks().into_iter().flat_map(|s| s.rows).collect();
            assert_eq!(concatenated, sequential.rows, "{shards} shards");
        }

        let materialized = session
            .materialize_sharded(&result, "store_sales", 3)
            .unwrap();
        assert_eq!(materialized.rows(), &sequential.rows[..]);

        assert!(session
            .stream_table_sharded(&result, "missing", 2, |_, _| CollectSink::new())
            .is_err());
        assert!(session.materialize_sharded(&result, "missing", 2).is_err());
    }
}
