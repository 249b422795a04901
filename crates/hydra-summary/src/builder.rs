//! End-to-end summary construction across all relations.
//!
//! The builder processes relations in referential topological order
//! (dimensions before facts) so that every foreign-key axis can point at the
//! already-aligned primary-key blocks of the referenced relation.  This
//! ordering *is* the referential post-processing of the paper's architecture:
//! by construction, every regenerated foreign key lands on an existing
//! auto-numbered primary key.
//!
//! Within one stratum of that order (relations whose dimensions are all
//! already built) the per-relation preprocess → solve → summarize work is
//! independent — the paper's LP decomposition — so the builder fans it out
//! across threads under [`SummaryBuilderConfig::parallelism`].  Results are
//! merged back in deterministic relation order, so parallel construction is
//! bit-identical to sequential.
//!
//! Every build runs through one driver.  A build against a previous
//! [`SolveBaseline`] reuses each relation whose *signature* — a fingerprint
//! of everything that determines its solve (constraints, row target, FK
//! domain widths, alignment, statistics) — is unchanged, and
//! warm-starts the rest; a from-scratch build is the same driver with no
//! baseline.  Workload deltas and what-if scenarios are both such builds
//! against a registered version, so only relations they touch re-solve.

use crate::align::{build_relation_summary, AlignmentStrategy};
use crate::axes::RelationAxes;
use crate::delta::{
    DeltaAction, DeltaBuild, DeltaBuildReport, RelationBaseline, RelationDeltaStats, SolveBaseline,
    SummaryDiff,
};
use crate::error::{SummaryError, SummaryResult};
use crate::solve::{solve_relation, LpStats};
use crate::summary::{DatabaseSummary, RelationSummary};
use hydra_catalog::metadata::DatabaseMetadata;
use hydra_catalog::schema::{Schema, Table};
use hydra_lp::simplex::{WarmOutcome, MAX_PIVOTS};
use hydra_lp::solver::FEASIBILITY_TOLERANCE;
use hydra_partition::region::DEFAULT_MAX_REGIONS;
use hydra_query::aqp::VolumetricConstraint;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of the summary builder.
#[derive(Debug, Clone)]
pub struct SummaryBuilderConfig {
    /// How summary rows pick their value vectors (deterministic by default;
    /// sampled for the E10 ablation).
    pub alignment: AlignmentStrategy,
    /// Worker threads for per-relation solving within a referential stratum
    /// (1 = sequential; results are identical either way).
    pub parallelism: usize,
}

impl Default for SummaryBuilderConfig {
    fn default() -> Self {
        SummaryBuilderConfig {
            alignment: AlignmentStrategy::Deterministic,
            parallelism: 1,
        }
    }
}

impl SummaryBuilderConfig {
    /// Sets the per-stratum worker thread count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }
}

/// Per-relation construction statistics (vendor-screen LP table; experiments
/// E1/E3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationBuildStats {
    /// Relation name.
    pub table: String,
    /// Number of columns the workload references on this relation.
    pub referenced_columns: usize,
    /// Number of volumetric constraints on this relation (before dedup).
    pub workload_constraints: usize,
    /// LP statistics.
    pub lp: LpStats,
    /// Number of summary rows produced.
    pub summary_rows: usize,
    /// Number of tuples the summary regenerates.
    pub total_rows: u64,
    /// Whether this relation was reused from the previous baseline without
    /// re-solving.
    pub from_cache: bool,
}

/// The overall construction report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SummaryBuildReport {
    /// Per-relation statistics, in processing order.
    pub relations: Vec<RelationBuildStats>,
    /// Total wall-clock construction time.
    pub total_time: Duration,
    /// Final summary size in bytes.
    pub summary_bytes: usize,
    /// How many relations were reused from the previous baseline.
    pub cached_relations: usize,
}

impl SummaryBuildReport {
    /// Total number of LP variables across relations.
    pub fn total_lp_variables(&self) -> usize {
        self.relations.iter().map(|r| r.lp.variables).sum()
    }

    /// Total number of LP constraints across relations.
    pub fn total_lp_constraints(&self) -> usize {
        self.relations.iter().map(|r| r.lp.constraints).sum()
    }

    /// Total LP solve time across relations.
    pub fn total_solve_time(&self) -> Duration {
        self.relations.iter().map(|r| r.lp.solve_time).sum()
    }

    /// Renders a vendor-screen style text table of the LP statistics.
    pub fn to_display_table(&self) -> String {
        let mut out = String::from(
            "relation | referenced cols | constraints | LP vars | LP constraints | solve time (ms) | summary rows\n",
        );
        for r in &self.relations {
            out.push_str(&format!(
                "{} | {} | {} | {} | {} | {:.2} | {}{}\n",
                r.table,
                r.referenced_columns,
                r.workload_constraints,
                r.lp.variables,
                r.lp.constraints,
                r.lp.solve_time.as_secs_f64() * 1e3,
                r.summary_rows,
                if r.from_cache { " (cached)" } else { "" }
            ));
        }
        out.push_str(&format!(
            "total: {} vars, {} constraints, {:.2} ms construction, {} bytes\n",
            self.total_lp_variables(),
            self.total_lp_constraints(),
            self.total_time.as_secs_f64() * 1e3,
            self.summary_bytes
        ));
        out
    }
}

/// Builds database summaries from per-relation volumetric constraints.
#[derive(Debug, Clone, Default)]
pub struct SummaryBuilder {
    /// Builder configuration.
    pub config: SummaryBuilderConfig,
}

impl SummaryBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: SummaryBuilderConfig) -> Self {
        SummaryBuilder { config }
    }

    /// Builds the database summary.
    ///
    /// * `schema` — the client schema;
    /// * `row_targets` — target row count per relation (the client's row
    ///   counts, or scaled counts for what-if scenarios);
    /// * `constraints_by_table` — the preprocessed volumetric constraints;
    /// * `metadata` — optional client statistics used to fill columns the
    ///   workload never references.
    ///
    /// This is [`SummaryBuilder::build_retaining`] with the baseline dropped.
    pub fn build(
        &self,
        schema: &Schema,
        row_targets: &BTreeMap<String, u64>,
        constraints_by_table: &BTreeMap<String, Vec<VolumetricConstraint>>,
        metadata: Option<&DatabaseMetadata>,
    ) -> SummaryResult<(DatabaseSummary, SummaryBuildReport)> {
        let (summary, report, _) =
            self.build_retaining(schema, row_targets, constraints_by_table, metadata)?;
        Ok((summary, report))
    }

    /// Runs `f(0..count)` across the configured worker threads, returning
    /// results in index order regardless of thread scheduling.
    fn run_stratum<T: Send>(
        &self,
        count: usize,
        f: impl Fn(usize) -> SummaryResult<T> + Sync,
    ) -> SummaryResult<Vec<T>> {
        let workers = self.config.parallelism.min(count).max(1);
        if workers == 1 {
            return (0..count).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<SummaryResult<T>>>> =
            Mutex::new((0..count).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    let outcome = f(index);
                    results.lock().unwrap()[index] = Some(outcome);
                });
            }
        });
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("worker completed every claimed index"))
            .collect()
    }

    /// The signature of one relation: a fingerprint of every input that
    /// determines its solved summary.
    #[allow(clippy::too_many_arguments)]
    fn signature(
        &self,
        table: &Table,
        row_target: u64,
        fk_domains: &BTreeMap<String, u64>,
        constraints: &[VolumetricConstraint],
        stats: Option<&hydra_catalog::stats::TableStatistics>,
        summaries: &BTreeMap<String, RelationSummary>,
        is_referenced: bool,
    ) -> u64 {
        let mut hasher = DefaultHasher::new();
        table.name.hash(&mut hasher);
        row_target.hash(&mut hasher);
        fk_domains.hash(&mut hasher);
        // Constraints and statistics hash through their canonical JSON
        // encoding (they do not implement Hash themselves), streamed into
        // the hasher without building the text.
        serde_json::hash_into(constraints, &mut hasher);
        if let Some(stats) = stats {
            serde_json::hash_into(stats, &mut hasher);
        }
        // FK projections read the referenced dimension summaries, so their
        // content is part of the signature.
        for fk in table.foreign_keys() {
            if let Some(dim) = summaries.get(&fk.referenced_table) {
                serde_json::hash_into(dim, &mut hasher);
            }
        }
        hash_pipeline(self.config.alignment, &mut hasher);
        // Whether this relation is referenced toggles interior refinement,
        // which changes the solved summary; two packages can disagree on it
        // for the same table name.
        is_referenced.hash(&mut hasher);
        hasher.finish()
    }

    /// [`SummaryBuilder::build`] that additionally *retains* every
    /// relation's solve artifacts (constraint signature, region partition,
    /// solved region counts) as a [`SolveBaseline`] — the seed for later
    /// [`SummaryBuilder::build_delta`] calls.
    pub fn build_retaining(
        &self,
        schema: &Schema,
        row_targets: &BTreeMap<String, u64>,
        constraints_by_table: &BTreeMap<String, Vec<VolumetricConstraint>>,
        metadata: Option<&DatabaseMetadata>,
    ) -> SummaryResult<(DatabaseSummary, SummaryBuildReport, SolveBaseline)> {
        let built =
            self.build_against(schema, row_targets, constraints_by_table, metadata, None)?;
        Ok((built.summary, built.report, built.baseline))
    }

    /// Rebuilds the summary *incrementally* against a previous baseline:
    /// relations whose constraint signature is unchanged are reused outright
    /// (bit-identical, no partitioning, no LP), and changed relations
    /// re-solve with the previous solution's support carried into the new
    /// partition and warm-starting the simplex.  `prev` may be full or
    /// [`SolveBaseline::support_only`]; the decisions are the same.
    ///
    /// The result satisfies the new constraint set exactly as a from-scratch
    /// [`SummaryBuilder::build`] over it does (the `delta_differential`
    /// harness pins this down property by property).
    pub fn build_delta(
        &self,
        schema: &Schema,
        row_targets: &BTreeMap<String, u64>,
        constraints_by_table: &BTreeMap<String, Vec<VolumetricConstraint>>,
        metadata: Option<&DatabaseMetadata>,
        prev: &SolveBaseline,
    ) -> SummaryResult<DeltaBuild> {
        self.build_against(
            schema,
            row_targets,
            constraints_by_table,
            metadata,
            Some(prev),
        )
    }

    /// The one build driver: [`SummaryBuilder::build_retaining`] is
    /// `prev = None`, [`SummaryBuilder::build_delta`] passes the baseline.
    fn build_against(
        &self,
        schema: &Schema,
        row_targets: &BTreeMap<String, u64>,
        constraints_by_table: &BTreeMap<String, Vec<VolumetricConstraint>>,
        metadata: Option<&DatabaseMetadata>,
        prev: Option<&SolveBaseline>,
    ) -> SummaryResult<DeltaBuild> {
        let start = Instant::now();
        let order = schema
            .topological_order()
            .map_err(|e| SummaryError::Catalog(e.to_string()))?;
        let referenced = referenced_set(&order);
        let strata = referential_strata(&order);

        let mut summaries: BTreeMap<String, RelationSummary> = BTreeMap::new();
        let mut report = SummaryBuildReport::default();
        let mut delta_report = DeltaBuildReport::default();
        let mut baseline = SolveBaseline::default();

        for stratum in &strata {
            let built = self.run_stratum(stratum.len(), |index| {
                let table = stratum[index];
                self.solve_or_reuse(
                    table,
                    &summaries,
                    row_targets,
                    constraints_by_table,
                    metadata,
                    referenced.contains(table.name.as_str()),
                    prev.and_then(|p| p.relations.get(&table.name)),
                )
            })?;
            for (summary, stats, rel_baseline, action) in built {
                if stats.from_cache {
                    report.cached_relations += 1;
                }
                let (lp_variables, solve_micros) = match action {
                    DeltaAction::Reused => (0, 0),
                    _ => (stats.lp.variables, stats.lp.solve_time.as_micros() as u64),
                };
                delta_report.relations.push(RelationDeltaStats {
                    table: stats.table.clone(),
                    action,
                    lp_variables,
                    solve_micros,
                });
                report.relations.push(stats);
                baseline
                    .relations
                    .insert(summary.table.clone(), rel_baseline);
                summaries.insert(summary.table.clone(), summary);
            }
        }

        let mut db = DatabaseSummary::new();
        for (_, s) in summaries {
            db.insert(s);
        }
        report.total_time = start.elapsed();
        report.summary_bytes = db.size_bytes();
        delta_report.total_micros = report.total_time.as_micros() as u64;
        // A full build has no previous summary to diff against; skip the
        // block census instead of diffing against an empty database (the
        // caller discards it anyway — see `build_retaining`).
        let diff = match prev {
            Some(p) => SummaryDiff::between(
                p.relations.values().map(|r| &r.summary),
                db.relations.values(),
            ),
            None => SummaryDiff::default(),
        };
        Ok(DeltaBuild {
            summary: db,
            report,
            delta_report,
            baseline,
            diff,
        })
    }

    /// Solves or reuses one relation (see [`SummaryBuilder::build_delta`]
    /// for the decision rules).
    #[allow(clippy::too_many_arguments)]
    fn solve_or_reuse(
        &self,
        table: &Table,
        summaries: &BTreeMap<String, RelationSummary>,
        row_targets: &BTreeMap<String, u64>,
        constraints_by_table: &BTreeMap<String, Vec<VolumetricConstraint>>,
        metadata: Option<&DatabaseMetadata>,
        is_referenced: bool,
        prev: Option<&RelationBaseline>,
    ) -> SummaryResult<(
        RelationSummary,
        RelationBuildStats,
        RelationBaseline,
        DeltaAction,
    )> {
        let row_target = row_targets.get(&table.name).copied().unwrap_or(0);
        let constraints = constraints_by_table
            .get(&table.name)
            .map(Vec::as_slice)
            .unwrap_or(&[]);

        let mut fk_domains: BTreeMap<String, u64> = BTreeMap::new();
        for fk in table.foreign_keys() {
            let width = summaries
                .get(&fk.referenced_table)
                .map(|s| s.total_rows)
                .or_else(|| row_targets.get(&fk.referenced_table).copied())
                .unwrap_or(0);
            fk_domains.insert(fk.referenced_table.clone(), width.max(1));
        }
        let stats_source = metadata.and_then(|m| m.tables.get(&table.name));

        let signature = self.signature(
            table,
            row_target,
            &fk_domains,
            constraints,
            stats_source,
            summaries,
            is_referenced,
        );

        // Unchanged constraint signature: skip the relation entirely — no
        // partitioning, no LP, and the reused summary is bit-identical, so
        // referencing relations with unchanged constraints reuse in turn
        // (their signatures hash the dimension summaries they project onto).
        if let Some(prev) = prev {
            if prev.signature == signature {
                let mut stats = prev.stats.clone();
                stats.from_cache = true;
                let baseline = RelationBaseline {
                    signature,
                    solved: prev.solved.clone(),
                    summary: prev.summary.clone(),
                    stats: stats.clone(),
                };
                return Ok((prev.summary.clone(), stats, baseline, DeltaAction::Reused));
            }
        }

        let axes = RelationAxes::build(table, constraints, &fk_domains)?;
        let solved = solve_relation(
            table,
            &axes,
            constraints,
            row_target,
            summaries,
            is_referenced,
            prev.map(|p| &p.solved),
        )?;
        let summary =
            build_relation_summary(table, &axes, &solved, stats_source, self.config.alignment);
        let stats = RelationBuildStats {
            table: table.name.clone(),
            referenced_columns: axes.columns.len(),
            workload_constraints: constraints.len(),
            lp: solved.stats.clone(),
            summary_rows: summary.row_count(),
            total_rows: summary.total_rows,
            from_cache: false,
        };
        let action = match (prev, solved.stats.warm) {
            (Some(_), WarmOutcome::Hit) => DeltaAction::WarmSolved,
            _ => DeltaAction::ColdSolved,
        };
        let baseline = RelationBaseline {
            signature,
            solved,
            summary: summary.clone(),
            stats: stats.clone(),
        };
        Ok((summary, stats, baseline, action))
    }
}

/// Hashes the fixed solve pipeline into a relation signature.
///
/// Signatures used to be computed over pluggable LP-backend and
/// summary-strategy objects (a name and a parameter fingerprint each), a
/// partition budget and a statistics-fillers switch.  The pipeline is now
/// fixed, but every retained baseline — and so every WAL record — stores
/// signatures computed that way, so this keeps hashing exactly those values:
/// a different hash would make every relation of an existing WAL re-solve
/// on its first delta after an upgrade (`tests/solve_identity.rs` pins it).
fn hash_pipeline(alignment: AlignmentStrategy, hasher: &mut DefaultHasher) {
    let mut solver_hasher = DefaultHasher::new();
    // Least-violation recovery is always on.
    true.hash(&mut solver_hasher);
    FEASIBILITY_TOLERANCE.to_bits().hash(&mut solver_hasher);
    MAX_PIVOTS.hash(&mut solver_hasher);

    "simplex-region".hash(hasher);
    solver_hasher.finish().hash(hasher);
    let (strategy, fingerprint) = match alignment {
        AlignmentStrategy::Deterministic => ("aligned-deterministic", 0u64),
        AlignmentStrategy::Sampled { seed } => ("aligned-sampled", seed ^ 0x5EED),
    };
    strategy.hash(hasher);
    fingerprint.hash(hasher);
    DEFAULT_MAX_REGIONS.hash(hasher);
    // Statistics fillers are always on.
    true.hash(hasher);
}

/// The set of relations that are the target of some foreign key (those get
/// interior LP solutions; see [`solve_relation`]).
fn referenced_set<'a>(order: &[&'a Table]) -> std::collections::BTreeSet<&'a str> {
    order
        .iter()
        .flat_map(|t| {
            t.foreign_keys()
                .iter()
                .map(|fk| fk.referenced_table.as_str())
        })
        .collect()
}

/// Referential strata of a topological order: a relation's depth is one more
/// than the deepest relation it references; relations within one stratum are
/// mutually independent and safe to solve concurrently.
fn referential_strata<'a>(order: &[&'a Table]) -> Vec<Vec<&'a Table>> {
    let mut depth: BTreeMap<&str, usize> = BTreeMap::new();
    let mut strata: Vec<Vec<&'a Table>> = Vec::new();
    for &table in order {
        let d = table
            .foreign_keys()
            .iter()
            .map(|fk| depth.get(fk.referenced_table.as_str()).map_or(0, |d| d + 1))
            .max()
            .unwrap_or(0);
        depth.insert(table.name.as_str(), d);
        if strata.len() <= d {
            strata.resize_with(d + 1, Vec::new);
        }
        strata[d].push(table);
    }
    strata
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::DataType;
    use hydra_query::aqp::FkCondition;
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};

    /// The Figure-1 toy schema.
    fn toy_schema() -> Schema {
        SchemaBuilder::new("toy")
            .table("S", |t| {
                t.column(ColumnBuilder::new("S_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("A", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
                    .column(
                        ColumnBuilder::new("B", DataType::BigInt).domain(Domain::integer(0, 100)),
                    )
            })
            .table("T", |t| {
                t.column(ColumnBuilder::new("T_pk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("C", DataType::BigInt).domain(Domain::integer(0, 10)),
                    )
            })
            .table("R", |t| {
                t.column(ColumnBuilder::new("R_pk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("S_fk", DataType::BigInt).references("S", "S_pk"))
                    .column(ColumnBuilder::new("T_fk", DataType::BigInt).references("T", "T_pk"))
            })
            .build()
            .unwrap()
    }

    fn figure1_constraints() -> BTreeMap<String, Vec<VolumetricConstraint>> {
        let mut map: BTreeMap<String, Vec<VolumetricConstraint>> = BTreeMap::new();
        // σ_{20<=A<60}(S) = 40
        map.entry("S".into())
            .or_default()
            .push(VolumetricConstraint {
                table: "S".into(),
                predicate: TablePredicate::always_true()
                    .with(ColumnPredicate::new("A", CompareOp::Ge, 20))
                    .with(ColumnPredicate::new("A", CompareOp::Lt, 60)),
                fk_conditions: vec![],
                cardinality: 40,
                label: "fig1#3".into(),
            });
        // σ_{2<=C<3}(T) = 1
        map.entry("T".into())
            .or_default()
            .push(VolumetricConstraint {
                table: "T".into(),
                predicate: TablePredicate::always_true()
                    .with(ColumnPredicate::new("C", CompareOp::Ge, 2))
                    .with(ColumnPredicate::new("C", CompareOp::Lt, 3)),
                fk_conditions: vec![],
                cardinality: 1,
                label: "fig1#5".into(),
            });
        // R ⋈ σ(S) = 400
        let s_cond = FkCondition {
            fk_column: "S_fk".into(),
            dim_table: "S".into(),
            dim_predicate: TablePredicate::always_true()
                .with(ColumnPredicate::new("A", CompareOp::Ge, 20))
                .with(ColumnPredicate::new("A", CompareOp::Lt, 60)),
            nested: vec![],
        };
        map.entry("R".into())
            .or_default()
            .push(VolumetricConstraint {
                table: "R".into(),
                predicate: TablePredicate::always_true(),
                fk_conditions: vec![s_cond.clone()],
                cardinality: 400,
                label: "fig1#1".into(),
            });
        // (R ⋈ σ(S)) ⋈ σ(T) = 40
        let t_cond = FkCondition {
            fk_column: "T_fk".into(),
            dim_table: "T".into(),
            dim_predicate: TablePredicate::always_true()
                .with(ColumnPredicate::new("C", CompareOp::Ge, 2))
                .with(ColumnPredicate::new("C", CompareOp::Lt, 3)),
            nested: vec![],
        };
        map.entry("R".into())
            .or_default()
            .push(VolumetricConstraint {
                table: "R".into(),
                predicate: TablePredicate::always_true(),
                fk_conditions: vec![s_cond, t_cond],
                cardinality: 40,
                label: "fig1#0".into(),
            });
        map
    }

    fn row_targets() -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        m.insert("R".to_string(), 1000);
        m.insert("S".to_string(), 100);
        m.insert("T".to_string(), 10);
        m
    }

    #[test]
    fn figure1_end_to_end_summary() {
        let schema = toy_schema();
        let builder = SummaryBuilder::default();
        let (db, report) = builder
            .build(&schema, &row_targets(), &figure1_constraints(), None)
            .unwrap();

        // Every relation regenerates exactly its target row count.
        assert_eq!(db.relation("R").unwrap().total_rows, 1000);
        assert_eq!(db.relation("S").unwrap().total_rows, 100);
        assert_eq!(db.relation("T").unwrap().total_rows, 10);

        // The summary is tiny compared to the data it regenerates.
        assert!(
            db.size_bytes() < 4096,
            "summary is {} bytes",
            db.size_bytes()
        );
        assert!(db.total_summary_rows() <= 12);

        // Constraint satisfaction spot checks.
        let s = db.relation("S").unwrap();
        let pred = TablePredicate::always_true()
            .with(ColumnPredicate::new("A", CompareOp::Ge, 20))
            .with(ColumnPredicate::new("A", CompareOp::Lt, 60));
        let achieved: u64 = s
            .rows
            .iter()
            .filter(|r| pred.evaluate(|c| r.values.get(c)))
            .map(|r| r.count)
            .sum();
        assert_eq!(achieved, 40);

        // Every R summary row references valid PK positions of S and T.
        let r = db.relation("R").unwrap();
        for row in &r.rows {
            let s_fk = row.values["S_fk"].as_i64().unwrap();
            let t_fk = row.values["T_fk"].as_i64().unwrap();
            assert!(s_fk >= 0 && (s_fk as u64) < 100);
            assert!(t_fk >= 0 && (t_fk as u64) < 10);
        }

        // Report accounting.
        assert_eq!(report.relations.len(), 3);
        assert!(report.total_lp_variables() > 0);
        assert!(report.summary_bytes > 0);
        assert_eq!(report.cached_relations, 0);
        let text = report.to_display_table();
        assert!(text.contains("R |"));
        assert!(text.contains("total:"));
    }

    #[test]
    fn relations_without_constraints_still_get_summaries() {
        let schema = toy_schema();
        let builder = SummaryBuilder::default();
        let (db, _) = builder
            .build(&schema, &row_targets(), &BTreeMap::new(), None)
            .unwrap();
        assert_eq!(db.relation("R").unwrap().total_rows, 1000);
        assert_eq!(db.relation("R").unwrap().row_count(), 1);
        assert_eq!(db.relation("T").unwrap().total_rows, 10);
    }

    #[test]
    fn zero_row_targets_produce_empty_summaries() {
        let schema = toy_schema();
        let builder = SummaryBuilder::default();
        let (db, _) = builder
            .build(&schema, &BTreeMap::new(), &BTreeMap::new(), None)
            .unwrap();
        assert_eq!(db.total_rows(), 0);
        assert_eq!(db.relation("R").unwrap().row_count(), 0);
    }

    #[test]
    fn join_constraint_satisfied_by_fact_summary() {
        let schema = toy_schema();
        let builder = SummaryBuilder::default();
        let constraints = figure1_constraints();
        let (db, _) = builder
            .build(&schema, &row_targets(), &constraints, None)
            .unwrap();

        // Verify the R ⋈ σ(S) = 400 constraint against the generated summary:
        // count R rows whose S_fk lands in a satisfying S block.
        let s = db.relation("S").unwrap();
        let pred = TablePredicate::always_true()
            .with(ColumnPredicate::new("A", CompareOp::Ge, 20))
            .with(ColumnPredicate::new("A", CompareOp::Lt, 60));
        let intervals = s
            .satisfying_pk_intervals(&pred, &[], &db.relations)
            .unwrap();
        let r = db.relation("R").unwrap();
        let achieved: u64 = r
            .rows
            .iter()
            .filter(|row| {
                row.values["S_fk"]
                    .as_i64()
                    .map(|v| intervals.iter().any(|iv| iv.contains(v)))
                    .unwrap_or(false)
            })
            .map(|row| row.count)
            .sum();
        assert_eq!(achieved, 400);
    }

    #[test]
    fn sampled_alignment_config_builds() {
        let schema = toy_schema();
        let builder = SummaryBuilder::new(SummaryBuilderConfig {
            alignment: AlignmentStrategy::Sampled { seed: 99 },
            ..Default::default()
        });
        let (db, _) = builder
            .build(&schema, &row_targets(), &figure1_constraints(), None)
            .unwrap();
        assert_eq!(db.relation("R").unwrap().total_rows, 1000);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let schema = toy_schema();
        let constraints = figure1_constraints();
        let sequential = SummaryBuilder::default()
            .build(&schema, &row_targets(), &constraints, None)
            .unwrap();
        let parallel = SummaryBuilder::new(SummaryBuilderConfig::default().with_parallelism(4))
            .build(&schema, &row_targets(), &constraints, None)
            .unwrap();
        assert_eq!(sequential.0, parallel.0, "summaries must be bit-identical");
        // Reports match too, modulo wall-clock timings.
        for (a, b) in sequential.1.relations.iter().zip(&parallel.1.relations) {
            assert_eq!(a.table, b.table);
            assert_eq!(a.lp.variables, b.lp.variables);
            assert_eq!(a.lp.constraints, b.lp.constraints);
            assert_eq!(a.lp.status, b.lp.status);
            assert_eq!(a.summary_rows, b.summary_rows);
            assert_eq!(a.total_rows, b.total_rows);
        }
    }

    #[test]
    fn delta_build_reuses_unchanged_and_warm_solves_changed() {
        let schema = toy_schema();
        let constraints = figure1_constraints();
        let builder = SummaryBuilder::default();
        let (first, report1, baseline) = builder
            .build_retaining(&schema, &row_targets(), &constraints, None)
            .unwrap();
        assert_eq!(report1.cached_relations, 0);
        assert_eq!(baseline.len(), 3);
        assert_eq!(baseline.to_summary(), first);

        // Identity delta: every relation reused, bit-identical summary,
        // structurally empty diff.
        let built = builder
            .build_delta(&schema, &row_targets(), &constraints, None, &baseline)
            .unwrap();
        assert_eq!(built.summary, first);
        assert_eq!(built.delta_report.reused(), 3);
        assert!(built.diff.is_unchanged());
        assert_eq!(built.report.cached_relations, 3);

        // A cardinality re-annotation on S only (same boxes, new demand):
        // S re-solves (warm — the re-swept partition equals the previous one
        // and the old support closes without pricing), T is untouched, and R re-solves
        // because its FK projection reads the changed S summary.
        let mut revised = constraints.clone();
        revised.get_mut("S").unwrap()[0].cardinality = 50;
        let built = builder
            .build_delta(&schema, &row_targets(), &revised, None, &baseline)
            .unwrap();
        let by_table: BTreeMap<&str, &crate::delta::RelationDeltaStats> = built
            .delta_report
            .relations
            .iter()
            .map(|r| (r.table.as_str(), r))
            .collect();
        assert_eq!(by_table["T"].action, crate::delta::DeltaAction::Reused);
        assert_ne!(by_table["S"].action, crate::delta::DeltaAction::Reused);
        assert_ne!(by_table["R"].action, crate::delta::DeltaAction::Reused);
        assert_eq!(
            by_table["S"].action,
            crate::delta::DeltaAction::WarmSolved,
            "re-annotation keeps the partition and the old support feasible-adjacent"
        );
        // The incremental result satisfies the revised constraints exactly
        // as a from-scratch build does.
        let (scratch, _) = builder
            .build(&schema, &row_targets(), &revised, None)
            .unwrap();
        for table in ["R", "S", "T"] {
            assert_eq!(
                built.summary.relation(table).unwrap().total_rows,
                scratch.relation(table).unwrap().total_rows,
                "{table} row count"
            );
        }
        let s = built.summary.relation("S").unwrap();
        let pred = TablePredicate::always_true()
            .with(ColumnPredicate::new("A", CompareOp::Ge, 20))
            .with(ColumnPredicate::new("A", CompareOp::Lt, 60));
        let achieved: u64 = s
            .rows
            .iter()
            .filter(|r| pred.evaluate(|c| r.values.get(c)))
            .map(|r| r.count)
            .sum();
        assert_eq!(achieved, 50);
        // T carried over bit-identically; S shows up in the diff.
        assert_eq!(
            built.summary.relation("T").unwrap(),
            first.relation("T").unwrap()
        );
        assert!(built.diff.changed_relations().contains(&"S"));
        let diff_t = built
            .diff
            .relations
            .iter()
            .find(|r| r.table == "T")
            .unwrap();
        assert!(diff_t.is_unchanged());
    }

    #[test]
    fn delta_build_matches_parallel_and_sequential() {
        let schema = toy_schema();
        let constraints = figure1_constraints();
        let sequential = SummaryBuilder::default();
        let parallel = SummaryBuilder::new(SummaryBuilderConfig::default().with_parallelism(4));
        let (_, _, base_seq) = sequential
            .build_retaining(&schema, &row_targets(), &constraints, None)
            .unwrap();
        let (_, _, base_par) = parallel
            .build_retaining(&schema, &row_targets(), &constraints, None)
            .unwrap();
        let mut revised = constraints.clone();
        revised.get_mut("S").unwrap()[0].cardinality = 55;
        let a = sequential
            .build_delta(&schema, &row_targets(), &revised, None, &base_seq)
            .unwrap();
        let b = parallel
            .build_delta(&schema, &row_targets(), &revised, None, &base_par)
            .unwrap();
        assert_eq!(
            a.summary, b.summary,
            "delta builds must be parallelism-invariant"
        );
    }
}
