//! The summary registry: named, versioned, solved summaries.
//!
//! A registry entry is a fully-solved regeneration — the published
//! [`TransferPackage`] plus the vendor-side [`RegenerationResult`] built from
//! it — shared behind an [`Arc`].  Publishing solves **outside** the registry
//! lock and swaps the finished entry in atomically, so concurrent readers
//! (streams, describes, scenario re-solves) always observe either the old
//! complete entry or the new complete entry, never a torn one.
//!
//! Every name retains its **full version chain** in memory: publishing or
//! delta-publishing `name` appends a new version rather than replacing the
//! old one, and [`SummaryRegistry::resolve`] serves any retained version via
//! a `name@version` spec (time travel).  `get`/`list` keep their historical
//! meaning — the *latest* version per name.
//!
//! A registry is either in-memory ([`SummaryRegistry::in_memory`]) or
//! durable ([`SummaryRegistry::durable`]); both commit every version
//! through one path that assigns the version under the commit mutex and
//! then inserts it into the chain.  A durable registry additionally
//! appends the version's [`WalRecord`] to an fsync'd write-ahead log
//! **before** the version becomes visible; the log is the only on-disk
//! form of a version.  A publish is logged in full (package, build report,
//! solve baseline without regions); a delta as its [`WorkloadDelta`], its
//! build report and only the relations it re-solved — the rest, and the
//! package, are re-derived from `name@version-1`, so a version costs what
//! changed on disk.  A checkpoint **seals** the active `wal.log` as the
//! next numbered segment (`wal-<seq>.log`) and continues in a fresh one:
//! nothing is re-encoded.  Records are [`codec`] payloads (tag bytes and
//! varints, under half the JSON text the registry wrote before); boot
//! still reads a JSON payload by its leading `{`, and still reads the
//! snapshot files registries wrote before sealed segments, so older
//! directories keep booting.  Boot loads the newest valid legacy snapshot,
//! then every sealed segment in order, then `wal.log` — **zero cold LP
//! solves**, full version chains intact, a torn `wal.log` tail truncated
//! in place.  A corrupt sealed segment, a record or snapshot that passed
//! its checksum but does not decode or restore, or a delta record whose
//! base was not restored, fails the boot: serving a chain with a hole
//! would let the next publish re-issue an acknowledged version number.

use crate::codec;
use crate::error::{ServiceError, ServiceResult};
use crate::protocol::{
    DeltaPublished, RelationInfo, ScenarioReport, ScenarioSpec, SummaryDetail, SummaryInfo,
};
use hydra_core::delta::RegenerationState;
use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_core::vendor::RegenerationResult;
use hydra_datagen::generator::DynamicGenerator;
use hydra_lp::solver::SolveStatus;
use hydra_query::delta::WorkloadDelta;
use hydra_summary::builder::SummaryBuildReport;
use hydra_summary::delta::{RelationBaseline, SolveBaseline};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// The solved state a record logs: enough, together with `name@version-1`
/// for a delta record, to rebuild a servable entry with **zero** LP solves
/// via [`Hydra::restore_stateful`].
///
/// A *full* record carries the package and every relation.  A *delta*
/// record (no package) carries only the relations whose signature differs
/// from version − 1's: a relation with an unchanged signature was reused by
/// construction, so it takes its signature and summary from version − 1
/// and its stats from this record's report, and the package is version −
/// 1's with the delta applied ([`TransferPackage::apply_delta`]).  The
/// baseline is written without regions; one with full or support-only
/// partitions (as older registries wrote it) restores the same way, its
/// regions dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolvedState {
    /// The (merged) transfer package; `None` on a delta record.
    pub package: Option<TransferPackage>,
    /// The build report of the original solve, reattached verbatim on
    /// recovery so descriptions stay bit-identical across restarts.
    pub report: SummaryBuildReport,
    /// Per-relation solve artifacts: every relation on a full record, the
    /// re-solved ones on a delta record.
    pub baseline: SolveBaseline,
}

/// The operation that produced a version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalOp {
    /// A full publish; the package is `WalRecord::solved.package`.
    Publish,
    /// An incremental delta publish, retaining the delta that produced it.
    Delta {
        /// The workload delta that was merged.
        delta: WorkloadDelta,
    },
}

/// One version as the WAL logs it: the operation plus the resulting solved
/// state, appended (and fsync'd) before the version becomes visible.  A
/// legacy snapshot is every name's records in version order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// Registry name.
    pub name: String,
    /// The version this record commits.
    pub version: u32,
    /// What produced it; `None` on the entries of snapshots written before
    /// records carried it (those are full records).
    pub op: Option<WalOp>,
    /// The solved state of the committed version.
    pub solved: SolvedState,
}

/// A legacy snapshot: the record of every retained version at the
/// checkpoint that wrote it.
#[derive(Debug, Default, Deserialize)]
struct SnapshotFile {
    entries: Vec<WalRecord>,
}

/// What a durable boot recovered (reported by [`SummaryRegistry::durable`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Versions restored from the newest valid legacy snapshot.
    pub snapshot_versions: usize,
    /// Versions restored from the sealed segments and the active log.
    pub wal_versions: usize,
    /// Torn-tail bytes truncated from the active log (0 on a clean
    /// shutdown).
    pub wal_truncated_bytes: u64,
    /// Corrupt legacy snapshot files skipped in favor of an older one.
    pub snapshots_skipped: usize,
}

/// One published, solved summary.
///
/// Entries are solved *statefully*: alongside the summary they retain the
/// per-relation solve artifacts (constraint signatures, summaries, stats)
/// that make [`SummaryRegistry::delta_publish`] incremental.
#[derive(Debug)]
pub struct RegistryEntry {
    /// Registry name.
    pub name: String,
    /// Version (starts at 1, bumped on re-publish).
    pub version: u32,
    /// The evolvable regeneration state (package + summary + baseline).
    state: RegenerationState,
    detail: SummaryDetail,
    /// What produced this version, as its record logs it.
    op: Option<WalOp>,
}

impl RegistryEntry {
    /// Wraps a solved (published, delta-merged or recovered) state as an
    /// entry.  A fresh commit passes version 0; [`SummaryRegistry::commit`]
    /// assigns the real one.
    fn new(name: &str, version: u32, state: RegenerationState, op: Option<WalOp>) -> Self {
        let detail = describe(name, version, &state);
        RegistryEntry {
            name: name.to_string(),
            version,
            state,
            detail,
            op,
        }
    }

    /// This version's record — the one encoder of the WAL.  A delta
    /// version whose predecessor `base` (`name@version-1`) is given logs
    /// only the relations whose signature differs from `base`'s; any other
    /// version logs in full.
    fn record(&self, base: Option<&RegistryEntry>) -> WalRecord {
        let baseline = self.state.baseline();
        let (package, relations) = match (&self.op, base) {
            (Some(WalOp::Delta { .. }), Some(base)) => {
                let prev = &base.state.baseline().relations;
                let changed = baseline
                    .relations
                    .iter()
                    .filter(|(table, r)| prev.get(*table).map(|p| p.signature) != Some(r.signature))
                    .map(|(table, r)| (table.clone(), r.clone()))
                    .collect();
                (None, changed)
            }
            _ => (Some(self.state.package.clone()), baseline.relations.clone()),
        };
        WalRecord {
            name: self.name.clone(),
            version: self.version,
            op: self.op.clone(),
            solved: SolvedState {
                package,
                report: self.state.regeneration.build_report.clone(),
                baseline: SolveBaseline { relations },
            },
        }
    }

    /// The package this entry was solved from.
    pub fn package(&self) -> &TransferPackage {
        &self.state.package
    }

    /// The solved regeneration (summary, reports, schema).
    pub fn regeneration(&self) -> &RegenerationResult {
        &self.state.regeneration
    }

    /// The per-relation solve artifacts (no regions) this entry retains.
    pub fn baseline(&self) -> &SolveBaseline {
        self.state.baseline()
    }

    /// Registry-level description (name, version, sizes).
    pub fn info(&self) -> SummaryInfo {
        self.detail.info.clone()
    }

    /// Per-relation description (row counts, constraint signatures).
    pub fn detail(&self) -> SummaryDetail {
        self.detail.clone()
    }

    /// This version's regenerated database, borrowed in place (streams,
    /// seeks, scans and queries).
    pub fn generator(&self) -> DynamicGenerator<'_> {
        self.regeneration().generator()
    }
}

/// Builds the wire description of a solved entry.  Constraint counts and
/// signatures come from the state's constraint set, which already holds
/// every AQP decomposed by relation.
fn describe(name: &str, version: u32, state: &RegenerationState) -> SummaryDetail {
    let regeneration = &state.regeneration;
    let relations = regeneration
        .build_report
        .relations
        .iter()
        .map(|stats| RelationInfo {
            table: stats.table.clone(),
            total_rows: stats.total_rows,
            summary_rows: stats.summary_rows,
            constraints: state.constraints.of_table(&stats.table).len(),
            constraint_signature: state.constraints.table_signature(&stats.table),
            feasible: stats.lp.status == SolveStatus::Feasible,
        })
        .collect::<Vec<_>>();
    SummaryDetail {
        info: SummaryInfo {
            name: name.to_string(),
            version,
            relations: relations.len(),
            total_rows: regeneration.summary.total_rows(),
            summary_bytes: regeneration.summary.size_bytes(),
            queries: state.package.query_count(),
        },
        relations,
    }
}

/// True iff `name` is a valid registry name (`[A-Za-z0-9_-]+`) — anything
/// path-like is rejected (and `@` stays free for `name@version` specs).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Decodes a checksummed WAL record or snapshot payload by its first byte: a
/// [`codec::FORMAT`] payload with the binary codec, a `{` one as the JSON
/// registries wrote before it; any other byte is an error naming it.
fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    if payload.first() == Some(&b'{') {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    } else {
        codec::from_bytes(payload).map_err(|e| e.to_string())
    }
}

/// The boot error for something in `path` that cannot be recovered — a
/// sealed segment with a bad frame, or a record that passed its checksum
/// yet does not decode or restore: skipping it would silently drop an
/// acknowledged version.
fn unrecoverable(path: &Path, what: &str, e: impl std::fmt::Display) -> ServiceError {
    ServiceError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{}: {what} cannot be recovered: {e}", path.display()),
    ))
}

/// Mutable durable-mode state, held under the commit mutex (the WAL append
/// order **is** the commit order).
#[derive(Debug)]
struct DurableState {
    wal: hydra_wal::Wal,
    /// Records in the active log (appended since the last seal).
    records_in_wal: usize,
    /// Seal after this many records.
    checkpoint_every: usize,
}

/// Where a recovered version was read from at boot.
#[derive(Clone, Copy)]
enum Source {
    Snapshot,
    Wal,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Snapshot => "snapshot",
            Source::Wal => "wal",
        }
    }
}

/// What a commit records: a full publish, or a delta merged onto `base`.
enum Commit<'a> {
    Publish,
    Delta { base: &'a Arc<RegistryEntry> },
}

/// A concurrent store of solved summaries, in memory or WAL-backed.
#[derive(Debug)]
pub struct SummaryRegistry {
    session: Hydra,
    /// Name → full version chain (version → entry).  Readers resolve the
    /// latest version or any retained historical one.
    entries: RwLock<BTreeMap<String, BTreeMap<u32, Arc<RegistryEntry>>>>,
    /// Serializes commits.  Holds the WAL state of a durable registry;
    /// `None` means in-memory.  Lock order: `commit` before `entries`;
    /// never the reverse.
    commit: Mutex<Option<DurableState>>,
    recovery: RecoveryReport,
}

impl SummaryRegistry {
    /// An in-memory registry solving with `session` (the session's summary
    /// cache is shared across publishes and scenario re-solves).
    pub fn in_memory(session: Hydra) -> Self {
        SummaryRegistry {
            session,
            entries: RwLock::new(BTreeMap::new()),
            commit: Mutex::new(None),
            recovery: RecoveryReport::default(),
        }
    }

    /// A WAL-backed registry rooted at `dir`, sealing the active log after
    /// every `checkpoint_every` records.  Boot recovers the full version
    /// chains from the newest valid legacy snapshot (if any), every sealed
    /// segment in order, then the active `wal.log` — **zero cold LP
    /// solves** — truncating a torn `wal.log` tail in place.  Every publish
    /// and delta is appended (and fsync'd) to the WAL *before* its version
    /// becomes visible, so an acknowledged version survives any crash.
    ///
    /// A sealed segment with a bad frame, and a record or the newest
    /// snapshot that passes its checksum but does not decode or restore,
    /// is an error naming the file (and the `name@version` when known);
    /// only a torn `wal.log` tail and a corrupt snapshot footer are
    /// recovered from.
    pub fn durable(
        session: Hydra,
        dir: impl Into<PathBuf>,
        checkpoint_every: usize,
    ) -> ServiceResult<Self> {
        let started = Instant::now();
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut registry = Self::in_memory(session);
        let metrics = registry.session.metrics();

        // 1. The newest checksum-valid legacy snapshot (older ones are the
        //    fallback chain for a corrupt footer).
        let mut snapshot = SnapshotFile::default();
        let mut snapshot_path = PathBuf::new();
        for (_, path) in hydra_wal::snapshots(&dir)?.iter().rev() {
            match hydra_wal::read_snapshot(path) {
                Ok(payload) => {
                    snapshot = decode(&payload).map_err(|e| unrecoverable(path, "snapshot", e))?;
                    snapshot_path = path.clone();
                    metrics
                        .counter_labeled(
                            "hydra_wal_recovered_bytes_total",
                            "source",
                            Source::Snapshot.label(),
                        )
                        .add(payload.len() as u64);
                    break;
                }
                Err(e) => {
                    registry.recovery.snapshots_skipped += 1;
                    eprintln!(
                        "hydra-service: skipping corrupt snapshot {}: {e}",
                        path.display()
                    );
                }
            }
        }
        for record in snapshot.entries {
            let what = format!("entry {}@{}", record.name, record.version);
            registry
                .recover(Source::Snapshot, record)
                .map_err(|e| unrecoverable(&snapshot_path, &what, e))?;
        }

        // 2. The sealed segments, oldest first.  A segment was fsync'd
        //    whole, so a bad frame in it is corruption, never a torn tail.
        let wal_path = dir.join("wal.log");
        for (_, path) in hydra_wal::segments(&wal_path)? {
            let records = hydra_wal::read_segment(&path)
                .map_err(|e| unrecoverable(&path, "sealed segment", e))?;
            registry.recover_log(&path, records)?;
        }

        // 3. The active log; replay truncates a torn tail back to the last
        //    intact record.
        let replayed = hydra_wal::replay(&wal_path)?;
        if replayed.truncated_bytes > 0 {
            eprintln!(
                "hydra-service: truncated {} torn bytes from {} (crash mid-append)",
                replayed.truncated_bytes,
                wal_path.display()
            );
        }
        registry.recovery.wal_truncated_bytes = replayed.truncated_bytes;
        let records_in_wal = replayed.records.len();
        registry.recover_log(&wal_path, replayed.records)?;

        let wal = hydra_wal::Wal::open(&wal_path)?;
        *registry.commit.get_mut().expect("commit lock poisoned") = Some(DurableState {
            wal,
            records_in_wal,
            checkpoint_every: checkpoint_every.max(1),
        });
        // Refresh the version gauges for everything we recovered.
        for entry in registry.list() {
            metrics
                .gauge_labeled("hydra_registry_version", "name", &entry.name)
                .set(i64::from(entry.version));
        }
        metrics
            .gauge("hydra_wal_recovery_seconds")
            .set(started.elapsed().as_nanos() as i64);
        Ok(registry)
    }

    /// Decodes and restores the records of one log file (a sealed segment
    /// or the active log) in append order.
    fn recover_log(&mut self, path: &Path, records: Vec<Vec<u8>>) -> ServiceResult<()> {
        let decoded = self.session.metrics().counter_labeled(
            "hydra_wal_recovered_bytes_total",
            "source",
            Source::Wal.label(),
        );
        for (index, payload) in records.into_iter().enumerate() {
            decoded.add(payload.len() as u64);
            let record: WalRecord = decode(&payload)
                .map_err(|e| unrecoverable(path, &format!("record {}", index + 1), e))?;
            let what = format!("entry {}@{}", record.name, record.version);
            self.recover(Source::Wal, record)
                .map_err(|e| unrecoverable(path, &what, e))?;
        }
        Ok(())
    }

    /// Restores one recovered version with zero LP solves and inserts it,
    /// unless an earlier source already covers `name@version`.  A delta
    /// record is resolved against the restored `name@version-1`; a missing
    /// base is an error, never a hole.
    fn recover(&mut self, source: Source, record: WalRecord) -> Result<(), String> {
        let WalRecord {
            name,
            version,
            op,
            solved,
        } = record;
        if self.get_version(&name, version).is_some() {
            return Ok(()); // already covered (the snapshot holds this WAL record)
        }
        let (package, baseline) = match (solved.package, &op) {
            (Some(package), _) => (package, solved.baseline),
            (None, Some(WalOp::Delta { delta })) => {
                let base_version = version.saturating_sub(1);
                let base = self
                    .get_version(&name, base_version)
                    .ok_or_else(|| format!("its base {name}@{base_version} was not restored"))?;
                let package = base
                    .state
                    .package
                    .apply_delta(delta)
                    .map_err(|e| e.to_string())?;
                let prev = &base.state.baseline().relations;
                let mut relations = solved.baseline.relations;
                for stats in &solved.report.relations {
                    if let Entry::Vacant(slot) = relations.entry(stats.table.clone()) {
                        let reused = prev.get(&stats.table).ok_or_else(|| {
                            format!(
                                "relation `{}` is neither logged nor in {name}@{base_version}",
                                stats.table
                            )
                        })?;
                        slot.insert(RelationBaseline {
                            stats: stats.clone(),
                            ..reused.clone()
                        });
                    }
                }
                (package, SolveBaseline { relations })
            }
            (None, _) => return Err("a record without a package must be a delta".to_string()),
        };
        let state = self
            .session
            .restore_stateful(&package, solved.report, baseline)
            .map_err(|e| e.to_string())?;
        let entry = RegistryEntry::new(&name, version, state, op);
        self.insert_version(Arc::new(entry));
        match source {
            Source::Snapshot => self.recovery.snapshot_versions += 1,
            Source::Wal => self.recovery.wal_versions += 1,
        }
        self.session
            .metrics()
            .counter_labeled(
                "hydra_wal_recovered_records_total",
                "source",
                source.label(),
            )
            .inc();
        Ok(())
    }

    /// What a durable boot recovered (all-zero for an in-memory registry).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The session entries are solved with.
    pub fn session(&self) -> &Hydra {
        &self.session
    }

    /// Appends `entry` to its name's version chain (the one place a commit
    /// or a recovery adds a version).
    fn insert_version(&self, entry: Arc<RegistryEntry>) {
        self.entries
            .write()
            .expect("registry lock poisoned")
            .entry(entry.name.clone())
            .or_default()
            .insert(entry.version, entry);
    }

    /// The one commit path for every new version, in either mode.  Under
    /// the commit mutex it (1) assigns the version — the name's latest
    /// plus one for a publish; for a delta, the base's plus one, provided
    /// the base is still the latest; (2) in durable mode, appends and
    /// fsyncs the WAL record; (3) inserts the entry and checkpoints if due;
    /// (4) updates the registry metrics.
    ///
    /// Returns `Ok(None)` when a delta's base moved while it solved (the
    /// caller re-merges against the new base).  If the WAL append fails,
    /// nothing is registered.
    fn commit(
        &self,
        mut entry: RegistryEntry,
        op: Commit<'_>,
    ) -> ServiceResult<Option<Arc<RegistryEntry>>> {
        let mut durable = self.commit.lock().expect("commit lock poisoned");
        let version = match op {
            Commit::Publish => self.version_of(&entry.name) + 1,
            Commit::Delta { base, .. } => match self.get(&entry.name) {
                Some(current) if Arc::ptr_eq(&current, base) => base.version + 1,
                Some(_) => return Ok(None),
                None => {
                    return Err(ServiceError::Protocol(format!(
                        "summary `{}` disappeared while the delta solved",
                        entry.name
                    )))
                }
            },
        };
        entry.version = version;
        entry.detail.info.version = version;
        if let Some(dur) = durable.as_mut() {
            let base = match op {
                Commit::Publish => None,
                Commit::Delta { base } => Some(&**base),
            };
            self.wal_append(dur, &entry.record(base))?;
        }
        let entry = Arc::new(entry);
        self.insert_version(Arc::clone(&entry));
        if let Some(dur) = durable.as_mut() {
            self.maybe_checkpoint(dur);
        }
        let metrics = self.session.metrics();
        let counter = match op {
            Commit::Publish => "hydra_registry_publishes_total",
            Commit::Delta { .. } => "hydra_registry_delta_merges_total",
        };
        metrics.counter(counter).inc();
        metrics
            .gauge_labeled("hydra_registry_version", "name", &entry.name)
            .set(i64::from(version));
        Ok(Some(entry))
    }

    /// Appends one commit record to the WAL (fsync'd) — the durability
    /// point.  Called with the commit mutex held; the version becomes
    /// visible only after this returns `Ok`.
    fn wal_append(&self, dur: &mut DurableState, record: &WalRecord) -> ServiceResult<()> {
        let bytes = dur.wal.append(&codec::to_bytes(record))?;
        dur.records_in_wal += 1;
        let metrics = self.session.metrics();
        let op = match record.op {
            Some(WalOp::Delta { .. }) => "delta",
            _ => "publish",
        };
        metrics
            .counter_labeled("hydra_wal_records_total", "op", op)
            .inc();
        metrics.counter("hydra_wal_bytes_total").add(bytes);
        let inline = record.solved.baseline.len();
        let reused = record.solved.report.relations.len().saturating_sub(inline);
        for (form, count) in [("inline", inline), ("base", reused)] {
            metrics
                .counter_labeled("hydra_wal_record_relations_total", "form", form)
                .add(count as u64);
        }
        Ok(())
    }

    /// Checkpoints if the active log holds the configured number of
    /// records.  A failed checkpoint is logged, not fatal — the log still
    /// holds every committed record, and the next commit tries again.
    fn maybe_checkpoint(&self, dur: &mut DurableState) {
        if dur.records_in_wal < dur.checkpoint_every {
            return;
        }
        if let Err(e) = self.checkpoint_locked(dur) {
            eprintln!("hydra-service: checkpoint failed (WAL retained): {e}");
        }
    }

    /// Seals the active log as the next numbered segment
    /// ([`hydra_wal::Wal::seal`]).  Every committed version already is a
    /// frame in the log, so nothing is rebuilt or encoded and no registry
    /// entry is read: the seal only gives the file its final name.
    fn checkpoint_locked(&self, dur: &mut DurableState) -> ServiceResult<()> {
        let started = Instant::now();
        let metrics = self.session.metrics();
        if let Err(e) = dur.wal.seal() {
            metrics.counter("hydra_wal_checkpoint_failures_total").inc();
            return Err(e.into());
        }
        dur.records_in_wal = 0;
        metrics
            .histogram_labeled("hydra_wal_checkpoint_seconds", "stage", "write")
            .record_duration(started.elapsed());
        metrics.counter("hydra_wal_checkpoints_total").inc();
        Ok(())
    }

    /// Forces a checkpoint now (durable mode only; no-op otherwise).
    pub fn checkpoint(&self) -> ServiceResult<()> {
        match self.commit.lock().expect("commit lock poisoned").as_mut() {
            Some(dur) => self.checkpoint_locked(dur),
            None => Ok(()),
        }
    }

    /// Solves `package` and registers it under `name`, appending a new
    /// version to the name's chain.  Solving happens outside the registry
    /// lock and the finished entry is swapped in atomically.  In durable
    /// mode the WAL record is appended and fsync'd **before** the version
    /// becomes visible; if the append fails, nothing is registered.
    pub fn publish(
        &self,
        name: &str,
        package: TransferPackage,
    ) -> ServiceResult<Arc<RegistryEntry>> {
        if !valid_name(name) {
            return Err(ServiceError::Protocol(format!(
                "invalid summary name `{name}` (allowed: [A-Za-z0-9_-]+)"
            )));
        }
        let state = self.session.regenerate_stateful(&package)?;
        let entry = RegistryEntry::new(name, 0, state, Some(WalOp::Publish));
        let entry = self.commit(entry, Commit::Publish)?;
        Ok(entry.expect("a publish commit always lands"))
    }

    /// Applies a workload delta to the registered summary `name`
    /// *incrementally*: relations the delta does not touch are reused from
    /// the entry's solve baseline, changed relations re-solve from scratch,
    /// the version is bumped atomically, and the structural
    /// [`hydra_summary::delta::SummaryDiff`] plus the per-relation
    /// reuse/re-solve report are returned (and shipped over the wire by
    /// `DeltaPublish`).
    ///
    /// Solving happens outside the registry lock.  If a racing publish or
    /// delta lands on the same name while this delta solves, the merge is
    /// transparently retried against the new base — so versions stay
    /// strictly monotonic and a reader never observes a summary that mixes
    /// two bases.  In durable mode the WAL record (the delta, its report and
    /// the re-solved relations) is appended and fsync'd before the new
    /// version becomes visible.
    pub fn delta_publish(
        &self,
        name: &str,
        delta: &WorkloadDelta,
    ) -> ServiceResult<DeltaPublished> {
        loop {
            let base = self
                .get(name)
                .ok_or_else(|| ServiceError::Protocol(format!("unknown summary `{name}`")))?;
            let outcome = self
                .session
                .profile_delta(&base.state, delta)
                .map_err(ServiceError::Hydra)?;
            let op = WalOp::Delta {
                delta: delta.clone(),
            };
            let entry = RegistryEntry::new(name, 0, outcome.state, Some(op));
            let Some(entry) = self.commit(entry, Commit::Delta { base: &base })? else {
                continue; // base moved while we solved; re-merge
            };
            let (added, removed, resized) =
                outcome
                    .diff
                    .relations
                    .iter()
                    .fold((0u64, 0u64, 0u64), |(a, rm, rs), r| {
                        (
                            a + r.blocks_added as u64,
                            rm + r.blocks_removed as u64,
                            rs + r.blocks_resized as u64,
                        )
                    });
            for (kind, churn) in [("added", added), ("removed", removed), ("resized", resized)] {
                if churn > 0 {
                    self.session
                        .metrics()
                        .counter_labeled("hydra_registry_block_churn_total", "kind", kind)
                        .add(churn);
                }
            }
            return Ok(DeltaPublished {
                info: entry.info(),
                diff: outcome.diff,
                report: outcome.report,
            });
        }
    }

    /// The latest registered entry for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<RegistryEntry>> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .and_then(|chain| chain.values().next_back().cloned())
    }

    /// A specific retained version of `name`, if still held.
    pub fn get_version(&self, name: &str, version: u32) -> Option<Arc<RegistryEntry>> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .and_then(|chain| chain.get(&version).cloned())
    }

    /// Resolves a `name` or `name@version` spec to an entry: a bare name
    /// resolves to the latest version, a pinned spec to that retained
    /// historical version (time travel).
    pub fn resolve(&self, spec: &str) -> ServiceResult<Arc<RegistryEntry>> {
        match spec.split_once('@') {
            None => self
                .get(spec)
                .ok_or_else(|| ServiceError::Protocol(format!("unknown summary `{spec}`"))),
            Some((name, pin)) => {
                let version: u32 = pin.parse().map_err(|_| {
                    ServiceError::Protocol(format!("invalid version pin in summary spec `{spec}`"))
                })?;
                if self.get(name).is_none() {
                    return Err(ServiceError::Protocol(format!("unknown summary `{name}`")));
                }
                self.get_version(name, version).ok_or_else(|| {
                    ServiceError::Protocol(format!(
                        "summary `{name}` has no retained version {version}"
                    ))
                })
            }
        }
    }

    /// Every retained version of `name`, ascending (empty if unknown).
    pub fn versions_of(&self, name: &str) -> Vec<u32> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .map(|chain| chain.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The latest version of every registered name, in name order.
    pub fn list(&self) -> Vec<Arc<RegistryEntry>> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .values()
            .filter_map(|chain| chain.values().next_back().cloned())
            .collect()
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds a what-if scenario as a delta against the latest version of
    /// a registered summary (published or delta-merged): relations the
    /// scenario leaves unchanged are reused from that version.  Holds no
    /// registry lock while solving, so concurrent streams are never blocked
    /// by a scenario.
    pub fn scenario(&self, name: &str, spec: &ScenarioSpec) -> ServiceResult<ScenarioReport> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServiceError::Protocol(format!("unknown summary `{name}`")))?;
        let result = self.session.scenario(&spec.to_scenario(), &entry.state)?;
        let relation_rows: BTreeMap<String, u64> = result
            .regeneration
            .summary
            .relations
            .iter()
            .map(|(name, r)| (name.clone(), r.total_rows))
            .collect();
        Ok(ScenarioReport {
            scenario: spec.scenario.clone(),
            feasible: result.feasible,
            total_violation: result.total_violation,
            cached_relations: result.regeneration.build_report.cached_relations,
            relation_rows,
        })
    }

    fn version_of(&self, name: &str) -> u32 {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .and_then(|chain| chain.keys().next_back().copied())
            .unwrap_or(0)
    }
}
