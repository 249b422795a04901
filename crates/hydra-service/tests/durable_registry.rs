//! The durable registry end to end: WAL-backed commits, checkpoints that
//! seal WAL segments, instant recovery with zero cold LP solves (legacy
//! snapshot directories included), time-travel resolution, and the fsync
//! discipline of the write path.

mod common;

use common::write_legacy_snapshot;
use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_engine::database::Database;
use hydra_query::delta::{ConstraintSet, WorkloadDelta};
use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
use hydra_query::query::SpjQuery;
use hydra_service::registry::{SolvedState, SummaryRegistry, WalOp, WalRecord};
use hydra_summary::builder::SummaryBuilder;
use hydra_workload::{harvest_workload, retail_client_fixture};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn session() -> Hydra {
    Hydra::builder().build()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hydra-durable-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A narrow web_sales query harvested against `db`, as a workload delta.
fn narrow_delta(db: &Database, id: &str, threshold: i64) -> WorkloadDelta {
    let mut narrow = SpjQuery::new(id);
    narrow.add_table("web_sales");
    narrow.set_predicate(
        "web_sales",
        TablePredicate::always_true().with(ColumnPredicate::new(
            "ws_quantity",
            CompareOp::Lt,
            threshold,
        )),
    );
    let harvested = harvest_workload(db, &[narrow]).expect("harvest");
    let entry = harvested.entries.into_iter().next().expect("entry");
    WorkloadDelta::new().add_annotated(entry.query, entry.aqp.expect("annotated"))
}

/// Total LP solve count across every outcome label — the zero-cold-solve
/// recovery assertion reads this off a freshly booted session's metrics.
fn lp_solves(session: &Hydra) -> u64 {
    ["cold", "warm_hit", "warm_fellback", "reused"]
        .iter()
        .map(|outcome| {
            session
                .metrics()
                .counter_labeled("hydra_lp_solves_total", "outcome", outcome)
                .value()
        })
        .sum()
}

/// The acceptance scenario: three names, each with two chained deltas on
/// top of its publish (versions 1→3), restart on the same WAL dir, and the
/// recovered registry holds every name and every version **bit-identically**
/// without a single LP solve.
#[test]
fn durable_restart_recovers_all_versions_with_zero_lp_solves() {
    let dir = temp_dir("recover");
    let mut truth: Vec<(String, u32, String)> = Vec::new();

    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("open durable");
        for (i, name) in ["retail-a", "retail-b", "retail-c"].iter().enumerate() {
            let rows = 400 + 100 * i as u64;
            let (db, queries) = retail_client_fixture(rows, 150, 4);
            let package = session.profile(db.clone(), &queries).expect("profile");
            registry.publish(name, package).expect("publish");
            for (v, threshold) in [(2u32, 40), (3u32, 25)] {
                let delta = narrow_delta(&db, &format!("{name}-drift-{v}"), threshold);
                let published = registry.delta_publish(name, &delta).expect("delta");
                assert_eq!(published.info.version, v);
            }
            for version in 1..=3 {
                let entry = registry.get_version(name, version).expect("version");
                truth.push((
                    name.to_string(),
                    version,
                    serde_json::to_string(&entry.detail()).expect("encode"),
                ));
            }
        }
    }

    // Reboot on a fresh session (fresh metrics, fresh cache) over the same
    // directory.
    let session = session();
    let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("reopen");
    let recovery = registry.recovery_report();
    assert_eq!(
        recovery.snapshot_versions + recovery.wal_versions,
        9,
        "3 names x 3 versions recovered: {recovery:?}"
    );
    assert_eq!(
        lp_solves(&session),
        0,
        "recovery must not run the LP solver"
    );
    assert_eq!(registry.len(), 3);
    for (name, version, detail) in &truth {
        let entry = registry
            .get_version(name, *version)
            .unwrap_or_else(|| panic!("{name}@{version} missing after recovery"));
        let recovered = serde_json::to_string(&entry.detail()).expect("encode");
        assert_eq!(
            &recovered, detail,
            "{name}@{version} must recover bit-identical"
        );
        assert_eq!(registry.versions_of(name), vec![1, 2, 3]);
    }
    // Time travel: pinned resolution returns the historical entry, the bare
    // name the latest, and a missing pin is a structured error.
    assert_eq!(registry.resolve("retail-a@1").expect("pin v1").version, 1);
    assert_eq!(registry.resolve("retail-a").expect("latest").version, 3);
    let err = registry.resolve("retail-a@9").expect_err("missing version");
    assert!(
        err.to_string().contains("no retained version 9"),
        "unexpected error: {err}"
    );
    let err = registry.resolve("nobody@1").expect_err("unknown name");
    assert!(err.to_string().contains("unknown summary"), "{err}");

    // The recovered registry is live: a new publish commits version 4.
    let (db, queries) = retail_client_fixture(450, 150, 4);
    let package = session.profile(db, &queries).expect("profile");
    let entry = registry.publish("retail-a", package).expect("republish");
    assert_eq!(entry.version, 4);
    assert!(lp_solves(&session) > 0, "the live publish does solve");
}

/// A torn WAL tail (crash mid-append) is truncated back to the last intact
/// record; everything acknowledged before the tear recovers.
#[test]
fn torn_wal_tail_is_discarded_cleanly() {
    let dir = temp_dir("torn");
    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("open");
        let (db, queries) = retail_client_fixture(400, 150, 4);
        let package = session.profile(db.clone(), &queries).expect("profile");
        registry.publish("retail", package).expect("publish v1");
        let delta = narrow_delta(&db, "drift", 40);
        registry.delta_publish("retail", &delta).expect("delta v2");
    }
    // Simulate a crash mid-append: garbage after the last intact record.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
    std::fs::write(&wal, &bytes).expect("tear wal");

    let session = session();
    let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("reopen");
    let recovery = registry.recovery_report();
    assert_eq!(recovery.wal_truncated_bytes, 3, "{recovery:?}");
    assert_eq!(registry.versions_of("retail"), vec![1, 2]);
    assert_eq!(lp_solves(&session), 0);
}

/// Every `.log` file in `dir` except the active `wal.log`, sorted.
fn sealed_segments(dir: &Path) -> Vec<PathBuf> {
    let mut sealed: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "log") && !p.ends_with("wal.log"))
        .collect();
    sealed.sort();
    sealed
}

/// True when some file in `dir` has the legacy snapshot extension.
fn has_snapshot_file(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| e.ok())
        .any(|e| e.path().extension().is_some_and(|ext| ext == "snap"))
}

/// Checkpoints seal the active log into numbered segments and leave
/// `wal.log` empty; recovery reads the records back from the segments.
#[test]
fn checkpoint_seals_wal_segments_and_recovery_reads_them() {
    let dir = temp_dir("checkpoint");
    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 1).expect("open");
        let (db, queries) = retail_client_fixture(400, 150, 4);
        let package = session.profile(db.clone(), &queries).expect("profile");
        registry.publish("retail", package).expect("publish");
        let delta = narrow_delta(&db, "drift", 40);
        registry.delta_publish("retail", &delta).expect("delta");
    }
    assert_eq!(
        std::fs::metadata(dir.join("wal.log"))
            .expect("wal meta")
            .len(),
        0,
        "checkpoint_every=1 must leave the WAL empty"
    );
    assert_eq!(
        sealed_segments(&dir),
        vec![
            dir.join("wal-0000000000.log"),
            dir.join("wal-0000000001.log")
        ],
        "one sealed segment per checkpoint"
    );
    for segment in sealed_segments(&dir) {
        let records = hydra_wal::read_segment(&segment).expect("strict read");
        assert_eq!(records.len(), 1, "{}", segment.display());
    }
    assert!(!has_snapshot_file(&dir), "no checkpoint writes a snapshot");

    let session = session();
    let registry = SummaryRegistry::durable(session.clone(), &dir, 1).expect("reopen");
    let recovery = registry.recovery_report();
    assert_eq!(recovery.snapshot_versions, 0, "{recovery:?}");
    assert_eq!(recovery.wal_versions, 2, "{recovery:?}");
    assert_eq!(registry.versions_of("retail"), vec![1, 2]);
    assert_eq!(lp_solves(&session), 0);
}

/// Opening a durable registry on an empty directory creates `wal.log` and
/// fsyncs the directory, so the new file's name — and with it every record
/// later fsync'd into it — survives a power cut.
#[test]
fn opening_a_durable_registry_on_an_empty_directory_syncs_the_directory() {
    let dir = temp_dir("create-sync");
    let (_, dirs_before) = hydra_wal::sync_counts();
    let _registry = SummaryRegistry::durable(session(), &dir, 1000).expect("open");
    let (_, dirs_after) = hydra_wal::sync_counts();
    assert!(dir.join("wal.log").exists());
    assert!(
        dirs_after > dirs_before,
        "creating wal.log must fsync the registry directory"
    );
}

/// The durable write path issues its syncs: a publish fsyncs the WAL file
/// before it is acknowledged, and a checkpoint fsyncs the registry
/// directory after renaming the sealed segment.  The checkpoint is timed as
/// one `write` stage; there is no encoding left to time.
#[test]
fn durable_write_path_issues_file_and_dir_syncs() {
    let dir = temp_dir("syncs");
    let session = session();
    let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("open");
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = session.profile(db, &queries).expect("profile");

    let (files_before, _) = hydra_wal::sync_counts();
    registry.publish("retail", package).expect("publish");
    let (files_after, dirs_before) = hydra_wal::sync_counts();
    assert!(
        files_after > files_before,
        "publish must fsync the WAL before acknowledging"
    );
    registry.checkpoint().expect("checkpoint");
    let (_, dirs_after) = hydra_wal::sync_counts();
    assert!(
        dirs_after > dirs_before,
        "checkpoint must fsync the registry directory after the rename"
    );
    let timed = |stage: &str| {
        session
            .metrics()
            .histogram_labeled("hydra_wal_checkpoint_seconds", "stage", stage)
            .snapshot()
    };
    let write = timed("write");
    assert_eq!(write.count, 1, "one forced checkpoint, one `write` sample");
    assert!(write.sum > 0, "the `write` stage took no time");
    assert_eq!(timed("encode").count, 0, "a seal encodes nothing");
}

/// A WAL record or newest snapshot that passed its checksum but does not
/// decode fails the boot with an error naming the file — it is never
/// skipped, because a chain with a hole would let the next publish re-issue
/// an acknowledged version number.
#[test]
fn checksummed_but_undecodable_records_fail_the_boot() {
    let dir = temp_dir("undecodable");
    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("open");
        let (db, queries) = retail_client_fixture(400, 150, 4);
        let package = session.profile(db, &queries).expect("profile");
        registry.publish("retail", package).expect("publish v1");
    }
    let mut wal = hydra_wal::Wal::open(dir.join("wal.log")).expect("open wal");
    wal.append(b"not a wal record").expect("append");
    drop(wal);
    let err = SummaryRegistry::durable(session(), &dir, 1000)
        .expect_err("an undecodable acknowledged record must fail the boot");
    let message = err.to_string();
    assert!(
        message.contains("wal.log") && message.contains("record 2"),
        "{message}"
    );

    let dir = temp_dir("undecodable-snapshot");
    write_legacy_snapshot(&dir.join("snapshot-0000000000.snap"), b"{\"entries\":");
    let err = SummaryRegistry::durable(session(), &dir, 1000)
        .expect_err("an undecodable newest snapshot must fail the boot");
    assert!(
        err.to_string().contains("snapshot-0000000000.snap"),
        "{err}"
    );
}

/// A sealed segment was fsync'd whole, so a bad frame in it is corruption,
/// not a torn tail: boot fails with an error naming the segment and leaves
/// the file as it was — nothing acknowledged is truncated away.
#[test]
fn a_corrupt_sealed_segment_fails_the_boot_and_is_left_untouched() {
    let dir = temp_dir("corrupt-segment");
    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 2).expect("open");
        let (db, queries) = retail_client_fixture(400, 150, 4);
        let package = session.profile(db.clone(), &queries).expect("profile");
        registry.publish("retail", package).expect("publish v1");
        for (step, threshold) in [30, 35].into_iter().enumerate() {
            let delta = narrow_delta(&db, &format!("drift-{step}"), threshold);
            registry.delta_publish("retail", &delta).expect("delta");
        }
    }
    // v1-v2 sealed in segment 0, v3 in wal.log.
    let segment = dir.join("wal-0000000000.log");
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes[20] ^= 0x01; // a payload byte of the first record
    std::fs::write(&segment, &bytes).expect("corrupt segment");

    let err = SummaryRegistry::durable(session(), &dir, 2)
        .expect_err("a corrupt sealed segment must fail the boot");
    let message = err.to_string();
    assert!(
        message.contains("wal-0000000000.log") && message.contains("cannot be recovered"),
        "{message}"
    );
    assert_eq!(
        std::fs::metadata(&segment).expect("segment meta").len(),
        bytes.len() as u64,
        "boot must not truncate a sealed segment"
    );
}

/// A seal whose rename fails — a directory squats on the next segment name,
/// so `rename` returns EISDIR — is logged and retried at the next commit,
/// never fatal: the commit that triggered it stays acknowledged,
/// `hydra_wal_checkpoints_total` does not move while
/// `hydra_wal_checkpoint_failures_total` counts every failed attempt, the
/// error names the segment, and later commits keep appending to `wal.log`.
/// Once the blocker is gone, a reboot restores every version byte-identical
/// with zero LP solves, and seals again.
#[test]
fn a_failed_seal_keeps_every_commit_and_the_log_appending() {
    let dir = temp_dir("failed-seal");
    let mut truth = Vec::new();
    let blocker = dir.join("wal-0000000000.log");
    {
        let session = session();
        let registry = SummaryRegistry::durable(session.clone(), &dir, 2).expect("open");
        let (db, queries) = retail_client_fixture(400, 150, 4);
        let package = session.profile(db.clone(), &queries).expect("profile");
        registry.publish("retail", package).expect("publish v1");
        std::fs::create_dir(&blocker).expect("block the segment name");
        for (step, threshold) in [30, 35, 40].into_iter().enumerate() {
            let delta = narrow_delta(&db, &format!("drift-{step}"), threshold);
            let published = registry
                .delta_publish("retail", &delta)
                .expect("a failed seal does not fail the commit");
            assert_eq!(published.info.version, step as u32 + 2);
        }
        // Commits 2, 3 and 4 each reached the threshold and tried to seal.
        assert_eq!(counter(&session, "hydra_wal_checkpoints_total"), 0);
        assert_eq!(counter(&session, "hydra_wal_checkpoint_failures_total"), 3);
        let err = registry
            .checkpoint()
            .expect_err("the segment name is still blocked")
            .to_string();
        assert!(err.contains("wal-0000000000.log"), "{err}");
        assert_eq!(counter(&session, "hydra_wal_checkpoint_failures_total"), 4);
        assert_eq!(counter(&session, "hydra_wal_checkpoints_total"), 0);
        assert_eq!(registry.versions_of("retail"), vec![1, 2, 3, 4]);
        let logged = hydra_wal::read_segment(&dir.join("wal.log")).expect("read wal.log");
        assert_eq!(logged.len(), 4, "every commit appended to wal.log");
        for version in 1..=4 {
            truth.push(version_bytes(&registry, "retail", version));
        }
    }
    std::fs::remove_dir(&blocker).expect("remove the blocker");

    let booted = session();
    let registry = SummaryRegistry::durable(booted.clone(), &dir, 2).expect("reboot");
    assert_eq!(registry.recovery_report().wal_versions, 4);
    assert_eq!(lp_solves(&booted), 0, "recovery must not run the LP solver");
    for (version, bytes) in (1..).zip(&truth) {
        assert!(
            version_bytes(&registry, "retail", version) == *bytes,
            "retail@{version} must boot byte-identical"
        );
    }
    registry
        .checkpoint()
        .expect("the seal succeeds once unblocked");
    assert_eq!(counter(&booted, "hydra_wal_checkpoints_total"), 1);
    assert_eq!(counter(&booted, "hydra_wal_checkpoint_failures_total"), 0);
    assert!(blocker.is_file(), "the log was sealed under the freed name");
}

/// `Describe` of a delta version reads its constraint counts and
/// signatures off the merged constraint set; it must equal, field by field
/// except the version, a from-scratch publish of the package
/// `TransferPackage::apply_delta` derives — live, and after a reboot
/// restores the delta version from the WAL.
#[test]
fn a_delta_versions_describe_equals_a_from_scratch_publish_of_its_package() {
    let dir = temp_dir("describe-delta");
    let session = session();
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = session.profile(db.clone(), &queries).expect("profile");
    let delta = narrow_delta(&db, "drift-describe", 30);
    let scratch = SummaryRegistry::in_memory(session.clone());
    scratch
        .publish("retail", package.apply_delta(&delta).expect("apply_delta"))
        .expect("from-scratch publish");
    let mut expected = scratch.get("retail").expect("published").detail();
    expected.info.version = 2;
    {
        let registry = SummaryRegistry::durable(session.clone(), &dir, 1000).expect("open");
        registry.publish("retail", package).expect("publish v1");
        registry.delta_publish("retail", &delta).expect("delta v2");
        let live = registry.get_version("retail", 2).expect("v2").detail();
        assert_eq!(live, expected, "live delta version");
        assert!(live.relations.iter().any(|r| r.constraints > 0));
    }
    let registry = SummaryRegistry::durable(Hydra::builder().build(), &dir, 1000).expect("reboot");
    let recovered = registry.get_version("retail", 2).expect("v2").detail();
    assert_eq!(recovered, expected, "recovered delta version");
}

/// Builds `package` from scratch with the session's builder, returning the
/// report and the *full* baseline (the form older registries logged).
fn full_build(
    session: &Hydra,
    package: &TransferPackage,
) -> (
    hydra_summary::builder::SummaryBuildReport,
    hydra_summary::delta::SolveBaseline,
) {
    let metadata = &package.metadata;
    let row_targets: BTreeMap<String, u64> = metadata
        .schema
        .table_names()
        .iter()
        .map(|t| (t.clone(), metadata.row_count(t)))
        .collect();
    let constraints = ConstraintSet::from_workload(&package.workload).expect("constraints");
    let (_, report, baseline) = SummaryBuilder::new(session.config().builder.clone())
        .build_retaining(
            &metadata.schema,
            &row_targets,
            constraints.by_table(),
            Some(metadata),
        )
        .expect("full build");
    (report, baseline)
}

/// Upgrade path: a WAL record carrying the *full* baseline recovers with
/// zero LP solves, describes bit-identically to a live publish, is retained
/// support-only, and evolves exactly like the live entry.
#[test]
fn full_baseline_wal_records_recover_support_only() {
    let dir = temp_dir("upgrade");
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = session().profile(db.clone(), &queries).expect("profile");
    let (report, full) = full_build(&session(), &package);
    let support: usize = full
        .relations
        .values()
        .map(|r| r.solved.support().len())
        .sum();
    assert!(
        support < full.retained_regions(),
        "the fixture has empty regions"
    );
    let record = WalRecord {
        name: "retail".to_string(),
        version: 1,
        op: Some(WalOp::Publish),
        solved: SolvedState {
            package: Some(package.clone()),
            report,
            baseline: full,
        },
    };
    let mut wal = hydra_wal::Wal::open(dir.join("wal.log")).expect("open wal");
    wal.append(serde_json::to_string(&record).expect("encode").as_bytes())
        .expect("append");
    drop(wal);

    let booted = session();
    let registry = SummaryRegistry::durable(booted.clone(), &dir, 1000).expect("boot");
    assert_eq!(registry.versions_of("retail"), vec![1]);
    assert_eq!(lp_solves(&booted), 0, "recovery must not run the LP solver");
    let live = SummaryRegistry::in_memory(session());
    live.publish("retail", package).expect("live publish");
    let describe = |registry: &SummaryRegistry| {
        serde_json::to_string(&registry.get_version("retail", 1).expect("v1").detail())
            .expect("encode")
    };
    assert_eq!(describe(&registry), describe(&live));
    // Support-only: the entry retains exactly the nonzero-count regions.
    assert_eq!(
        booted
            .metrics()
            .gauge("hydra_registry_retained_regions")
            .value(),
        support as i64
    );
    // ... and a delta on it decides as on the live entry.
    let delta = narrow_delta(&db, "drift", 40);
    let upgraded = registry.delta_publish("retail", &delta).expect("delta");
    let fresh = live.delta_publish("retail", &delta).expect("delta");
    assert_eq!(upgraded.diff, fresh.diff);
    let actions = |published: &hydra_service::protocol::DeltaPublished| {
        published
            .report
            .relations
            .iter()
            .map(|r| (r.table.clone(), r.action))
            .collect::<Vec<_>>()
    };
    assert_eq!(actions(&upgraded), actions(&fresh));
}

/// A `*.tmp` staging file an older server stranded (a crash between a
/// snapshot's write and its rename) is not a registry entry: boot ignores
/// it, and since nothing writes staging files any more, leaves it alone.
#[test]
fn stale_tmp_files_of_older_servers_do_not_affect_boot() {
    let dir = temp_dir("stale-tmp");
    let stale = dir.join("snapshot-0000000007.tmp");
    std::fs::write(&stale, b"{\"torn\":").expect("seed stale tmp");
    let registry = SummaryRegistry::durable(session(), &dir, 1000).expect("open");
    assert!(
        registry.is_empty(),
        "a staging file is not a registry entry"
    );
    assert!(stale.exists(), "boot deletes nothing it did not write");
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("encode")
}

/// Every byte a reader can observe of one version: package, baseline,
/// build report and `Describe` detail, each as JSON.
fn version_bytes(registry: &SummaryRegistry, name: &str, version: u32) -> [String; 4] {
    let entry = registry
        .get_version(name, version)
        .unwrap_or_else(|| panic!("{name}@{version} missing"));
    [
        json(entry.package()),
        json(entry.baseline()),
        json(&entry.regeneration().build_report),
        json(&entry.detail()),
    ]
}

fn counter(session: &Hydra, family: &str) -> u64 {
    session.metrics().counter(family).value()
}

fn relations_logged(session: &Hydra, form: &str) -> u64 {
    session
        .metrics()
        .counter_labeled("hydra_wal_record_relations_total", "form", form)
        .value()
}

/// The byte-level differential: two names, interleaved, each published,
/// delta'd three times, re-published and delta'd twice more, at every
/// checkpoint interval.  Every version recovers byte-identical (package,
/// baseline, report, `Describe`) with zero LP solves, every delta record is
/// under half the size of its chain's publish record, and every version is
/// on disk exactly once: the sealed segments plus `wal.log` hold exactly
/// the bytes appended.
#[test]
fn delta_records_recover_byte_identical_at_every_checkpoint_interval() {
    let fixtures: Vec<_> = [400u64, 500]
        .iter()
        .map(|&rows| retail_client_fixture(rows, 150, 4))
        .collect();
    let names = ["retail-a", "retail-b"];
    for checkpoint_every in [1usize, 2, 3, 1000] {
        let dir = temp_dir(&format!("differential-{checkpoint_every}"));
        let mut truth: Vec<(&str, u32, [String; 4])> = Vec::new();
        {
            let session = session();
            let registry =
                SummaryRegistry::durable(session.clone(), &dir, checkpoint_every).expect("open");
            // One step per name and round, interleaved: a publish, or a
            // delta (narrow web_sales queries, or a drifted row count).
            let mut publish_bytes = [0u64; 2];
            let (mut inline, mut by_base) = (0u64, 0u64);
            for step in 0..8u32 {
                for (i, name) in names.iter().enumerate() {
                    let (db, queries) = &fixtures[i];
                    let before = counter(&session, "hydra_wal_bytes_total");
                    let version = if step == 0 || step == 4 {
                        let (db, queries) = if step == 0 {
                            (db.clone(), queries.clone())
                        } else {
                            retail_client_fixture(450 + 50 * i as u64, 150, 4)
                        };
                        let package = session.profile(db, &queries).expect("profile");
                        let entry = registry.publish(name, package).expect("publish");
                        publish_bytes[i] = counter(&session, "hydra_wal_bytes_total") - before;
                        entry.version
                    } else {
                        let delta = if step % 3 == 2 {
                            WorkloadDelta::new()
                                .with_row_count("store_sales", 600 + 10 * step as u64)
                        } else {
                            narrow_delta(db, &format!("{name}-drift-{step}"), 20 + 5 * step as i64)
                        };
                        let published = registry.delta_publish(name, &delta).expect("delta");
                        let bytes = counter(&session, "hydra_wal_bytes_total") - before;
                        assert!(
                            2 * bytes < publish_bytes[i],
                            "{name}@{}: delta record {bytes} B vs publish record {} B",
                            published.info.version,
                            publish_bytes[i]
                        );
                        let reused = published.report.reused() as u64;
                        inline += published.report.relations.len() as u64 - reused;
                        by_base += reused;
                        published.info.version
                    };
                    assert_eq!(version, step + 1);
                    truth.push((name, version, version_bytes(&registry, name, version)));
                }
            }
            // Publishes log every relation inline; a delta its re-solved
            // relations inline and its reused ones by reference.
            let relations = truth[0].2[3].matches("\"table\"").count() as u64;
            assert_eq!(relations_logged(&session, "inline"), 4 * relations + inline);
            assert_eq!(relations_logged(&session, "base"), by_base);
            assert!(by_base > 0, "the deltas reuse relations");
            assert_eq!(
                counter(&session, "hydra_wal_checkpoints_total"),
                16 / checkpoint_every as u64
            );
            // Each version is on disk once, as the frame it was appended as.
            let files = sealed_segments(&dir)
                .into_iter()
                .chain([dir.join("wal.log")]);
            let on_disk: u64 = files
                .map(|p| std::fs::metadata(p).expect("log meta").len())
                .sum();
            assert_eq!(on_disk, counter(&session, "hydra_wal_bytes_total"));
            assert_eq!(
                sealed_segments(&dir).len(),
                16 / checkpoint_every,
                "one segment per checkpoint"
            );
            assert!(!has_snapshot_file(&dir), "no checkpoint writes a snapshot");
        }

        let session = session();
        let registry =
            SummaryRegistry::durable(session.clone(), &dir, checkpoint_every).expect("reopen");
        let recovery = registry.recovery_report();
        assert_eq!(
            recovery.snapshot_versions + recovery.wal_versions,
            16,
            "every {checkpoint_every}: {recovery:?}"
        );
        assert_eq!(
            lp_solves(&session),
            0,
            "recovery must not run the LP solver"
        );
        for (name, version, bytes) in &truth {
            assert!(
                version_bytes(&registry, name, *version) == *bytes,
                "{name}@{version} must recover byte-identical (checkpoint every {checkpoint_every})"
            );
        }
        // A seal after recovery reboots to the same bytes.
        registry.checkpoint().expect("checkpoint");
        drop(registry);
        let registry =
            SummaryRegistry::durable(session.clone(), &dir, checkpoint_every).expect("reboot");
        assert_eq!(lp_solves(&session), 0);
        for (name, version, bytes) in &truth {
            assert!(version_bytes(&registry, name, *version) == *bytes);
        }
    }
}

/// Flips one byte of `path`'s snapshot footer so its checksum fails.
fn corrupt_footer(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read snapshot");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(path, &bytes).expect("corrupt snapshot");
}

/// A delta record whose `name@version-1` was not restored — here because
/// the newest legacy snapshot's footer is corrupt and boot fell back to the
/// older one — fails the boot naming the file, the record and the missing
/// base: never a hole in the chain, never a panic.
#[test]
fn a_delta_record_without_its_base_fails_the_boot() {
    let live = SummaryRegistry::in_memory(session());
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = live
        .session()
        .profile(db.clone(), &queries)
        .expect("profile");
    live.publish("retail", package).expect("publish v1");
    let deltas: Vec<WorkloadDelta> = [30, 35, 40, 45]
        .into_iter()
        .enumerate()
        .map(|(step, threshold)| narrow_delta(&db, &format!("drift-{step}"), threshold))
        .collect();
    for delta in &deltas {
        live.delta_publish("retail", delta).expect("delta");
    }
    let record = |version: u32| {
        let delta = version.checked_sub(2).map(|i| &deltas[i as usize]);
        json_era_record(&live, "retail", version, delta)
    };
    let snapshot = |versions: std::ops::RangeInclusive<u32>| {
        let entries: Vec<String> = versions.map(record).collect();
        format!(r#"{{"entries":[{}]}}"#, entries.join(","))
    };
    // v1-v2 in snapshot 0, v1-v4 in snapshot 1, v5 in the WAL.
    let dir = temp_dir("missing-base");
    write_legacy_snapshot(
        &dir.join("snapshot-0000000000.snap"),
        snapshot(1..=2).as_bytes(),
    );
    write_legacy_snapshot(
        &dir.join("snapshot-0000000001.snap"),
        snapshot(1..=4).as_bytes(),
    );
    let mut wal = hydra_wal::Wal::open(dir.join("wal.log")).expect("open wal");
    wal.append(record(5).as_bytes()).expect("append");
    drop(wal);
    SummaryRegistry::durable(session(), &dir, 2).expect("both snapshots intact: boot succeeds");

    corrupt_footer(&dir.join("snapshot-0000000001.snap"));
    let err = SummaryRegistry::durable(session(), &dir, 2)
        .expect_err("a delta record without its base must fail the boot");
    let message = err.to_string();
    assert!(
        message.contains("wal.log")
            && message.contains("retail@5")
            && message.contains("base retail@4 was not restored"),
        "{message}"
    );
}

/// Snapshots written before delta records (`{"entries":[{name, version,
/// solved}]}`, every entry full, no `op`) boot bit-identically with zero
/// LP solves, and so does the directory after a checkpoint.
#[test]
fn parent_format_snapshots_boot_bit_identically() {
    let live = SummaryRegistry::in_memory(session());
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = live
        .session()
        .profile(db.clone(), &queries)
        .expect("profile");
    live.publish("retail", package).expect("publish");
    live.delta_publish("retail", &narrow_delta(&db, "drift", 40))
        .expect("delta");
    let entries: Vec<String> = [1u32, 2]
        .iter()
        .map(|&version| {
            let entry = live.get_version("retail", version).expect("version");
            format!(
                r#"{{"name":"retail","version":{version},"solved":{{"package":{},"report":{},"baseline":{}}}}}"#,
                json(entry.package()),
                json(&entry.regeneration().build_report),
                json(entry.baseline()),
            )
        })
        .collect();
    let dir = temp_dir("parent-snapshot");
    let payload = format!(r#"{{"entries":[{}]}}"#, entries.join(","));
    write_legacy_snapshot(&dir.join("snapshot-0000000000.snap"), payload.as_bytes());

    for _ in 0..2 {
        let booted = session();
        let registry = SummaryRegistry::durable(booted.clone(), &dir, 1000).expect("boot");
        assert_eq!(registry.recovery_report().snapshot_versions, 2);
        assert_eq!(lp_solves(&booted), 0, "recovery must not run the LP solver");
        for version in [1, 2] {
            assert!(
                version_bytes(&registry, "retail", version)
                    == version_bytes(&live, "retail", version),
                "retail@{version} must boot bit-identical"
            );
        }
        registry.checkpoint().expect("checkpoint");
    }
}

/// `name@version` of `live` as a registry before the binary codec logged
/// it: a full record for a publish, and for a delta version only the
/// relations whose signature differs from `name@version-1`'s.
fn json_era_record(
    live: &SummaryRegistry,
    name: &str,
    version: u32,
    delta: Option<&WorkloadDelta>,
) -> String {
    let entry = live.get_version(name, version).expect("version");
    let (op, package, baseline) = match delta {
        None => (
            WalOp::Publish,
            Some(entry.package().clone()),
            entry.baseline().clone(),
        ),
        Some(delta) => {
            let base = live.get_version(name, version - 1).expect("base");
            let mut baseline = entry.baseline().clone();
            baseline.relations.retain(|table, r| {
                base.baseline().relations.get(table).map(|b| b.signature) != Some(r.signature)
            });
            let op = WalOp::Delta {
                delta: delta.clone(),
            };
            (op, None, baseline)
        }
    };
    json(&WalRecord {
        name: name.to_string(),
        version,
        op: Some(op),
        solved: SolvedState {
            package,
            report: entry.regeneration().build_report.clone(),
            baseline,
        },
    })
}

/// The legacy snapshot payloads in `dir`, oldest first, and the records of
/// the active `wal.log`.
fn payloads(dir: &Path) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snapshots.sort();
    let snapshots = snapshots
        .iter()
        .map(|p| hydra_wal::read_snapshot(p).expect("snapshot"))
        .collect();
    let wal = hydra_wal::replay(&dir.join("wal.log")).expect("replay");
    (snapshots, wal.records)
}

/// The first byte of the newest legacy snapshot's payload in `dir`, and
/// of each record of the active `wal.log`.
fn payload_heads(dir: &Path) -> (Option<u8>, Vec<u8>) {
    let (snapshots, wal) = payloads(dir);
    (
        snapshots.last().map(|p| p[0]),
        wal.iter().map(|r| r[0]).collect(),
    )
}

/// Upgrade path: a directory a JSON-era registry wrote (two versions, as a
/// WAL or as a snapshot) that the binary-codec registry keeps appending to.
/// The JSON-era versions boot byte-identical to a live in-memory registry,
/// every version boots byte-identical to what was acknowledged, with zero
/// LP solves, boot reports what it decoded, and a checkpoint seals the
/// records verbatim, JSON-era ones included.
fn json_era_directory_keeps_booting_after_binary_appends(json_snapshot: bool) {
    let live = SummaryRegistry::in_memory(session());
    let (db, queries) = retail_client_fixture(400, 150, 4);
    let package = live
        .session()
        .profile(db.clone(), &queries)
        .expect("profile");
    live.publish("retail", package).expect("publish");
    let deltas: Vec<WorkloadDelta> = [40, 30, 35]
        .iter()
        .enumerate()
        .map(|(i, &threshold)| narrow_delta(&db, &format!("drift-{i}"), threshold))
        .collect();
    live.delta_publish("retail", &deltas[0]).expect("delta");
    let records = [
        json_era_record(&live, "retail", 1, None),
        json_era_record(&live, "retail", 2, Some(&deltas[0])),
    ];
    assert!(records[1].contains(r#""package":null"#), "a delta record");
    let dir = temp_dir(if json_snapshot {
        "json-snapshot"
    } else {
        "json-wal"
    });
    if json_snapshot {
        let payload = format!(r#"{{"entries":[{}]}}"#, records.join(","));
        write_legacy_snapshot(&dir.join("snapshot-0000000000.snap"), payload.as_bytes());
    } else {
        let mut wal = hydra_wal::Wal::open(dir.join("wal.log")).expect("open wal");
        for record in &records {
            wal.append(record.as_bytes()).expect("append");
        }
    }
    // The JSON-era versions boot as they were acknowledged; the versions
    // appended after them are acknowledged by the new registry.
    let truth: Vec<[String; 4]> = {
        let registry = SummaryRegistry::durable(session(), &dir, 1000).expect("boot");
        for version in [1, 2] {
            assert!(
                version_bytes(&registry, "retail", version)
                    == version_bytes(&live, "retail", version),
                "JSON-era retail@{version} must boot byte-identical"
            );
        }
        for delta in &deltas[1..] {
            registry.delta_publish("retail", delta).expect("delta");
        }
        (1..=4)
            .map(|version| version_bytes(&registry, "retail", version))
            .collect()
    };
    let binary = hydra_service::codec::FORMAT;
    let heads = payload_heads(&dir);
    let snapshot_head = heads.0;
    if json_snapshot {
        assert_eq!(heads, (Some(b'{'), vec![binary, binary]));
    } else {
        assert_eq!(heads, (None, vec![b'{', b'{', binary, binary]));
    }

    let (snapshots, wal) = payloads(&dir);
    let bytes = |payloads: &[Vec<u8>]| payloads.iter().map(|p| p.len() as u64).sum::<u64>();
    let (snapshot_bytes, wal_bytes) = (bytes(&snapshots), bytes(&wal));
    for checkpointed in [false, true] {
        let booted = session();
        let registry = SummaryRegistry::durable(booted.clone(), &dir, 1000).expect("reboot");
        assert_eq!(registry.versions_of("retail"), vec![1, 2, 3, 4]);
        assert_eq!(lp_solves(&booted), 0, "recovery must not run the LP solver");
        for (version, bytes) in (1..).zip(&truth) {
            assert!(
                version_bytes(&registry, "retail", version) == *bytes,
                "retail@{version} must boot byte-identical (checkpointed: {checkpointed})"
            );
        }
        if !checkpointed {
            // Boot reports what it decoded and how long it took.
            let decoded = |source: &str| {
                booted
                    .metrics()
                    .counter_labeled("hydra_wal_recovered_bytes_total", "source", source)
                    .value()
            };
            assert_eq!(
                (decoded("snapshot"), decoded("wal")),
                (snapshot_bytes, wal_bytes)
            );
            let recovery = booted.metrics().gauge("hydra_wal_recovery_seconds").value();
            assert!(recovery > 0, "boot time is recorded: {recovery} ns");
            let text = booted.metrics().snapshot().render_prometheus();
            assert!(
                text.contains(&format!(
                    "hydra_wal_recovered_bytes_total{{source=\"wal\"}} {wal_bytes}\n"
                )),
                "{text}"
            );
            registry.checkpoint().expect("checkpoint");
            assert_eq!(payload_heads(&dir), (snapshot_head, Vec::new()));
            let sealed =
                hydra_wal::read_segment(&dir.join("wal-0000000000.log")).expect("sealed segment");
            assert!(sealed == wal, "the seal keeps every record verbatim");
        }
    }
}

#[test]
fn json_era_wal_then_binary_records_boot_byte_identical() {
    json_era_directory_keeps_booting_after_binary_appends(false);
}

#[test]
fn json_era_snapshot_then_binary_records_boot_byte_identical() {
    json_era_directory_keeps_booting_after_binary_appends(true);
}
