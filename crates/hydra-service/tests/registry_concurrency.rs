//! Interleaving tests for the summary registry: concurrent `Publish`,
//! `Stream` and `Describe` must never observe a torn or partially-registered
//! summary.
//!
//! The registry's contract is atomic entry replacement: an entry is solved
//! completely off-lock and swapped in as one `Arc`, so every reader holds a
//! self-consistent (package, summary, description) triple even while a
//! publisher is replacing it.  These tests hammer that contract from many
//! threads, both in-process and across the TCP surface, and verify every
//! observation against per-version ground truth.

use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_engine::row::Row;
use hydra_service::client::HydraClient;
use hydra_service::protocol::StreamRequest;
use hydra_service::registry::SummaryRegistry;
use hydra_workload::retail_client_fixture;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;

/// Distinct fact-table sizes → distinct, recognizable summary versions.
const VARIANT_ROWS: [u64; 3] = [400, 500, 600];

fn variant_packages() -> Vec<TransferPackage> {
    let session = Hydra::builder().build();
    VARIANT_ROWS
        .iter()
        .map(|&rows| {
            let (db, queries) = retail_client_fixture(rows, 150, 4);
            session.profile(db, &queries).expect("profile")
        })
        .collect()
}

fn variants() -> Vec<(TransferPackage, Vec<Row>)> {
    variant_packages()
        .into_iter()
        .map(|package| {
            let expected: Vec<Row> = Hydra::builder()
                .build()
                .regenerate(&package)
                .expect("solve")
                .generator()
                .stream("store_sales")
                .expect("stream")
                .collect();
            (package, expected)
        })
        .collect()
}

/// The registry modes a racing test runs over: `None` is in-memory,
/// `Some(dir)` is durable with a checkpoint after every commit, so commits
/// also race checkpoints.
fn modes(tag: &str) -> [Option<PathBuf>; 2] {
    let dir = std::env::temp_dir().join(format!(
        "hydra-concurrency-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    [None, Some(dir)]
}

fn open_registry(dir: Option<&Path>) -> SummaryRegistry {
    let session = Hydra::builder().build();
    match dir {
        None => SummaryRegistry::in_memory(session),
        Some(dir) => SummaryRegistry::durable(session, dir, 1).expect("open durable registry"),
    }
}

/// Durable mode only: reopens `dir` and requires the recovered version
/// chain of `name` to be exactly the acknowledged versions.
fn assert_recovers_acknowledged(dir: Option<&Path>, name: &str, acknowledged: &[u32]) {
    let Some(dir) = dir else {
        return;
    };
    assert_eq!(
        open_registry(Some(dir)).versions_of(name),
        acknowledged,
        "recovered versions differ from the acknowledged ones"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Checks one observed entry against the ground truth of whichever variant
/// it belongs to; any mix of two variants inside one entry is a torn read.
fn assert_entry_consistent(entry: &hydra_service::RegistryEntry, truth: &BTreeMap<u64, Vec<Row>>) {
    let total = entry
        .regeneration()
        .summary
        .relation("store_sales")
        .expect("fact relation present")
        .total_rows;
    let expected = truth
        .get(&total)
        .unwrap_or_else(|| panic!("entry regenerates {total} fact rows — not a published variant"));

    // Package ↔ summary: the solved summary must match its own package.
    assert_eq!(
        entry.package().metadata.row_count("store_sales"),
        total,
        "entry's package and summary disagree (torn publish)"
    );
    // Description ↔ entry.
    let detail = entry.detail();
    assert_eq!(detail.info.version, entry.version);
    assert_eq!(
        detail.info.total_rows,
        entry.regeneration().summary.total_rows()
    );
    let fact = detail
        .relations
        .iter()
        .find(|r| r.table == "store_sales")
        .expect("described fact relation");
    assert_eq!(fact.total_rows, total);

    // Generator ↔ entry: the generator borrows this version in place, so
    // it cannot regenerate any other variant.
    let regeneration = entry.regeneration();
    for generator in [entry.generator(), regeneration.generator()] {
        assert!(std::ptr::eq(generator.summary, &regeneration.summary));
        assert!(std::ptr::eq(generator.schema, &regeneration.schema));
    }

    // Generation ↔ ground truth: a mid-relation slice must match the same
    // variant the row count identified.
    let lo = total / 3;
    let hi = (lo + 64).min(total);
    let slice: Vec<Row> = entry
        .generator()
        .stream_range("store_sales", lo..hi)
        .expect("range stream")
        .collect();
    assert_eq!(slice, expected[lo as usize..hi as usize]);
}

#[test]
fn publish_stream_describe_interleavings_never_tear() {
    let variants = variants();
    let truth: BTreeMap<u64, Vec<Row>> = variants
        .iter()
        .map(|(_, rows)| (rows.len() as u64, rows.clone()))
        .collect();

    let registry = Arc::new(SummaryRegistry::in_memory(Hydra::builder().build()));
    // Baseline version so readers always find something.
    registry
        .publish("retail", variants[0].0.clone())
        .expect("seed publish");
    let (server, addr) = common::serve(Arc::clone(&registry));

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Each reader reports its first observation; the publishes start
        // only after all four have, so fast publishes cannot finish before
        // a reader has looked at all.
        let (ready, first_observations) = std::sync::mpsc::channel();

        // Publisher: cycles through the variants, re-publishing `retail`
        // (and a second name, so List sees the registry grow too).
        let publisher = {
            let registry = Arc::clone(&registry);
            let variant_packages: Vec<TransferPackage> =
                variants.iter().map(|(p, _)| p.clone()).collect();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                // A reader that panicked never reports; its join below
                // fails the test, so the wait is bounded.
                for _ in 0..4 {
                    let _ = first_observations.recv_timeout(std::time::Duration::from_secs(60));
                }
                let mut published = 1u32; // the seed
                for round in 0..2 {
                    for (i, package) in variant_packages.iter().enumerate() {
                        let entry = registry
                            .publish("retail", package.clone())
                            .expect("re-publish");
                        published += 1;
                        assert_eq!(entry.version, published, "versions must be monotonic");
                        if round == 0 && i == 0 {
                            registry
                                .publish("retail_alt", package.clone())
                                .expect("second name");
                        }
                    }
                }
                stop.store(true, Ordering::SeqCst);
                published
            })
        };

        // In-process readers: grab entries and verify internal consistency.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let truth = &truth;
                let stop = Arc::clone(&stop);
                let ready = ready.clone();
                scope.spawn(move || {
                    let mut observed = 0usize;
                    let mut last_version = 0u32;
                    while !stop.load(Ordering::SeqCst) {
                        let entry = registry.get("retail").expect("seeded name present");
                        assert!(
                            entry.version >= last_version,
                            "reader observed version going backwards"
                        );
                        last_version = entry.version;
                        assert_entry_consistent(&entry, truth);
                        observed += 1;
                        if observed == 1 {
                            let _ = ready.send(());
                        }
                    }
                    observed
                })
            })
            .collect();

        // Wire readers: Describe + Stream through the TCP surface.
        let wire_readers: Vec<_> = (0..2)
            .map(|_| {
                let truth = &truth;
                let stop = Arc::clone(&stop);
                let ready = ready.clone();
                scope.spawn(move || {
                    let mut client = HydraClient::connect(addr).expect("connect");
                    let mut observed = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let detail = client.describe("retail").expect("describe");
                        let fact = detail
                            .relations
                            .iter()
                            .find(|r| r.table == "store_sales")
                            .expect("fact described");
                        assert!(
                            truth.contains_key(&fact.total_rows),
                            "described {} fact rows — not a published variant",
                            fact.total_rows
                        );
                        // A full wire stream must be exactly one variant's
                        // bits; the header's clamped range identifies it.
                        let (rows, _) = client
                            .stream_collect(StreamRequest::full("retail", "store_sales"))
                            .expect("stream");
                        let expected = truth
                            .get(&(rows.len() as u64))
                            .expect("stream length identifies a published variant");
                        assert_eq!(&rows, expected, "wire stream mixed two versions");
                        observed += 1;
                        if observed == 1 {
                            let _ = ready.send(());
                        }
                    }
                    observed
                })
            })
            .collect();

        let published = publisher.join().expect("publisher");
        assert_eq!(published, 7);
        for reader in readers {
            assert!(reader.join().expect("reader") > 0, "reader never observed");
        }
        for reader in wire_readers {
            assert!(reader.join().expect("wire reader") > 0);
        }
    });

    // Terminal state: the last published variant, fully visible.
    let final_entry = registry.get("retail").expect("final entry");
    assert_eq!(final_entry.version, 7);
    assert_entry_consistent(&final_entry, &truth);
    assert_eq!(registry.len(), 2);
    server.shutdown();
}

/// Racing `DeltaPublish` + `Stream` + `Query` against one name: no reader
/// may ever observe a torn summary, and versions must stay strictly
/// monotonic even when concurrent deltas force server-side re-merges.
///
/// Every delta touches only `web_sales` (a narrow local-predicate query
/// added, later retired), so `store_sales` must stay **bit-identical**
/// across all versions — a full wire stream of the fact table during the
/// delta storm is compared byte-for-byte against the baseline, which makes
/// any torn or half-rebuilt summary observable.
#[test]
fn racing_delta_publishes_never_tear_and_versions_stay_monotonic() {
    use hydra_query::delta::WorkloadDelta;
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
    use hydra_query::query::SpjQuery;
    use hydra_service::protocol::QueryRequest;
    use hydra_workload::harvest_workload;

    const THREADS: usize = 3;
    const ROUNDS: usize = 2;

    let (db, queries) = retail_client_fixture(400, 150, 4);
    let session = Hydra::builder().build();
    let package = session.profile(db.clone(), &queries).expect("profile");

    // Per-(thread, round) deltas, pre-harvested against the client data.
    // Round 1 retires the query round 0 added, so retire paths race too.
    let narrow_query = |tid: usize, round: usize| -> SpjQuery {
        let mut q = SpjQuery::new(format!("delta-{tid}-{round}"));
        q.add_table("web_sales");
        q.set_predicate(
            "web_sales",
            TablePredicate::always_true().with(ColumnPredicate::new(
                "ws_quantity",
                CompareOp::Lt,
                (10 + 13 * (tid * ROUNDS + round)) as i64,
            )),
        );
        q
    };
    let deltas: Vec<Vec<WorkloadDelta>> = (0..THREADS)
        .map(|tid| {
            (0..ROUNDS)
                .map(|round| {
                    let harvested =
                        harvest_workload(&db, &[narrow_query(tid, round)]).expect("harvest");
                    let entry = harvested.entries.into_iter().next().expect("one entry");
                    let mut delta = WorkloadDelta::new()
                        .add_annotated(entry.query, entry.aqp.expect("annotated"));
                    if round > 0 {
                        delta = delta.retire(format!("delta-{tid}-{}", round - 1));
                    }
                    delta
                })
                .collect()
        })
        .collect();

    for dir in modes("delta") {
        let registry = Arc::new(open_registry(dir.as_deref()));
        let seed = registry.publish("evolving", package.clone()).expect("seed");
        assert_eq!(seed.version, 1);
        // Ground truth: the fact table's exact bits — invariant across deltas.
        let fact_truth: Vec<Row> = seed
            .generator()
            .stream("store_sales")
            .expect("stream")
            .collect();
        let (server, addr) = common::serve(Arc::clone(&registry));

        let stop = Arc::new(AtomicBool::new(false));
        let all_versions: Vec<u32> = std::thread::scope(|scope| {
            // Each reader reports its first observation; the deltas start
            // only after both have, so a storm of fast deltas cannot finish
            // before a reader has looked at all.
            let (ready, first_observations) = std::sync::mpsc::channel();

            // In-process reader: self-consistent entries, monotonic versions.
            let reader = {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let fact_truth = &fact_truth;
                let ready = ready.clone();
                scope.spawn(move || {
                    let mut last_version = 0u32;
                    let mut observed = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let entry = registry.get("evolving").expect("present");
                        assert!(entry.version >= last_version, "version went backwards");
                        last_version = entry.version;
                        let detail = entry.detail();
                        assert_eq!(detail.info.version, entry.version);
                        assert_eq!(
                            detail.info.total_rows,
                            entry.regeneration().summary.total_rows()
                        );
                        // The fact table is untouched by every delta: any
                        // deviation is a torn or half-rebuilt summary.
                        let slice: Vec<Row> = entry
                            .generator()
                            .stream_range("store_sales", 100..164)
                            .expect("range stream")
                            .collect();
                        assert_eq!(&slice, &fact_truth[100..164], "fact table changed");
                        observed += 1;
                        if observed == 1 {
                            let _ = ready.send(());
                        }
                    }
                    observed
                })
            };

            // Wire reader: full fact stream + summary-direct query while the
            // delta storm runs.
            let wire_reader = {
                let stop = Arc::clone(&stop);
                let fact_truth = &fact_truth;
                let ready = ready.clone();
                scope.spawn(move || {
                    let mut client = HydraClient::connect(addr).expect("connect");
                    let mut observed = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let (rows, _) = client
                            .stream_collect(StreamRequest::full("evolving", "store_sales"))
                            .expect("stream");
                        assert_eq!(&rows, fact_truth, "wire stream tore across versions");
                        let answer = client
                            .query_request(
                                QueryRequest::new("evolving", "select count(*) from web_sales")
                                    .summary_only(),
                            )
                            .expect("query");
                        assert_eq!(
                            answer.single().expect("one row").aggregates[0].as_i64(),
                            Some(150),
                            "web_sales row count must be invariant across deltas"
                        );
                        observed += 1;
                        if observed == 1 {
                            let _ = ready.send(());
                        }
                    }
                    observed
                })
            };

            // A reader that panicked never reports; its join below fails
            // the test, so the wait is bounded rather than unconditional.
            for _ in 0..2 {
                let _ = first_observations.recv_timeout(std::time::Duration::from_secs(60));
            }
            let publishers: Vec<_> = deltas
                .iter()
                .map(|thread_deltas| {
                    let registry = Arc::clone(&registry);
                    scope.spawn(move || {
                        let mut versions = Vec::new();
                        for delta in thread_deltas {
                            let published = registry
                                .delta_publish("evolving", delta)
                                .expect("delta publish");
                            // Only web_sales re-solves; everything else reuses.
                            assert_eq!(
                                published.report.reused(),
                                published.report.relations.len() - 1,
                                "{}",
                                published.report.to_display_table()
                            );
                            versions.push(published.info.version);
                        }
                        versions
                    })
                })
                .collect();

            let mut all_versions: Vec<u32> = publishers
                .into_iter()
                .flat_map(|p| p.join().expect("publisher"))
                .collect();
            stop.store(true, Ordering::SeqCst);
            assert!(reader.join().expect("reader") > 0);
            assert!(wire_reader.join().expect("wire reader") > 0);
            all_versions.sort_unstable();
            all_versions
        });

        // Strictly monotonic: every delta got its own version, no duplicates,
        // ending exactly at 1 + THREADS*ROUNDS.
        let expected: Vec<u32> = (2..=(1 + (THREADS * ROUNDS) as u32)).collect();
        assert_eq!(all_versions, expected, "duplicate or skipped versions");
        let final_entry = registry.get("evolving").expect("final");
        assert_eq!(final_entry.version, 1 + (THREADS * ROUNDS) as u32);
        // Terminal workload: the 4 originals plus each thread's last query.
        assert_eq!(
            final_entry.package().query_count(),
            4 + THREADS,
            "each thread's retire+add chain must net one extra query"
        );
        server.shutdown();
        let acknowledged: Vec<u32> = std::iter::once(1).chain(all_versions).collect();
        assert_recovers_acknowledged(dir.as_deref(), "evolving", &acknowledged);
    }
}

/// `hydra_registry_retained_regions` reads the LP supports every retained
/// version holds: after a publish, the full build's count of nonzero-count
/// regions — far below its LP variable count — and it grows per version.
#[test]
fn retained_regions_gauge_counts_lp_supports() {
    use hydra_query::delta::ConstraintSet;
    use hydra_summary::builder::SummaryBuilder;

    let package = variant_packages().remove(0);
    let session = Hydra::builder().build();
    let registry = SummaryRegistry::in_memory(session.clone());
    let gauge = session.metrics().gauge("hydra_registry_retained_regions");
    assert_eq!(gauge.value(), 0);
    registry
        .publish("retail", package.clone())
        .expect("publish");

    // Independent count: the full from-scratch build's nonzero regions.
    let metadata = &package.metadata;
    let row_targets: BTreeMap<String, u64> = metadata
        .schema
        .table_names()
        .iter()
        .map(|t| (t.clone(), metadata.row_count(t)))
        .collect();
    let constraints = ConstraintSet::from_workload(&package.workload).expect("constraints");
    let (_, report, full) = SummaryBuilder::new(session.config().builder.clone())
        .build_retaining(
            &metadata.schema,
            &row_targets,
            constraints.by_table(),
            Some(metadata),
        )
        .expect("full build");
    let support: usize = full
        .relations
        .values()
        .map(|r| r.solved.support().len())
        .sum();
    assert_eq!(gauge.value(), support as i64);
    assert!(support < report.total_lp_variables(), "{support}");

    registry.publish("retail", package).expect("publish v2");
    assert_eq!(gauge.value(), 2 * support as i64);
}

#[test]
fn racing_publishes_of_the_same_name_keep_versions_distinct() {
    let packages = variant_packages();
    for dir in modes("publish") {
        let registry = Arc::new(open_registry(dir.as_deref()));
        // All publishers start before any has registered: every one solves
        // against version 0 and the write-lock reconciliation must still hand
        // out distinct, increasing versions.
        let versions: Vec<u32> = std::thread::scope(|scope| {
            let handles: Vec<_> = packages
                .iter()
                .map(|package| {
                    let registry = Arc::clone(&registry);
                    let package = package.clone();
                    scope.spawn(move || registry.publish("race", package).expect("publish").version)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("publisher"))
                .collect()
        });
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            packages.len(),
            "duplicate versions handed out: {versions:?}"
        );
        assert_eq!(
            registry.get("race").expect("entry").version,
            *sorted.last().unwrap()
        );
        assert_recovers_acknowledged(dir.as_deref(), "race", &sorted);
    }
}
