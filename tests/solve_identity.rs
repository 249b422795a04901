//! Pins the solved output of the benchmark's retail packages.
//!
//! The packages are built with `hydra-benchmark`'s recipe (retail schema,
//! `retail_row_targets(0.02)` with 10 000 `store_sales` and 3 333
//! `web_sales` rows, client data seed 500, workload seed 131) at 32, 64 and
//! 131 queries, and solved from scratch with the default summary builder.  Per
//! relation the test pins the LP's size and status, the support size, the
//! row total, an FNV-1a hash of the integral region counts, an FNV-1a
//! hash of the serialized relation summary, and the relation's signature.
//!
//! Retail-131 is the one package whose fact LP takes a pricing round: the
//! LP master cannot meet every row of `store_sales` over its seeded working
//! set, so priced columns join its kept basis before it closes.  Its pins
//! therefore cover pricing and a warm continuation, which 32 and 64 (every
//! LP feasible on its seeded working set) do not.
//!
//! The signature is what a retained baseline (and so every WAL record)
//! stores to decide whether a relation is reused on the next delta: a
//! changed signature makes every relation of a previously written WAL
//! re-solve on its first delta after an upgrade, so refactors of the solve
//! pipeline must leave it unchanged too.
//!
//! Performance work on the partitioner, the formulation, the simplex or the
//! integral repair must leave every value here unchanged.  A change that
//! moves a solution on purpose (a different rounding or simplex algorithm)
//! updates the table and says so in its change notes.

use hydra::core::client::ClientSite;
use hydra::lp::solver::SolveStatus;
use hydra::summary::builder::SummaryBuilder;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::{ConstraintSet, TransferPackage};
use std::collections::BTreeMap;

/// The benchmark's client-data and workload seeds.
const CLIENT_DATA_SEED: u64 = 500;
const WORKLOAD_SEED: u64 = 131;
/// Queries the benchmark harvests past the 64-query package as deltas; the
/// generator runs that much longer for it, so the recipe does too.
const DELTA_TAIL_AT_64: usize = 24;

/// One relation's pinned solve.
#[derive(Debug, PartialEq)]
struct Pin {
    table: String,
    variables: usize,
    constraints: usize,
    status: SolveStatus,
    support: usize,
    rows: u64,
    counts_fnv: u64,
    summary_fnv: u64,
    signature: u64,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The benchmark's package of `queries` queries.
fn package(queries: usize) -> TransferPackage {
    let schema = retail_schema();
    let mut targets = retail_row_targets(0.02);
    targets.insert("store_sales".to_string(), 10_000);
    targets.insert("web_sales".to_string(), 3_333);
    let db = generate_client_database(
        &schema,
        &targets,
        &DataGenConfig {
            seed: CLIENT_DATA_SEED,
            ..Default::default()
        },
    );
    let tail = if queries == 64 { DELTA_TAIL_AT_64 } else { 0 };
    let workload = WorkloadGenerator::new(
        schema,
        WorkloadGenConfig {
            num_queries: queries + tail,
            seed: WORKLOAD_SEED,
            ..Default::default()
        },
    )
    .generate();
    ClientSite::new(db)
        .prepare_package(&workload[..queries], false)
        .unwrap()
}

/// Solves `package` from scratch and reads off every relation's pin.
fn solve(package: &TransferPackage) -> Vec<Pin> {
    let constraints = ConstraintSet::from_workload(&package.workload).unwrap();
    let metadata = &package.metadata;
    let row_targets: BTreeMap<String, u64> = metadata
        .schema
        .table_names()
        .iter()
        .map(|t| (t.clone(), metadata.row_count(t)))
        .collect();
    let (summary, report, baseline) = SummaryBuilder::default()
        .build_retaining(
            &metadata.schema,
            &row_targets,
            constraints.by_table(),
            Some(metadata),
        )
        .unwrap();
    report
        .relations
        .iter()
        .map(|stats| {
            let retained = &baseline.relations[&stats.table];
            let solved = &retained.solved;
            let relation = summary.relation(&stats.table).unwrap();
            Pin {
                table: stats.table.clone(),
                variables: stats.lp.variables,
                constraints: stats.lp.constraints,
                status: stats.lp.status,
                support: solved.support().len(),
                rows: solved.region_counts.iter().sum(),
                counts_fnv: fnv1a(solved.region_counts.iter().flat_map(|c| c.to_le_bytes())),
                summary_fnv: fnv1a(serde_json::to_string(relation).unwrap().into_bytes()),
                signature: retained.signature,
            }
        })
        .collect()
}

/// Expected pins: `(table, variables, constraints, support, rows,
/// counts_fnv, summary_fnv, signature)`; every retail-32/64/131 LP solves
/// feasibly.
type Expected = (&'static str, usize, usize, usize, u64, u64, u64, u64);

#[rustfmt::skip]
const RETAIL_32: [Expected; 7] = [
    ("date_dim", 9, 5, 9, 2190, 3609506748404832453, 12917821092877606055, 6665817364212029214),
    ("item", 9, 5, 5, 255, 4786593312796007972, 3789412587736684609, 5764663648761245565),
    ("customer", 6, 5, 6, 1414, 11306929868643285377, 13417177031688967149, 15013447779067815380),
    ("store", 6, 4, 5, 8, 17140896199242492775, 13553788923851564033, 2482323699901613458),
    ("promotion", 3, 3, 3, 8, 5132476736530814401, 9652314968192160126, 5382850399520036806),
    ("store_sales", 1820, 29, 29, 10000, 3076493620504769907, 1100032925563200661, 17538841323093391529),
    ("web_sales", 802, 32, 33, 3333, 16401192689631065524, 17912102471637935057, 3213435261236329757),
];

#[rustfmt::skip]
const RETAIL_64: [Expected; 7] = [
    ("date_dim", 9, 5, 9, 2190, 3609506748404832453, 12917821092877606055, 10277682664682078406),
    ("item", 9, 5, 5, 255, 4786593312796007972, 3789412587736684609, 11605322129577922921),
    ("customer", 6, 5, 6, 1414, 11306929868643285377, 13417177031688967149, 8746605080567303330),
    ("store", 9, 5, 4, 8, 10421227486964289413, 10396037110182395270, 15442066349599245351),
    ("promotion", 9, 5, 6, 8, 6188884001814975623, 1125429905245522361, 6129346476132244851),
    ("store_sales", 6782, 46, 46, 10000, 18445437577155344292, 9968394983305595138, 18091628869607414454),
    ("web_sales", 2004, 57, 56, 3333, 11501537120763025196, 7536823748832869543, 16003984201027627945),
];

#[rustfmt::skip]
const RETAIL_131: [Expected; 7] = [
    ("date_dim", 9, 5, 9, 2190, 3609506748404832453, 12917821092877606055, 11155841063254444165),
    ("item", 9, 5, 5, 255, 4786593312796007972, 3789412587736684609, 9154108518252147498),
    ("customer", 6, 5, 6, 1414, 11306929868643285377, 13417177031688967149, 1858677784899990641),
    ("store", 9, 5, 4, 8, 10421227486964289413, 10396037110182395270, 3823475928389926607),
    ("promotion", 9, 5, 6, 8, 6188884001814975623, 1125429905245522361, 4406205800014095962),
    ("store_sales", 44676, 79, 80, 10000, 9373556347646788189, 5296750196500365512, 11005408259948407744),
    ("web_sales", 2106, 85, 82, 3333, 15890232344270721118, 2224358895652755467, 9702931974655451618),
];

fn check(queries: usize, expected: &[Expected]) {
    let got = solve(&package(queries));
    let expected: Vec<Pin> = expected
        .iter()
        .map(
            |&(
                table,
                variables,
                constraints,
                support,
                rows,
                counts_fnv,
                summary_fnv,
                signature,
            )| Pin {
                table: table.to_string(),
                variables,
                constraints,
                status: SolveStatus::Feasible,
                support,
                rows,
                counts_fnv,
                summary_fnv,
                signature,
            },
        )
        .collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "retail-{queries}: relation count"
    );
    for (got, expected) in got.iter().zip(&expected) {
        assert_eq!(got, expected, "retail-{queries}: {}", expected.table);
    }
}

#[test]
fn retail_32_solves_to_its_pinned_output() {
    check(32, &RETAIL_32);
}

#[test]
fn retail_64_solves_to_its_pinned_output() {
    check(64, &RETAIL_64);
}

#[test]
fn retail_131_solves_to_its_pinned_output() {
    check(131, &RETAIL_131);
}
