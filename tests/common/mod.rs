//! The tuple-scan side of the accuracy oracle.
//!
//! Every annotated AQP edge is one volumetric constraint, labelled
//! `{query}#{pre-order index}`, and the vendor's accuracy report records the
//! cardinality the summary achieves for it.  This module re-executes each
//! annotated query on the regenerated (dataless) database and checks that
//! the two agree edge for edge.

use hydra::engine::exec::Executor;
use hydra::query::plan::LogicalPlan;
use hydra::{RegenerationResult, TransferPackage};
use std::collections::BTreeMap;

/// Asserts that every AQP edge's tuple-scan cardinality on the dataless
/// database equals the `achieved` of the accuracy check with the same label
/// (and the original annotation its `target`), and that edges and checks are
/// one to one.  A missing label fails.  Returns the number of edges compared.
pub fn assert_tuple_scan_matches_accuracy(
    package: &TransferPackage,
    result: &RegenerationResult,
) -> usize {
    let checks: BTreeMap<&str, _> = result
        .accuracy
        .checks
        .iter()
        .map(|c| (c.label.as_str(), c))
        .collect();
    assert_eq!(
        checks.len(),
        result.accuracy.len(),
        "duplicate check labels"
    );

    let dataless = result.generator();
    let executor = Executor::new(&dataless);
    let mut edges = 0;
    for entry in &package.workload.entries {
        let Some(original) = &entry.aqp else { continue };
        let name = &original.query_name;
        let plan = LogicalPlan::from_query(&entry.query).unwrap();
        let regenerated = executor.run_annotated(name, &plan).unwrap();
        let original = original.root.preorder();
        let regenerated = regenerated.root.preorder();
        assert_eq!(original.len(), regenerated.len(), "{name}: plan shape");
        for (i, (orig, regen)) in original.iter().zip(&regenerated).enumerate() {
            let label = format!("{name}#{i}");
            let check = checks
                .get(label.as_str())
                .unwrap_or_else(|| panic!("no accuracy check labelled {label}"));
            assert_eq!(check.target, orig.cardinality, "{label} target");
            assert_eq!(
                check.achieved,
                regen.cardinality,
                "{label} ({}): summary vs tuple scan",
                regen.op.name()
            );
            edges += 1;
        }
    }
    assert_eq!(edges, result.accuracy.len(), "one check per AQP edge");
    println!("[oracle] {edges} / {edges} AQP edges: tuple scan = accuracy check");
    edges
}
