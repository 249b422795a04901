//! Workload evolution: deltas over an annotated query workload and the
//! incremental constraint-set merge they induce.
//!
//! Production workloads drift query by query: new reports are added, stale
//! dashboards are retired, and a re-run of an existing query against the
//! (grown) warehouse revises its cardinality annotations.  A
//! [`WorkloadDelta`] captures exactly those three operations, and
//! [`ConstraintSet`] carries the per-relation volumetric constraints of a
//! workload together with the bookkeeping needed to merge a delta
//! *incrementally*: constraints extracted from untouched queries are reused
//! verbatim, and only the relations whose constraint set actually changed
//! are reported for re-solving.
//!
//! The merge is provably equivalent to re-extracting from scratch: the
//! merged workload's entry order is deterministic (retained entries keep
//! their positions, re-annotated entries are replaced in place, added
//! entries are appended), and [`ConstraintSet::from_workload`] walks entries
//! in that order — so [`QueryWorkload::apply_delta`] followed by an
//! incremental merge yields bit-identical constraints to a from-scratch
//! extraction over the merged workload (asserted by the unit tests below and
//! by the `delta_differential` harness end to end).

use crate::aqp::{AnnotatedQueryPlan, VolumetricConstraint};
use crate::error::{QueryError, QueryResult};
use crate::query::SpjQuery;
use crate::workload::{QueryWorkload, WorkloadEntry};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

/// An evolution step over an annotated workload: queries added, queries
/// retired, and existing queries whose annotations were revised by a fresh
/// execution against the (possibly drifted) client warehouse.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadDelta {
    /// Newly observed queries with their annotated plans, in arrival order.
    pub added: Vec<WorkloadEntry>,
    /// Names of queries to retire from the workload.
    pub retired: Vec<String>,
    /// Replacement annotated plans for queries that stay in the workload but
    /// were re-executed (each plan's `query_name` selects the entry).
    pub reannotated: Vec<AnnotatedQueryPlan>,
    /// Revised client row counts observed alongside the re-annotations
    /// (empty when the warehouse itself did not drift).
    pub row_counts: BTreeMap<String, u64>,
}

impl WorkloadDelta {
    /// An empty delta (applying it is the identity).
    pub fn new() -> Self {
        WorkloadDelta::default()
    }

    /// Adds a newly observed annotated query.
    pub fn add_annotated(mut self, query: SpjQuery, aqp: AnnotatedQueryPlan) -> Self {
        self.added.push(WorkloadEntry {
            query,
            aqp: Some(aqp),
        });
        self
    }

    /// Retires a query by name.
    pub fn retire(mut self, query_name: impl Into<String>) -> Self {
        self.retired.push(query_name.into());
        self
    }

    /// Revises the annotations of an existing query (the plan's `query_name`
    /// selects which entry is replaced).
    pub fn reannotate(mut self, aqp: AnnotatedQueryPlan) -> Self {
        self.reannotated.push(aqp);
        self
    }

    /// Records a revised client row count for one relation.
    pub fn with_row_count(mut self, table: impl Into<String>, rows: u64) -> Self {
        self.row_counts.insert(table.into(), rows);
        self
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.retired.is_empty()
            && self.reannotated.is_empty()
            && self.row_counts.is_empty()
    }

    /// Human-readable one-line summary (`+a -r ~n` counts).
    pub fn describe(&self) -> String {
        format!(
            "+{} added, -{} retired, ~{} re-annotated, {} row counts revised",
            self.added.len(),
            self.retired.len(),
            self.reannotated.len(),
            self.row_counts.len()
        )
    }
}

impl QueryWorkload {
    /// Applies a [`WorkloadDelta`], producing the merged workload.
    ///
    /// Ordering is deterministic so that incremental constraint merging is
    /// equivalent to from-scratch extraction: surviving entries keep their
    /// positions (re-annotated entries are replaced in place) and added
    /// entries are appended in delta order.
    ///
    /// Fails on a delta that cannot be meaningfully applied: retiring or
    /// re-annotating a query that is not in the workload, adding a query
    /// whose name is already taken, retiring and re-annotating the same
    /// query, or adding an entry without an annotated plan.
    pub fn apply_delta(&self, delta: &WorkloadDelta) -> QueryResult<QueryWorkload> {
        let existing: BTreeSet<&str> = self.entries.iter().map(|e| e.query.name.as_str()).collect();
        let retired: BTreeSet<&str> = delta.retired.iter().map(String::as_str).collect();
        for name in &retired {
            if !existing.contains(name) {
                return Err(QueryError::Delta(format!(
                    "cannot retire unknown query `{name}`"
                )));
            }
        }
        let mut replacements: BTreeMap<&str, &AnnotatedQueryPlan> = BTreeMap::new();
        for aqp in &delta.reannotated {
            let name = aqp.query_name.as_str();
            if !existing.contains(name) {
                return Err(QueryError::Delta(format!(
                    "cannot re-annotate unknown query `{name}`"
                )));
            }
            if retired.contains(name) {
                return Err(QueryError::Delta(format!(
                    "query `{name}` is both retired and re-annotated"
                )));
            }
            if replacements.insert(name, aqp).is_some() {
                return Err(QueryError::Delta(format!(
                    "query `{name}` is re-annotated twice in one delta"
                )));
            }
        }
        let mut seen_added: BTreeSet<&str> = BTreeSet::new();
        for entry in &delta.added {
            let name = entry.query.name.as_str();
            if existing.contains(name) && !retired.contains(name) {
                return Err(QueryError::Delta(format!(
                    "cannot add query `{name}`: the name is already in the workload"
                )));
            }
            if !seen_added.insert(name) {
                return Err(QueryError::Delta(format!(
                    "query `{name}` is added twice in one delta"
                )));
            }
            if entry.aqp.is_none() {
                return Err(QueryError::Delta(format!(
                    "added query `{name}` has no annotated plan"
                )));
            }
        }

        let mut merged = QueryWorkload::new();
        for entry in &self.entries {
            let name = entry.query.name.as_str();
            if retired.contains(name) {
                continue;
            }
            match replacements.get(name) {
                Some(aqp) => merged.entries.push(WorkloadEntry {
                    query: entry.query.clone(),
                    aqp: Some((*aqp).clone()),
                }),
                None => merged.entries.push(entry.clone()),
            }
        }
        merged.entries.extend(delta.added.iter().cloned());
        Ok(merged)
    }
}

/// The per-relation volumetric constraints of a workload, with per-query
/// provenance retained so a [`WorkloadDelta`] can be merged without
/// re-extracting constraints from untouched annotated plans.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConstraintSet {
    /// Constraints grouped by constrained relation, in workload entry order.
    by_table: BTreeMap<String, Vec<VolumetricConstraint>>,
    /// Constraints grouped by originating query, in workload entry order
    /// (the provenance that makes incremental merging possible).
    by_query: Vec<(String, Vec<VolumetricConstraint>)>,
}

impl ConstraintSet {
    /// Extracts the constraint set of a workload from scratch.
    pub fn from_workload(workload: &QueryWorkload) -> QueryResult<ConstraintSet> {
        let mut by_query = Vec::with_capacity(workload.entries.len());
        for entry in &workload.entries {
            let constraints = match &entry.aqp {
                Some(aqp) => aqp.constraints()?,
                None => Vec::new(),
            };
            by_query.push((entry.query.name.clone(), constraints));
        }
        Ok(Self::from_query_groups(by_query))
    }

    /// Merges a delta into this constraint set *incrementally*: constraints
    /// of untouched queries are reused verbatim; only added and re-annotated
    /// plans are decomposed.  `merged_workload` must be the output of
    /// [`QueryWorkload::apply_delta`] for the same delta — it fixes the
    /// query order the merge follows, which is what makes the result
    /// bit-identical to [`ConstraintSet::from_workload`] on it.
    pub fn merge_delta(
        &self,
        merged_workload: &QueryWorkload,
        delta: &WorkloadDelta,
    ) -> QueryResult<ConstraintSet> {
        let touched: BTreeSet<&str> = delta
            .reannotated
            .iter()
            .map(|a| a.query_name.as_str())
            .chain(delta.added.iter().map(|e| e.query.name.as_str()))
            .collect();
        let previous: BTreeMap<&str, &Vec<VolumetricConstraint>> = self
            .by_query
            .iter()
            .map(|(name, cs)| (name.as_str(), cs))
            .collect();
        let mut by_query = Vec::with_capacity(merged_workload.entries.len());
        for entry in &merged_workload.entries {
            let name = entry.query.name.as_str();
            let constraints = match previous.get(name) {
                Some(cs) if !touched.contains(name) => (*cs).clone(),
                _ => match &entry.aqp {
                    Some(aqp) => aqp.constraints()?,
                    None => Vec::new(),
                },
            };
            by_query.push((entry.query.name.clone(), constraints));
        }
        Ok(Self::from_query_groups(by_query))
    }

    fn from_query_groups(by_query: Vec<(String, Vec<VolumetricConstraint>)>) -> ConstraintSet {
        let mut by_table: BTreeMap<String, Vec<VolumetricConstraint>> = BTreeMap::new();
        for (_, constraints) in &by_query {
            for c in constraints {
                by_table.entry(c.table.clone()).or_default().push(c.clone());
            }
        }
        ConstraintSet { by_table, by_query }
    }

    /// The constraints grouped by constrained relation (the preprocessor
    /// output the LP formulation consumes).
    pub fn by_table(&self) -> &BTreeMap<String, Vec<VolumetricConstraint>> {
        &self.by_table
    }

    /// The constraints of one relation (empty slice when unconstrained).
    pub fn of_table(&self, table: &str) -> &[VolumetricConstraint] {
        self.by_table.get(table).map_or(&[], Vec::as_slice)
    }

    /// Total number of constraints across relations.
    pub fn len(&self) -> usize {
        self.by_table.values().map(Vec::len).sum()
    }

    /// True when no query contributed any constraint.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fingerprint of one relation's constraint list (canonical-JSON hash,
    /// the same trick the summary builder's relation signatures use).  Two
    /// constraint sets with equal signatures for a relation put identical
    /// volumetric demands on it.
    pub fn table_signature(&self, table: &str) -> u64 {
        let mut hasher = DefaultHasher::new();
        serde_json::hash_into(self.of_table(table), &mut hasher);
        hasher.finish()
    }

    /// The relations whose constraint lists differ between `self` and
    /// `other` (present in one but not the other, or present in both with
    /// different constraints).
    pub fn changed_tables(&self, other: &ConstraintSet) -> BTreeSet<String> {
        let mut changed = BTreeSet::new();
        for table in self.by_table.keys().chain(other.by_table.keys()) {
            if self.by_table.get(table) != other.by_table.get(table) {
                changed.insert(table.clone());
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LogicalPlan;
    use crate::predicate::{ColumnPredicate, CompareOp, TablePredicate};
    use crate::query::JoinEdge;

    fn annotated(name: &str, lo: i64, card: u64) -> (SpjQuery, AnnotatedQueryPlan) {
        let mut q = SpjQuery::new(name);
        q.add_join(JoinEdge::new("R", "S_fk", "S", "S_pk"));
        q.set_predicate(
            "S",
            TablePredicate::always_true().with(ColumnPredicate::new("A", CompareOp::Ge, lo)),
        );
        let plan = LogicalPlan::from_query(&q).unwrap();
        let cards: Vec<u64> = (0..plan.node_count() as u64).map(|i| card + i).collect();
        let aqp = AnnotatedQueryPlan::from_plan_with_cardinalities(name, &plan, &cards).unwrap();
        (q, aqp)
    }

    fn base_workload() -> QueryWorkload {
        let mut wl = QueryWorkload::new();
        for (name, lo, card) in [("q1", 10, 100), ("q2", 20, 200), ("q3", 30, 300)] {
            let (q, aqp) = annotated(name, lo, card);
            wl.add_annotated(q, aqp);
        }
        wl
    }

    #[test]
    fn empty_delta_is_identity() {
        let wl = base_workload();
        let merged = wl.apply_delta(&WorkloadDelta::new()).unwrap();
        assert_eq!(merged, wl);
        assert!(WorkloadDelta::new().is_empty());
    }

    #[test]
    fn add_retire_reannotate_merge_in_order() {
        let wl = base_workload();
        let (q4, aqp4) = annotated("q4", 40, 400);
        let (_, revised) = annotated("q2", 25, 999);
        let delta = WorkloadDelta::new()
            .retire("q1")
            .reannotate(revised.clone())
            .add_annotated(q4, aqp4)
            .with_row_count("R", 5_000);
        assert!(!delta.is_empty());
        assert!(delta.describe().contains("+1 added"));

        let merged = wl.apply_delta(&delta).unwrap();
        let names: Vec<&str> = merged
            .entries
            .iter()
            .map(|e| e.query.name.as_str())
            .collect();
        assert_eq!(names, vec!["q2", "q3", "q4"]);
        // The re-annotated entry carries the revised plan, in place.
        assert_eq!(merged.entries[0].aqp.as_ref().unwrap(), &revised);
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let wl = base_workload();
        let (q1, aqp1) = annotated("q1", 1, 1);
        let (q9, aqp9) = annotated("q9", 9, 9);
        let (_, re_q9) = annotated("q9", 9, 9);
        let (_, re_q1) = annotated("q1", 1, 2);

        // Unknown retire / unknown re-annotate.
        assert!(wl
            .apply_delta(&WorkloadDelta::new().retire("nope"))
            .is_err());
        assert!(wl
            .apply_delta(&WorkloadDelta::new().reannotate(re_q9))
            .is_err());
        // Name collision on add.
        assert!(wl
            .apply_delta(&WorkloadDelta::new().add_annotated(q1.clone(), aqp1.clone()))
            .is_err());
        // Retire + re-annotate the same query.
        assert!(wl
            .apply_delta(&WorkloadDelta::new().retire("q1").reannotate(re_q1.clone()))
            .is_err());
        // Double re-annotate.
        assert!(wl
            .apply_delta(
                &WorkloadDelta::new()
                    .reannotate(re_q1.clone())
                    .reannotate(re_q1)
            )
            .is_err());
        // Double add.
        assert!(wl
            .apply_delta(
                &WorkloadDelta::new()
                    .add_annotated(q9.clone(), aqp9.clone())
                    .add_annotated(q9.clone(), aqp9)
            )
            .is_err());
        // Added entry must be annotated.
        let mut delta = WorkloadDelta::new();
        delta.added.push(WorkloadEntry {
            query: q9,
            aqp: None,
        });
        assert!(wl.apply_delta(&delta).is_err());
        // Retiring a name frees it for a same-delta add.
        let (q1b, aqp1b) = annotated("q1", 2, 3);
        assert!(wl
            .apply_delta(&WorkloadDelta::new().retire("q1").add_annotated(q1b, aqp1b))
            .is_ok());
    }

    #[test]
    fn incremental_merge_equals_from_scratch() {
        let wl = base_workload();
        let base = ConstraintSet::from_workload(&wl).unwrap();
        assert!(!base.is_empty());
        assert_eq!(
            base.by_table().clone(),
            wl.constraints_by_table().unwrap(),
            "from_workload must agree with the legacy extraction"
        );

        let (q4, aqp4) = annotated("q4", 40, 400);
        let (_, revised) = annotated("q3", 35, 950);
        let delta = WorkloadDelta::new()
            .retire("q2")
            .reannotate(revised)
            .add_annotated(q4, aqp4);
        let merged_wl = wl.apply_delta(&delta).unwrap();
        let incremental = base.merge_delta(&merged_wl, &delta).unwrap();
        let scratch = ConstraintSet::from_workload(&merged_wl).unwrap();
        assert_eq!(incremental, scratch);
        assert_eq!(incremental.by_table(), scratch.by_table());
    }

    #[test]
    fn changed_tables_and_signatures_track_the_delta() {
        let wl = base_workload();
        let base = ConstraintSet::from_workload(&wl).unwrap();
        // Re-annotating q2 (which touches R and S) changes both relations'
        // constraint lists; nothing else exists in this workload.
        let (_, revised) = annotated("q2", 25, 777);
        let delta = WorkloadDelta::new().reannotate(revised);
        let merged_wl = wl.apply_delta(&delta).unwrap();
        let merged = base.merge_delta(&merged_wl, &delta).unwrap();
        let changed = base.changed_tables(&merged);
        assert!(changed.contains("R") && changed.contains("S"));
        assert_ne!(base.table_signature("S"), merged.table_signature("S"));
        // An empty delta changes nothing.
        let same = base
            .merge_delta(
                &wl.apply_delta(&WorkloadDelta::new()).unwrap(),
                &WorkloadDelta::new(),
            )
            .unwrap();
        assert!(base.changed_tables(&same).is_empty());
        assert_eq!(base.table_signature("R"), same.table_signature("R"));
        // Signature of an unconstrained relation is stable too.
        assert_eq!(base.table_signature("zzz"), same.table_signature("zzz"));
        assert_eq!(base.of_table("zzz").len(), 0);
    }

    #[test]
    fn delta_serde_round_trip() {
        let (q4, aqp4) = annotated("q4", 40, 400);
        let (_, revised) = annotated("q2", 25, 999);
        let delta = WorkloadDelta::new()
            .retire("q1")
            .reannotate(revised)
            .add_annotated(q4, aqp4)
            .with_row_count("R", 123);
        let json = serde_json::to_string(&delta).unwrap();
        let back: WorkloadDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(delta, back);
    }
}
