//! Delta re-profiling support: solve baselines, structural summary diffs
//! and the incremental build report.
//!
//! A from-scratch build can *retain* its per-relation solve artifacts — the
//! constraint signature, the region partition and the solved region counts —
//! as a [`SolveBaseline`].  A later build against an evolved constraint set
//! then goes relation by relation:
//!
//! * **unchanged signature** → the previous summary is reused outright (no
//!   partitioning, no LP, bit-identical output);
//! * **changed signature** → the relation re-solves, but the previous
//!   solution's support is carried into the re-swept partition and
//!   warm-starts the LP ([`DeltaAction::WarmSolved`] when the working set
//!   seeded with it closed without pricing, [`DeltaAction::ColdSolved`]
//!   when the hint was stale and the solver fell back).
//!
//! The support is all a later build reads of a solve, so a retained
//! baseline keeps only that ([`SolveBaseline::support_only`]): the regions
//! holding tuples, a few per constraint, instead of the whole partition.
//!
//! The structural outcome is summarized as a [`SummaryDiff`]: per relation,
//! which primary-key blocks were added, removed or resized relative to the
//! previous summary — the artifact a long-lived summary deployment ships to
//! its consumers instead of a whole new summary.

use crate::builder::RelationBuildStats;
use crate::solve::SolvedRelation;
use crate::summary::{DatabaseSummary, RelationSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything retained about one relation's solve for future delta builds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelationBaseline {
    /// Fingerprint of every input that determined the solve (constraints,
    /// row target, FK domains, dimension summaries, alignment).
    pub signature: u64,
    /// The solved placement (partition + region counts) — the warm-start
    /// seed for a changed re-solve.  Full as a build returns it;
    /// support-only once retained ([`SolveBaseline::support_only`]).
    pub solved: SolvedRelation,
    /// The summary generated from the solve.
    pub summary: RelationSummary,
    /// The build statistics reported for the solve.
    pub stats: RelationBuildStats,
}

/// The retained solve artifacts of a whole build, keyed by relation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SolveBaseline {
    /// Per-relation baselines.
    pub relations: BTreeMap<String, RelationBaseline>,
}

impl SolveBaseline {
    /// Number of retained relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The retained form of the baseline: every relation's solve restricted
    /// to its LP support ([`SolvedRelation::support_only`]).  A later
    /// [`crate::builder::SummaryBuilder::build_delta`] against it decides
    /// exactly as against the full baseline.
    pub fn support_only(self) -> SolveBaseline {
        SolveBaseline {
            relations: self
                .relations
                .into_iter()
                .map(|(name, mut relation)| {
                    relation.solved = relation.solved.support_only();
                    (name, relation)
                })
                .collect(),
        }
    }

    /// The baseline without its warm-start seeds: every relation keeps its
    /// signature, summary and stats but none of its LP support, so a
    /// [`crate::builder::SummaryBuilder::build_delta`] against it reuses
    /// every unchanged relation and solves every changed one cold — exactly
    /// as a from-scratch build would.
    pub fn reuse_only(&self) -> SolveBaseline {
        SolveBaseline {
            relations: self
                .relations
                .iter()
                .map(|(name, relation)| {
                    let solved = SolvedRelation {
                        partition: relation.solved.partition.restrict_to(&[]),
                        region_counts: Vec::new(),
                        stats: relation.solved.stats.clone(),
                    };
                    let relation = RelationBaseline {
                        signature: relation.signature,
                        solved,
                        summary: relation.summary.clone(),
                        stats: relation.stats.clone(),
                    };
                    (name.clone(), relation)
                })
                .collect(),
        }
    }

    /// Partition regions retained across every relation (the support size
    /// of a [`SolveBaseline::support_only`] baseline).
    pub fn retained_regions(&self) -> usize {
        self.relations
            .values()
            .map(|r| r.solved.partition.num_variables())
            .sum()
    }

    /// Reassembles the database summary this baseline was retained from.
    pub fn to_summary(&self) -> DatabaseSummary {
        let mut db = DatabaseSummary::new();
        for baseline in self.relations.values() {
            db.insert(baseline.summary.clone());
        }
        db
    }
}

/// How one relation was handled by a delta build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaAction {
    /// Constraint signature unchanged: the previous summary was reused
    /// without partitioning or solving.
    Reused,
    /// Re-solved, and the working set seeded with the previous solution's
    /// support closed without pricing — the solver never had to look beyond
    /// it.
    WarmSolved,
    /// Re-solved from scratch (no previous solve, or a stale warm basis the
    /// solver fell back from).
    ColdSolved,
}

/// Per-relation outcome of a delta build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationDeltaStats {
    /// Relation name.
    pub table: String,
    /// How the relation was handled.
    pub action: DeltaAction,
    /// LP variables of the re-solve (0 for reused relations).
    pub lp_variables: usize,
    /// Wall-clock LP solve time in microseconds (0 for reused relations).
    pub solve_micros: u64,
}

/// The incremental build report: what re-solved, what was reused, and what
/// the warm starts contributed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaBuildReport {
    /// Per-relation outcomes, in processing order.
    pub relations: Vec<RelationDeltaStats>,
    /// Total wall-clock time of the delta build in microseconds.
    pub total_micros: u64,
}

impl DeltaBuildReport {
    /// Relations reused without re-solving.
    pub fn reused(&self) -> usize {
        self.count(DeltaAction::Reused)
    }

    /// Relations re-solved with a successful warm start.
    pub fn warm_solved(&self) -> usize {
        self.count(DeltaAction::WarmSolved)
    }

    /// Relations re-solved cold.
    pub fn cold_solved(&self) -> usize {
        self.count(DeltaAction::ColdSolved)
    }

    fn count(&self, action: DeltaAction) -> usize {
        self.relations.iter().filter(|r| r.action == action).count()
    }

    /// Renders a per-relation text table of the delta outcomes.
    pub fn to_display_table(&self) -> String {
        let mut out = String::from("relation | action | LP vars | solve time (ms)\n");
        for r in &self.relations {
            out.push_str(&format!(
                "{} | {:?} | {} | {:.2}\n",
                r.table,
                r.action,
                r.lp_variables,
                r.solve_micros as f64 / 1e3
            ));
        }
        out.push_str(&format!(
            "total: {} reused, {} warm, {} cold in {:.2} ms\n",
            self.reused(),
            self.warm_solved(),
            self.cold_solved(),
            self.total_micros as f64 / 1e3
        ));
        out
    }
}

/// The structural difference between two summaries of one relation.
///
/// Blocks are identified by their value vector (the non-PK columns all
/// tuples of the block share): a block present only in the new summary was
/// *added*, present only in the old one *removed*, present in both with a
/// different `#TUPLES` count *resized*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationDiff {
    /// Relation name.
    pub table: String,
    /// Regenerated row count before the delta.
    pub rows_before: u64,
    /// Regenerated row count after the delta.
    pub rows_after: u64,
    /// Blocks present only in the new summary.
    pub blocks_added: usize,
    /// Blocks present only in the old summary.
    pub blocks_removed: usize,
    /// Blocks present in both summaries with different tuple counts.
    pub blocks_resized: usize,
    /// Blocks carried over unchanged.
    pub blocks_unchanged: usize,
}

impl RelationDiff {
    /// True when the relation's summary is structurally identical.
    pub fn is_unchanged(&self) -> bool {
        self.blocks_added == 0
            && self.blocks_removed == 0
            && self.blocks_resized == 0
            && self.rows_before == self.rows_after
    }
}

/// The structural difference between two database summaries.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SummaryDiff {
    /// Per-relation diffs, in relation-name order (relations present in
    /// either summary).
    pub relations: Vec<RelationDiff>,
}

impl SummaryDiff {
    /// Computes the structural diff from the relation summaries `old` to
    /// `new`, each relation keyed by its table name (a database summary's
    /// `relations.values()`, or a baseline's summaries, diffed in place).
    pub fn between<'a>(
        old: impl IntoIterator<Item = &'a RelationSummary>,
        new: impl IntoIterator<Item = &'a RelationSummary>,
    ) -> SummaryDiff {
        type Pair<'a> = (Option<&'a RelationSummary>, Option<&'a RelationSummary>);
        let mut pairs: BTreeMap<&str, Pair<'a>> = BTreeMap::new();
        for summary in old {
            pairs.entry(&summary.table).or_default().0 = Some(summary);
        }
        for summary in new {
            pairs.entry(&summary.table).or_default().1 = Some(summary);
        }
        let relations = pairs
            .into_iter()
            .map(|(name, (before, after))| Self::diff_relation(name, before, after))
            .collect();
        SummaryDiff { relations }
    }

    fn diff_relation(
        table: &str,
        before: Option<&RelationSummary>,
        after: Option<&RelationSummary>,
    ) -> RelationDiff {
        let mut diff = RelationDiff {
            table: table.to_string(),
            rows_before: before.map_or(0, |s| s.total_rows),
            rows_after: after.map_or(0, |s| s.total_rows),
            blocks_added: 0,
            blocks_removed: 0,
            blocks_resized: 0,
            blocks_unchanged: 0,
        };
        // Equal summaries (every reused relation) census every block as
        // unchanged; skip building the census.
        if let (Some(before), Some(after)) = (before, after) {
            if before == after {
                diff.blocks_unchanged = after.rows.len();
                return diff;
            }
        }
        // Blocks keyed by the canonical JSON of their value vector; counts
        // accumulated because distinct blocks can share a value vector.
        let census = |summary: Option<&RelationSummary>| -> BTreeMap<String, (u64, usize)> {
            let mut blocks: BTreeMap<String, (u64, usize)> = BTreeMap::new();
            if let Some(s) = summary {
                for row in &s.rows {
                    let key = serde_json::to_string(&row.values).unwrap_or_default();
                    let entry = blocks.entry(key).or_insert((0, 0));
                    entry.0 += row.count;
                    entry.1 += 1;
                }
            }
            blocks
        };
        let old_blocks = census(before);
        let new_blocks = census(after);
        for (key, (count, blocks)) in &new_blocks {
            match old_blocks.get(key) {
                None => diff.blocks_added += blocks,
                Some((old_count, old_blocks)) if old_count == count && old_blocks == blocks => {
                    diff.blocks_unchanged += blocks;
                }
                Some(_) => diff.blocks_resized += blocks,
            }
        }
        for (key, (_, blocks)) in &old_blocks {
            if !new_blocks.contains_key(key) {
                diff.blocks_removed += blocks;
            }
        }
        diff
    }

    /// The relations whose summaries changed structurally.
    pub fn changed_relations(&self) -> Vec<&str> {
        self.relations
            .iter()
            .filter(|r| !r.is_unchanged())
            .map(|r| r.table.as_str())
            .collect()
    }

    /// True when nothing changed in any relation.
    pub fn is_unchanged(&self) -> bool {
        self.relations.iter().all(RelationDiff::is_unchanged)
    }

    /// Renders a per-relation text table of the diff.
    pub fn to_display_table(&self) -> String {
        let mut out = String::from(
            "relation | rows before -> after | +blocks | -blocks | ~blocks | =blocks\n",
        );
        for r in &self.relations {
            out.push_str(&format!(
                "{} | {} -> {} | {} | {} | {} | {}\n",
                r.table,
                r.rows_before,
                r.rows_after,
                r.blocks_added,
                r.blocks_removed,
                r.blocks_resized,
                r.blocks_unchanged
            ));
        }
        out
    }
}

/// The complete outcome of a delta build (see
/// [`crate::builder::SummaryBuilder::build_delta`]).
#[derive(Debug, Clone)]
pub struct DeltaBuild {
    /// The rebuilt database summary.
    pub summary: DatabaseSummary,
    /// The standard construction report (reused relations are accounted as
    /// cached).
    pub report: crate::builder::SummaryBuildReport,
    /// The incremental outcome per relation.
    pub delta_report: DeltaBuildReport,
    /// The refreshed baseline for the next delta build.
    pub baseline: SolveBaseline,
    /// Structural diff against the previous baseline's summary.
    pub diff: SummaryDiff,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::types::Value;

    fn summary(table: &str, blocks: &[(u64, i64)]) -> RelationSummary {
        let mut s = RelationSummary::new(table, Some("pk".to_string()));
        for (count, a) in blocks {
            let mut values = BTreeMap::new();
            values.insert("a".to_string(), Value::Integer(*a));
            s.push_row(*count, values);
        }
        s
    }

    fn db(relations: Vec<RelationSummary>) -> DatabaseSummary {
        let mut db = DatabaseSummary::new();
        for r in relations {
            db.insert(r);
        }
        db
    }

    #[test]
    fn diff_classifies_added_removed_resized_unchanged() {
        let old = db(vec![summary("t", &[(10, 1), (20, 2), (30, 3)])]);
        let new = db(vec![summary("t", &[(10, 1), (25, 2), (40, 4)])]);
        let diff = SummaryDiff::between(old.relations.values(), new.relations.values());
        assert_eq!(diff.relations.len(), 1);
        let r = &diff.relations[0];
        assert_eq!(r.blocks_unchanged, 1); // a=1 @10
        assert_eq!(r.blocks_resized, 1); // a=2: 20 -> 25
        assert_eq!(r.blocks_added, 1); // a=4
        assert_eq!(r.blocks_removed, 1); // a=3
        assert_eq!(r.rows_before, 60);
        assert_eq!(r.rows_after, 75);
        assert!(!r.is_unchanged());
        assert_eq!(diff.changed_relations(), vec!["t"]);
        assert!(diff.to_display_table().contains("60 -> 75"));
    }

    #[test]
    fn identical_summaries_diff_empty() {
        let a = db(vec![
            summary("t", &[(10, 1)]),
            summary("u", &[(5, 7), (6, 8)]),
        ]);
        let diff = SummaryDiff::between(a.relations.values(), a.clone().relations.values());
        assert!(diff.is_unchanged());
        assert!(diff.changed_relations().is_empty());
    }

    #[test]
    fn equal_summaries_count_what_their_census_counts() {
        // Two blocks share a value vector: the census sums them under one
        // key and still counts both blocks.
        let t = summary("t", &[(10, 1), (20, 1), (5, 2)]);
        let equal = SummaryDiff::between([&t], [&t]);
        // Same rows under another PK column: not equal, so censused.
        let mut twin = t.clone();
        twin.pk_column = None;
        let censused = SummaryDiff::between([&t], [&twin]);
        assert_eq!(equal, censused);
        assert_eq!(equal.relations[0].blocks_unchanged, 3);
        assert!(equal.is_unchanged());
    }

    #[test]
    fn relation_appearing_and_disappearing() {
        let old = db(vec![summary("gone", &[(10, 1)])]);
        let new = db(vec![summary("fresh", &[(4, 2)])]);
        let diff = SummaryDiff::between(old.relations.values(), new.relations.values());
        let gone = diff.relations.iter().find(|r| r.table == "gone").unwrap();
        assert_eq!(gone.blocks_removed, 1);
        assert_eq!(gone.rows_after, 0);
        let fresh = diff.relations.iter().find(|r| r.table == "fresh").unwrap();
        assert_eq!(fresh.blocks_added, 1);
        assert_eq!(fresh.rows_before, 0);
    }

    #[test]
    fn diff_serde_round_trip() {
        let old = db(vec![summary("t", &[(10, 1)])]);
        let new = db(vec![summary("t", &[(12, 1)])]);
        let diff = SummaryDiff::between(old.relations.values(), new.relations.values());
        let json = serde_json::to_string(&diff).unwrap();
        let back: SummaryDiff = serde_json::from_str(&json).unwrap();
        assert_eq!(diff, back);
    }

    #[test]
    fn delta_report_accounting() {
        let report = DeltaBuildReport {
            relations: vec![
                RelationDeltaStats {
                    table: "a".into(),
                    action: DeltaAction::Reused,
                    lp_variables: 0,
                    solve_micros: 0,
                },
                RelationDeltaStats {
                    table: "b".into(),
                    action: DeltaAction::WarmSolved,
                    lp_variables: 12,
                    solve_micros: 480,
                },
                RelationDeltaStats {
                    table: "c".into(),
                    action: DeltaAction::ColdSolved,
                    lp_variables: 9,
                    solve_micros: 900,
                },
            ],
            total_micros: 1500,
        };
        assert_eq!(report.reused(), 1);
        assert_eq!(report.warm_solved(), 1);
        assert_eq!(report.cold_solved(), 1);
        let table = report.to_display_table();
        assert!(table.contains("1 reused, 1 warm, 1 cold"));
        let json = serde_json::to_string(&report).unwrap();
        let back: DeltaBuildReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
