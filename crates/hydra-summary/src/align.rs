//! Deterministic alignment: turning region solutions into summary rows.
//!
//! Regions are laid out in canonical (signature-sorted) order; each non-empty
//! region contributes **one summary row** whose `#TUPLES` is the region's LP
//! count and whose value vector is a point of the region.  Because the layout
//! is deterministic and contiguous, the tuples of a region occupy one block of
//! auto-numbered primary keys, which is what lets foreign-key conditions on
//! referencing relations resolve to primary-key intervals.
//!
//! The paper contrasts this *deterministic alignment* with DataSynth's
//! sampling-based instantiation; [`AlignmentStrategy::Sampled`] reproduces the
//! latter for the ablation experiment (E10): value vectors are drawn at random
//! from each region instead of canonically, which breaks none of the
//! per-relation constraints but loses the reproducibility and (for predicates
//! that were not part of this relation's own constraint set) the exactness of
//! the FK projection.

use crate::axes::RelationAxes;
use crate::solve::SolvedRelation;
use crate::summary::RelationSummary;
use hydra_catalog::schema::Table;
use hydra_catalog::stats::TableStatistics;
use hydra_catalog::types::{DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How representative value vectors are chosen inside each region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignmentStrategy {
    /// HYDRA's deterministic alignment: the canonical first point of each
    /// region, identical across runs.
    #[default]
    Deterministic,
    /// DataSynth-style sampling: a pseudo-random point of each region,
    /// parameterized by a seed (the ablation baseline).
    Sampled {
        /// RNG seed.
        seed: u64,
    },
}

/// Builds the relation summary from a solved region placement.
///
/// * `axes` — the partitioning axes (referenced columns);
/// * `solved` — region partition plus integral per-region tuple counts;
/// * `stats` — optional client statistics used to fill columns the workload
///   never references (most-common value when available);
/// * `strategy` — deterministic or sampled value placement.
pub fn build_relation_summary(
    table: &Table,
    axes: &RelationAxes,
    solved: &SolvedRelation,
    stats: Option<&TableStatistics>,
    strategy: AlignmentStrategy,
) -> RelationSummary {
    let pk_column = table.primary_key_column().map(str::to_string);
    let mut summary = RelationSummary::new(table.name.clone(), pk_column.clone());
    let mut rng = match strategy {
        AlignmentStrategy::Sampled { seed } => Some(StdRng::seed_from_u64(seed)),
        AlignmentStrategy::Deterministic => None,
    };

    // Pre-compute filler values for columns not referenced by the workload.
    let filler: BTreeMap<String, Value> = table
        .columns()
        .iter()
        .filter(|c| {
            Some(c.name.as_str()) != pk_column.as_deref() && !axes.columns.contains(&c.name)
        })
        .map(|c| {
            (
                c.name.clone(),
                filler_value(table, &c.name, &c.data_type, stats),
            )
        })
        .collect();

    // Emit regions in geometric (representative-point) order rather than
    // signature order: range predicates then select *contiguous* runs of
    // primary-key blocks, so downstream foreign-key projections produce few
    // intervals and the referencing relation's region partition stays small.
    // Only the LP support emits rows, so only it is ordered.
    let mut order = solved.support();
    order.sort_by_cached_key(|&i| solved.partition.region(i).representative_point());

    for &index in &order {
        let region = solved.partition.region(index);
        let count = solved.region_counts[index];
        let point = match &mut rng {
            Some(rng) if region.volume > 0 => {
                let idx = rng.gen_range(0..region.volume.min(u64::MAX as u128) as u64);
                region
                    .point_at(idx as u128)
                    .unwrap_or_else(|| region.representative_point())
            }
            _ => region.representative_point(),
        };
        let mut values = filler.clone();
        for (axis, column) in axes.columns.iter().enumerate() {
            let coord = point.get(axis).copied().unwrap_or(0);
            let value = if table.is_foreign_key(column) {
                // FK axes are primary-key positions of the referenced relation.
                Value::Integer(coord)
            } else {
                table
                    .column(column)
                    .map(|c| c.domain_or_default().denormalize(coord))
                    .unwrap_or(Value::Integer(coord))
            };
            values.insert(column.clone(), value);
        }
        summary.push_row(count, values);
    }
    summary
}

/// Picks a value for a column the workload never references: the most common
/// value from the client statistics when available, otherwise a domain /
/// type-appropriate default.
fn filler_value(
    table: &Table,
    column: &str,
    data_type: &DataType,
    stats: Option<&TableStatistics>,
) -> Value {
    if let Some(stats) = stats {
        if let Some(cs) = stats.columns.get(column) {
            if let Some((v, _)) = cs.most_common.first() {
                return v.clone();
            }
        }
    }
    if let Some(col) = table.column(column) {
        if let Some(domain) = &col.domain {
            let (lo, _) = domain.normalized_bounds();
            return domain.denormalize(lo);
        }
    }
    match data_type {
        DataType::Integer | DataType::BigInt | DataType::Date => Value::Integer(0),
        DataType::Double => Value::Double(0.0),
        DataType::Varchar(_) => Value::str(""),
        DataType::Boolean => Value::Boolean(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::RelationAxes;
    use crate::solve::solve_relation;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, Schema, SchemaBuilder};
    use hydra_catalog::stats::ColumnStatistics;
    use hydra_query::aqp::VolumetricConstraint;
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};

    fn schema() -> Schema {
        SchemaBuilder::new("toy")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("i_manager_id", DataType::BigInt)
                            .domain(Domain::integer(0, 100)),
                    )
                    .column(
                        ColumnBuilder::new("i_category", DataType::Varchar(None))
                            .domain(Domain::categorical(["Books", "Music", "Women"])),
                    )
                    .column(
                        ColumnBuilder::new("i_color", DataType::Varchar(None))
                            .domain(Domain::categorical(["red", "blue"])),
                    )
            })
            .build()
            .unwrap()
    }

    fn constraint(lo: i64, hi: i64, card: u64, label: &str) -> VolumetricConstraint {
        VolumetricConstraint {
            table: "item".into(),
            predicate: TablePredicate::always_true()
                .with(ColumnPredicate::new("i_manager_id", CompareOp::Ge, lo))
                .with(ColumnPredicate::new("i_manager_id", CompareOp::Lt, hi)),
            fk_conditions: vec![],
            cardinality: card,
            label: label.into(),
        }
    }

    fn build(strategy: AlignmentStrategy) -> RelationSummary {
        let schema = schema();
        let table = schema.table("item").unwrap();
        let cs = vec![
            constraint(0, 50, 600, "q1#1"),
            constraint(25, 75, 300, "q2#1"),
        ];
        let axes = RelationAxes::build(table, &cs, &BTreeMap::new()).unwrap();
        let solved = solve_relation(table, &axes, &cs, 1000, &BTreeMap::new(), false).unwrap();
        let mut stats = TableStatistics::with_row_count(1000);
        stats.add_column(
            "i_category",
            ColumnStatistics::profile(&[Value::str("Music"), Value::str("Music")], 2, 2),
        );
        build_relation_summary(table, &axes, &solved, Some(&stats), strategy)
    }

    #[test]
    fn summary_preserves_total_rows_and_constraints() {
        let s = build(AlignmentStrategy::Deterministic);
        assert_eq!(s.total_rows, 1000);
        // Constraint 1: rows with 0 <= i_manager_id < 50 must total 600.
        let pred = TablePredicate::always_true().with(ColumnPredicate::new(
            "i_manager_id",
            CompareOp::Lt,
            50,
        ));
        let achieved: u64 = s
            .rows
            .iter()
            .filter(|r| pred.evaluate(|c| r.values.get(c)))
            .map(|r| r.count)
            .sum();
        assert_eq!(achieved, 600);
    }

    #[test]
    fn unreferenced_columns_get_filler_from_stats() {
        let s = build(AlignmentStrategy::Deterministic);
        for row in &s.rows {
            assert_eq!(row.values.get("i_category"), Some(&Value::str("Music")));
            // i_color has no stats: falls back to the first dictionary entry.
            assert_eq!(row.values.get("i_color"), Some(&Value::str("red")));
            // The PK column is never materialized in the summary.
            assert!(!row.values.contains_key("i_item_sk"));
        }
    }

    #[test]
    fn deterministic_alignment_is_reproducible() {
        let a = build(AlignmentStrategy::Deterministic);
        let b = build(AlignmentStrategy::Deterministic);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_alignment_still_satisfies_constraints() {
        let s = build(AlignmentStrategy::Sampled { seed: 7 });
        assert_eq!(s.total_rows, 1000);
        let pred = TablePredicate::always_true().with(ColumnPredicate::new(
            "i_manager_id",
            CompareOp::Lt,
            50,
        ));
        let achieved: u64 = s
            .rows
            .iter()
            .filter(|r| pred.evaluate(|c| r.values.get(c)))
            .map(|r| r.count)
            .sum();
        assert_eq!(achieved, 600);
    }

    #[test]
    fn sampled_alignment_differs_from_deterministic_in_values() {
        let det = build(AlignmentStrategy::Deterministic);
        let sam = build(AlignmentStrategy::Sampled { seed: 7 });
        // Same counts, (very likely) different representative values.
        let det_counts: Vec<u64> = det.rows.iter().map(|r| r.count).collect();
        let sam_counts: Vec<u64> = sam.rows.iter().map(|r| r.count).collect();
        assert_eq!(det_counts, sam_counts);
        assert_ne!(det, sam);
    }

    #[test]
    fn summary_is_small() {
        let s = build(AlignmentStrategy::Deterministic);
        // 1000 tuples summarized by a handful of rows, well under a KB.
        assert!(s.row_count() <= 4);
        assert!(s.size_bytes() < 1024);
    }
}
