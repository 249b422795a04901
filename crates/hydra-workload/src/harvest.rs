//! AQP harvesting: the client-site step that executes the workload on the
//! real (client) database and records the annotated query plans.

use hydra_engine::database::Database;
use hydra_engine::error::EngineResult;
use hydra_engine::exec::Executor;
use hydra_query::query::SpjQuery;
use hydra_query::workload::QueryWorkload;

/// Executes every query against the client database and pairs it with its
/// annotated plan.
pub fn harvest_workload(db: &Database, queries: &[SpjQuery]) -> EngineResult<QueryWorkload> {
    let executor = Executor::new(db);
    let mut workload = QueryWorkload::new();
    for query in queries {
        let aqp = executor.run_query(query)?;
        workload.add_annotated(query.clone(), aqp);
    }
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate_client_database, DataGenConfig};
    use crate::queries::{WorkloadGenConfig, WorkloadGenerator};
    use crate::retail::{retail_row_targets, retail_schema};
    use hydra_query::plan::PlanOp;

    #[test]
    fn harvested_aqps_match_database_contents() {
        let schema = retail_schema();
        let mut targets = retail_row_targets(0.01);
        targets.insert("store_sales".to_string(), 3_000);
        targets.insert("web_sales".to_string(), 1_000);
        let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
        let queries = WorkloadGenerator::new(
            schema.clone(),
            WorkloadGenConfig {
                num_queries: 8,
                ..Default::default()
            },
        )
        .generate();
        let workload = harvest_workload(&db, &queries).unwrap();
        assert_eq!(workload.len(), 8);
        assert!(workload.total_annotated_edges() > 0);
        for entry in &workload.entries {
            let aqp = entry.aqp.as_ref().expect("every entry must be annotated");
            // Scan cardinalities must equal the table row counts.
            for node in aqp.root.preorder() {
                if let PlanOp::Scan { table } = &node.op {
                    assert_eq!(node.cardinality, db.row_count(table), "scan of {table}");
                }
            }
            // The root cardinality never exceeds the fact table's row count
            // (FK joins are many-to-one; filters only reduce).
            let fact = entry.query.root_table().unwrap();
            assert!(aqp.root.cardinality <= db.row_count(fact));
        }
    }

    #[test]
    fn constraints_can_be_extracted_from_harvested_workload() {
        let schema = retail_schema();
        let mut targets = retail_row_targets(0.01);
        targets.insert("store_sales".to_string(), 1_000);
        targets.insert("web_sales".to_string(), 500);
        let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
        let queries = WorkloadGenerator::new(
            schema.clone(),
            WorkloadGenConfig {
                num_queries: 5,
                ..Default::default()
            },
        )
        .generate();
        let workload = harvest_workload(&db, &queries).unwrap();
        let by_table = workload.constraints_by_table().unwrap();
        // Fact tables must have constraints with FK conditions.
        let fact_constraints = by_table
            .get("store_sales")
            .map(|v| v.iter().filter(|c| !c.fk_conditions.is_empty()).count())
            .unwrap_or(0)
            + by_table
                .get("web_sales")
                .map(|v| v.iter().filter(|c| !c.fk_conditions.is_empty()).count())
                .unwrap_or(0);
        assert!(fact_constraints > 0);
    }
}
