//! The client site.
//!
//! The client profiles its warehouse (schema + statistics), executes the query
//! workload to obtain annotated query plans, and packages everything into a
//! [`TransferPackage`].  Privacy-sensitive categorical values can be passed
//! through a simple anonymization layer that renames dictionary entries
//! consistently across the schema, the statistics and the workload — the
//! volumetric structure (which is all HYDRA needs) is preserved exactly.

use crate::error::HydraResult;
use crate::transfer::TransferPackage;
use hydra_catalog::domain::Domain;
use hydra_catalog::metadata::DatabaseMetadata;
use hydra_catalog::types::Value;
use hydra_engine::database::Database;
use hydra_query::plan::PlanOp;
use hydra_query::predicate::TablePredicate;
use hydra_query::query::SpjQuery;
use hydra_query::workload::QueryWorkload;
use hydra_workload::harvest_workload;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Number of most-common values profiled per column.
const MCV_LIMIT: usize = 8;
/// Number of equi-depth histogram buckets profiled per column.
const HISTOGRAM_BUCKETS: usize = 16;

/// The client-site driver.
#[derive(Debug, Clone)]
pub struct ClientSite {
    /// The client's warehouse.
    database: Database,
    /// The warehouse's profile, taken on first use.
    metadata: OnceLock<DatabaseMetadata>,
}

impl ClientSite {
    /// Wraps a client database.
    pub fn new(database: Database) -> Self {
        ClientSite {
            database,
            metadata: OnceLock::new(),
        }
    }

    /// The client's warehouse.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Profiles the warehouse into the metadata package (`ANALYZE` + CODD
    /// metadata transfer).  The warehouse is profiled once; later calls
    /// return the same profile.
    pub fn profile_metadata(&self) -> &DatabaseMetadata {
        self.metadata
            .get_or_init(|| self.database.profile(MCV_LIMIT, HISTOGRAM_BUCKETS))
    }

    /// Executes the workload on the client data and records the AQPs.
    pub fn execute_workload(&self, queries: &[SpjQuery]) -> HydraResult<QueryWorkload> {
        Ok(harvest_workload(&self.database, queries)?)
    }

    /// Builds the transfer package: metadata + annotated workload, optionally
    /// anonymized.
    pub fn prepare_package(
        &self,
        queries: &[SpjQuery],
        anonymize: bool,
    ) -> HydraResult<TransferPackage> {
        let metadata = self.profile_metadata().clone();
        let workload = self.execute_workload(queries)?;
        let mut package = TransferPackage::new(metadata, workload);
        if anonymize {
            package = anonymize_package(package);
        }
        Ok(package)
    }
}

/// A per-table, per-column mapping of categorical values to anonymized tokens.
type ValueMap = BTreeMap<(String, String), BTreeMap<String, String>>;

/// Anonymizes every categorical dictionary in the package, rewriting the
/// schema domains, the column statistics, and every predicate in the workload
/// consistently.  Numeric values are left untouched (they carry no directly
/// identifying text and their order is needed for range predicates).
pub fn anonymize_package(mut package: TransferPackage) -> TransferPackage {
    // 1. Build the value maps and rewrite the schema domains.
    let mut maps: ValueMap = BTreeMap::new();
    let mut schema = package.metadata.schema.clone();
    let table_names: Vec<String> = schema.table_names().to_vec();
    for (ti, table_name) in table_names.iter().enumerate() {
        let Some(table) = schema.table_mut(table_name) else {
            continue;
        };
        let column_names: Vec<String> = table.columns().iter().map(|c| c.name.clone()).collect();
        for (ci, column_name) in column_names.iter().enumerate() {
            let Some(column) = table.column(column_name) else {
                continue;
            };
            if let Some(Domain::Categorical { values }) = column.domain.clone() {
                let map: BTreeMap<String, String> = values
                    .iter()
                    .enumerate()
                    .map(|(vi, v)| (v.clone(), format!("t{ti}c{ci}v{vi}")))
                    .collect();
                let new_values: Vec<String> = values.iter().map(|v| map[v].clone()).collect();
                maps.insert((table_name.clone(), column_name.clone()), map);
                table.set_column_domain(column_name, Domain::Categorical { values: new_values });
            }
        }
    }
    package.metadata.schema = schema;

    // 2. Rewrite statistics.
    for (table_name, stats) in package.metadata.tables.iter_mut() {
        for (column_name, cs) in stats.columns.iter_mut() {
            let Some(map) = maps.get(&(table_name.clone(), column_name.clone())) else {
                continue;
            };
            let rewrite = |v: &Value| -> Value {
                match v {
                    Value::Varchar(s) => map
                        .get(s)
                        .map(|m| Value::Varchar(m.clone()))
                        .unwrap_or_else(|| v.clone()),
                    other => other.clone(),
                }
            };
            cs.most_common = cs
                .most_common
                .iter()
                .map(|(v, f)| (rewrite(v), *f))
                .collect();
            cs.histogram.bounds = cs.histogram.bounds.iter().map(rewrite).collect();
            cs.min = cs.min.as_ref().map(rewrite);
            cs.max = cs.max.as_ref().map(rewrite);
        }
    }

    // 3. Rewrite workload predicates (queries and AQP filter operators).
    for entry in package.workload.entries.iter_mut() {
        let preds: Vec<(String, TablePredicate)> = entry
            .query
            .predicates
            .iter()
            .map(|(t, p)| (t.clone(), rewrite_predicate(t, p, &maps)))
            .collect();
        for (t, p) in preds {
            entry.query.predicates.insert(t, p);
        }
        if let Some(aqp) = entry.aqp.as_mut() {
            aqp.root.for_each_mut(&mut |node| {
                if let PlanOp::Filter { table, predicate } = &mut node.op {
                    *predicate = rewrite_predicate(table, predicate, &maps);
                }
            });
        }
    }
    package
}

fn rewrite_predicate(table: &str, predicate: &TablePredicate, maps: &ValueMap) -> TablePredicate {
    let conjuncts = predicate
        .conjuncts()
        .iter()
        .map(|c| {
            let mut c = c.clone();
            if let Value::Varchar(s) = &c.value {
                if let Some(map) = maps.get(&(table.to_string(), c.column.clone())) {
                    if let Some(m) = map.get(s) {
                        c.value = Value::Varchar(m.clone());
                    }
                }
            }
            c
        })
        .collect();
    TablePredicate::from_conjuncts(conjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_workload::{
        generate_client_database, retail_row_targets, retail_schema, DataGenConfig,
        WorkloadGenConfig, WorkloadGenerator,
    };

    fn small_client() -> (ClientSite, Vec<SpjQuery>) {
        let schema = retail_schema();
        let mut targets = retail_row_targets(0.005);
        targets.insert("store_sales".to_string(), 1_500);
        targets.insert("web_sales".to_string(), 400);
        let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
        let queries = WorkloadGenerator::new(
            schema,
            WorkloadGenConfig {
                num_queries: 6,
                ..Default::default()
            },
        )
        .generate();
        (ClientSite::new(db), queries)
    }

    #[test]
    fn profile_and_package() {
        let (client, queries) = small_client();
        let md = client.profile_metadata();
        assert_eq!(md.row_count("store_sales"), 1_500);
        assert!(md.column_stats("item", "i_category").is_some());

        let package = client.prepare_package(&queries, false).unwrap();
        assert_eq!(package.query_count(), 6);
        assert!(package.annotated_edges() > 6);
        // The transfer package is tiny compared to the database it describes.
        let size = package.transfer_size_bytes().unwrap();
        assert!(size > 0);
    }

    #[test]
    fn anonymization_renames_categorical_values_consistently() {
        let (client, queries) = small_client();
        let plain = client.prepare_package(&queries, false).unwrap();
        let anon = client.prepare_package(&queries, true).unwrap();

        // Schema dictionaries no longer contain the original category names.
        let item = anon.metadata.schema.table("item").unwrap();
        let domain = item.column("i_category").unwrap().domain.clone().unwrap();
        if let Domain::Categorical { values } = &domain {
            assert!(values.iter().all(|v| v.starts_with('t')));
            assert_eq!(values.len(), hydra_workload::retail::ITEM_CATEGORIES.len());
        } else {
            panic!("expected categorical domain");
        }

        // Statistics are rewritten with the same tokens.
        let stats = anon.metadata.column_stats("item", "i_category").unwrap();
        for (v, _) in &stats.most_common {
            assert!(v.as_str().unwrap().starts_with('t'));
        }

        // Workload predicates no longer mention original values, but the
        // cardinality annotations are untouched.
        for (p_entry, a_entry) in plain.workload.entries.iter().zip(&anon.workload.entries) {
            let p_aqp = p_entry.aqp.as_ref().unwrap();
            let a_aqp = a_entry.aqp.as_ref().unwrap();
            let p_cards: Vec<u64> = p_aqp
                .root
                .preorder()
                .iter()
                .map(|n| n.cardinality)
                .collect();
            let a_cards: Vec<u64> = a_aqp
                .root
                .preorder()
                .iter()
                .map(|n| n.cardinality)
                .collect();
            assert_eq!(p_cards, a_cards);
        }
        for entry in &anon.workload.entries {
            for pred in entry.query.predicates.values() {
                for c in pred.conjuncts() {
                    if let Value::Varchar(s) = &c.value {
                        assert!(
                            !hydra_workload::retail::ITEM_CATEGORIES.contains(&s.as_str()),
                            "original value {s} leaked"
                        );
                    }
                }
            }
        }
    }
}
