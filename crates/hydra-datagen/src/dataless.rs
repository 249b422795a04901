//! The dataless database: query execution with no stored tuples.
//!
//! [`DatalessDatabase`] pairs a schema with a database summary and implements
//! the execution engine's [`TableProvider`], so every scan in a query plan is
//! served by the dynamic tuple generator.  This is the Rust counterpart of the
//! paper's `datagen` relation property in PostgreSQL: enabling it replaces the
//! traditional scan operator with the dynamic regeneration operator.

use crate::stream::TupleStream;
use hydra_catalog::schema::Schema;
use hydra_engine::exec::TableProvider;
use hydra_engine::row::Row;
use hydra_summary::summary::DatabaseSummary;

/// A schema plus a summary, scannable as if it were a populated database.
#[derive(Debug, Clone)]
pub struct DatalessDatabase {
    /// The schema of the regenerated database.
    pub schema: Schema,
    /// The summary that drives regeneration.
    pub summary: DatabaseSummary,
}

impl DatalessDatabase {
    /// Creates a dataless database.
    pub fn new(schema: Schema, summary: DatabaseSummary) -> Self {
        DatalessDatabase { schema, summary }
    }

    /// Number of tuples a scan of `table` would produce.
    pub fn row_count(&self, table: &str) -> u64 {
        self.summary
            .relation(table)
            .map(|r| r.total_rows)
            .unwrap_or(0)
    }
}

impl TableProvider for DatalessDatabase {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        self.schema
            .table(table)
            .map(|t| t.columns().iter().map(|c| c.name.clone()).collect())
    }

    fn scan(&self, table: &str) -> Option<Box<dyn Iterator<Item = Row> + '_>> {
        let t = self.schema.table(table)?;
        let summary = self.summary.relation(table)?;
        Some(Box::new(TupleStream::new(t, summary)))
    }

    fn estimated_rows(&self, table: &str) -> Option<u64> {
        self.summary.relation(table).map(|r| r.total_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::domain::Domain;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};
    use hydra_engine::exec::Executor;
    use hydra_query::parser::parse_query_for_schema;
    use hydra_query::plan::LogicalPlan;
    use hydra_summary::summary::RelationSummary;
    use std::collections::BTreeMap;

    fn schema() -> Schema {
        SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("i_manager_id", DataType::BigInt)
                            .domain(Domain::integer(0, 100)),
                    )
            })
            .table("store_sales", |t| {
                t.column(ColumnBuilder::new("ss_sk", DataType::BigInt).primary_key())
                    .column(
                        ColumnBuilder::new("ss_item_fk", DataType::BigInt)
                            .references("item", "i_item_sk"),
                    )
            })
            .build()
            .unwrap()
    }

    fn summary() -> DatabaseSummary {
        let mut item = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v1 = BTreeMap::new();
        v1.insert("i_manager_id".to_string(), Value::Integer(40));
        item.push_row(60, v1);
        let mut v2 = BTreeMap::new();
        v2.insert("i_manager_id".to_string(), Value::Integer(91));
        item.push_row(40, v2);

        let mut sales = RelationSummary::new("store_sales", Some("ss_sk".to_string()));
        let mut s1 = BTreeMap::new();
        s1.insert("ss_item_fk".to_string(), Value::Integer(10)); // manager 40 block
        sales.push_row(300, s1);
        let mut s2 = BTreeMap::new();
        s2.insert("ss_item_fk".to_string(), Value::Integer(70)); // manager 91 block
        sales.push_row(700, s2);

        let mut db = DatabaseSummary::new();
        db.insert(item);
        db.insert(sales);
        db
    }

    #[test]
    fn provider_interface() {
        let db = DatalessDatabase::new(schema(), summary());
        assert_eq!(db.row_count("item"), 100);
        assert_eq!(db.row_count("missing"), 0);
        assert_eq!(db.estimated_rows("store_sales"), Some(1000));
        assert_eq!(
            db.table_columns("item"),
            Some(vec!["i_item_sk".to_string(), "i_manager_id".to_string()])
        );
        assert!(db.table_columns("missing").is_none());
        assert_eq!(db.scan("item").unwrap().count(), 100);
        assert!(db.scan("missing").is_none());
    }

    #[test]
    fn queries_run_on_dataless_database() {
        // The headline feature: execute a filter + join query with absolutely
        // no materialized tuples.
        let schema = schema();
        let db = DatalessDatabase::new(schema.clone(), summary());
        let q = parse_query_for_schema(
            "q",
            "select * from store_sales, item \
             where store_sales.ss_item_fk = item.i_item_sk and item.i_manager_id < 50",
            &schema,
        )
        .unwrap();
        let plan = LogicalPlan::from_query(&q).unwrap();
        let executor = Executor::new(&db);
        let aqp = executor.run_annotated("q", &plan).unwrap();
        // Sales rows referencing items with manager < 50 are exactly the 300
        // rows whose FK lands in the first item block.
        assert_eq!(executor.run(&plan).unwrap().rows.len(), 300);
        assert_eq!(aqp.root.cardinality, 300);
    }
}
