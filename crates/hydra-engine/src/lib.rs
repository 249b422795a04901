//! # hydra-engine
//!
//! A small in-memory relational execution engine.  It plays the role that
//! PostgreSQL v9.3 plays in the original HYDRA system:
//!
//! * at the **client site** it executes the query workload over the client's
//!   warehouse and records the output cardinality of every plan operator —
//!   which is exactly how Annotated Query Plans are produced;
//! * at the **vendor site** it executes the same plans over the paper's
//!   *dataless* database, whose scans are served by the dynamic tuple
//!   generator (`hydra-datagen`'s `DynamicGenerator` implements this crate's
//!   [`exec::TableProvider`] trait), demonstrating dynamic regeneration.
//!
//! The engine supports the query class HYDRA targets: scans, conjunctive
//! range/equality filters, and key/foreign-key joins, executed over
//! materialized or generated row streams.  An [`exec::Executor`] reads each
//! base table once and runs plans over row-id tuples; only
//! [`exec::Executor::run`] builds output rows, while
//! [`exec::Executor::run_annotated`] returns the AQP alone.
//!
//! ## Example
//!
//! ```
//! use hydra_catalog::schema::{SchemaBuilder, ColumnBuilder};
//! use hydra_catalog::types::{DataType, Value};
//! use hydra_catalog::domain::Domain;
//! use hydra_engine::database::Database;
//! use hydra_engine::exec::Executor;
//! use hydra_query::parser::parse_query_for_schema;
//! use hydra_query::plan::LogicalPlan;
//!
//! let schema = SchemaBuilder::new("db")
//!     .table("item", |t| {
//!         t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
//!          .column(ColumnBuilder::new("i_manager_id", DataType::BigInt)
//!              .domain(Domain::integer(0, 100)))
//!     })
//!     .build()
//!     .unwrap();
//! let mut db = Database::empty(schema.clone());
//! for i in 0..100 {
//!     db.insert("item", vec![Value::Integer(i), Value::Integer(i % 100)]).unwrap();
//! }
//! let q = parse_query_for_schema("q", "select * from item where item.i_manager_id < 40", &schema).unwrap();
//! let plan = LogicalPlan::from_query(&q).unwrap();
//! let executor = Executor::new(&db);
//! let result = executor.run(&plan).unwrap();
//! assert_eq!(result.rows.len(), 40);
//!
//! // The AQP annotates every plan edge; no output row is built for it.
//! let aqp = executor.run_annotated("q", &plan).unwrap();
//! assert_eq!(aqp.root.cardinality, 40);
//! assert_eq!(aqp.edge_count(), 2); // filter over scan
//! ```

pub mod database;
pub mod error;
pub mod exec;
pub mod row;
pub mod table;

pub use database::Database;
pub use error::{EngineError, EngineResult};
pub use exec::{ExecutionResult, Executor, TableProvider};
pub use row::{OutputColumn, Row};
pub use table::MemTable;
