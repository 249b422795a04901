//! # hydra-datagen
//!
//! Dynamic ("dataless") tuple generation — the part of HYDRA that regenerates
//! the database **on demand during query execution** instead of materializing
//! it on disk.
//!
//! * [`stream::TupleStream`] expands a relation summary into concrete tuples,
//!   lazily, one row at a time; primary keys are generated as auto-numbers so
//!   row *k* of the stream always carries primary key *k* (the Table 1
//!   pattern: `item_sk` 0, 917, 938, … are the starts of the summary-row
//!   blocks).
//! * [`governor::VelocityGovernor`] regulates the generation rate in rows per
//!   second — the paper's "velocity" slider — by pacing the stream against a
//!   monotonic clock.
//! * [`generator::DynamicGenerator`] is the paper's dataless database: a
//!   borrowed, `Copy` view of a schema and its summary through which every
//!   relation of the regenerated database is resolved.  It streams, seeks,
//!   shards, optionally materializes, runs rate-controlled generation, and
//!   implements the execution engine's [`hydra_engine::exec::TableProvider`],
//!   so queries run with **no stored data at all**: every scan is served by
//!   the tuple generator (the paper's `datagen` scan operator).
//! * [`shard`] adds the scale-out path: [`shard::ShardPlanner`] splits a
//!   relation's row space into balanced ranges, each regenerated on its own
//!   thread through an O(log B) seek into the summary's block-offset index,
//!   with per-shard [`sink::TupleSink`]s and output bit-identical to the
//!   sequential stream.
//!
//! ## Example
//!
//! ```
//! use hydra_catalog::schema::{SchemaBuilder, ColumnBuilder};
//! use hydra_catalog::types::{DataType, Value};
//! use hydra_summary::summary::{DatabaseSummary, RelationSummary};
//! use hydra_datagen::generator::DynamicGenerator;
//! use std::collections::BTreeMap;
//!
//! let schema = SchemaBuilder::new("db")
//!     .table("item", |t| {
//!         t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
//!          .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
//!     })
//!     .build().unwrap();
//! let mut item = RelationSummary::new("item", Some("i_item_sk".into()));
//! let mut v = BTreeMap::new();
//! v.insert("i_manager_id".to_string(), Value::Integer(40));
//! item.push_row(917, v);
//! let mut summary = DatabaseSummary::new();
//! summary.insert(item);
//!
//! let gen = DynamicGenerator::new(&schema, &summary);
//! let rows: Vec<_> = gen.stream("item").unwrap().collect();
//! assert_eq!(rows.len(), 917);
//! assert_eq!(rows[0][0], Value::Integer(0));     // auto-numbered PK
//! assert_eq!(rows[916][0], Value::Integer(916));
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod generator;
pub mod governor;
pub mod shard;
pub mod sink;
pub mod stream;

pub use exec::{ExecError, ExecMode, ExecResult, QueryEngine};
pub use generator::{DynamicGenerator, GenerationStats};
pub use governor::{Pulse, VelocityGovernor};
pub use shard::{ShardOutcome, ShardPlanner, ShardedRun};
pub use sink::{CollectSink, CountingSink, CsvSink, TupleSink};
pub use stream::TupleStream;
