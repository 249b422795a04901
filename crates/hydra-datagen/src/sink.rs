//! Tuple sinks — the pluggable consumer end of dynamic generation.
//!
//! The paper's generator feeds regenerated tuples straight into query
//! execution; real deployments also want to count them, materialize them, or
//! export them. [`TupleSink`] abstracts the consumer so
//! [`crate::generator::DynamicGenerator::stream_range_into`] (and the
//! session façade's `stream_table`, and every shard of a sharded run) can
//! drive any of these — including velocity-regulated streaming — through
//! one code path.

use crate::stream::{BlockTemplate, RowBlock};
use hydra_catalog::schema::Table;
use hydra_engine::row::Row;
use std::io::Write;

/// A consumer of regenerated tuples.
///
/// Implement it to plug any destination into the generation pipeline — the
/// driver calls `begin` once, [`write_block`](Self::write_block) per
/// columnar block (one tuple per block when throttled), `finish` once;
/// implementing `accept` is enough, the default `write_block` expands each
/// block into `accept` calls.  Sharded
/// generation builds one sink per shard, so a sink never needs to be
/// thread-safe; it only has to be `Send` to travel to its shard's thread.
///
/// ```
/// use hydra_datagen::sink::TupleSink;
/// use hydra_engine::row::Row;
///
/// /// Tracks the widest row seen (a custom metric sink).
/// #[derive(Default)]
/// struct WidestRow(usize);
///
/// impl TupleSink for WidestRow {
///     fn accept(&mut self, row: Row) {
///         self.0 = self.0.max(row.len());
///     }
/// }
///
/// use hydra_catalog::types::Value;
/// let mut sink = WidestRow::default();
/// sink.accept(vec![Value::Integer(7), Value::Null]);
/// assert_eq!(sink.0, 2);
/// ```
pub trait TupleSink {
    /// Called once before the first tuple of a relation.
    fn begin(&mut self, _table: &Table, _expected_rows: u64) {}

    /// Consumes one tuple.
    fn accept(&mut self, row: Row);

    /// Consumes one columnar block: `block.len()` consecutive tuples that
    /// share the block's constant non-pk values, with primary keys running
    /// over `block.pk_range()`.
    ///
    /// Returns how many tuples the sink consumed — `block.len()` unless the
    /// sink [aborted](Self::aborted) part-way, so stream drivers keep exact
    /// row accounting.
    ///
    /// The default implementation expands the block into individual
    /// [`accept`](Self::accept) calls (checking [`aborted`](Self::aborted)
    /// between tuples), so every existing
    /// sink behaves bit-identically when driven by blocks.  Sinks that can
    /// exploit the block-constant structure override this to do O(1) work
    /// per block instead of O(rows).
    fn write_block(&mut self, block: &RowBlock<'_>) -> u64 {
        let mut accepted = 0;
        for row in block.rows() {
            if self.aborted() {
                break;
            }
            self.accept(row);
            accepted += 1;
        }
        accepted
    }

    /// True when the sink can no longer deliver tuples (e.g. a wire sink
    /// whose peer disconnected).  Stream drivers poll this between tuples
    /// and stop generating early instead of producing rows nobody can
    /// receive; `finish` is still called.  Defaults to `false` (in-memory
    /// sinks never die).
    fn aborted(&self) -> bool {
        false
    }

    /// Called once after the last tuple.
    fn finish(&mut self) {}
}

/// Counts tuples and drops them (velocity measurements, smoke tests).
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Number of tuples accepted.
    pub rows: u64,
}

impl CountingSink {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TupleSink for CountingSink {
    fn accept(&mut self, row: Row) {
        // Keep the generated tuple alive past the optimizer so throughput
        // numbers measure real generation work.
        std::hint::black_box(&row);
        self.rows += 1;
    }

    fn write_block(&mut self, block: &RowBlock<'_>) -> u64 {
        // O(1) per block: the count is the block length; the template stands
        // in for the rows the row-at-a-time path would have materialized.
        std::hint::black_box(block.template());
        self.rows += block.len();
        block.len()
    }
}

/// Collects tuples into memory (tests, materialization).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// The accepted tuples, in generation order.
    pub rows: Vec<Row>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TupleSink for CollectSink {
    fn begin(&mut self, _table: &Table, expected_rows: u64) {
        self.rows.reserve(expected_rows.min(1 << 20) as usize);
    }

    fn accept(&mut self, row: Row) {
        self.rows.push(row);
    }
}

/// Writes tuples as CSV to any [`Write`] target (export mode).
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    /// I/O errors encountered while writing (checked by `finish`/caller).
    pub error: Option<std::io::Error>,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing to `writer`, starting with a header row.
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            error: None,
            wrote_header: false,
        }
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn write_line(&mut self, fields: impl Iterator<Item = String>) {
        if self.error.is_some() {
            return;
        }
        let line = fields.collect::<Vec<_>>().join(",");
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }
}

/// Quotes a CSV field when it contains separators or quotes.
fn csv_field(value: &hydra_catalog::types::Value) -> String {
    let text = value.to_string();
    if text.contains([',', '"', '\n']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text
    }
}

impl<W: Write> TupleSink for CsvSink<W> {
    fn begin(&mut self, table: &Table, _expected_rows: u64) {
        if !self.wrote_header {
            let names: Vec<String> = table.columns().iter().map(|c| c.name.clone()).collect();
            self.write_line(names.into_iter());
            self.wrote_header = true;
        }
    }

    fn accept(&mut self, row: Row) {
        self.write_line(row.iter().map(csv_field));
    }

    fn write_block(&mut self, block: &RowBlock<'_>) -> u64 {
        // A CSV sink never aborts: after a write error every accept becomes
        // a no-op, so the whole block counts as consumed either way.
        let consumed = block.len();
        if self.error.is_some() {
            return consumed;
        }
        // Render the line once per block and patch the pk digits per tuple.
        // An auto-numbered pk renders as bare digits, which csv_field never
        // quotes, so the template is byte-identical to the accept path.
        let mut template = BlockTemplate::default();
        for pk in block.pk_range() {
            let line = template.row(block, pk, |row| {
                for (i, value) in block.template().iter().enumerate() {
                    if i > 0 {
                        row.bytes.push(b',');
                    }
                    if block.auto_columns().contains(&i) {
                        row.pk();
                    } else {
                        row.bytes.extend_from_slice(csv_field(value).as_bytes());
                    }
                }
                row.bytes.push(b'\n');
            });
            if let Err(e) = self.writer.write_all(line) {
                self.error = Some(e);
                break;
            }
        }
        consumed
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};

    fn table() -> Table {
        SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
            })
            .build()
            .unwrap()
            .table("item")
            .unwrap()
            .clone()
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        sink.begin(&table(), 2);
        sink.accept(vec![Value::Integer(0), Value::str("Books")]);
        sink.accept(vec![Value::Integer(1), Value::str("Music")]);
        sink.finish();
        assert_eq!(sink.rows, 2);
    }

    #[test]
    fn collect_sink_preserves_order() {
        let mut sink = CollectSink::new();
        sink.accept(vec![Value::Integer(7)]);
        sink.accept(vec![Value::Integer(9)]);
        assert_eq!(sink.rows[0][0], Value::Integer(7));
        assert_eq!(sink.rows[1][0], Value::Integer(9));
    }

    #[test]
    fn block_overrides_match_row_at_a_time() {
        use crate::stream::TupleStream;
        use hydra_summary::summary::RelationSummary;
        use std::collections::BTreeMap;

        let t = table();
        let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v = BTreeMap::new();
        v.insert("i_category".to_string(), Value::str("has,comma"));
        summary.push_row(12, v);
        summary.push_row(3, BTreeMap::new());

        // CSV: block splice vs per-row accept, byte for byte.
        let mut by_rows = CsvSink::new(Vec::new());
        by_rows.begin(&t, 15);
        for row in TupleStream::new(&t, &summary) {
            by_rows.accept(row);
        }
        by_rows.finish();
        let mut by_blocks = CsvSink::new(Vec::new());
        by_blocks.begin(&t, 15);
        let mut stream = TupleStream::new(&t, &summary);
        while let Some(block) = stream.next_block(5) {
            by_blocks.write_block(&block);
        }
        by_blocks.finish();
        assert!(by_rows.error.is_none() && by_blocks.error.is_none());
        assert_eq!(by_rows.into_inner(), by_blocks.into_inner());

        // Counting: O(1) block accounting matches the row count.
        let mut count = CountingSink::new();
        let mut stream = TupleStream::new(&t, &summary);
        while let Some(block) = stream.next_block(u64::MAX) {
            count.write_block(&block);
        }
        assert_eq!(count.rows, 15);
    }

    #[test]
    fn csv_sink_writes_header_and_escapes() {
        let mut sink = CsvSink::new(Vec::new());
        let t = table();
        sink.begin(&t, 2);
        sink.accept(vec![Value::Integer(0), Value::str("plain")]);
        sink.accept(vec![Value::Integer(1), Value::str("has,comma")]);
        sink.finish();
        assert!(sink.error.is_none());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "i_item_sk,i_category");
        assert_eq!(lines[1], "0,plain");
        assert_eq!(lines[2], "1,\"has,comma\"");
    }
}
