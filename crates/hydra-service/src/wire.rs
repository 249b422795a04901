//! The frame encoders: the byte-wise `BatchEncoder` the server's stream
//! task drives, and [`FrameSink`], the in-process reference encoder.
//!
//! [`FrameSink`] implements [`TupleSink`], so the one blocking loop that
//! feeds in-process consumers (`DynamicGenerator::stream_range_into`,
//! sharded runs), paced by the same `VelocityGovernor::next_pulse` rule as
//! the wire pump, writes the bytes a `Stream` request puts on the wire —
//! the `StreamStart` header and every `Response::Batch` frame, everything
//! but the timing trailer — into any `Write`.  The end-to-end benchmark, the `generation_velocity` bench and
//! the byte-identity tests compare the served wire against it.
//!
//! Batch encoding exploits the summary's block-constant structure: frames
//! are assembled byte-wise by a `BatchEncoder` whose per-block
//! `BlockTemplate` serializes the constant columns **once**, after which
//! each tuple is a memcpy of the cached JSON with only the pk digit span
//! patched.  The assembled bytes are identical to serializing
//! `Response::Batch { rows }` through serde, which the unit tests assert
//! frame by frame.

use crate::error::ServiceError;
use crate::protocol::{write_frame, Response, StreamStart, MAX_FRAME_BYTES};
use hydra_catalog::schema::Table;
use hydra_datagen::sink::TupleSink;
use hydra_datagen::stream::{BlockTemplate, RowBlock, TemplateRow};
use hydra_engine::row::Row;
use std::io::Write;

/// JSON payload prefix of a `Response::Batch` frame — must match the serde
/// encoding of `Response::Batch { rows }` up to the first row exactly.
const BATCH_PREFIX: &[u8] = b"{\"Batch\":{\"rows\":[";
/// JSON payload suffix closing [`BATCH_PREFIX`].
const BATCH_SUFFIX: &[u8] = b"]}}";

/// Renders `block`'s tuple as row JSON into a [`BlockTemplate`],
/// byte-identical to `serde_json::to_string(&row)` of the materialized row.
fn render_json(block: &RowBlock<'_>, row: &mut TemplateRow<'_>) {
    row.bytes.push(b'[');
    for (i, value) in block.template().iter().enumerate() {
        if i > 0 {
            row.bytes.push(b',');
        }
        if block.auto_columns().contains(&i) {
            row.bytes.extend_from_slice(b"{\"Integer\":");
            row.pk();
            row.bytes.push(b'}');
        } else {
            let json = serde_json::to_string(value)
                .expect("JSON encoding of an in-memory value is infallible");
            row.bytes.extend_from_slice(json.as_bytes());
        }
    }
    row.bytes.push(b']');
}

/// Assembles `Response::Batch` frames byte-wise from encoded rows.
///
/// The pending frame is built in place — length placeholder, payload prefix,
/// then comma-separated row JSON — so flushing a normal-sized batch patches
/// the length and appends the suffix without re-copying the rows.  Batches
/// whose payload would exceed [`MAX_FRAME_BYTES`] are split in half by row
/// count, recursively, exactly like serializing and re-trying smaller
/// batches would (the byte length of a sub-batch is computable from the row
/// offsets because JSON encodings compose).
///
/// Shared by the in-process [`FrameSink`] and the server's stream task, so
/// the wire carries exactly the reference bytes at identical frame
/// boundaries.
#[derive(Debug)]
pub(crate) struct BatchEncoder {
    batch_rows: usize,
    /// Pending frame: `[4-byte len placeholder][prefix][row0,row1,...]`.
    buf: Vec<u8>,
    /// Offset in `buf` where each pending row's JSON starts.
    starts: Vec<usize>,
    template: BlockTemplate,
}

/// Receives one complete frame (length header + payload) and its row count.
pub(crate) type EmitFrame<'e> = dyn FnMut(&[u8], u64) -> Result<(), ServiceError> + 'e;

impl BatchEncoder {
    /// An encoder cutting batches at `batch_rows` tuples (clamped to
    /// `1..=65536`, matching the historical `FrameSink` clamp).
    pub(crate) fn new(batch_rows: u64) -> Self {
        let batch_rows = batch_rows.clamp(1, 1 << 16) as usize;
        let mut encoder = BatchEncoder {
            batch_rows,
            buf: Vec::new(),
            starts: Vec::with_capacity(batch_rows),
            template: BlockTemplate::default(),
        };
        encoder.reset();
        encoder
    }

    /// The batch-row cut after clamping.
    pub(crate) fn batch_rows(&self) -> u64 {
        self.batch_rows as u64
    }

    /// True once the pending batch has reached the batch-row cut.
    pub(crate) fn is_full(&self) -> bool {
        self.starts.len() >= self.batch_rows
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; 4]);
        self.buf.extend_from_slice(BATCH_PREFIX);
        self.starts.clear();
    }

    fn begin_row(&mut self) {
        if !self.starts.is_empty() {
            self.buf.push(b',');
        }
        self.starts.push(self.buf.len());
    }

    /// Appends one row through the serde encoder (the row-at-a-time path).
    pub(crate) fn append_json_row(&mut self, row: &Row) -> Result<(), ServiceError> {
        self.begin_row();
        let json = serde_json::to_string(row)?;
        self.buf.extend_from_slice(json.as_bytes());
        Ok(())
    }

    /// Appends the block's tuple at `pk` through the cached row template
    /// (the columnar path) — byte-identical to
    /// [`append_json_row`](Self::append_json_row) of the materialized row.
    pub(crate) fn append_template_row(&mut self, block: &RowBlock<'_>, pk: u64) {
        self.begin_row();
        let row = self.template.row(block, pk, |row| render_json(block, row));
        self.buf.extend_from_slice(row);
    }

    /// Emits the pending batch as one or more frames through `emit` and
    /// clears the buffer.  No-op when nothing is pending.
    pub(crate) fn flush(&mut self, emit: &mut EmitFrame<'_>) -> Result<(), ServiceError> {
        if self.starts.is_empty() {
            return Ok(());
        }
        let payload_len = self.buf.len() - 4 + BATCH_SUFFIX.len();
        let result = if payload_len as u64 <= MAX_FRAME_BYTES as u64 {
            self.buf.extend_from_slice(BATCH_SUFFIX);
            self.buf[..4].copy_from_slice(&(payload_len as u32).to_be_bytes());
            emit(&self.buf, self.starts.len() as u64)
        } else {
            Self::emit_split(&self.buf, &self.starts, 0, self.starts.len(), emit)
        };
        self.reset();
        result
    }

    /// Re-frames rows `[lo, hi)` of the oversized pending batch, halving by
    /// row count until each frame fits under the cap.
    fn emit_split(
        buf: &[u8],
        starts: &[usize],
        lo: usize,
        hi: usize,
        emit: &mut EmitFrame<'_>,
    ) -> Result<(), ServiceError> {
        let first = starts[lo];
        // Rows are comma-separated in `buf`; a sub-range ends just before
        // the next row's separator (or at the buffer end for the last row).
        let last = if hi == starts.len() {
            buf.len()
        } else {
            starts[hi] - 1
        };
        let payload_len = BATCH_PREFIX.len() + (last - first) + BATCH_SUFFIX.len();
        if payload_len as u64 <= MAX_FRAME_BYTES as u64 {
            let mut frame = Vec::with_capacity(4 + payload_len);
            frame.extend_from_slice(&(payload_len as u32).to_be_bytes());
            frame.extend_from_slice(BATCH_PREFIX);
            frame.extend_from_slice(&buf[first..last]);
            frame.extend_from_slice(BATCH_SUFFIX);
            emit(&frame, (hi - lo) as u64)
        } else if hi - lo == 1 {
            Err(ServiceError::Protocol(
                "a single tuple exceeds the frame size cap".to_string(),
            ))
        } else {
            let mid = lo + (hi - lo) / 2;
            Self::emit_split(buf, starts, lo, mid, emit)?;
            Self::emit_split(buf, starts, mid, hi, emit)
        }
    }
}

/// A [`TupleSink`] that encodes tuples as framed wire batches.
#[derive(Debug)]
pub struct FrameSink<'a, W: Write> {
    writer: &'a mut W,
    encoder: BatchEncoder,
    rows: u64,
    /// First error encountered while writing; once set, the sink drops
    /// tuples (the stream is already dead) and the driver reports it.
    error: Option<ServiceError>,
    /// Row range announced in the `StreamStart` header.
    range: (u64, u64),
}

impl<'a, W: Write> FrameSink<'a, W> {
    /// A sink writing batches of up to `batch_rows` tuples to `writer`,
    /// announcing the row range `[start, end)` in its header frame.
    pub fn new(writer: &'a mut W, batch_rows: u64, range: (u64, u64)) -> Self {
        FrameSink {
            writer,
            encoder: BatchEncoder::new(batch_rows),
            rows: 0,
            error: None,
            range,
        }
    }

    /// Tuples accepted so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Consumes the sink, returning the first write error if any occurred.
    pub fn into_error(self) -> Option<ServiceError> {
        self.error
    }

    /// Writes the pending batch, if any, and flushes the writer.
    fn flush_batch(&mut self) {
        if self.error.is_some() {
            return;
        }
        let writer = &mut *self.writer;
        let mut emit = |frame: &[u8], _rows: u64| -> Result<(), ServiceError> {
            writer.write_all(frame).map_err(ServiceError::Io)
        };
        if let Err(e) = self.encoder.flush(&mut emit) {
            self.error = Some(e);
            return;
        }
        // Push the batch onto the wire now: streaming consumers see
        // progress batch by batch, and a dead peer surfaces as a write
        // error here instead of hiding in the connection's buffer.
        if let Err(e) = self.writer.flush() {
            self.error = Some(ServiceError::Io(e));
        }
    }
}

impl<W: Write> TupleSink for FrameSink<'_, W> {
    fn begin(&mut self, table: &Table, _expected_rows: u64) {
        let header = Response::StreamStart(StreamStart {
            table: table.name.clone(),
            columns: table.columns().iter().map(|c| c.name.clone()).collect(),
            start: self.range.0,
            end: self.range.1,
        });
        if let Err(e) = write_frame(self.writer, &header) {
            self.error = Some(e);
        }
    }

    fn accept(&mut self, row: Row) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.encoder.append_json_row(&row) {
            self.error = Some(e);
            return;
        }
        self.rows += 1;
        if self.encoder.is_full() {
            self.flush_batch();
        }
    }

    fn write_block(&mut self, block: &RowBlock<'_>) -> u64 {
        let before = self.rows;
        for pk in block.pk_range() {
            if self.error.is_some() {
                break;
            }
            self.encoder.append_template_row(block, pk);
            self.rows += 1;
            if self.encoder.is_full() {
                self.flush_batch();
            }
        }
        self.rows - before
    }

    /// Once a write has failed the peer is unreachable; the stream driver
    /// stops generating instead of producing tuples nobody can receive.
    fn aborted(&self) -> bool {
        self.error.is_some()
    }

    /// Flushes the writer even with no batch pending: a zero-row stream's
    /// `StreamStart` header must not sit in the connection's buffered
    /// writer after the stream is over.
    fn finish(&mut self) {
        self.flush_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::{DataType, Value};
    use hydra_datagen::stream::TupleStream;
    use hydra_summary::summary::RelationSummary;
    use std::collections::BTreeMap;

    fn table() -> Table {
        SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
            })
            .build()
            .unwrap()
            .table("item")
            .unwrap()
            .clone()
    }

    #[test]
    fn frame_sink_emits_header_and_batches() {
        let mut buf: Vec<u8> = Vec::new();
        let table = table();
        let mut sink = FrameSink::new(&mut buf, 2, (0, 5));
        sink.begin(&table, 5);
        for i in 0..5 {
            sink.accept(vec![Value::Integer(i)]);
        }
        sink.finish();
        assert_eq!(sink.rows(), 5);
        assert!(sink.into_error().is_none());

        let mut cursor = &buf[..];
        match read_frame::<_, Response>(&mut cursor).unwrap().unwrap() {
            Response::StreamStart(h) => {
                assert_eq!(h.table, "item");
                assert_eq!(h.columns, vec!["i_item_sk".to_string()]);
                assert_eq!((h.start, h.end), (0, 5));
            }
            other => panic!("expected StreamStart, got {other:?}"),
        }
        // 5 rows at batch size 2 → batches of 2, 2, 1.
        let mut sizes = Vec::new();
        loop {
            match read_frame::<_, Response>(&mut cursor).unwrap() {
                Some(Response::Batch { rows }) => sizes.push(rows.len()),
                Some(other) => panic!("unexpected frame {other:?}"),
                None => break,
            }
        }
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn oversized_batches_split_instead_of_dying() {
        // 34 × 2 MiB rows ≈ 68 MiB of JSON — over the 64 MiB frame cap as
        // one batch, so the sink must split it into frames that fit.
        let wide = Value::str("x".repeat(2 << 20));
        let mut buf: Vec<u8> = Vec::new();
        let table = table();
        let mut sink = FrameSink::new(&mut buf, 64, (0, 34));
        sink.begin(&table, 34);
        for _ in 0..34 {
            sink.accept(vec![wide.clone()]);
        }
        sink.finish();
        assert!(sink.into_error().is_none());

        let mut cursor = &buf[..];
        let header = read_frame::<_, Response>(&mut cursor).unwrap().unwrap();
        assert!(matches!(header, Response::StreamStart(_)));
        let mut total = 0usize;
        let mut frames = 0usize;
        while let Some(frame) = read_frame::<_, Response>(&mut cursor).unwrap() {
            match frame {
                Response::Batch { rows } => {
                    total += rows.len();
                    frames += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(total, 34, "splitting must not drop tuples");
        assert!(
            frames >= 2,
            "an oversized batch must split into >= 2 frames"
        );
    }

    #[test]
    fn zero_row_stream_flushes_its_header() {
        /// A writer that only exposes bytes after an explicit flush — the
        /// shape of the connection's buffered stream.
        #[derive(Default)]
        struct FlushGated {
            pending: Vec<u8>,
            flushed: Vec<u8>,
        }
        impl Write for FlushGated {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushed.append(&mut self.pending);
                Ok(())
            }
        }

        let mut writer = FlushGated::default();
        let table = table();
        let mut sink = FrameSink::new(&mut writer, 16, (7, 7));
        sink.begin(&table, 0);
        sink.finish();
        assert_eq!(sink.rows(), 0);
        assert!(sink.into_error().is_none());
        assert!(
            writer.pending.is_empty(),
            "finish must flush the StreamStart header of a zero-row stream"
        );
        let mut cursor = &writer.flushed[..];
        match read_frame::<_, Response>(&mut cursor).unwrap().unwrap() {
            Response::StreamStart(h) => assert_eq!((h.start, h.end), (7, 7)),
            other => panic!("expected StreamStart, got {other:?}"),
        }
        assert!(read_frame::<_, Response>(&mut cursor).unwrap().is_none());
    }

    /// Builds a two-block summary with mixed value types and pks crossing a
    /// digit-width boundary (97..=117), exercising template rebuilds.
    fn blocky_fixture() -> (Table, RelationSummary) {
        let table = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
                    .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
                    .column(ColumnBuilder::new("i_price", DataType::Double))
            })
            .build()
            .unwrap()
            .table("item")
            .unwrap()
            .clone();
        let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v1 = BTreeMap::new();
        v1.insert("i_manager_id".to_string(), Value::Integer(40));
        v1.insert("i_category".to_string(), Value::str("Mu\"sic"));
        v1.insert("i_price".to_string(), Value::Double(1.5));
        summary.push_row(104, v1);
        let mut v2 = BTreeMap::new();
        v2.insert("i_manager_id".to_string(), Value::Integer(91));
        v2.insert("i_price".to_string(), Value::Null);
        summary.push_row(13, v2);
        (table, summary)
    }

    #[test]
    fn template_frames_match_the_serde_baseline_byte_for_byte() {
        let (table, summary) = blocky_fixture();
        for batch_rows in [1u64, 3, 100, 1000] {
            // Baseline: every row through the serde accept path.
            let mut baseline: Vec<u8> = Vec::new();
            let mut sink = FrameSink::new(&mut baseline, batch_rows, (0, 117));
            sink.begin(&table, 117);
            for row in TupleStream::new(&table, &summary) {
                sink.accept(row);
            }
            sink.finish();
            assert!(sink.into_error().is_none());
            // Columnar: whole blocks through the cached row template.
            let mut templated: Vec<u8> = Vec::new();
            let mut sink = FrameSink::new(&mut templated, batch_rows, (0, 117));
            sink.begin(&table, 117);
            let mut stream = TupleStream::new(&table, &summary);
            while let Some(block) = stream.next_block(u64::MAX) {
                assert_eq!(sink.write_block(&block), block.len());
            }
            sink.finish();
            assert!(sink.into_error().is_none());
            assert_eq!(
                baseline, templated,
                "batch_rows={batch_rows}: template encoding diverged from serde"
            );
        }
    }
}
