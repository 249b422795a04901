//! Lazy expansion of a relation summary into tuples, with random access.
//!
//! A [`TupleStream`] regenerates a relation either in full or over an
//! arbitrary row range `[lo, hi)`.  Range streams seek straight to the first
//! summary block of the range through the summary's
//! [`PkBlockIndex`] — O(log B) in the
//! number of summary rows, never replaying from row 0 — which is the
//! primitive behind sharded parallel generation
//! ([`crate::shard`]): the concatenation of range streams over a partition of
//! `[0, total)` is bit-identical to the full stream.

use hydra_catalog::schema::Table;
use hydra_catalog::types::Value;
use hydra_engine::row::Row;
use hydra_summary::index::PkBlockIndex;
use hydra_summary::summary::RelationSummary;
use std::ops::Range;

/// Sentinel for "no template built yet" (no summary can have this many rows
/// in memory).
const NO_TEMPLATE: usize = usize::MAX;

/// An iterator that regenerates the tuples of one relation from its summary.
///
/// Tuples are produced in deterministic order: summary rows in order, each
/// expanded into `#TUPLES` tuples; the primary key is the running tuple index
/// (auto-number).  All tuples of a summary row share its value vector.
///
/// A stream created by [`TupleStream::with_range`] produces exactly the
/// tuples whose primary keys fall in the range, identical to the
/// corresponding slice of the full stream.
///
/// ```
/// use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
/// use hydra_catalog::types::DataType;
/// use hydra_datagen::stream::TupleStream;
/// use hydra_summary::summary::RelationSummary;
/// use std::collections::BTreeMap;
///
/// let schema = SchemaBuilder::new("db")
///     .table("item", |t| {
///         t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
///     })
///     .build()
///     .unwrap();
/// let table = schema.table("item").unwrap();
/// let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
/// summary.push_row(1_000, BTreeMap::new());
///
/// let full: Vec<_> = TupleStream::new(table, &summary).collect();
/// let slice: Vec<_> = TupleStream::with_range(table, &summary, 250..260).collect();
/// assert_eq!(slice, full[250..260]);
/// ```
pub struct TupleStream<'a> {
    table: &'a Table,
    summary: &'a RelationSummary,
    /// Index of the current summary row.
    row_index: usize,
    /// How many tuples of the current summary row have been emitted (counted
    /// from the row's own start, so a seek sets this to the in-block offset).
    emitted_in_row: u64,
    /// Primary key of the next tuple (absolute row position).
    next_pk: u64,
    /// First row position of the stream's range.
    start: u64,
    /// One past the last row position of the stream's range.
    end: u64,
    /// Cached column layout: for each table column, where its value comes from.
    layout: Vec<ColumnSource>,
    /// Positions in `layout` that hold the auto-numbered primary key.
    auto_columns: Vec<usize>,
    /// Prebuilt row for the current summary block: summary values are cloned
    /// once per block, then each tuple clones the template and patches only
    /// the auto-number columns (the generation hot path).
    template: Row,
    /// Which summary row `template` was built for (`NO_TEMPLATE` = none).
    template_block: usize,
}

/// Where a generated column's value comes from.
enum ColumnSource {
    /// The auto-numbered primary key.
    AutoNumber,
    /// A value from the summary row (by column name).
    Summary(String),
}

/// A maximal run of consecutive tuples that share one summary block.
///
/// Within a block every non-pk column is constant (the paper's core
/// structural invariant); the primary key is the absolute row position, so
/// the whole block is described by a template row plus a pk range.  Sinks
/// that override [`crate::sink::TupleSink::write_block`] exploit this to do
/// O(1) work per block; [`RowBlock::rows`] expands it back into the exact
/// tuple sequence [`TupleStream::next`] would have produced.
#[derive(Debug)]
pub struct RowBlock<'a> {
    /// The block's row with auto-number slots holding an `Integer(0)`
    /// placeholder.
    template: &'a Row,
    /// Column positions that hold the auto-numbered primary key.
    auto_columns: &'a [usize],
    /// Absolute row positions `[start, end)` this block covers.
    pk_range: Range<u64>,
    /// Index of the backing summary row (the block ordinal).
    ordinal: usize,
}

impl RowBlock<'_> {
    /// Number of tuples in the block.
    pub fn len(&self) -> u64 {
        self.pk_range.end - self.pk_range.start
    }

    /// Whether the block holds no tuples (never true for blocks produced by
    /// [`TupleStream::next_block`]).
    pub fn is_empty(&self) -> bool {
        self.pk_range.is_empty()
    }

    /// Absolute row positions `[start, end)` covered by this block.
    pub fn pk_range(&self) -> Range<u64> {
        self.pk_range.clone()
    }

    /// Index of the backing summary row.  Two consecutive blocks with the
    /// same ordinal (split by a range/batch boundary) share their template,
    /// which is what the wire-frame template caches key on.
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// The constant row shared by every tuple of the block; positions listed
    /// in [`auto_columns`](Self::auto_columns) hold an `Integer(0)`
    /// placeholder to be patched with the pk.
    pub fn template(&self) -> &Row {
        self.template
    }

    /// Column positions in [`template`](Self::template) that carry the
    /// auto-numbered primary key.
    pub fn auto_columns(&self) -> &[usize] {
        self.auto_columns
    }

    /// Expands the block into its tuples, bit-identical to the rows
    /// [`TupleStream::next`] yields over the same pk range.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.pk_range.clone().map(move |pk| {
            let mut row = self.template.clone();
            for &i in self.auto_columns {
                row[i] = Value::Integer(pk as i64);
            }
            row
        })
    }
}

/// Decimal digit count of `v` (as rendered by `i64`/`u64` formatting) — the
/// width of the pk digit span a wire template patches per tuple.
#[inline]
fn dec_width(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        v.ilog10() as usize + 1
    }
}

/// Overwrites `dst` (exactly the [`dec_width`] of `v`) with `v`'s digits.
#[inline]
fn write_digits(mut v: u64, dst: &mut [u8]) {
    for slot in dst.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// A block's encoded tuple, cached: the constant columns are rendered once
/// per (block, pk digit width), and each further tuple of the block is the
/// cached bytes with only the pk digit spans overwritten.
///
/// The wire encoders (frame `Batch` JSON, pg `DataRow`, CSV lines) are
/// renderers over this one cache: [`row`](Self::row) decides when to
/// re-render and hands the renderer a [`TemplateRow`] to fill.
///
/// ```
/// use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
/// use hydra_catalog::types::DataType;
/// use hydra_datagen::stream::{BlockTemplate, TemplateRow, TupleStream};
/// use hydra_summary::summary::RelationSummary;
/// use std::collections::BTreeMap;
///
/// let schema = SchemaBuilder::new("db")
///     .table("item", |t| {
///         t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
///     })
///     .build()
///     .unwrap();
/// let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
/// summary.push_row(12, BTreeMap::new());
/// let mut stream = TupleStream::new(schema.table("item").unwrap(), &summary);
/// let block = stream.next_block(u64::MAX).unwrap();
///
/// let render = |row: &mut TemplateRow<'_>| {
///     row.bytes.extend_from_slice(b"pk=");
///     row.pk();
/// };
/// let mut template = BlockTemplate::default();
/// assert_eq!(template.row(&block, 7, render), b"pk=7"); // rendered
/// assert_eq!(template.row(&block, 8, render), b"pk=8"); // patched
/// ```
#[derive(Debug, Default)]
pub struct BlockTemplate {
    /// The block ordinal `scratch` encodes (`None` before the first row).
    ordinal: Option<usize>,
    /// One encoded tuple, the current pk's digits in the spans.
    scratch: Vec<u8>,
    /// Offsets in `scratch` where each pk digit span starts.
    spans: Vec<usize>,
    /// Digit width of the pk currently in the spans.
    width: usize,
}

/// What a [`BlockTemplate`] renderer writes: the tuple's bytes, with each
/// pk occurrence written through [`pk`](Self::pk) so it can be patched.
#[derive(Debug)]
pub struct TemplateRow<'t> {
    /// The encoded tuple so far.
    pub bytes: &'t mut Vec<u8>,
    spans: &'t mut Vec<usize>,
    /// The pk's decimal text, as `i64` formatting renders it.
    pub digits: &'t str,
}

impl TemplateRow<'_> {
    /// Appends the pk's digits and marks them as a patched span.
    pub fn pk(&mut self) {
        self.spans.push(self.bytes.len());
        self.bytes.extend_from_slice(self.digits.as_bytes());
    }
}

impl BlockTemplate {
    /// The encoding of `block`'s tuple at `pk`.  `render` runs only when
    /// the cache cannot be patched: a new block ordinal, a new pk digit
    /// width, or a pk above `i64::MAX` (which renders with a sign through
    /// the `as i64` cast, so is never digit-patched).
    pub fn row(
        &mut self,
        block: &RowBlock<'_>,
        pk: u64,
        render: impl FnOnce(&mut TemplateRow<'_>),
    ) -> &[u8] {
        let width = dec_width(pk);
        if self.ordinal != Some(block.ordinal()) || width != self.width || pk > i64::MAX as u64 {
            self.rebuild(block.ordinal(), pk, render);
        } else {
            for &span in &self.spans {
                write_digits(pk, &mut self.scratch[span..span + width]);
            }
        }
        &self.scratch
    }

    fn rebuild(&mut self, ordinal: usize, pk: u64, render: impl FnOnce(&mut TemplateRow<'_>)) {
        self.scratch.clear();
        self.spans.clear();
        let digits = (pk as i64).to_string();
        self.width = digits.len();
        render(&mut TemplateRow {
            bytes: &mut self.scratch,
            spans: &mut self.spans,
            digits: &digits,
        });
        self.ordinal = Some(ordinal);
    }
}

impl<'a> TupleStream<'a> {
    /// Creates a stream over one full relation (rows `[0, total)`).
    pub fn new(table: &'a Table, summary: &'a RelationSummary) -> Self {
        // A full stream starts at block 0 — no index needed for the seek.
        Self::at_position(table, summary, 0, 0, 0, summary.total_rows)
    }

    /// Creates a stream over the row range `rows` (clamped to the relation's
    /// `[0, total)`), seeking to the first block of the range in O(log B).
    ///
    /// When constructing many range streams over the same summary (sharding),
    /// build the index once and use [`TupleStream::with_range_using`].
    pub fn with_range(table: &'a Table, summary: &'a RelationSummary, rows: Range<u64>) -> Self {
        if rows.start == 0 {
            // Seeking to 0 is trivial; skip building the index.
            return Self::at_position(table, summary, 0, 0, 0, rows.end.min(summary.total_rows));
        }
        let index = summary.block_index();
        Self::with_range_using(table, summary, &index, rows)
    }

    /// Like [`TupleStream::with_range`], but seeks through a prebuilt
    /// [`PkBlockIndex`] (only used during construction, not retained).
    pub fn with_range_using(
        table: &'a Table,
        summary: &'a RelationSummary,
        index: &PkBlockIndex,
        rows: Range<u64>,
    ) -> Self {
        let total = summary.total_rows;
        let start = rows.start.min(total);
        let end = rows.end.clamp(start, total);
        let (row_index, offset) = match index.locate(start) {
            Some(pos) => (pos.block, pos.offset),
            // start == total: an exhausted stream.
            None => (summary.rows.len(), 0),
        };
        Self::at_position(table, summary, row_index, offset, start, end)
    }

    fn at_position(
        table: &'a Table,
        summary: &'a RelationSummary,
        row_index: usize,
        emitted_in_row: u64,
        start: u64,
        end: u64,
    ) -> Self {
        let pk = summary
            .pk_column
            .clone()
            .or_else(|| table.primary_key_column().map(str::to_string));
        let layout: Vec<ColumnSource> = table
            .columns()
            .iter()
            .map(|c| {
                if Some(c.name.as_str()) == pk.as_deref() {
                    ColumnSource::AutoNumber
                } else {
                    ColumnSource::Summary(c.name.clone())
                }
            })
            .collect();
        let auto_columns = layout
            .iter()
            .enumerate()
            .filter(|(_, src)| matches!(src, ColumnSource::AutoNumber))
            .map(|(i, _)| i)
            .collect();
        TupleStream {
            table,
            summary,
            row_index,
            emitted_in_row,
            next_pk: start,
            start,
            end,
            layout,
            auto_columns,
            template: Row::new(),
            template_block: NO_TEMPLATE,
        }
    }

    /// Rebuilds the per-block template row (one summary lookup + clone per
    /// block instead of per tuple).
    fn rebuild_template(&mut self) {
        let srow = &self.summary.rows[self.row_index];
        self.template = self
            .layout
            .iter()
            .map(|src| match src {
                ColumnSource::AutoNumber => Value::Integer(0),
                ColumnSource::Summary(name) => {
                    srow.values.get(name).cloned().unwrap_or(Value::Null)
                }
            })
            .collect();
        self.template_block = self.row_index;
    }

    /// The row range this stream produces (`0..total` for a full stream).
    pub fn range(&self) -> Range<u64> {
        self.start..self.end
    }

    /// Number of tuples remaining in the stream (correct for range streams:
    /// it counts down from the range length, not from the relation total).
    pub fn remaining(&self) -> u64 {
        self.end - self.next_pk
    }

    /// Number of tuples this stream has emitted so far (relative to the
    /// stream's own start, not to row 0).
    pub fn emitted(&self) -> u64 {
        self.next_pk - self.start
    }

    /// The table being generated.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Produces the next run of up to `max` tuples that share one summary
    /// block, advancing the stream past them.  Returns `None` when the
    /// stream is exhausted (or `max == 0`).
    ///
    /// Interleaving `next_block` with [`next`](Iterator::next) is valid: the
    /// block covers exactly the tuples `next` would have yielded, so
    /// `block.rows()` concatenated across calls is bit-identical to the
    /// row-at-a-time stream.  A block never spans a summary-row boundary and
    /// is clamped to the stream's range, so callers see range/shard splits
    /// as separate blocks with the same [`RowBlock::ordinal`].
    pub fn next_block(&mut self, max: u64) -> Option<RowBlock<'_>> {
        if max == 0 || self.next_pk >= self.end {
            return None;
        }
        // Advance past exhausted summary rows.
        while self.row_index < self.summary.rows.len()
            && self.emitted_in_row >= self.summary.rows[self.row_index].count
        {
            self.row_index += 1;
            self.emitted_in_row = 0;
        }
        if self.row_index >= self.summary.rows.len() {
            return None;
        }
        if self.template_block != self.row_index {
            self.rebuild_template();
        }
        let in_block = self.summary.rows[self.row_index].count - self.emitted_in_row;
        let n = in_block.min(self.end - self.next_pk).min(max);
        let start = self.next_pk;
        self.emitted_in_row += n;
        self.next_pk += n;
        Some(RowBlock {
            template: &self.template,
            auto_columns: &self.auto_columns,
            pk_range: start..start + n,
            ordinal: self.row_index,
        })
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.next_pk >= self.end {
            return None;
        }
        // Advance past exhausted summary rows.
        while self.row_index < self.summary.rows.len()
            && self.emitted_in_row >= self.summary.rows[self.row_index].count
        {
            self.row_index += 1;
            self.emitted_in_row = 0;
        }
        if self.row_index >= self.summary.rows.len() {
            return None;
        }
        if self.template_block != self.row_index {
            self.rebuild_template();
        }
        let mut row = self.template.clone();
        for &i in &self.auto_columns {
            row[i] = Value::Integer(self.next_pk as i64);
        }
        self.emitted_in_row += 1;
        self.next_pk += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::DataType;
    use std::collections::BTreeMap;

    fn table() -> Table {
        SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_manager_id", DataType::BigInt))
                    .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
            })
            .build()
            .unwrap()
            .table("item")
            .unwrap()
            .clone()
    }

    fn summary() -> RelationSummary {
        let mut s = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut v1 = BTreeMap::new();
        v1.insert("i_manager_id".to_string(), Value::Integer(40));
        v1.insert("i_category".to_string(), Value::str("Music"));
        s.push_row(917, v1);
        let mut v2 = BTreeMap::new();
        v2.insert("i_manager_id".to_string(), Value::Integer(91));
        v2.insert("i_category".to_string(), Value::str("Women"));
        s.push_row(21, v2);
        s
    }

    #[test]
    fn stream_expands_summary_rows_with_auto_numbered_pk() {
        let table = table();
        let summary = summary();
        let rows: Vec<Row> = TupleStream::new(&table, &summary).collect();
        assert_eq!(rows.len(), 938);
        // Table 1 pattern: the first tuple of each block starts at the
        // cumulative count.
        assert_eq!(rows[0][0], Value::Integer(0));
        assert_eq!(rows[0][1], Value::Integer(40));
        assert_eq!(rows[0][2], Value::str("Music"));
        assert_eq!(rows[916][0], Value::Integer(916));
        assert_eq!(rows[917][0], Value::Integer(917));
        assert_eq!(rows[917][1], Value::Integer(91));
        assert_eq!(rows[917][2], Value::str("Women"));
    }

    #[test]
    fn stream_accounting() {
        let table = table();
        let summary = summary();
        let mut stream = TupleStream::new(&table, &summary);
        assert_eq!(stream.remaining(), 938);
        assert_eq!(stream.size_hint(), (938, Some(938)));
        stream.next();
        stream.next();
        assert_eq!(stream.emitted(), 2);
        assert_eq!(stream.remaining(), 936);
        assert_eq!(stream.table().name, "item");
        assert_eq!(stream.range(), 0..938);
    }

    #[test]
    fn range_stream_matches_full_stream_slice() {
        let table = table();
        let summary = summary();
        let full: Vec<Row> = TupleStream::new(&table, &summary).collect();
        // Ranges inside one block, straddling the block boundary, and at the
        // extremes.
        for range in [0..0, 0..1, 100..200, 900..930, 916..918, 937..938, 0..938] {
            let slice: Vec<Row> =
                TupleStream::with_range(&table, &summary, range.clone()).collect();
            assert_eq!(
                slice,
                full[range.start as usize..range.end as usize],
                "range {range:?}"
            );
        }
    }

    #[test]
    fn range_stream_accounting_is_range_relative() {
        let table = table();
        let summary = summary();
        let mut stream = TupleStream::with_range(&table, &summary, 900..930);
        assert_eq!(stream.remaining(), 30);
        assert_eq!(stream.size_hint(), (30, Some(30)));
        assert_eq!(stream.emitted(), 0);
        let first = stream.next().unwrap();
        assert_eq!(first[0], Value::Integer(900));
        assert_eq!(stream.emitted(), 1);
        assert_eq!(stream.remaining(), 29);
        assert_eq!(stream.by_ref().count(), 29);
        assert_eq!(stream.remaining(), 0);
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn out_of_bounds_ranges_are_clamped() {
        let table = table();
        let summary = summary();
        assert_eq!(
            TupleStream::with_range(&table, &summary, 930..10_000).count(),
            8
        );
        assert_eq!(
            TupleStream::with_range(&table, &summary, 938..940).count(),
            0
        );
        assert_eq!(
            TupleStream::with_range(&table, &summary, 5_000..6_000).count(),
            0
        );
        let empty = TupleStream::with_range(&table, &summary, 10..10);
        assert_eq!(empty.remaining(), 0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn prebuilt_index_seek_matches_internal_seek() {
        let table = table();
        let summary = summary();
        let index = summary.block_index();
        let a: Vec<Row> =
            TupleStream::with_range_using(&table, &summary, &index, 910..920).collect();
        let b: Vec<Row> = TupleStream::with_range(&table, &summary, 910..920).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn blocks_expand_to_the_exact_row_stream() {
        let table = table();
        let summary = summary();
        let full: Vec<Row> = TupleStream::new(&table, &summary).collect();
        // Various chunk caps, including ones that split blocks mid-way.
        for max in [1, 7, 100, 917, 938, u64::MAX] {
            let mut stream = TupleStream::new(&table, &summary);
            let mut rows: Vec<Row> = Vec::new();
            let mut ordinals: Vec<usize> = Vec::new();
            while let Some(block) = stream.next_block(max) {
                assert!(!block.is_empty());
                assert_eq!(block.len(), block.rows().count() as u64);
                ordinals.push(block.ordinal());
                rows.extend(block.rows());
            }
            assert_eq!(rows, full, "max {max}");
            assert!(ordinals.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn blocks_never_span_summary_rows() {
        let table = table();
        let summary = summary();
        let mut stream = TupleStream::new(&table, &summary);
        let a = stream.next_block(u64::MAX).unwrap();
        assert_eq!((a.pk_range(), a.ordinal()), (0..917, 0));
        assert_eq!(a.template()[1], Value::Integer(40));
        assert_eq!(a.auto_columns(), &[0]);
        let b = stream.next_block(u64::MAX).unwrap();
        assert_eq!((b.pk_range(), b.ordinal()), (917..938, 1));
        assert!(stream.next_block(u64::MAX).is_none());
    }

    #[test]
    fn next_and_next_block_interleave() {
        let table = table();
        let summary = summary();
        let full: Vec<Row> = TupleStream::new(&table, &summary).collect();
        let mut stream = TupleStream::with_range(&table, &summary, 910..930);
        let mut rows: Vec<Row> = Vec::new();
        rows.push(stream.next().unwrap());
        rows.extend(stream.next_block(5).unwrap().rows());
        rows.push(stream.next().unwrap());
        while let Some(block) = stream.next_block(u64::MAX) {
            rows.extend(block.rows());
        }
        assert_eq!(rows, full[910..930]);
        assert_eq!(stream.remaining(), 0);
    }

    /// Drives every tuple of `stream`, in blocks of at most `max`, through
    /// one [`BlockTemplate`] with a trivial two-span renderer, checking each
    /// tuple's bytes against `i64` formatting.  Returns the tuple count, the
    /// pks at which the template re-rendered, and the `(first pk, ordinal)`
    /// of every block.
    fn drive_template(mut stream: TupleStream<'_>, max: u64) -> (u64, Vec<u64>, Vec<(u64, usize)>) {
        let mut template = BlockTemplate::default();
        let (mut rows, mut rendered, mut blocks) = (0, Vec::new(), Vec::new());
        while let Some(block) = stream.next_block(max) {
            blocks.push((block.pk_range().start, block.ordinal()));
            for pk in block.pk_range() {
                let bytes = template.row(&block, pk, |row| {
                    rendered.push(pk);
                    row.bytes.push(b'<');
                    row.pk();
                    row.bytes.push(b',');
                    row.pk();
                    row.bytes.push(b'>');
                });
                assert_eq!(bytes, format!("<{0},{0}>", pk as i64).as_bytes());
                rows += 1;
            }
        }
        (rows, rendered, blocks)
    }

    #[test]
    fn block_template_rerenders_only_on_its_rebuild_rule() {
        let table = table();
        let mut s = RelationSummary::new("item", Some("i_item_sk".to_string()));
        s.push_row(5, BTreeMap::new());
        s.push_row(100, BTreeMap::new());
        s.push_row(15, BTreeMap::new());
        let (rows, rendered, blocks) = drive_template(TupleStream::new(&table, &s), 50);
        assert_eq!(rows, 120);
        // Summary row 1 arrives as two consecutive blocks of one ordinal.
        assert_eq!(blocks, vec![(0, 0), (5, 1), (55, 1), (105, 2)]);
        // New ordinals at 0, 5 and 105; widths 1→2 at 10 and 2→3 at 100.
        // The split at 55 keeps ordinal and width, so it is only patched.
        assert_eq!(rendered, vec![0, 5, 10, 100, 105]);
    }

    #[test]
    fn block_template_never_patches_pks_above_i64_max() {
        let table = table();
        let head = i64::MAX as u64 - 2;
        let mut s = RelationSummary::new("item", Some("i_item_sk".to_string()));
        s.push_row(head, BTreeMap::new());
        s.push_row(6, BTreeMap::new());
        let stream = TupleStream::with_range(&table, &s, head - 2..head + 6);
        let (rows, rendered, _) = drive_template(stream, u64::MAX);
        assert_eq!(rows, 8);
        let max = i64::MAX as u64;
        assert_eq!(
            rendered,
            vec![max - 4, max - 2, max + 1, max + 2, max + 3],
            "every pk past i64::MAX must re-render"
        );
    }

    #[test]
    fn missing_summary_values_become_null() {
        let table = table();
        let mut s = RelationSummary::new("item", Some("i_item_sk".to_string()));
        s.push_row(2, BTreeMap::new());
        let rows: Vec<Row> = TupleStream::new(&table, &s).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[1][0], Value::Integer(1));
    }

    #[test]
    fn empty_summary_empty_stream() {
        let table = table();
        let s = RelationSummary::new("item", Some("i_item_sk".to_string()));
        assert_eq!(TupleStream::new(&table, &s).count(), 0);
        assert_eq!(TupleStream::with_range(&table, &s, 0..10).count(), 0);
    }
}
