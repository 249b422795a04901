//! `DataRow` encoding for `SELECT *` scans: the relation's
//! `RowDescription` and the per-block [`DataRowTemplate`] that turns each
//! regenerated tuple into a memcpy plus a pk digit patch — the pg-wire
//! sibling of `hydra-service`'s `BatchEncoder`.

use crate::codec::{encode_backend, BackendMessage, FieldDescription};
use crate::types::{pg_text, pg_type_of};
use hydra_catalog::schema::Table;
use hydra_catalog::types::DataType;
use hydra_datagen::stream::{dec_width, write_digits, RowBlock};

/// Sentinel ordinal for "no template cached yet".
const NO_BLOCK: usize = usize::MAX;

/// The `RowDescription` of a `SELECT *` over `table`: every column under
/// its declared name and wire type.
pub(crate) fn row_description(table: &Table) -> BackendMessage {
    let fields = table
        .columns()
        .iter()
        .map(|c| {
            let (type_oid, type_len) = pg_type_of(&c.data_type);
            FieldDescription {
                name: c.name.clone(),
                type_oid,
                type_len,
            }
        })
        .collect();
    BackendMessage::RowDescription { fields }
}

/// Cached wire encoding of one summary block's `DataRow`: the constant
/// columns are rendered once per (block, pk digit width), so emitting a
/// tuple is one memcpy of the cache plus patching the pk digit spans.
#[derive(Debug)]
pub(crate) struct DataRowTemplate {
    /// Which block ordinal `scratch` encodes (`NO_BLOCK` = none yet).
    ordinal: usize,
    /// One complete `DataRow` message, current pk's digits in the spans.
    scratch: Vec<u8>,
    /// Offsets in `scratch` where each auto column's digit span starts.
    spans: Vec<usize>,
    /// Digit width of the pk currently encoded in the spans.
    width: usize,
}

impl DataRowTemplate {
    pub(crate) fn new() -> Self {
        DataRowTemplate {
            ordinal: NO_BLOCK,
            scratch: Vec::new(),
            spans: Vec::new(),
            width: 0,
        }
    }

    /// Appends one `DataRow` message per tuple of `block` to `out`,
    /// byte-identical to [`encode_backend`] of each materialized row.
    pub(crate) fn append_block(
        &mut self,
        block: &RowBlock<'_>,
        column_types: &[DataType],
        out: &mut Vec<u8>,
    ) {
        if Self::block_eligible(block, column_types) {
            for pk in block.pk_range() {
                out.extend_from_slice(self.row_bytes(block, pk, column_types));
            }
        } else {
            for row in block.rows() {
                let values = row
                    .iter()
                    .enumerate()
                    .map(|(i, v)| pg_text(v, column_types.get(i)).map(String::into_bytes))
                    .collect();
                encode_backend(&BackendMessage::DataRow { values }, out);
            }
        }
    }

    /// Whether `block` may go through the template at all: every auto column
    /// must render as the pk's plain decimal digits.  A `Date`-typed auto
    /// column renders as an ISO date instead, so those blocks take the
    /// row-at-a-time path.
    fn block_eligible(block: &RowBlock<'_>, column_types: &[DataType]) -> bool {
        block
            .auto_columns()
            .iter()
            .all(|&i| !matches!(column_types.get(i), Some(DataType::Date)))
    }

    /// The complete `DataRow` message for the block's tuple at `pk`.
    fn row_bytes(&mut self, block: &RowBlock<'_>, pk: u64, column_types: &[DataType]) -> &[u8] {
        let width = dec_width(pk);
        // A pk above i64::MAX renders with a sign through the `as i64` cast;
        // don't digit-patch those (they cannot occur for real relations).
        if self.ordinal != block.ordinal() || width != self.width || pk > i64::MAX as u64 {
            self.rebuild(block, pk, column_types);
        } else {
            for &span in &self.spans {
                write_digits(pk, &mut self.scratch[span..span + width]);
            }
        }
        &self.scratch
    }

    /// Re-encodes the message for `block` at `pk`'s digit width.
    fn rebuild(&mut self, block: &RowBlock<'_>, pk: u64, column_types: &[DataType]) {
        self.scratch.clear();
        self.spans.clear();
        let digits = (pk as i64).to_string();
        self.width = digits.len();
        let auto = block.auto_columns();
        self.scratch.push(b'D');
        self.scratch.extend_from_slice(&[0u8; 4]); // length, patched below
        let ncols = block.template().len() as i16;
        self.scratch.extend_from_slice(&ncols.to_be_bytes());
        for (i, value) in block.template().iter().enumerate() {
            if auto.contains(&i) {
                self.scratch
                    .extend_from_slice(&(digits.len() as i32).to_be_bytes());
                self.spans.push(self.scratch.len());
                self.scratch.extend_from_slice(digits.as_bytes());
            } else {
                match pg_text(value, column_types.get(i)) {
                    None => self.scratch.extend_from_slice(&(-1i32).to_be_bytes()),
                    Some(text) => {
                        self.scratch
                            .extend_from_slice(&(text.len() as i32).to_be_bytes());
                        self.scratch.extend_from_slice(text.as_bytes());
                    }
                }
            }
        }
        let len = (self.scratch.len() - 1) as i32;
        self.scratch[1..5].copy_from_slice(&len.to_be_bytes());
        self.ordinal = block.ordinal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_backend, Decoded};
    use hydra_catalog::schema::{ColumnBuilder, SchemaBuilder};
    use hydra_catalog::types::Value;
    use hydra_datagen::stream::TupleStream;
    use hydra_summary::summary::RelationSummary;
    use std::collections::BTreeMap;

    fn column_types(table: &Table) -> Vec<DataType> {
        table
            .columns()
            .iter()
            .map(|c| c.data_type.clone())
            .collect()
    }

    /// Every row of `summary` through [`DataRowTemplate::append_block`].
    fn encode_blocks(table: &Table, summary: &RelationSummary) -> Vec<u8> {
        let types = column_types(table);
        let mut template = DataRowTemplate::new();
        let mut out = Vec::new();
        let mut stream = TupleStream::new(table, summary);
        while let Some(block) = stream.next_block(u64::MAX) {
            template.append_block(&block, &types, &mut out);
        }
        out
    }

    /// The reference: every row through the per-row `DataRow` encoder.
    fn encode_rows(table: &Table, summary: &RelationSummary) -> Vec<u8> {
        let types = column_types(table);
        let mut out = Vec::new();
        for row in TupleStream::new(table, summary) {
            let values = row
                .iter()
                .enumerate()
                .map(|(i, v)| pg_text(v, types.get(i)).map(String::into_bytes))
                .collect();
            encode_backend(&BackendMessage::DataRow { values }, &mut out);
        }
        out
    }

    #[test]
    fn emits_description_then_typed_rows() {
        let table = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", DataType::BigInt).primary_key())
                    .column(ColumnBuilder::new("i_sold_date", DataType::Date))
                    .column(ColumnBuilder::new("i_category", DataType::Varchar(None)))
            })
            .build()
            .unwrap()
            .table("item")
            .unwrap()
            .clone();
        let BackendMessage::RowDescription { fields } = row_description(&table) else {
            panic!("expected RowDescription");
        };
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].type_oid, crate::types::OID_INT8);
        assert_eq!(fields[1].type_oid, crate::types::OID_DATE);
        assert_eq!(fields[2].type_oid, crate::types::OID_TEXT);

        let mut summary = RelationSummary::new("item", Some("i_item_sk".to_string()));
        let mut values = BTreeMap::new();
        values.insert("i_sold_date".to_string(), Value::Integer(0));
        values.insert("i_category".to_string(), Value::Null);
        summary.push_row(8, values);
        let out = encode_blocks(&table, &summary);
        let mut rest = &out[..];
        let mut last = None;
        while !rest.is_empty() {
            let Ok(Decoded::Complete { message, consumed }) = decode_backend(rest) else {
                panic!("expected DataRow");
            };
            let BackendMessage::DataRow { values } = message else {
                panic!("expected DataRow, got {message:?}");
            };
            last = Some(values);
            rest = &rest[consumed..];
        }
        let values = last.expect("eight rows");
        assert_eq!(values[0].as_deref(), Some(b"7".as_slice()));
        assert_eq!(values[1].as_deref(), Some(b"1970-01-01".as_slice()));
        assert_eq!(values[2], None);
    }

    /// Two blocks straddling the 2→3 pk digit-width boundary, with a quoted
    /// varchar, a double, and a NULL — the shapes the template must encode.
    fn blocky_fixture(pk_type: DataType) -> (Table, RelationSummary) {
        let table = SchemaBuilder::new("db")
            .table("item", |t| {
                t.column(ColumnBuilder::new("i_item_sk", pk_type.clone()).primary_key())
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
    fn template_datarows_match_the_per_row_encoder_byte_for_byte() {
        let (table, summary) = blocky_fixture(DataType::BigInt);
        let reference = encode_rows(&table, &summary);
        assert!(!reference.is_empty());
        assert_eq!(reference, encode_blocks(&table, &summary));
    }

    #[test]
    fn date_typed_auto_columns_fall_back_to_the_row_path() {
        // A Date-typed pk renders ISO dates, which the digit template cannot
        // patch; append_block must detect that and still match the row path.
        let (table, summary) = blocky_fixture(DataType::Date);
        let reference = encode_rows(&table, &summary);
        assert_eq!(reference, encode_blocks(&table, &summary));
        assert!(
            reference.windows(10).any(|w| w == b"1970-04-11"),
            "pk 100 must render as an ISO date"
        );
    }
}
