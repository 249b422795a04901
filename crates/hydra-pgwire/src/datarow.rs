//! `DataRow` encoding for `SELECT *` scans: the relation's
//! `RowDescription` and the per-block [`DataRowTemplate`] that turns each
//! regenerated tuple into a memcpy plus a pk digit patch — the pg-wire
//! sibling of `hydra-service`'s `BatchEncoder`.

use crate::codec::{encode_backend, BackendMessage, FieldDescription};
use crate::types::{pg_text, pg_type_of};
use hydra_catalog::schema::Table;
use hydra_catalog::types::DataType;
use hydra_datagen::stream::{BlockTemplate, RowBlock, TemplateRow};

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
    template: BlockTemplate,
}

impl DataRowTemplate {
    pub(crate) fn new() -> Self {
        DataRowTemplate {
            template: BlockTemplate::default(),
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
        // Every auto column must render as the pk's plain decimal digits; a
        // `Date`-typed one renders an ISO date, so its block takes the
        // row-at-a-time path.
        let plain_digits = |&i: &usize| !matches!(column_types.get(i), Some(DataType::Date));
        if block.auto_columns().iter().all(plain_digits) {
            for pk in block.pk_range() {
                let row = self
                    .template
                    .row(block, pk, |row| render_datarow(block, column_types, row));
                out.extend_from_slice(row);
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
}

/// Renders `block`'s tuple as one complete `DataRow` message.
fn render_datarow(block: &RowBlock<'_>, column_types: &[DataType], row: &mut TemplateRow<'_>) {
    row.bytes.push(b'D');
    row.bytes.extend_from_slice(&[0u8; 4]); // length, patched below
    let ncols = block.template().len() as i16;
    row.bytes.extend_from_slice(&ncols.to_be_bytes());
    for (i, value) in block.template().iter().enumerate() {
        if block.auto_columns().contains(&i) {
            row.bytes
                .extend_from_slice(&(row.digits.len() as i32).to_be_bytes());
            row.pk();
        } else {
            match pg_text(value, column_types.get(i)) {
                None => row.bytes.extend_from_slice(&(-1i32).to_be_bytes()),
                Some(text) => {
                    row.bytes
                        .extend_from_slice(&(text.len() as i32).to_be_bytes());
                    row.bytes.extend_from_slice(text.as_bytes());
                }
            }
        }
    }
    let len = (row.bytes.len() - 1) as i32;
    row.bytes[1..5].copy_from_slice(&len.to_be_bytes());
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
