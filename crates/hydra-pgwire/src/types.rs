//! Mapping between the catalog's value model and PostgreSQL's text-format
//! wire representation.
//!
//! Both the server's `DataRow` encoders and the differential tests go
//! through [`pg_text`], so "the pg answer equals the frame answer" is
//! checked against a single encoder, not two independently written ones.

use hydra_catalog::types::{DataType, Value};

/// PostgreSQL type OID for `boolean`.
pub const OID_BOOL: u32 = 16;
/// PostgreSQL type OID for `bigint`.
pub const OID_INT8: u32 = 20;
/// PostgreSQL type OID for `integer`.
pub const OID_INT4: u32 = 23;
/// PostgreSQL type OID for `text`.
pub const OID_TEXT: u32 = 25;
/// PostgreSQL type OID for `double precision`.
pub const OID_FLOAT8: u32 = 701;
/// PostgreSQL type OID for `date`.
pub const OID_DATE: u32 = 1082;

/// Map a catalog column type to its `(type oid, type length)` pair for a
/// `RowDescription` field.
pub fn pg_type_of(data_type: &DataType) -> (u32, i16) {
    match data_type {
        DataType::Boolean => (OID_BOOL, 1),
        DataType::Integer => (OID_INT4, 4),
        DataType::BigInt => (OID_INT8, 8),
        DataType::Double => (OID_FLOAT8, 8),
        DataType::Varchar(_) => (OID_TEXT, -1),
        DataType::Date => (OID_DATE, 4),
    }
}

/// Render a value in PostgreSQL text format; `None` is SQL NULL.
///
/// The column's declared type disambiguates the storage-level encoding:
/// `Date` columns store days-since-epoch as `Value::Integer` and are
/// rendered as ISO-8601 dates, everything else renders by value alone.
pub fn pg_text(value: &Value, data_type: Option<&DataType>) -> Option<String> {
    match value {
        Value::Null => None,
        Value::Boolean(b) => Some(if *b { "t" } else { "f" }.to_string()),
        Value::Integer(days) if matches!(data_type, Some(DataType::Date)) => {
            Some(days_to_iso_date(*days))
        }
        Value::Integer(i) => Some(i.to_string()),
        Value::Double(x) => Some(pg_float_text(*x)),
        Value::Varchar(s) => Some(s.clone()),
    }
}

/// PostgreSQL spells the non-finite doubles `NaN`, `Infinity` and
/// `-Infinity`; finite values use Rust's shortest round-trip formatting.
pub fn pg_float_text(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        if x > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else {
        format!("{x}")
    }
}

/// Convert days since the Unix epoch to an ISO-8601 `YYYY-MM-DD` string
/// using the standard civil-from-days algorithm (proleptic Gregorian).
pub fn days_to_iso_date(days: i64) -> String {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_and_friends() {
        assert_eq!(days_to_iso_date(0), "1970-01-01");
        assert_eq!(days_to_iso_date(1), "1970-01-02");
        assert_eq!(days_to_iso_date(-1), "1969-12-31");
        assert_eq!(days_to_iso_date(19_723), "2024-01-01");
        assert_eq!(days_to_iso_date(11_016), "2000-02-29");
    }

    #[test]
    fn float_spelling() {
        assert_eq!(pg_float_text(1.5), "1.5");
        assert_eq!(pg_float_text(f64::NAN), "NaN");
        assert_eq!(pg_float_text(f64::INFINITY), "Infinity");
        assert_eq!(pg_float_text(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn null_is_none_and_date_columns_render_iso() {
        assert_eq!(pg_text(&Value::Null, None), None);
        assert_eq!(
            pg_text(&Value::Integer(0), Some(&DataType::Date)),
            Some("1970-01-01".to_string())
        );
        assert_eq!(
            pg_text(&Value::Integer(0), Some(&DataType::BigInt)),
            Some("0".to_string())
        );
        assert_eq!(pg_text(&Value::Boolean(true), None), Some("t".to_string()));
    }
}
