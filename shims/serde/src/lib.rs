//! Offline stand-in for the `serde` crate.
//!
//! The real serde is unavailable in this build environment (no network, no
//! vendored registry), so this crate provides the small slice of its API the
//! workspace actually uses: `Serialize` / `Deserialize` traits, derive macros
//! (re-exported from the sibling `serde_derive` proc-macro crate), and enough
//! std-type impls to round-trip every type in the HYDRA transfer path.
//!
//! A [`Serialize`] value writes the serde data model straight into a
//! [`Sink`] — the JSON writer, the WAL codec or a hashing writer — so
//! encoding builds no intermediate tree.  Decoding goes the other way
//! through an explicit data-model tree ([`Content`]): a format parses its
//! input into one and [`Deserialize`] reads the value back out of it.  The
//! JSON encoding matches real serde's externally-tagged defaults (unit enum
//! variants as strings, newtype variants as one-entry maps, structs as maps)
//! so serialized artifacts look the way readers of the paper's demo expect.
//!
//! Unknown map entries are ignored during deserialization, exactly like real
//! serde without `deny_unknown_fields` — the transfer package's forward
//! compatibility tests rely on this.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// The serde data model as a tree: what the decoders parse into, and what
/// [`Deserialize`] reads.  A tree is also a [`Serialize`] value.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON null / `Option::None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value does not fit `i64`).
    U64(u64),
    /// Very large unsigned integer (region volumes can reach `u128::MAX`).
    U128(u128),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (JSON array).
    Seq(Vec<Content>),
    /// Map with string keys, in insertion order (JSON object).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Map accessor used by derived `Deserialize` impls.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Sequence accessor used by derived `Deserialize` impls.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// A short name of the content class, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) | Content::U128(_) => "integer",
            Content::F64(_) => "number",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// A "expected X while deserializing Y" error.
    pub fn expected(what: &str, ty: &str) -> Error {
        Error(format!("expected {what} while deserializing {ty}"))
    }

    /// A custom message.
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A writer of the serde data model: what a [`Serialize`] value streams
/// itself into.  The JSON writer (`serde_json`), the WAL codec
/// (`hydra_service::codec`) and the hashing writer
/// (`serde_json::hash_into`) are sinks.
///
/// A value is one scalar call or one container.  A sequence is
/// `begin_seq(len)`, `len` values, `end_seq()`; a map is `begin_map(len)`,
/// `len` times a [`Sink::key`] followed by a value, `end_map()`.  `len` is
/// the exact count: a sink may write it before the items.
pub trait Sink {
    /// JSON null / `Option::None`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// An integer; the impls here write every integer that fits `i64`
    /// through this call.
    fn i64(&mut self, v: i64);
    /// An integer past `i64::MAX`.
    fn u64(&mut self, v: u64);
    /// An integer past `u64::MAX`.
    fn u128(&mut self, v: u128);
    /// A float.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens a sequence of `len` values.
    fn begin_seq(&mut self, len: usize);
    /// Closes the innermost sequence.
    fn end_seq(&mut self);
    /// Opens a map of `len` entries.
    fn begin_map(&mut self, len: usize);
    /// The key of the next map entry; its value follows.
    fn key(&mut self, key: &str);
    /// Closes the innermost map.
    fn end_map(&mut self);

    /// One map entry: `key`, then `value`.
    fn entry<T: Serialize + ?Sized>(&mut self, key: &str, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.serialize(self);
    }

    /// A sequence of `items`.
    fn seq<'a, T: Serialize + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>)
    where
        Self: Sized,
    {
        self.begin_seq(items.len());
        for item in items {
            item.serialize(self);
        }
        self.end_seq();
    }
}

/// A value that can be written as the serde data model.
pub trait Serialize {
    /// Writes `self` into `sink`.
    fn serialize(&self, sink: &mut impl Sink);
}

/// A value that can be reconstructed from the serde data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a data-model tree.
    fn deserialize_content(content: &Content) -> Result<Self, Error>;

    /// The value of a struct field absent from its map: `None` (an error)
    /// for every type but `Option`, which reads as `Some(None)` — real
    /// serde's missing-field rule.  Probing `Content::Null` instead would
    /// turn a missing float into NaN.
    fn missing_field() -> Option<Self> {
        None
    }
}

/// Looks up and deserializes one struct field from a map, ignoring unknown
/// entries (forward compatibility) and reading a missing `Option` field as
/// `None` (so an optional field can be added without a second decoder).
/// Used by derived impls.
pub fn field<T: Deserialize>(
    entries: &[(String, Content)],
    name: &str,
    ty: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize_content(v),
        None => T::missing_field()
            .ok_or_else(|| Error(format!("missing field `{name}` while deserializing {ty}"))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, sink: &mut impl Sink) {
                sink.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(c: &Content) -> Result<Self, Error> {
                match c {
                    Content::I64(v) => <$t>::try_from(*v)
                        .map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    Content::U64(v) => <$t>::try_from(*v)
                        .map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    other => Err(Error::expected("integer", other.kind())),
                }
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, sink: &mut impl Sink) {
                let v = *self as u64;
                if v <= i64::MAX as u64 {
                    sink.i64(v as i64);
                } else {
                    sink.u64(v);
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(c: &Content) -> Result<Self, Error> {
                match c {
                    Content::I64(v) => <$t>::try_from(*v)
                        .map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    Content::U64(v) => <$t>::try_from(*v)
                        .map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    Content::U128(v) => <$t>::try_from(*v)
                        .map_err(|_| Error::custom(format!("{v} out of range for {}", stringify!($t)))),
                    other => Err(Error::expected("integer", other.kind())),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for u128 {
    fn serialize(&self, sink: &mut impl Sink) {
        if *self <= i64::MAX as u128 {
            sink.i64(*self as i64);
        } else if *self <= u64::MAX as u128 {
            sink.u64(*self as u64);
        } else {
            sink.u128(*self);
        }
    }
}

impl Deserialize for u128 {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::I64(v) => {
                u128::try_from(*v).map_err(|_| Error::custom(format!("{v} out of range for u128")))
            }
            Content::U64(v) => Ok(u128::from(*v)),
            Content::U128(v) => Ok(*v),
            other => Err(Error::expected("integer", other.kind())),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other.kind())),
        }
    }
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, sink: &mut impl Sink) {
                sink.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_content(c: &Content) -> Result<Self, Error> {
                match c {
                    Content::F64(v) => Ok(*v as $t),
                    Content::I64(v) => Ok(*v as $t),
                    Content::U64(v) => Ok(*v as $t),
                    Content::U128(v) => Ok(*v as $t),
                    // Real serde_json writes non-finite floats as null.
                    Content::Null => Ok(<$t>::NAN),
                    other => Err(Error::expected("number", other.kind())),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.str(self);
    }
}

impl Deserialize for String {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other.kind())),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, sink: &mut impl Sink) {
        (**self).serialize(sink);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, sink: &mut impl Sink) {
        match self {
            Some(v) => v.serialize(sink),
            None => sink.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(None),
            other => T::deserialize_content(other).map(Some),
        }
    }

    fn missing_field() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, sink: &mut impl Sink) {
        self.as_slice().serialize(sink);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Seq(items) => items.iter().map(T::deserialize_content).collect(),
            other => Err(Error::expected("sequence", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.seq(self.iter());
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, sink: &mut impl Sink) {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                sink.begin_seq(LEN);
                $(self.$idx.serialize(sink);)+
                sink.end_seq();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_content(c: &Content) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = c.as_seq().ok_or_else(|| Error::expected("sequence", c.kind()))?;
                if items.len() != LEN {
                    return Err(Error::custom(format!(
                        "expected a tuple of {LEN} elements, got {}",
                        items.len()
                    )));
                }
                Ok(($($name::deserialize_content(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.begin_map(self.len());
        for (k, v) in self {
            sink.entry(k, v);
        }
        sink.end_map();
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        let entries = c.as_map().ok_or_else(|| Error::expected("map", c.kind()))?;
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize_content(v)?)))
            .collect()
    }
}

impl Serialize for Duration {
    fn serialize(&self, sink: &mut impl Sink) {
        sink.begin_map(2);
        sink.entry("secs", &self.as_secs());
        sink.entry("nanos", &self.subsec_nanos());
        sink.end_map();
    }
}

impl Deserialize for Duration {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        let entries = c.as_map().ok_or_else(|| Error::expected("map", c.kind()))?;
        let secs: u64 = field(entries, "secs", "Duration")?;
        let nanos: u32 = field(entries, "nanos", "Duration")?;
        Ok(Duration::new(secs, nanos))
    }
}

/// A tree writes itself as the calls it stands for.
impl Serialize for Content {
    fn serialize(&self, sink: &mut impl Sink) {
        match self {
            Content::Null => sink.null(),
            Content::Bool(v) => sink.bool(*v),
            Content::I64(v) => sink.i64(*v),
            Content::U64(v) => sink.u64(*v),
            Content::U128(v) => sink.u128(*v),
            Content::F64(v) => sink.f64(*v),
            Content::Str(v) => sink.str(v),
            Content::Seq(items) => sink.seq(items.iter()),
            Content::Map(entries) => {
                sink.begin_map(entries.len());
                for (k, v) in entries {
                    sink.entry(k, v);
                }
                sink.end_map();
            }
        }
    }
}

impl Deserialize for Content {
    fn deserialize_content(c: &Content) -> Result<Self, Error> {
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<(String, Content)> {
        vec![("present".to_string(), Content::I64(7))]
    }

    #[test]
    fn a_missing_option_field_reads_as_none() {
        let present: Option<u32> = field(&entries(), "present", "T").unwrap();
        assert_eq!(present, Some(7));
        let missing: Option<u32> = field(&entries(), "absent", "T").unwrap();
        assert_eq!(missing, None);
        let nested: Option<Option<u32>> = field(&entries(), "absent", "T").unwrap();
        assert_eq!(nested, None);
    }

    #[test]
    fn a_missing_non_option_field_is_an_error() {
        let err = field::<u32>(&entries(), "absent", "T").unwrap_err();
        assert_eq!(err.0, "missing field `absent` while deserializing T");
        // Floats read `null` as NaN, yet a missing float is still an error.
        assert!(field::<f64>(&entries(), "absent", "T").is_err());
        assert!(field::<String>(&entries(), "absent", "T").is_err());
        assert!(field::<Vec<u8>>(&entries(), "absent", "T").is_err());
    }
}
