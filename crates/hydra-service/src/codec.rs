//! The compact binary codec of the durable registry's WAL records (and of
//! the legacy snapshots it still reads): the serde data model written as
//! tag bytes, varints and raw little-endian words instead of JSON text.
//! [`to_bytes`] is a [`serde::Sink`] the value streams itself into;
//! [`from_bytes`] parses a payload into a [`serde::Content`] tree and
//! deserializes the value from it.
//!
//! A payload is one leading [`FORMAT`] byte, then one value.  Every value is
//! a tag byte followed by its body:
//!
//! | tag | value | body |
//! |---|---|---|
//! | `0` | `Null` | — |
//! | `1` / `2` | `Bool(false)` / `Bool(true)` | — |
//! | `3` | `I64` | zigzag LEB128 varint |
//! | `4` | `U64` | LEB128 varint |
//! | `5` | `U128` | 16 bytes, little-endian |
//! | `6` | `F64` | the 8 bytes of `to_bits`, little-endian (bit-exact: `-0.0` and NaN payloads survive) |
//! | `7` | `Str` | varint byte length, UTF-8 bytes |
//! | `8` | `Seq` | varint count, the items |
//! | `9` | `Map` | varint count, then per entry a key and a value |
//!
//! A map key is a varint `k` into a per-payload key table: `0` spells a new
//! key out (varint length, UTF-8 bytes) and appends it to the table; `k > 0`
//! repeats table entry `k - 1`.  Struct field names and relation names are
//! thus written once per payload, not once per occurrence.
//!
//! [`FORMAT`] is a UTF-8 continuation byte, so no JSON text can start with
//! it: a reader tells this codec's payloads from JSON ones by their first
//! byte alone.  Decoding never panics and never trusts a length: every count
//! and string length is checked against the bytes that remain **before**
//! anything is allocated, nesting is capped at [`MAX_DEPTH`] (the JSON
//! parser's cap), repeated keys may materialize at most
//! [`KEY_AMPLIFICATION`] times the payload's size, and unknown tags,
//! invalid UTF-8, key indices out of range and trailing bytes are errors
//! naming their offset.

use serde::{Content, Deserialize, Serialize, Sink};
use std::collections::HashMap;
use std::fmt;

/// The first byte of every payload this codec writes (format version 1).
pub const FORMAT: u8 = 0xB1;

/// How deep sequences and maps may nest — the same cap the JSON parser
/// enforces.  [`to_bytes`] of a deeper tree writes a payload
/// [`from_bytes`] refuses.
pub const MAX_DEPTH: usize = serde_json::MAX_DEPTH;

/// The most key bytes a payload may materialize, as a multiple of its own
/// length.  A key table entry can be repeated by a two-byte map entry, so
/// without this bound a payload of a megabyte could ask for hundreds of
/// gigabytes of repeated keys.  A registry snapshot materializes about
/// 0.8× its length.
pub const KEY_AMPLIFICATION: usize = 64;

/// The most items a sequence or map reserves room for before they are
/// read.  A `Content` is tens of bytes, so reserving for every item a count
/// claims would turn each byte of a payload into tens of bytes before a
/// single item had been read.
const RESERVE_MAX: usize = 1024;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_U128: u8 = 5;
const TAG_F64: u8 = 6;
const TAG_STR: u8 = 7;
const TAG_SEQ: u8 = 8;
const TAG_MAP: u8 = 9;

/// A payload that is not a valid encoding, or whose tree does not
/// deserialize as the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Encodes `value` as one binary payload.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut encoder = Encoder {
        out: vec![FORMAT],
        keys: HashMap::new(),
    };
    value.serialize(&mut encoder);
    encoder.out
}

/// Decodes one binary payload as a `T`.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    match bytes.first() {
        Some(&FORMAT) => {}
        Some(&other) => {
            return Err(CodecError(format!(
                "unknown payload format byte 0x{other:02x}"
            )))
        }
        None => return Err(CodecError("empty payload".to_string())),
    }
    let mut decoder = Decoder {
        bytes,
        pos: 1,
        depth: 0,
        keys: Vec::new(),
        key_budget: bytes.len().saturating_mul(KEY_AMPLIFICATION),
    };
    let content = decoder.value()?;
    if decoder.pos != bytes.len() {
        return Err(decoder.error("trailing bytes"));
    }
    T::deserialize_content(&content).map_err(|e| CodecError(e.0))
}

/// The codec's [`Sink`]: writes each data-model call as its tag and body.
struct Encoder {
    out: Vec<u8>,
    /// Key → its index in the payload's key table.
    keys: HashMap<String, u64>,
}

impl Sink for Encoder {
    fn null(&mut self) {
        self.out.push(TAG_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
    }

    fn i64(&mut self, v: i64) {
        self.out.push(TAG_I64);
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn u64(&mut self, v: u64) {
        self.out.push(TAG_U64);
        self.varint(v);
    }

    fn u128(&mut self, v: u128) {
        self.out.push(TAG_U128);
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.out.push(TAG_STR);
        self.text(v);
    }

    fn begin_seq(&mut self, len: usize) {
        self.out.push(TAG_SEQ);
        self.varint(len as u64);
    }

    fn end_seq(&mut self) {}

    fn begin_map(&mut self, len: usize) {
        self.out.push(TAG_MAP);
        self.varint(len as u64);
    }

    fn key(&mut self, key: &str) {
        if let Some(&index) = self.keys.get(key) {
            self.varint(index + 1);
        } else {
            self.keys.insert(key.to_string(), self.keys.len() as u64);
            self.varint(0);
            self.text(key);
        }
    }

    fn end_map(&mut self) {}
}

impl Encoder {
    fn text(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Sequences and maps open around `pos`.
    depth: usize,
    /// The key table, in order of first occurrence.
    keys: Vec<String>,
    /// Key bytes the rest of the payload may still materialize.
    key_budget: usize,
}

impl Decoder<'_> {
    fn error(&self, what: &str) -> CodecError {
        CodecError(format!("{what} at offset {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of payload"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let chunk = self.bytes[self.pos..]
            .first_chunk::<N>()
            .ok_or_else(|| self.error("unexpected end of payload"))?;
        self.pos += N;
        Ok(*chunk)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.error("varint overflows 64 bits"))
    }

    /// A count or length, refused unless the remaining bytes can hold that
    /// many items of at least `min_bytes` each.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_bytes => Ok(n),
            _ => Err(self.error(&format!(
                "count {n} exceeds the {} remaining bytes",
                self.remaining()
            ))),
        }
    }

    fn text(&mut self) -> Result<String, CodecError> {
        let len = self.count(1)?;
        let bytes = &self.bytes[self.pos..self.pos + len];
        let text = std::str::from_utf8(bytes).map_err(|e| self.error(&format!("{e}")))?;
        self.pos += len;
        Ok(text.to_string())
    }

    fn key(&mut self) -> Result<String, CodecError> {
        let at = self.pos;
        let index = self.varint()?;
        if index == 0 {
            let key = self.text()?;
            self.keys.push(key.clone());
            return Ok(key);
        }
        let key = usize::try_from(index - 1)
            .ok()
            .and_then(|i| self.keys.get(i))
            .ok_or_else(|| {
                CodecError(format!(
                    "key index {index} out of range ({} keys) at offset {at}",
                    self.keys.len()
                ))
            })?;
        self.key_budget = self
            .key_budget
            .checked_sub(key.len())
            .ok_or_else(|| CodecError(format!("repeated keys exceed the budget at offset {at}")))?;
        Ok(key.clone())
    }

    fn value(&mut self) -> Result<Content, CodecError> {
        let at = self.pos;
        Ok(match self.byte()? {
            TAG_NULL => Content::Null,
            TAG_FALSE => Content::Bool(false),
            TAG_TRUE => Content::Bool(true),
            TAG_I64 => {
                let v = self.varint()?;
                Content::I64((v >> 1) as i64 ^ -((v & 1) as i64))
            }
            TAG_U64 => Content::U64(self.varint()?),
            TAG_U128 => Content::U128(u128::from_le_bytes(self.take()?)),
            TAG_F64 => Content::F64(f64::from_bits(u64::from_le_bytes(self.take()?))),
            TAG_STR => Content::Str(self.text()?),
            tag @ (TAG_SEQ | TAG_MAP) => {
                if self.depth == MAX_DEPTH {
                    return Err(CodecError(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {at}"
                    )));
                }
                self.depth += 1;
                let nested = if tag == TAG_SEQ {
                    // Every item is at least its tag byte.
                    let n = self.count(1)?;
                    let mut items = Vec::with_capacity(n.min(RESERVE_MAX));
                    for _ in 0..n {
                        items.push(self.value()?);
                    }
                    Content::Seq(items)
                } else {
                    // Every entry is at least a key byte and a tag byte.
                    let n = self.count(2)?;
                    let mut entries = Vec::with_capacity(n.min(RESERVE_MAX));
                    for _ in 0..n {
                        let key = self.key()?;
                        entries.push((key, self.value()?));
                    }
                    Content::Map(entries)
                };
                self.depth -= 1;
                nested
            }
            tag => return Err(CodecError(format!("unknown tag {tag} at offset {at}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_catalog::types::Value;
    use hydra_query::aqp::{FkCondition, VolumetricConstraint};
    use hydra_query::predicate::{ColumnPredicate, CompareOp, TablePredicate};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Structural equality with floats compared by bits (NaN == NaN,
    /// `-0.0 != 0.0`), which `Content`'s `PartialEq` does not give.
    fn same(a: &Content, b: &Content) -> bool {
        match (a, b) {
            (Content::F64(x), Content::F64(y)) => x.to_bits() == y.to_bits(),
            (Content::Seq(x), Content::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
            }
            (Content::Map(x), Content::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
            }
            _ => a == b,
        }
    }

    fn decode(bytes: &[u8]) -> Result<Content, CodecError> {
        from_bytes::<Content>(bytes)
    }

    /// Arbitrary `Content` trees: every variant, the integer and float
    /// edge cases, empty strings and containers, keys drawn from a small
    /// pool (so maps repeat keys within and across maps), non-ASCII text,
    /// and now and then a chain nested right up to [`MAX_DEPTH`].
    struct Trees;

    fn bits(rng: &mut StdRng) -> u64 {
        rng.gen_range(0..=u64::MAX)
    }

    /// How deep `c`'s sequences and maps nest.
    fn depth_of(c: &Content) -> usize {
        match c {
            Content::Seq(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
            Content::Map(entries) => {
                1 + entries.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    impl Trees {
        fn text(rng: &mut StdRng) -> String {
            const ALPHABET: [&str; 8] = ["a", "z", "_", "0", "é", "表", "🦀", "\n"];
            let len = rng.gen_range(0usize..6);
            (0..len)
                .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())])
                .collect()
        }

        fn key(rng: &mut StdRng) -> String {
            const POOL: [&str; 6] = ["", "table", "rows", "signature", "k", "ключ"];
            if rng.gen_bool(0.8) {
                POOL[rng.gen_range(0usize..POOL.len())].to_string()
            } else {
                Self::text(rng)
            }
        }

        fn leaf(rng: &mut StdRng) -> Content {
            match rng.gen_range(0u32..12) {
                0 => Content::Null,
                1 => Content::Bool(rng.gen_bool(0.5)),
                2 => Content::I64([i64::MIN, i64::MAX, -1, 0][rng.gen_range(0usize..4)]),
                3 => Content::I64(bits(rng) as i64 >> rng.gen_range(0u32..64)),
                4 => Content::U64(bits(rng) | 1 << 63),
                5 => Content::U128(u128::from(u64::MAX) + 1 + u128::from(bits(rng))),
                6 => Content::U128(u128::MAX),
                7 => Content::F64(f64::from_bits(bits(rng))),
                8 => Content::F64([-0.0, f64::NAN, f64::INFINITY, 0.1][rng.gen_range(0usize..4)]),
                9 => Content::Str(String::new()),
                _ => Content::Str(Self::text(rng)),
            }
        }

        fn tree(rng: &mut StdRng, depth: usize) -> Content {
            if depth == 0 || rng.gen_bool(0.4) {
                return Self::leaf(rng);
            }
            let len = rng.gen_range(0usize..5);
            if rng.gen_bool(0.5) {
                Content::Seq((0..len).map(|_| Self::tree(rng, depth - 1)).collect())
            } else {
                Content::Map(
                    (0..len)
                        .map(|_| (Self::key(rng), Self::tree(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    impl Strategy for Trees {
        type Value = Content;

        fn sample(&self, rng: &mut StdRng) -> Content {
            let mut tree = Self::tree(rng, 5);
            if rng.gen_bool(0.1) {
                // Wrap it in a chain that ends exactly at the cap.
                for _ in depth_of(&tree)..MAX_DEPTH {
                    tree = if rng.gen_bool(0.5) {
                        Content::Seq(vec![tree])
                    } else {
                        Content::Map(vec![(Self::key(rng), tree)])
                    };
                }
            }
            tree
        }
    }

    fn nested(depth: usize) -> Content {
        (0..depth).fold(Content::Null, |inner, _| Content::Seq(vec![inner]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn codec_round_trips_arbitrary_trees(tree in Trees) {
            let bytes = to_bytes(&tree);
            prop_assert_eq!(bytes[0], FORMAT);
            let back = decode(&bytes).expect("a written payload decodes");
            prop_assert!(same(&tree, &back), "{tree:?} came back as {back:?}");
        }

        #[test]
        fn codec_rejects_every_strict_prefix(tree in Trees) {
            let bytes = to_bytes(&tree);
            for len in 0..bytes.len() {
                prop_assert!(decode(&bytes[..len]).is_err(), "prefix {len} of {tree:?}");
            }
        }

        #[test]
        fn codec_never_panics_on_arbitrary_bytes(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..64),
            tagged in any::<bool>(),
        ) {
            if tagged && !bytes.is_empty() {
                bytes[0] = FORMAT;
            }
            let _ = decode(&bytes);
        }

        #[test]
        fn codec_never_panics_on_corrupted_payloads(
            tree in Trees,
            (at, flip) in (0usize..1 << 16, 1u8..=255),
        ) {
            let mut bytes = to_bytes(&tree);
            let at = at % bytes.len();
            bytes[at] ^= flip;
            let _ = decode(&bytes);
            bytes.truncate(at);
            prop_assert!(decode(&bytes).is_err());
        }

        #[test]
        fn codec_refuses_counts_beyond_the_payload_before_allocating(
            tag in container_tag(),
            shift in 0u32..64,
            slack in 0usize..4,
        ) {
            let mut encoder = Encoder { out: vec![FORMAT, tag], keys: HashMap::new() };
            let count = (1u64 << shift).max(slack as u64 + 1);
            encoder.varint(count);
            encoder.out.extend(std::iter::repeat_n(TAG_NULL, slack));
            let err = decode(&encoder.out).expect_err("a count past the end");
            prop_assert!(err.0.contains(&format!("count {count} exceeds")), "{err}");
        }

        #[test]
        fn codec_names_an_unknown_format_byte(first in any::<u8>()) {
            if first != FORMAT {
                let err = decode(&[first, TAG_NULL]).expect_err("not this codec's");
                prop_assert_eq!(err.0, format!("unknown payload format byte 0x{first:02x}"));
            }
        }
    }

    /// `hash_into`'s digest and the digest of `to_string`'s text, by
    /// `DefaultHasher`.
    fn digests<T: Serialize + ?Sized>(value: &T) -> (u64, u64) {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut streamed = DefaultHasher::new();
        serde_json::hash_into(value, &mut streamed);
        let mut text = DefaultHasher::new();
        serde_json::to_string(value).unwrap().hash(&mut text);
        (streamed.finish(), text.finish())
    }

    /// Arbitrary per-relation constraint lists: nested FK conditions,
    /// every `Value` variant (any float bits, text needing escapes) and
    /// cardinalities past `i64::MAX`.
    struct ConstraintLists;

    impl ConstraintLists {
        fn predicate(rng: &mut StdRng) -> TablePredicate {
            const OPS: [CompareOp; 5] = [
                CompareOp::Eq,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ];
            let conjuncts = (0..rng.gen_range(0usize..4))
                .map(|_| {
                    let value = match rng.gen_range(0u32..5) {
                        0 => Value::Null,
                        1 => Value::Boolean(rng.gen_bool(0.5)),
                        2 => Value::Integer(bits(rng) as i64),
                        3 => Value::Double(f64::from_bits(bits(rng))),
                        _ => Value::Varchar(Trees::text(rng)),
                    };
                    ColumnPredicate::new(Trees::key(rng), OPS[rng.gen_range(0usize..5)], value)
                })
                .collect();
            TablePredicate::from_conjuncts(conjuncts)
        }

        fn fk(rng: &mut StdRng, depth: usize) -> FkCondition {
            let nested = if depth == 0 {
                0
            } else {
                rng.gen_range(0usize..3)
            };
            FkCondition {
                fk_column: Trees::key(rng),
                dim_table: Trees::text(rng),
                dim_predicate: Self::predicate(rng),
                nested: (0..nested).map(|_| Self::fk(rng, depth - 1)).collect(),
            }
        }
    }

    impl Strategy for ConstraintLists {
        type Value = Vec<VolumetricConstraint>;

        fn sample(&self, rng: &mut StdRng) -> Vec<VolumetricConstraint> {
            (0..rng.gen_range(0usize..6))
                .map(|_| VolumetricConstraint {
                    table: Trees::key(rng),
                    predicate: Self::predicate(rng),
                    fk_conditions: (0..rng.gen_range(0usize..3))
                        .map(|_| Self::fk(rng, 2))
                        .collect(),
                    cardinality: bits(rng) >> rng.gen_range(0u32..64),
                    label: Trees::text(rng),
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sink_identity_hashes_trees_like_their_text(tree in Trees) {
            let (streamed, text) = digests(&tree);
            prop_assert_eq!(streamed, text);
        }

        #[test]
        fn sink_identity_hashes_constraint_lists_like_their_text(list in ConstraintLists) {
            let (streamed, text) = digests(list.as_slice());
            prop_assert_eq!(streamed, text);
            // The tree the text parses back into hashes alike too.
            let tree: Content = serde_json::from_str(&serde_json::to_string(&list).unwrap())
                .expect("written JSON parses");
            prop_assert_eq!(digests(&tree), (streamed, text));
        }
    }

    /// The two container tags, as a strategy.
    fn container_tag() -> impl Strategy<Value = u8> {
        any::<bool>().prop_map(|seq| if seq { TAG_SEQ } else { TAG_MAP })
    }

    #[test]
    fn codec_writes_the_documented_layout() {
        let tree = Content::Seq(vec![
            Content::Map(vec![
                ("ab".to_string(), Content::I64(-2)),
                ("c".to_string(), Content::Str("é".to_string())),
            ]),
            Content::Map(vec![("ab".to_string(), Content::U64(300))]),
            Content::F64(-0.0),
            Content::Bool(true),
            Content::Null,
        ]);
        let mut expected = vec![FORMAT, TAG_SEQ, 5];
        expected.extend([TAG_MAP, 2, 0, 2, b'a', b'b', TAG_I64, 3]);
        expected.extend([0, 1, b'c', TAG_STR, 2, 0xC3, 0xA9]);
        expected.extend([TAG_MAP, 1, 1, TAG_U64, 0xAC, 0x02]);
        expected.push(TAG_F64);
        expected.extend((-0.0f64).to_bits().to_le_bytes());
        expected.extend([TAG_TRUE, TAG_NULL]);
        assert_eq!(to_bytes(&tree), expected);
        assert!(same(&decode(&expected).unwrap(), &tree));
    }

    #[test]
    fn codec_nesting_is_capped_at_max_depth() {
        let deepest = nested(MAX_DEPTH);
        assert!(same(&decode(&to_bytes(&deepest)).unwrap(), &deepest));
        let err = decode(&to_bytes(&nested(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!(err.0, "nesting deeper than 128 at offset 257");
    }

    #[test]
    fn codec_malformed_payloads_name_their_fault() {
        let fault = |bytes: &[u8]| decode(bytes).unwrap_err().0;
        assert_eq!(fault(&[]), "empty payload");
        assert_eq!(fault(&[FORMAT]), "unexpected end of payload at offset 1");
        assert_eq!(fault(&[FORMAT, 10]), "unknown tag 10 at offset 1");
        assert_eq!(fault(&[FORMAT, TAG_NULL, 0]), "trailing bytes at offset 2");
        assert!(fault(&[FORMAT, TAG_STR, 2, 0xC3, 0x28]).starts_with("invalid utf-8"));
        assert_eq!(
            fault(&[FORMAT, TAG_MAP, 1, 2, TAG_NULL]),
            "key index 2 out of range (0 keys) at offset 3"
        );
        let overlong = [
            FORMAT, TAG_U64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2,
        ];
        assert_eq!(fault(&overlong), "varint overflows 64 bits at offset 12");
        // u64::MAX is the widest varint that decodes.
        assert_eq!(
            decode(&to_bytes(&Content::U64(u64::MAX))).unwrap(),
            Content::U64(u64::MAX)
        );
        // A value of the wrong shape is a deserialization error.
        let err = from_bytes::<u32>(&to_bytes("text")).unwrap_err();
        assert_eq!(err.0, "expected integer while deserializing string");
    }

    #[test]
    fn codec_bounds_the_bytes_repeated_keys_materialize() {
        // One 1 000-byte key, then 2 000 entries repeating it: 2 MB of keys
        // out of a 5 KB payload.
        let key = "k".repeat(1000);
        let entries = (0..2000).map(|_| (key.clone(), Content::Null)).collect();
        let err = decode(&to_bytes(&Content::Map(entries))).unwrap_err();
        assert!(
            err.0.starts_with("repeated keys exceed the budget"),
            "{err}"
        );
    }
}
