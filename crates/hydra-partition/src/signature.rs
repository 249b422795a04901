//! Constraint-membership signatures.
//!
//! A region of the attribute space is identified by *which constraints cover
//! it*.  The [`Signature`] is that membership set, stored as a growable
//! bitset so it can serve as a hash / ordering key when regions are grouped.
//! A [`SignatureRef`] borrows the same set from a partition's fixed-stride
//! signature words.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of constraint indices, implemented as a bitset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Signature {
    words: Vec<u64>,
}

impl Signature {
    /// The empty signature (covered by no constraint).
    pub fn empty() -> Self {
        Signature::default()
    }

    /// Builds a signature from a list of constraint indices.
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut s = Signature::empty();
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Adds a constraint index to the signature.
    pub fn insert(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (index % 64);
        self.normalize();
    }

    /// Returns a copy with the given index added.
    pub fn with(&self, index: usize) -> Self {
        let mut s = self.clone();
        s.insert(index);
        s
    }

    /// The signature as a borrowed view.
    pub fn as_ref(&self) -> SignatureRef<'_> {
        SignatureRef { words: &self.words }
    }

    /// The bitset words, without trailing zero words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// True if the signature contains the constraint index.
    pub fn contains(&self, index: usize) -> bool {
        self.as_ref().contains(index)
    }

    /// Number of constraints in the signature.
    pub fn count(&self) -> usize {
        self.as_ref().count()
    }

    /// True if no constraint covers this signature.
    pub fn is_empty(&self) -> bool {
        self.as_ref().is_empty()
    }

    /// Set intersection of two signatures.
    pub fn intersect(&self, other: &Signature) -> Signature {
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a & b)
            .collect();
        let mut s = Signature { words };
        s.normalize();
        s
    }

    /// [`Signature::intersect`] written into `out`, reusing its allocation.
    pub(crate) fn intersect_into(&self, other: &Signature, out: &mut Signature) {
        out.words.clear();
        out.words
            .extend(self.words.iter().zip(&other.words).map(|(a, b)| a & b));
        out.normalize();
    }

    /// The first two bitset words, zero-padded.  Signatures are
    /// normalized, so comparing heads orders signatures as `Ord` does
    /// whenever the heads differ.
    pub(crate) fn head(&self) -> [u64; 2] {
        [
            self.words.first().copied().unwrap_or(0),
            self.words.get(1).copied().unwrap_or(0),
        ]
    }

    /// The contained constraint indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Iterates the contained constraint indices, ascending, without
    /// allocating.
    pub fn iter(&self) -> Members<'_> {
        self.as_ref().iter()
    }

    /// Drops trailing zero words so equal sets compare equal regardless of
    /// how they were built.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A borrowed signature: bitset words that may carry trailing zero words
/// (a partition stores every region's signature at one fixed stride).
/// Equality and the methods ignore the padding, so a view equals the
/// [`Signature`] of the same set.
#[derive(Debug, Clone, Copy)]
pub struct SignatureRef<'a> {
    words: &'a [u64],
}

impl<'a> SignatureRef<'a> {
    /// Views zero-padded bitset words as a signature.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        SignatureRef { words }
    }

    /// The words without their zero padding.
    fn trimmed(&self) -> &'a [u64] {
        let len = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..len]
    }

    /// True if the signature contains the constraint index.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of constraints in the signature.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no constraint covers this signature.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates the contained constraint indices, ascending, without
    /// allocating.
    pub fn iter(&self) -> Members<'a> {
        Members {
            words: self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
            remaining: self.count(),
        }
    }

    /// An owned copy of the set.
    pub fn to_signature(&self) -> Signature {
        Signature {
            words: self.trimmed().to_vec(),
        }
    }
}

/// The members of a signature, ascending; the iterator knows how many
/// remain.
#[derive(Debug, Clone)]
pub struct Members<'a> {
    words: &'a [u64],
    /// The word `bits` came from.
    word: usize,
    /// The members of `words[word]` not yet yielded.
    bits: u64,
    remaining: usize,
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(self.word * 64 + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Members<'_> {}

impl PartialEq for SignatureRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for SignatureRef<'_> {}

impl PartialEq<Signature> for SignatureRef<'_> {
    fn eq(&self, other: &Signature) -> bool {
        self.trimmed() == other.words
    }
}

impl PartialEq<SignatureRef<'_>> for Signature {
    fn eq(&self, other: &SignatureRef<'_>) -> bool {
        other == self
    }
}

impl fmt::Display for SignatureRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}}",
            self.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insert_contains_count() {
        let mut s = Signature::empty();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(70);
        s.insert(3);
        assert!(s.contains(3));
        assert!(s.contains(70));
        assert!(!s.contains(4));
        assert!(!s.contains(1000));
        assert_eq!(s.count(), 2);
        assert_eq!(s.indices(), vec![3, 70]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
        assert!(!s.is_empty());
        assert_eq!(s.to_string(), "{3,70}");
    }

    #[test]
    fn equality_independent_of_construction_order() {
        let a = Signature::from_indices(&[1, 65, 2]);
        let b = Signature::from_indices(&[65, 2, 1]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let a = Signature::from_indices(&[1]);
        let b = a.with(2);
        assert!(!a.contains(2));
        assert!(b.contains(1) && b.contains(2));
    }

    #[test]
    fn empty_signatures_are_equal_even_after_inserts_beyond_capacity() {
        // A signature that had a high bit checked but never set stays equal to empty.
        let a = Signature::empty();
        let b = Signature::from_indices(&[]);
        assert_eq!(a, b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.indices(), Vec::<usize>::new());
    }

    #[test]
    fn ordering_is_consistent() {
        let a = Signature::from_indices(&[0]);
        let b = Signature::from_indices(&[1]);
        assert!(a < b);
    }

    #[test]
    fn intersection() {
        let a = Signature::from_indices(&[0, 1, 70]);
        let b = Signature::from_indices(&[1, 70, 90]);
        assert_eq!(a.intersect(&b), Signature::from_indices(&[1, 70]));
        assert_eq!(a.intersect(&Signature::empty()), Signature::empty());
        // Intersection normalizes away trailing zero words.
        let c = Signature::from_indices(&[200]);
        assert_eq!(a.intersect(&c), Signature::empty());
        assert!(a.intersect(&c).is_empty());
        let mut out = Signature::from_indices(&[5, 300]);
        a.intersect_into(&b, &mut out);
        assert_eq!(out, a.intersect(&b));
        a.intersect_into(&c, &mut out);
        assert_eq!(out, Signature::empty());
    }

    #[test]
    fn padded_views_equal_their_signature() {
        let s = Signature::from_indices(&[3, 70]);
        let padded = [1u64 << 3, 1u64 << 6, 0, 0];
        let view = SignatureRef::new(&padded);
        assert_eq!(view, s);
        assert_eq!(view, s.as_ref());
        assert_eq!(view.to_signature(), s);
        assert_eq!(view.iter().collect::<Vec<_>>(), vec![3, 70]);
        assert_eq!(view.iter().len(), 2);
        assert_eq!(view.count(), 2);
        assert!(view.contains(70) && !view.contains(200));
        assert_eq!(view.to_string(), "{3,70}");
        let empty = SignatureRef::new(&[0, 0]);
        assert!(empty.is_empty());
        assert_eq!(empty, Signature::empty());
    }
}
