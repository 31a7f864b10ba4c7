//! Bloom filters over column values: the per-row-group index a corc
//! file carries for sargable `=`/`IN` pushdown. What they hash and how
//! they are laid out is the file format; the runtime semijoin reducer
//! has its own filter (`hive_exec::runtime_filter`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::encoding::{ByteReader, ByteWriter};
use hive_common::{HiveError, Result, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Most hash functions a filter uses; [`BloomFilter::new`] never asks
/// for more, so a file that claims more is corrupt.
const MAX_HASHES: u32 = 16;

/// A classic Bloom filter with double hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

impl BloomFilter {
    /// Size the filter for `expected` insertions at false-positive
    /// probability `fpp`.
    pub fn new(expected: usize, fpp: f64) -> Self {
        let expected = expected.max(1) as f64;
        let fpp = fpp.clamp(1e-6, 0.5);
        let num_bits = (-(expected * fpp.ln()) / (2f64.ln().powi(2))).ceil() as u64;
        let num_bits = num_bits.max(64);
        let num_hashes = ((num_bits as f64 / expected) * 2f64.ln()).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes: num_hashes.min(MAX_HASHES),
        }
    }

    /// Two hash streams over whatever `feed` writes: the default hasher
    /// plain, and seeded.
    fn base_hashes(feed: impl Fn(&mut DefaultHasher)) -> (u64, u64) {
        let mut h1 = DefaultHasher::new();
        feed(&mut h1);
        let mut h2 = DefaultHasher::new();
        0x9e37_79b9_7f4a_7c15u64.hash(&mut h2);
        feed(&mut h2);
        (h1.finish(), h2.finish() | 1) // odd so strides cover the table
    }

    fn bit(&self, a: u64, b: u64, i: u32) -> (usize, u64) {
        let bit = a.wrapping_add(b.wrapping_mul(i as u64)) % self.num_bits;
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    /// Insert a value (NULLs are ignored; NULL never matches `=`).
    pub fn insert(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        let (a, b) = Self::base_hashes(|h| v.hash_value(h));
        for i in 0..self.num_hashes {
            let (word, mask) = self.bit(a, b, i);
            self.bits[word] |= mask;
        }
    }

    /// Possibly-contains test; `false` is definitive.
    pub fn might_contain(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        let (a, b) = Self::base_hashes(|h| v.hash_value(h));
        (0..self.num_hashes).all(|i| {
            let (word, mask) = self.bit(a, b, i);
            self.bits[word] & mask != 0
        })
    }

    /// Serialize to a byte stream.
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_varint(self.num_bits);
        w.put_varint(self.num_hashes as u64);
        w.put_varint(self.bits.len() as u64);
        for word in &self.bits {
            w.put_u64(*word);
        }
    }

    /// Deserialize from a byte stream. Counts are checked against the
    /// bytes left and against each other before anything is allocated,
    /// so a corrupt footer fails with [`HiveError::Format`].
    pub fn read(r: &mut ByteReader) -> Result<Self> {
        let num_bits = r.get_varint()?;
        let num_hashes = r.get_varint()?;
        let words = r.get_count(8)?;
        if num_bits == 0 || num_hashes > MAX_HASHES as u64 || words as u64 != num_bits.div_ceil(64)
        {
            return Err(HiveError::Format(format!(
                "bloom filter of {num_bits} bits, {num_hashes} hashes in {words} words"
            )));
        }
        let bits = (0..words).map(|_| r.get_u64()).collect::<Result<_>>()?;
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes: num_hashes as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(1000, 0.01);
        for i in 0..1000 {
            b.insert(&Value::Int(i));
        }
        for i in 0..1000 {
            assert!(b.might_contain(&Value::Int(i)));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut b = BloomFilter::new(1000, 0.01);
        for i in 0..1000 {
            b.insert(&Value::Int(i));
        }
        let fp = (10_000..30_000)
            .filter(|&i| b.might_contain(&Value::Int(i)))
            .count();
        // 20k probes at ~1% target: allow generous margin.
        assert!(fp < 800, "false positive count too high: {fp}");
    }

    #[test]
    fn null_never_matches() {
        let mut b = BloomFilter::new(10, 0.01);
        b.insert(&Value::Null);
        assert!(!b.might_contain(&Value::Null));
    }

    #[test]
    fn strings_and_cross_type_numerics() {
        let mut b = BloomFilter::new(100, 0.01);
        b.insert(&Value::String("sports".into()));
        b.insert(&Value::Int(42));
        assert!(b.might_contain(&Value::String("sports".into())));
        // Value hashing normalizes numeric types, so BigInt 42 matches.
        assert!(b.might_contain(&Value::BigInt(42)));
        assert!(!b.might_contain(&Value::String("books".into())));
    }

    #[test]
    fn serialization_round_trip() {
        let mut b = BloomFilter::new(500, 0.05);
        for i in 0..500 {
            b.insert(&Value::BigInt(i * 7));
        }
        let mut w = ByteWriter::new();
        b.write(&mut w);
        let mut r = ByteReader::new(w.finish());
        let b2 = BloomFilter::read(&mut r).unwrap();
        assert_eq!(b, b2);
    }
}
