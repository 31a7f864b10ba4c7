//! Bloom filters over column values, used for sargable `=`/`IN`
//! pushdown and for the dynamic index-semijoin reduction (paper §4.6).

use crate::encoding::{ByteReader, ByteWriter};
use hive_common::{Result, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

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
            num_hashes: num_hashes.min(16),
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

    fn set(&mut self, feed: impl Fn(&mut DefaultHasher)) {
        let (a, b) = Self::base_hashes(feed);
        for i in 0..self.num_hashes {
            let (word, mask) = self.bit(a, b, i);
            self.bits[word] |= mask;
        }
    }

    fn test(&self, feed: impl Fn(&mut DefaultHasher)) -> bool {
        let (a, b) = Self::base_hashes(feed);
        (0..self.num_hashes).all(|i| {
            let (word, mask) = self.bit(a, b, i);
            self.bits[word] & mask != 0
        })
    }

    /// Insert a value (NULLs are ignored; NULL never matches `=`).
    pub fn insert(&mut self, v: &Value) {
        if !v.is_null() {
            self.set(|h| v.hash_value(h));
        }
    }

    /// Possibly-contains test; `false` is definitive.
    pub fn might_contain(&self, v: &Value) -> bool {
        !v.is_null() && self.test(|h| v.hash_value(h))
    }

    /// [`BloomFilter::insert`] of the INT, BIGINT, DATE or TIMESTAMP
    /// value with this number — they all hash as it ([`Value::hash_value`])
    /// — without building the `Value`.
    pub fn insert_i64(&mut self, v: i64) {
        self.set(|h| v.hash(h));
    }

    /// [`BloomFilter::might_contain`], as [`BloomFilter::insert_i64`].
    pub fn might_contain_i64(&self, v: i64) -> bool {
        self.test(|h| v.hash(h))
    }

    /// [`BloomFilter::insert`] of the STRING value `s`, without building
    /// the `Value`.
    pub fn insert_str(&mut self, s: &str) {
        self.set(|h| s.hash(h));
    }

    /// [`BloomFilter::might_contain`], as [`BloomFilter::insert_str`].
    pub fn might_contain_str(&self, s: &str) -> bool {
        self.test(|h| s.hash(h))
    }

    /// Merge another filter built with identical parameters.
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!(self.num_bits, other.num_bits, "bloom size mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.bits.len() * 8
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

    /// Deserialize from a byte stream.
    pub fn read(r: &mut ByteReader) -> Result<Self> {
        let num_bits = r.get_varint()?;
        let num_hashes = r.get_varint()? as u32;
        let words = r.get_varint()? as usize;
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(r.get_u64()?);
        }
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_inserts_and_probes_are_the_value_ones() {
        let mut by_value = BloomFilter::new(64, 0.01);
        let mut typed = BloomFilter::new(64, 0.01);
        for n in [-7i64, 0, 3, 1 << 40] {
            by_value.insert(&Value::BigInt(n));
            typed.insert_i64(n);
        }
        by_value.insert(&Value::Int(11));
        by_value.insert(&Value::Date(12));
        by_value.insert(&Value::Timestamp(13));
        by_value.insert(&Value::String("brand #4".into()));
        (11..=13).for_each(|n| typed.insert_i64(n));
        typed.insert_str("brand #4");
        assert_eq!(by_value, typed);
        for n in -50i64..50 {
            assert_eq!(
                typed.might_contain_i64(n),
                by_value.might_contain(&Value::Int(n as i32))
            );
            let s = format!("brand #{n}");
            assert_eq!(
                typed.might_contain_str(&s),
                by_value.might_contain(&Value::String(s))
            );
        }
    }

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

    #[test]
    fn union_combines() {
        let mut a = BloomFilter::new(100, 0.01);
        let mut b = BloomFilter::new(100, 0.01);
        a.insert(&Value::Int(1));
        b.insert(&Value::Int(2));
        a.union(&b);
        assert!(a.might_contain(&Value::Int(1)));
        assert!(a.might_contain(&Value::Int(2)));
    }
}
