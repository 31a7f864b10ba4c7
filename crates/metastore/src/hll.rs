//! HyperLogLog++ cardinality sketch.
//!
//! HMS stores the number-of-distinct-values statistic as "a bit array
//! representation based on HyperLogLog++ which can be combined without
//! loss of approximation accuracy" (paper §4.1). This is the dense
//! representation with the HLL++ bias-corrected estimator and
//! linear-counting fallback for small cardinalities.
//!
//! The estimate is a float loop over all 4 096 registers; a sketch keeps
//! it in a `Derived` cell once asked, and drops it whenever a register
//! changes.

use crate::derived::Derived;
use hive_common::hash::{encode_str, encode_value, fnv1a};
use hive_common::Value;
use serde::{Deserialize, Serialize};

/// Register-index precision: 2^P registers.
const P: u32 = 12;
const M: usize = 1 << P; // 4096 registers

/// A dense HyperLogLog++ sketch over SQL values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    /// `estimate()` of the current registers; every write to
    /// `registers` invalidates it.
    estimate: Derived<u64>,
}

impl Default for HyperLogLog {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperLogLog {
    /// An empty sketch.
    pub fn new() -> Self {
        HyperLogLog {
            registers: vec![0; M],
            estimate: Derived::default(),
        }
    }

    /// Finalizing mix for better low-bit dispersion (FNV-1a alone is
    /// weak in the high bits that pick the register index).
    #[inline]
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }

    /// Hash a value via its canonical `hive_common::hash` encoding and
    /// pinned FNV-1a. Unlike `DefaultHasher` (stable only within one
    /// compiler release), this is fixed forever: register layouts —
    /// and with them serialized sketches and seeded-replay schedules —
    /// survive toolchain bumps.
    fn hash(v: &Value) -> u64 {
        let mut buf = Vec::with_capacity(16);
        encode_value(v, &mut buf);
        Self::mix(fnv1a(&buf))
    }

    /// Fold a pre-computed canonical encoding (`hive_common::hash`
    /// `encode_*` output) into the sketch. The vectorized statistics
    /// path uses this to reuse one encode buffer across a column.
    #[inline]
    pub fn add_bytes(&mut self, enc: &[u8]) {
        self.insert_hash(Self::mix(fnv1a(enc)));
    }

    /// Observe a string without constructing a `Value` (register-
    /// identical to `add(&Value::String(..))`).
    #[inline]
    pub fn add_str(&mut self, s: &str) {
        let mut buf = Vec::with_capacity(s.len() + 5);
        encode_str(s.as_bytes(), &mut buf);
        self.add_bytes(&buf);
    }

    /// Observe a value. NULLs are ignored (NDV counts non-null values).
    pub fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.insert_hash(Self::hash(v));
    }

    #[inline]
    fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - P)) as usize;
        let rest = h << P;
        // Number of leading zeros in the remaining bits, plus one.
        let rank = (rest.leading_zeros() + 1).min(64 - P + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
            self.estimate.invalidate();
        }
    }

    /// Merge another sketch (register-wise max) — the lossless additive
    /// combination HMS relies on.
    pub fn merge(&mut self, other: &HyperLogLog) {
        self.estimate.invalidate();
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Estimated number of distinct values.
    pub fn estimate(&self) -> u64 {
        *self
            .estimate
            .get_or_build(|| Self::estimate_registers(&self.registers))
    }

    /// The additive data (`summary_tests` recomputes from it).
    #[cfg(test)]
    pub(crate) fn registers(&self) -> &[u8] {
        &self.registers
    }

    fn estimate_registers(registers: &[u8]) -> u64 {
        let m = M as f64;
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        // Linear counting for the small range (HLL++ style threshold).
        if raw <= 2.5 * m && zeros > 0 {
            let lc = m * (m / zeros as f64).ln();
            return lc.round() as u64;
        }
        raw.round() as u64
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate_of(n: i64) -> u64 {
        let mut h = HyperLogLog::new();
        for i in 0..n {
            h.add(&Value::BigInt(i));
        }
        h.estimate()
    }

    fn assert_within(est: u64, actual: u64, pct: f64) {
        let err = (est as f64 - actual as f64).abs() / actual as f64;
        assert!(
            err < pct,
            "estimate {est} vs actual {actual}: error {:.1}% > {:.1}%",
            err * 100.0,
            pct * 100.0
        );
    }

    #[test]
    fn small_cardinalities_exactish() {
        for n in [1u64, 10, 100, 1000] {
            assert_within(estimate_of(n as i64), n, 0.05);
        }
    }

    #[test]
    fn large_cardinalities_within_error_bound() {
        // Standard error for p=12 is ~1.6%; allow 5%.
        for n in [50_000u64, 200_000] {
            assert_within(estimate_of(n as i64), n, 0.05);
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new();
        for _ in 0..10 {
            for i in 0..500 {
                h.add(&Value::Int(i));
            }
        }
        assert_within(h.estimate(), 500, 0.05);
    }

    #[test]
    fn nulls_ignored() {
        let mut h = HyperLogLog::new();
        h.add(&Value::Null);
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new();
        let mut b = HyperLogLog::new();
        let mut u = HyperLogLog::new();
        for i in 0..30_000 {
            let v = Value::BigInt(i);
            if i % 2 == 0 {
                a.add(&v);
            } else {
                b.add(&v);
            }
            u.add(&v);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate(), "merge must be lossless");
        assert_within(a.estimate(), 30_000, 0.05);
    }

    #[test]
    fn register_layout_is_pinned() {
        // The hash is mix(fnv1a(encode_value(v))) with every stage
        // pinned (hive_common::hash pins fnv1a(enc(Int(1))) ==
        // 0x7194_f3e5_9ae4_7dcd). These register placements must never
        // change: serialized sketches and replay schedules depend on
        // them surviving toolchain bumps — the exact property
        // DefaultHasher could not give.
        let mut h = HyperLogLog::new();
        h.add(&Value::Int(1));
        // mix(0x7194_f3e5_9ae4_7dcd) == 0xfead_53f7_dfca_be65
        // => idx = top 12 bits = 4074, rank = 1.
        assert_eq!(h.registers[4074], 1);
        assert_eq!(h.registers.iter().filter(|&&r| r != 0).count(), 1);

        let mut s = HyperLogLog::new();
        s.add(&Value::String("ab".into()));
        // mix(fnv1a(enc("ab"))) == 0x7e99_2bf0_7236_231f => idx 2025.
        assert_eq!(s.registers[2025], 1);

        // Numeric normalization carries over from the canonical
        // encoding: INT / BIGINT / integral DOUBLE share registers.
        let mut a = HyperLogLog::new();
        a.add(&Value::Int(42));
        let mut b = HyperLogLog::new();
        b.add(&Value::BigInt(42));
        let mut c = HyperLogLog::new();
        c.add(&Value::Double(42.0));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn estimates_are_pinned() {
        // End-to-end estimate regression on the pinned hash: any
        // change to encoding, FNV parameters, or the finalizer shows
        // up here as an exact-value diff.
        assert_eq!(estimate_of(1000), 1000);
        assert_eq!(estimate_of(100_000), 101_234);
    }

    #[test]
    fn add_str_matches_add_value() {
        let mut a = HyperLogLog::new();
        let mut b = HyperLogLog::new();
        for i in 0..1000 {
            a.add_str(&format!("k{i}"));
            b.add(&Value::String(format!("k{i}")));
        }
        assert_eq!(a, b, "add_str must be register-identical to add");
    }

    #[test]
    fn string_values() {
        let mut h = HyperLogLog::new();
        for i in 0..5000 {
            h.add(&Value::String(format!("customer_{i}")));
        }
        assert_within(h.estimate(), 5000, 0.05);
    }
}
