//! Canonical key encoding and stable hashing for the hash operators.
//!
//! This module defines *which keys are equal*. Join, aggregate, window
//! and set-op keys that have no fixed-width form — plain strings,
//! DOUBLE, DECIMAL, mixed representations, keys too wide to pack — and
//! every key that spills are a canonical byte encoding of each key
//! value (one [`encode_value`] call per key column), hashed with inline
//! FNV-1a — the same function `ChunkKey::hash64` and the fault injector
//! use. Keys whose columns are all fixed-width (INT/BIGINT, DATE,
//! TIMESTAMP, BOOLEAN, dictionary codes) are instead packed into a
//! `u64`/`u128` by `hive-exec`'s key layer (`hive_exec::keys`) and
//! hashed as a word; that shape is admitted exactly where word equality
//! coincides with the encoding equality defined here, so the encoding
//! stays the one definition of grouping semantics (and the HLL sketch's
//! input). Two properties carry the design:
//!
//! * **Stability.** FNV-1a is a fixed algorithm (as is the word hash),
//!   so hash values — and with them partition routing, spill files and
//!   `HIVE_FAULT_SEED` replay schedules — are identical across runs,
//!   platforms and toolchains. (`DefaultHasher` only promises
//!   determinism within one compiler release.)
//! * **Encoding equality ⟺ key equality.** Two values receive the same
//!   encoding exactly when `Value::group_eq` holds *and*
//!   `Value::hash_value` normalizes them identically — plus one rule
//!   `group_eq` lacks: a NaN DOUBLE equals a NaN of the same bits.
//!   Equal encodings imply equal hashes, so the byte table in
//!   `hive-exec` can compare keys with a plain `memcmp` against
//!   arena-resident bytes — no per-entry `Vec<Value>` and no re-hashing.
//!
//! Numeric values that normalize to the same `i64` (INT/BIGINT,
//! integral DOUBLE, scale-divisible DECIMAL) share [`TAG_I64`]; values
//! that are not `group_eq` or normalize apart (BOOLEAN vs INT, DATE vs
//! TIMESTAMP at equal raw magnitude, non-integral DOUBLE vs DECIMAL)
//! get distinct tags. The one cross-type datetime merge is the epoch
//! itself: `Date(0)` and `Timestamp(0)` normalize and compare equal, so
//! both encode as [`TAG_EPOCH0`].
//!
//! Every encoding is prefix-free (fixed length per tag, strings length-
//! prefixed), so concatenating per-column encodings preserves the
//! equality property for multi-column keys.

use crate::value::{pow10, Value};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an in-progress FNV-1a state (start from
/// [`FNV_OFFSET`]): hashing a key in pieces equals hashing it whole.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` from the offset basis.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// SQL NULL (all NULLs group together).
pub const TAG_NULL: u8 = 0x00;
/// Any value normalizing to an `i64`: INT, BIGINT, integral DOUBLE
/// (|v| < 9e18), DECIMAL divisible by its scale with an `i64` quotient.
pub const TAG_I64: u8 = 0x01;
/// Non-integral (or out-of-i64-range) DOUBLE, by raw bits.
pub const TAG_F64: u8 = 0x02;
/// DECIMAL not divisible by its scale: raw unscaled value + scale.
pub const TAG_DEC: u8 = 0x03;
/// UTF-8 string: u32 length prefix + bytes.
pub const TAG_STR: u8 = 0x04;
/// `Date(0)` / `Timestamp(0)` — the epoch, the only DATE/TIMESTAMP pair
/// that is equal across types (equal normalized hash *and* equal under
/// `sql_cmp`).
pub const TAG_EPOCH0: u8 = 0x05;
/// Dictionary code (emitted by the exec-layer key codecs; codes are
/// only comparable within one table's build/probe code space).
pub const TAG_CODE: u8 = 0x06;
/// Probe-only join miss: a probe-side dictionary entry absent from the
/// build dictionary. Build keys never contain it, so lookups miss.
pub const TAG_MISS: u8 = 0x07;
/// Non-epoch DATE (days since epoch).
pub const TAG_DATE: u8 = 0x08;
/// Non-epoch TIMESTAMP (microseconds since epoch).
pub const TAG_TS: u8 = 0x09;
/// BOOLEAN (never merges with INT 0/1 — `sql_cmp` has no
/// boolean/numeric bridge).
pub const TAG_BOOL: u8 = 0x0A;
/// Scale-divisible DECIMAL whose quotient overflows `i64`.
pub const TAG_BIGDEC: u8 = 0x0B;

/// Append the canonical encoding of `v` to `out`. See the module docs
/// for the equivalence argument; [`encode_code`] / [`encode_miss`]
/// cover the exec-layer dictionary-code key parts.
#[inline]
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Boolean(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(v) => encode_i64(*v as i64, out),
        Value::BigInt(v) => encode_i64(*v, out),
        Value::Double(v) => encode_f64(*v, out),
        Value::Decimal(u, s) => encode_decimal(*u, *s, out),
        Value::String(s) => encode_str(s.as_bytes(), out),
        Value::Date(d) => encode_date(*d, out),
        Value::Timestamp(t) => encode_timestamp(*t, out),
    }
}

/// Encode an integer-normalized value ([`TAG_I64`]).
#[inline]
pub fn encode_i64(v: i64, out: &mut Vec<u8>) {
    out.push(TAG_I64);
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a DOUBLE: integral values in `i64` range normalize to
/// [`TAG_I64`] (merging with equal integers, as `hash_value` +
/// `sql_cmp` do), everything else keys by raw bits.
#[inline]
pub fn encode_f64(v: f64, out: &mut Vec<u8>) {
    if v.fract() == 0.0 && v.abs() < 9e18 {
        encode_i64(v as i64, out);
    } else {
        out.push(TAG_F64);
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Encode a DECIMAL (unscaled value + scale, normalizing integral
/// values into the [`TAG_I64`] class).
#[inline]
pub fn encode_decimal(u: i128, s: u8, out: &mut Vec<u8>) {
    let p = pow10(s);
    if u % p == 0 {
        let q = u / p;
        match i64::try_from(q) {
            Ok(q) => encode_i64(q, out),
            Err(_) => {
                out.push(TAG_BIGDEC);
                out.extend_from_slice(&q.to_le_bytes());
            }
        }
    } else {
        out.push(TAG_DEC);
        out.extend_from_slice(&u.to_le_bytes());
        out.push(s);
    }
}

/// Encode a string by length-prefixed bytes.
#[inline]
pub fn encode_str(s: &[u8], out: &mut Vec<u8>) {
    out.push(TAG_STR);
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s);
}

/// Encode a DATE (days since epoch).
#[inline]
pub fn encode_date(days: i32, out: &mut Vec<u8>) {
    if days == 0 {
        out.push(TAG_EPOCH0);
    } else {
        out.push(TAG_DATE);
        out.extend_from_slice(&(days as i64).to_le_bytes());
    }
}

/// Encode a TIMESTAMP (microseconds since epoch).
#[inline]
pub fn encode_timestamp(micros: i64, out: &mut Vec<u8>) {
    if micros == 0 {
        out.push(TAG_EPOCH0);
    } else {
        out.push(TAG_TS);
        out.extend_from_slice(&micros.to_le_bytes());
    }
}

/// Encode a dictionary code key part.
#[inline]
pub fn encode_code(code: u32, out: &mut Vec<u8>) {
    out.push(TAG_CODE);
    out.extend_from_slice(&code.to_le_bytes());
}

/// Encode the probe-only join-miss key part.
#[inline]
pub fn encode_miss(out: &mut Vec<u8>) {
    out.push(TAG_MISS);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        out
    }

    #[test]
    fn fnv1a_is_pinned() {
        // Reference vectors for the standard FNV-1a parameters; these
        // values must never change — partition routing and fault-seed
        // replay schedules depend on them.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // Extending in two steps equals one pass.
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn encodings_are_pinned() {
        assert_eq!(enc(&Value::Null), vec![TAG_NULL]);
        assert_eq!(enc(&Value::Boolean(true)), vec![TAG_BOOL, 1]);
        assert_eq!(enc(&Value::Int(1)), vec![TAG_I64, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            enc(&Value::String("ab".into())),
            vec![TAG_STR, 2, 0, 0, 0, b'a', b'b']
        );
        assert_eq!(fnv1a(&enc(&Value::Int(1))), 0x7194_f3e5_9ae4_7dcd);
    }

    #[test]
    fn numeric_normalization_matches_oracle_merges() {
        // Values with equal hash_value normalization and group_eq share
        // one encoding.
        assert_eq!(enc(&Value::Int(42)), enc(&Value::BigInt(42)));
        assert_eq!(enc(&Value::Int(42)), enc(&Value::Double(42.0)));
        assert_eq!(enc(&Value::Int(42)), enc(&Value::Decimal(4200, 2)));
        assert_eq!(enc(&Value::Double(0.0)), enc(&Value::Double(-0.0)));
        // NaN is one key with itself, though not group_eq.
        assert_eq!(enc(&Value::Double(f64::NAN)), enc(&Value::Double(f64::NAN)));
        // Classes that are not group_eq stay apart.
        assert_ne!(enc(&Value::Boolean(true)), enc(&Value::Int(1)));
        assert_ne!(enc(&Value::Double(2.5)), enc(&Value::Decimal(25, 1)));
        assert_ne!(enc(&Value::Int(0)), enc(&Value::Date(0)));
        // Non-divisible decimals key by raw (unscaled, scale), exactly
        // hash_value's input: (25,1) and (250,2) are sql-equal but
        // normalize apart.
        assert_ne!(enc(&Value::Decimal(25, 1)), enc(&Value::Decimal(250, 2)));
    }

    #[test]
    fn datetime_encoding_merges_only_at_epoch() {
        // Date(d)/Timestamp(t) are one key iff their normalized
        // hashes agree (d == t) *and* sql_cmp holds (86_400_000_000·d
        // == t) — simultaneously true only at the epoch.
        assert_eq!(enc(&Value::Date(0)), enc(&Value::Timestamp(0)));
        assert_ne!(enc(&Value::Date(1)), enc(&Value::Timestamp(1)));
        assert_ne!(enc(&Value::Date(1)), enc(&Value::Timestamp(86_400_000_000)));
        assert_eq!(enc(&Value::Date(7)), enc(&Value::Date(7)));
    }

    #[test]
    fn oversized_divisible_decimals_key_by_quotient() {
        let big = 20_000_000_000_000_000_000_i128; // 2e19 > i64::MAX
        assert_eq!(
            enc(&Value::Decimal(big, 0)),
            enc(&Value::Decimal(big * 10, 1))
        );
        assert_ne!(enc(&Value::Decimal(big, 0)), enc(&Value::BigInt(2)));
    }

    #[test]
    fn encodings_are_prefix_free_per_tag() {
        // Strings carry an explicit length, so a shorter string is
        // never a prefix-match of a longer one inside a multi-column
        // key.
        let mut ab = Vec::new();
        encode_str(b"ab", &mut ab);
        encode_i64(7, &mut ab);
        let mut a = Vec::new();
        encode_str(b"a", &mut a);
        encode_str(b"b7", &mut a);
        assert_ne!(ab, a);
    }
}
