//! The dynamic semijoin reducer's key set (paper §4.6): built from the
//! exact distinct keys of a join's small build side, checked against a
//! large probe-side scan inside its morsel workers.
//!
//! "May match" is the join's own key equality — equality of the
//! canonical key encoding ([`hive_common::hash`]) — so a row the filter
//! drops has no join partner. INT/BIGINT/DATE keys whose span is at most
//! `max(BITS_PER_KEY × distinct, DENSE_MIN_BITS)` bits get an exact
//! bitmap over `[min, max]`; every other build a sorted set of its
//! keys' encoding hashes, wrong only on a 64-bit hash collision. The
//! choice is a size comparison, not a setting (DESIGN.md, "Semijoin
//! reducers"). `corc::bloom` is the file format's filter, not this one.

use crate::keys::encode_cell;
use hive_common::hash::{self, fnv1a};
use hive_common::{BitSet, ColumnVector, SelVec, Value};
use hive_corc::ColumnPredicate;
use std::cmp::Ordering;
use std::sync::Arc;

/// Bits of bitmap a distinct build key may cost.
const BITS_PER_KEY: u64 = 16;
/// A dense bitmap of up to this many bits (8 KiB) is taken whatever
/// the key count.
const DENSE_MIN_BITS: u64 = 1 << 16;

/// A semijoin reducer's key set; see the module docs.
#[derive(Debug)]
pub struct RuntimeFilter {
    keys: Keys,
    /// The smallest and largest build key, in the build column's type
    /// (the sarg's row-group range test).
    min: Value,
    max: Value,
}

/// The build keys, by layout.
#[derive(Debug)]
enum Keys {
    Dense(Dense),
    /// Any other build: the FNV-1a hashes of the keys' canonical
    /// encodings, sorted and distinct.
    Hashed(Vec<u64>),
}

/// INT/BIGINT keys (`tag` [`hash::TAG_I64`]) or DATE keys as days
/// (`tag` [`hash::TAG_DATE`], day 0 encoding as [`hash::TAG_EPOCH0`]):
/// bit `k − min` is set for every key `k`, and bits past the largest key
/// are clear, so the test is exact. A probe matches by the `i64` of an
/// encoding with that tag.
#[derive(Debug)]
struct Dense {
    tag: u8,
    min: i64,
    bits: Vec<u64>,
}

impl Dense {
    #[inline]
    fn contains(&self, k: i64) -> bool {
        let off = k.wrapping_sub(self.min) as u64;
        self.bits
            .get((off >> 6) as usize)
            .is_some_and(|w| w >> (off & 63) & 1 != 0)
    }
}

/// The non-NULL values of an integer-like column, sorted and distinct.
fn sorted_keys<T: Copy + Into<i64>>(vals: &[T], nulls: &Option<BitSet>) -> Vec<i64> {
    let mut keys: Vec<i64> = vals
        .iter()
        .enumerate()
        .filter(|(i, _)| !nulls.as_ref().is_some_and(|n| n.get(*i)))
        .map(|(_, &k)| k.into())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The dense filter of sorted, distinct `keys` (`wrap` gives a key its
/// column type), or `None` when there is none or their span is wider
/// than the size rule allows.
fn dense(tag: u8, keys: &[i64], wrap: fn(i64) -> Value) -> Option<RuntimeFilter> {
    let (min, max) = (*keys.first()?, *keys.last()?);
    let span = max.abs_diff(min).saturating_add(1);
    if span > (BITS_PER_KEY * keys.len() as u64).max(DENSE_MIN_BITS) {
        return None;
    }
    let mut bits = vec![0u64; span.div_ceil(64) as usize];
    for &k in keys {
        let off = k.abs_diff(min);
        bits[(off >> 6) as usize] |= 1 << (off & 63);
    }
    Some(RuntimeFilter {
        keys: Keys::Dense(Dense { tag, min, bits }),
        min: wrap(min),
        max: wrap(max),
    })
}

impl RuntimeFilter {
    /// The reducer of a build key column; `None` when the column holds no
    /// non-NULL key (nothing can match).
    pub fn build(col: &ColumnVector) -> Option<RuntimeFilter> {
        let dense = match col {
            ColumnVector::Int(v, nulls) => dense(hash::TAG_I64, &sorted_keys(v, nulls), |k| {
                Value::Int(k as i32)
            }),
            ColumnVector::BigInt(v, nulls) => {
                dense(hash::TAG_I64, &sorted_keys(v, nulls), Value::BigInt)
            }
            ColumnVector::Date(v, nulls) => dense(hash::TAG_DATE, &sorted_keys(v, nulls), |k| {
                Value::Date(k as i32)
            }),
            _ => None,
        };
        if dense.is_some() {
            return dense;
        }
        // Distinct keys by encoding, each with its first row (the value
        // min/max are picked from by `sql_cmp`).
        let mut encoded: Vec<(Vec<u8>, usize)> = (0..col.len())
            .filter_map(|i| {
                let mut e = Vec::new();
                encode_cell(col, i, &mut e).then_some((e, i))
            })
            .collect();
        encoded.sort_unstable();
        encoded.dedup_by(|a, b| a.0 == b.0);
        let pick = |o| {
            encoded.iter().map(|&(_, i)| col.get(i)).reduce(|m, v| {
                if v.sql_cmp(&m) == Some(o) {
                    v
                } else {
                    m
                }
            })
        };
        let mut hashes: Vec<u64> = encoded.iter().map(|(e, _)| fnv1a(e)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        Some(RuntimeFilter {
            min: pick(Ordering::Less)?,
            max: pick(Ordering::Greater)?,
            keys: Keys::Hashed(hashes),
        })
    }

    /// The sarg form of this reducer over file column `column`: its key
    /// range, then (for a single-valued row group) one lookup.
    pub fn predicate(self: &Arc<Self>, column: usize) -> ColumnPredicate {
        ColumnPredicate::Reducer {
            column,
            min: self.min.clone(),
            max: self.max.clone(),
            filter: self.clone(),
        }
    }

    /// True for the dense layout: the filter keeps exactly the rows
    /// whose key is a build key.
    pub fn is_exact(&self) -> bool {
        matches!(self.keys, Keys::Dense(_))
    }

    /// `false` only when no build key has this canonical encoding.
    fn contains_encoded(&self, encoding: &[u8]) -> bool {
        match (&self.keys, encoding) {
            (Keys::Dense(d), [hash::TAG_EPOCH0]) if d.tag == hash::TAG_DATE => d.contains(0),
            (Keys::Dense(d), [t, word @ ..]) if *t == d.tag => word
                .try_into()
                .is_ok_and(|w| d.contains(i64::from_le_bytes(w))),
            (Keys::Dense(_), _) => false,
            (Keys::Hashed(hashes), _) => hashes.binary_search(&fnv1a(encoding)).is_ok(),
        }
    }

    /// Narrow `sel` over `col` to the rows whose key may have a join
    /// partner, in one pass and in order: `All` becomes the list of
    /// passing rows (or stays `All` when every row passes), `Idx` is
    /// narrowed in place.
    pub fn retain(&self, col: &ColumnVector, sel: SelVec) -> SelVec {
        match (&self.keys, col) {
            (Keys::Dense(d), ColumnVector::Int(v, nulls)) if d.tag == hash::TAG_I64 => {
                narrow(sel, nulls, |r| d.contains(v[r] as i64))
            }
            (Keys::Dense(d), ColumnVector::Date(v, nulls)) if d.tag == hash::TAG_DATE => {
                narrow(sel, nulls, |r| d.contains(v[r] as i64))
            }
            (Keys::Dense(d), ColumnVector::BigInt(v, nulls)) if d.tag == hash::TAG_I64 => {
                narrow(sel, nulls, |r| d.contains(v[r]))
            }
            (_, ColumnVector::Dict { codes, dict, nulls }) => {
                // One verdict per dictionary entry, decided when first met.
                let mut verdicts: Vec<Option<bool>> = vec![None; dict.len()];
                let mut buf = Vec::new();
                narrow(sel, nulls, |r| {
                    let c = codes[r] as usize;
                    *verdicts[c].get_or_insert_with(|| {
                        buf.clear();
                        hash::encode_str(dict[c].as_bytes(), &mut buf);
                        self.contains_encoded(&buf)
                    })
                })
            }
            _ => {
                let mut buf = Vec::new();
                narrow(sel, &None, |r| {
                    buf.clear();
                    encode_cell(col, r, &mut buf) && self.contains_encoded(&buf)
                })
            }
        }
    }
}

impl hive_corc::KeyFilter for RuntimeFilter {
    fn might_contain(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        let mut buf = Vec::new();
        hash::encode_value(v, &mut buf);
        self.contains_encoded(&buf)
    }
}

/// Keep the selected rows that are not NULL and pass `keep`.
#[inline]
fn narrow(sel: SelVec, nulls: &Option<BitSet>, mut keep: impl FnMut(usize) -> bool) -> SelVec {
    let mut keep = |r: usize| !nulls.as_ref().is_some_and(|n| n.get(r)) && keep(r);
    match sel {
        SelVec::All(n) => {
            // 64 verdicts a word, then the set bits' rows.
            let mut rows = Vec::with_capacity(n);
            for base in (0..n).step_by(64) {
                let mut mask =
                    (base..n.min(base + 64)).fold(0u64, |m, r| m | (keep(r) as u64) << (r - base));
                while mask != 0 {
                    rows.push((base + mask.trailing_zeros() as usize) as u32);
                    mask &= mask - 1;
                }
            }
            if rows.len() == n {
                return SelVec::All(n);
            }
            SelVec::Idx(rows)
        }
        SelVec::Idx(mut rows) => {
            rows.retain(|&r| keep(r as usize));
            SelVec::Idx(rows)
        }
    }
}
