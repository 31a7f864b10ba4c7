//! Hash keys: one layer under join, GROUP BY, DISTINCT, set operations
//! and window partitions.
//!
//! The paper's vectorized operators (§3.3, §5) prepare keys batch-wise
//! and leave a tight per-row probe. This module is that preparation. A
//! hash operator hands it its key columns once per call; the columns'
//! *runtime representation* picks one of three [`Shape`]s, and every
//! operator then gets the same three things from it: a per-row key, a
//! per-row hash with the excluded rows marked beside it, and a table
//! that stores that key.
//!
//! * **None** — no key columns (a cross join, a scalar-subquery LEFT
//!   join, a window without PARTITION BY). No table is consulted and
//!   nothing is hashed: every row is in the one group, every probe
//!   row's candidates are all build rows in order.
//! * **Word** (`u64` / `u128`) — every column is fixed-width and *word
//!   equality ⟺ canonical-encoding equality* (the table in DESIGN.md
//!   §4): INT and BIGINT normalised to one width on both sides, DATE ×
//!   DATE, TIMESTAMP × TIMESTAMP, BOOLEAN, and dictionary codes in one
//!   code space (a join translates probe codes into the build
//!   dictionary's, an absent entry meaning "no match"). Columns pack
//!   side by side with their NULL bits; the word is hashed with one
//!   multiply–xorshift ([`Word::hash`]) and compared as a word in a
//!   [`WordTable`] whose bucket carries the key — one cache line per
//!   lookup.
//! * **Bytes** — everything else: plain strings, DOUBLE, DECIMAL, mixed
//!   `Dict`/`Str`, dictionaries with duplicate entries, keys too wide
//!   to pack. Each row's canonical encoding ([`hive_common::hash`]) is
//!   written once into an arena, hashed with FNV-1a and compared by
//!   `memcmp` in a [`RawTable`]. This is the single general path.
//!
//! A grouping side — GROUP BY, window partitions, a set operation, the
//! DISTINCT filter — may then take the **dense kind**, decided by the
//! content of its rows ([`KeySide::dense_over`], [`KeySide::group_pair`]):
//! when every column is an integer, a date, a boolean or a
//! duplicate-free dictionary, each column's values span `max − min + 1`
//! over the selected rows (a dictionary its length, one more slot for
//! NULL where a side is nullable), and the spans' product is within
//! [`dense_limit`] of the rows, a row's key is its mixed-radix slot
//! `k0 + span0 × (k1 + span1 × …)` and the group index is a slot array.
//! No word is packed, hashed or compared; a partitioned build routes on
//! the slot itself. [`dense_limit`] is one size rule, the join's unique
//! dense index takes it too. Keys that do not fit stay hashed.
//!
//! Spilling operators key through the same shapes: a spilled partition
//! is a run of positions ([`crate::spill`]), and its keys are re-derived
//! from the resident columns by the operator's own [`KeySide`].
//!
//! The shape is a function of the columns, never of a setting or a
//! workload. Everything an operator's result depends on is shape-blind:
//! group and entry ids are dense in first-seen order, a join entry's
//! candidates are its build rows in ascending position, NULL never
//! matches in a join and is one group everywhere else. Only partition
//! routing ([`route`]) sees the hash value, and routing is
//! result-invisible by construction (outputs merge by first-seen
//! position or probe range). Both hashes are fixed functions, so
//! `HIVE_FAULT_SEED` replay is unaffected.

use crate::join::{emit_rows, ProbeOut};
use crate::rawtable::RawTable;
use hive_common::hash::{self, fnv1a};
use hive_common::{BitSet, ColumnVector, HiveError, Result, SelVec, Value};
use hive_optimizer::plan::JoinType;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The translated code of a probe-side dictionary entry the build
/// dictionary does not contain: it equals no build key.
pub(crate) const MISS: u32 = u32::MAX;

/// How an operator's key is represented; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    None,
    /// The dense kind's mixed-radix slots.
    Dense,
    W64,
    W128,
    Bytes,
}

/// The build partition a key hash routes to: the hash's upper half
/// scaled onto `0..nparts` (a multiply and a shift, no division). The
/// tables index buckets by the low bits, so the rows of one partition
/// still spread over all of its table's buckets.
#[inline]
pub fn route(hash: u64, nparts: usize) -> usize {
    (((hash >> 32) * nparts as u64) >> 32) as usize
}

/// Keyed rows per partition of a partitioned build.
const PARTITION_ROWS: usize = 2 * crate::par::ROWS_PER_MORSEL;
/// The most partitions a build splits into.
const MAX_PARTITIONS: usize = 16;

/// How many partitions a partitioned build of `rows` rows splits into —
/// a function of the build's size, never of the worker count, so every
/// lease width routes a key to the same partition. Below two
/// [`PARTITION_ROWS`] the build is one partition. A power of two, which
/// the dense kind routes and indexes its slots by with a mask and a
/// shift.
pub(crate) fn partitions_for(rows: usize) -> usize {
    1 << (rows / PARTITION_ROWS).clamp(1, MAX_PARTITIONS).ilog2()
}

/// One chunk of keyed rows scattered by partition: partition `p`'s run
/// is the chunk's rows whose key [`route`]s to `p`, ascending. Rows a
/// join excludes (a NULL key part) are in no run.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    /// Row numbers grouped by partition, ascending inside each group.
    rows: Vec<u32>,
    /// Partition `p`'s run is `rows[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
}

impl Runs {
    /// Partition `p`'s rows, ascending.
    pub fn run(&self, p: usize) -> &[u32] {
        &self.rows[self.starts[p] as usize..self.starts[p + 1] as usize]
    }
}

/// Scatter the rows of `keys` into `nparts` runs, once: a counting pass
/// over the routes, then one stable placement. Row `r` is recorded as
/// `at + r` — the chunk's rows numbered in the whole input — so a
/// partition that reads every chunk's run in chunk order sees its rows
/// in ascending order, as the serial build inserts them. The dense kind
/// routes slot `s` to partition `s mod nparts` (a power of two).
pub fn partition(keys: &RowKeys, at: usize, nparts: usize) -> Runs {
    fn hashed<T: KeyTable>(keys: &T::Keys, at: usize, nparts: usize) -> Runs {
        scatter(T::rows(keys), at, nparts, |r| {
            (!T::skip(keys, r)).then(|| route(T::hash(keys, r), nparts))
        })
    }
    fn scatter(
        n: usize,
        at: usize,
        nparts: usize,
        to_part: impl Fn(usize) -> Option<usize>,
    ) -> Runs {
        let mut to: Vec<u32> = Vec::with_capacity(n);
        let mut starts = vec![0u32; nparts + 1];
        for r in 0..n {
            let p = to_part(r).map_or(u32::MAX, |p| {
                starts[p + 1] += 1;
                p as u32
            });
            to.push(p);
        }
        for p in 0..nparts {
            starts[p + 1] += starts[p];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; starts[nparts] as usize];
        for (r, &p) in to.iter().enumerate().filter(|(_, &p)| p != u32::MAX) {
            rows[next[p as usize] as usize] = (at + r) as u32;
            next[p as usize] += 1;
        }
        Runs { rows, starts }
    }
    let nparts = nparts.max(1);
    match keys {
        // The empty key hashes to 0: partition 0 owns every row.
        RowKeys::None(n) => {
            let mut starts = vec![*n as u32; nparts + 1];
            starts[0] = 0;
            Runs {
                rows: (at as u32..(at + n) as u32).collect(),
                starts,
            }
        }
        RowKeys::Dense(slots) => {
            debug_assert!(nparts.is_power_of_two());
            scatter(slots.len(), at, nparts, |r| {
                Some(slots[r] as usize & (nparts - 1))
            })
        }
        RowKeys::W64(k) => hashed::<WordTable<u64>>(k, at, nparts),
        RowKeys::W128(k) => hashed::<WordTable<u128>>(k, at, nparts),
        RowKeys::Bytes(k) => hashed::<RawTable>(k, at, nparts),
    }
}

/// A packed key: `u64` or `u128`.
pub trait Word: Copy + Eq + Default + Send + Sync + std::fmt::Debug + 'static {
    /// OR `bits` in at bit offset `shift`.
    fn or_in(&mut self, bits: u64, shift: u32);
    /// The key's hash: one multiply–xorshift per 64-bit word. A fixed
    /// function, like FNV-1a on the bytes shape.
    fn hash(self) -> u64;
}

#[inline]
fn mix(w: u64) -> u64 {
    let m = w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    m ^ (m >> 32)
}

impl Word for u64 {
    #[inline]
    fn or_in(&mut self, bits: u64, shift: u32) {
        *self |= bits << shift;
    }
    #[inline]
    fn hash(self) -> u64 {
        mix(self)
    }
}

impl Word for u128 {
    #[inline]
    fn or_in(&mut self, bits: u64, shift: u32) {
        *self |= (bits as u128) << shift;
    }
    #[inline]
    fn hash(self) -> u64 {
        mix(mix(self as u64) ^ (self >> 64) as u64)
    }
}

/// Where one key column's key bits come from.
#[derive(Debug, Clone)]
enum Src<'a> {
    Bool(&'a [bool]),
    /// INT beside INT, DATE beside DATE: the 32 value bits.
    I32(&'a [i32]),
    /// INT beside BIGINT: sign-extended, so equal integers are equal
    /// words on both sides.
    I32Wide(&'a [i32]),
    /// BIGINT, TIMESTAMP.
    I64(&'a [i64]),
    /// Dictionary codes in one code space of `space` entries. `map`
    /// translates this side's codes into that space ([`MISS`] where the
    /// entry is absent from it); `None` is the identity.
    Code {
        codes: &'a [u32],
        map: Option<Vec<u32>>,
        space: usize,
    },
    /// No word form: the cell's canonical bytes only.
    Cell,
}

/// One key column of one input, classified.
#[derive(Debug, Clone)]
pub struct KeyCol<'a> {
    col: &'a ColumnVector,
    nulls: Option<&'a BitSet>,
    src: Src<'a>,
}

/// A code-keyed column's per-row codes and their translation into the
/// key's code space (`None` = identity).
struct Codes<'a, 'k> {
    codes: &'a [u32],
    map: Option<&'k [u32]>,
}

impl Codes<'_, '_> {
    /// Row `i`'s code in the key's code space ([`MISS`] when absent).
    #[inline]
    fn at(&self, i: usize) -> u32 {
        let code = self.codes[i];
        self.map.map_or(code, |m| m[code as usize])
    }
}

/// True when no two dictionary entries are equal, i.e. codes identify
/// strings. Engine-produced dictionaries are deduplicated; hand-built
/// ones need not be.
fn distinct_entries(dict: &[String]) -> bool {
    let mut seen = HashSet::with_capacity(dict.len());
    dict.iter().all(|s| seen.insert(s.as_str()))
}

/// Translate a join's two dictionaries into the build side's code
/// space: the probe side's map (`MISS` for entries the build dictionary
/// lacks), and the build side's own map collapsing duplicate entries
/// onto their first code (`None` when there are none).
fn translate(probe: &[String], build: &[String]) -> (Vec<u32>, Option<Vec<u32>>) {
    let mut index: HashMap<&str, u32> = HashMap::with_capacity(build.len());
    let canon: Vec<u32> = build
        .iter()
        .enumerate()
        .map(|(c, s)| *index.entry(s.as_str()).or_insert(c as u32))
        .collect();
    let probe_map = probe
        .iter()
        .map(|s| index.get(s.as_str()).copied().unwrap_or(MISS))
        .collect();
    let identity = canon.iter().enumerate().all(|(c, &to)| to == c as u32);
    (probe_map, (!identity).then_some(canon))
}

impl<'a> KeyCol<'a> {
    /// Classify one key column pair. In a join (`join`) the right
    /// column is the build side and dictionary codes translate into its
    /// code space; otherwise both sides feed one table where NULL and
    /// every distinct value is a group, so codes are usable only over
    /// one shared, duplicate-free dictionary.
    fn pair(l: &'a ColumnVector, r: &'a ColumnVector, join: bool) -> (KeyCol<'a>, KeyCol<'a>) {
        use ColumnVector as C;
        let (ls, rs) = match (l, r) {
            (C::Boolean(a, _), C::Boolean(b, _)) => (Src::Bool(a), Src::Bool(b)),
            (C::Int(a, _), C::Int(b, _)) | (C::Date(a, _), C::Date(b, _)) => {
                (Src::I32(a), Src::I32(b))
            }
            (C::Int(a, _), C::BigInt(b, _)) => (Src::I32Wide(a), Src::I64(b)),
            (C::BigInt(a, _), C::Int(b, _)) => (Src::I64(a), Src::I32Wide(b)),
            (C::BigInt(a, _), C::BigInt(b, _)) | (C::Timestamp(a, _), C::Timestamp(b, _)) => {
                (Src::I64(a), Src::I64(b))
            }
            (
                C::Dict {
                    codes: lc,
                    dict: ld,
                    ..
                },
                C::Dict {
                    codes: rc,
                    dict: rd,
                    ..
                },
            ) => {
                let code = |codes: &'a [u32], map| Src::Code {
                    codes,
                    map,
                    space: rd.len(),
                };
                if join {
                    let (probe_map, canon) = translate(ld, rd);
                    (code(lc, Some(probe_map)), code(rc, canon))
                } else if Arc::ptr_eq(ld, rd) && distinct_entries(rd) {
                    (code(lc, None), code(rc, None))
                } else {
                    (Src::Cell, Src::Cell)
                }
            }
            _ => (Src::Cell, Src::Cell),
        };
        let col = |col: &'a ColumnVector, src| KeyCol {
            col,
            nulls: col.nulls(),
            src,
        };
        (col(l, ls), col(r, rs))
    }

    /// The column's dictionary codes, when it keys by code.
    fn codes(&self) -> Option<Codes<'a, '_>> {
        match &self.src {
            Src::Code { codes, map, .. } => Some(Codes {
                codes,
                map: map.as_deref(),
            }),
            _ => None,
        }
    }

    /// Bits the column takes in a packed word; `None` = bytes only.
    fn width(&self) -> Option<u32> {
        Some(match &self.src {
            Src::Bool(_) => 1,
            Src::I32(_) => 32,
            Src::I32Wide(_) | Src::I64(_) => 64,
            // Codes run below `space`; `MISS` is never packed.
            Src::Code { space, .. } => {
                (usize::BITS - space.saturating_sub(1).leading_zeros()).max(1)
            }
            Src::Cell => return None,
        })
    }

    /// Append row `i`'s canonical key-part encoding; `false` (nothing
    /// appended) when the cell is NULL. A probe-side dictionary entry
    /// the build side lacks encodes as `TAG_MISS`, which no build key
    /// contains.
    #[inline]
    fn encode(&self, i: usize, out: &mut Vec<u8>) -> bool {
        let Some(codes) = self.codes() else {
            return encode_cell(self.col, i, out);
        };
        if self.nulls.is_some_and(|n| n.get(i)) {
            return false;
        }
        match codes.at(i) {
            MISS => hash::encode_miss(out),
            code => hash::encode_code(code, out),
        }
        true
    }

    /// OR this column's bits for rows `lo..lo + keys.len()` of `sel`
    /// into `keys`, column-wise. A NULL cell sets the slot's NULL bit
    /// (and no value bits) when NULL is a key, and marks the row
    /// skipped otherwise; so does a `MISS`.
    fn pack<K: Word>(
        &self,
        keys: &mut [K],
        skip: &mut Option<Vec<bool>>,
        sel: &SelVec,
        lo: usize,
        slot: Slot,
    ) {
        match &self.src {
            Src::Bool(v) => self.fill(keys, skip, sel, lo, slot, v, |b| b as u64),
            Src::I32(v) => self.fill(keys, skip, sel, lo, slot, v, |x| x as u32 as u64),
            Src::I32Wide(v) => self.fill(keys, skip, sel, lo, slot, v, |x| x as i64 as u64),
            Src::I64(v) => self.fill(keys, skip, sel, lo, slot, v, |x| x as u64),
            Src::Code {
                codes, map: None, ..
            } => self.fill(keys, skip, sel, lo, slot, codes, |c| c as u64),
            Src::Code {
                codes,
                map: Some(map),
                ..
            } => {
                // The one source that can miss: a missing entry packs no
                // bits, and its rows are marked in a second pass that
                // most columns never need.
                let mut missed = false;
                self.fill(keys, skip, sel, lo, slot, codes, |c| {
                    let code = map[c as usize];
                    missed |= code == MISS;
                    if code == MISS {
                        0
                    } else {
                        code as u64
                    }
                });
                if missed {
                    let skip = skip.get_or_insert_with(|| vec![false; keys.len()]);
                    for_rows(sel, lo, keys.len(), |s, i| {
                        if map[codes[i] as usize] == MISS {
                            skip[s] = true;
                        }
                    });
                }
            }
            // A side with a `Cell` column has the bytes shape.
            Src::Cell => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fill<K: Word, T: Copy>(
        &self,
        keys: &mut [K],
        skip: &mut Option<Vec<bool>>,
        sel: &SelVec,
        lo: usize,
        slot: Slot,
        vals: &[T],
        mut bits: impl FnMut(T) -> u64,
    ) {
        let n = keys.len();
        let Some(nulls) = self.nulls else {
            return for_rows(sel, lo, n, |s, i| keys[s].or_in(bits(vals[i]), slot.shift));
        };
        match slot.null_bit {
            Some(bit) => for_rows(sel, lo, n, |s, i| {
                if nulls.get(i) {
                    keys[s].or_in(1, bit);
                } else {
                    keys[s].or_in(bits(vals[i]), slot.shift);
                }
            }),
            None => {
                let skip = skip.get_or_insert_with(|| vec![false; n]);
                for_rows(sel, lo, n, |s, i| {
                    if nulls.get(i) {
                        skip[s] = true;
                    } else {
                        keys[s].or_in(bits(vals[i]), slot.shift);
                    }
                });
            }
        }
    }

    /// `f(slot, value)` for rows `lo..lo + n` of `idx`, the value as an
    /// `i64` and `None` where NULL; `false` (no call) when the column has
    /// no dense digit.
    #[inline]
    fn ints(
        &self,
        idx: Option<&[u32]>,
        lo: usize,
        n: usize,
        f: impl FnMut(usize, Option<i64>),
    ) -> bool {
        #[inline]
        fn each<T: Copy>(
            nulls: Option<&BitSet>,
            vals: &[T],
            (idx, lo, n): (Option<&[u32]>, usize, usize),
            to: impl Fn(T) -> i64,
            mut f: impl FnMut(usize, Option<i64>),
        ) {
            match nulls {
                None => for_idx(idx, lo, n, |s, i| f(s, Some(to(vals[i])))),
                Some(nb) => for_idx(idx, lo, n, |s, i| f(s, (!nb.get(i)).then(|| to(vals[i])))),
            }
        }
        let rows = (idx, lo, n);
        match &self.src {
            Src::Bool(v) => each(self.nulls, v, rows, |b| b as i64, f),
            Src::I32(v) | Src::I32Wide(v) => each(self.nulls, v, rows, |x| x as i64, f),
            Src::I64(v) => each(self.nulls, v, rows, |x| x, f),
            Src::Code {
                codes, map: None, ..
            } => each(self.nulls, codes, rows, |c| c as i64, f),
            _ => return false,
        }
        true
    }

    /// The inclusive range of the column's non-NULL values over the `n`
    /// rows of `idx` — a dictionary's whole code space, both booleans —
    /// `Some(None)` when there are none; `None` when the column has no
    /// dense digit.
    fn range(&self, idx: Option<&[u32]>, n: usize) -> Option<Option<(i64, i64)>> {
        match &self.src {
            Src::Code {
                space, map: None, ..
            } => return Some((*space > 0).then(|| (0, *space as i64 - 1))),
            Src::Bool(_) => return Some(Some((0, 1))),
            _ => {}
        }
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        let dense = self.ints(idx, 0, n, |_, v| {
            if let Some(v) = v {
                (min, max) = (min.min(v), max.max(v));
            }
        });
        dense.then_some((min <= max).then_some((min, max)))
    }

    /// Add this column's digit times its stride into `slots`, for rows
    /// `lo..lo + slots.len()` of `idx`.
    fn add_digits(&self, slots: &mut [u32], idx: Option<&[u32]>, lo: usize, d: Digit) {
        self.ints(idx, lo, slots.len(), |s, v| {
            slots[s] += v.map_or(d.null, |v| v.wrapping_sub(d.min) as u32) * d.stride
        });
    }
}

/// One key column's place in a dense slot: `slot += (value − min) ×
/// stride`, a NULL's digit being `null`, one past the values.
#[derive(Debug, Clone, Copy)]
struct Digit {
    min: i64,
    null: u32,
    stride: u32,
}

/// The dense kind's layout: each key column's digit, and the slot count —
/// the product of the columns' spans.
#[derive(Debug, Clone)]
struct DenseLayout {
    digits: Vec<Digit>,
    slots: usize,
}

impl DenseLayout {
    /// Add a column whose non-NULL values span `range` (plus a NULL slot
    /// when `nullable`); `None` once the slots pass `limit`.
    fn push(&mut self, range: Option<(i64, i64)>, nullable: bool, limit: u64) -> Option<()> {
        let (min, values) = range.map_or((0, 0), |(lo, hi)| {
            (lo, (hi as i128 - lo as i128 + 1) as u128)
        });
        let slots = self.slots as u128 * (values + nullable as u128).max(1);
        if slots > limit as u128 {
            return None;
        }
        let (null, stride) = (values as u32, self.slots as u32);
        self.digits.push(Digit { min, null, stride });
        self.slots = slots as usize;
        Some(())
    }
}

/// The dense layout of grouping sides that feed one table (a set
/// operation's two inputs), over the rows each side's selection names:
/// `None` unless every column has a dense digit and the spans' product
/// — per column the union of the sides' ranges — is within `limit`.
fn dense_layout(sides: &[(&KeySide<'_>, &SelVec)], limit: u64) -> Option<DenseLayout> {
    let first = sides.first()?.0;
    if !first.null_is_key || first.cols.is_empty() {
        return None;
    }
    let mut layout = DenseLayout {
        digits: Vec::new(),
        slots: 1,
    };
    for c in 0..first.cols.len() {
        let (mut range, mut nullable) = (None::<(i64, i64)>, false);
        for (side, sel) in sides {
            let col = &side.cols[c];
            nullable |= col.nulls.is_some();
            if let Some((lo, hi)) = col.range(sel.as_indices(), sel.len())? {
                range = Some(range.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        }
        layout.push(range, nullable, limit)?;
    }
    Some(layout)
}

/// `f(slot, batch row)` for selected positions `lo..lo + n`.
#[inline]
fn for_rows(sel: &SelVec, lo: usize, n: usize, f: impl FnMut(usize, usize)) {
    for_idx(sel.as_indices(), lo, n, f)
}

/// [`for_rows`] over a selection's indices (`None`: every row).
#[inline]
fn for_idx(idx: Option<&[u32]>, lo: usize, n: usize, mut f: impl FnMut(usize, usize)) {
    match idx {
        None => (0..n).for_each(|s| f(s, lo + s)),
        Some(idx) => idx[lo..lo + n]
            .iter()
            .enumerate()
            .for_each(|(s, &i)| f(s, i as usize)),
    }
}

/// Append the canonical encoding of column cell `(col, i)` when it is
/// non-NULL; `false` (nothing appended) for NULL. Typed per-variant
/// access: string cells fold their bytes without materializing a
/// `Value`, and a `Dict` column that is not keyed by code encodes the
/// referenced entry — the bytes its decoded `Str` twin produces.
#[inline]
pub(crate) fn encode_cell(col: &ColumnVector, i: usize, out: &mut Vec<u8>) -> bool {
    if col.is_null(i) {
        return false;
    }
    match col {
        ColumnVector::Boolean(v, _) => {
            out.push(hash::TAG_BOOL);
            out.push(v[i] as u8);
        }
        ColumnVector::Int(v, _) => hash::encode_i64(v[i] as i64, out),
        ColumnVector::BigInt(v, _) => hash::encode_i64(v[i], out),
        ColumnVector::Double(v, _) => hash::encode_f64(v[i], out),
        ColumnVector::Decimal(v, s, _) => hash::encode_decimal(v.get(i), *s, out),
        ColumnVector::Str(v, _) => hash::encode_str(v[i].as_bytes(), out),
        ColumnVector::Dict { codes, dict, .. } => {
            hash::encode_str(dict[codes[i] as usize].as_bytes(), out)
        }
        ColumnVector::Date(v, _) => hash::encode_date(v[i], out),
        ColumnVector::Timestamp(v, _) => hash::encode_timestamp(v[i], out),
    }
    true
}

/// Borrow shared columns as the plain references the [`KeySide`]
/// constructors take.
pub fn column_refs(cols: &[Arc<ColumnVector>]) -> Vec<&ColumnVector> {
    cols.iter().map(|c| c.as_ref()).collect()
}

/// Rows per [`KeySide::key_chunks`] chunk: packed keys of 128 KiB, or
/// byte keys of around a megabyte — inside the L2 cache either way.
const KEY_CHUNK: usize = 16 * 1024;

/// Where a column sits in the packed word.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shift: u32,
    /// The column's NULL bit, when NULL is a key and a side has a mask.
    null_bit: Option<u32>,
}

/// One input's key columns, classified against the other input's (if
/// any): what [`KeySide::keys`] turns row ranges into keys with.
#[derive(Debug, Clone)]
pub struct KeySide<'a> {
    cols: Vec<KeyCol<'a>>,
    slots: Vec<Slot>,
    shape: Shape,
    /// GROUP BY semantics (NULL is a key) rather than join semantics (a
    /// NULL key part excludes the row).
    null_is_key: bool,
    /// The dense kind's layout, when the side took it.
    dense: Option<DenseLayout>,
}

impl<'a> KeySide<'a> {
    fn pair(
        left: &[&'a ColumnVector],
        right: &[&'a ColumnVector],
        join: bool,
    ) -> (KeySide<'a>, KeySide<'a>) {
        let (lcols, rcols): (Vec<_>, Vec<_>) = left
            .iter()
            .zip(right)
            .map(|(l, r)| KeyCol::pair(l, r, join))
            .unzip();
        // One layout for both sides: a column's width is a property of
        // the pair, its NULL bit exists if either side has a mask.
        let mut slots = Vec::with_capacity(lcols.len());
        let mut bits = Some(0u32);
        for (l, r) in lcols.iter().zip(&rcols) {
            let mut slot = Slot {
                shift: bits.unwrap_or(0),
                null_bit: None,
            };
            bits = bits.zip(l.width()).map(|(at, w)| at + w);
            if !join && (l.nulls.is_some() || r.nulls.is_some()) {
                slot.null_bit = bits;
                bits = bits.map(|at| at + 1);
            }
            slots.push(slot);
        }
        let shape = match bits {
            _ if lcols.is_empty() => Shape::None,
            Some(0..=64) => Shape::W64,
            Some(65..=128) => Shape::W128,
            _ => Shape::Bytes,
        };
        let side = |cols| KeySide {
            cols,
            slots: slots.clone(),
            shape,
            null_is_key: !join,
            dense: None,
        };
        (side(lcols), side(rcols))
    }

    /// A join's key columns, pairwise: `(probe side, build side)`.
    pub fn join_pair(
        probe: &[&'a ColumnVector],
        build: &[&'a ColumnVector],
    ) -> (KeySide<'a>, KeySide<'a>) {
        KeySide::pair(probe, build, true)
    }

    /// Two inputs keyed into one table with grouping semantics (a set
    /// operation's whole rows), in the dense kind when all the rows of
    /// both allow it: each column's span covers both inputs.
    pub fn group_pair(
        left: &[&'a ColumnVector],
        right: &[&'a ColumnVector],
    ) -> (KeySide<'a>, KeySide<'a>) {
        let (l, r) = KeySide::pair(left, right, false);
        let all = |cols: &[&ColumnVector]| SelVec::all(cols.first().map_or(0, |c| c.len()));
        let (ls, rs) = (all(left), all(right));
        let layout = dense_layout(&[(&l, &ls), (&r, &rs)], dense_limit(ls.len() + rs.len()));
        (l.with_dense(layout.clone()), r.with_dense(layout))
    }

    /// One input's grouping columns (GROUP BY, window partitions), their
    /// shape chosen by the columns alone; see [`KeySide::dense_over`].
    pub fn group(cols: &[&'a ColumnVector]) -> KeySide<'a> {
        KeySide::pair(cols, cols, false).0
    }

    /// This grouping side in the dense kind when the content of the rows
    /// of `sel` allows it (see the module docs); as it is otherwise.
    pub fn dense_over(self, sel: &SelVec) -> KeySide<'a> {
        let layout = dense_layout(&[(&self, sel)], dense_limit(sel.len()));
        self.with_dense(layout)
    }

    /// The DISTINCT filter's dense form: the slots of all `n` rows and
    /// the slot count, when one bit a slot fits the grouper's byte budget
    /// ([`dense_limit`] `u32` slots).
    pub(crate) fn bit_slots(&self, n: usize) -> Option<(Vec<u32>, usize)> {
        let all = SelVec::All(n);
        let bits = (32 * dense_limit(n)).min(VACANT as u64);
        let layout = dense_layout(&[(self, &all)], bits)?;
        let slots = layout.slots;
        match self.clone().with_dense(Some(layout)).keys(&all, 0, n) {
            RowKeys::Dense(keys) => Some((keys, slots)),
            _ => None,
        }
    }

    fn with_dense(mut self, layout: Option<DenseLayout>) -> KeySide<'a> {
        if layout.is_some() {
            (self.shape, self.dense) = (Shape::Dense, layout);
        }
        self
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// How a table over this side's keys finds them.
    pub fn kind(&self) -> IndexKind {
        match self.shape {
            Shape::None => IndexKind::Keyless,
            Shape::Dense => IndexKind::Dense,
            _ => IndexKind::Hashed,
        }
    }

    pub(crate) fn cols(&self) -> &[KeyCol<'a>] {
        &self.cols
    }

    /// The keys of selected positions `lo..hi` of `sel`.
    pub fn keys(&self, sel: &SelVec, lo: usize, hi: usize) -> RowKeys {
        match self.shape {
            Shape::None => RowKeys::None(hi - lo),
            Shape::Dense => {
                let mut slots = vec![0u32; hi - lo];
                let digits = self.dense.iter().flat_map(|l| &l.digits);
                for (col, &d) in self.cols.iter().zip(digits) {
                    col.add_digits(&mut slots, sel.as_indices(), lo, d);
                }
                RowKeys::Dense(slots)
            }
            Shape::W64 => RowKeys::W64(self.pack(sel, lo, hi)),
            Shape::W128 => RowKeys::W128(self.pack(sel, lo, hi)),
            Shape::Bytes => RowKeys::Bytes(self.encode(sel, lo, hi)),
        }
    }

    /// The keys of selected positions `lo..hi`, a chunk at a time:
    /// `f(chunk start, the chunk's keys)`, ascending. What a serial
    /// consumer uses instead of [`KeySide::keys`] over the whole range:
    /// the keys it is inserting or probing stay cache-resident, and no
    /// range-sized key array is ever allocated.
    pub fn key_chunks(
        &self,
        sel: &SelVec,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(usize, &RowKeys) -> Result<()>,
    ) -> Result<()> {
        (lo..hi)
            .step_by(KEY_CHUNK)
            .try_for_each(|at| f(at, &self.keys(sel, at, (at + KEY_CHUNK).min(hi))))
    }

    /// The keys of every selected position, prepared in row-range
    /// chunks (of a morsel at least) across `workers`. With more than one
    /// partition each chunk also [`partition`]s its own rows while its
    /// keys are cache-resident: the runs come back in chunk order (none
    /// for a single partition), beside the wall nanoseconds the chunks
    /// spent on keys and on the scatter, summed.
    pub(crate) fn keys_par(
        &self,
        sel: &SelVec,
        workers: usize,
        nparts: usize,
    ) -> Result<(RowKeys, Vec<Runs>, [u64; 2])> {
        let n = sel.len();
        let chunk = n.div_ceil(workers.max(1)).max(crate::par::ROWS_PER_MORSEL);
        let nchunks = if workers <= 1 {
            1
        } else {
            n.div_ceil(chunk).max(1)
        };
        let chunk = n.div_ceil(nchunks);
        let chunks = crate::par::parallel_map(workers, nchunks, |c| {
            let (lo, mut clock) = (c * chunk, std::time::Instant::now());
            let keys = self.keys(sel, lo, ((c + 1) * chunk).min(n));
            let keys_ns = crate::join::lap(&mut clock);
            let runs = (nparts > 1).then(|| partition(&keys, lo, nparts));
            Ok((keys, runs, [keys_ns, crate::join::lap(&mut clock)]))
        })?;
        let mut all: Option<RowKeys> = None;
        let (mut runs, mut ns) = (Vec::with_capacity(chunks.len()), [0u64; 2]);
        for (keys, r, [k, s]) in chunks {
            runs.extend(r);
            (ns[0], ns[1]) = (ns[0] + k, ns[1] + s);
            match &mut all {
                Some(all) => all.append(keys)?,
                None => all = Some(keys),
            }
        }
        Ok((all.unwrap_or(RowKeys::None(0)), runs, ns))
    }

    fn pack<K: Word>(&self, sel: &SelVec, lo: usize, hi: usize) -> WordKeys<K> {
        let mut keys = vec![K::default(); hi - lo];
        let mut skip = None;
        for (col, slot) in self.cols.iter().zip(&self.slots) {
            col.pack(&mut keys, &mut skip, sel, lo, *slot);
        }
        WordKeys { keys, skip }
    }

    fn encode(&self, sel: &SelVec, lo: usize, hi: usize) -> ByteKeys {
        let n = hi - lo;
        let mut out = ByteKeys {
            hashes: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            arena: Vec::new(),
            skip: None,
        };
        for_rows(sel, lo, n, |s, i| {
            let start = out.arena.len();
            let mut keyed = true;
            for col in &self.cols {
                if !col.encode(i, &mut out.arena) {
                    if self.null_is_key {
                        out.arena.push(hash::TAG_NULL);
                    } else {
                        keyed = false;
                        break;
                    }
                }
            }
            if !keyed {
                out.arena.truncate(start);
                out.skip.get_or_insert_with(|| vec![false; n])[s] = true;
            }
            out.hashes.push(fnv1a(&out.arena[start..]));
            out.ends.push(out.arena.len());
        });
        out
    }
}

/// Packed keys of a row range, with the rows a join excludes (a NULL
/// key part, a probe entry the build dictionary lacks) marked beside
/// them. The hash is a function of the word and is computed where it is
/// used.
#[derive(Debug, Clone)]
pub struct WordKeys<K> {
    keys: Vec<K>,
    skip: Option<Vec<bool>>,
}

/// Canonical key bytes of a row range, each row encoded once: FNV-1a
/// hash, arena slice, and the excluded rows marked.
#[derive(Debug, Clone)]
pub struct ByteKeys {
    hashes: Vec<u64>,
    /// Per row: end offset of its key in `arena`.
    ends: Vec<usize>,
    arena: Vec<u8>,
    skip: Option<Vec<bool>>,
}

impl ByteKeys {
    #[inline]
    fn key(&self, r: usize) -> &[u8] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.arena[start..self.ends[r]]
    }
}

#[inline]
fn skipped(skip: &Option<Vec<bool>>, r: usize) -> bool {
    skip.as_ref().is_some_and(|s| s[r])
}

/// The keys of a row range, in the shape its [`KeySide`] chose.
#[derive(Debug, Clone)]
pub enum RowKeys {
    /// No key columns: this many rows, all with the one empty key.
    None(usize),
    /// The dense kind: each row's slot.
    Dense(Vec<u32>),
    W64(WordKeys<u64>),
    W128(WordKeys<u128>),
    Bytes(ByteKeys),
}

impl RowKeys {
    pub fn len(&self) -> usize {
        match self {
            RowKeys::None(n) => *n,
            RowKeys::Dense(slots) => slots.len(),
            RowKeys::W64(k) => k.keys.len(),
            RowKeys::W128(k) => k.keys.len(),
            RowKeys::Bytes(k) => k.hashes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn shape(&self) -> Shape {
        match self {
            RowKeys::None(_) => Shape::None,
            RowKeys::Dense(_) => Shape::Dense,
            RowKeys::W64(_) => Shape::W64,
            RowKeys::W128(_) => Shape::W128,
            RowKeys::Bytes(_) => Shape::Bytes,
        }
    }

    /// Row `r`'s key hash; `None` when a join excludes the row. (The
    /// dense kind's is its slot's: [`partition`] routes on the slot.)
    #[inline]
    pub fn hash(&self, r: usize) -> Option<u64> {
        match self {
            RowKeys::None(_) => Some(0),
            RowKeys::Dense(slots) => Some(mix(slots[r] as u64)),
            RowKeys::W64(k) => (!skipped(&k.skip, r)).then(|| k.keys[r].hash()),
            RowKeys::W128(k) => (!skipped(&k.skip, r)).then(|| k.keys[r].hash()),
            RowKeys::Bytes(k) => (!skipped(&k.skip, r)).then(|| k.hashes[r]),
        }
    }

    /// Row `r`'s canonical key bytes on the bytes shape (`None` on the
    /// others, and for an excluded row).
    pub fn bytes(&self, r: usize) -> Option<&[u8]> {
        match self {
            RowKeys::Bytes(k) if !skipped(&k.skip, r) => Some(k.key(r)),
            _ => None,
        }
    }

    /// Append the keys of the row range that follows this one (of the
    /// same [`KeySide`]).
    fn append(&mut self, more: RowKeys) -> Result<()> {
        match (self, more) {
            (RowKeys::None(n), RowKeys::None(m)) => *n += m,
            (RowKeys::Dense(a), RowKeys::Dense(b)) => a.extend(b),
            (RowKeys::W64(a), RowKeys::W64(b)) => a.append(b),
            (RowKeys::W128(a), RowKeys::W128(b)) => a.append(b),
            (RowKeys::Bytes(a), RowKeys::Bytes(b)) => {
                append_skips(&mut a.skip, a.hashes.len(), b.skip, b.hashes.len());
                let base = a.arena.len();
                a.hashes.extend(b.hashes);
                a.ends.extend(b.ends.iter().map(|end| base + end));
                a.arena.extend(b.arena);
            }
            (_, more) => return Err(shape_mismatch(more.shape())),
        }
        Ok(())
    }
}

impl<K: Word> WordKeys<K> {
    fn append(&mut self, more: WordKeys<K>) {
        append_skips(&mut self.skip, self.keys.len(), more.skip, more.keys.len());
        self.keys.extend(more.keys);
    }
}

/// Extend the excluded-row marks of `have` rows with those of the
/// `adding` rows that follow; absent marks mean no row is excluded.
fn append_skips(skip: &mut Option<Vec<bool>>, have: usize, more: Option<Vec<bool>>, adding: usize) {
    if skip.is_some() || more.is_some() {
        let all = skip.get_or_insert_with(|| vec![false; have]);
        match more {
            Some(more) => all.extend(more),
            None => all.resize(have + adding, false),
        }
    }
}

const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Bucket<K> {
    key: K,
    /// Entry id; [`VACANT`] marks an empty bucket.
    entry: u32,
    /// The hash's low half, which is all the bucket index ever uses:
    /// growth re-places buckets from it, keys are never re-hashed.
    hash: u32,
}

/// Open-addressing table from packed keys to dense entry ids (`0..len`
/// in insertion order), linear probing. The bucket carries the key, so a
/// lookup that hits its home bucket touches one cache line.
#[derive(Debug, Clone)]
pub struct WordTable<K> {
    buckets: Vec<Bucket<K>>,
    mask: usize,
    len: u32,
}

impl<K: Word> Default for WordTable<K> {
    fn default() -> Self {
        WordTable {
            buckets: Vec::new(),
            mask: 0,
            len: 0,
        }
    }
}

impl<K: Word> WordTable<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look `key` up by its hash.
    #[inline]
    pub fn find(&self, hash: u64, key: K) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut b = hash as u32 as usize & self.mask;
        loop {
            let bucket = &self.buckets[b];
            if bucket.entry == VACANT {
                return None;
            }
            if bucket.key == key {
                return Some(bucket.entry);
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Find `key` or insert it: `(entry id, inserted)`.
    #[inline]
    pub fn insert(&mut self, hash: u64, key: K) -> (u32, bool) {
        // Load stays ≤ 7/8, so the probe always meets a vacant bucket.
        if (self.len as usize + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
        }
        let mut b = hash as u32 as usize & self.mask;
        loop {
            let bucket = &mut self.buckets[b];
            if bucket.entry == VACANT {
                *bucket = Bucket {
                    key,
                    entry: self.len,
                    hash: hash as u32,
                };
                self.len += 1;
                return (bucket.entry, true);
            }
            if bucket.key == key {
                return (bucket.entry, false);
            }
            b = (b + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let vacant = Bucket {
            key: K::default(),
            entry: VACANT,
            hash: 0,
        };
        let size = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![vacant; size]);
        self.mask = size - 1;
        for bucket in old.into_iter().filter(|b| b.entry != VACANT) {
            let mut b = bucket.hash as usize & self.mask;
            while self.buckets[b].entry != VACANT {
                b = (b + 1) & self.mask;
            }
            self.buckets[b] = bucket;
        }
    }
}

/// A table over one shape's keys — what lets the group and join loops
/// below be written once and compiled per shape.
trait KeyTable: Default + Send + Sync {
    type Keys: Sync;
    fn rows(keys: &Self::Keys) -> usize;
    fn skip(keys: &Self::Keys, r: usize) -> bool;
    fn hash(keys: &Self::Keys, r: usize) -> u64;
    fn entries(&self) -> usize;
    fn insert_row(&mut self, keys: &Self::Keys, r: usize, hash: u64) -> (u32, bool);
    fn find_row(&self, keys: &Self::Keys, r: usize, hash: u64) -> Option<u32>;
}

impl<K: Word> KeyTable for WordTable<K> {
    type Keys = WordKeys<K>;
    #[inline]
    fn rows(keys: &WordKeys<K>) -> usize {
        keys.keys.len()
    }
    #[inline]
    fn skip(keys: &WordKeys<K>, r: usize) -> bool {
        skipped(&keys.skip, r)
    }
    #[inline]
    fn hash(keys: &WordKeys<K>, r: usize) -> u64 {
        keys.keys[r].hash()
    }
    fn entries(&self) -> usize {
        self.len()
    }
    #[inline]
    fn insert_row(&mut self, keys: &WordKeys<K>, r: usize, hash: u64) -> (u32, bool) {
        self.insert(hash, keys.keys[r])
    }
    #[inline]
    fn find_row(&self, keys: &WordKeys<K>, r: usize, hash: u64) -> Option<u32> {
        self.find(hash, keys.keys[r])
    }
}

impl KeyTable for RawTable {
    type Keys = ByteKeys;
    #[inline]
    fn rows(keys: &ByteKeys) -> usize {
        keys.hashes.len()
    }
    #[inline]
    fn skip(keys: &ByteKeys, r: usize) -> bool {
        skipped(&keys.skip, r)
    }
    #[inline]
    fn hash(keys: &ByteKeys, r: usize) -> u64 {
        keys.hashes[r]
    }
    fn entries(&self) -> usize {
        self.len()
    }
    #[inline]
    fn insert_row(&mut self, keys: &ByteKeys, r: usize, hash: u64) -> (u32, bool) {
        self.insert(hash, keys.key(r))
    }
    #[inline]
    fn find_row(&self, keys: &ByteKeys, r: usize, hash: u64) -> Option<u32> {
        self.find(hash, keys.key(r))
    }
}

/// Insert the keyed rows of `keys` — or only `rows`, a run of keyed
/// rows — in order, telling `visit` each one's `(row, entry, newly
/// inserted)`.
#[inline]
fn assign_rows<T: KeyTable>(
    table: &mut T,
    keys: &T::Keys,
    rows: Option<&[u32]>,
    mut visit: impl FnMut(usize, u32, bool),
) {
    let mut insert = |r: usize| {
        let (e, new) = table.insert_row(keys, r, T::hash(keys, r));
        visit(r, e, new);
    };
    match rows {
        Some(rows) => rows.iter().for_each(|&r| insert(r as usize)),
        None => (0..T::rows(keys))
            .filter(|&r| !T::skip(keys, r))
            .for_each(insert),
    }
}

fn shape_mismatch(keys: Shape) -> HiveError {
    HiveError::Execution(format!(
        "{keys:?} keys offered to a key table of another shape"
    ))
}

/// Groups rows by key: dense group ids in first-seen order. One
/// `Grouper` may take several [`RowKeys`] of one [`KeySide`]'s shape in
/// turn (a set operation's right input, then its left).
#[derive(Debug)]
pub struct Grouper(Groups);

#[derive(Debug)]
enum Groups {
    /// No key columns: one group, once a row arrived.
    None {
        seen: bool,
    },
    /// The dense kind: `ids[slot >> shift]` is the slot's group,
    /// [`VACANT`] until first seen.
    Dense {
        ids: Vec<u32>,
        len: u32,
        shift: u32,
    },
    W64(WordTable<u64>),
    W128(WordTable<u128>),
    Bytes(RawTable),
}

impl Grouper {
    /// A table for the keys of `side`, or — given `nparts` partitions, a
    /// power of two — for one partition's: a dense partition's slots `s`
    /// share `s mod nparts` ([`partition`]), and it indexes `s / nparts`.
    pub fn new(side: &KeySide<'_>, nparts: usize) -> Grouper {
        let shift = nparts.max(1).trailing_zeros();
        Grouper(match side.shape {
            Shape::None => Groups::None { seen: false },
            Shape::Dense => {
                let slots = side.dense.as_ref().map_or(0, |l| l.slots);
                let ids = vec![VACANT; (slots >> shift) + 1];
                Groups::Dense { ids, len: 0, shift }
            }
            Shape::W64 => Groups::W64(WordTable::new()),
            Shape::W128 => Groups::W128(WordTable::new()),
            Shape::Bytes => Groups::Bytes(RawTable::new()),
        })
    }

    /// For every keyed row of `keys` — or every row of `rows`, one
    /// [`partition`] run of them — in order: `visit(row, group, first of
    /// its group)`.
    pub fn assign(
        &mut self,
        keys: &RowKeys,
        rows: Option<&[u32]>,
        mut visit: impl FnMut(usize, u32, bool),
    ) -> Result<()> {
        match (&mut self.0, keys) {
            (Groups::None { seen }, RowKeys::None(n)) => {
                let mut one = |r: usize| visit(r, 0, !std::mem::replace(seen, true));
                match rows {
                    Some(rows) => rows.iter().for_each(|&r| one(r as usize)),
                    None => (0..*n).for_each(one),
                }
            }
            (Groups::Dense { ids, len, shift }, RowKeys::Dense(slots)) => {
                let mut one = |r: usize| {
                    let id = &mut ids[(slots[r] >> *shift) as usize];
                    let new = *id == VACANT;
                    if new {
                        (*id, *len) = (*len, *len + 1);
                    }
                    visit(r, *id, new);
                };
                match rows {
                    Some(rows) => rows.iter().for_each(|&r| one(r as usize)),
                    None => (0..slots.len()).for_each(one),
                }
            }
            (Groups::W64(t), RowKeys::W64(k)) => assign_rows(t, k, rows, visit),
            (Groups::W128(t), RowKeys::W128(k)) => assign_rows(t, k, rows, visit),
            (Groups::Bytes(t), RowKeys::Bytes(k)) => assign_rows(t, k, rows, visit),
            (_, keys) => return Err(shape_mismatch(keys.shape())),
        }
        Ok(())
    }
}

/// One build partition of a join: its keys' table and, per entry, the
/// build rows carrying that key in ascending position — entry `e`'s
/// candidates are `rows[starts[e]..starts[e + 1]]`.
#[derive(Debug)]
struct JoinPart<T> {
    table: T,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl<T: KeyTable> JoinPart<T> {
    /// Index the keyed rows of `keys`, or — for partition `p` of a
    /// partitioned build — partition `p`'s run of every chunk, in chunk
    /// order.
    fn build(keys: &T::Keys, runs: Option<(&[Runs], usize)>) -> JoinPart<T> {
        let mut table = T::default();
        let (mut rows, mut entry_of) = (Vec::new(), Vec::new());
        let mut record = |r: usize, e: u32, _| {
            rows.push(r as u32);
            entry_of.push(e);
        };
        match runs {
            Some((runs, p)) => {
                for run in runs {
                    assign_rows(&mut table, keys, Some(run.run(p)), &mut record);
                }
            }
            None => assign_rows(&mut table, keys, None, record),
        }
        let entries = table.entries();
        // Unique keys (a dimension's primary key): entry e is row e of
        // the inserted rows already.
        if entries == rows.len() {
            return JoinPart {
                table,
                starts: (0..=entries as u32).collect(),
                rows,
            };
        }
        // Counting sort by entry; stable, so each entry's rows stay in
        // ascending position.
        let mut starts = vec![0u32; entries + 1];
        for &e in &entry_of {
            starts[e as usize + 1] += 1;
        }
        for e in 0..entries {
            starts[e + 1] += starts[e];
        }
        let mut next = starts.clone();
        let mut sorted = vec![0u32; rows.len()];
        for (&r, &e) in rows.iter().zip(&entry_of) {
            sorted[next[e as usize] as usize] = r;
            next[e as usize] += 1;
        }
        JoinPart {
            table,
            starts,
            rows: sorted,
        }
    }

    #[inline]
    fn candidates(&self, entry: Option<u32>) -> &[u32] {
        match entry {
            Some(e) => {
                let e = e as usize;
                &self.rows[self.starts[e] as usize..self.starts[e + 1] as usize]
            }
            None => &[],
        }
    }
}

/// Probe rows are looked up a block at a time, ahead of being emitted:
/// the lookups of a block are independent loads the CPU overlaps, which
/// the per-row emit work between them would otherwise serialize.
const PROBE_BLOCK: usize = 64;

/// Walk the probe rows of `keys` a [`PROBE_BLOCK`] at a time: look the
/// block's rows up, then `walk(first row of the block, each row's
/// partition and entry)` — `None` for a row the join excludes or a key
/// no partition has.
fn probe_parts<T: KeyTable>(
    parts: &[JoinPart<T>],
    keys: &T::Keys,
    mut walk: impl FnMut(usize, &[(u32, Option<u32>)]) -> Result<()>,
) -> Result<()> {
    let n = T::rows(keys);
    let mut found: [(u32, Option<u32>); PROBE_BLOCK] = [(0, None); PROBE_BLOCK];
    let mut lo = 0;
    while lo < n {
        let block = (n - lo).min(PROBE_BLOCK);
        for (j, slot) in found[..block].iter_mut().enumerate() {
            let r = lo + j;
            *slot = if T::skip(keys, r) {
                (0, None)
            } else {
                let h = T::hash(keys, r);
                let p = if parts.len() == 1 {
                    0
                } else {
                    route(h, parts.len())
                };
                (p as u32, parts[p].table.find_row(keys, r, h))
            };
        }
        walk(lo, &found[..block])?;
        lo += block;
    }
    Ok(())
}

/// Slots a dense index may spend per keyed row: four `u32` slots are 16
/// bytes, what a [`WordTable`] bucket alone costs.
const DENSE_SLOTS_PER_ROW: u64 = 4;
/// A dense index of up to this many slots (256 KiB) is taken whatever
/// the row count.
const DENSE_MIN_SLOTS: u64 = 1 << 16;

/// The one size rule of a dense index over `rows` keyed rows — a join's
/// unique keys, a grouping side's slots, the DISTINCT filter's bits (32
/// a slot): `max(DENSE_SLOTS_PER_ROW × rows, DENSE_MIN_SLOTS)` slots.
pub(crate) fn dense_limit(rows: usize) -> u64 {
    (DENSE_SLOTS_PER_ROW * rows as u64).clamp(DENSE_MIN_SLOTS, VACANT as u64)
}

/// Unique one-word build keys over a narrow span (a dimension's
/// surrogate key): `slots[key − min]` is the one build row carrying
/// `key`, [`VACANT`] where none does. A probe is a subtraction, a bounds
/// check and one load, with no hash.
#[derive(Debug)]
struct Dense {
    min: u64,
    slots: Vec<u32>,
}

impl Dense {
    /// The dense index of the keyed rows of `keys`, or `None` when there
    /// are none, a key repeats, or their span is wider than
    /// [`dense_limit`] slots.
    fn build(keys: &WordKeys<u64>) -> Option<Dense> {
        let keyed = || (0..keys.keys.len()).filter(|&r| !skipped(&keys.skip, r));
        let (mut min, mut max, mut rows) = (u64::MAX, 0u64, 0u64);
        for r in keyed() {
            let k = keys.keys[r];
            min = min.min(k);
            max = max.max(k);
            rows += 1;
        }
        if rows == 0 {
            return None;
        }
        let span = (max - min).saturating_add(1);
        if span > dense_limit(rows as usize) {
            return None;
        }
        let mut slots = vec![VACANT; span as usize];
        for r in keyed() {
            let slot = &mut slots[(keys.keys[r] - min) as usize];
            if *slot != VACANT {
                return None;
            }
            *slot = r as u32;
        }
        Some(Dense { min, slots })
    }

    /// Probe row `r`'s candidate list: its build row, or none.
    #[inline]
    fn candidates<'s>(&'s self, keys: &WordKeys<u64>, r: usize) -> &'s [u32] {
        if skipped(&keys.skip, r) {
            return &[];
        }
        match self.slots.get(keys.keys[r].wrapping_sub(self.min) as usize) {
            Some(row) if *row != VACANT => std::slice::from_ref(row),
            _ => &[],
        }
    }
}

/// How a [`JoinIndex`] finds a probe key's build rows, and a [`Grouper`]
/// a row's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// No key columns: every probe row's candidates are all build rows,
    /// every grouped row is in the one group.
    #[default]
    Keyless,
    /// Addressed directly: a join's unique one-word keys over a narrow
    /// span, a grouping side's slots ([`Shape::Dense`]).
    Dense,
    /// Hash tables, one per build partition.
    Hashed,
}

impl IndexKind {
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Keyless => "keyless",
            IndexKind::Dense => "dense",
            IndexKind::Hashed => "hashed",
        }
    }
}

/// A join's build side: key → the build rows carrying it. Unique
/// one-word keys over a narrow span are an array indexed by key
/// (`Dense`); every other key is hash-partitioned so the partitions
/// build in parallel. A key's rows all land in one partition and each
/// partition inserts in ascending position, so every candidate list is
/// what a serial single-table build produces — and what the dense
/// index holds, one row per key.
#[derive(Debug)]
pub struct JoinIndex(Index);

#[derive(Debug)]
enum Index {
    /// No key columns, no table: every probe row's candidates are all
    /// build rows in order.
    None(Vec<u32>),
    Dense(Dense),
    W64(Vec<JoinPart<WordTable<u64>>>),
    W128(Vec<JoinPart<WordTable<u128>>>),
    Bytes(Vec<JoinPart<RawTable>>),
}

impl JoinIndex {
    /// Index the build side's keys (row `r` of `keys` is build position
    /// `r`) across `workers`: a dense array when the keys allow one
    /// (`Dense::build`), else one table, or — given the [`partition`]
    /// runs of `keys`' chunks, in chunk order — one table per partition.
    pub fn build(keys: &RowKeys, runs: &[Runs], workers: usize) -> Result<JoinIndex> {
        fn parts<T: KeyTable>(
            keys: &T::Keys,
            runs: &[Runs],
            workers: usize,
        ) -> Result<Vec<JoinPart<T>>> {
            let nparts = runs.first().map_or(1, |r| r.starts.len() - 1);
            if nparts <= 1 {
                return Ok(vec![JoinPart::build(keys, None)]);
            }
            crate::par::parallel_map(workers, nparts, |p| {
                Ok(JoinPart::build(keys, Some((runs, p))))
            })
        }
        Ok(JoinIndex(match keys {
            RowKeys::None(n) => Index::None((0..*n as u32).collect()),
            RowKeys::W64(k) => match Dense::build(k) {
                Some(dense) => Index::Dense(dense),
                None => Index::W64(parts(k, runs, workers)?),
            },
            RowKeys::W128(k) => Index::W128(parts(k, runs, workers)?),
            RowKeys::Bytes(k) => Index::Bytes(parts(k, runs, workers)?),
            RowKeys::Dense(_) => return Err(shape_mismatch(Shape::Dense)),
        }))
    }

    /// How this index finds a key's build rows.
    pub fn kind(&self) -> IndexKind {
        match &self.0 {
            Index::None(_) => IndexKind::Keyless,
            Index::Dense(_) => IndexKind::Dense,
            _ => IndexKind::Hashed,
        }
    }

    /// Hash partitions the index was built in (1 for the keyless and
    /// dense kinds).
    pub fn partitions(&self) -> usize {
        match &self.0 {
            Index::None(_) | Index::Dense(_) => 1,
            Index::W64(p) => p.len(),
            Index::W128(p) => p.len(),
            Index::Bytes(p) => p.len(),
        }
    }

    /// For each row of the probe keys, ascending: `visit(row, the build
    /// positions carrying its key, ascending)` — none for a row the join
    /// excludes. What a join with a residual filters candidates through.
    pub fn probe<'s>(
        &'s self,
        keys: &RowKeys,
        mut visit: impl FnMut(usize, &'s [u32]) -> Result<()>,
    ) -> Result<()> {
        fn each<'s, T: KeyTable>(
            parts: &'s [JoinPart<T>],
            keys: &T::Keys,
            visit: &mut impl FnMut(usize, &'s [u32]) -> Result<()>,
        ) -> Result<()> {
            probe_parts(parts, keys, |lo, block| {
                (block.iter().enumerate())
                    .try_for_each(|(j, &(p, e))| visit(lo + j, parts[p as usize].candidates(e)))
            })
        }
        match (&self.0, keys) {
            (Index::None(all), RowKeys::None(n)) => (0..*n).try_for_each(|r| visit(r, all)),
            (Index::Dense(d), RowKeys::W64(k)) => {
                (0..k.keys.len()).try_for_each(|r| visit(r, d.candidates(k, r)))
            }
            (Index::W64(parts), RowKeys::W64(k)) => each(parts, k, &mut visit),
            (Index::W128(parts), RowKeys::W128(k)) => each(parts, k, &mut visit),
            (Index::Bytes(parts), RowKeys::Bytes(k)) => each(parts, k, &mut visit),
            (_, keys) => Err(shape_mismatch(keys.shape())),
        }
    }

    /// Probe every row of `keys` — probe positions `at..` — and append
    /// its output rows by `join_type`'s rule straight into `out`, in
    /// probe order: what a join without a residual runs, one loop per
    /// index kind and join type with no per-row callback.
    pub(crate) fn probe_into(
        &self,
        keys: &RowKeys,
        at: u32,
        join_type: JoinType,
        out: &mut ProbeOut,
    ) -> Result<()> {
        fn blocks<T: KeyTable>(
            parts: &[JoinPart<T>],
            keys: &T::Keys,
            at: u32,
            join_type: JoinType,
            out: &mut ProbeOut,
        ) -> Result<()> {
            probe_parts(parts, keys, |lo, block| {
                emit_rows(join_type, at + lo as u32, block.len(), out, |j| {
                    let (p, e) = block[j];
                    parts[p as usize].candidates(e)
                });
                Ok(())
            })
        }
        match (&self.0, keys) {
            (Index::None(all), RowKeys::None(n)) => {
                emit_rows(join_type, at, *n, out, |_| all);
                Ok(())
            }
            (Index::Dense(d), RowKeys::W64(k)) => {
                emit_rows(join_type, at, k.keys.len(), out, |r| d.candidates(k, r));
                Ok(())
            }
            (Index::W64(parts), RowKeys::W64(k)) => blocks(parts, k, at, join_type, out),
            (Index::W128(parts), RowKeys::W128(k)) => blocks(parts, k, at, join_type, out),
            (Index::Bytes(parts), RowKeys::Bytes(k)) => blocks(parts, k, at, join_type, out),
            (_, keys) => Err(shape_mismatch(keys.shape())),
        }
    }
}

/// The values a DISTINCT aggregate has seen, deduplicated by canonical
/// encoding — values arrive one at a time rather than column-wise, so
/// this is the bytes shape row by row. Encoding equality is the
/// engine's grouping equality: every `NaN` of one bit pattern is one
/// value, `0.0` and `-0.0` are one value, an integral DOUBLE is its
/// integer.
#[derive(Debug, Clone, Default)]
pub struct ValueSet {
    table: RawTable,
    scratch: Vec<u8>,
}

impl ValueSet {
    /// Add `v`; true when it was not in the set.
    pub fn insert(&mut self, v: &Value) -> bool {
        self.scratch.clear();
        hash::encode_value(v, &mut self.scratch);
        self.table.insert(fnv1a(&self.scratch), &self.scratch).1
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_table_ids_are_dense_and_survive_growth() {
        let mut t = WordTable::<u64>::new();
        for n in 0..5000u64 {
            let key = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(t.insert(key.hash(), key), (n as u32, true));
        }
        for n in 0..5000u64 {
            let key = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(t.insert(key.hash(), key), (n as u32, false));
            assert_eq!(t.find(key.hash(), key), Some(n as u32));
        }
        assert_eq!(t.len(), 5000);
        assert_eq!(t.find(7u64.hash(), 7), None);
        assert_eq!(WordTable::<u128>::new().find(0, 0), None);
    }

    #[test]
    fn cell_encoding_matches_value_encoding() {
        // The typed per-variant arms must produce the bytes of the
        // scalar `encode_value` they bypass.
        let mut nulls = BitSet::new(3);
        nulls.set(1);
        let cols = vec![
            ColumnVector::Int(vec![7, 0, -3], Some(nulls.clone())),
            ColumnVector::Str(
                vec!["a".into(), String::new(), "bc".into()],
                Some(nulls.clone()),
            ),
            ColumnVector::Double(vec![2.5, 0.0, 42.0], Some(nulls.clone())),
            ColumnVector::Decimal(vec![25i128, 0, 4200].into(), 2, Some(nulls.clone())),
            ColumnVector::Date(vec![0, 1, -40], Some(nulls.clone())),
            ColumnVector::Timestamp(vec![0, 1, 86_400_000_000], Some(nulls.clone())),
            ColumnVector::Boolean(vec![true, false, false], Some(nulls)),
            ColumnVector::dict_from_codes(
                vec![1, 0, 1],
                Arc::new(vec!["x".into(), "yz".into()]),
                None,
            )
            .unwrap(),
        ];
        for col in &cols {
            for i in 0..3 {
                let (mut fast, mut oracle) = (Vec::new(), Vec::new());
                if !encode_cell(col, i, &mut fast) {
                    fast.push(hash::TAG_NULL);
                }
                hash::encode_value(&col.get(i), &mut oracle);
                assert_eq!(fast, oracle, "{col:?} row {i}");
            }
        }
    }

    #[test]
    fn shapes_follow_the_columns() {
        let int = ColumnVector::Int(vec![1, 2], None);
        let big = ColumnVector::BigInt(vec![1, 2], None);
        let mut mask = BitSet::new(2);
        mask.set(0);
        let nullable = ColumnVector::Int(vec![0, 2], Some(mask));
        let text = ColumnVector::Str(vec!["a".into(), "b".into()], None);
        let dict = |entries: &[&str]| {
            let d = Arc::new(entries.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            ColumnVector::dict_from_codes(vec![0, 1], d, None).unwrap()
        };
        let (codes, dups) = (dict(&["x", "y", "z"]), dict(&["x", "x"]));
        let shape = |cols: &[&ColumnVector]| KeySide::group(cols).shape();
        assert_eq!(shape(&[]), Shape::None);
        assert_eq!(shape(&[&int]), Shape::W64);
        assert_eq!(shape(&[&int, &int]), Shape::W64);
        assert_eq!(shape(&[&big]), Shape::W64);
        // A NULL bit makes it 65.
        assert_eq!(shape(&[&int, &nullable]), Shape::W128);
        assert_eq!(shape(&[&big, &int, &codes]), Shape::W128);
        assert_eq!(shape(&[&big, &big, &int]), Shape::Bytes);
        assert_eq!(shape(&[&int, &text]), Shape::Bytes);
        assert_eq!(shape(&[&codes, &codes, &codes]), Shape::W64);
        assert_eq!(shape(&[&dups]), Shape::Bytes);
        // A join has no NULL bits and widens INT beside BIGINT.
        let join = |l: &[&ColumnVector], r: &[&ColumnVector]| KeySide::join_pair(l, r).0.shape();
        assert_eq!(join(&[&nullable, &int], &[&int, &nullable]), Shape::W64);
        assert_eq!(join(&[&int, &int], &[&big, &int]), Shape::W128);
        assert_eq!(join(&[&codes], &[&dups]), Shape::W64);
        assert_eq!(join(&[&codes], &[&text]), Shape::Bytes);
        assert_eq!(join(&[], &[]), Shape::None);
    }

    /// One INT key column from optional values.
    fn int_col(vals: &[Option<i32>]) -> ColumnVector {
        let mut nulls = BitSet::new(vals.len());
        for (i, v) in vals.iter().enumerate() {
            if v.is_none() {
                nulls.set(i);
            }
        }
        let any_null = vals.iter().any(Option::is_none);
        ColumnVector::Int(
            vals.iter().map(|v| v.unwrap_or(0)).collect(),
            any_null.then_some(nulls),
        )
    }

    /// The kind [`JoinIndex::build`] picks for `build`, and what the
    /// dense index (when picked) and a hashed one over the same keys
    /// give `probe`: candidate lists, and the output rows of every join
    /// type — which is all a join's bytes are assembled from.
    fn dense_against_hashed(build: &[Option<i32>], probe: &[Option<i32>]) -> IndexKind {
        let (pcol, bcol) = (int_col(probe), int_col(build));
        let (pside, bside) = KeySide::join_pair(&[&pcol], &[&bcol]);
        let bkeys = bside.keys(&SelVec::all(build.len()), 0, build.len());
        let pkeys = pside.keys(&SelVec::all(probe.len()), 0, probe.len());
        let RowKeys::W64(words) = &bkeys else {
            panic!("an INT key is one word");
        };
        let picked = JoinIndex::build(&bkeys, &[], 1).unwrap();
        let hashed = JoinIndex(Index::W64(vec![JoinPart::build(words, None)]));
        let candidates = |index: &JoinIndex| {
            let mut all = Vec::new();
            (index.probe(&pkeys, |r, c| {
                all.push((r, c.to_vec()));
                Ok(())
            }))
            .unwrap();
            all
        };
        assert_eq!(
            candidates(&picked),
            candidates(&hashed),
            "{build:?} / {probe:?}"
        );
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let emitted = |index: &JoinIndex| {
                let mut out = ProbeOut::default();
                index.probe_into(&pkeys, 7, jt, &mut out).unwrap();
                out
            };
            assert_eq!(emitted(&picked), emitted(&hashed), "{jt:?} {build:?}");
        }
        picked.kind()
    }

    /// Is this build's key set one the dense index takes: non-empty,
    /// unique, and spanning at most the size rule's slots (as packed
    /// words — a negative INT packs above every positive one)?
    fn dense_expected(build: &[Option<i32>]) -> bool {
        let words: Vec<u64> = build.iter().flatten().map(|&k| k as u32 as u64).collect();
        let (Some(&min), Some(&max)) = (words.iter().min(), words.iter().max()) else {
            return false;
        };
        let unique = words.iter().collect::<HashSet<_>>().len() == words.len();
        let rule = (DENSE_SLOTS_PER_ROW * words.len() as u64).max(DENSE_MIN_SLOTS);
        unique && max - min < rule
    }

    #[test]
    fn dense_index_edges() {
        let probe: Vec<Option<i32>> = (-3..12).map(Some).chain([None]).collect();
        // Unique, dense, with a NULL: addressed directly.
        let unique = [Some(4), None, Some(1), Some(9), Some(2)];
        assert_eq!(dense_against_hashed(&unique, &probe), IndexKind::Dense);
        // All negative: dense over the packed words too.
        let negative = [Some(-3), Some(-1), Some(-2)];
        assert_eq!(dense_against_hashed(&negative, &probe), IndexKind::Dense);
        // Duplicates fall back to the hashed table.
        let dups = [Some(1), Some(5), Some(1)];
        assert_eq!(dense_against_hashed(&dups, &probe), IndexKind::Hashed);
        // An empty build, and one of NULLs only, index nothing.
        assert_eq!(dense_against_hashed(&[], &probe), IndexKind::Hashed);
        assert_eq!(
            dense_against_hashed(&[None, None], &probe),
            IndexKind::Hashed
        );
        // A span exactly at the rule is dense; one slot over is not.
        let rule = DENSE_MIN_SLOTS as i32;
        let at_rule = [Some(0), Some(rule - 1)];
        assert_eq!(dense_against_hashed(&at_rule, &probe), IndexKind::Dense);
        let over = [Some(0), Some(rule)];
        assert_eq!(dense_against_hashed(&over, &probe), IndexKind::Hashed);
        // Past the minimum, the rule scales with the rows.
        let rows = (DENSE_MIN_SLOTS / DENSE_SLOTS_PER_ROW) as i32 + 10;
        let span = rows * DENSE_SLOTS_PER_ROW as i32;
        let mut wide: Vec<Option<i32>> = (0..rows - 1).map(Some).collect();
        wide.push(Some(span - 1));
        assert_eq!(dense_against_hashed(&wide, &probe), IndexKind::Dense);
        *wide.last_mut().unwrap() = Some(span);
        assert_eq!(dense_against_hashed(&wide, &probe), IndexKind::Hashed);
    }

    proptest::proptest! {
        /// Over random builds — unique or not, NULLs, keys around zero
        /// so some spans straddle the sign — the picked index and the
        /// hashed one agree on every candidate list and every join
        /// type's output, and the dense kind is picked exactly when the
        /// size rule allows it.
        #[test]
        fn dense_and_hashed_indexes_agree(
            base in -40i32..40,
            keys in proptest::collection::vec(proptest::option::of(0i32..60), 0..50),
            unique in proptest::arbitrary::any::<bool>(),
            probe in proptest::collection::vec(proptest::option::of(-60i32..120), 0..80),
        ) {
            let mut build: Vec<Option<i32>> = keys.iter().map(|k| k.map(|k| base + k)).collect();
            if unique {
                let mut seen = HashSet::new();
                build.retain(|k| k.is_none_or(|k| seen.insert(k)));
            }
            let kind = dense_against_hashed(&build, &probe);
            proptest::prop_assert_eq!(kind == IndexKind::Dense, dense_expected(&build));
        }
    }
}
