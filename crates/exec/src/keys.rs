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
//!   join, a window without PARTITION BY). Nothing is hashed: every row
//!   has slot 0 of a one-slot dense table, so every row is in the one
//!   group and every probe row's candidates are all build rows in order.
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
//! Any keyed side may then take the **dense kind**, by one rule over the
//! content of its rows ([`KeySide::dense_over`], a join's build too):
//! when every column is an integer, a date, a boolean or a dictionary
//! code and the columns' spans (`max − min + 1`, a dictionary its
//! length) multiply to within [`dense_limit`] of the rows, a row's key is
//! its mixed-radix slot `k0 + span0 × (k1 + span1 × …)` and the table is
//! a slot array. A grouping side gives NULL one more slot per nullable
//! column. A join has none: its probe side is keyed through the build's
//! layout, and a NULL, a probe entry the build lacks or a value outside
//! the build's span excludes the row. One table type, [`Grouper`], serves
//! every kind and operator; a join's build partition is one.
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
/// is the chunk's rows whose key routes to `p` ([`partition`]),
/// ascending. Rows a join excludes (a NULL key part) are in no run.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    /// Row numbers grouped by partition, ascending inside each group.
    rows: Vec<u32>,
    /// Partition `p`'s run is `rows[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
}

impl Runs {
    /// Partition `p`'s rows, ascending.
    #[inline]
    pub fn run(&self, p: usize) -> &[u32] {
        &self.rows[self.starts[p] as usize..self.starts[p + 1] as usize]
    }
}

/// `$f::<T>(keys, args…)` with `T` the [`KeyTable`] of `$keys`' kind:
/// a per-kind loop written once, its kind chosen once a call.
macro_rules! each_kind {
    ($keys:expr, $f:ident($($arg:expr),*)) => {
        match $keys {
            RowKeys::Dense(k) => $f::<DenseTable>(k, $($arg),*),
            RowKeys::W64(k) => $f::<WordTable<u64>>(k, $($arg),*),
            RowKeys::W128(k) => $f::<WordTable<u128>>(k, $($arg),*),
            RowKeys::Bytes(k) => $f::<RawTable>(k, $($arg),*),
        }
    };
}

/// Scatter the rows of `keys` into `nparts` runs by their table's route
/// ([`KeyTable::part`], which the probe takes too), in one counting
/// sort. Row `r` is recorded as `at + r` — the chunk's rows numbered in
/// the whole input — so a partition that reads every chunk's run in
/// chunk order sees its rows ascending, as the serial build inserts them.
pub fn partition(keys: &RowKeys, at: usize, nparts: usize) -> Runs {
    fn scatter<T: KeyTable>(keys: &T::Keys, at: usize, nparts: usize) -> Runs {
        let to = (0..T::rows(keys)).map(|r| match T::skip(keys, r) {
            true => u32::MAX,
            false => T::part(T::hash(keys, r), nparts) as u32,
        });
        sort_by_bucket(&to.collect::<Vec<_>>(), nparts, |r| (at + r) as u32)
    }
    each_kind!(keys, scatter(at, nparts.max(1)))
}

/// One stable counting sort: bucket `b`'s run holds `label(i)` of every
/// `i` with `to[i] = b`, ascending `i`; an `i` with `to[i] = u32::MAX` is
/// in no run.
fn sort_by_bucket(to: &[u32], nbuckets: usize, label: impl Fn(usize) -> u32) -> Runs {
    let mut starts = vec![0u32; nbuckets + 1];
    for &b in to.iter().filter(|&&b| b != u32::MAX) {
        starts[b as usize + 1] += 1;
    }
    for b in 0..nbuckets {
        starts[b + 1] += starts[b];
    }
    let mut next = starts.clone();
    let mut rows = vec![0u32; starts[nbuckets] as usize];
    for (i, &b) in to.iter().enumerate().filter(|(_, &b)| b != u32::MAX) {
        rows[next[b as usize] as usize] = label(i);
        next[b as usize] += 1;
    }
    Runs { rows, starts }
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
        let Src::Code { codes, map, .. } = &self.src else {
            return encode_cell(self.col, i, out);
        };
        if self.nulls.is_some_and(|n| n.get(i)) {
            return false;
        }
        // The code in the key's code space, `MISS` where it is absent.
        match map.as_ref().map_or(codes[i], |m| m[codes[i] as usize]) {
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
                    for_idx(sel.as_indices(), lo, keys.len(), |s, i| {
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
            return for_idx(sel.as_indices(), lo, n, |s, i| {
                keys[s].or_in(bits(vals[i]), slot.shift)
            });
        };
        match slot.null_bit {
            Some(bit) => for_idx(sel.as_indices(), lo, n, |s, i| {
                if nulls.get(i) {
                    keys[s].or_in(1, bit);
                } else {
                    keys[s].or_in(bits(vals[i]), slot.shift);
                }
            }),
            None => {
                let skip = skip.get_or_insert_with(|| vec![false; n]);
                for_idx(sel.as_indices(), lo, n, |s, i| {
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
    /// `i64` (a code in the key's code space) and `None` where NULL;
    /// `false` (no call) when the column has no dense digit.
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
            match (nulls, idx) {
                (None, None) => (vals[lo..lo + n].iter())
                    .enumerate()
                    .for_each(|(s, &v)| f(s, Some(to(v)))),
                (None, _) => for_idx(idx, lo, n, |s, i| f(s, Some(to(vals[i])))),
                (Some(nb), _) => {
                    for_idx(idx, lo, n, |s, i| f(s, (!nb.get(i)).then(|| to(vals[i]))))
                }
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
            // A join's translated code; `MISS` is -1, outside the codes.
            Src::Code {
                codes,
                map: Some(m),
                ..
            } => each(self.nulls, codes, rows, |c| m[c as usize] as i32 as i64, f),
            Src::Cell => return false,
        }
        true
    }

    /// The inclusive range of the column's non-NULL values over the `n`
    /// rows of `idx` — a dictionary's whole code space, both booleans —
    /// `Some(None)` when there are none; `None` when the column has no
    /// dense digit.
    fn range(&self, idx: Option<&[u32]>, n: usize) -> Option<Option<(i64, i64)>> {
        match &self.src {
            Src::Code { space, .. } => return Some((*space > 0).then(|| (0, *space as i64 - 1))),
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

    /// Add this column's digit × stride into the slots of rows `lo..` of
    /// `idx`; on a join side a NULL or a value outside `min..min + span`
    /// marks the row excluded instead (a grouping side's are all in).
    fn add_digits(&self, keys: &mut WordKeys<u32>, idx: Option<&[u32]>, lo: usize, d: Digit) {
        let WordKeys { keys: slots, skip } = keys;
        let (n, slots) = (slots.len(), &mut slots[..]);
        // Exact: `min + span − 1` is a value, so no `v` wraps in.
        let digit = |v: Option<i64>| v.map_or(u64::MAX, |v| v.wrapping_sub(d.min) as u64);
        if let Some(null) = d.null {
            self.ints(idx, lo, n, |s, v| {
                slots[s] += v.map_or(null, |v| v.wrapping_sub(d.min) as u32) * d.stride
            });
            return;
        }
        // Branch-free; an excluded row's slot is never read.
        let mut missed = false;
        self.ints(idx, lo, n, |s, v| {
            missed |= digit(v) >= d.span as u64;
            slots[s] = slots[s].wrapping_add((digit(v) as u32).wrapping_mul(d.stride));
        });
        if missed {
            let skip = skip.get_or_insert_with(|| vec![false; n]);
            self.ints(idx, lo, n, |s, v| skip[s] |= digit(v) >= d.span as u64);
        }
    }
}

/// One key column's place in a dense slot: `slot += (value − min) ×
/// stride` for a value in `min..min + span`. A grouping column's NULL
/// digit is `span`, one past the values; a join's has none.
#[derive(Debug, Clone, Copy)]
struct Digit {
    min: i64,
    span: u32,
    stride: u32,
    null: Option<u32>,
}

/// The dense kind's layout: each key column's digit, and the slot count —
/// the product of the columns' spans.
#[derive(Debug, Clone)]
struct DenseLayout {
    digits: Vec<Digit>,
    slots: usize,
}

impl DenseLayout {
    /// Add a column whose non-NULL values span `range`, on a grouping
    /// side (`nullable` known: plus a NULL slot when true) or a join's
    /// (`None`); `None` once the slots pass `limit`.
    fn push(
        &mut self,
        range: Option<(i64, i64)>,
        nullable: Option<bool>,
        limit: u64,
    ) -> Option<()> {
        let (min, values) = range.map_or((0, 0), |(lo, hi)| {
            (lo, (hi as i128 - lo as i128 + 1) as u128)
        });
        let slots = self.slots as u128 * (values + (nullable == Some(true)) as u128).max(1);
        if slots > limit as u128 {
            return None;
        }
        let (span, stride) = (values as u32, self.slots as u32);
        let null = nullable.map(|_| span);
        self.digits.push(Digit {
            min,
            span,
            stride,
            null,
        });
        self.slots = slots as usize;
        Some(())
    }
}

/// The dense layout of sides that feed one table (a set operation's two
/// inputs; one grouping side; a join's build), over the rows each side's
/// selection names: `None` unless every column has a dense digit and the
/// spans' product — per column the union of the sides' ranges, plus a
/// NULL slot on a nullable grouping column — is within `limit`.
fn dense_layout(sides: &[(&KeySide<'_>, &SelVec)], limit: u64) -> Option<DenseLayout> {
    let first = sides.first()?.0;
    if first.cols.is_empty() {
        return None;
    }
    let mut layout = DenseLayout {
        digits: Vec::new(),
        slots: 1,
    };
    for c in 0..first.cols.len() {
        let (mut range, mut nullable) = (None::<(i64, i64)>, first.null_is_key.then_some(false));
        for (side, sel) in sides {
            let col = &side.cols[c];
            nullable = nullable.map(|any| any || col.nulls.is_some());
            if let Some((lo, hi)) = col.range(sel.as_indices(), sel.len())? {
                range = Some(range.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        }
        layout.push(range, nullable, limit)?;
    }
    Some(layout)
}

/// `f(slot, batch row)` for positions `lo..lo + n` of a selection's
/// indices (`None`: every row).
#[inline]
fn for_idx(idx: Option<&[u32]>, lo: usize, n: usize, mut f: impl FnMut(usize, usize)) {
    // One call of `f`, which inlines into the loop.
    (0..n).for_each(|s| f(s, idx.map_or(lo + s, |idx| idx[lo + s] as usize)))
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

    /// This side in the dense kind when the content of the rows of `sel`
    /// allows it (see the module docs); as it is otherwise.
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
            RowKeys::Dense(keys) => Some((keys.keys, slots)),
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
            // No key columns: every row has the one slot, 0.
            Shape::None | Shape::Dense => {
                let mut keys = WordKeys {
                    keys: vec![0u32; hi - lo],
                    skip: None,
                };
                let digits = self.dense.iter().flat_map(|l| &l.digits);
                for (col, &d) in self.cols.iter().zip(digits) {
                    col.add_digits(&mut keys, sel.as_indices(), lo, d);
                }
                RowKeys::Dense(keys)
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
        Ok((all.unwrap_or(RowKeys::Dense(WordKeys::default())), runs, ns))
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
        for_idx(sel.as_indices(), lo, n, |s, i| {
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

/// Packed keys — or the dense kind's slots — of a row range, with the
/// rows a join excludes (a NULL key part, a probe entry the build
/// dictionary lacks, a value outside the build's dense span) marked
/// beside them. The hash is a function of the word and is computed where
/// it is used.
#[derive(Debug, Clone, Default)]
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
    /// The dense kind: each row's slot (0 on a side with no key columns).
    Dense(WordKeys<u32>),
    W64(WordKeys<u64>),
    W128(WordKeys<u128>),
    Bytes(ByteKeys),
}

impl RowKeys {
    pub fn len(&self) -> usize {
        fn rows<T: KeyTable>(keys: &T::Keys) -> usize {
            T::rows(keys)
        }
        each_kind!(self, rows())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows a join does not exclude, ascending.
    fn keyed(&self) -> Vec<u32> {
        fn each<T: KeyTable>(keys: &T::Keys) -> Vec<u32> {
            let mut rows = Vec::with_capacity(T::rows(keys));
            rows.extend((0..T::rows(keys) as u32).filter(|&r| !T::skip(keys, r as usize)));
            rows
        }
        each_kind!(self, each())
    }

    /// Row `r`'s key hash — the dense kind's is its slot — or `None`
    /// when a join excludes the row.
    #[inline]
    pub fn hash(&self, r: usize) -> Option<u64> {
        fn one<T: KeyTable>(keys: &T::Keys, r: usize) -> Option<u64> {
            (!T::skip(keys, r)).then(|| T::hash(keys, r))
        }
        each_kind!(self, one(r))
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
            (RowKeys::Dense(a), RowKeys::Dense(b)) => a.append(b),
            (RowKeys::W64(a), RowKeys::W64(b)) => a.append(b),
            (RowKeys::W128(a), RowKeys::W128(b)) => a.append(b),
            (RowKeys::Bytes(a), RowKeys::Bytes(b)) => {
                append_skips(&mut a.skip, a.hashes.len(), b.skip, b.hashes.len());
                let base = a.arena.len();
                a.hashes.extend(b.hashes);
                a.ends.extend(b.ends.iter().map(|end| base + end));
                a.arena.extend(b.arena);
            }
            _ => return Err(shape_mismatch()),
        }
        Ok(())
    }
}

impl<K> WordKeys<K> {
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
#[derive(Debug, Clone, Default)]
pub struct WordTable<K> {
    buckets: Vec<Bucket<K>>,
    mask: usize,
    len: u32,
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
        self.entry(hash, key).copied()
    }

    /// [`WordTable::find`]'s entry id, in its bucket.
    #[inline]
    fn entry(&self, hash: u64, key: K) -> Option<&u32> {
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
                return Some(&bucket.entry);
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

/// A table over one kind's keys: each loop is written once, per kind.
trait KeyTable: Sized + 'static {
    type Keys;
    /// This kind's table in `groups`; `None` when they hold another kind.
    fn of(groups: &Groups) -> Option<&Self>;
    fn rows(keys: &Self::Keys) -> usize;
    fn skip(keys: &Self::Keys, r: usize) -> bool;
    /// Row `r`'s hash; the dense kind's is its slot.
    fn hash(keys: &Self::Keys, r: usize) -> u64;
    /// A lookup is one load: no block need run ahead of it.
    const DIRECT: bool = false;
    /// The partition of `nparts` a key of hash `hash` is in, for the
    /// build's scatter and the probe alike.
    #[inline]
    fn part(hash: u64, nparts: usize) -> usize {
        route(hash, nparts)
    }
    /// Find row `r`'s key or insert it: `(entry id, inserted)`.
    fn insert_row(&mut self, keys: &Self::Keys, r: usize, hash: u64) -> (u32, bool);
    /// Row `r`'s entry id, in place (a build row, once relabelled).
    fn find_row(&self, keys: &Self::Keys, r: usize, hash: u64) -> Option<&u32>;
}

/// [`KeyTable::of`] for the table `Groups::$kind` holds.
macro_rules! table_of {
    ($kind:ident) => {
        fn of(groups: &Groups) -> Option<&Self> {
            match groups {
                Groups::$kind(t) => Some(t),
                _ => None,
            }
        }
    };
}

/// The [`KeyTable`] of a packed-word kind.
macro_rules! word_table {
    ($k:ty, $kind:ident) => {
        impl KeyTable for WordTable<$k> {
            type Keys = WordKeys<$k>;
            table_of!($kind);
            #[inline]
            fn rows(keys: &WordKeys<$k>) -> usize {
                keys.keys.len()
            }
            #[inline]
            fn skip(keys: &WordKeys<$k>, r: usize) -> bool {
                skipped(&keys.skip, r)
            }
            #[inline]
            fn hash(keys: &WordKeys<$k>, r: usize) -> u64 {
                keys.keys[r].hash()
            }
            #[inline]
            fn insert_row(&mut self, keys: &WordKeys<$k>, r: usize, hash: u64) -> (u32, bool) {
                self.insert(hash, keys.keys[r])
            }
            #[inline]
            fn find_row(&self, keys: &WordKeys<$k>, r: usize, hash: u64) -> Option<&u32> {
                self.entry(hash, keys.keys[r])
            }
        }
    };
}
word_table!(u64, W64);
word_table!(u128, W128);

impl KeyTable for RawTable {
    type Keys = ByteKeys;
    table_of!(Bytes);
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
    #[inline]
    fn insert_row(&mut self, keys: &ByteKeys, r: usize, hash: u64) -> (u32, bool) {
        self.insert(hash, keys.key(r))
    }
    #[inline]
    fn find_row(&self, keys: &ByteKeys, r: usize, hash: u64) -> Option<&u32> {
        self.entry(hash, keys.key(r))
    }
}

/// The dense kind's table: `ids[slot >> shift]` is the slot's entry,
/// [`VACANT`] until first seen; a partition holds the slots
/// [`KeyTable::part`] routes to it, `shift` being `nparts`' log.
#[derive(Debug)]
struct DenseTable {
    ids: Vec<u32>,
    len: u32,
    shift: u32,
}

impl KeyTable for DenseTable {
    type Keys = WordKeys<u32>;
    const DIRECT: bool = true;
    table_of!(Dense);
    #[inline]
    fn rows(keys: &WordKeys<u32>) -> usize {
        keys.keys.len()
    }
    #[inline]
    fn skip(keys: &WordKeys<u32>, r: usize) -> bool {
        skipped(&keys.skip, r)
    }
    #[inline]
    fn hash(keys: &WordKeys<u32>, r: usize) -> u64 {
        keys.keys[r] as u64
    }
    #[inline]
    fn part(slot: u64, nparts: usize) -> usize {
        slot as usize & (nparts - 1)
    }
    #[inline]
    fn insert_row(&mut self, _: &WordKeys<u32>, _: usize, slot: u64) -> (u32, bool) {
        let id = &mut self.ids[(slot >> self.shift) as usize];
        let new = *id == VACANT;
        if new {
            (*id, self.len) = (self.len, self.len + 1);
        }
        (*id, new)
    }
    #[inline]
    fn find_row(&self, _: &WordKeys<u32>, _: usize, slot: u64) -> Option<&u32> {
        let id = &self.ids[(slot >> self.shift) as usize];
        (*id != VACANT).then_some(id)
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

fn shape_mismatch() -> HiveError {
    HiveError::Execution("keys offered to a key table of another shape".into())
}

/// The one key table: entry ids dense in first-seen order, every kind.
/// One `Grouper` may take several [`RowKeys`] of one [`KeySide`]'s kind
/// in turn (a set operation's right input, then its left).
#[derive(Debug)]
pub struct Grouper(Groups);

#[derive(Debug)]
enum Groups {
    Dense(DenseTable),
    W64(WordTable<u64>),
    W128(WordTable<u128>),
    Bytes(RawTable),
}

impl Grouper {
    /// A table for the keys of `side`, or — given `nparts` partitions —
    /// for one partition's ([`partition`]).
    pub fn new(side: &KeySide<'_>, nparts: usize) -> Grouper {
        Grouper(match side.shape {
            Shape::None | Shape::Dense => {
                let shift = nparts.max(1).trailing_zeros();
                let slots = side.dense.as_ref().map_or(0, |l| l.slots);
                let ids = vec![VACANT; (slots >> shift) + 1];
                Groups::Dense(DenseTable { ids, len: 0, shift })
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
        visit: impl FnMut(usize, u32, bool),
    ) -> Result<()> {
        match (&mut self.0, keys) {
            (Groups::Dense(t), RowKeys::Dense(k)) => assign_rows(t, k, rows, visit),
            (Groups::W64(t), RowKeys::W64(k)) => assign_rows(t, k, rows, visit),
            (Groups::W128(t), RowKeys::W128(k)) => assign_rows(t, k, rows, visit),
            (Groups::Bytes(t), RowKeys::Bytes(k)) => assign_rows(t, k, rows, visit),
            _ => return Err(shape_mismatch()),
        }
        Ok(())
    }

    /// The entry of each of `rows` of `keys`, every one inserted.
    fn find(&self, keys: &RowKeys, rows: &[u32]) -> Result<Vec<u32>> {
        fn each<T: KeyTable>(keys: &T::Keys, groups: &Groups, rows: &[u32]) -> Option<Vec<u32>> {
            let t = T::of(groups)?;
            let find = |r| t.find_row(keys, r, T::hash(keys, r)).copied();
            rows.iter().map(|&r| find(r as usize)).collect()
        }
        each_kind!(keys, each(&self.0, rows)).ok_or_else(shape_mismatch)
    }

    /// Store each entry's row (unique keys, inserted from `rows` in
    /// order) in place of its id on the dense kind, so a join finds a
    /// key's build row with one load; `false` on the hashed kinds.
    fn relabel(&mut self, keys: &RowKeys, rows: &[u32]) -> bool {
        let (Groups::Dense(t), RowKeys::Dense(k)) = (&mut self.0, keys) else {
            return false;
        };
        // Rows inserted as `0..` carry their own numbers as ids already.
        if rows.len() < k.keys.len() {
            for &r in rows {
                t.ids[(k.keys[r as usize] >> t.shift) as usize] = r;
            }
        }
        true
    }
}

/// One build partition of a join: a [`Grouper`] over its build rows and
/// each entry's rows in ascending position.
#[derive(Debug)]
struct JoinPart {
    groups: Grouper,
    /// Entry `e`'s rows are run `e`. `None` when every entry has one row
    /// and the grouper holds it in place of the entry id
    /// ([`Grouper::relabel`]).
    rows: Option<Runs>,
}

impl JoinPart {
    /// Index the keyed rows of `keys` or — for partition `p` of a
    /// partitioned build — partition `p`'s run of every chunk, in order.
    fn build(side: &KeySide<'_>, keys: &RowKeys, runs: &[Runs], p: usize) -> Result<JoinPart> {
        let nparts = runs.first().map_or(1, |r| r.starts.len() - 1);
        let mut groups = Grouper::new(side, nparts);
        let rows: Vec<u32> = match runs {
            [] => keys.keyed(),
            runs => runs.iter().flat_map(|run| run.run(p)).copied().collect(),
        };
        let mut entries = 0;
        groups.assign(keys, Some(&rows), |_, _, new| entries += new as u32)?;
        // Unique keys (a dimension's primary key) on the dense kind: the
        // slot array holds the rows. Else a stable sort by entry, so each
        // entry's rows stay in ascending position.
        let unique = entries as usize == rows.len();
        if unique && groups.relabel(keys, &rows) {
            return Ok(JoinPart { groups, rows: None });
        }
        let entry_of = match unique {
            true => (0..entries).collect(),
            false => groups.find(keys, &rows)?,
        };
        let rows = Some(sort_by_bucket(&entry_of, entries as usize, |i| rows[i]));
        Ok(JoinPart { groups, rows })
    }

    /// The build rows of the entry `found` in this part's table.
    #[inline]
    fn candidates<'s>(&'s self, found: Option<&'s u32>) -> &'s [u32] {
        match (found, &self.rows) {
            (None, _) => &[],
            (Some(row), None) => std::slice::from_ref(row),
            (Some(&e), Some(runs)) => runs.run(e as usize),
        }
    }
}

/// Probe rows are looked up a block at a time, ahead of being emitted:
/// the CPU overlaps a block's independent lookups.
const PROBE_BLOCK: usize = 64;

/// A probe's use of rows `lo..lo + n`, row `lo + j` meeting `cands(j)`.
trait Walk<'s> {
    fn rows(&mut self, lo: usize, n: usize, cands: impl Fn(usize) -> &'s [u32]) -> Result<()>;
}

/// [`JoinIndex::probe`]'s walk: each row to a callback.
struct Visit<F>(F);

impl<'s, F: FnMut(usize, &'s [u32]) -> Result<()>> Walk<'s> for Visit<F> {
    fn rows(&mut self, lo: usize, n: usize, cands: impl Fn(usize) -> &'s [u32]) -> Result<()> {
        (0..n).try_for_each(|j| (self.0)(lo + j, cands(j)))
    }
}

/// [`JoinIndex::probe_into`]'s walk: a join type's output rows.
struct Emit<'o>(JoinType, u32, &'o mut ProbeOut);

impl<'s> Walk<'s> for Emit<'_> {
    fn rows(&mut self, lo: usize, n: usize, cands: impl Fn(usize) -> &'s [u32]) -> Result<()> {
        emit_rows(self.0, self.1 + lo as u32, n, self.2, cands);
        Ok(())
    }
}

/// Walk the probe rows of `keys` with their candidates — none for a row
/// the join excludes or a key no partition has — a [`PROBE_BLOCK`] at a
/// time, except where a lookup is one load or none (a key-less build).
fn probe_parts<'s>(index: &'s JoinIndex, keys: &RowKeys, walk: &mut impl Walk<'s>) -> Result<()> {
    if let (IndexKind::Keyless, [part]) = (index.kind, &index.parts[..]) {
        let ids = DenseTable::of(&part.groups.0).map_or(&[][..], |t| &t.ids);
        let all = part.candidates(ids.first().filter(|&&id| id != VACANT));
        return walk.rows(0, keys.len(), |_| all);
    }
    fn blocks<'s, T: KeyTable>(
        keys: &T::Keys,
        parts: &'s [JoinPart],
        walk: &mut impl Walk<'s>,
    ) -> Result<()> {
        let tables: Vec<(&'s T, &'s JoinPart)> = (parts.iter())
            .map(|part| T::of(&part.groups.0).map(|t| (t, part)))
            .collect::<Option<_>>()
            .ok_or_else(shape_mismatch)?;
        let n = T::rows(keys);
        let find = |r: usize| -> &'s [u32] {
            if T::skip(keys, r) {
                return &[];
            }
            let h = T::hash(keys, r);
            let (table, part) = tables[T::part(h, tables.len())];
            part.candidates(table.find_row(keys, r, h))
        };
        // One relabelled dense part: a lookup is one load, no block.
        if let ([(table, JoinPart { rows: None, .. })], true) = (&tables[..], T::DIRECT) {
            return walk.rows(0, n, |r| match T::skip(keys, r) {
                true => &[],
                false => table
                    .find_row(keys, r, T::hash(keys, r))
                    .map_or(&[], std::slice::from_ref),
            });
        }
        let mut found: [&'s [u32]; PROBE_BLOCK] = [&[]; PROBE_BLOCK];
        let mut lo = 0;
        while lo < n {
            let block = (n - lo).min(PROBE_BLOCK);
            for (j, slot) in found[..block].iter_mut().enumerate() {
                *slot = find(lo + j);
            }
            walk.rows(lo, block, |j| found[j])?;
            lo += block;
        }
        Ok(())
    }
    each_kind!(keys, blocks(&index.parts, walk))
}

/// Slots a dense index may spend per keyed row: four `u32` slots are 16
/// bytes, what a [`WordTable`] bucket alone costs.
const DENSE_SLOTS_PER_ROW: u64 = 4;
/// A dense index of up to this many slots (256 KiB) is taken whatever
/// the row count.
const DENSE_MIN_SLOTS: u64 = 1 << 16;

/// The one size rule of a dense index over `rows` rows — a join's build,
/// a grouping side's slots, the DISTINCT filter's bits (32 a slot):
/// `max(DENSE_SLOTS_PER_ROW × rows, DENSE_MIN_SLOTS)` slots.
pub(crate) fn dense_limit(rows: usize) -> u64 {
    (DENSE_SLOTS_PER_ROW * rows as u64).clamp(DENSE_MIN_SLOTS, VACANT as u64)
}

/// How a [`JoinIndex`] finds a probe key's build rows, and a [`Grouper`]
/// a row's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// No key columns: every probe row's candidates are all build rows,
    /// every grouped row is in the one group.
    #[default]
    Keyless,
    /// Addressed directly by the dense kind's slots ([`Shape::Dense`]).
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

/// A join's build side: key → the build rows carrying it, one
/// [`JoinPart`] per partition, built in parallel. A key's rows all land
/// in one partition in ascending position, as a serial build has them.
#[derive(Debug)]
pub struct JoinIndex {
    parts: Vec<JoinPart>,
    kind: IndexKind,
    /// The build's dense layout, which keys the probe side too.
    dense: Option<DenseLayout>,
}

impl JoinIndex {
    /// Index build positions `sel` of `side` in `nparts` partitions (one
    /// for a key-less side) across `workers`: in the dense kind when the
    /// rows allow it ([`KeySide::dense_over`]), else in the side's shape.
    pub fn build(side: &KeySide<'_>, sel: &SelVec, nparts: usize, workers: usize) -> Result<Self> {
        JoinIndex::over(side.clone().dense_over(sel), sel, nparts, workers)
    }

    /// [`JoinIndex::build`] in `side`'s kind as it stands.
    fn over(side: KeySide<'_>, sel: &SelVec, nparts: usize, workers: usize) -> Result<Self> {
        let nparts = if side.cols.is_empty() { 1 } else { nparts };
        let (keys, runs, _) = side.keys_par(sel, workers, nparts)?;
        let parts =
            crate::par::parallel_map(workers, nparts, |p| JoinPart::build(&side, &keys, &runs, p))?;
        let (kind, dense) = (side.kind(), side.dense);
        Ok(JoinIndex { parts, kind, dense })
    }

    /// The probe side keyed through this build's dense layout, if any: a
    /// value outside the build's span excludes the row.
    pub fn probe_side<'a>(&self, side: KeySide<'a>) -> KeySide<'a> {
        side.with_dense(self.dense.clone())
    }

    /// How this index finds a key's build rows.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Partitions the index was built in (1 for the keyless kind).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// For each row of the probe keys, ascending: `visit(row, the build
    /// positions carrying its key, ascending)` — none for a row the join
    /// excludes. What a join with a residual filters candidates through.
    pub fn probe<'s>(
        &'s self,
        keys: &RowKeys,
        visit: impl FnMut(usize, &'s [u32]) -> Result<()>,
    ) -> Result<()> {
        probe_parts(self, keys, &mut Visit(visit))
    }

    /// Probe every row of `keys` — probe positions `at..` — and append
    /// its output rows by `join_type`'s rule straight into `out`, in
    /// probe order: what a join without a residual runs, one loop per
    /// key kind and join type with no per-row callback.
    pub(crate) fn probe_into(
        &self,
        keys: &RowKeys,
        at: u32,
        join_type: JoinType,
        out: &mut ProbeOut,
    ) -> Result<()> {
        probe_parts(self, keys, &mut Emit(join_type, at, out))
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

    /// INT key columns from rows of optional values, `ncols` a row.
    fn int_cols(rows: &[Vec<Option<i32>>], ncols: usize) -> Vec<ColumnVector> {
        (0..ncols)
            .map(|c| int_col(&rows.iter().map(|row| row[c]).collect::<Vec<_>>()))
            .collect()
    }

    /// A dictionary column over `entries`, `None` codes NULL.
    fn dict_col(codes: &[Option<u32>], entries: &[&str]) -> ColumnVector {
        let mut nulls = BitSet::new(codes.len());
        codes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .for_each(|(i, _)| nulls.set(i));
        let dict = Arc::new(entries.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let any_null = codes.iter().any(Option::is_none);
        let codes = codes.iter().map(|c| c.unwrap_or(0)).collect();
        ColumnVector::dict_from_codes(codes, dict, any_null.then_some(nulls)).unwrap()
    }

    const JOIN_TYPES: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
        JoinType::Semi,
        JoinType::Anti,
    ];

    /// The kind [`JoinIndex::build`] picks for `build`, after checking
    /// that at 1, 2, 4 and 16 partitions it gives `probe` what the hashed
    /// index over the undensified build side gives: candidate lists, and
    /// the output rows of every join type — which is all a join's bytes
    /// are assembled from.
    fn dense_against_hashed(build: &[ColumnVector], probe: &[ColumnVector]) -> IndexKind {
        let rows = |cols: &[ColumnVector]| cols.first().map_or(0, |c| c.len());
        let (brefs, prefs): (Vec<_>, Vec<_>) = (build.iter().collect(), probe.iter().collect());
        let (pside, bside) = KeySide::join_pair(&prefs, &brefs);
        let (bsel, np) = (SelVec::all(rows(build)), rows(probe));
        let outputs = |index: &JoinIndex| {
            let keys = index
                .probe_side(pside.clone())
                .keys(&SelVec::all(np), 0, np);
            let mut candidates = Vec::new();
            (index.probe(&keys, |r, c| {
                candidates.push((r, c.to_vec()));
                Ok(())
            }))
            .unwrap();
            let emitted = JOIN_TYPES.map(|jt| {
                let mut out = ProbeOut::default();
                index.probe_into(&keys, 7, jt, &mut out).unwrap();
                out
            });
            (candidates, emitted)
        };
        let hashed = JoinIndex::over(bside.clone(), &bsel, 1, 1).unwrap();
        assert_ne!(hashed.kind(), IndexKind::Dense);
        let want = outputs(&hashed);
        let mut kind = hashed.kind();
        for nparts in [1, 2, 4, 16] {
            let picked = JoinIndex::build(&bside, &bsel, nparts, 2).unwrap();
            assert_eq!(
                outputs(&picked),
                want,
                "{nparts} parts: {build:?} / {probe:?}"
            );
            kind = picked.kind();
        }
        kind
    }

    /// [`dense_against_hashed`] over one INT key column a side.
    fn ints_against_hashed(build: &[Option<i32>], probe: &[Option<i32>]) -> IndexKind {
        dense_against_hashed(&[int_col(build)], &[int_col(probe)])
    }

    /// Is this build one the dense kind takes: each column's `i64` digit
    /// spans its non-NULL values (at least one slot), and the spans'
    /// product is within the size rule of the build's rows? Uniqueness
    /// plays no part.
    fn dense_expected(build: &[Vec<Option<i32>>], ncols: usize) -> bool {
        let slots: u128 = (0..ncols)
            .map(|c| {
                let vals = build.iter().filter_map(|row| row[c]).map(i64::from);
                match (vals.clone().min(), vals.max()) {
                    (Some(lo), Some(hi)) => (hi - lo + 1) as u128,
                    _ => 1,
                }
            })
            .product();
        let rule = (DENSE_SLOTS_PER_ROW * build.len() as u64).max(DENSE_MIN_SLOTS);
        slots <= rule as u128
    }

    #[test]
    fn dense_index_edges() {
        // Below, inside and above every build range here, and NULL.
        let probe: Vec<Option<i32>> = (-3..12).map(Some).chain([None]).collect();
        // Unique, with a NULL: addressed directly.
        let unique = [Some(4), None, Some(1), Some(9), Some(2)];
        assert_eq!(ints_against_hashed(&unique, &probe), IndexKind::Dense);
        // All negative, and a span that straddles zero.
        let negative = [Some(-3), Some(-1), Some(-2)];
        assert_eq!(ints_against_hashed(&negative, &probe), IndexKind::Dense);
        let straddles = [Some(-2), Some(3), Some(0), Some(-2)];
        assert_eq!(ints_against_hashed(&straddles, &probe), IndexKind::Dense);
        // Duplicate keys are dense too: an entry holds several rows.
        let dups = [Some(1), Some(5), Some(1), None, Some(5), Some(1)];
        assert_eq!(ints_against_hashed(&dups, &probe), IndexKind::Dense);
        // An empty build, and one of NULLs only, match nothing.
        assert_eq!(ints_against_hashed(&[], &probe), IndexKind::Dense);
        assert_eq!(ints_against_hashed(&[None, None], &probe), IndexKind::Dense);
        // A span exactly at the rule is dense; one slot over is not.
        let rule = DENSE_MIN_SLOTS as i32;
        let at_rule = [Some(0), Some(rule - 1)];
        assert_eq!(ints_against_hashed(&at_rule, &probe), IndexKind::Dense);
        let over = [Some(0), Some(rule)];
        assert_eq!(ints_against_hashed(&over, &probe), IndexKind::Hashed);
        // Past the minimum, the rule scales with the rows.
        let rows = (DENSE_MIN_SLOTS / DENSE_SLOTS_PER_ROW) as i32 + 10;
        let span = rows * DENSE_SLOTS_PER_ROW as i32;
        let mut wide: Vec<Option<i32>> = (0..rows - 1).map(Some).collect();
        wide.push(Some(span - 1));
        assert_eq!(ints_against_hashed(&wide, &probe), IndexKind::Dense);
        *wide.last_mut().unwrap() = Some(span);
        assert_eq!(ints_against_hashed(&wide, &probe), IndexKind::Hashed);
        // Two columns: the product of their spans is the rule's.
        let two = |a: &[Option<i32>], b: &[Option<i32>], pa: &[Option<i32>], pb: &[Option<i32>]| {
            dense_against_hashed(&[int_col(a), int_col(b)], &[int_col(pa), int_col(pb)])
        };
        let (a, b) = (
            [Some(1), Some(2), Some(1), None],
            [Some(-5), Some(7), Some(-5), Some(0)],
        );
        let (pa, pb): (Vec<_>, Vec<_>) = (-1..4)
            .flat_map(|x| (-7..9).map(move |y| (Some(x), Some(y))))
            .unzip();
        assert_eq!(two(&a, &b, &pa, &pb), IndexKind::Dense);
        let far = [Some(0), Some(300), Some(0), Some(300)];
        assert_eq!(
            two(&far, &far, &far, &[Some(300), None, Some(0), Some(1)]),
            IndexKind::Hashed
        );
    }

    #[test]
    fn dense_dictionary_joins() {
        // The build dictionary repeats "a" (codes 0 and 2); the probe's
        // has "z", which the build lacks, and a NULL.
        let build = dict_col(
            &[Some(0), Some(1), Some(2), Some(3), Some(2), None],
            &["a", "b", "a", "c"],
        );
        let probe = dict_col(
            &[Some(0), Some(1), Some(2), Some(3), Some(1), None, Some(2)],
            &["c", "z", "a", "b"],
        );
        let (b, p) = (build.clone(), probe.clone());
        assert_eq!(dense_against_hashed(&[b], &[p]), IndexKind::Dense);
        // Beside an INT column, with values outside its range.
        let bint = int_col(&[Some(1), Some(2), Some(1), Some(2), Some(1), Some(1)]);
        let pint = int_col(&[
            Some(1),
            Some(2),
            Some(1),
            Some(0),
            Some(2),
            Some(1),
            Some(3),
        ]);
        assert_eq!(
            dense_against_hashed(&[bint, build], &[pint, probe]),
            IndexKind::Dense
        );
    }

    proptest::proptest! {
        /// Over random builds of one or two INT columns — unique or not,
        /// NULLs, keys around zero so some spans straddle the sign, spread
        /// so some pass the size rule — the picked index and the hashed
        /// one agree on every candidate list and every join type's output
        /// at every partition count, and the dense kind is picked exactly
        /// when the size rule allows it.
        #[test]
        fn dense_and_hashed_indexes_agree(
            base in -40i32..40,
            spread in 0usize..3,
            ncols in 1usize..3,
            keys in proptest::collection::vec(proptest::collection::vec(proptest::option::of(0i32..60), 2), 0..50),
            unique in proptest::arbitrary::any::<bool>(),
            probe in proptest::collection::vec(proptest::collection::vec(proptest::option::of(-60i32..120), 2), 0..80),
        ) {
            let scale = [1, 7, 2000][spread];
            let at = |row: &Vec<Option<i32>>| -> Vec<Option<i32>> {
                row.iter().map(|k| k.map(|k| base + k * scale)).collect()
            };
            let mut build: Vec<Vec<Option<i32>>> = keys.iter().map(at).collect();
            if unique {
                let mut seen = HashSet::new();
                build.retain(|row| row[..ncols].iter().any(Option::is_none) || seen.insert(row[..ncols].to_vec()));
            }
            let probe: Vec<Vec<Option<i32>>> = probe.iter().map(at).collect();
            let kind = dense_against_hashed(&int_cols(&build, ncols), &int_cols(&probe, ncols));
            proptest::prop_assert_eq!(kind == IndexKind::Dense, dense_expected(&build, ncols));
        }
    }
}
