//! Compiled accumulator kernels — aggregate fusion past the group-by
//! boundary.
//!
//! The interpreted build ([`crate::aggregate`]) calls `Acc::update` per
//! row: a `ColumnVector::get` materializing a `Value`, then an enum
//! dispatch per accumulator. With the physical IR enabled, the build
//! instead records each selected row's `(row, group)` assignment while
//! discovering groups, and every aggregate folds its input column in
//! one type-specialized pass here ([`fold`]) — no per-row `Value`
//! allocation, no accumulator dispatch, a null-free loop when the
//! column carries no bitmap.
//!
//! Byte-identity contract with the interpreted accumulators:
//!
//! - **SUM(Int/BigInt)** reproduces `Value::add`'s wrap-through-cast
//!   chain (i128 math truncated back per step ≡ `wrapping_add` at the
//!   column width).
//! - **SUM(Double)** *assigns* the first non-null value instead of
//!   folding from `0.0` — the interpreter clones the first value, and
//!   `0.0 + (-0.0)` is `+0.0`, which would flip the displayed sign of
//!   an all-negative-zero group.
//! - **SUM(Decimal)** checked-adds at the column scale and surfaces the
//!   interpreter's exact overflow error.
//! - **MIN/MAX** keep the *first* strictly-better row (`sql_cmp ==
//!   Less/Greater`), so NaN poisoning (a NaN leader never loses) and
//!   tie behavior match exactly; the state is the winning *row*, and the
//!   output column is one gather of the argument at those rows.
//! - **AVG** accumulates `(f64 sum, count)` in ascending row order —
//!   the interpreter's fold order, which f64 addition is sensitive to.
//! - **DISTINCT** is a row filter in front of the same kernels
//!   ([`first_occurrences`]): the interpreter keeps each group's values
//!   in first-seen order and folds them at the end, which is the fold of
//!   the rows where a `(group, value)` pair first occurs, ascending.
//!
//! Every kernel takes its `(row, group)` pairs as an iterator, so one
//! source serves both shapes of build: a keyed build zips the recorded
//! row and assignment vectors ([`assigned`]), a key-less aggregate
//! walks its selection with the constant group 0 ([`fold_keyless`]) and
//! allocates neither.
//!
//! The folded state ([`FoldOut`]) is typed vectors, one slot per group,
//! and stays that from the fold to the output column
//! ([`FoldOut::finish`]): no accumulator row and no `Value` per group
//! exists on the compiled path.
//!
//! The parts route (DESIGN.md §4) merges per-part states, which for
//! SUM(Decimal) must not hide an overflow the serial fold would have
//! hit on some prefix: [`FoldOut::DecPartial`] carries, next to a
//! wrapping sum, the saturating `Σ|v|`. While that stays within `i128`
//! no prefix of any order can overflow and the wrapping sum is exact;
//! once it does not, the caller re-folds serially.
//!
//! Error-under-fusion contract (DESIGN.md §4): a fold error (decimal
//! SUM overflow) surfaces after the group-discovery pass rather than
//! interleaved with it, and folds run aggregate-by-aggregate rather
//! than row-by-row — when *several* aggregates would fail, which error
//! surfaces first may differ from the interpreter. Any failing query
//! fails under both paths; only the reported error can differ.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::kernel::column_nulls;
use crate::engine::align_column;
use crate::keys::{Grouper, KeySide};
use hive_common::value::dec_to_f64;
use hive_common::{BitSet, ColumnVector, DataType, HiveError, Result, SelVec, NULL_INDEX};
use hive_optimizer::AggFunc;
use std::cmp::Ordering;
use std::sync::Arc;

/// Per-group sums of one SUM kernel: `vals[g]` is the sum of group
/// `g`'s non-null inputs once `seen[g]` is set; a group that saw none
/// (SQL NULL) holds the type's zero.
#[derive(Debug)]
pub(crate) struct Sums<T> {
    vals: Vec<T>,
    seen: Vec<bool>,
}

impl<T: Copy + Default> Sums<T> {
    fn new(ngroups: usize) -> Sums<T> {
        Sums {
            vals: vec![T::default(); ngroups],
            seen: vec![false; ngroups],
        }
    }

    fn resize(&mut self, ngroups: usize) {
        self.vals.resize(ngroups, T::default());
        self.seen.resize(ngroups, false);
    }

    /// Add a later part's sums in: its state `l` into slot `slots[l]`.
    /// (An unseen state holds zero, so adding it changes nothing.)
    fn add(&mut self, part: Sums<T>, slots: impl Iterator<Item = usize>, add: fn(T, T) -> T) {
        for ((g, v), seen) in slots.zip(part.vals).zip(part.seen) {
            self.vals[g] = add(self.vals[g], v);
            self.seen[g] |= seen;
        }
    }

    /// The output column's parts: the sums, and the unseen groups as
    /// its null bitmap (none when every group saw a value).
    fn into_column(self) -> (Vec<T>, Option<BitSet>) {
        let mut nulls: Option<BitSet> = None;
        for (g, _) in self.seen.iter().enumerate().filter(|(_, seen)| !**seen) {
            nulls
                .get_or_insert_with(|| BitSet::new(self.vals.len()))
                .set(g);
        }
        (self.vals, nulls)
    }
}

/// One aggregate's folded states, one slot per group: what a compiled
/// build holds from the fold to the output column ([`FoldOut::finish`]).
#[derive(Debug)]
pub(crate) enum FoldOut {
    /// COUNT(*) / COUNT(expr) per group.
    Count(Vec<i64>),
    /// SUM per group, at the argument's width.
    SumInt(Sums<i32>),
    SumBigInt(Sums<i64>),
    SumDouble(Sums<f64>),
    SumDecimal(Sums<i128>, u8),
    /// AVG per group as `(sum, count)`.
    Avg(Vec<(f64, i64)>),
    /// MIN/MAX per group: the argument row that won ([`NULL_INDEX`] =
    /// no non-null input).
    Best(Vec<u32>),
    /// Partial SUM(Decimal) per group: the wrapping sum of the non-null
    /// inputs and the saturating sum of their magnitudes.
    DecPartial {
        scale: u8,
        sums: Sums<i128>,
        mags: Vec<u128>,
    },
}

/// Can `func` over `arg`'s runtime representation fold through a
/// compiled kernel with byte-identical results? Welford stddev keeps
/// its stateful accumulator (row fallback); SUM/AVG compile for the
/// numeric column types, MIN/MAX for every type whose `sql_cmp` is a
/// direct same-variant comparison. COUNT only needs the null bitmap, so
/// it compiles over anything. DISTINCT compiles wherever the plain
/// aggregate does ([`first_occurrences`] in front of the same kernel) —
/// except MIN/MAX over DOUBLE, where the interpreter's `min_by` /
/// `max_by` over the distinct values and the strict-better fold treat
/// an incomparable NaN differently.
pub(crate) fn compilable(func: AggFunc, distinct: bool, arg: Option<&ColumnVector>) -> bool {
    if distinct
        && (arg.is_none()
            || matches!(
                (func, arg),
                (AggFunc::Min | AggFunc::Max, Some(ColumnVector::Double(..)))
            ))
    {
        return false;
    }
    match func {
        AggFunc::Count => true,
        AggFunc::StddevSamp => false,
        AggFunc::Sum | AggFunc::Avg => matches!(
            arg,
            Some(
                ColumnVector::Int(..)
                    | ColumnVector::BigInt(..)
                    | ColumnVector::Double(..)
                    | ColumnVector::Decimal(..)
            )
        ),
        AggFunc::Min | AggFunc::Max => matches!(
            arg,
            Some(
                ColumnVector::Boolean(..)
                    | ColumnVector::Int(..)
                    | ColumnVector::BigInt(..)
                    | ColumnVector::Double(..)
                    | ColumnVector::Decimal(..)
                    | ColumnVector::Str(..)
                    | ColumnVector::Dict { .. }
                    | ColumnVector::Date(..)
                    | ColumnVector::Timestamp(..)
            )
        ),
    }
}

/// Is the folded state of a [`compilable`] aggregate independent of how
/// its input is cut into parts — can per-part states merge, in part
/// order, into exactly the serial fold's state? Anything that
/// accumulates `f64` is not (addition order shows in the bits), nor is
/// MIN/MAX over DOUBLE (a NaN leader never loses, so the first row
/// matters), nor DISTINCT (a value's first occurrence is a property of
/// the whole input); integer sums wrap associatively, decimal sums are
/// guarded by [`FoldOut::DecPartial`], and a strict-better MIN/MAX over
/// a total order is the same value wherever the parts are cut.
pub(crate) fn mergeable(func: AggFunc, distinct: bool, arg: Option<&ColumnVector>) -> bool {
    !distinct
        && compilable(func, distinct, arg)
        && match func {
            AggFunc::Count => true,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                !matches!(arg, Some(ColumnVector::Double(..)))
            }
            AggFunc::Avg | AggFunc::StddevSamp => false,
        }
}

/// `(batch row, group)` pairs of a keyed build, in fold order.
pub(crate) fn assigned<'a>(
    rows: &'a [u32],
    assign: &'a [u32],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    rows.iter()
        .zip(assign)
        .map(|(&i, &g)| (i as usize, g as usize))
}

fn missing_argument() -> HiveError {
    HiveError::Execution("compiled aggregate missing its argument".into())
}

/// The DISTINCT filter: of the `(rows[j], assign[j])` pairs (every row
/// in group 0 when `assign` is absent), those whose argument is
/// non-NULL and whose `(group, argument)` combination has not occurred
/// at an earlier `j` — in order, so folding them is the interpreter's
/// fold of each group's distinct values in first-seen order.
///
/// The pairs are discovered by the key layer, like any other grouping:
/// the group ids and the gathered argument are the two key columns, and
/// [`Grouper::assign`] flags the first row of each key. Key equality is
/// canonical-encoding equality, i.e. the interpreter's `ValueSet`: one
/// `NaN` per bit pattern, `0.0` and `-0.0` one value.
pub(crate) fn first_occurrences(
    arg: &ColumnVector,
    rows: &[u32],
    assign: Option<&[u32]>,
) -> Result<(Vec<u32>, Vec<u32>)> {
    // NULL arguments never enter a DISTINCT set; without them the
    // gathered argument carries no bitmap (and its key no NULL bit).
    let nulls = column_nulls(arg);
    let (rows, groups): (Vec<u32>, Vec<u32>) = (0..rows.len())
        .filter(|&j| !nulls.is_some_and(|nb| nb.get(rows[j] as usize)))
        .map(|j| (rows[j], assign.map_or(0, |a| a[j])))
        .unzip();
    let vals = arg.take(&rows);
    // Group ids are dense below the row count: as INT words they stay
    // distinct, whatever the sign bit says.
    let ids = assign.map(|_| ColumnVector::Int(groups.iter().map(|&g| g as i32).collect(), None));
    let cols: Vec<&ColumnVector> = ids.iter().chain(std::iter::once(&vals)).collect();
    let side = KeySide::group(&cols);
    let mut pairs = Grouper::new(side.shape());
    let mut first = (Vec::new(), Vec::new());
    let n = rows.len();
    side.key_chunks(&SelVec::All(n), 0, n, |at, keys| {
        pairs.assign(keys, None, |r, _, new| {
            if new {
                first.0.push(rows[at + r]);
                first.1.push(groups[at + r]);
            }
        })
    })?;
    Ok(first)
}

/// [`fold`] for a key-less aggregate: every selected row, group 0 — no
/// row or assignment vector exists (but for DISTINCT, whose filter
/// names the rows it keeps).
pub(crate) fn fold_keyless(
    func: AggFunc,
    distinct: bool,
    arg: Option<&ColumnVector>,
    sel: &SelVec,
    partial: bool,
) -> Result<FoldOut> {
    if distinct {
        let col = arg.ok_or_else(missing_argument)?;
        let (rows, groups) = first_occurrences(col, &sel.to_indices(), None)?;
        return fold(func, arg, assigned(&rows, &groups), 1, partial);
    }
    match sel {
        SelVec::All(n) => fold(func, arg, (0..*n).map(|i| (i, 0)), 1, partial),
        SelVec::Idx(v) => fold(func, arg, v.iter().map(|&i| (i as usize, 0)), 1, partial),
    }
}

/// [`fold`] over a keyed build's recorded assignment — `rows[j]` is a
/// batch row, `assign[j]` its group — through the DISTINCT filter when
/// the aggregate has one.
pub(crate) fn fold_assigned(
    func: AggFunc,
    distinct: bool,
    arg: Option<&ColumnVector>,
    rows: &[u32],
    assign: &[u32],
    ngroups: usize,
) -> Result<FoldOut> {
    if distinct {
        let col = arg.ok_or_else(missing_argument)?;
        let (rows, assign) = first_occurrences(col, rows, Some(assign))?;
        return fold(func, arg, assigned(&rows, &assign), ngroups, false);
    }
    fold(func, arg, assigned(rows, assign), ngroups, false)
}

/// Fold one aggregate over `(row, group)` pairs in ascending
/// selected-position order (each group's rows fold in the serial
/// order). Only call for [`compilable`] combinations. With `partial`,
/// SUM(Decimal) yields a [`FoldOut::DecPartial`] to merge instead of a
/// checked sum.
pub(crate) fn fold(
    func: AggFunc,
    arg: Option<&ColumnVector>,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
    partial: bool,
) -> Result<FoldOut> {
    let col = arg.ok_or_else(missing_argument);
    match func {
        AggFunc::Count => Ok(FoldOut::Count(fold_count(arg, pairs, ngroups))),
        AggFunc::Sum => match col? {
            ColumnVector::Decimal(v, s, n) if partial => {
                Ok(fold_sum_decimal_partial(v, *s, n.as_ref(), pairs, ngroups))
            }
            col => fold_sum(col, pairs, ngroups),
        },
        AggFunc::Avg => fold_avg(col?, pairs, ngroups),
        AggFunc::Min => Ok(fold_minmax(col?, pairs, ngroups, Ordering::Less)),
        AggFunc::Max => Ok(fold_minmax(col?, pairs, ngroups, Ordering::Greater)),
        AggFunc::StddevSamp => Err(HiveError::Execution(
            "stddev has no compiled accumulator".into(),
        )),
    }
}

fn fold_count(
    arg: Option<&ColumnVector>,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> Vec<i64> {
    let mut counts = vec![0i64; ngroups];
    match arg.and_then(column_nulls) {
        // COUNT(*) or a null-free argument: every assigned row counts.
        None => {
            for (_, g) in pairs {
                counts[g] += 1;
            }
        }
        Some(nb) => {
            for (i, g) in pairs {
                if !nb.get(i) {
                    counts[g] += 1;
                }
            }
        }
    }
    counts
}

/// Null-aware fold skeleton shared by the kernels below: visits each
/// non-null `(row, group)` pair in order, with a bitmap-free loop when
/// the column has no nulls.
macro_rules! fold_loop {
    ($nulls:expr, $pairs:expr, $i:ident, $g:ident, $step:expr) => {
        match $nulls {
            None => {
                for ($i, $g) in $pairs {
                    $step
                }
            }
            Some(nb) => {
                for ($i, $g) in $pairs {
                    if nb.get($i) {
                        continue;
                    }
                    $step
                }
            }
        }
    };
}

fn fold_sum(
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> Result<FoldOut> {
    let mut sums = match col {
        ColumnVector::Int(..) => FoldOut::SumInt(Sums::new(ngroups)),
        ColumnVector::BigInt(..) => FoldOut::SumBigInt(Sums::new(ngroups)),
        ColumnVector::Double(..) => FoldOut::SumDouble(Sums::new(ngroups)),
        ColumnVector::Decimal(_, scale, _) => FoldOut::SumDecimal(Sums::new(ngroups), *scale),
        other => {
            return Err(HiveError::Execution(format!(
                "no compiled SUM kernel for {:?}",
                other.data_type()
            )))
        }
    };
    fold_sum_into(&mut sums, col, pairs)?;
    Ok(sums)
}

/// Add `pairs` into running SUM states of `col`'s type, in order.
fn fold_sum_into(
    sums: &mut FoldOut,
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
) -> Result<()> {
    let nulls = column_nulls(col);
    match (sums, col) {
        (FoldOut::SumInt(s), ColumnVector::Int(v, _)) => {
            // `Value::add` on Int does exact i128 math then truncates
            // back to i32 per step — a wrapping add at i32 width (and
            // the first value added to zero is itself).
            fold_loop!(nulls, pairs, i, g, {
                s.vals[g] = s.vals[g].wrapping_add(v[i]);
                s.seen[g] = true;
            });
        }
        (FoldOut::SumBigInt(s), ColumnVector::BigInt(v, _)) => {
            fold_loop!(nulls, pairs, i, g, {
                s.vals[g] = s.vals[g].wrapping_add(v[i]);
                s.seen[g] = true;
            });
        }
        (FoldOut::SumDouble(s), ColumnVector::Double(v, _)) => {
            // Assign-first (see module docs): the first value seeds the
            // accumulator exactly as the interpreter's clone does.
            fold_loop!(nulls, pairs, i, g, {
                s.vals[g] = if s.seen[g] { s.vals[g] + v[i] } else { v[i] };
                s.seen[g] = true;
            });
        }
        (FoldOut::SumDecimal(s, scale), ColumnVector::Decimal(v, vs, _)) if *scale == *vs => {
            fold_loop!(nulls, pairs, i, g, {
                s.vals[g] = s.vals[g].checked_add(v[i]).ok_or_else(decimal_overflow)?;
                s.seen[g] = true;
            });
        }
        _ => return Err(mismatched_parts()),
    }
    Ok(())
}

/// The interpreter's (`Value::add`'s) decimal overflow error.
fn decimal_overflow() -> HiveError {
    HiveError::Execution("decimal overflow in +".into())
}

fn fold_sum_decimal_partial(
    v: &[i128],
    scale: u8,
    nulls: Option<&BitSet>,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> FoldOut {
    let mut sums = Sums::<i128>::new(ngroups);
    let mut mags: Vec<u128> = vec![0; ngroups];
    fold_loop!(nulls, pairs, i, g, {
        sums.vals[g] = sums.vals[g].wrapping_add(v[i]);
        sums.seen[g] = true;
        mags[g] = mags[g].saturating_add(v[i].unsigned_abs());
    });
    FoldOut::DecPartial { scale, sums, mags }
}

impl FoldOut {
    /// The aggregate's output column: one row per group, aligned to the
    /// declared output type `want`. COUNT is `BigInt`; SUM is its typed
    /// sums with the unseen groups as null bits; AVG divides once per
    /// group; MIN/MAX gather `arg` at the winning rows, so a `Dict`
    /// argument stays a `Dict` over the same dictionary.
    pub(crate) fn finish(
        self,
        arg: Option<&ColumnVector>,
        want: &DataType,
    ) -> Result<Arc<ColumnVector>> {
        let col = match self {
            FoldOut::Count(counts) => ColumnVector::BigInt(counts, None),
            FoldOut::SumInt(s) => {
                let (vals, nulls) = s.into_column();
                ColumnVector::Int(vals, nulls)
            }
            FoldOut::SumBigInt(s) => {
                let (vals, nulls) = s.into_column();
                ColumnVector::BigInt(vals, nulls)
            }
            FoldOut::SumDouble(s) => {
                let (vals, nulls) = s.into_column();
                ColumnVector::Double(vals, nulls)
            }
            FoldOut::SumDecimal(s, scale) => {
                let (vals, nulls) = s.into_column();
                ColumnVector::Decimal(vals, scale, nulls)
            }
            FoldOut::Avg(states) => {
                let seen = states.iter().map(|&(_, count)| count > 0).collect();
                let vals = (states.iter())
                    .map(|&(sum, count)| if count > 0 { sum / count as f64 } else { 0.0 })
                    .collect();
                let (vals, nulls) = Sums { vals, seen }.into_column();
                ColumnVector::Double(vals, nulls)
            }
            FoldOut::Best(rows) => arg.ok_or_else(missing_argument)?.take_or_null(&rows),
            FoldOut::DecPartial { .. } => {
                return Err(HiveError::Execution(
                    "partial decimal sums finish only once closed".into(),
                ))
            }
        };
        align_column(Arc::new(col), want)
    }

    /// Merge a later part's states into these: `other`'s state `l`
    /// belongs to group `map[l]` here. Both sides are partial [`fold`]s
    /// of the same [`mergeable`] COUNT or SUM over the same column type
    /// (MIN/MAX states name rows of their own part's column and merge by
    /// folding the parts' winners instead).
    pub(crate) fn merge(&mut self, other: FoldOut, map: &[u32]) -> Result<()> {
        let slots = map.iter().map(|&g| g as usize);
        match (self, other) {
            (FoldOut::Count(acc), FoldOut::Count(part)) => {
                for (g, c) in slots.zip(part) {
                    acc[g] += c;
                }
            }
            // Wrapping at the column width, as each part's fold is.
            (FoldOut::SumInt(acc), FoldOut::SumInt(part)) => {
                acc.add(part, slots, i32::wrapping_add)
            }
            (FoldOut::SumBigInt(acc), FoldOut::SumBigInt(part)) => {
                acc.add(part, slots, i64::wrapping_add)
            }
            (
                FoldOut::DecPartial { sums, mags, .. },
                FoldOut::DecPartial {
                    sums: psums,
                    mags: pmags,
                    ..
                },
            ) => {
                sums.add(psums, slots.clone(), i128::wrapping_add);
                for (g, m) in slots.zip(pmags) {
                    mags[g] = mags[g].saturating_add(m);
                }
            }
            _ => return Err(mismatched_parts()),
        }
        Ok(())
    }

    /// Grow to `ngroups` states, the new ones empty.
    pub(crate) fn grow(&mut self, ngroups: usize) {
        match self {
            FoldOut::Count(v) => v.resize(ngroups, 0),
            FoldOut::SumInt(s) => s.resize(ngroups),
            FoldOut::SumBigInt(s) => s.resize(ngroups),
            FoldOut::SumDouble(s) => s.resize(ngroups),
            FoldOut::SumDecimal(s, _) => s.resize(ngroups),
            FoldOut::Avg(v) => v.resize(ngroups, (0.0, 0)),
            FoldOut::Best(v) => v.resize(ngroups, NULL_INDEX),
            FoldOut::DecPartial { sums, mags, .. } => {
                sums.resize(ngroups);
                mags.resize(ngroups, 0);
            }
        }
    }

    /// Close merged partial sums: `None` when some group's magnitudes
    /// left `i128`, i.e. the serial fold may have overflowed on the way
    /// and has to be run to find out.
    pub(crate) fn close_partial(self) -> Option<FoldOut> {
        match self {
            FoldOut::DecPartial { scale, sums, mags } => mags
                .iter()
                .all(|&m| m <= i128::MAX as u128)
                .then_some(FoldOut::SumDecimal(sums, scale)),
            done => Some(done),
        }
    }

    /// The states of a hash-partitioned build as one: `parts[p]` holds
    /// partition `p`'s groups (the partitions' groups are disjoint), and
    /// merged group `g` is state `l` of partition `p` for `order[g] =
    /// (p, l)`. A gather per state vector — nothing is combined, so
    /// every state keeps its bits.
    pub(crate) fn interleave(parts: &[FoldOut], order: &[(u32, u32)]) -> Result<FoldOut> {
        // One state vector of every partition, gathered in `order`.
        macro_rules! pick {
            ($pat:pat => $vec:expr) => {{
                let vecs = (parts.iter())
                    .map(|f| match f {
                        $pat => Ok($vec.as_slice()),
                        _ => Err(mismatched_parts()),
                    })
                    .collect::<Result<Vec<_>>>()?;
                (order.iter())
                    .map(|&(p, l)| vecs[p as usize][l as usize])
                    .collect::<Vec<_>>()
            }};
        }
        macro_rules! pick_sums {
            ($variant:ident) => {
                Sums {
                    vals: pick!(FoldOut::$variant(s, ..) => s.vals),
                    seen: pick!(FoldOut::$variant(s, ..) => s.seen),
                }
            };
        }
        Ok(match parts.first() {
            None => return Err(mismatched_parts()),
            Some(FoldOut::Count(_)) => FoldOut::Count(pick!(FoldOut::Count(v) => v)),
            Some(FoldOut::SumInt(_)) => FoldOut::SumInt(pick_sums!(SumInt)),
            Some(FoldOut::SumBigInt(_)) => FoldOut::SumBigInt(pick_sums!(SumBigInt)),
            Some(FoldOut::SumDouble(_)) => FoldOut::SumDouble(pick_sums!(SumDouble)),
            Some(FoldOut::SumDecimal(_, scale)) => {
                FoldOut::SumDecimal(pick_sums!(SumDecimal), *scale)
            }
            Some(FoldOut::Avg(_)) => FoldOut::Avg(pick!(FoldOut::Avg(v) => v)),
            Some(FoldOut::Best(_)) => FoldOut::Best(pick!(FoldOut::Best(v) => v)),
            // Only the parts route folds partially, and it merges by
            // `merge`.
            Some(FoldOut::DecPartial { .. }) => return Err(mismatched_parts()),
        })
    }
}

fn mismatched_parts() -> HiveError {
    HiveError::Execution("aggregate parts folded to different state types".into())
}

fn fold_avg(
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> Result<FoldOut> {
    let mut accs: Vec<(f64, i64)> = vec![(0.0, 0); ngroups];
    fold_avg_into(&mut accs, col, pairs)?;
    Ok(FoldOut::Avg(accs))
}

/// Add `pairs` into running AVG states, in order.
fn fold_avg_into(
    accs: &mut [(f64, i64)],
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
) -> Result<()> {
    let nulls = column_nulls(col);
    macro_rules! avg_loop {
        ($v:expr, $conv:expr) => {
            fold_loop!(nulls, pairs, i, g, {
                let a = &mut accs[g];
                a.0 += $conv($v[i]);
                a.1 += 1;
            })
        };
    }
    match col {
        ColumnVector::Int(v, _) => avg_loop!(v, |x: i32| x as f64),
        ColumnVector::BigInt(v, _) => avg_loop!(v, |x: i64| x as f64),
        ColumnVector::Double(v, _) => avg_loop!(v, |x: f64| x),
        // `Value::as_f64`'s conversion, value for value.
        ColumnVector::Decimal(v, s, _) => avg_loop!(v, |x: i128| dec_to_f64(x, *s)),
        other => {
            return Err(HiveError::Execution(format!(
                "no compiled AVG kernel for {:?}",
                other.data_type()
            )))
        }
    }
    Ok(())
}

/// A key-less SUM or AVG over several parts, folded as one: the state
/// the first part leaves is where the next part's fold starts, so the
/// values meet in the serial fold's order — which `f64` addition and a
/// checked decimal sum both depend on — without the parts' argument
/// columns being assembled first. `parts` are `(argument, selection)`
/// in part order.
pub(crate) fn fold_keyless_continued(
    func: AggFunc,
    parts: &[(Option<&ColumnVector>, &SelVec)],
) -> Result<FoldOut> {
    fn step(
        state: &mut Option<FoldOut>,
        func: AggFunc,
        arg: Option<&ColumnVector>,
        pairs: impl Iterator<Item = (usize, usize)>,
    ) -> Result<()> {
        let col = arg.ok_or_else(missing_argument)?;
        match (state.as_mut(), func) {
            (None, _) => *state = Some(fold(func, arg, pairs, 1, false)?),
            (Some(FoldOut::Avg(accs)), AggFunc::Avg) => fold_avg_into(accs, col, pairs)?,
            (Some(sums), AggFunc::Sum) => fold_sum_into(sums, col, pairs)?,
            _ => return Err(mismatched_parts()),
        }
        Ok(())
    }
    let mut state: Option<FoldOut> = None;
    for &(arg, sel) in parts {
        match sel {
            SelVec::All(n) => step(&mut state, func, arg, (0..*n).map(|i| (i, 0)))?,
            SelVec::Idx(v) => step(&mut state, func, arg, v.iter().map(|&i| (i as usize, 0)))?,
        }
    }
    state.ok_or_else(|| HiveError::Execution("aggregate over no parts".into()))
}

fn fold_minmax(
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
    want: Ordering,
) -> FoldOut {
    let nulls = column_nulls(col);
    // The winning row per group is the state; `NULL_INDEX` = no
    // non-null input seen.
    let mut best: Vec<u32> = vec![NULL_INDEX; ngroups];
    macro_rules! mm_loop {
        ($cmp:expr) => {
            fold_loop!(nulls, pairs, i, g, {
                let b = &mut best[g];
                // Replace only on a strict win (`sql_cmp == want`): an
                // incomparable pair (NaN) never replaces, and a NaN
                // leader never loses — the interpreter's exact rule.
                if *b == NULL_INDEX || $cmp(i, *b as usize) == Some(want) {
                    *b = i as u32;
                }
            })
        };
    }
    match col {
        ColumnVector::Boolean(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::Int(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::BigInt(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::Double(v, _) => mm_loop!(|i: usize, b: usize| v[i].partial_cmp(&v[b])),
        ColumnVector::Decimal(v, _, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::Str(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::Dict { codes, dict, .. } => {
            mm_loop!(|i: usize, b: usize| Some(
                dict[codes[i] as usize].cmp(&dict[codes[b] as usize])
            ))
        }
        ColumnVector::Date(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
        ColumnVector::Timestamp(v, _) => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))),
    }
    FoldOut::Best(best)
}
