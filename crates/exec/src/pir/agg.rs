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
//! A keyed build's kernels take `(row, group)` pairs as an iterator,
//! zipped from the recorded row and assignment vectors ([`assigned`]),
//! and keep their states in per-group vectors. A key-less aggregate has
//! one state, and its kernels ([`fold_keyless`]) hold it in locals: the
//! loop walks the selection itself, with no pair, no group index and no
//! store to a state slot per row. Where the order of the values cannot
//! show in the result — a wrapping integer sum, a decimal magnitude
//! sum, the least or greatest value of a total order — the loop is a
//! plain reduction the compiler can vectorize; a MIN/MAX then finds the
//! first row holding that value, which is the row the strict-better
//! fold ends on. The semantics above hold unchanged: the pairs route
//! folded with the constant group 0 is the reference they are tested
//! against.
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

use super::kernel::column_nulls;
use crate::engine::align_column;
use crate::keys::{Grouper, IndexKind, KeySide};
use hive_common::value::dec_to_f64;
use hive_common::{
    with_dec, BitSet, ColumnVector, DataType, DecUnit, HiveError, Result, SelVec, NULL_INDEX,
};
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
/// the first row of each key is flagged — by one bit a slot where they
/// take the dense kind ([`KeySide::bit_slots`]), by [`Grouper::assign`]
/// otherwise. Key equality is canonical-encoding equality, i.e. the
/// interpreter's `ValueSet`: one `NaN` per bit pattern, `0.0` and `-0.0`
/// one value. Returns the filter's index kind beside the pairs.
pub(crate) fn first_occurrences(
    arg: &ColumnVector,
    rows: &[u32],
    assign: Option<&[u32]>,
) -> Result<(IndexKind, Vec<u32>, Vec<u32>)> {
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
    let n = rows.len();
    let mut first = (IndexKind::Dense, Vec::new(), Vec::new());
    if let Some((slots, span)) = side.bit_slots(n) {
        let mut seen = BitSet::new(span);
        for (j, &slot) in slots.iter().enumerate() {
            if !seen.get(slot as usize) {
                seen.set(slot as usize);
                first.1.push(rows[j]);
                first.2.push(groups[j]);
            }
        }
        return Ok(first);
    }
    let mut pairs = Grouper::new(&side, 1);
    first.0 = IndexKind::Hashed;
    side.key_chunks(&SelVec::All(n), 0, n, |at, keys| {
        pairs.assign(keys, None, |r, _, new| {
            if new {
                first.1.push(rows[at + r]);
                first.2.push(groups[at + r]);
            }
        })
    })?;
    Ok(first)
}

/// A key-less aggregate's one state over the selected rows of `arg`,
/// held in locals while it folds (see the module docs). A DISTINCT
/// aggregate folds the rows its filter ([`first_occurrences`]) keeps.
/// Only call for [`compilable`] combinations; with `partial`,
/// SUM(Decimal) yields a [`FoldOut::DecPartial`].
pub(crate) fn fold_keyless(
    func: AggFunc,
    arg: Option<&ColumnVector>,
    sel: &SelVec,
    partial: bool,
) -> Result<FoldOut> {
    let col = match (func, arg) {
        (AggFunc::Count, None) => return Ok(FoldOut::Count(vec![sel.len() as i64])),
        (_, arg) => arg.ok_or_else(missing_argument)?,
    };
    let nulls = column_nulls(col);
    match func {
        AggFunc::Count => Ok(FoldOut::Count(vec![count_rows(nulls, sel) as i64])),
        AggFunc::Sum => match col {
            ColumnVector::Decimal(v, scale, _) if partial => {
                let (seen, (sum, mag)) = with_dec!(v, v => (
                    first_row(v, nulls, sel).is_some(),
                    fold_rows(v, nulls, sel, (0, 0), |(s, m), _, &x| dec_partial_add(s, m, x)),
                ));
                Ok(FoldOut::DecPartial {
                    scale: *scale,
                    sums: Sums {
                        vals: vec![sum],
                        seen: vec![seen],
                    },
                    mags: vec![mag],
                })
            }
            col => {
                let mut sums = FoldOut::sums_for(col, 1)?;
                keyless_sum_into(&mut sums, col, sel)?;
                Ok(sums)
            }
        },
        AggFunc::Avg => {
            let mut acc = (0.0, 0);
            keyless_avg_into(&mut acc, col, sel)?;
            Ok(FoldOut::Avg(vec![acc]))
        }
        AggFunc::Min => Ok(FoldOut::Best(vec![keyless_best(col, sel, Ordering::Less)])),
        AggFunc::Max => Ok(FoldOut::Best(vec![keyless_best(
            col,
            sel,
            Ordering::Greater,
        )])),
        AggFunc::StddevSamp => Err(HiveError::Execution(
            "stddev has no compiled accumulator".into(),
        )),
    }
}

/// Fold `f` over the selected non-null values of `v`, in ascending
/// selected-position order, each with its row: the one loop every
/// key-less kernel runs, its state the value `init` starts it from.
/// `f` may stop the fold with an error.
#[inline(always)]
fn try_fold_rows<'a, T, A, E>(
    v: &'a [T],
    nulls: Option<&BitSet>,
    sel: &SelVec,
    init: A,
    mut f: impl FnMut(A, usize, &'a T) -> std::result::Result<A, E>,
) -> std::result::Result<A, E> {
    match (sel, nulls) {
        (SelVec::All(n), None) => {
            (v[..*n].iter().enumerate()).try_fold(init, |a, (i, x)| f(a, i, x))
        }
        (SelVec::All(n), Some(nb)) => {
            (v[..*n].iter().enumerate())
                .try_fold(init, |a, (i, x)| if nb.get(i) { Ok(a) } else { f(a, i, x) })
        }
        (SelVec::Idx(rows), None) => {
            (rows.iter()).try_fold(init, |a, &i| f(a, i as usize, &v[i as usize]))
        }
        (SelVec::Idx(rows), Some(nb)) => rows.iter().try_fold(init, |a, &i| {
            let i = i as usize;
            if nb.get(i) {
                Ok(a)
            } else {
                f(a, i, &v[i])
            }
        }),
    }
}

/// [`try_fold_rows`] for a fold that cannot fail.
#[inline(always)]
fn fold_rows<'a, T, A>(
    v: &'a [T],
    nulls: Option<&BitSet>,
    sel: &SelVec,
    init: A,
    mut f: impl FnMut(A, usize, &'a T) -> A,
) -> A {
    match try_fold_rows(v, nulls, sel, init, |a, i, x| {
        Ok::<A, std::convert::Infallible>(f(a, i, x))
    }) {
        Ok(a) => a,
        Err(never) => match never {},
    }
}

/// The first selected row with a non-null value.
fn first_row<T>(v: &[T], nulls: Option<&BitSet>, sel: &SelVec) -> Option<usize> {
    try_fold_rows(v, nulls, sel, (), |(), i, _| Err(i)).err()
}

/// Selected rows that are not null.
fn count_rows(nulls: Option<&BitSet>, sel: &SelVec) -> usize {
    match (nulls, sel) {
        (None, sel) => sel.len(),
        (Some(nb), SelVec::All(n)) => (0..*n).filter(|&i| !nb.get(i)).count(),
        (Some(nb), SelVec::Idx(rows)) => rows.iter().filter(|&&i| !nb.get(i as usize)).count(),
    }
}

/// Continue a key-less SUM state (one slot) over `col`'s selected rows.
/// Integer and decimal sums are plain reductions; `seen` is whether any
/// non-null row was selected, asked once.
fn keyless_sum_into(sums: &mut FoldOut, col: &ColumnVector, sel: &SelVec) -> Result<()> {
    let nulls = column_nulls(col);
    match (sums, col) {
        // `Value::add`'s wrap-through-cast chain (module docs).
        (FoldOut::SumInt(s), ColumnVector::Int(v, _)) => {
            s.vals[0] = fold_rows(v, nulls, sel, s.vals[0], |a, _, &x| a.wrapping_add(x));
            s.seen[0] |= first_row(v, nulls, sel).is_some();
        }
        (FoldOut::SumBigInt(s), ColumnVector::BigInt(v, _)) => {
            s.vals[0] = fold_rows(v, nulls, sel, s.vals[0], |a, _, &x| a.wrapping_add(x));
            s.seen[0] |= first_row(v, nulls, sel).is_some();
        }
        (FoldOut::SumDecimal(s, scale), ColumnVector::Decimal(v, vs, _)) if *scale == *vs => {
            with_dec!(v, v => {
                s.vals[0] = dec_sum(v, nulls, sel, s.vals[0])?;
                s.seen[0] |= first_row(v, nulls, sel).is_some();
            })
        }
        (FoldOut::SumDouble(s), ColumnVector::Double(v, _)) => {
            // Assign-first, in order: addition order shows in the bits.
            (s.vals[0], s.seen[0]) =
                fold_rows(v, nulls, sel, (s.vals[0], s.seen[0]), |(a, seen), _, &x| {
                    (if seen { a + x } else { x }, true)
                });
        }
        _ => return Err(mismatched_parts()),
    }
    Ok(())
}

/// Continue a key-less AVG state over `col`'s selected rows, in order.
fn keyless_avg_into(acc: &mut (f64, i64), col: &ColumnVector, sel: &SelVec) -> Result<()> {
    let nulls = column_nulls(col);
    macro_rules! avg {
        ($v:expr, $conv:expr) => {
            *acc = fold_rows($v, nulls, sel, *acc, |(s, c), _, &x| (s + $conv(x), c + 1))
        };
    }
    match col {
        ColumnVector::Int(v, _) => avg!(v, |x: i32| x as f64),
        ColumnVector::BigInt(v, _) => avg!(v, |x: i64| x as f64),
        ColumnVector::Double(v, _) => avg!(v, |x: f64| x),
        ColumnVector::Decimal(v, s, _) => {
            with_dec!(v, v => avg!(v, |x| dec_to_f64(DecUnit::wide(x), *s)))
        }
        other => {
            return Err(HiveError::Execution(format!(
                "no compiled AVG kernel for {:?}",
                other.data_type()
            )))
        }
    }
    Ok(())
}

/// The winning row of a key-less MIN (`want` = Less) or MAX
/// ([`NULL_INDEX`] when no non-null row is selected).
fn keyless_best(col: &ColumnVector, sel: &SelVec, want: Ordering) -> u32 {
    let nulls = column_nulls(col);
    let row = match col {
        ColumnVector::Boolean(v, _) => best_of_total(v, nulls, sel, want, |&x| x),
        ColumnVector::Int(v, _) | ColumnVector::Date(v, _) => {
            best_of_total(v, nulls, sel, want, |&x| x)
        }
        ColumnVector::BigInt(v, _) | ColumnVector::Timestamp(v, _) => {
            best_of_total(v, nulls, sel, want, |&x| x)
        }
        ColumnVector::Decimal(v, _, _) => {
            with_dec!(v, v => best_of_total(v, nulls, sel, want, |&x| x))
        }
        ColumnVector::Str(v, _) => best_of_total(v, nulls, sel, want, String::as_str),
        ColumnVector::Dict { codes, dict, .. } => {
            best_of_total(codes, nulls, sel, want, |&c| dict[c as usize].as_str())
        }
        // No total order: the strict-better fold itself, with the
        // leader's value beside its row (the NaN rule, module docs).
        ColumnVector::Double(v, _) => fold_rows(v, nulls, sel, None, |best, i, &x| match best {
            Some((_, b)) if x.partial_cmp(&b) != Some(want) => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i),
    };
    row.map_or(NULL_INDEX, |i| i as u32)
}

/// The row a strict-better fold under the total order of `key` ends on:
/// the first selected non-null row holding the least (`want` = Less) or
/// greatest key — a reduction to that key, then a search for it.
fn best_of_total<'a, T, K: Ord + Copy>(
    v: &'a [T],
    nulls: Option<&BitSet>,
    sel: &SelVec,
    want: Ordering,
    key: impl Fn(&'a T) -> K,
) -> Option<usize> {
    let first = key(&v[first_row(v, nulls, sel)?]);
    let best = match want {
        Ordering::Less => fold_rows(v, nulls, sel, first, |b, _, x| b.min(key(x))),
        _ => fold_rows(v, nulls, sel, first, |b, _, x| b.max(key(x))),
    };
    try_fold_rows(v, nulls, sel, (), |(), i, x| {
        if key(x) == best {
            Err(i)
        } else {
            Ok(())
        }
    })
    .err()
}

/// [`fold`] over a keyed build's recorded assignment — `rows[j]` is a
/// batch row, `assign[j]` its group — through the DISTINCT filter when
/// the aggregate has one, beside that filter's index kind.
pub(crate) fn fold_assigned(
    func: AggFunc,
    distinct: bool,
    arg: Option<&ColumnVector>,
    rows: &[u32],
    assign: &[u32],
    ngroups: usize,
) -> Result<(FoldOut, Option<IndexKind>)> {
    if distinct {
        let col = arg.ok_or_else(missing_argument)?;
        let (kind, rows, assign) = first_occurrences(col, rows, Some(assign))?;
        return Ok((
            fold(func, arg, assigned(&rows, &assign), ngroups, false)?,
            Some(kind),
        ));
    }
    Ok((
        fold(func, arg, assigned(rows, assign), ngroups, false)?,
        None,
    ))
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
            ColumnVector::Decimal(v, s, n) if partial => Ok(with_dec!(v, v => {
                fold_sum_decimal_partial(v, *s, n.as_ref(), pairs, ngroups)
            })),
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
    let mut sums = FoldOut::sums_for(col, ngroups)?;
    let nulls = column_nulls(col);
    match (&mut sums, col) {
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
            with_dec!(v, v => fold_loop!(nulls, pairs, i, g, {
                s.vals[g] = dec_add(s.vals[g], v[i])?;
                s.seen[g] = true;
            }))
        }
        _ => return Err(mismatched_parts()),
    }
    Ok(sums)
}

/// A decimal SUM step: `a + x` with `x` widened into the `i128` state,
/// or the interpreter's (`Value::add`'s) overflow error.
#[inline(always)]
fn dec_add<T: DecUnit>(a: i128, x: T) -> Result<i128> {
    a.checked_add(x.wide())
        .ok_or_else(|| HiveError::Execution("decimal overflow in +".into()))
}

/// A partial decimal SUM step: the wrapping sum and the saturating sum
/// of magnitudes ([`FoldOut::DecPartial`]), `x` widened into both. A
/// partial fold starts from zero and sees fewer than 2^64 values, so
/// `i64` values can neither wrap the one nor saturate the other: at that
/// width both are plain additions.
#[inline(always)]
fn dec_partial_add<T: DecUnit>(sum: i128, mag: u128, x: T) -> (i128, u128) {
    let x = x.wide();
    if T::BITS == 64 {
        (sum + x, mag + x.unsigned_abs())
    } else {
        (sum.wrapping_add(x), mag.saturating_add(x.unsigned_abs()))
    }
}

/// `start` plus the selected non-null values of `v` in order, through
/// [`dec_add`]. When every value is at most 64 bits wide and `start`
/// leaves room for `sel.len()` of them either way, no prefix can leave
/// `i128`, and the sum is a plain reduction.
fn dec_sum<T: DecUnit>(v: &[T], nulls: Option<&BitSet>, sel: &SelVec, start: i128) -> Result<i128> {
    let room = (i128::MAX as u128).saturating_sub(start.unsigned_abs());
    if T::BITS == 64 && (sel.len() as u128) << 63 <= room {
        return Ok(start + fold_rows(v, nulls, sel, 0, |a, _, &x| a + x.wide()));
    }
    try_fold_rows(v, nulls, sel, start, |a, _, &x| dec_add(a, x))
}

fn fold_sum_decimal_partial<T: DecUnit>(
    v: &[T],
    scale: u8,
    nulls: Option<&BitSet>,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> FoldOut {
    let mut sums = Sums::<i128>::new(ngroups);
    let mut mags: Vec<u128> = vec![0; ngroups];
    fold_loop!(nulls, pairs, i, g, {
        (sums.vals[g], mags[g]) = dec_partial_add(sums.vals[g], mags[g], v[i]);
        sums.seen[g] = true;
    });
    FoldOut::DecPartial { scale, sums, mags }
}

impl FoldOut {
    /// `ngroups` empty SUM states at `col`'s width.
    fn sums_for(col: &ColumnVector, ngroups: usize) -> Result<FoldOut> {
        Ok(match col {
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
        })
    }

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
                ColumnVector::Decimal(vals.into(), scale, nulls)
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
        ColumnVector::Decimal(v, s, _) => {
            with_dec!(v, v => avg_loop!(v, |x| dec_to_f64(DecUnit::wide(x), *s)))
        }
        other => {
            return Err(HiveError::Execution(format!(
                "no compiled AVG kernel for {:?}",
                other.data_type()
            )))
        }
    }
    Ok(FoldOut::Avg(accs))
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
    let mut state: Option<FoldOut> = None;
    for &(arg, sel) in parts {
        let col = arg.ok_or_else(missing_argument)?;
        match (state.as_mut(), func) {
            (None, _) => state = Some(fold_keyless(func, arg, sel, false)?),
            (Some(FoldOut::Avg(accs)), AggFunc::Avg) => keyless_avg_into(&mut accs[0], col, sel)?,
            (Some(sums), AggFunc::Sum) => keyless_sum_into(sums, col, sel)?,
            _ => return Err(mismatched_parts()),
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
        ColumnVector::Decimal(v, _, _) => {
            with_dec!(v, v => mm_loop!(|i: usize, b: usize| Some(v[i].cmp(&v[b]))))
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::DecVals;
    use std::sync::Arc;

    /// A column of every compilable representation, `n` rows, with a
    /// null every third row when `nulls`: doubles with NaN, both zeros
    /// and infinities; decimals small and (`huge`) a few additions from
    /// `i128::MAX` either way.
    fn columns(n: usize, nulls: bool) -> Vec<(&'static str, ColumnVector)> {
        let bitmap = || {
            nulls.then(|| {
                let mut b = BitSet::new(n);
                (0..n).filter(|i| i % 3 == 1).for_each(|i| b.set(i));
                b
            })
        };
        let int = |i: usize| ((i * 7919) % 201) as i64 - 100;
        let words: Vec<String> = ["pear", "apple", "", "fig", "apple"]
            .map(String::from)
            .to_vec();
        vec![
            (
                "bool",
                ColumnVector::Boolean((0..n).map(|i| i % 5 == 2).collect(), bitmap()),
            ),
            (
                "int",
                ColumnVector::Int(
                    (0..n)
                        .map(|i| match i % 11 {
                            3 => i32::MAX,
                            7 => i32::MIN,
                            _ => int(i) as i32,
                        })
                        .collect(),
                    bitmap(),
                ),
            ),
            (
                "bigint",
                ColumnVector::BigInt(
                    (0..n)
                        .map(|i| if i % 13 == 4 { i64::MAX } else { int(i) })
                        .collect(),
                    bitmap(),
                ),
            ),
            (
                "double",
                ColumnVector::Double(
                    (0..n)
                        .map(|i| match i % 9 {
                            0 => -0.0,
                            1 => 0.0,
                            2 if i > 20 => f64::NAN,
                            4 => f64::INFINITY,
                            5 if i > 40 => f64::NEG_INFINITY,
                            _ => int(i) as f64 * 0.125 + 0.1,
                        })
                        .collect(),
                    bitmap(),
                ),
            ),
            (
                "decimal",
                ColumnVector::Decimal((0..n).map(|i| int(i) as i128).collect(), 2, bitmap()),
            ),
            (
                "huge",
                ColumnVector::Decimal(
                    (0..n)
                        .map(|i| match i % 4 {
                            0 => i128::MAX / 3,
                            1 => -(i128::MAX / 3),
                            2 => i128::MAX / 2 + (i % 3) as i128,
                            _ => int(i) as i128,
                        })
                        .collect(),
                    2,
                    bitmap(),
                ),
            ),
            (
                // Narrow, at and beside the `i64` extremes: sums leave
                // `i64` at once, and stay in `i128`.
                "decimal_edges",
                ColumnVector::Decimal(
                    (0..n)
                        .map(|i| match i % 5 {
                            0 => i64::MAX,
                            1 => i64::MIN,
                            2 => i64::MAX - int(i).abs(),
                            _ => int(i),
                        })
                        .collect::<Vec<i64>>()
                        .into(),
                    2,
                    bitmap(),
                ),
            ),
            (
                "str",
                ColumnVector::Str((0..n).map(|i| words[i * 3 % 5].clone()).collect(), bitmap()),
            ),
            (
                "dict",
                ColumnVector::Dict {
                    codes: (0..n).map(|i| (i * 3 % 5) as u32).collect(),
                    dict: Arc::new(words.clone()),
                    nulls: bitmap(),
                },
            ),
            (
                "date",
                ColumnVector::Date((0..n).map(|i| int(i) as i32).collect(), bitmap()),
            ),
            (
                "ts",
                ColumnVector::Timestamp((0..n).map(int).collect(), bitmap()),
            ),
        ]
    }

    /// The selections a key-less fold sees over `n` rows: all, every
    /// other row, the second half, none.
    fn selections(n: usize) -> Vec<SelVec> {
        vec![
            SelVec::All(n),
            SelVec::Idx((0..n as u32).step_by(2).collect()),
            SelVec::Idx((n as u32 / 2..n as u32).collect()),
            SelVec::Idx(Vec::new()),
        ]
    }

    /// Results compared by their debug text: `-0.0` and `NaN` print as
    /// themselves, an error by its message.
    fn text(r: &Result<FoldOut>) -> String {
        format!("{r:?}")
    }

    /// [`fold_keyless`] behind the DISTINCT filter when `distinct`.
    fn keyless(
        func: AggFunc,
        distinct: bool,
        arg: Option<&ColumnVector>,
        sel: &SelVec,
        partial: bool,
    ) -> Result<FoldOut> {
        if distinct {
            let col = arg.ok_or_else(missing_argument)?;
            let (_, rows, _) = first_occurrences(col, &sel.to_indices(), None)?;
            return fold_keyless(func, arg, &SelVec::Idx(rows), partial);
        }
        fold_keyless(func, arg, sel, partial)
    }

    /// The pairs route with the constant group 0 — the reference.
    fn by_pairs(
        func: AggFunc,
        distinct: bool,
        arg: Option<&ColumnVector>,
        sel: &SelVec,
        partial: bool,
    ) -> Result<FoldOut> {
        if distinct {
            let (_, rows, groups) =
                first_occurrences(arg.ok_or_else(missing_argument)?, &sel.to_indices(), None)?;
            return fold(func, arg, assigned(&rows, &groups), 1, partial);
        }
        fold(func, arg, sel.iter().map(|i| (i, 0)), 1, partial)
    }

    const FUNCS: [AggFunc; 6] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::StddevSamp,
    ];

    #[test]
    fn keyless_kernels_equal_the_pairs_route() {
        let mut checked = 0;
        let (mut overflowed, mut saturated) = (0, 0);
        for n in [0, 1, 2, 7, 64, 65, 300] {
            for nulls in [false, true] {
                for (name, col) in columns(n, nulls) {
                    for sel in selections(n) {
                        for func in FUNCS {
                            for distinct in [false, true] {
                                if !compilable(func, distinct, Some(&col)) {
                                    continue;
                                }
                                for partial in [false, true] {
                                    let what = format!(
                                        "{func:?} distinct={distinct} partial={partial} over {name} \
                                         n={n} nulls={nulls} {sel:?}"
                                    );
                                    let got = keyless(func, distinct, Some(&col), &sel, partial);
                                    let want = by_pairs(func, distinct, Some(&col), &sel, partial);
                                    assert_eq!(text(&got), text(&want), "{what}");
                                    overflowed += got.is_err() as usize;
                                    saturated += matches!(
                                        &got,
                                        Ok(FoldOut::DecPartial { mags, .. }) if mags[0] > i128::MAX as u128
                                    ) as usize;
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
                // COUNT(*): no argument at all.
                for sel in selections(n) {
                    let got = fold_keyless(AggFunc::Count, None, &sel, false);
                    assert_eq!(
                        text(&got),
                        text(&by_pairs(AggFunc::Count, false, None, &sel, false))
                    );
                }
            }
        }
        assert!(checked > 5000, "{checked} combinations");
        assert!(
            overflowed > 0 && saturated > 0,
            "{overflowed} overflows, {saturated} saturated partials"
        );
    }

    /// Every decimal kernel over narrow (`i64`) values folds to exactly
    /// what it folds over the same values held as `i128` — the reference
    /// width: key-less, keyed (the pairs route), partial, DISTINCT and
    /// continued across parts, at the `i64` edges.
    #[test]
    fn narrow_decimal_folds_equal_the_wide_reference() {
        let mut checked = 0;
        for n in [0, 1, 7, 65, 300] {
            for nulls in [false, true] {
                for (name, col) in columns(n, nulls) {
                    let ColumnVector::Decimal(v @ DecVals::Narrow(_), scale, bits) = &col else {
                        continue;
                    };
                    let wide = ColumnVector::Decimal(
                        DecVals::Wide(v.to_wide().into_owned()),
                        *scale,
                        bits.clone(),
                    );
                    for sel in selections(n) {
                        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
                            let what = format!("{func:?} over {name} n={n} nulls={nulls} {sel:?}");
                            for (distinct, partial) in
                                [(false, false), (false, true), (true, false)]
                            {
                                let got = keyless(func, distinct, Some(&col), &sel, partial);
                                let want = keyless(func, distinct, Some(&wide), &sel, partial);
                                assert_eq!(text(&got), text(&want), "{what} {distinct} {partial}");
                                let groups: Vec<u32> = sel.iter().map(|i| (i % 3) as u32).collect();
                                let rows = sel.to_indices();
                                let keyed = |col| {
                                    fold_assigned(func, distinct, Some(col), &rows, &groups, 3)
                                        .map(|(fold, _)| fold)
                                };
                                let (got, want) = (keyed(&col), keyed(&wide));
                                assert_eq!(text(&got), text(&want), "keyed {what} {distinct}");
                                checked += 1;
                            }
                            let cut = SelVec::Idx(Vec::new());
                            let parts =
                                [(Some(&col), &sel), (Some(&wide), &cut), (Some(&col), &sel)];
                            let wides = [
                                (Some(&wide), &sel),
                                (Some(&wide), &cut),
                                (Some(&wide), &sel),
                            ];
                            if matches!(func, AggFunc::Sum | AggFunc::Avg) {
                                assert_eq!(
                                    text(&fold_keyless_continued(func, &parts)),
                                    text(&fold_keyless_continued(func, &wides)),
                                    "continued {what}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 500, "{checked}");
    }

    /// A narrow checked sum continued from a start near either end of
    /// `i128` takes the checked path, and fails exactly when a prefix
    /// leaves `i128`; with room it is the plain reduction.
    #[test]
    fn narrow_sums_near_the_i128_edge_check_every_prefix() {
        let v: Vec<i64> = vec![i64::MAX, i64::MIN, 5, i64::MAX];
        let edge = i64::MAX as i128;
        for start in [
            0,
            i128::MAX - 2 * edge,
            i128::MAX - edge - 4,
            i128::MAX - 4,
            i128::MIN + edge,
            i128::MIN,
            i128::MAX,
        ] {
            for sel in [SelVec::All(4), SelVec::Idx(vec![1, 2])] {
                let got = dec_sum(&v, None, &sel, start);
                let want = try_fold_rows(&v, None, &sel, start, |a, _, &x| {
                    a.checked_add(x as i128).ok_or(())
                });
                assert_eq!(got.ok(), want.ok(), "from {start} over {sel:?}");
            }
        }
    }

    /// A key-less SUM or AVG continued across parts is the one fold over
    /// their rows in order — here three consecutive slices of a column.
    #[test]
    fn continued_keyless_folds_equal_the_pairs_route() {
        let n = 300;
        for nulls in [false, true] {
            for (name, col) in columns(n, nulls) {
                for func in [AggFunc::Sum, AggFunc::Avg] {
                    if !compilable(func, false, Some(&col)) {
                        continue;
                    }
                    let cuts = [0u32, 0, 97, 250, n as u32];
                    let sels: Vec<SelVec> = cuts
                        .windows(2)
                        .map(|w| SelVec::Idx((w[0]..w[1]).collect()))
                        .collect();
                    let parts: Vec<(Option<&ColumnVector>, &SelVec)> =
                        sels.iter().map(|s| (Some(&col), s)).collect();
                    let got = fold_keyless_continued(func, &parts);
                    let want = by_pairs(func, false, Some(&col), &SelVec::All(n), false);
                    assert_eq!(
                        text(&got),
                        text(&want),
                        "{func:?} over {name}, nulls={nulls}"
                    );
                }
            }
        }
    }
}
