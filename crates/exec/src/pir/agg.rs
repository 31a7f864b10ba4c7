//! Compiled accumulator kernels — aggregate fusion past the group-by
//! boundary.
//!
//! The interpreted build ([`crate::aggregate`]) calls `Acc::update` per
//! row: a `ColumnVector::get` materializing a [`Value`], then an enum
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
//!   tie behavior match exactly; the winning value materializes once
//!   per group at the end.
//! - **AVG** accumulates `(f64 sum, count)` in ascending row order —
//!   the interpreter's fold order, which f64 addition is sensitive to.
//!
//! Every kernel takes its `(row, group)` pairs as an iterator, so one
//! source serves both shapes of build: a keyed build zips the recorded
//! row and assignment vectors ([`assigned`]), a key-less aggregate
//! walks its selection with the constant group 0 ([`keyless`]) and
//! allocates neither.
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
use hive_common::{ColumnVector, HiveError, Result, SelVec, Value};
use hive_optimizer::AggFunc;
use std::cmp::Ordering;

/// Folded per-group states; the caller converts them back into the
/// interpreter's accumulator domain before `finish`.
pub(crate) enum FoldOut {
    /// COUNT(*) / COUNT(expr) per group.
    Count(Vec<i64>),
    /// SUM/MIN/MAX per group (`None` = no non-null input).
    Opt(Vec<Option<Value>>),
    /// AVG per group as `(sum, count)`.
    Avg(Vec<(f64, i64)>),
    /// Partial SUM(Decimal) per group: the wrapping sum of the non-null
    /// inputs (`None` = none seen) and the saturating sum of their
    /// magnitudes.
    DecPartial {
        scale: u8,
        sums: Vec<Option<i128>>,
        mags: Vec<u128>,
    },
}

/// Can `func` over `arg`'s runtime representation fold through a
/// compiled kernel with byte-identical results? DISTINCT and Welford
/// stddev keep their stateful accumulators (row fallback); SUM/AVG
/// compile for the numeric column types, MIN/MAX for every type whose
/// `sql_cmp` is a direct same-variant comparison. COUNT only needs the
/// null bitmap, so it compiles over anything.
pub(crate) fn compilable(func: AggFunc, distinct: bool, arg: Option<&ColumnVector>) -> bool {
    if distinct {
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
/// matters); integer sums wrap associatively, decimal sums are guarded
/// by [`FoldOut::DecPartial`], and a strict-better MIN/MAX over a total
/// order is the same value wherever the parts are cut.
pub(crate) fn mergeable(func: AggFunc, distinct: bool, arg: Option<&ColumnVector>) -> bool {
    compilable(func, distinct, arg)
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

/// [`fold`] for a key-less aggregate: every selected row, group 0 — no
/// row or assignment vector exists.
pub(crate) fn fold_keyless(
    func: AggFunc,
    arg: Option<&ColumnVector>,
    sel: &SelVec,
    partial: bool,
) -> Result<FoldOut> {
    match sel {
        SelVec::All(n) => fold(func, arg, (0..*n).map(|i| (i, 0)), 1, partial),
        SelVec::Idx(v) => fold(func, arg, v.iter().map(|&i| (i as usize, 0)), 1, partial),
    }
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
    let col =
        arg.ok_or_else(|| HiveError::Execution("compiled aggregate missing its argument".into()));
    match func {
        AggFunc::Count => Ok(FoldOut::Count(fold_count(arg, pairs, ngroups))),
        AggFunc::Sum => match col? {
            ColumnVector::Decimal(v, s, n) if partial => {
                Ok(fold_sum_decimal_partial(v, *s, n.as_ref(), pairs, ngroups))
            }
            col => fold_sum(col, pairs, ngroups),
        },
        AggFunc::Avg => fold_avg(col?, pairs, ngroups),
        AggFunc::Min => fold_minmax(col?, pairs, ngroups, Ordering::Less),
        AggFunc::Max => fold_minmax(col?, pairs, ngroups, Ordering::Greater),
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
    let nulls = column_nulls(col);
    Ok(FoldOut::Opt(match col {
        ColumnVector::Int(v, _) => {
            // `Value::add` on Int does exact i128 math then truncates
            // back to i32 per step — a wrapping add at i32 width.
            let mut accs: Vec<Option<i32>> = vec![None; ngroups];
            fold_loop!(nulls, pairs, i, g, {
                let a = &mut accs[g];
                *a = Some(match *a {
                    None => v[i],
                    Some(c) => c.wrapping_add(v[i]),
                });
            });
            accs.into_iter().map(|a| a.map(Value::Int)).collect()
        }
        ColumnVector::BigInt(v, _) => {
            let mut accs: Vec<Option<i64>> = vec![None; ngroups];
            fold_loop!(nulls, pairs, i, g, {
                let a = &mut accs[g];
                *a = Some(match *a {
                    None => v[i],
                    Some(c) => c.wrapping_add(v[i]),
                });
            });
            accs.into_iter().map(|a| a.map(Value::BigInt)).collect()
        }
        ColumnVector::Double(v, _) => {
            // Assign-first (see module docs): the first value seeds the
            // accumulator exactly as the interpreter's clone does.
            let mut accs: Vec<Option<f64>> = vec![None; ngroups];
            fold_loop!(nulls, pairs, i, g, {
                let a = &mut accs[g];
                *a = Some(match *a {
                    None => v[i],
                    Some(c) => c + v[i],
                });
            });
            accs.into_iter().map(|a| a.map(Value::Double)).collect()
        }
        ColumnVector::Decimal(v, s, _) => {
            let s = *s;
            let mut accs: Vec<Option<i128>> = vec![None; ngroups];
            fold_loop!(nulls, pairs, i, g, {
                let a = &mut accs[g];
                *a = Some(match *a {
                    None => v[i],
                    Some(c) => c.checked_add(v[i]).ok_or_else(decimal_overflow)?,
                });
            });
            accs.into_iter()
                .map(|a| a.map(|u| Value::Decimal(u, s)))
                .collect()
        }
        other => {
            return Err(HiveError::Execution(format!(
                "no compiled SUM kernel for {:?}",
                other.data_type()
            )))
        }
    }))
}

/// The interpreter's (`Value::add`'s) decimal overflow error.
fn decimal_overflow() -> HiveError {
    HiveError::Execution("decimal overflow in +".into())
}

fn fold_sum_decimal_partial(
    v: &[i128],
    scale: u8,
    nulls: Option<&hive_common::BitSet>,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
) -> FoldOut {
    let mut sums: Vec<Option<i128>> = vec![None; ngroups];
    let mut mags: Vec<u128> = vec![0; ngroups];
    fold_loop!(nulls, pairs, i, g, {
        sums[g] = Some(sums[g].unwrap_or(0).wrapping_add(v[i]));
        mags[g] = mags[g].saturating_add(v[i].unsigned_abs());
    });
    FoldOut::DecPartial { scale, sums, mags }
}

impl FoldOut {
    /// Merge a later part's states into these: `other`'s state `l`
    /// belongs to group `map[l]` here. Both sides are [`fold`]s of the
    /// same [`mergeable`] aggregate over the same column type.
    pub(crate) fn merge(&mut self, other: FoldOut, map: &[u32], func: AggFunc) -> Result<()> {
        let slots = map.iter().map(|&g| g as usize);
        match (self, other) {
            (FoldOut::Count(acc), FoldOut::Count(part)) => {
                for (g, c) in slots.zip(part) {
                    acc[g] += c;
                }
            }
            (
                FoldOut::DecPartial { sums, mags, .. },
                FoldOut::DecPartial {
                    sums: psums,
                    mags: pmags,
                    ..
                },
            ) => {
                for ((g, s), m) in slots.zip(psums).zip(pmags) {
                    if let Some(s) = s {
                        sums[g] = Some(sums[g].unwrap_or(0).wrapping_add(s));
                    }
                    mags[g] = mags[g].saturating_add(m);
                }
            }
            (FoldOut::Opt(acc), FoldOut::Opt(part)) => {
                for (g, new) in slots.zip(part) {
                    let Some(new) = new else { continue };
                    let merged = match (acc[g].take(), func) {
                        (None, _) => new,
                        // Wrapping at the column width, as each part's
                        // fold is.
                        (Some(Value::Int(a)), AggFunc::Sum) => match new {
                            Value::Int(b) => Value::Int(a.wrapping_add(b)),
                            _ => return Err(mismatched_parts()),
                        },
                        (Some(Value::BigInt(a)), AggFunc::Sum) => match new {
                            Value::BigInt(b) => Value::BigInt(a.wrapping_add(b)),
                            _ => return Err(mismatched_parts()),
                        },
                        // Strictly better replaces; the earlier part
                        // keeps a tie.
                        (Some(cur), AggFunc::Min) => {
                            if new.sql_cmp(&cur) == Some(Ordering::Less) {
                                new
                            } else {
                                cur
                            }
                        }
                        (Some(cur), AggFunc::Max) => {
                            if new.sql_cmp(&cur) == Some(Ordering::Greater) {
                                new
                            } else {
                                cur
                            }
                        }
                        _ => return Err(mismatched_parts()),
                    };
                    acc[g] = Some(merged);
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
            FoldOut::Opt(v) => v.resize(ngroups, None),
            FoldOut::Avg(v) => v.resize(ngroups, (0.0, 0)),
            FoldOut::DecPartial { sums, mags, .. } => {
                sums.resize(ngroups, None);
                mags.resize(ngroups, 0);
            }
        }
    }

    /// Close merged partial sums: `None` when some group's magnitudes
    /// left `i128`, i.e. the serial fold may have overflowed on the way
    /// and has to be run to find out.
    pub(crate) fn close_partial(self) -> Option<FoldOut> {
        match self {
            FoldOut::DecPartial { scale, sums, mags } => {
                mags.iter().all(|&m| m <= i128::MAX as u128).then(|| {
                    FoldOut::Opt(
                        sums.into_iter()
                            .map(|s| s.map(|u| Value::Decimal(u, scale)))
                            .collect(),
                    )
                })
            }
            done => Some(done),
        }
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
    let nulls = column_nulls(col);
    let mut accs: Vec<(f64, i64)> = vec![(0.0, 0); ngroups];
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
        ColumnVector::Decimal(v, s, _) => {
            // `Value::as_f64` divides by 10^scale per value; reproduce
            // the identical division (not a reciprocal multiply).
            let div = 10f64.powi(*s as i32);
            avg_loop!(v, |x: i128| x as f64 / div)
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

fn fold_minmax(
    col: &ColumnVector,
    pairs: impl Iterator<Item = (usize, usize)>,
    ngroups: usize,
    want: Ordering,
) -> Result<FoldOut> {
    let nulls = column_nulls(col);
    // Track the winning row per group; the value materializes once at
    // the end. `u32::MAX` = no non-null input seen.
    let mut best: Vec<u32> = vec![u32::MAX; ngroups];
    macro_rules! mm_loop {
        ($cmp:expr) => {
            fold_loop!(nulls, pairs, i, g, {
                let b = &mut best[g];
                // Replace only on a strict win (`sql_cmp == want`): an
                // incomparable pair (NaN) never replaces, and a NaN
                // leader never loses — the interpreter's exact rule.
                if *b == u32::MAX || $cmp(i, *b as usize) == Some(want) {
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
    Ok(FoldOut::Opt(
        best.into_iter()
            .map(|b| {
                if b == u32::MAX {
                    None
                } else {
                    Some(col.get(b as usize))
                }
            })
            .collect(),
    ))
}
