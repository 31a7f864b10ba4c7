//! Columnar, vectorized data representation.
//!
//! A [`VectorBatch`] is the unit of data flow in the vectorized engine
//! (the paper's Section 5: operators "run directly on the internal
//! format"). Each column is a typed [`ColumnVector`] with an optional
//! null bitmap. Filters produce index lists which are applied with
//! [`VectorBatch::take`], keeping kernels column-at-a-time.

use crate::bitset::BitSet;
use crate::error::{HiveError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::selvec::SelBatch;
use crate::types::DataType;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default number of rows per vectorized batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The index [`ColumnVector::take_or_null`] gathers as a NULL row.
pub const NULL_INDEX: u32 = u32::MAX;

/// A gather of a plain string column into at least this many times its
/// row count leaves dictionary-encoded (see [`ColumnVector::take`]).
///
/// Encoding costs a hash probe per *source* row and saves a `String`
/// clone per *output* cell, so it pays once rows repeat enough. Measured
/// on the worst input — every string distinct, so the pass finds nothing
/// to share — over 150 000 18-byte strings (`micro`'s
/// `gather/str_take_*`, ns per output cell, three alternating runs,
/// cloning gather → encoding gather): at 1x + 1 cells 59–72 → 104–143,
/// at 2x 58–62 → 47–59, at 30 000x (10 strings) 31–33 → 0.4–0.5. Any
/// repeat at all would lose near 1x; from 2x the encoding gather is no
/// slower on any input.
const FANOUT_ENCODE_FACTOR: usize = 2;

/// True when gathering `cells` cells from a plain string column of `rows`
/// rows is a fan-out: at least `FANOUT_ENCODE_FACTOR` times its rows. A
/// caller that splits one gather into several decides with this on the
/// whole gather, so every piece leaves in the representation the whole
/// would have.
pub fn is_fanout(rows: usize, cells: usize) -> bool {
    cells >= rows.saturating_mul(FANOUT_ENCODE_FACTOR)
}

/// A typed column of values with an optional null bitmap
/// (bit set = value is NULL).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ColumnVector {
    Boolean(Vec<bool>, Option<BitSet>),
    Int(Vec<i32>, Option<BitSet>),
    BigInt(Vec<i64>, Option<BitSet>),
    Double(Vec<f64>, Option<BitSet>),
    /// Unscaled values, at the width their content needs, plus a shared
    /// scale.
    Decimal(DecVals, u8, Option<BitSet>),
    Str(Vec<String>, Option<BitSet>),
    /// Dictionary-encoded strings: one `u32` code per row indexing into
    /// a dictionary shared (via `Arc`) across every chunk clone — the
    /// paper's §3.1/§3.3 encoded representation kept alive past the
    /// reader. Logically equivalent to a `Str` column; materialize via
    /// [`ColumnVector::decode`] only at output boundaries. Invariant:
    /// every code is `< dict.len()` (enforced at construction).
    Dict {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
        nulls: Option<BitSet>,
    },
    Date(Vec<i32>, Option<BitSet>),
    Timestamp(Vec<i64>, Option<BitSet>),
}

/// A decimal column's unscaled values, held as `i64` when every one of
/// them fits (Hive 3's `Decimal64ColumnVector`) and as `i128` otherwise.
/// The width follows the content, never the declared precision: readers
/// and builders produce `Narrow` whenever the values allow, and a value
/// past `i64` widens the whole column. Both widths mean the same values —
/// equality, hashing, gathers, casts and concatenation do not see which
/// one a column holds — so a kernel is written once, generic in
/// [`DecUnit`], and [`with_dec!`](crate::with_dec) instantiates it per
/// width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DecVals {
    Narrow(Vec<i64>),
    Wide(Vec<i128>),
}

/// One unscaled decimal value at one of [`DecVals`]' two widths.
pub trait DecUnit: Copy + Ord + Default + Send + Sync + std::fmt::Debug + 'static {
    /// The width in bits: 64 or 128.
    const BITS: u32;
    /// The value widened to `i128` (free for `i128`, a sign extension
    /// for `i64`).
    fn wide(self) -> i128;
    /// `x` at this width, when it fits.
    fn from_wide(x: i128) -> Option<Self>;
    /// The values of `v` when they are held at this width.
    fn slice(v: &DecVals) -> Option<&[Self]>;
    /// Values at this width as a column's [`DecVals`].
    fn vals(v: Vec<Self>) -> DecVals;
}

impl DecUnit for i64 {
    const BITS: u32 = 64;
    #[inline(always)]
    fn wide(self) -> i128 {
        self as i128
    }
    #[inline(always)]
    fn from_wide(x: i128) -> Option<i64> {
        i64::try_from(x).ok()
    }
    fn slice(v: &DecVals) -> Option<&[i64]> {
        match v {
            DecVals::Narrow(v) => Some(v),
            DecVals::Wide(_) => None,
        }
    }
    fn vals(v: Vec<i64>) -> DecVals {
        DecVals::Narrow(v)
    }
}

impl DecUnit for i128 {
    const BITS: u32 = 128;
    #[inline(always)]
    fn wide(self) -> i128 {
        self
    }
    #[inline(always)]
    fn from_wide(x: i128) -> Option<i128> {
        Some(x)
    }
    fn slice(v: &DecVals) -> Option<&[i128]> {
        match v {
            DecVals::Wide(v) => Some(v),
            DecVals::Narrow(_) => None,
        }
    }
    fn vals(v: Vec<i128>) -> DecVals {
        DecVals::Wide(v)
    }
}

/// Evaluate `$body` with `$v` bound to a [`DecVals`]' values at their
/// width — a `Vec<i64>` or a `Vec<i128>` (by reference when `$vals` is
/// one). The body is written once and compiled per width; its element
/// type is a [`DecUnit`].
#[macro_export]
macro_rules! with_dec {
    ($vals:expr, $v:ident => $body:expr) => {
        match $vals {
            $crate::vector::DecVals::Narrow($v) => $body,
            $crate::vector::DecVals::Wide($v) => $body,
        }
    };
}

impl DecVals {
    /// Number of values.
    pub fn len(&self) -> usize {
        with_dec!(self, v => v.len())
    }

    /// True for no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i128 {
        with_dec!(self, v => v[i].wide())
    }

    /// True when the values are held as `i64`.
    pub fn is_narrow(&self) -> bool {
        matches!(self, DecVals::Narrow(_))
    }

    /// The values as `i128`: borrowed when wide, widened into a copy
    /// when narrow.
    pub fn to_wide(&self) -> std::borrow::Cow<'_, [i128]> {
        match self {
            DecVals::Narrow(v) => v.iter().map(|&x| x as i128).collect(),
            DecVals::Wide(v) => std::borrow::Cow::Borrowed(v),
        }
    }

    /// The values as `i64` when every one fits: borrowed when narrow,
    /// narrowed into a copy when wide.
    pub fn narrowed(&self) -> Option<std::borrow::Cow<'_, [i64]>> {
        match self {
            DecVals::Narrow(v) => Some(std::borrow::Cow::Borrowed(v)),
            DecVals::Wide(v) => v.iter().map(|&x| i64::try_from(x).ok()).collect(),
        }
    }

    /// Widen in place (a no-op when already wide).
    fn widen(&mut self) -> &mut Vec<i128> {
        if let DecVals::Narrow(v) = self {
            *self = DecVals::Wide(v.iter().map(|&x| x as i128).collect());
        }
        match self {
            DecVals::Wide(v) => v,
            DecVals::Narrow(_) => unreachable!("widened just above"),
        }
    }

    /// Append `x`, widening the column when it does not fit `i64`.
    pub fn push(&mut self, x: i128) {
        match (&mut *self, i64::try_from(x)) {
            (DecVals::Narrow(v), Ok(x)) => v.push(x),
            _ => self.widen().push(x),
        }
    }

    /// Grow or shrink to `n` values, new ones `fill`.
    pub fn resize(&mut self, n: usize, fill: i64) {
        match self {
            DecVals::Narrow(v) => v.resize(n, fill),
            DecVals::Wide(v) => v.resize(n, fill.into()),
        }
    }

    /// Append `other`'s values: at this width when both are narrow,
    /// else both widened.
    pub fn extend_from(&mut self, other: &DecVals) {
        match (&mut *self, other) {
            (DecVals::Narrow(a), DecVals::Narrow(b)) => a.extend_from_slice(b),
            (this, other) => this.widen().extend_from_slice(&other.to_wide()),
        }
    }
}

/// Wide values narrowed when every one fits `i64`: the width by content.
impl From<Vec<i128>> for DecVals {
    fn from(v: Vec<i128>) -> DecVals {
        let wide = DecVals::Wide(v);
        match wide.narrowed() {
            Some(narrow) => DecVals::Narrow(narrow.into_owned()),
            None => wide,
        }
    }
}

/// Collected wide, then narrowed when every value fits `i64`.
impl FromIterator<i128> for DecVals {
    fn from_iter<I: IntoIterator<Item = i128>>(iter: I) -> DecVals {
        DecVals::from(iter.into_iter().collect::<Vec<i128>>())
    }
}

impl From<Vec<i64>> for DecVals {
    fn from(v: Vec<i64>) -> DecVals {
        DecVals::Narrow(v)
    }
}

/// Equal values, whatever the widths.
impl PartialEq for DecVals {
    fn eq(&self, other: &DecVals) -> bool {
        match (self, other) {
            (DecVals::Narrow(a), DecVals::Narrow(b)) => a == b,
            (DecVals::Wide(a), DecVals::Wide(b)) => a == b,
            (a, b) => a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i)),
        }
    }
}

macro_rules! per_variant {
    ($self:expr, $v:ident, $n:ident => $body:expr) => {
        match $self {
            ColumnVector::Boolean($v, $n) => $body,
            ColumnVector::Int($v, $n) => $body,
            ColumnVector::BigInt($v, $n) => $body,
            ColumnVector::Double($v, $n) => $body,
            ColumnVector::Decimal($v, _, $n) => $body,
            ColumnVector::Str($v, $n) => $body,
            ColumnVector::Dict {
                codes: $v,
                nulls: $n,
                ..
            } => $body,
            ColumnVector::Date($v, $n) => $body,
            ColumnVector::Timestamp($v, $n) => $body,
        }
    };
}

impl ColumnVector {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        per_variant!(self, v, _n => v.len())
    }

    /// True for zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Boolean(..) => DataType::Boolean,
            ColumnVector::Int(..) => DataType::Int,
            ColumnVector::BigInt(..) => DataType::BigInt,
            ColumnVector::Double(..) => DataType::Double,
            ColumnVector::Decimal(_, s, _) => DataType::Decimal(38, *s),
            ColumnVector::Str(..) => DataType::String,
            ColumnVector::Dict { .. } => DataType::String,
            ColumnVector::Date(..) => DataType::Date,
            ColumnVector::Timestamp(..) => DataType::Timestamp,
        }
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        per_variant!(self, _v, n => n.as_ref().is_some_and(|b| b.get(i)))
    }

    /// The null bitmap, when the column carries one (bit set = NULL).
    pub fn nulls(&self) -> Option<&BitSet> {
        per_variant!(self, _v, n => n.as_ref())
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        per_variant!(self, _v, n => n.as_ref().map_or(0, |b| b.count_ones()))
    }

    /// The value at row `i` as a scalar [`Value`].
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnVector::Boolean(v, _) => Value::Boolean(v[i]),
            ColumnVector::Int(v, _) => Value::Int(v[i]),
            ColumnVector::BigInt(v, _) => Value::BigInt(v[i]),
            ColumnVector::Double(v, _) => Value::Double(v[i]),
            ColumnVector::Decimal(v, s, _) => Value::Decimal(v.get(i), *s),
            ColumnVector::Str(v, _) => Value::String(v[i].clone()),
            ColumnVector::Dict { codes, dict, .. } => {
                Value::String(dict[codes[i] as usize].clone())
            }
            ColumnVector::Date(v, _) => Value::Date(v[i]),
            ColumnVector::Timestamp(v, _) => Value::Timestamp(v[i]),
        }
    }

    /// Build an empty column of the given type. Decimal uses the type's
    /// scale; non-atomic types are rejected.
    pub fn new_empty(dt: &DataType) -> Result<ColumnVector> {
        Ok(match dt {
            DataType::Boolean => ColumnVector::Boolean(Vec::new(), None),
            DataType::Int => ColumnVector::Int(Vec::new(), None),
            DataType::BigInt => ColumnVector::BigInt(Vec::new(), None),
            DataType::Double => ColumnVector::Double(Vec::new(), None),
            DataType::Decimal(_, s) => ColumnVector::Decimal(DecVals::Narrow(Vec::new()), *s, None),
            DataType::String => ColumnVector::Str(Vec::new(), None),
            DataType::Date => ColumnVector::Date(Vec::new(), None),
            DataType::Timestamp => ColumnVector::Timestamp(Vec::new(), None),
            DataType::Null => ColumnVector::Str(Vec::new(), None),
            t => {
                return Err(HiveError::Execution(format!(
                    "non-atomic type {t} cannot be vectorized"
                )))
            }
        })
    }

    /// Build a column of type `dt` from scalar values, casting as needed.
    pub fn from_values(values: &[Value], dt: &DataType) -> Result<ColumnVector> {
        let mut b = ColumnBuilder::new(dt)?;
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// `n` copies of `v` cast to `dt` — what `n` pushes of `v` through
    /// a [`ColumnBuilder`] build, without the per-row cast and clone. A
    /// string constant is a one-entry dictionary under `n` zero codes:
    /// one `String`, not `n`.
    pub fn constant(v: &Value, dt: &DataType, n: usize) -> Result<ColumnVector> {
        let one = ColumnVector::from_values(std::slice::from_ref(v), dt)?;
        if one.is_null(0) {
            return ColumnVector::all_null(dt, n);
        }
        Ok(match one {
            ColumnVector::Boolean(x, _) => ColumnVector::Boolean(vec![x[0]; n], None),
            ColumnVector::Int(x, _) => ColumnVector::Int(vec![x[0]; n], None),
            ColumnVector::BigInt(x, _) => ColumnVector::BigInt(vec![x[0]; n], None),
            ColumnVector::Double(x, _) => ColumnVector::Double(vec![x[0]; n], None),
            ColumnVector::Decimal(x, s, _) => {
                ColumnVector::Decimal(with_dec!(x, x => DecUnit::vals(vec![x[0]; n])), s, None)
            }
            ColumnVector::Str(x, _) => ColumnVector::Dict {
                codes: vec![0; n],
                dict: Arc::new(x),
                nulls: None,
            },
            ColumnVector::Date(x, _) => ColumnVector::Date(vec![x[0]; n], None),
            ColumnVector::Timestamp(x, _) => ColumnVector::Timestamp(vec![x[0]; n], None),
            // `from_values` builds through `ColumnBuilder`, which never
            // produces the encoded variant.
            dict @ ColumnVector::Dict { .. } => dict.take(&vec![0; n]),
        })
    }

    /// Gather rows at `indices` into a new column. The result carries a
    /// null bitmap only when a gathered row is NULL. A plain string
    /// column gathered into at least twice as many cells as it has rows
    /// (a join fanning a dimension out) leaves as a `Dict` over its
    /// distinct non-NULL strings — logically the same column, without a
    /// `String` per cell; every other gather keeps the source's
    /// representation.
    pub fn take(&self, indices: &[u32]) -> ColumnVector {
        self.gather(indices, false)
    }

    /// [`ColumnVector::take`] for the NULL-extended side of an outer
    /// join: an index of [`NULL_INDEX`] gathers a NULL row (the type's
    /// default value under a set null bit), every other index gathers
    /// the source row exactly as `take` does. A `Dict` stays a `Dict`
    /// over the same shared dictionary.
    pub fn take_or_null(&self, indices: &[u32]) -> ColumnVector {
        self.gather(indices, true)
    }

    /// An all-NULL column of `n` rows of type `dt`: the type's default
    /// value under a set null bit in every row.
    pub fn all_null(dt: &DataType, n: usize) -> Result<ColumnVector> {
        let mut col = ColumnVector::new_empty(dt)?;
        per_variant!(&mut col, v, nulls => {
            v.resize(n, Default::default());
            *nulls = (n > 0).then(|| BitSet::all_set(n));
        });
        Ok(col)
    }

    /// True when a gather of `cells` cells from this column is a fan-out
    /// [`ColumnVector::take`] encodes: a plain string column gathered
    /// into at least `FANOUT_ENCODE_FACTOR` times its rows ([`is_fanout`]).
    pub fn fans_out(&self, cells: usize) -> bool {
        matches!(self, ColumnVector::Str(v, _) if is_fanout(v.len(), cells))
    }

    /// The `Dict` form a fan-out gather of `cells` cells reads from: this
    /// column's rows as codes over its distinct non-NULL strings, in
    /// first-seen order (NULL rows take code 0, under their null bit).
    /// `None` when the gather is no fan-out ([`ColumnVector::fans_out`])
    /// or the column has no non-NULL row. Gathering from the result is
    /// gathering from this column: a caller that splits one fan-out
    /// into several gathers encodes once and shares the dictionary.
    pub fn fanout_encoded(&self, cells: usize) -> Option<ColumnVector> {
        let ColumnVector::Str(v, nulls) = self else {
            return None;
        };
        if !self.fans_out(cells) {
            return None;
        }
        let mut dict: Vec<String> = Vec::new();
        let mut seen: std::collections::HashMap<&str, u32> =
            std::collections::HashMap::with_capacity(v.len());
        let codes = v
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if nulls.as_ref().is_some_and(|b| b.get(i)) {
                    return 0;
                }
                *seen.entry(s).or_insert_with(|| {
                    dict.push(s.clone());
                    dict.len() as u32 - 1
                })
            })
            .collect();
        (!dict.is_empty()).then(|| ColumnVector::Dict {
            codes,
            dict: Arc::new(dict),
            nulls: nulls.clone(),
        })
    }

    fn gather(&self, idx: &[u32], null_extend: bool) -> ColumnVector {
        fn vals<T: Clone + Default>(v: &[T], idx: &[u32], null_extend: bool) -> Vec<T> {
            if null_extend {
                idx.iter()
                    .map(|&i| {
                        if i == NULL_INDEX {
                            T::default()
                        } else {
                            v[i as usize].clone()
                        }
                    })
                    .collect()
            } else {
                idx.iter().map(|&i| v[i as usize].clone()).collect()
            }
        }
        // Bit `o` is set when `idx[o]` is the sentinel or names a NULL
        // source row; no bitmap at all when no gathered row is NULL.
        fn nulls(src: &Option<BitSet>, idx: &[u32], null_extend: bool) -> Option<BitSet> {
            let mut out: Option<BitSet> = None;
            let mut mark = |o: usize| out.get_or_insert_with(|| BitSet::new(idx.len())).set(o);
            match src {
                Some(b) => {
                    for (o, &i) in idx.iter().enumerate() {
                        if (null_extend && i == NULL_INDEX) || b.get(i as usize) {
                            mark(o);
                        }
                    }
                }
                None if null_extend => {
                    for (o, &i) in idx.iter().enumerate() {
                        if i == NULL_INDEX {
                            mark(o);
                        }
                    }
                }
                None => {}
            }
            out
        }
        macro_rules! g {
            ($v:expr, $n:expr) => {
                (vals($v, idx, null_extend), nulls($n, idx, null_extend))
            };
        }
        match self {
            ColumnVector::Boolean(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::Boolean(v, n)
            }
            ColumnVector::Int(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::Int(v, n)
            }
            ColumnVector::BigInt(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::BigInt(v, n)
            }
            ColumnVector::Double(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::Double(v, n)
            }
            ColumnVector::Decimal(v, s, n) => {
                let (v, n) = with_dec!(v, v => {
                    let (v, n) = g!(v, n);
                    (DecUnit::vals(v), n)
                });
                ColumnVector::Decimal(v, *s, n)
            }
            ColumnVector::Str(v, n) => {
                // A fan-out: source rows repeat. Gather codes over the
                // distinct non-NULL strings instead of cloning a
                // `String` per output cell.
                if let Some(encoded) = self.fanout_encoded(idx.len()) {
                    return encoded.gather(idx, null_extend);
                }
                let (v, n) = g!(v, n);
                ColumnVector::Str(v, n)
            }
            // An empty dictionary has no entry a NULL row's code could
            // name (every code must be `< dict.len()`), so its
            // NULL-extension is the equivalent plain column.
            ColumnVector::Dict { dict, nulls: n, .. } if null_extend && dict.is_empty() => {
                ColumnVector::Str(vec![String::new(); idx.len()], nulls(n, idx, null_extend))
            }
            ColumnVector::Dict {
                codes,
                dict,
                nulls: n,
            } => {
                let (codes, nulls) = g!(codes, n);
                ColumnVector::Dict {
                    codes,
                    dict: dict.clone(),
                    nulls,
                }
            }
            ColumnVector::Date(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::Date(v, n)
            }
            ColumnVector::Timestamp(v, n) => {
                let (v, n) = g!(v, n);
                ColumnVector::Timestamp(v, n)
            }
        }
    }

    /// Cast every row to `want` — [`Value::cast_to`] cell for cell,
    /// without a `Value` per cell: NULL rows stay NULL, a lenient cast
    /// that fails (an unparsable string) yields NULL, and a pair
    /// `Value::cast_to` rejects is an error as soon as one non-NULL row
    /// meets it. Strings cast once per dictionary entry when the column
    /// is dictionary-encoded. The result carries a null bitmap only
    /// when some row is NULL.
    pub fn cast_to(&self, want: &DataType) -> Result<ColumnVector> {
        use crate::dates;
        use crate::value::{format_decimal, format_double, parse_decimal, pow10, rescale};
        use ColumnVector as C;
        use DataType as T;
        const DAY_MICROS: i64 = 86_400_000_000;

        // `f(i)` converts non-NULL row `i`; `None` is a lenient NULL.
        fn cells<O: Default>(
            len: usize,
            nulls: &Option<BitSet>,
            mut f: impl FnMut(usize) -> Option<O>,
        ) -> (Vec<O>, Option<BitSet>) {
            let mut out_nulls: Option<BitSet> = None;
            let vals = (0..len)
                .map(|i| {
                    let cell = if nulls.as_ref().is_some_and(|b| b.get(i)) {
                        None
                    } else {
                        f(i)
                    };
                    cell.unwrap_or_else(|| {
                        out_nulls.get_or_insert_with(|| BitSet::new(len)).set(i);
                        O::default()
                    })
                })
                .collect();
            (vals, out_nulls)
        }
        // String sources: `Str` parses per row, `Dict` once per entry.
        enum Strs<'a> {
            Plain(&'a [String], &'a Option<BitSet>),
            Coded(&'a [u32], &'a [String], &'a Option<BitSet>),
        }
        impl Strs<'_> {
            fn parse<O: Default + Clone>(
                &self,
                f: impl Fn(&str) -> Option<O>,
            ) -> (Vec<O>, Option<BitSet>) {
                match self {
                    Strs::Plain(v, n) => cells(v.len(), n, |i| f(&v[i])),
                    Strs::Coded(codes, dict, n) => {
                        let per_entry: Vec<Option<O>> = dict.iter().map(|s| f(s)).collect();
                        cells(codes.len(), n, |i| per_entry[codes[i] as usize].clone())
                    }
                }
            }
        }
        macro_rules! map {
            ($v:expr, $n:expr, |$x:ident| $e:expr) => {
                cells($v.len(), $n, |i| {
                    let $x = $v[i];
                    Some($e)
                })
            };
        }
        macro_rules! col {
            ($variant:ident, $parts:expr) => {{
                let (v, n) = $parts;
                C::$variant(v, n)
            }};
        }
        macro_rules! dec {
            ($scale:expr, $parts:expr) => {{
                let (v, n): (Vec<i128>, _) = $parts;
                C::Decimal(DecVals::from(v), $scale, n)
            }};
        }

        ColumnVector::new_empty(want)?; // non-atomic targets are rejected up front
        if self.data_type() == *want
            || matches!((self, want), (C::Decimal(_, a, _), T::Decimal(_, b)) if a == b)
        {
            return Ok(self.clone());
        }
        // No cast exists: fine for a column whose rows are all NULL.
        let no_cast = || -> Result<ColumnVector> {
            if self.null_count() < self.len() {
                return Err(HiveError::Execution(format!(
                    "cannot cast {} to {want}",
                    self.data_type()
                )));
            }
            ColumnVector::all_null(want, self.len())
        };
        let strs = match self {
            C::Str(v, n) => Some(Strs::Plain(v, n)),
            C::Dict { codes, dict, nulls } => Some(Strs::Coded(codes, dict, nulls)),
            _ => None,
        };
        if let Some(src) = strs {
            return Ok(match want {
                T::Int => col!(Int, src.parse(|s| s.trim().parse().ok())),
                T::BigInt => col!(BigInt, src.parse(|s| s.trim().parse().ok())),
                T::Double => col!(Double, src.parse(|s| s.trim().parse().ok())),
                T::Decimal(_, sc) => dec!(*sc, src.parse(|s| parse_decimal(s, *sc))),
                T::Date => col!(Date, src.parse(dates::parse_date)),
                T::Timestamp => col!(Timestamp, src.parse(dates::parse_timestamp)),
                T::Boolean => col!(
                    Boolean,
                    src.parse(|s| match s.to_ascii_lowercase().as_str() {
                        "true" => Some(true),
                        "false" => Some(false),
                        _ => None,
                    })
                ),
                _ => return no_cast(),
            });
        }
        let out = match (self, want) {
            (C::Int(v, n), T::BigInt) => col!(BigInt, map!(v, n, |x| x as i64)),
            (C::Int(v, n), T::Double) => col!(Double, map!(v, n, |x| x as f64)),
            (C::Int(v, n), T::Decimal(_, s)) => {
                dec!(*s, map!(v, n, |x| x as i128 * pow10(*s)))
            }
            (C::Int(v, n), T::String) => col!(Str, map!(v, n, |x| x.to_string())),
            (C::Int(v, n), T::Boolean) => col!(Boolean, map!(v, n, |x| x != 0)),
            (C::BigInt(v, n), T::Int) => col!(Int, map!(v, n, |x| x as i32)),
            (C::BigInt(v, n), T::Double) => col!(Double, map!(v, n, |x| x as f64)),
            (C::BigInt(v, n), T::Decimal(_, s)) => {
                dec!(*s, map!(v, n, |x| x as i128 * pow10(*s)))
            }
            (C::BigInt(v, n), T::String) => col!(Str, map!(v, n, |x| x.to_string())),
            (C::BigInt(v, n), T::Timestamp) => col!(Timestamp, map!(v, n, |x| x)),
            (C::Double(v, n), T::Int) => col!(Int, map!(v, n, |x| x as i32)),
            (C::Double(v, n), T::BigInt) => col!(BigInt, map!(v, n, |x| x as i64)),
            (C::Double(v, n), T::Decimal(_, s)) => {
                dec!(*s, map!(v, n, |x| (x * pow10(*s) as f64).round() as i128))
            }
            (C::Double(v, n), T::String) => col!(Str, map!(v, n, |x| format_double(x))),
            (C::Decimal(v, s, n), want) => with_dec!(v, v => match want {
                T::Double => col!(Double, map!(v, n, |u| u.wide() as f64 / pow10(*s) as f64)),
                T::Int => col!(Int, map!(v, n, |u| (u.wide() / pow10(*s)) as i32)),
                T::BigInt => col!(BigInt, map!(v, n, |u| (u.wide() / pow10(*s)) as i64)),
                T::Decimal(_, s2) => dec!(*s2, map!(v, n, |u| rescale(u.wide(), *s, *s2))),
                T::String => col!(Str, map!(v, n, |u| format_decimal(u.wide(), *s))),
                _ => return no_cast(),
            }),
            (C::Boolean(v, n), T::Int) => col!(Int, map!(v, n, |b| b as i32)),
            (C::Boolean(v, n), T::String) => col!(Str, map!(v, n, |b| b.to_string())),
            (C::Date(v, n), T::Timestamp) => {
                col!(Timestamp, map!(v, n, |d| d as i64 * DAY_MICROS))
            }
            (C::Date(v, n), T::String) => col!(Str, map!(v, n, |d| dates::format_date(d))),
            (C::Timestamp(v, n), T::Date) => {
                col!(Date, map!(v, n, |t| t.div_euclid(DAY_MICROS) as i32))
            }
            (C::Timestamp(v, n), T::String) => {
                col!(Str, map!(v, n, |t| dates::format_timestamp(t)))
            }
            (C::Timestamp(v, n), T::BigInt) => col!(BigInt, map!(v, n, |t| t)),
            _ => return no_cast(),
        };
        Ok(out)
    }

    /// Append all rows of `other` (must be the same variant).
    pub fn append(&mut self, other: &ColumnVector) -> Result<()> {
        fn merge_nulls(a_len: usize, a: &mut Option<BitSet>, b_len: usize, b: &Option<BitSet>) {
            if a.is_none() && b.is_none() {
                return;
            }
            let total = a_len + b_len;
            let mut nb = BitSet::new(total);
            if let Some(ab) = a.as_ref() {
                for i in ab.iter_ones() {
                    nb.set(i);
                }
            }
            if let Some(bb) = b.as_ref() {
                for i in bb.iter_ones() {
                    nb.set(a_len + i);
                }
            }
            *a = Some(nb);
        }
        macro_rules! app {
            ($av:expr, $an:expr, $bv:expr, $bn:expr) => {{
                let alen = $av.len();
                $av.extend_from_slice($bv);
                merge_nulls(alen, $an, $bv.len(), $bn);
                Ok(())
            }};
        }
        // An empty Str column (the shape `VectorBatch::empty` produces
        // for String fields) adopts the encoded form wholesale so scan
        // assembly keeps dictionaries intact across morsel appends.
        if let (ColumnVector::Str(av, _), ColumnVector::Dict { .. }) = (&*self, other) {
            if av.is_empty() {
                *self = other.clone();
                return Ok(());
            }
        }
        match (self, other) {
            (
                ColumnVector::Dict {
                    codes: ac,
                    dict: ad,
                    nulls: an,
                },
                ColumnVector::Dict {
                    codes: bc,
                    dict: bd,
                    nulls: bn,
                },
            ) => {
                let alen = ac.len();
                if bc.is_empty() {
                    return Ok(());
                }
                if Arc::ptr_eq(ad, bd) || **ad == **bd {
                    ac.extend_from_slice(bc);
                } else {
                    // Different dictionaries: merge, interning the
                    // other side's entries and remapping its codes.
                    let mut merged: Vec<String> = (**ad).clone();
                    let mut index: std::collections::HashMap<String, u32> = merged
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (s.clone(), i as u32))
                        .collect();
                    let remap: Vec<u32> = bd
                        .iter()
                        .map(|s| match index.get(s) {
                            Some(&c) => c,
                            None => {
                                let c = merged.len() as u32;
                                merged.push(s.clone());
                                index.insert(s.clone(), c);
                                c
                            }
                        })
                        .collect();
                    ac.extend(bc.iter().map(|&c| remap[c as usize]));
                    *ad = Arc::new(merged);
                }
                merge_nulls(alen, an, bc.len(), bn);
                Ok(())
            }
            (
                ColumnVector::Dict {
                    codes: ac,
                    dict: ad,
                    nulls: an,
                },
                ColumnVector::Str(bv, bn),
            ) => {
                let alen = ac.len();
                if bv.is_empty() {
                    return Ok(());
                }
                let mut merged: Vec<String> = (**ad).clone();
                let mut index: std::collections::HashMap<String, u32> = merged
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i as u32))
                    .collect();
                for s in bv {
                    let c = match index.get(s) {
                        Some(&c) => c,
                        None => {
                            let c = merged.len() as u32;
                            merged.push(s.clone());
                            index.insert(s.clone(), c);
                            c
                        }
                    };
                    ac.push(c);
                }
                *ad = Arc::new(merged);
                merge_nulls(alen, an, bv.len(), bn);
                Ok(())
            }
            (
                ColumnVector::Str(av, an),
                ColumnVector::Dict {
                    codes: bc,
                    dict: bd,
                    nulls: bn,
                },
            ) => {
                let alen = av.len();
                av.extend(bc.iter().map(|&c| bd[c as usize].clone()));
                merge_nulls(alen, an, bc.len(), bn);
                Ok(())
            }
            (ColumnVector::Boolean(av, an), ColumnVector::Boolean(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::Int(av, an), ColumnVector::Int(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::BigInt(av, an), ColumnVector::BigInt(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::Double(av, an), ColumnVector::Double(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::Decimal(av, s1, an), ColumnVector::Decimal(bv, s2, bn)) if s1 == s2 => {
                let alen = av.len();
                av.extend_from(bv);
                merge_nulls(alen, an, bv.len(), bn);
                Ok(())
            }
            (ColumnVector::Str(av, an), ColumnVector::Str(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::Date(av, an), ColumnVector::Date(bv, bn)) => app!(av, an, bv, bn),
            (ColumnVector::Timestamp(av, an), ColumnVector::Timestamp(bv, bn)) => {
                app!(av, an, bv, bn)
            }
            (a, b) => Err(HiveError::Execution(format!(
                "cannot append column of type {} to {}",
                b.data_type(),
                a.data_type()
            ))),
        }
    }

    /// Concatenate the selected rows of a sequence of column parts in a
    /// single gather. A `None` selection keeps the whole part. This is
    /// the fused-scan assembly primitive: instead of concatenating full
    /// morsel columns and filtering afterwards, only surviving rows are
    /// copied, once.
    ///
    /// Uniform typed parts gather directly into the output vector;
    /// uniform `Dict` parts merge dictionaries with the same adopt /
    /// extend / intern-and-remap policy as [`ColumnVector::append`];
    /// mixed representations (e.g. `Str` and `Dict` parts of one
    /// `String` column) fall back to take-then-append, which preserves
    /// `append`'s semantics exactly. The output null bitmap is present
    /// iff any contributing part carries one, matching `append`.
    pub fn concat_selected(
        dt: &DataType,
        parts: &[(&ColumnVector, Option<&[u32]>)],
    ) -> Result<ColumnVector> {
        fn part_rows(c: &ColumnVector, sel: Option<&[u32]>) -> usize {
            sel.map_or(c.len(), |s| s.len())
        }
        let total: usize = parts.iter().map(|&(c, sel)| part_rows(c, sel)).sum();
        let has_nulls = parts
            .iter()
            .any(|&(c, _)| per_variant!(c, _v, n => n.is_some()));

        // Gather one part's values and null bits into the accumulators.
        fn gather_part<T: Clone>(
            vals: &mut Vec<T>,
            nulls: &mut Option<BitSet>,
            v: &[T],
            n: &Option<BitSet>,
            sel: Option<&[u32]>,
        ) {
            let base = vals.len();
            match sel {
                None => vals.extend_from_slice(v),
                Some(idx) => vals.extend(idx.iter().map(|&i| v[i as usize].clone())),
            }
            if let (Some(nb), Some(b)) = (nulls.as_mut(), n.as_ref()) {
                match sel {
                    None => {
                        for i in b.iter_ones() {
                            nb.set(base + i);
                        }
                    }
                    Some(idx) => {
                        for (o, &i) in idx.iter().enumerate() {
                            if b.get(i as usize) {
                                nb.set(base + o);
                            }
                        }
                    }
                }
            }
        }
        macro_rules! uniform_gather {
            ($variant:ident, $t:ty) => {{
                let mut vals: Vec<$t> = Vec::with_capacity(total);
                let mut nulls = has_nulls.then(|| BitSet::new(total));
                for &(c, sel) in parts {
                    let ColumnVector::$variant(v, n) = c else {
                        unreachable!()
                    };
                    gather_part(&mut vals, &mut nulls, v, n, sel);
                }
                return Ok(ColumnVector::$variant(vals, nulls));
            }};
        }
        macro_rules! all_are {
            ($variant:ident) => {
                parts
                    .iter()
                    .all(|&(c, _)| matches!(c, ColumnVector::$variant(..)))
            };
        }
        match parts.first() {
            None => return ColumnVector::new_empty(dt),
            Some(&(ColumnVector::Boolean(..), _)) if all_are!(Boolean) => {
                uniform_gather!(Boolean, bool)
            }
            Some(&(ColumnVector::Int(..), _)) if all_are!(Int) => uniform_gather!(Int, i32),
            Some(&(ColumnVector::BigInt(..), _)) if all_are!(BigInt) => {
                uniform_gather!(BigInt, i64)
            }
            Some(&(ColumnVector::Double(..), _)) if all_are!(Double) => {
                uniform_gather!(Double, f64)
            }
            Some(&(ColumnVector::Date(..), _)) if all_are!(Date) => uniform_gather!(Date, i32),
            Some(&(ColumnVector::Timestamp(..), _)) if all_are!(Timestamp) => {
                uniform_gather!(Timestamp, i64)
            }
            Some(&(ColumnVector::Str(..), _)) if all_are!(Str) => uniform_gather!(Str, String),
            // Parts of one scale and one width gather at that width;
            // mixed widths widen through `append` below.
            Some(&(ColumnVector::Decimal(v0, s0, _), _))
                if parts.iter().all(|&(c, _)| {
                    matches!(c, ColumnVector::Decimal(v, s, _)
                        if s == s0 && v.is_narrow() == v0.is_narrow())
                }) =>
            {
                fn gather_dec<T: DecUnit>(
                    parts: &[(&ColumnVector, Option<&[u32]>)],
                    total: usize,
                    mut nulls: Option<BitSet>,
                ) -> (DecVals, Option<BitSet>) {
                    let mut vals: Vec<T> = Vec::with_capacity(total);
                    for &(c, sel) in parts {
                        if let ColumnVector::Decimal(v, _, n) = c {
                            gather_part(&mut vals, &mut nulls, T::slice(v).unwrap_or(&[]), n, sel);
                        }
                    }
                    (T::vals(vals), nulls)
                }
                let nulls = has_nulls.then(|| BitSet::new(total));
                let (vals, nulls) = match v0 {
                    DecVals::Narrow(_) => gather_dec::<i64>(parts, total, nulls),
                    DecVals::Wide(_) => gather_dec::<i128>(parts, total, nulls),
                };
                return Ok(ColumnVector::Decimal(vals, *s0, nulls));
            }
            Some(_) if parts.iter().all(|&(c, _)| c.is_dict()) => {
                let mut codes: Vec<u32> = Vec::with_capacity(total);
                let mut nulls = has_nulls.then(|| BitSet::new(total));
                let mut dict: Arc<Vec<String>> = Arc::new(Vec::new());
                let mut first = true;
                for &(c, sel) in parts {
                    if part_rows(c, sel) == 0 {
                        continue;
                    }
                    let ColumnVector::Dict {
                        codes: pc,
                        dict: pd,
                        nulls: pn,
                    } = c
                    else {
                        unreachable!()
                    };
                    // Mirror `append`: the first contributing part's
                    // dictionary is adopted by handle; equal
                    // dictionaries extend codes directly; a differing
                    // dictionary is interned in order and its codes
                    // remapped.
                    let remap: Option<Vec<u32>> =
                        if first || Arc::ptr_eq(&dict, pd) || *dict == **pd {
                            if first {
                                dict = pd.clone();
                                first = false;
                            }
                            None
                        } else {
                            let mut merged: Vec<String> = (*dict).clone();
                            let mut index: std::collections::HashMap<String, u32> = merged
                                .iter()
                                .enumerate()
                                .map(|(i, s)| (s.clone(), i as u32))
                                .collect();
                            let rm: Vec<u32> = pd
                                .iter()
                                .map(|s| match index.get(s) {
                                    Some(&code) => code,
                                    None => {
                                        let code = merged.len() as u32;
                                        merged.push(s.clone());
                                        index.insert(s.clone(), code);
                                        code
                                    }
                                })
                                .collect();
                            dict = Arc::new(merged);
                            Some(rm)
                        };
                    let base = codes.len();
                    match (sel, remap.as_ref()) {
                        (None, None) => codes.extend_from_slice(pc),
                        (Some(idx), None) => codes.extend(idx.iter().map(|&i| pc[i as usize])),
                        (None, Some(rm)) => codes.extend(pc.iter().map(|&c| rm[c as usize])),
                        (Some(idx), Some(rm)) => {
                            codes.extend(idx.iter().map(|&i| rm[pc[i as usize] as usize]))
                        }
                    }
                    if let (Some(nb), Some(b)) = (nulls.as_mut(), pn.as_ref()) {
                        match sel {
                            None => {
                                for i in b.iter_ones() {
                                    nb.set(base + i);
                                }
                            }
                            Some(idx) => {
                                for (o, &i) in idx.iter().enumerate() {
                                    if b.get(i as usize) {
                                        nb.set(base + o);
                                    }
                                }
                            }
                        }
                    }
                }
                if codes.is_empty() {
                    return ColumnVector::new_empty(dt);
                }
                return Ok(ColumnVector::Dict { codes, dict, nulls });
            }
            Some(_) => {}
        }
        // Mixed or unhandled representations: per-part take + append,
        // byte-compatible with the unfused concat-then-filter path.
        let mut out = ColumnVector::new_empty(dt)?;
        for &(c, sel) in parts {
            match sel {
                None => out.append(c)?,
                Some(idx) => out.append(&c.take(idx))?,
            }
        }
        Ok(out)
    }

    /// Approximate heap size in bytes, used by cache/cost accounting.
    pub fn approx_bytes(&self) -> usize {
        let base = match self {
            ColumnVector::Boolean(v, _) => v.len(),
            ColumnVector::Int(v, _) | ColumnVector::Date(v, _) => v.len() * 4,
            ColumnVector::BigInt(v, _) | ColumnVector::Timestamp(v, _) => v.len() * 8,
            ColumnVector::Double(v, _) => v.len() * 8,
            ColumnVector::Decimal(DecVals::Narrow(v), _, _) => v.len() * 8,
            ColumnVector::Decimal(DecVals::Wide(v), _, _) => v.len() * 16,
            ColumnVector::Str(v, _) => v.iter().map(|s| s.len() + 24).sum(),
            // Codes plus the full dictionary heap. Cache accounting
            // that shares the dictionary across chunks charges it once
            // via `dict_parts` instead of using this total.
            ColumnVector::Dict { codes, dict, .. } => {
                codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
        };
        base + self.len() / 8
    }

    /// Build a dictionary-encoded string column, rejecting any code
    /// outside the dictionary as a [`HiveError::Format`] error (the
    /// on-disk form is untrusted input).
    pub fn dict_from_codes(
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
        nulls: Option<BitSet>,
    ) -> Result<ColumnVector> {
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict.len()) {
            return Err(HiveError::Format(format!(
                "dictionary code {bad} out of range for dictionary of {} entries",
                dict.len()
            )));
        }
        Ok(ColumnVector::Dict { codes, dict, nulls })
    }

    /// Borrow the encoded parts when this column is dictionary-encoded.
    #[allow(clippy::type_complexity)]
    pub fn dict_parts(&self) -> Option<(&[u32], &Arc<Vec<String>>, Option<&BitSet>)> {
        match self {
            ColumnVector::Dict { codes, dict, nulls } => Some((codes, dict, nulls.as_ref())),
            _ => None,
        }
    }

    /// True when this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        matches!(self, ColumnVector::Dict { .. })
    }

    /// The single materialization choke point: dictionary-encoded
    /// columns decode to `Str`; every other variant passes through
    /// unchanged. Called only at output boundaries (final results,
    /// results-cache fill, corc re-write).
    pub fn decode(self) -> ColumnVector {
        match self {
            ColumnVector::Dict { codes, dict, nulls } => ColumnVector::Str(
                codes.iter().map(|&c| dict[c as usize].clone()).collect(),
                nulls,
            ),
            other => other,
        }
    }
}

/// Logical per-row comparison across the `Str`/`Dict` representations:
/// two string columns are equal when every row is NULL in both or holds
/// the same string in both. (What sits under a NULL slot is not
/// compared: an encoded column can only pad with a dictionary entry.)
fn str_eq_logical(a: &ColumnVector, b: &ColumnVector) -> bool {
    fn raw(c: &ColumnVector, i: usize) -> &str {
        match c {
            ColumnVector::Str(v, _) => &v[i],
            ColumnVector::Dict { codes, dict, .. } => &dict[codes[i] as usize],
            _ => unreachable!("str_eq_logical called on non-string column"),
        }
    }
    if a.len() != b.len() {
        return false;
    }
    (0..a.len()).all(|i| match (a.is_null(i), b.is_null(i)) {
        (true, true) => true,
        (false, false) => raw(a, i) == raw(b, i),
        _ => false,
    })
}

impl PartialEq for ColumnVector {
    fn eq(&self, other: &Self) -> bool {
        use ColumnVector::*;
        match (self, other) {
            (Boolean(a, an), Boolean(b, bn)) => a == b && an == bn,
            (Int(a, an), Int(b, bn)) => a == b && an == bn,
            (BigInt(a, an), BigInt(b, bn)) => a == b && an == bn,
            (Double(a, an), Double(b, bn)) => a == b && an == bn,
            (Decimal(a, s1, an), Decimal(b, s2, bn)) => s1 == s2 && a == b && an == bn,
            (Str(a, an), Str(b, bn)) => a == b && an == bn,
            (Date(a, an), Date(b, bn)) => a == b && an == bn,
            (Timestamp(a, an), Timestamp(b, bn)) => a == b && an == bn,
            // Encoded and materialized string columns compare by
            // logical content so Dict is transparent to batch equality.
            (Dict { .. }, Dict { .. }) | (Dict { .. }, Str(..)) | (Str(..), Dict { .. }) => {
                str_eq_logical(self, other)
            }
            _ => false,
        }
    }
}

/// Incremental builder for a [`ColumnVector`].
#[derive(Debug)]
pub struct ColumnBuilder {
    col: ColumnVector,
    nulls: Vec<usize>,
    len: usize,
    dt: DataType,
}

impl ColumnBuilder {
    /// Start building a column of type `dt`.
    pub fn new(dt: &DataType) -> Result<Self> {
        Ok(ColumnBuilder {
            col: ColumnVector::new_empty(dt)?,
            nulls: Vec::new(),
            len: 0,
            dt: dt.clone(),
        })
    }

    /// Append a value, casting to the column type. NULL is always accepted.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.nulls.push(self.len);
            self.push_default();
        } else {
            let cast = if v.data_type() == self.dt {
                v.clone()
            } else {
                v.cast_to(&self.dt)?
            };
            if cast.is_null() {
                // Lenient cast produced NULL.
                self.nulls.push(self.len);
                self.push_default();
            } else {
                self.push_nonnull(&cast)?;
            }
        }
        self.len += 1;
        Ok(())
    }

    fn push_default(&mut self) {
        match &mut self.col {
            ColumnVector::Boolean(v, _) => v.push(false),
            ColumnVector::Int(v, _) => v.push(0),
            ColumnVector::BigInt(v, _) => v.push(0),
            ColumnVector::Double(v, _) => v.push(0.0),
            ColumnVector::Decimal(v, _, _) => v.push(0),
            ColumnVector::Str(v, _) => v.push(String::new()),
            // invariant: builders only ever hold columns produced by
            // `new_empty`, which never creates the encoded variant.
            ColumnVector::Dict { .. } => unreachable!("builders never hold Dict columns"),
            ColumnVector::Date(v, _) => v.push(0),
            ColumnVector::Timestamp(v, _) => v.push(0),
        }
    }

    fn push_nonnull(&mut self, v: &Value) -> Result<()> {
        match (&mut self.col, v) {
            (ColumnVector::Boolean(c, _), Value::Boolean(x)) => c.push(*x),
            (ColumnVector::Int(c, _), Value::Int(x)) => c.push(*x),
            (ColumnVector::BigInt(c, _), Value::BigInt(x)) => c.push(*x),
            (ColumnVector::Double(c, _), Value::Double(x)) => c.push(*x),
            (ColumnVector::Decimal(c, _, _), Value::Decimal(x, _)) => c.push(*x),
            (ColumnVector::Str(c, _), Value::String(x)) => c.push(x.clone()),
            (ColumnVector::Date(c, _), Value::Date(x)) => c.push(*x),
            (ColumnVector::Timestamp(c, _), Value::Timestamp(x)) => c.push(*x),
            (c, v) => {
                return Err(HiveError::Execution(format!(
                    "type mismatch pushing {} into {} column",
                    v.data_type(),
                    c.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Finish and return the built column.
    pub fn finish(self) -> ColumnVector {
        let mut col = self.col;
        if !self.nulls.is_empty() {
            let mut b = BitSet::new(self.len);
            for i in self.nulls {
                b.set(i);
            }
            per_variant!(&mut col, _v, n => *n = Some(b));
        }
        col
    }
}

/// A batch of rows in columnar form, with its schema. Columns are held
/// behind `Arc` so projections, cache handouts and operator pass-through
/// share data instead of copying it; mutation (`append`) copies-on-write
/// via [`Arc::make_mut`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorBatch {
    schema: Schema,
    columns: Vec<Arc<ColumnVector>>,
    num_rows: usize,
}

impl VectorBatch {
    /// Build a batch with an explicit row count — required for
    /// zero-column batches (`SELECT COUNT(*)` plans prune every column
    /// but rows still flow).
    pub fn new_with_rows(
        schema: Schema,
        columns: Vec<ColumnVector>,
        num_rows: usize,
    ) -> Result<Self> {
        VectorBatch::from_arcs(
            schema,
            columns.into_iter().map(Arc::new).collect(),
            num_rows,
        )
    }

    /// Build a batch; all columns must share one length.
    pub fn new(schema: Schema, columns: Vec<ColumnVector>) -> Result<Self> {
        let num_rows = columns.first().map_or(0, |c| c.len());
        VectorBatch::new_with_rows(schema, columns, num_rows)
    }

    /// Build a batch from already-shared columns (zero-copy: readers and
    /// operators hand `Arc`s straight through).
    pub fn from_arcs(
        schema: Schema,
        columns: Vec<Arc<ColumnVector>>,
        num_rows: usize,
    ) -> Result<Self> {
        if columns.iter().any(|c| c.len() != num_rows) {
            return Err(HiveError::Execution("ragged column lengths".into()));
        }
        if columns.len() != schema.len() {
            return Err(HiveError::Execution(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        Ok(VectorBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: &Schema) -> Result<Self> {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnVector::new_empty(&f.data_type))
            .collect::<Result<Vec<_>>>()?;
        VectorBatch::new(schema.clone(), columns)
    }

    /// Convert row-oriented data into a batch, casting to the schema types.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Result<Self> {
        let mut builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(&f.data_type))
            .collect::<Result<Vec<_>>>()?;
        for r in rows {
            if r.len() != schema.len() {
                return Err(HiveError::Execution(format!(
                    "row arity {} does not match schema arity {}",
                    r.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(r.values()) {
                b.push(v)?;
            }
        }
        VectorBatch::new_with_rows(
            schema.clone(),
            builders.into_iter().map(|b| b.finish()).collect(),
            rows.len(),
        )
    }

    /// The batch schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True for zero rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &ColumnVector {
        &self.columns[i]
    }

    /// Shared handle to column `i` (clone it to pass the column on
    /// without copying its data).
    pub fn column_arc(&self, i: usize) -> &Arc<ColumnVector> {
        &self.columns[i]
    }

    /// All columns (shared handles).
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// Row `i` as a scalar row (allocates; edge use only).
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// All rows (allocates; edge use only).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.num_rows).map(|i| self.row(i)).collect()
    }

    /// Gather the rows at `indices` into a new batch.
    pub fn take(&self, indices: &[u32]) -> VectorBatch {
        VectorBatch {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.take(indices)))
                .collect(),
            num_rows: indices.len(),
        }
    }

    /// Keep only the columns at `indices` (projection). Zero-copy: the
    /// projected batch shares column data with `self`.
    pub fn project(&self, indices: &[usize]) -> VectorBatch {
        VectorBatch {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            num_rows: self.num_rows,
        }
    }

    /// Append all rows of `other` (schemas' types must match).
    /// Copy-on-write: columns shared with another batch are cloned
    /// before extension, so sharers never observe the mutation.
    pub fn append(&mut self, other: &VectorBatch) -> Result<()> {
        if self.num_columns() != other.num_columns() {
            return Err(HiveError::Execution(
                "batch arity mismatch in append".into(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(other.columns()) {
            Arc::make_mut(a).append(b)?;
        }
        self.num_rows += other.num_rows;
        Ok(())
    }

    /// Concatenate a batch sequence under one schema.
    pub fn concat(schema: &Schema, batches: &[VectorBatch]) -> Result<VectorBatch> {
        let mut out = VectorBatch::empty(schema)?;
        for b in batches {
            out.append(b)?;
        }
        Ok(out)
    }

    /// Concatenate the selected rows of `parts` in one gather per
    /// column (see [`ColumnVector::concat_selected`]), each output
    /// column reserved to the total up front. This is how a scan
    /// assembles its morsels: survivors of a fused predicate are copied
    /// exactly once, instead of concatenating full morsels and
    /// filtering the result.
    pub fn concat_selected(schema: &Schema, parts: &[SelBatch]) -> Result<VectorBatch> {
        let ncols = schema.len();
        if parts.iter().any(|p| p.batch.num_columns() != ncols) {
            return Err(HiveError::Execution(
                "batch arity mismatch in concat_selected".into(),
            ));
        }
        let total: usize = parts.iter().map(SelBatch::num_rows).sum();
        let mut columns = Vec::with_capacity(ncols);
        for (ci, field) in schema.fields().iter().enumerate() {
            let col_parts: Vec<(&ColumnVector, Option<&[u32]>)> = parts
                .iter()
                .map(|p| (p.batch.column(ci), p.sel.as_indices()))
                .collect();
            columns.push(ColumnVector::concat_selected(&field.data_type, &col_parts)?);
        }
        VectorBatch::new_with_rows(schema.clone(), columns, total)
    }

    /// Approximate heap size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Materialize every dictionary-encoded column (the late-
    /// materialization output boundary). Non-encoded columns pass
    /// through by handle, untouched.
    pub fn decode(self) -> VectorBatch {
        VectorBatch {
            schema: self.schema,
            columns: self
                .columns
                .into_iter()
                .map(|c| {
                    if c.is_dict() {
                        let owned = Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone());
                        Arc::new(owned.decode())
                    } else {
                        c
                    }
                })
                .collect(),
            num_rows: self.num_rows,
        }
    }

    /// True when any column is still dictionary-encoded.
    pub fn has_dict(&self) -> bool {
        self.columns.iter().any(|c| c.is_dict())
    }

    /// Split into sub-batches of at most `chunk` rows (used by scan and
    /// shuffle to keep pipeline batches bounded).
    pub fn split(&self, chunk: usize) -> Vec<VectorBatch> {
        if self.num_rows <= chunk {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity(self.num_rows.div_ceil(chunk));
        let mut start = 0u32;
        while (start as usize) < self.num_rows {
            let end = ((start as usize + chunk).min(self.num_rows)) as u32;
            let idx: Vec<u32> = (start..end).collect();
            out.push(self.take(&idx));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample_batch() -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::String),
            Field::new("price", DataType::Decimal(7, 2)),
        ]);
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::String("a".into()),
                Value::Decimal(100, 2),
            ]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Decimal(250, 2)]),
            Row::new(vec![Value::Int(3), Value::String("c".into()), Value::Null]),
        ];
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    #[test]
    fn from_rows_round_trip() {
        let b = sample_batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(1).get(1), &Value::Null);
        assert_eq!(b.row(0).get(2), &Value::Decimal(100, 2));
        let rows = b.to_rows();
        let b2 = VectorBatch::from_rows(b.schema(), &rows).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn take_preserves_nulls() {
        let b = sample_batch();
        let t = b.take(&[2, 1]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0).get(0), &Value::Int(3));
        assert!(t.column(2).is_null(0));
        assert!(t.column(1).is_null(1));
    }

    #[test]
    fn append_merges_null_bitmaps() {
        let mut a = sample_batch();
        let b = sample_batch();
        a.append(&b).unwrap();
        assert_eq!(a.num_rows(), 6);
        assert!(a.column(1).is_null(1));
        assert!(a.column(1).is_null(4));
        assert_eq!(a.column(1).null_count(), 2);
    }

    #[test]
    fn builder_casts_values() {
        let mut b = ColumnBuilder::new(&DataType::BigInt).unwrap();
        b.push(&Value::Int(7)).unwrap();
        b.push(&Value::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.get(0), Value::BigInt(7));
        assert!(c.is_null(1));
    }

    #[test]
    fn ragged_batches_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let cols = vec![
            ColumnVector::Int(vec![1, 2], None),
            ColumnVector::Int(vec![1], None),
        ];
        assert!(VectorBatch::new(schema, cols).is_err());
    }

    #[test]
    fn split_bounds_batch_size() {
        let b = sample_batch();
        let parts = b.split(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].num_rows(), 2);
        assert_eq!(parts[1].num_rows(), 1);
        let whole = VectorBatch::concat(b.schema(), &parts).unwrap();
        assert_eq!(whole, b);
    }

    #[test]
    fn projection() {
        let b = sample_batch();
        let p = b.project(&[2, 0]);
        assert_eq!(p.schema().names(), vec!["price", "id"]);
        assert_eq!(p.row(0).get(1), &Value::Int(1));
    }

    #[test]
    fn constant_equals_repeated_pushes() {
        let cases = [
            (Value::Int(7), DataType::Int),
            (Value::Int(7), DataType::BigInt), // cast on the way in
            (Value::String("p".into()), DataType::String),
            (Value::Decimal(1234, 2), DataType::Decimal(9, 2)),
            (Value::Null, DataType::Date),
            (Value::String("not a number".into()), DataType::Int), // lenient cast → NULL
        ];
        for (v, dt) in cases {
            for n in [0, 1, 5] {
                let mut b = ColumnBuilder::new(&dt).unwrap();
                for _ in 0..n {
                    b.push(&v).unwrap();
                }
                let got = ColumnVector::constant(&v, &dt, n).unwrap();
                assert_eq!(got, b.finish(), "{v:?} as {dt} x{n}");
            }
        }
    }

    fn part(b: &VectorBatch, keep: Option<Vec<u32>>) -> SelBatch {
        match keep {
            Some(idx) => SelBatch::new(b.clone(), crate::selvec::SelVec::Idx(idx)).unwrap(),
            None => SelBatch::from_batch(b.clone()),
        }
    }

    #[test]
    fn concat_selected_matches_concat_then_take() {
        let b = sample_batch();
        let parts = vec![
            part(&b, Some(vec![2, 0])),
            part(&b, None),
            part(&b, Some(vec![1])),
        ];
        let got = VectorBatch::concat_selected(b.schema(), &parts).unwrap();
        // Reference: concatenate full parts, then gather the same rows
        // by global index.
        let full = VectorBatch::concat(b.schema(), &[b.clone(), b.clone(), b.clone()]).unwrap();
        let expected = full.take(&[2, 0, 3, 4, 5, 7]);
        assert_eq!(got, expected);
        // Null bitmap presence mirrors `append`: any part with a bitmap
        // yields a bitmap.
        assert!(got.column(1).is_null(3));
        assert!(got.column(1).is_null(5));
        assert_eq!(got.column(1).null_count(), 2);
    }

    #[test]
    fn concat_selected_merges_differing_dictionaries() {
        let schema = Schema::new(vec![Field::new("s", DataType::String)]);
        let d1 = ColumnVector::dict_from_codes(
            vec![0, 1, 0],
            Arc::new(vec!["x".to_string(), "y".to_string()]),
            None,
        )
        .unwrap();
        let mut nulls = BitSet::new(3);
        nulls.set(1);
        let d2 = ColumnVector::dict_from_codes(
            vec![1, 0, 1],
            Arc::new(vec!["z".to_string(), "y".to_string()]),
            Some(nulls),
        )
        .unwrap();
        let b1 = VectorBatch::new(schema.clone(), vec![d1]).unwrap();
        let b2 = VectorBatch::new(schema.clone(), vec![d2]).unwrap();
        let parts = vec![part(&b1, Some(vec![2, 1])), part(&b2, Some(vec![0, 1]))];
        let got = VectorBatch::concat_selected(&schema, &parts).unwrap();
        let full = VectorBatch::concat(&schema, &[b1, b2]).unwrap();
        let expected = full.take(&[2, 1, 3, 4]);
        assert_eq!(got, expected);
        assert!(got.column(0).is_dict());
        assert!(got.column(0).is_null(3));
    }

    #[test]
    fn concat_selected_mixed_str_and_dict_falls_back() {
        let schema = Schema::new(vec![Field::new("s", DataType::String)]);
        let plain = ColumnVector::Str(vec!["p".to_string(), "q".to_string()], None);
        let dict = ColumnVector::dict_from_codes(
            vec![1, 0],
            Arc::new(vec!["x".to_string(), "y".to_string()]),
            None,
        )
        .unwrap();
        let b1 = VectorBatch::new(schema.clone(), vec![dict]).unwrap();
        let b2 = VectorBatch::new(schema.clone(), vec![plain]).unwrap();
        let parts = vec![part(&b1, None), part(&b2, Some(vec![1]))];
        let got = VectorBatch::concat_selected(&schema, &parts).unwrap();
        let full = VectorBatch::concat(&schema, &[b1, b2]).unwrap();
        let expected = full.take(&[0, 1, 3]);
        assert_eq!(got, expected);
    }

    #[test]
    fn concat_selected_empty_selections() {
        let b = sample_batch();
        let parts = vec![part(&b, Some(Vec::new())), part(&b, Some(Vec::new()))];
        let got = VectorBatch::concat_selected(b.schema(), &parts).unwrap();
        assert_eq!(got.num_rows(), 0);
        assert_eq!(got.num_columns(), 3);
    }

    fn dict_col() -> ColumnVector {
        let dict = Arc::new(vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        let mut nulls = BitSet::new(5);
        nulls.set(3);
        ColumnVector::dict_from_codes(vec![0, 2, 1, 0, 2], dict, Some(nulls)).unwrap()
    }

    #[test]
    fn dict_get_and_decode() {
        let c = dict_col();
        assert_eq!(c.len(), 5);
        assert_eq!(c.data_type(), DataType::String);
        assert_eq!(c.get(1), Value::String("c".into()));
        assert_eq!(c.get(3), Value::Null);
        let decoded = c.clone().decode();
        assert!(matches!(decoded, ColumnVector::Str(..)));
        assert_eq!(decoded, c); // logical equality across representations
        for i in 0..5 {
            assert_eq!(decoded.get(i), c.get(i));
        }
    }

    #[test]
    fn dict_out_of_range_code_rejected() {
        let dict = Arc::new(vec!["a".to_string()]);
        let err = ColumnVector::dict_from_codes(vec![0, 1], dict, None).unwrap_err();
        assert!(matches!(err, HiveError::Format(_)), "got {err:?}");
    }

    #[test]
    fn dict_take_shares_dictionary() {
        let c = dict_col();
        let t = c.take(&[4, 3, 0]);
        let (codes, dict, nulls) = t.dict_parts().unwrap();
        assert_eq!(codes, &[2, 0, 0]);
        let (_, orig_dict, _) = c.dict_parts().unwrap();
        assert!(Arc::ptr_eq(dict, orig_dict));
        assert!(nulls.unwrap().get(1));
        assert_eq!(t.get(0), Value::String("c".into()));
    }

    #[test]
    fn dict_append_same_dictionary_extends_codes() {
        let mut a = dict_col();
        let b = dict_col();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 10);
        assert_eq!(a.null_count(), 2);
        let (codes, _, _) = a.dict_parts().unwrap();
        assert_eq!(codes.len(), 10);
        assert_eq!(a.get(6), Value::String("c".into()));
    }

    #[test]
    fn dict_append_merges_distinct_dictionaries() {
        let mut a = dict_col();
        let other_dict = Arc::new(vec!["x".to_string(), "b".to_string()]);
        let b = ColumnVector::dict_from_codes(vec![0, 1], other_dict, None).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a.get(5), Value::String("x".into()));
        assert_eq!(a.get(6), Value::String("b".into()));
        let (_, dict, _) = a.dict_parts().unwrap();
        // "b" interned once, "x" appended.
        assert_eq!(**dict, vec!["a", "b", "c", "x"]);
    }

    #[test]
    fn empty_str_adopts_dict_on_append() {
        let mut a = ColumnVector::new_empty(&DataType::String).unwrap();
        a.append(&dict_col()).unwrap();
        assert!(a.is_dict());
        assert_eq!(a.len(), 5);
        // And the reverse: appending Dict onto non-empty Str decodes.
        let mut s = ColumnVector::Str(vec!["z".to_string()], None);
        s.append(&dict_col()).unwrap();
        assert!(!s.is_dict());
        assert_eq!(s.len(), 6);
        assert_eq!(s.get(1), Value::String("a".into()));
        assert!(s.is_null(4));
    }

    #[test]
    fn dict_str_logical_equality() {
        let c = dict_col();
        let s = c.clone().decode();
        assert_eq!(c, s);
        assert_eq!(s, c);
        let mut other = dict_col();
        other.append(&dict_col()).unwrap();
        assert_ne!(c, other);
    }

    #[test]
    fn batch_decode_materializes_dict_columns() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::String),
            Field::new("v", DataType::Int),
        ]);
        let b = VectorBatch::new(
            schema,
            vec![dict_col(), ColumnVector::Int(vec![1, 2, 3, 4, 5], None)],
        )
        .unwrap();
        assert!(b.has_dict());
        let rows = b.to_rows();
        let d = b.clone().decode();
        assert!(!d.has_dict());
        assert_eq!(d.to_rows(), rows);
        assert_eq!(d, b);
    }
}
