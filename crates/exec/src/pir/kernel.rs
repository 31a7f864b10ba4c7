//! Type-specialized predicate kernels — the monomorphization layer of
//! the physical IR.
//!
//! A [`PredKernel`] resolves a predicate's shape **once at lowering
//! time**: the comparison literal is pre-coerced into the column's
//! kernel domain ([`CmpSpec`]) and evaluation is a tight loop over the
//! selection vector with no per-batch dispatch on [`ColumnVector`]
//! variants. Shapes with no kernel run the row interpreter
//! (`eval_scalar`) at the selected rows only.
//!
//! Pass-set contract: for every kernel, `select(batch, sel)` returns
//! exactly the rows of `sel` (in `sel` order) on which the source
//! predicate evaluates to SQL TRUE under `eval_scalar` — the set
//! [`crate::kernels::filter_indices_rowmode`] keeps. NULL comparisons
//! never pass (three-valued logic), so `AND` is an ordered
//! short-circuit intersection and `OR` a union.

use hive_common::value::{dec_to_f64, pow10};
use hive_common::{
    with_dec, BitSet, ColumnVector, DecUnit, KernelType, Result, SelVec, Value, VectorBatch,
};
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Borrowed selection: the rows a kernel may look at, in order.
#[derive(Clone, Copy)]
pub(crate) enum SelRef<'a> {
    All(usize),
    Idx(&'a [u32]),
}

impl<'a> SelRef<'a> {
    pub(crate) fn of(sel: &'a SelVec) -> SelRef<'a> {
        match sel {
            SelVec::All(n) => SelRef::All(*n),
            SelVec::Idx(v) => SelRef::Idx(v),
        }
    }

    pub(crate) fn len(self) -> usize {
        match self {
            SelRef::All(n) => n,
            SelRef::Idx(v) => v.len(),
        }
    }
}

/// Keep the selected rows satisfying `keep`, preserving selection order.
#[inline]
fn filter_sel(sel: SelRef<'_>, mut keep: impl FnMut(usize) -> bool) -> Vec<u32> {
    match sel {
        SelRef::All(n) => (0..n as u32).filter(|&r| keep(r as usize)).collect(),
        SelRef::Idx(v) => v.iter().copied().filter(|&r| keep(r as usize)).collect(),
    }
}

#[inline]
fn for_each_sel(sel: SelRef<'_>, mut f: impl FnMut(u32)) {
    match sel {
        SelRef::All(n) => (0..n as u32).for_each(&mut f),
        SelRef::Idx(v) => v.iter().copied().for_each(&mut f),
    }
}

/// The bitmap a row loop has to consult: `None` when the column has no
/// NULL row (no bitmap, or one with no bit set).
#[inline]
pub(crate) fn live_nulls(nulls: &Option<BitSet>) -> Option<&BitSet> {
    nulls.as_ref().filter(|b| b.count_ones() > 0)
}

/// A comparison operator resolved to its verdict per [`Ordering`] —
/// computed once at lowering so the row loop is a table lookup instead
/// of an operator match per row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrdMask {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl OrdMask {
    pub(crate) fn of(op: BinaryOp) -> Option<OrdMask> {
        let (lt, eq, gt) = match op {
            BinaryOp::Eq => (false, true, false),
            BinaryOp::NotEq => (true, false, true),
            BinaryOp::Lt => (true, false, false),
            BinaryOp::LtEq => (true, true, false),
            BinaryOp::Gt => (false, false, true),
            BinaryOp::GtEq => (false, true, true),
            _ => return None,
        };
        Some(OrdMask { lt, eq, gt })
    }

    /// The NOT of this comparison over non-NULL operands (NULLs never
    /// pass either way, so mask complement is exactly `NOT cmp`).
    pub(crate) fn negate(self) -> OrdMask {
        OrdMask {
            lt: !self.lt,
            eq: !self.eq,
            gt: !self.gt,
        }
    }

    #[inline]
    fn hit(self, o: Ordering) -> bool {
        match o {
            Ordering::Less => self.lt,
            Ordering::Equal => self.eq,
            Ordering::Greater => self.gt,
        }
    }

    /// Incomparable (`None`, only NaN) never passes — same verdict as
    /// the interpreter's `apply_ord`.
    #[inline]
    fn hit_opt(self, o: Option<Ordering>) -> bool {
        o.is_some_and(|o| self.hit(o))
    }
}

/// A comparison literal pre-coerced into the column's kernel domain.
/// One variant per [`KernelType`] comparison the interpreter's fast
/// path covers; lowering produces `None` (→ row fallback) elsewhere.
#[derive(Debug, Clone)]
pub(crate) enum CmpSpec {
    Int(i32),
    /// `Int` column against a `BigInt` literal: rows widen to `i64`.
    IntWide(i64),
    BigInt(i64),
    Double(f64),
    /// Compare `row * factor` against `lit`, both at the wider of the
    /// column's and the literal's scales: a literal with no more
    /// fractional digits than the column is rescaled **up** to it
    /// (`factor` 1); one with more keeps its digits and the rows widen
    /// instead. Exact either way, where rounding the literal down to
    /// the column scale is not.
    Decimal {
        lit: i128,
        factor: i128,
        scale: u8,
    },
    Date(i32),
    Timestamp(i64),
    Str(String),
}

impl CmpSpec {
    /// The kernel domain this comparison is monomorphized over (the
    /// schema-level domain; a `Str` spec still runs per-entry over
    /// dictionary columns).
    pub(crate) fn kernel_type(&self) -> KernelType {
        match self {
            CmpSpec::Int(_) | CmpSpec::IntWide(_) => KernelType::Int,
            CmpSpec::BigInt(_) => KernelType::BigInt,
            CmpSpec::Double(_) => KernelType::Double,
            CmpSpec::Decimal { scale, .. } => KernelType::Decimal(*scale),
            CmpSpec::Date(_) => KernelType::Date,
            CmpSpec::Timestamp(_) => KernelType::Timestamp,
            CmpSpec::Str(_) => KernelType::Str,
        }
    }

    /// Coerce a literal into the comparison domain of a column of
    /// kernel type `kt`, exactly as `sql_cmp` compares the pair;
    /// anything else row-falls-back.
    pub(crate) fn coerce(kt: KernelType, lit: &Value) -> Option<CmpSpec> {
        use hive_common::value::rescale;
        Some(match (kt, lit) {
            (KernelType::Int, Value::Int(x)) => CmpSpec::Int(*x),
            (KernelType::Int, Value::BigInt(x)) => CmpSpec::IntWide(*x),
            (KernelType::BigInt, Value::BigInt(x)) => CmpSpec::BigInt(*x),
            (KernelType::BigInt, Value::Int(x)) => CmpSpec::BigInt(*x as i64),
            (KernelType::Double, Value::Double(x)) => CmpSpec::Double(*x),
            (KernelType::Double, Value::Int(x)) => CmpSpec::Double(*x as f64),
            (KernelType::Decimal(s), Value::Decimal(u, s2)) if *s2 <= s => CmpSpec::Decimal {
                lit: rescale(*u, *s2, s),
                factor: 1,
                scale: s,
            },
            (KernelType::Decimal(s), Value::Decimal(u, s2)) => CmpSpec::Decimal {
                lit: *u,
                factor: pow10(*s2 - s),
                scale: s,
            },
            (KernelType::Decimal(s), Value::Int(x)) => CmpSpec::Decimal {
                lit: *x as i128 * pow10(s),
                factor: 1,
                scale: s,
            },
            (KernelType::Decimal(s), Value::BigInt(x)) => CmpSpec::Decimal {
                lit: *x as i128 * pow10(s),
                factor: 1,
                scale: s,
            },
            (KernelType::Date, Value::Date(x)) => CmpSpec::Date(*x),
            (KernelType::Timestamp, Value::Timestamp(x)) => CmpSpec::Timestamp(*x),
            (KernelType::Str, Value::String(x)) => CmpSpec::Str(x.clone()),
            _ => return None,
        })
    }
}

/// A compiled predicate node. `select` narrows a selection to the rows
/// where the predicate is TRUE.
#[derive(Debug, Clone)]
pub(crate) enum PredKernel {
    /// `column <op> literal`, literal pre-coerced. `orig` is the source
    /// expression, kept for the (defensive) representation-mismatch row
    /// fallback.
    Cmp {
        col: usize,
        mask: OrdMask,
        spec: CmpSpec,
        orig: Box<ScalarExpr>,
    },
    /// `left_col <op> right_col` — both operands are columns (the
    /// compiled join-residual shape; also `WHERE a < b` filters). The
    /// variant pair resolves per batch, mirroring `sql_cmp`'s
    /// same-domain arms; unsupported pairs row-fall-back.
    CmpCols {
        lcol: usize,
        rcol: usize,
        mask: OrdMask,
        orig: Box<ScalarExpr>,
    },
    /// `column [NOT] LIKE 'prefix%'` over a string column — per-row
    /// `starts_with`, per-dictionary-entry over dict columns.
    StrPrefix {
        col: usize,
        prefix: String,
        negated: bool,
        orig: Box<ScalarExpr>,
    },
    /// `column [NOT] IN (literals)`, every literal non-NULL and
    /// pre-coerced — a dictionary column tests each entry once, then
    /// reads codes.
    InList {
        col: usize,
        specs: Vec<CmpSpec>,
        negated: bool,
        orig: Box<ScalarExpr>,
    },
    /// `column IS [NOT] NULL` — a bitmap probe, the cheapest tier.
    IsNull { col: usize, negated: bool },
    /// Ordered short-circuit conjunction: each kernel narrows the
    /// previous survivor set, so later (costlier) conjuncts only see
    /// rows the earlier ones kept.
    And(Vec<PredKernel>),
    /// Disjunction as a union: the right side only evaluates rows the
    /// left rejected, and the result is re-merged in selection order.
    Or(Box<PredKernel>, Box<PredKernel>),
    /// Interpreter fallback for shapes with no specialized kernel —
    /// still selection-driven (only selected rows evaluate) and
    /// dictionary-aware like `eval_dict_unary`.
    Row { expr: ScalarExpr, cols: Vec<usize> },
}

impl PredKernel {
    /// Cost tier for conjunct ordering: bitmap probes and fixed-width
    /// comparisons, then string comparisons, then composites, then the
    /// row-at-a-time fallback.
    pub(crate) fn cost_tier(&self) -> u8 {
        match self {
            PredKernel::IsNull { .. } => 0,
            PredKernel::Cmp { spec, .. } => {
                if spec.kernel_type().is_fixed_width() {
                    0
                } else {
                    1
                }
            }
            // Column-column comparisons can land on a string pair, so
            // they order with the string tier.
            PredKernel::InList { specs, .. } => {
                u8::from(!specs.iter().all(|s| s.kernel_type().is_fixed_width()))
            }
            PredKernel::CmpCols { .. } => 1,
            PredKernel::StrPrefix { .. } => 1,
            PredKernel::And(_) | PredKernel::Or(..) => 2,
            PredKernel::Row { .. } => 3,
        }
    }

    /// Does any node in this kernel tree fall back to row-at-a-time
    /// `eval_scalar`? Gates the compiled-residual path: pair batches
    /// materialize only referenced columns, which is exactly what the
    /// monomorphized kernels (and their per-comparison fallbacks) read,
    /// but a whole-expression `Row` kernel forfeits the point of the
    /// vectorized pass.
    pub(crate) fn has_row(&self) -> bool {
        match self {
            PredKernel::Row { .. } => true,
            PredKernel::And(ks) => ks.iter().any(PredKernel::has_row),
            PredKernel::Or(l, r) => l.has_row() || r.has_row(),
            _ => false,
        }
    }

    /// Rows of `sel` (in order) where this predicate is TRUE. Rows a
    /// specialized kernel hands to the row interpreter at run time (its
    /// columns arrived in a representation it has no loop for) are
    /// added to `interpreted`.
    pub(crate) fn select(
        &self,
        batch: &VectorBatch,
        sel: SelRef<'_>,
        interpreted: &AtomicU64,
    ) -> Result<Vec<u32>> {
        let interpret = |expr, cols: &[usize]| {
            interpreted.fetch_add(sel.len() as u64, Relaxed);
            select_row(expr, cols, batch, sel)
        };
        match self {
            PredKernel::Cmp {
                col,
                mask,
                spec,
                orig,
            } => match select_cmp(batch.column(*col), *mask, spec, sel) {
                Some(v) => Ok(v),
                // Representation drifted from the schema the spec was
                // compiled against: evaluate the original expression.
                None => interpret(orig, std::slice::from_ref(col)),
            },
            PredKernel::CmpCols {
                lcol,
                rcol,
                mask,
                orig,
            } => match select_cmp_cols(batch.column(*lcol), batch.column(*rcol), *mask, sel) {
                Some(v) => Ok(v),
                None => interpret(orig, &[*lcol, *rcol]),
            },
            PredKernel::StrPrefix {
                col,
                prefix,
                negated,
                orig,
            } => match batch.column(*col) {
                ColumnVector::Str(v, n) => {
                    let nulls = live_nulls(n);
                    Ok(filter_sel(sel, |r| {
                        !nulls.is_some_and(|b| b.get(r))
                            && (v[r].starts_with(prefix.as_str()) != *negated)
                    }))
                }
                ColumnVector::Dict { codes, dict, nulls } => {
                    let verdicts: Vec<bool> = dict
                        .iter()
                        .map(|s| s.starts_with(prefix.as_str()) != *negated)
                        .collect();
                    let nulls = live_nulls(nulls);
                    Ok(filter_sel(sel, |r| {
                        !nulls.is_some_and(|b| b.get(r)) && verdicts[codes[r] as usize]
                    }))
                }
                _ => interpret(orig, std::slice::from_ref(col)),
            },
            PredKernel::InList {
                col,
                specs,
                negated,
                orig,
            } => match select_in(batch.column(*col), specs, *negated, sel) {
                Some(v) => Ok(v),
                None => interpret(orig, std::slice::from_ref(col)),
            },
            PredKernel::IsNull { col, negated } => {
                let c = batch.column(*col);
                Ok(match column_nulls(c) {
                    Some(b) => filter_sel(sel, |r| b.get(r) != *negated),
                    // No bitmap: IS NULL keeps nothing, IS NOT NULL
                    // keeps everything.
                    None => {
                        if *negated {
                            filter_sel(sel, |_| true)
                        } else {
                            Vec::new()
                        }
                    }
                })
            }
            PredKernel::And(ks) => {
                let mut cur = ks[0].select(batch, sel, interpreted)?;
                for k in &ks[1..] {
                    if cur.is_empty() {
                        break;
                    }
                    cur = k.select(batch, SelRef::Idx(&cur), interpreted)?;
                }
                Ok(cur)
            }
            PredKernel::Or(l, r) => {
                let lp = l.select(batch, sel, interpreted)?;
                if lp.len() == sel.len() {
                    return Ok(lp);
                }
                // Rows the left rejected, in selection order.
                let mut rest = Vec::with_capacity(sel.len() - lp.len());
                let mut i = 0;
                for_each_sel(sel, |row| {
                    if i < lp.len() && lp[i] == row {
                        i += 1;
                    } else {
                        rest.push(row);
                    }
                });
                let rp = r.select(batch, SelRef::Idx(&rest), interpreted)?;
                // Union back in selection order (both are ordered
                // subsequences of `sel`).
                let mut out = Vec::with_capacity(lp.len() + rp.len());
                let (mut i, mut j) = (0, 0);
                for_each_sel(sel, |row| {
                    let in_l = i < lp.len() && lp[i] == row;
                    if in_l {
                        i += 1;
                    }
                    let in_r = j < rp.len() && rp[j] == row;
                    if in_r {
                        j += 1;
                    }
                    if in_l || in_r {
                        out.push(row);
                    }
                });
                Ok(out)
            }
            // A compile-time row kernel: its stage counts every input
            // row as interpreted already.
            PredKernel::Row { expr, cols } => select_row(expr, cols, batch, sel),
        }
    }
}

/// The null bitmap of any column representation.
pub(crate) fn column_nulls(col: &ColumnVector) -> Option<&BitSet> {
    match col {
        ColumnVector::Boolean(_, n)
        | ColumnVector::Int(_, n)
        | ColumnVector::BigInt(_, n)
        | ColumnVector::Double(_, n)
        | ColumnVector::Decimal(_, _, n)
        | ColumnVector::Str(_, n)
        | ColumnVector::Date(_, n)
        | ColumnVector::Timestamp(_, n) => n.as_ref(),
        ColumnVector::Dict { nulls, .. } => nulls.as_ref(),
    }
    .filter(|b| b.count_ones() > 0)
}

/// One macro expansion per fixed-width domain: a null-free loop and a
/// nullable loop, both branching only on the pre-resolved [`OrdMask`].
macro_rules! cmp_fixed {
    ($vals:expr, $nulls:expr, $sel:expr, $mask:expr, $lit:expr) => {{
        let (vals, lit, mask) = ($vals, $lit, $mask);
        match live_nulls($nulls) {
            None => filter_sel($sel, |r| mask.hit_opt(vals[r].partial_cmp(&lit))),
            Some(b) => filter_sel($sel, |r| {
                !b.get(r) && mask.hit_opt(vals[r].partial_cmp(&lit))
            }),
        }
    }};
}

/// Monomorphized comparison loop; `None` when the runtime
/// representation does not match the compiled spec.
fn select_cmp(
    col: &ColumnVector,
    mask: OrdMask,
    spec: &CmpSpec,
    sel: SelRef<'_>,
) -> Option<Vec<u32>> {
    Some(match (spec, col) {
        (CmpSpec::Int(x), ColumnVector::Int(v, n)) => cmp_fixed!(v, n, sel, mask, *x),
        (CmpSpec::IntWide(x), ColumnVector::Int(v, n)) => {
            let x = *x;
            match live_nulls(n) {
                None => filter_sel(sel, |r| mask.hit((v[r] as i64).cmp(&x))),
                Some(b) => filter_sel(sel, |r| !b.get(r) && mask.hit((v[r] as i64).cmp(&x))),
            }
        }
        (CmpSpec::BigInt(x), ColumnVector::BigInt(v, n)) => cmp_fixed!(v, n, sel, mask, *x),
        (CmpSpec::Double(x), ColumnVector::Double(v, n)) => cmp_fixed!(v, n, sel, mask, *x),
        (CmpSpec::Decimal { lit, factor, scale }, ColumnVector::Decimal(v, s, n)) if s == scale => {
            with_dec!(v, v => select_dec_cmp(v, n, sel, mask, *lit, *factor))
        }
        (CmpSpec::Date(x), ColumnVector::Date(v, n)) => cmp_fixed!(v, n, sel, mask, *x),
        (CmpSpec::Timestamp(x), ColumnVector::Timestamp(v, n)) => cmp_fixed!(v, n, sel, mask, *x),
        (CmpSpec::Str(x), ColumnVector::Str(v, n)) => match live_nulls(n) {
            None => filter_sel(sel, |r| mask.hit(v[r].as_str().cmp(x.as_str()))),
            Some(b) => filter_sel(sel, |r| {
                !b.get(r) && mask.hit(v[r].as_str().cmp(x.as_str()))
            }),
        },
        // Dictionary column: one verdict per distinct entry, then a
        // code-indexed lookup per row — `eval_dict_unary`'s shape with
        // the decision made at compile time.
        (CmpSpec::Str(x), ColumnVector::Dict { codes, dict, nulls }) => {
            let verdicts: Vec<bool> = dict.iter().map(|s| mask.hit(s.as_str().cmp(x))).collect();
            let nulls = live_nulls(nulls);
            filter_sel(sel, |r| {
                !nulls.is_some_and(|b| b.get(r)) && verdicts[codes[r] as usize]
            })
        }
        _ => return None,
    })
}

/// `col [NOT] IN (specs)`: a row passes when it is non-NULL and equals
/// some literal (IN) or none (NOT IN) — `eval_scalar`'s verdict for a
/// list with no NULL literal. A dictionary column decides once per
/// entry; any other column marks the rows each literal's equality loop
/// ([`select_cmp`]) passes. `None` when the representation does not
/// match the compiled specs.
fn select_in(
    col: &ColumnVector,
    specs: &[CmpSpec],
    negated: bool,
    sel: SelRef<'_>,
) -> Option<Vec<u32>> {
    if let ColumnVector::Dict { codes, dict, nulls } = col {
        let lits = (specs.iter())
            .map(|s| match s {
                CmpSpec::Str(x) => Some(x.as_str()),
                _ => None,
            })
            .collect::<Option<Vec<&str>>>()?;
        let verdicts: Vec<bool> = (dict.iter())
            .map(|entry| lits.contains(&entry.as_str()) != negated)
            .collect();
        let nulls = live_nulls(nulls);
        return Some(filter_sel(sel, |r| {
            !nulls.is_some_and(|b| b.get(r)) && verdicts[codes[r] as usize]
        }));
    }
    let eq = OrdMask::of(BinaryOp::Eq)?;
    let mut hit = vec![false; col.len()];
    for spec in specs {
        for r in select_cmp(col, eq, spec, sel)? {
            hit[r as usize] = true;
        }
    }
    Some(match (negated, column_nulls(col)) {
        (false, _) => filter_sel(sel, |r| hit[r]),
        (true, None) => filter_sel(sel, |r| !hit[r]),
        (true, Some(nulls)) => filter_sel(sel, |r| !hit[r] && !nulls.get(r)),
    })
}

/// A decimal column against a [`CmpSpec::Decimal`], at the column's
/// width: a row compares to the literal directly when nothing scales it
/// and the literal fits the width — always for `i128`, and for `i64`
/// whenever the literal is an `i64` — and otherwise widened and scaled.
fn select_dec_cmp<T: DecUnit>(
    v: &[T],
    nulls: &Option<BitSet>,
    sel: SelRef<'_>,
    mask: OrdMask,
    lit: i128,
    factor: i128,
) -> Vec<u32> {
    match T::from_wide(lit) {
        Some(lit) if factor == 1 => cmp_fixed!(v, nulls, sel, mask, lit),
        _ => match live_nulls(nulls) {
            None => filter_sel(sel, |r| mask.hit((v[r].wide() * factor).cmp(&lit))),
            Some(b) => filter_sel(sel, |r| {
                !b.get(r) && mask.hit((v[r].wide() * factor).cmp(&lit))
            }),
        },
    }
}

/// Shared loop for column-column comparisons: a row passes when both
/// sides are non-NULL and the per-row ordering hits the mask (NULL or
/// incomparable never passes — `sql_cmp` three-valued semantics).
fn cmp_cols_loop(
    sel: SelRef<'_>,
    mask: OrdMask,
    ln: Option<&BitSet>,
    rn: Option<&BitSet>,
    cmp: impl Fn(usize) -> Option<Ordering>,
) -> Vec<u32> {
    match (ln, rn) {
        (None, None) => filter_sel(sel, |r| mask.hit_opt(cmp(r))),
        _ => filter_sel(sel, |r| {
            !ln.is_some_and(|b| b.get(r)) && !rn.is_some_and(|b| b.get(r)) && mask.hit_opt(cmp(r))
        }),
    }
}

/// Monomorphized column-column comparison. Each arm mirrors the
/// corresponding `sql_cmp` pair exactly (same widening, same rescale
/// direction; a DOUBLE beside another numeric type compares both as
/// `Value::as_f64` gives them, `sql_cmp`'s default). Every numeric ×
/// numeric pair has an arm; `None` is for the pairs `sql_cmp` does not
/// resolve at all — those evaluate via the row fallback.
fn select_cmp_cols(
    l: &ColumnVector,
    r: &ColumnVector,
    mask: OrdMask,
    sel: SelRef<'_>,
) -> Option<Vec<u32>> {
    let (ln, rn) = (column_nulls(l), column_nulls(r));
    use ColumnVector as C;
    Some(match (l, r) {
        (C::Int(a, _), C::Int(b, _)) => cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&b[i]))),
        (C::BigInt(a, _), C::BigInt(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&b[i])))
        }
        (C::Int(a, _), C::BigInt(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some((a[i] as i64).cmp(&b[i])))
        }
        (C::BigInt(a, _), C::Int(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&(b[i] as i64))))
        }
        (C::Double(a, _), C::Double(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| a[i].partial_cmp(&b[i]))
        }
        // Mixed scales rescale both sides up to the max scale — the
        // exact `sql_cmp` path (rescale up is a lossless multiply).
        // Either side at either width: decimals compare widened.
        (C::Decimal(a, s1, _), C::Decimal(b, s2, _)) => {
            let (fa, fb) = (pow10(s2.saturating_sub(*s1)), pow10(s1.saturating_sub(*s2)));
            with_dec!(a, a => with_dec!(b, b => cmp_cols_loop(sel, mask, ln, rn, |i| {
                Some((a[i].wide() * fa).cmp(&(b[i].wide() * fb)))
            })))
        }
        (C::Decimal(a, s, _), C::Int(b, _)) => {
            let f = pow10(*s);
            with_dec!(a, a => cmp_cols_loop(sel, mask, ln, rn, |i| {
                Some(a[i].wide().cmp(&(b[i] as i128 * f)))
            }))
        }
        (C::Int(a, _), C::Decimal(b, s, _)) => {
            let f = pow10(*s);
            with_dec!(b, b => cmp_cols_loop(sel, mask, ln, rn, |i| {
                Some((a[i] as i128 * f).cmp(&b[i].wide()))
            }))
        }
        (C::Decimal(a, s, _), C::BigInt(b, _)) => {
            let f = pow10(*s);
            with_dec!(a, a => cmp_cols_loop(sel, mask, ln, rn, |i| {
                Some(a[i].wide().cmp(&(b[i] as i128 * f)))
            }))
        }
        (C::BigInt(a, _), C::Decimal(b, s, _)) => {
            let f = pow10(*s);
            with_dec!(b, b => cmp_cols_loop(sel, mask, ln, rn, |i| {
                Some((a[i] as i128 * f).cmp(&b[i].wide()))
            }))
        }
        // `sql_cmp`'s f64 default: both sides through `Value::as_f64` —
        // a decimal *divided* by 10^scale (a reciprocal multiply rounds
        // differently) — then `partial_cmp`, so NaN never passes.
        (C::Int(a, _), C::Double(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| (a[i] as f64).partial_cmp(&b[i]))
        }
        (C::Double(a, _), C::Int(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| a[i].partial_cmp(&(b[i] as f64)))
        }
        (C::BigInt(a, _), C::Double(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| (a[i] as f64).partial_cmp(&b[i]))
        }
        (C::Double(a, _), C::BigInt(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| a[i].partial_cmp(&(b[i] as f64)))
        }
        (C::Decimal(a, s, _), C::Double(b, _)) => {
            with_dec!(a, a => cmp_cols_loop(sel, mask, ln, rn, |i| {
                dec_to_f64(a[i].wide(), *s).partial_cmp(&b[i])
            }))
        }
        (C::Double(a, _), C::Decimal(b, s, _)) => {
            with_dec!(b, b => cmp_cols_loop(sel, mask, ln, rn, |i| {
                a[i].partial_cmp(&dec_to_f64(b[i].wide(), *s))
            }))
        }
        (C::Date(a, _), C::Date(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&b[i])))
        }
        (C::Timestamp(a, _), C::Timestamp(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&b[i])))
        }
        (C::Date(a, _), C::Timestamp(b, _)) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some((a[i] as i64 * 86_400_000_000).cmp(&b[i]))
        }),
        (C::Timestamp(a, _), C::Date(b, _)) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some(a[i].cmp(&(b[i] as i64 * 86_400_000_000)))
        }),
        (C::Boolean(a, _), C::Boolean(b, _)) => {
            cmp_cols_loop(sel, mask, ln, rn, |i| Some(a[i].cmp(&b[i])))
        }
        (C::Str(a, _), C::Str(b, _)) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some(a[i].as_str().cmp(b[i].as_str()))
        }),
        (C::Str(a, _), C::Dict { codes, dict, .. }) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some(a[i].as_str().cmp(dict[codes[i] as usize].as_str()))
        }),
        (C::Dict { codes, dict, .. }, C::Str(b, _)) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some(dict[codes[i] as usize].as_str().cmp(b[i].as_str()))
        }),
        (
            C::Dict {
                codes: ca,
                dict: da,
                ..
            },
            C::Dict {
                codes: cb,
                dict: db,
                ..
            },
        ) => cmp_cols_loop(sel, mask, ln, rn, |i| {
            Some(da[ca[i] as usize].as_str().cmp(db[cb[i] as usize].as_str()))
        }),
        _ => return None,
    })
}

/// Row-at-a-time fallback, selection-driven. Single-dictionary-column
/// expressions evaluate once per distinct entry when the selection is
/// larger than the dictionary (the `eval_dict_unary` trade-off).
fn select_row(
    expr: &ScalarExpr,
    cols: &[usize],
    batch: &VectorBatch,
    sel: SelRef<'_>,
) -> Result<Vec<u32>> {
    if let [c] = cols {
        if let ColumnVector::Dict { codes, dict, nulls } = batch.column(*c) {
            if sel.len() > dict.len() {
                let mut vals = vec![Value::Null; batch.num_columns()];
                let null_pass = eval_scalar(expr, &vals)? == Value::Boolean(true);
                let mut verdicts = Vec::with_capacity(dict.len());
                for s in dict.iter() {
                    vals[*c] = Value::String(s.clone());
                    verdicts.push(eval_scalar(expr, &vals)? == Value::Boolean(true));
                }
                let nulls = live_nulls(nulls);
                return Ok(filter_sel(sel, |r| {
                    if nulls.is_some_and(|b| b.get(r)) {
                        null_pass
                    } else {
                        verdicts[codes[r] as usize]
                    }
                }));
            }
        }
    }
    // One row buffer reused across the loop; only referenced columns
    // are materialized per row.
    let mut vals = vec![Value::Null; batch.num_columns()];
    let mut out = Vec::new();
    let mut eval_one = |r: u32| -> Result<()> {
        for &c in cols {
            vals[c] = batch.column(c).get(r as usize);
        }
        if eval_scalar(expr, &vals)? == Value::Boolean(true) {
            out.push(r);
        }
        Ok(())
    };
    match sel {
        SelRef::All(n) => {
            for r in 0..n as u32 {
                eval_one(r)?;
            }
        }
        SelRef::Idx(v) => {
            for &r in v {
                eval_one(r)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::DecVals;

    /// Columns of eight rows over the values where the numeric
    /// comparisons differ: equal and unequal magnitudes, both zeros,
    /// NaN and an infinity for doubles, the extremes for integers.
    fn numeric_columns(nulls: Option<BitSet>) -> Vec<ColumnVector> {
        vec![
            ColumnVector::Int(vec![0, 1, -1, 5, i32::MAX, i32::MIN, 2, 3], nulls.clone()),
            ColumnVector::BigInt(vec![0, 1, -1, 5, i64::MAX, i64::MIN, 2, 7], nulls.clone()),
            ColumnVector::Double(
                vec![0.0, -0.0, f64::NAN, 5.0, 1.005, -1.0, f64::INFINITY, 2.0],
                nulls.clone(),
            ),
            // Decimals at both widths: narrow, the same values held
            // wide, wide by content, and narrow at the `i64` extremes.
            ColumnVector::Decimal(
                vec![0i128, 100, -100, 500, 1005, 7, -1, 200].into(),
                2,
                nulls.clone(),
            ),
            ColumnVector::Decimal(
                DecVals::Wide(vec![0, 100, -100, 500, 1005, 7, -1, 200]),
                2,
                nulls.clone(),
            ),
            ColumnVector::Decimal(
                vec![0, 1, -1, 5, 3, 10i128.pow(30), 2, 70].into(),
                0,
                nulls.clone(),
            ),
            ColumnVector::Decimal(
                vec![0i128, 1000, 1005, 5000, -3, 10_050, 1, 2000].into(),
                3,
                nulls.clone(),
            ),
            ColumnVector::Decimal(
                vec![0, i64::MAX, i64::MIN, 5, -3, i64::MAX - 1, 1, i64::MIN + 1].into(),
                1,
                nulls,
            ),
        ]
    }

    /// A decimal column at either width against every literal the
    /// lowering coerces — an integer, a decimal of fewer, equal and more
    /// fractional digits, and literals past `i64` — selects the rows
    /// `sql_cmp` says the comparison holds for.
    #[test]
    fn decimal_columns_against_literals_compare_as_sql_cmp_does() {
        let n = 8;
        let mut nulls = BitSet::new(n);
        nulls.set(2);
        let lits = [
            Value::Int(5),
            Value::BigInt(-1),
            Value::BigInt(i64::MAX),
            Value::Decimal(5, 1),
            Value::Decimal(1005, 3),
            Value::Decimal(i64::MAX as i128, 1),
            Value::Decimal(i64::MAX as i128 + 1, 1),
            Value::Decimal(i64::MIN as i128 - 1, 2),
            Value::Decimal(-10i128.pow(30), 4),
        ];
        let mut checked = (0, 0);
        for col in numeric_columns(Some(nulls)) {
            let ColumnVector::Decimal(v, scale, _) = &col else {
                continue;
            };
            for lit in &lits {
                let spec = CmpSpec::coerce(KernelType::Decimal(*scale), lit).unwrap();
                for op in [BinaryOp::Eq, BinaryOp::Lt, BinaryOp::GtEq] {
                    let mask = OrdMask::of(op).unwrap();
                    for sel in [SelRef::All(n), SelRef::Idx(&[7, 4, 1, 0])] {
                        let got = select_cmp(&col, mask, &spec, sel).unwrap();
                        let want = filter_sel(sel, |i| mask.hit_opt(col.get(i).sql_cmp(lit)));
                        assert_eq!(got, want, "{col:?} {op:?} {lit:?}");
                    }
                }
                let seen = if v.is_narrow() {
                    &mut checked.0
                } else {
                    &mut checked.1
                };
                *seen += 1;
            }
        }
        assert!(checked.0 > 0 && checked.1 > 0, "{checked:?}");
    }

    #[test]
    fn every_numeric_column_pair_compares_as_sql_cmp_does() {
        let n = 8;
        let (mut some, mut other) = (BitSet::new(n), BitSet::new(n));
        some.set(1);
        some.set(6);
        other.set(3);
        other.set(6);
        let ops = [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ];
        let rotated: Vec<u32> = vec![7, 5, 3, 1, 6, 0];
        let mut pairs = 0;
        for (lnulls, rnulls) in [(None, None), (Some(some), None), (None, Some(other))] {
            for l in numeric_columns(lnulls.clone()) {
                // The right side's rows rotate, so every value meets
                // several others (and itself, across the type pairs).
                for shift in [0, 3] {
                    for r in numeric_columns(rnulls.clone()) {
                        let idx: Vec<u32> = (0..n as u32).map(|i| (i + shift) % n as u32).collect();
                        let r = r.take(&idx);
                        for op in ops {
                            let mask = OrdMask::of(op).unwrap();
                            for sel in [SelRef::All(n), SelRef::Idx(&rotated)] {
                                let got = select_cmp_cols(&l, &r, mask, sel)
                                    .unwrap_or_else(|| panic!("no arm for {l:?} x {r:?}"));
                                let want =
                                    filter_sel(sel, |i| mask.hit_opt(l.get(i).sql_cmp(&r.get(i))));
                                assert_eq!(got, want, "{l:?} {op:?} {r:?}");
                            }
                        }
                        pairs += 1;
                    }
                }
            }
        }
        assert_eq!(pairs, 3 * 8 * 2 * 8);
    }
}
