//! Lowering: optimizer [`ScalarExpr`] trees → compiled PIR pipelines.
//!
//! Three compile-time passes run here, all once per query instead of
//! once per batch:
//!
//! 1. **Constant folding** — literal subtrees collapse via the
//!    optimizer's [`fold_expr`] (which reuses `eval_scalar`, so folded
//!    results are exactly what the interpreter would compute).
//! 2. **Common-subexpression elimination** — duplicate projection
//!    expressions evaluate once and share the result column; repeated
//!    non-trivial subtrees hoist into temp columns; duplicate
//!    predicate conjuncts drop (`p AND p` ≡ `p` in three-valued
//!    logic).
//! 3. **Conjunct ordering** — a multi-conjunct predicate evaluates
//!    cheapest tier first ([`PredKernel::cost_tier`]), most selective
//!    first within a tier (reusing [`hive_optimizer::stats`] estimates,
//!    column statistics when the caller has them), short-circuiting
//!    through the shrinking selection vector. Ties keep source order,
//!    so the compiled order is fully deterministic.
//!
//! Reordering and short-circuiting are observationally safe because
//! every conjunct is deterministic (non-deterministic predicates
//! compile to a single source-order row kernel) and NULL/false rows
//! are dropped identically wherever they are detected first. The one
//! contract change, documented in DESIGN.md §4: a row-level evaluation
//! *error* in a later conjunct does not surface if an earlier conjunct
//! already dropped the row — the same latitude Hive takes when it
//! reorders conjuncts during predicate pushdown.

use super::kernel::{CmpSpec, OrdMask, PredKernel, SelRef};
use hive_common::{KernelType, Result, Schema, Value, VectorBatch};
use hive_metastore::TableStats;
use hive_optimizer::rules::folding::fold_expr;
use hive_optimizer::stats::selectivity_with;
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A compiled filter: an ordered bank of predicate kernels.
#[derive(Debug)]
pub(crate) enum PredPipeline {
    /// Predicate folded to TRUE — nothing to evaluate.
    KeepAll,
    /// Predicate folded to FALSE/NULL — no row can pass.
    DropAll,
    /// Short-circuit conjunct bank, cheapest/most-selective first, and
    /// the rows its specialized kernels handed to the row interpreter at
    /// run time (see [`PredPipeline::interpreted_rows`]).
    Kernels(Vec<PredKernel>, AtomicU64),
}

impl PredPipeline {
    /// Compile a predicate against the input schema. `stats` (the
    /// scanned table's statistics plus the output-column → table-column
    /// projection) refines conjunct ordering when available;
    /// `use_hist` further drives the ordering estimates from column
    /// histograms (`hive.optimizer.histograms.enabled`).
    pub(crate) fn compile(
        pred: &ScalarExpr,
        schema: &Schema,
        stats: Option<(&TableStats, &[usize])>,
        use_hist: bool,
    ) -> PredPipeline {
        let folded = fold_expr(pred.clone());
        match &folded {
            ScalarExpr::Literal(Value::Boolean(true)) => return PredPipeline::KeepAll,
            ScalarExpr::Literal(Value::Boolean(false)) | ScalarExpr::Literal(Value::Null) => {
                return PredPipeline::DropAll
            }
            _ => {}
        }
        // Reordering or skipping evaluations of a non-deterministic
        // predicate would change what it computes: evaluate it row by
        // row in source order, exactly like the interpreter.
        if !folded.is_deterministic() {
            return PredPipeline::Kernels(vec![row_kernel(folded)], AtomicU64::new(0));
        }
        let mut seen: HashSet<String> = HashSet::new();
        let mut items: Vec<(usize, u8, f64, PredKernel)> = Vec::new();
        for c in folded.split_conjunction() {
            match c {
                ScalarExpr::Literal(Value::Boolean(true)) => continue,
                ScalarExpr::Literal(Value::Boolean(false)) | ScalarExpr::Literal(Value::Null) => {
                    return PredPipeline::DropAll
                }
                _ => {}
            }
            // CSE over conjuncts: `p AND p` keeps one copy.
            if !seen.insert(c.to_string()) {
                continue;
            }
            let k = compile_pred(c, schema);
            let idx = items.len();
            items.push((idx, k.cost_tier(), selectivity_with(c, stats, use_hist), k));
        }
        if items.is_empty() {
            return PredPipeline::KeepAll;
        }
        items.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.0.cmp(&b.0))
        });
        PredPipeline::Kernels(
            items.into_iter().map(|(_, _, _, k)| k).collect(),
            AtomicU64::new(0),
        )
    }

    /// True when no kernel in the pipeline is a row-at-a-time
    /// fallback — the gate for the compiled join-residual path, which
    /// builds pair batches carrying only referenced columns.
    pub(crate) fn fully_compiled(&self) -> bool {
        match self {
            PredPipeline::KeepAll | PredPipeline::DropAll => true,
            PredPipeline::Kernels(ks, _) => !ks.iter().any(PredKernel::has_row),
        }
    }

    /// Rows that a comparison or prefix kernel evaluated through the row
    /// interpreter so far, because a column arrived in a representation
    /// the kernel has no loop for. A pipeline that is
    /// [`PredPipeline::fully_compiled`] can still have them — the
    /// lowering decides from the schema, the loop from the batch — and a
    /// stage adds them to its `pir_fallback_rows`.
    pub(crate) fn interpreted_rows(&self) -> u64 {
        match self {
            PredPipeline::KeepAll | PredPipeline::DropAll => 0,
            PredPipeline::Kernels(_, interpreted) => interpreted.load(Ordering::Relaxed),
        }
    }

    /// Narrow `sel` to the passing rows. `Ok(None)` means every
    /// selected row passes (callers keep their selection — and their
    /// memcpy concat path — untouched).
    pub(crate) fn select(&self, batch: &VectorBatch, sel: SelRef<'_>) -> Result<Option<Vec<u32>>> {
        match self {
            PredPipeline::KeepAll => Ok(None),
            PredPipeline::DropAll => Ok(Some(Vec::new())),
            PredPipeline::Kernels(ks, interpreted) => {
                let mut cur = ks[0].select(batch, sel, interpreted)?;
                if cur.len() == sel.len() && ks.len() == 1 {
                    return Ok(None);
                }
                for k in &ks[1..] {
                    if cur.is_empty() {
                        break;
                    }
                    cur = k.select(batch, SelRef::Idx(&cur), interpreted)?;
                }
                if cur.len() == sel.len() {
                    return Ok(None);
                }
                Ok(Some(cur))
            }
        }
    }
}

fn row_kernel(expr: ScalarExpr) -> PredKernel {
    let cols = expr.columns();
    PredKernel::Row { expr, cols }
}

/// Compile one (deterministic) predicate subtree.
fn compile_pred(e: &ScalarExpr, schema: &Schema) -> PredKernel {
    if let Some(k) = compile_leaf(e, schema) {
        return k;
    }
    match e {
        ScalarExpr::Binary {
            op: BinaryOp::And, ..
        } => {
            // Nested conjunction (under an OR): short-circuit in
            // source order; reordering only happens at the top level
            // where selectivity estimates are anchored.
            PredKernel::And(
                e.split_conjunction()
                    .into_iter()
                    .map(|c| compile_pred(c, schema))
                    .collect(),
            )
        }
        ScalarExpr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => PredKernel::Or(
            Box::new(compile_pred(left, schema)),
            Box::new(compile_pred(right, schema)),
        ),
        _ => row_kernel(e.clone()),
    }
}

/// Leaf shapes with a specialized kernel: `col <cmp> lit` (either
/// orientation), `NOT` of one, `col IS [NOT] NULL`,
/// `col [NOT] LIKE 'prefix%'` and `col [NOT] IN (non-NULL literals)`.
fn compile_leaf(e: &ScalarExpr, schema: &Schema) -> Option<PredKernel> {
    match e {
        ScalarExpr::Binary { op, left, right } if op.is_comparison() => {
            let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => (*c, v, *op),
                (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => (*c, v, flip(*op)),
                // Column-column comparison: the join-residual shape
                // (also plain `WHERE a < b`). The operand domain pair
                // resolves per batch inside the kernel.
                (ScalarExpr::Column(a), ScalarExpr::Column(b)) => {
                    return Some(PredKernel::CmpCols {
                        lcol: *a,
                        rcol: *b,
                        mask: OrdMask::of(*op)?,
                        orig: Box::new(e.clone()),
                    })
                }
                _ => return None,
            };
            if matches!(lit, Value::Null) {
                return None;
            }
            let mask = OrdMask::of(op)?;
            let kt = KernelType::of_data_type(&schema.field(col).data_type)?;
            let spec = CmpSpec::coerce(kt, lit)?;
            Some(PredKernel::Cmp {
                col,
                mask,
                spec,
                orig: Box::new(ScalarExpr::Binary {
                    op,
                    left: Box::new(ScalarExpr::Column(col)),
                    right: Box::new(ScalarExpr::Literal(lit.clone())),
                }),
            })
        }
        ScalarExpr::Not(inner) => match compile_leaf(inner, schema)? {
            // NOT of a comparison is the complementary comparison over
            // non-NULL rows; NULL rows pass neither (3VL).
            PredKernel::Cmp {
                col,
                mask,
                spec,
                orig,
            } => Some(PredKernel::Cmp {
                col,
                mask: mask.negate(),
                spec,
                orig: Box::new(ScalarExpr::Not(orig)),
            }),
            PredKernel::CmpCols {
                lcol,
                rcol,
                mask,
                orig,
            } => Some(PredKernel::CmpCols {
                lcol,
                rcol,
                mask: mask.negate(),
                orig: Box::new(ScalarExpr::Not(orig)),
            }),
            PredKernel::IsNull { col, negated } => Some(PredKernel::IsNull {
                col,
                negated: !negated,
            }),
            // `NOT (c IN list)` is `c NOT IN list`: both are NULL
            // exactly when `c` is, with no NULL literal in the list.
            PredKernel::InList {
                col,
                specs,
                negated,
                orig,
            } => Some(PredKernel::InList {
                col,
                specs,
                negated: !negated,
                orig: Box::new(ScalarExpr::Not(orig)),
            }),
            PredKernel::StrPrefix {
                col,
                prefix,
                negated,
                orig,
            } => Some(PredKernel::StrPrefix {
                col,
                prefix,
                negated: !negated,
                orig: Box::new(ScalarExpr::Not(orig)),
            }),
            _ => None,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let ScalarExpr::Column(col) = expr.as_ref() else {
                return None;
            };
            let kt = KernelType::of_data_type(&schema.field(*col).data_type)?;
            let specs = (list.iter())
                .map(|item| match item {
                    ScalarExpr::Literal(v) if !v.is_null() => CmpSpec::coerce(kt, v),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?;
            Some(PredKernel::InList {
                col: *col,
                specs,
                negated: *negated,
                orig: Box::new(e.clone()),
            })
        }
        ScalarExpr::IsNull { expr, negated } => match expr.as_ref() {
            ScalarExpr::Column(c) => Some(PredKernel::IsNull {
                col: *c,
                negated: *negated,
            }),
            _ => None,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (col, pat) = match (expr.as_ref(), pattern.as_ref()) {
                (ScalarExpr::Column(c), ScalarExpr::Literal(Value::String(p))) => (*c, p),
                _ => return None,
            };
            let prefix = like_prefix(pat)?;
            if KernelType::of_data_type(&schema.field(col).data_type)? != KernelType::Str {
                return None;
            }
            Some(PredKernel::StrPrefix {
                col,
                prefix: prefix.to_string(),
                negated: *negated,
                orig: Box::new(e.clone()),
            })
        }
        _ => None,
    }
}

/// The literal prefix of a LIKE pattern of the shape `prefix%` — a
/// prefix free of metacharacters followed by a single trailing `%`.
/// Such patterns reduce to `starts_with`: the [`PredKernel::StrPrefix`]
/// shape.
fn like_prefix(pattern: &str) -> Option<&str> {
    let prefix = pattern.strip_suffix('%')?;
    if prefix.contains(['%', '_', '\\']) {
        return None;
    }
    Some(prefix)
}

/// Mirror a comparison across its operands (`lit < col` ≡ `col > lit`).
fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// A compiled projection: folded, deduplicated expressions over an
/// extended input (base columns plus hoisted common subexpressions).
#[derive(Debug)]
pub(crate) struct ProjPlan {
    /// Output column `i` reads `unique[slots[i]]`.
    pub slots: Vec<usize>,
    /// Distinct output expressions, rewritten over `eval_schema`.
    pub unique: Vec<ScalarExpr>,
    /// Hoisted subexpressions (over base columns only), evaluated into
    /// temp columns appended after the base columns.
    pub temps: Vec<ScalarExpr>,
    /// Base schema plus one field per temp.
    pub eval_schema: Schema,
    /// Base columns any expression still reads.
    pub referenced: Vec<usize>,
}

impl ProjPlan {
    pub(crate) fn compile(exprs: &[ScalarExpr], in_schema: &Schema) -> Result<ProjPlan> {
        // Fold, then share identical outputs.
        let folded: Vec<ScalarExpr> = exprs.iter().map(|e| fold_expr(e.clone())).collect();
        let mut slots = Vec::with_capacity(folded.len());
        let mut unique: Vec<ScalarExpr> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for e in &folded {
            let key = e.to_string();
            let slot = *index.entry(key).or_insert_with(|| {
                unique.push(e.clone());
                unique.len() - 1
            });
            slots.push(slot);
        }
        // Hoist repeated non-trivial subtrees: larger candidates first,
        // so an outer repeat absorbs its inner repeats.
        let mut counts: HashMap<String, (usize, usize, ScalarExpr)> = HashMap::new();
        for e in &unique {
            count_subtrees(e, true, &mut counts);
        }
        let mut cands: Vec<(usize, String, ScalarExpr)> = counts
            .into_iter()
            .filter(|(_, (n, _, _))| *n >= 2)
            .map(|(k, (_, size, e))| (size, k, e))
            .collect();
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let base_width = in_schema.len();
        let mut temps: Vec<ScalarExpr> = Vec::new();
        let mut fields = in_schema.fields().to_vec();
        for (_, key, sub) in cands {
            let still: usize = unique.iter().map(|e| occurrences(e, &key)).sum();
            if still < 2 {
                continue;
            }
            let temp_col = base_width + temps.len();
            for e in &mut unique {
                *e = replace_subtree(e, &key, temp_col);
            }
            fields.push(hive_common::Field::new(
                format!("__cse{}", temps.len()),
                sub.data_type(in_schema)?,
            ));
            temps.push(sub);
        }
        let eval_schema = Schema::new(fields);
        let mut referenced: Vec<bool> = vec![false; base_width];
        for e in unique.iter().chain(temps.iter()) {
            for c in e.columns() {
                if c < base_width {
                    referenced[c] = true;
                }
            }
        }
        Ok(ProjPlan {
            slots,
            unique,
            temps,
            eval_schema,
            referenced: (0..base_width).filter(|&c| referenced[c]).collect(),
        })
    }
}

/// Count occurrences of every hoistable subtree (deterministic,
/// non-leaf). `root` nodes still count: a whole output expression that
/// also appears *inside* another shares one temp.
fn count_subtrees(
    e: &ScalarExpr,
    _root: bool,
    counts: &mut HashMap<String, (usize, usize, ScalarExpr)>,
) {
    if !matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_)) && e.is_deterministic() {
        let entry = counts
            .entry(e.to_string())
            .or_insert_with(|| (0, tree_size(e), e.clone()));
        entry.0 += 1;
    }
    for c in children(e) {
        count_subtrees(c, false, counts);
    }
}

fn tree_size(e: &ScalarExpr) -> usize {
    1 + children(e).iter().map(|c| tree_size(c)).sum::<usize>()
}

fn occurrences(e: &ScalarExpr, key: &str) -> usize {
    let own = (e.to_string() == key) as usize;
    own + children(e)
        .iter()
        .map(|c| occurrences(c, key))
        .sum::<usize>()
}

fn children(e: &ScalarExpr) -> Vec<&ScalarExpr> {
    match e {
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) => Vec::new(),
        ScalarExpr::Binary { left, right, .. } => vec![left, right],
        ScalarExpr::Not(x) | ScalarExpr::Negate(x) => vec![x],
        ScalarExpr::IsNull { expr, .. }
        | ScalarExpr::Cast { expr, .. }
        | ScalarExpr::Extract { expr, .. } => {
            vec![expr]
        }
        ScalarExpr::Like { expr, pattern, .. } => vec![expr, pattern],
        ScalarExpr::InList { expr, list, .. } => {
            let mut v = vec![expr.as_ref()];
            v.extend(list.iter());
            v
        }
        ScalarExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let mut v: Vec<&ScalarExpr> = Vec::new();
            if let Some(o) = operand {
                v.push(o);
            }
            for (w, t) in branches {
                v.push(w);
                v.push(t);
            }
            if let Some(x) = else_expr {
                v.push(x);
            }
            v
        }
        ScalarExpr::Func { args, .. } => args.iter().collect(),
    }
}

/// Rebuild `e` with every subtree printing as `key` replaced by a
/// reference to the temp column.
fn replace_subtree(e: &ScalarExpr, key: &str, col: usize) -> ScalarExpr {
    if e.to_string() == key {
        return ScalarExpr::Column(col);
    }
    let sub = |x: &ScalarExpr| Box::new(replace_subtree(x, key, col));
    match e {
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) => e.clone(),
        ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: sub(left),
            right: sub(right),
        },
        ScalarExpr::Not(x) => ScalarExpr::Not(sub(x)),
        ScalarExpr::Negate(x) => ScalarExpr::Negate(sub(x)),
        ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: sub(expr),
            negated: *negated,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: sub(expr),
            pattern: sub(pattern),
            negated: *negated,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => ScalarExpr::InList {
            expr: sub(expr),
            list: list.iter().map(|x| replace_subtree(x, key, col)).collect(),
            negated: *negated,
        },
        ScalarExpr::Case {
            operand,
            branches,
            else_expr,
        } => ScalarExpr::Case {
            operand: operand.as_ref().map(|o| sub(o)),
            branches: branches
                .iter()
                .map(|(w, t)| (replace_subtree(w, key, col), replace_subtree(t, key, col)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| sub(x)),
        },
        ScalarExpr::Cast { expr, to } => ScalarExpr::Cast {
            expr: sub(expr),
            to: to.clone(),
        },
        ScalarExpr::Extract { field, expr } => ScalarExpr::Extract {
            field: *field,
            expr: sub(expr),
        },
        ScalarExpr::Func { func, args } => ScalarExpr::Func {
            func: *func,
            args: args.iter().map(|x| replace_subtree(x, key, col)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::{like_prefix, PredPipeline, SelRef};
    use crate::kernels::filter_indices_rowmode;
    use hive_common::{BitSet, ColumnVector, DataType, Field, Schema, Value, VectorBatch};
    use hive_optimizer::ScalarExpr;
    use std::sync::Arc;

    /// `col [NOT] IN (literals)` compiles to a kernel — no row
    /// fallback, none at run time either — that keeps exactly the rows
    /// the row interpreter keeps: NULL rows, a dictionary column with an
    /// unused and a repeated entry, decimals against literals of fewer,
    /// equal and more fractional digits, NaN, and `NOT` of an IN list.
    #[test]
    fn in_lists_compile_and_keep_what_the_row_interpreter_keeps() {
        let mut nulls = BitSet::new(6);
        nulls.set(4);
        let dict = Arc::new(vec!["City1".to_string(), "City9".into(), "City3".into()]);
        let strs = ["City1", "City2", "City9", "City3", "x", "City1"];
        let cases: Vec<(DataType, ColumnVector, Vec<Value>)> = vec![
            (
                DataType::Int,
                ColumnVector::Int(vec![1, 2, 3, -4, 5, 2], Some(nulls.clone())),
                vec![Value::Int(2), Value::BigInt(-4), Value::Int(5)],
            ),
            (
                DataType::Decimal(7, 2),
                ColumnVector::Decimal(vec![100i128, 150, 105, 0, 7, -100].into(), 2, None),
                vec![
                    Value::Int(1),
                    Value::Decimal(15, 1),
                    Value::Decimal(1050, 3),
                    Value::Decimal(1051, 3),
                    Value::Decimal(-1, 0),
                ],
            ),
            (
                DataType::Double,
                ColumnVector::Double(vec![1.5, f64::NAN, -0.0, 2.0, 3.0, 1.0], None),
                vec![Value::Double(0.0), Value::Int(1), Value::Double(f64::NAN)],
            ),
            (
                DataType::String,
                ColumnVector::Str(
                    strs.iter().map(|s| s.to_string()).collect(),
                    Some(nulls.clone()),
                ),
                vec![Value::String("City1".into()), Value::String("City3".into())],
            ),
            (
                DataType::String,
                ColumnVector::dict_from_codes(vec![0, 2, 0, 1, 2, 0], dict, Some(nulls)).unwrap(),
                vec![Value::String("City3".into()), Value::String("City2".into())],
            ),
        ];
        for (dt, col, lits) in cases {
            let schema = Schema::new(vec![Field::new("c", dt)]);
            let batch = VectorBatch::from_arcs(schema.clone(), vec![Arc::new(col)], 6).unwrap();
            for negated in [false, true] {
                let in_list = ScalarExpr::InList {
                    expr: Box::new(ScalarExpr::Column(0)),
                    list: lits.iter().cloned().map(ScalarExpr::Literal).collect(),
                    negated,
                };
                for expr in [in_list.clone(), ScalarExpr::Not(Box::new(in_list))] {
                    let pipe = PredPipeline::compile(&expr, &schema, None, false);
                    assert!(pipe.fully_compiled(), "{expr}");
                    let want = filter_indices_rowmode(&expr, &batch).unwrap();
                    for sel in [SelRef::All(6), SelRef::Idx(&[5, 3, 1, 0])] {
                        let got = pipe.select(&batch, sel).unwrap();
                        let got = got.unwrap_or_else(|| match sel {
                            SelRef::All(n) => (0..n as u32).collect(),
                            SelRef::Idx(v) => v.to_vec(),
                        });
                        let want: Vec<u32> = match sel {
                            SelRef::All(_) => want.clone(),
                            SelRef::Idx(v) => {
                                v.iter().copied().filter(|r| want.contains(r)).collect()
                            }
                        };
                        assert_eq!(got, want, "{expr} over {:?}", batch.column(0));
                    }
                    assert_eq!(pipe.interpreted_rows(), 0, "{expr}");
                }
            }
        }
    }

    /// Only `prefix%` with no metacharacter in the prefix is a prefix
    /// pattern; escapes and inner wildcards are not.
    #[test]
    fn like_prefix_accepts_only_a_trailing_percent() {
        assert_eq!(like_prefix("ab%"), Some("ab"));
        assert_eq!(like_prefix("%"), Some(""));
        assert_eq!(like_prefix("a_b%"), None);
        assert_eq!(like_prefix("a\\%b%"), None);
        assert_eq!(like_prefix("a%b"), None);
    }
}
