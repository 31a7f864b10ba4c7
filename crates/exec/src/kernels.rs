//! Vectorized evaluation of value expressions over [`VectorBatch`]es.
//!
//! Predicates do not come here: the vectorized engine compiles them
//! through [`crate::pir`]. What remains is the value side — bare
//! columns and literals share or broadcast, numeric `column ⊕ literal`
//! arithmetic has a typed kernel, a single dictionary column evaluates
//! once per distinct entry, and everything else falls back to the
//! shared row evaluator ([`hive_optimizer::eval`]), which is also what
//! the Hive-1.2 row-interpreter mode uses for *all* expressions.

use crate::pir::kernel::live_nulls;
use hive_common::{BitSet, ColumnBuilder, ColumnVector, Result, Value, VectorBatch};
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use std::sync::Arc;

/// Evaluate an expression over every row of the batch, producing one
/// column. Bare column references return the batch's shared handle —
/// no copy — which is why the result is `Arc`'d.
pub fn eval_vector(expr: &ScalarExpr, batch: &VectorBatch) -> Result<Arc<ColumnVector>> {
    match expr {
        ScalarExpr::Column(i) => Ok(batch.column_arc(*i).clone()),
        ScalarExpr::Literal(v) => broadcast(v, batch.num_rows()).map(Arc::new),
        ScalarExpr::Binary { op, left, right } => match try_fast_arith(*op, left, right, batch)? {
            Some(out) => Ok(Arc::new(out)),
            None => fallback(expr, batch).map(Arc::new),
        },
        _ => fallback(expr, batch).map(Arc::new),
    }
}

/// Row-at-a-time interpretation of a predicate (the Hive 1.2 path).
pub fn filter_indices_rowmode(expr: &ScalarExpr, batch: &VectorBatch) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    each_row_value(expr, batch, |i, v| {
        if v == Value::Boolean(true) {
            out.push(i as u32);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Row-at-a-time projection (the Hive 1.2 path): results stream
/// straight into a [`ColumnBuilder`] for the declared output type —
/// no intermediate `Vec<Value>` of the whole column. The vectorized
/// engine's row fallback is this function too.
pub fn eval_rowmode(
    expr: &ScalarExpr,
    batch: &VectorBatch,
    want: &hive_common::DataType,
) -> Result<ColumnVector> {
    let mut b = ColumnBuilder::new(want)?;
    each_row_value(expr, batch, |_, v| b.push(&v))?;
    Ok(b.finish())
}

/// `f(row, expr's value at row)` for every row of the batch, in order.
/// One row buffer is reused across the loop, and only the columns the
/// expression references are read into it; the others stay NULL, which
/// the expression never looks at.
fn each_row_value(
    expr: &ScalarExpr,
    batch: &VectorBatch,
    mut f: impl FnMut(usize, Value) -> Result<()>,
) -> Result<()> {
    let mut cols = expr.columns();
    cols.retain(|&c| c < batch.num_columns()); // an unbound column fails in `eval_scalar`
    let mut vals = vec![Value::Null; batch.num_columns()];
    for i in 0..batch.num_rows() {
        for &c in &cols {
            vals[c] = batch.column(c).get(i);
        }
        f(i, eval_scalar(expr, &vals)?)?;
    }
    Ok(())
}

/// `n` rows of the literal `v` in its own type (a type-less NULL is a
/// string column of NULLs).
fn broadcast(v: &Value, n: usize) -> Result<ColumnVector> {
    ColumnVector::constant(v, &v.data_type(), n)
}

/// Typed kernel for `column ⊕ literal` (either side) with ⊕ in
/// `{+,-,*}` over Int/BigInt/Double. Semantics — promotion, the
/// wrap-through-cast behavior of `Value`'s integer ops (i128 math then
/// truncating cast), and the default value stored at NULL slots — match
/// the row fallback exactly; only the per-row dispatch disappears. NULL
/// rows skip computation (as `eval_binary` does) and keep the builder's
/// default value, which is what batch equality compares.
fn try_fast_arith(
    op: BinaryOp,
    left: &ScalarExpr,
    right: &ScalarExpr,
    batch: &VectorBatch,
) -> Result<Option<ColumnVector>> {
    if !matches!(op, BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply) {
        return Ok(None);
    }
    let (col_expr, lit, flipped) = match (left, right) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => (*c, v, false),
        (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => (*c, v, true),
        _ => return Ok(None),
    };
    if lit.is_null() {
        return Ok(None);
    }
    let col = batch.column(col_expr);
    let iop = |a: i128, b: i128| -> i128 {
        let (a, b) = if flipped { (b, a) } else { (a, b) };
        match op {
            BinaryOp::Plus => a + b,
            BinaryOp::Minus => a - b,
            _ => a * b,
        }
    };
    let fop = |a: f64, b: f64| -> f64 {
        let (a, b) = if flipped { (b, a) } else { (a, b) };
        match op {
            BinaryOp::Plus => a + b,
            BinaryOp::Minus => a - b,
            _ => a * b,
        }
    };
    /// Map non-null rows through `f`, keeping the default at NULL slots;
    /// the null-free path drops the per-row branch entirely.
    fn arith_map<T: Copy, O: Copy + Default>(
        vals: &[T],
        nl: &Option<BitSet>,
        f: impl Fn(T) -> O,
    ) -> (Vec<O>, Option<BitSet>) {
        let out = match live_nulls(nl) {
            None => vals.iter().map(|&v| f(v)).collect(),
            Some(b) => vals
                .iter()
                .enumerate()
                .map(|(i, &v)| if b.get(i) { O::default() } else { f(v) })
                .collect(),
        };
        (out, nl.clone())
    }
    Ok(match (col, lit) {
        (ColumnVector::Int(v, nl), Value::Int(x)) => {
            let y = *x as i128;
            let (out, n) = arith_map(v, nl, |a: i32| iop(a as i128, y) as i32);
            Some(ColumnVector::Int(out, n))
        }
        // Mixed Int/BigInt widths: `numeric_binop` always feeds the Int
        // operand to the op first, whichever side it came from, so only
        // the commutative ops are safe to specialize here — Minus falls
        // back to preserve that exact behavior.
        (ColumnVector::Int(v, nl), Value::BigInt(x)) if op != BinaryOp::Minus => {
            let y = *x as i128;
            let (out, n) = arith_map(v, nl, |a: i32| iop(a as i128, y) as i64);
            Some(ColumnVector::BigInt(out, n))
        }
        (ColumnVector::BigInt(v, nl), Value::Int(x)) if op != BinaryOp::Minus => {
            let y = *x as i128;
            let (out, n) = arith_map(v, nl, |a: i64| iop(a as i128, y) as i64);
            Some(ColumnVector::BigInt(out, n))
        }
        (ColumnVector::BigInt(v, nl), Value::BigInt(x)) => {
            let y = *x as i128;
            let (out, n) = arith_map(v, nl, |a: i64| iop(a as i128, y) as i64);
            Some(ColumnVector::BigInt(out, n))
        }
        (ColumnVector::Double(v, nl), Value::Double(x)) => {
            let y = *x;
            let (out, n) = arith_map(v, nl, |a: f64| fop(a, y));
            Some(ColumnVector::Double(out, n))
        }
        (ColumnVector::Double(v, nl), Value::Int(x)) => {
            let y = *x as f64;
            let (out, n) = arith_map(v, nl, |a: f64| fop(a, y));
            Some(ColumnVector::Double(out, n))
        }
        (ColumnVector::Double(v, nl), Value::BigInt(x)) => {
            let y = *x as f64;
            let (out, n) = arith_map(v, nl, |a: f64| fop(a, y));
            Some(ColumnVector::Double(out, n))
        }
        (ColumnVector::Int(v, nl), Value::Double(x)) => {
            let y = *x;
            let (out, n) = arith_map(v, nl, |a: i32| fop(a as f64, y));
            Some(ColumnVector::Double(out, n))
        }
        (ColumnVector::BigInt(v, nl), Value::Double(x)) => {
            let y = *x;
            let (out, n) = arith_map(v, nl, |a: i64| fop(a as f64, y));
            Some(ColumnVector::Double(out, n))
        }
        _ => None,
    })
}

/// Row-fallback evaluation into a typed column: the dictionary fast
/// path, else [`eval_rowmode`] at the expression's static type against
/// the batch schema.
fn fallback(expr: &ScalarExpr, batch: &VectorBatch) -> Result<ColumnVector> {
    if let Some(out) = eval_dict_unary(expr, batch)? {
        return Ok(out);
    }
    let dt = expr.data_type(batch.schema())?;
    let dt = if dt == hive_common::DataType::Null {
        hive_common::DataType::String
    } else {
        dt
    };
    eval_rowmode(expr, batch, &dt)
}

/// Dictionary fast path for any expression whose only input column is
/// dictionary-encoded (IN lists, LIKE, CASE, functions…): run the row
/// interpreter once per *distinct* dictionary entry — plus once for
/// NULL — and expand the results through the codes. Semantics match the
/// row fallback by construction: it is the same evaluator, fed the same
/// scalar each row would have produced.
fn eval_dict_unary(expr: &ScalarExpr, batch: &VectorBatch) -> Result<Option<ColumnVector>> {
    let cols = expr.columns();
    let [ci] = cols[..] else { return Ok(None) };
    let Some((codes, dict, nulls)) = batch.column(ci).dict_parts() else {
        return Ok(None);
    };
    // Only profitable when the dictionary is smaller than the row count.
    if codes.len() <= dict.len() {
        return Ok(None);
    }
    let dt = expr.data_type(batch.schema())?;
    let dt = if dt == hive_common::DataType::Null {
        hive_common::DataType::String
    } else {
        dt
    };
    // The expression reads only column `ci`, so the other positions of
    // the synthetic row are never consulted.
    let mut row: Vec<Value> = vec![Value::Null; batch.num_columns()];
    let null_result = eval_scalar(expr, &row)?;
    let mut per_code = Vec::with_capacity(dict.len());
    for s in dict.iter() {
        row[ci] = Value::String(s.clone());
        per_code.push(eval_scalar(expr, &row)?);
    }
    let mut b = ColumnBuilder::new(&dt)?;
    for (i, &c) in codes.iter().enumerate() {
        if nulls.is_some_and(|n| n.get(i)) {
            b.push(&null_result)?;
        } else {
            b.push(&per_code[c as usize])?;
        }
    }
    Ok(Some(b.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pir::{PredPipeline, SelRef};
    use hive_common::{DataType, Field, Row, Schema};

    /// The compiled predicate's pass set over every row of `b` — the
    /// rows the vectorized engine keeps.
    fn compiled(e: &ScalarExpr, b: &VectorBatch) -> Result<Vec<u32>> {
        let n = b.num_rows();
        let pipe = PredPipeline::compile(e, b.schema(), None, false);
        Ok(pipe
            .select(b, SelRef::All(n))?
            .unwrap_or_else(|| (0..n as u32).collect()))
    }

    fn batch() -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("s", DataType::String),
            Field::new("d", DataType::Decimal(7, 2)),
        ]);
        VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![
                    Value::Int(1),
                    Value::String("x".into()),
                    Value::Decimal(100, 2),
                ]),
                Row::new(vec![Value::Int(5), Value::Null, Value::Decimal(250, 2)]),
                Row::new(vec![Value::Int(9), Value::String("y".into()), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn compare_int_either_orientation() {
        let b = batch();
        let e = ScalarExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(ScalarExpr::Column(0)),
            right: Box::new(ScalarExpr::Literal(Value::Int(4))),
        };
        assert_eq!(compiled(&e, &b).unwrap(), vec![1, 2]);
        // Flipped literal side.
        let e2 = ScalarExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(ScalarExpr::Literal(Value::Int(4))),
            right: Box::new(ScalarExpr::Column(0)),
        };
        assert_eq!(compiled(&e2, &b).unwrap(), vec![0]);
    }

    #[test]
    fn nulls_never_pass_filters() {
        let b = batch();
        let e = ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(ScalarExpr::Column(1)),
            right: Box::new(ScalarExpr::Literal(Value::String("x".into()))),
        };
        assert_eq!(compiled(&e, &b).unwrap(), vec![0]);
        // Decimal null row filtered out too.
        let e2 = ScalarExpr::Binary {
            op: BinaryOp::LtEq,
            left: Box::new(ScalarExpr::Column(2)),
            right: Box::new(ScalarExpr::Literal(Value::Decimal(300, 2))),
        };
        assert_eq!(compiled(&e2, &b).unwrap(), vec![0, 1]);
    }

    #[test]
    fn vector_and_row_modes_agree() {
        let b = batch();
        let exprs = vec![
            ScalarExpr::Binary {
                op: BinaryOp::GtEq,
                left: Box::new(ScalarExpr::Column(0)),
                right: Box::new(ScalarExpr::Literal(Value::Int(5))),
            },
            ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::Column(1)),
                negated: false,
            },
            ScalarExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(ScalarExpr::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(ScalarExpr::Column(0)),
                    right: Box::new(ScalarExpr::Literal(Value::Int(0))),
                }),
                right: Box::new(ScalarExpr::IsNull {
                    expr: Box::new(ScalarExpr::Column(2)),
                    negated: true,
                }),
            },
        ];
        for e in exprs {
            assert_eq!(
                compiled(&e, &b).unwrap(),
                filter_indices_rowmode(&e, &b).unwrap(),
                "mode divergence for {e}"
            );
        }
    }

    #[test]
    fn three_valued_and_with_null_operands() {
        // (s = 'x') AND (a > 0): row 1 has s NULL → predicate NULL → drop.
        let b = batch();
        let e = ScalarExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(ScalarExpr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::Literal(Value::String("x".into()))),
            }),
            right: Box::new(ScalarExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(ScalarExpr::Column(0)),
                right: Box::new(ScalarExpr::Literal(Value::Int(0))),
            }),
        };
        assert_eq!(compiled(&e, &b).unwrap(), vec![0]);
    }

    #[test]
    fn projection_fallback_types() {
        let b = batch();
        // a + 1 stays Int via fallback.
        let e = ScalarExpr::Binary {
            op: BinaryOp::Plus,
            left: Box::new(ScalarExpr::Column(0)),
            right: Box::new(ScalarExpr::Literal(Value::Int(1))),
        };
        let col = eval_vector(&e, &b).unwrap();
        assert_eq!(col.get(0), Value::Int(2));
        assert_eq!(col.get(2), Value::Int(10));
    }

    /// One batch with no NULL anywhere (fast kernels take the
    /// branch-free path) and one with NULLs in every numeric column
    /// (per-row bitmap path). Same schema so the same expressions run
    /// over both.
    fn numeric_batches() -> (VectorBatch, VectorBatch) {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("l", DataType::BigInt),
            Field::new("f", DataType::Double),
        ]);
        let dense = VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::Int(3), Value::BigInt(40), Value::Double(1.5)]),
                Row::new(vec![Value::Int(-7), Value::BigInt(-2), Value::Double(8.0)]),
                Row::new(vec![Value::Int(0), Value::BigInt(9), Value::Double(-0.25)]),
            ],
        )
        .unwrap();
        let holey = VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::Int(3), Value::Null, Value::Double(1.5)]),
                Row::new(vec![Value::Null, Value::BigInt(-2), Value::Null]),
                Row::new(vec![Value::Int(0), Value::BigInt(9), Value::Double(-0.25)]),
            ],
        )
        .unwrap();
        (dense, holey)
    }

    fn bin(op: BinaryOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// The arith fast path must be byte-identical to the row fallback —
    /// including the default value stored at NULL slots — on both the
    /// null-free and the nullable batch, for every specialized
    /// column/literal type pairing and both operand orders.
    #[test]
    fn fast_arith_matches_fallback_with_and_without_nulls() {
        let (dense, holey) = numeric_batches();
        let lits = [Value::Int(11), Value::BigInt(5), Value::Double(0.5)];
        for b in [&dense, &holey] {
            for op in [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Multiply] {
                for col in 0..3usize {
                    for lit in &lits {
                        for flipped in [false, true] {
                            let (l, r) = if flipped {
                                (ScalarExpr::Literal(lit.clone()), ScalarExpr::Column(col))
                            } else {
                                (ScalarExpr::Column(col), ScalarExpr::Literal(lit.clone()))
                            };
                            let e = bin(op, l, r);
                            let fast = eval_vector(&e, b).unwrap();
                            let slow = fallback(&e, b).unwrap();
                            assert_eq!(*fast.as_ref(), slow, "divergence for {e}");
                        }
                    }
                }
            }
        }
        // Sanity: the shapes above (except mixed-width Minus) really do
        // hit the typed kernel rather than silently falling back.
        let e = bin(
            BinaryOp::Plus,
            ScalarExpr::Column(0),
            ScalarExpr::Literal(Value::Int(11)),
        );
        let (ScalarExpr::Binary { op, left, right },) = (e,) else {
            unreachable!()
        };
        assert!(try_fast_arith(op, &left, &right, &dense).unwrap().is_some());
        assert!(try_fast_arith(op, &left, &right, &holey).unwrap().is_some());
    }

    /// Mixed Int/BigInt subtraction is deliberately NOT specialized:
    /// `numeric_binop` binds the Int operand first regardless of side,
    /// and the kernel must not paper over that. The fallback is still
    /// the ground truth.
    #[test]
    fn mixed_width_minus_falls_back() {
        let (dense, _) = numeric_batches();
        let e = bin(
            BinaryOp::Minus,
            ScalarExpr::Column(0),
            ScalarExpr::Literal(Value::BigInt(5)),
        );
        let ScalarExpr::Binary { op, left, right } = &e else {
            unreachable!()
        };
        assert!(try_fast_arith(*op, left, right, &dense).unwrap().is_none());
        // And the public entry point agrees with the row interpreter.
        let fast = eval_vector(&e, &dense).unwrap();
        let slow = fallback(&e, &dense).unwrap();
        assert_eq!(*fast.as_ref(), slow);
    }

    /// Comparison kernels and AND/OR agree with the row interpreter on
    /// both the null-free and the nullable batch (the null-free batch
    /// drives the branch-free loops).
    #[test]
    fn compare_and_bool_match_rowmode_both_paths() {
        let (dense, holey) = numeric_batches();
        let cmp = |op, col, lit: Value| bin(op, ScalarExpr::Column(col), ScalarExpr::Literal(lit));
        let exprs = vec![
            cmp(BinaryOp::Gt, 0, Value::Int(0)),
            cmp(BinaryOp::LtEq, 1, Value::BigInt(9)),
            cmp(BinaryOp::NotEq, 2, Value::Double(1.5)),
            bin(
                BinaryOp::And,
                cmp(BinaryOp::GtEq, 0, Value::Int(0)),
                cmp(BinaryOp::Lt, 2, Value::Double(2.0)),
            ),
            bin(
                BinaryOp::Or,
                cmp(BinaryOp::Lt, 0, Value::Int(-5)),
                cmp(BinaryOp::Gt, 1, Value::BigInt(0)),
            ),
        ];
        for b in [&dense, &holey] {
            for e in &exprs {
                assert_eq!(
                    compiled(e, b).unwrap(),
                    filter_indices_rowmode(e, b).unwrap(),
                    "mode divergence for {e}"
                );
            }
        }
    }

    /// A scale-3 literal against a Decimal(7,2) column must compare at
    /// the wider scale, exactly. Rounding the literal down to the
    /// column scale turns 1.005 into 1.00 (truncate) or 1.01 (half
    /// away) and flips the verdict for the values in between — the row
    /// oracle catches either rounding direction on this batch.
    #[test]
    fn decimal_mixed_scale_compare_is_exact() {
        let schema = Schema::new(vec![Field::new("d", DataType::Decimal(7, 2))]);
        let b = VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::Decimal(100, 2)]), // 1.00
                Row::new(vec![Value::Decimal(101, 2)]), // 1.01
                Row::new(vec![Value::Decimal(250, 2)]), // 2.50
                Row::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        let lit = Value::Decimal(1005, 3); // 1.005
        for op in [
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
            BinaryOp::Eq,
            BinaryOp::NotEq,
        ] {
            let e = bin(op, ScalarExpr::Column(0), ScalarExpr::Literal(lit.clone()));
            assert_eq!(
                compiled(&e, &b).unwrap(),
                filter_indices_rowmode(&e, &b).unwrap(),
                "mode divergence for {e}"
            );
        }
        // Pin the two verdicts a rounded literal gets wrong: truncation
        // loses `1.00 < 1.005`, half-away rounding loses `1.01 > 1.005`.
        let lt = bin(
            BinaryOp::Lt,
            ScalarExpr::Column(0),
            ScalarExpr::Literal(lit.clone()),
        );
        assert_eq!(compiled(&lt, &b).unwrap(), vec![0]);
        let gt = bin(
            BinaryOp::Gt,
            ScalarExpr::Column(0),
            ScalarExpr::Literal(lit),
        );
        assert_eq!(compiled(&gt, &b).unwrap(), vec![1, 2]);
        // Integer literals rescale to the column's scale losslessly.
        for op in [BinaryOp::Eq, BinaryOp::Gt] {
            let e = bin(
                op,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::BigInt(1)),
            );
            assert_eq!(
                compiled(&e, &b).unwrap(),
                filter_indices_rowmode(&e, &b).unwrap(),
                "mode divergence for {e}"
            );
        }
    }

    /// The reversed orientation — integer *column* against a decimal
    /// *literal* — must scale the integer up to the literal's scale
    /// (as `sql_cmp` does), never round the literal toward the column.
    /// Rounding 1.5 down (to 1) wrongly passes `1 < 1.5`'s complement,
    /// rounding up (to 2) wrongly fails `2 > 1.5`; the pinned pass
    /// sets catch both directions, the row oracle pins all six ops.
    #[test]
    fn integer_column_vs_decimal_literal_is_exact() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("b", DataType::BigInt),
        ]);
        let b = VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::Int(1), Value::BigInt(1)]),
                Row::new(vec![Value::Int(2), Value::BigInt(2)]),
                Row::new(vec![Value::Null, Value::Null]),
            ],
        )
        .unwrap();
        let lit = Value::Decimal(15, 1); // 1.5
        for c in [0usize, 1] {
            for op in [
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::Eq,
                BinaryOp::NotEq,
            ] {
                let e = bin(op, ScalarExpr::Column(c), ScalarExpr::Literal(lit.clone()));
                assert_eq!(
                    compiled(&e, &b).unwrap(),
                    filter_indices_rowmode(&e, &b).unwrap(),
                    "mode divergence for {e}"
                );
            }
            // Pin the verdicts each rounding direction gets wrong:
            // round-down loses `2 > 1.5`'s partner `1 < 1.5` staying
            // strict (1 < 1 fails), round-up loses `2 > 1.5` (2 > 2
            // fails).
            let lt = bin(
                BinaryOp::Lt,
                ScalarExpr::Column(c),
                ScalarExpr::Literal(lit.clone()),
            );
            assert_eq!(compiled(&lt, &b).unwrap(), vec![0], "col {c}");
            let gt = bin(
                BinaryOp::Gt,
                ScalarExpr::Column(c),
                ScalarExpr::Literal(lit.clone()),
            );
            assert_eq!(compiled(&gt, &b).unwrap(), vec![1], "col {c}");
        }
        // Flipped operand order exercises the same arms through `flip`.
        let flipped = bin(
            BinaryOp::GtEq,
            ScalarExpr::Literal(lit),
            ScalarExpr::Column(1),
        );
        assert_eq!(
            compiled(&flipped, &b).unwrap(),
            filter_indices_rowmode(&flipped, &b).unwrap(),
            "flipped divergence"
        );
        assert_eq!(compiled(&flipped, &b).unwrap(), vec![0]);
    }

    /// Ordering comparisons and prefix LIKE over a dictionary column
    /// take the per-entry kernels; their pass sets must match the row
    /// interpreter, including null rows and negation. A non-prefix
    /// pattern pins the gating: it must fall back, and still agree.
    #[test]
    fn dict_predicates_match_rowmode() {
        let schema = Schema::new(vec![Field::new("s", DataType::String)]);
        let dict = std::sync::Arc::new(vec![
            "apple".to_string(),
            "apricot".to_string(),
            "banana".to_string(),
        ]);
        let mut nulls = BitSet::new(5);
        nulls.set(3);
        let col = ColumnVector::dict_from_codes(vec![0, 2, 1, 0, 2], dict, Some(nulls)).unwrap();
        let b = VectorBatch::from_arcs(schema, vec![std::sync::Arc::new(col)], 5).unwrap();
        let like = |pattern: &str, negated| ScalarExpr::Like {
            expr: Box::new(ScalarExpr::Column(0)),
            pattern: Box::new(ScalarExpr::Literal(Value::String(pattern.into()))),
            negated,
        };
        let exprs = vec![
            bin(
                BinaryOp::Lt,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::String("b".into())),
            ),
            bin(
                BinaryOp::Gt,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::String("apricot".into())),
            ),
            like("ap%", false),
            like("ap%", true),
            like("%an%", false),
        ];
        for e in &exprs {
            assert_eq!(
                compiled(e, &b).unwrap(),
                filter_indices_rowmode(e, &b).unwrap(),
                "mode divergence for {e}"
            );
        }
        // Spot-check the sets themselves: codes [apple, banana,
        // apricot, NULL, banana].
        assert_eq!(compiled(&exprs[0], &b).unwrap(), vec![0, 2]);
        assert_eq!(compiled(&exprs[2], &b).unwrap(), vec![0, 2]);
        assert_eq!(compiled(&exprs[3], &b).unwrap(), vec![1, 4]);
        assert_eq!(compiled(&exprs[4], &b).unwrap(), vec![1, 4]);
    }

    /// Prefix LIKE over a plain string column (NULL row included) keeps
    /// the row interpreter's rows, negated or not.
    #[test]
    fn like_prefix_over_plain_strings_matches_rowmode() {
        let b = batch();
        for (pattern, negated) in [("x%", false), ("x%", true), ("%", false), ("x_%", false)] {
            let e = ScalarExpr::Like {
                expr: Box::new(ScalarExpr::Column(1)),
                pattern: Box::new(ScalarExpr::Literal(Value::String(pattern.into()))),
                negated,
            };
            assert_eq!(
                compiled(&e, &b).unwrap(),
                filter_indices_rowmode(&e, &b).unwrap(),
                "mode divergence for {e}"
            );
        }
    }

    /// The edges a typed comparison can get wrong: NaN and signed zeros
    /// in a DOUBLE column, an INT column against BIGINT literals past
    /// `i32`, a DOUBLE column against an INT literal, and NULL literals
    /// (which no row passes, negated or not).
    #[test]
    fn nan_wide_and_null_literals_match_rowmode() {
        let schema = Schema::new(vec![
            Field::new("f", DataType::Double),
            Field::new("i", DataType::Int),
        ]);
        let b = VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::Double(f64::NAN), Value::Int(i32::MAX)]),
                Row::new(vec![Value::Double(0.0), Value::Int(i32::MIN)]),
                Row::new(vec![Value::Double(-0.0), Value::Int(0)]),
                Row::new(vec![Value::Double(2.0), Value::Null]),
                Row::new(vec![Value::Null, Value::Int(7)]),
            ],
        )
        .unwrap();
        let lits = [
            (0, Value::Double(f64::NAN)),
            (0, Value::Double(0.0)),
            (0, Value::Double(-0.0)),
            (0, Value::Int(2)),
            (1, Value::BigInt(3_000_000_000)),
            (1, Value::BigInt(-3_000_000_000)),
            (1, Value::BigInt(7)),
            (0, Value::Null),
            (1, Value::Null),
        ];
        for (c, lit) in lits {
            for op in [
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::Eq,
                BinaryOp::NotEq,
            ] {
                for flipped in [false, true] {
                    let (l, r) = (ScalarExpr::Column(c), ScalarExpr::Literal(lit.clone()));
                    let e = if flipped {
                        bin(op, r, l)
                    } else {
                        bin(op, l, r)
                    };
                    for e in [e.clone(), ScalarExpr::Not(Box::new(e))] {
                        assert_eq!(
                            compiled(&e, &b).unwrap(),
                            filter_indices_rowmode(&e, &b).unwrap(),
                            "mode divergence for {e}"
                        );
                    }
                }
            }
        }
    }

    /// The row fallback reads only the columns an expression references.
    /// Its output must equal the whole-row evaluation it replaced —
    /// unreferenced string columns, NULLs and all — bit for bit.
    #[test]
    fn fallback_reading_referenced_columns_equals_whole_row_evaluation() {
        let schema = Schema::new(vec![
            Field::new("pad0", DataType::String),
            Field::new("a", DataType::Int),
            Field::new("s", DataType::String),
            Field::new("pad1", DataType::String),
            Field::new("d", DataType::Decimal(7, 2)),
        ]);
        let rows: Vec<Row> = (0..40)
            .map(|i| {
                let null_if = |k: i32, v: Value| if i % k == 0 { Value::Null } else { v };
                Row::new(vec![
                    Value::String(format!("unread-{i}")),
                    null_if(5, Value::Int(i - 20)),
                    null_if(7, Value::String(format!("s{}", i % 9))),
                    null_if(3, Value::String("z".repeat(i as usize))),
                    null_if(4, Value::Decimal(i as i128 * 37, 2)),
                ])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let whole_rows = |e: &ScalarExpr| -> ColumnVector {
            let mut out = ColumnBuilder::new(&e.data_type(b.schema()).unwrap()).unwrap();
            for i in 0..b.num_rows() {
                out.push(&eval_scalar(e, b.row(i).values()).unwrap())
                    .unwrap();
            }
            out.finish()
        };
        let exprs = vec![
            ScalarExpr::Func {
                func: hive_optimizer::BuiltinFunc::Upper,
                args: vec![ScalarExpr::Column(2)],
            },
            bin(
                BinaryOp::Multiply,
                ScalarExpr::Column(4),
                ScalarExpr::Column(1),
            ),
            bin(
                BinaryOp::Gt,
                ScalarExpr::Column(1),
                ScalarExpr::Literal(Value::Int(3)),
            ),
            ScalarExpr::Case {
                operand: None,
                branches: vec![(
                    ScalarExpr::IsNull {
                        expr: Box::new(ScalarExpr::Column(2)),
                        negated: false,
                    },
                    ScalarExpr::Column(1),
                )],
                else_expr: Some(Box::new(ScalarExpr::Literal(Value::Int(-1)))),
            },
        ];
        for e in &exprs {
            assert_eq!(
                fallback(e, &b).unwrap(),
                whole_rows(e),
                "divergence for {e}"
            );
            let dt = e.data_type(b.schema()).unwrap();
            assert_eq!(eval_rowmode(e, &b, &dt).unwrap(), whole_rows(e), "{e}");
        }
        // The row-mode filter keeps the rows whole-row evaluation keeps.
        for e in &exprs[2..] {
            let whole: Vec<u32> = (0..b.num_rows() as u32)
                .filter(|&i| {
                    eval_scalar(e, b.row(i as usize).values()).unwrap() == Value::Boolean(true)
                })
                .collect();
            assert_eq!(filter_indices_rowmode(e, &b).unwrap(), whole, "{e}");
        }
    }

    /// Row-mode projection builds the declared output column directly;
    /// its bytes must match the vectorized builder fallback for the
    /// same expression (the regression this pins: the old path built a
    /// whole-column `Vec<Value>` first, and diverged on typed nulls).
    #[test]
    fn rowmode_projection_matches_vector_fallback_bytes() {
        let b = batch();
        let upper = ScalarExpr::Func {
            func: hive_optimizer::BuiltinFunc::Upper,
            args: vec![ScalarExpr::Column(1)],
        };
        let arith = bin(
            BinaryOp::Plus,
            bin(
                BinaryOp::Multiply,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(2)),
            ),
            ScalarExpr::Literal(Value::Int(1)),
        );
        for (e, want) in [(upper, DataType::String), (arith, DataType::Int)] {
            let vec_out = fallback(&e, &b).unwrap();
            let row_out = eval_rowmode(&e, &b, &want).unwrap();
            assert_eq!(row_out, vec_out, "byte divergence for {e}");
        }
    }
}
