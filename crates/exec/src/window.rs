//! Window function execution: partition, order, and evaluate ranking /
//! navigation / framed-aggregate functions.

use crate::dict::KeyPart;
use crate::kernels::eval_vector;
use crate::keys::{column_refs, Grouper, KeyCol, KeySide};
use hive_common::{ColumnBuilder, ColumnVector, Result, SelBatch, SelVec, Value, VectorBatch};
use hive_optimizer::plan::window_output_type;
use hive_optimizer::{AggFunc, ScalarExpr, WindowExpr, WindowFunc};
use hive_sql::{FrameBound, WindowFrame};
use std::cmp::Ordering;
use std::sync::Arc;

/// Execute a Window node: input columns pass through, one extra column
/// per window expression is appended. The input arrives as a
/// `(batch, selection)` pair; output is 1:1 with the *selected* rows
/// (window output is compact — a pipeline breaker by nature).
/// Partitions are bucketed through the key layer ([`crate::keys`]).
pub fn execute_window(
    input: &SelBatch,
    windows: &[WindowExpr],
    out_schema: &hive_common::Schema,
) -> Result<VectorBatch> {
    // Bare columns and literals read straight through the selection;
    // computed expressions need a compact domain, so compact once.
    fn trivial(e: &ScalarExpr) -> bool {
        matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_))
    }
    let sel_native = windows.iter().all(|w| {
        w.partition_by.iter().all(trivial)
            && w.order_by.iter().all(|k| trivial(&k.expr))
            && w.args.iter().all(trivial)
    });
    let input = if input.sel.is_all() || sel_native {
        input.clone()
    } else {
        SelBatch::from_batch(input.clone().compact())
    };
    let n = input.num_rows();
    // Pass-through columns: an `All` selection shares the input `Arc`s
    // untouched; an index selection gathers them here, once.
    let mut cols: Vec<Arc<ColumnVector>> = match &input.sel {
        SelVec::All(_) => input.batch.columns().to_vec(),
        SelVec::Idx(idx) => input
            .batch
            .columns()
            .iter()
            .map(|c| Arc::new(c.take(idx)))
            .collect(),
    };
    for w in windows {
        let dt = window_output_type(w, input.schema());
        let values = eval_one_window(&input, w)?;
        let mut b = ColumnBuilder::new(&dt)?;
        for v in &values {
            b.push(v)?;
        }
        let col = b.finish();
        debug_assert_eq!(col.len(), n);
        cols.push(Arc::new(col));
    }
    VectorBatch::from_arcs(out_schema.clone(), cols, n)
}

/// Evaluate one window expression. All bookkeeping (partition lists,
/// sort order, frames, the output vec) lives in *position* space
/// (0..selected rows); column reads map through `input.sel`.
fn eval_one_window(input: &SelBatch, w: &WindowExpr) -> Result<Vec<Value>> {
    let n = input.num_rows();
    let at = |pos: usize| input.sel.index(pos);
    // Partition keys and order keys evaluated once.
    let part_cols = w
        .partition_by
        .iter()
        .map(|e| eval_vector(e, &input.batch))
        .collect::<Result<Vec<_>>>()?;
    let order_cols = w
        .order_by
        .iter()
        .map(|k| eval_vector(&k.expr, &input.batch))
        .collect::<Result<Vec<_>>>()?;
    let arg_cols = w
        .args
        .iter()
        .map(|e| eval_vector(e, &input.batch))
        .collect::<Result<Vec<_>>>()?;

    // Group positions by partition key through the key layer: packed
    // words for fixed-width and dictionary-coded columns, canonical
    // bytes otherwise, and no table at all without PARTITION BY.
    // (Output cells are written per position, so partition iteration
    // order is irrelevant to results.)
    let part_refs = column_refs(&part_cols);
    let part_side = KeySide::group(&part_refs);
    // Bucket index = group id (dense in first-seen order).
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut groups = Grouper::new(part_side.shape());
    part_side.key_chunks(&input.sel, 0, n, |at, keys| {
        groups.assign(keys, None, |r, g, new| {
            if new {
                buckets.push(Vec::new());
            }
            buckets[g as usize].push(at + r);
        })
    })?;

    let order_readers: Vec<KeyCol<'_>> = order_cols
        .iter()
        .map(|c| KeyCol::group(c.as_ref()))
        .collect();
    let mut out = vec![Value::Null; n];
    for mut rows in buckets {
        // Sort within the partition by the order keys.
        rows.sort_by(|&a, &b| {
            for (kc, key) in order_cols.iter().zip(&w.order_by) {
                let (va, vb) = (kc.get(at(a)), kc.get(at(b)));
                let ord = match (va.is_null(), vb.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => {
                        if key.nulls_first {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                    (false, true) => {
                        if key.nulls_first {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    }
                    (false, false) => va.sql_cmp(&vb).unwrap_or(Ordering::Equal),
                };
                let ord = if key.asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        // Peer equality through key parts: code compare for
        // dictionary-encoded order columns, value compare otherwise.
        let peer_key = |i: usize| -> Vec<KeyPart> {
            order_readers.iter().map(|r| r.part(at(rows[i]))).collect()
        };
        match &w.func {
            WindowFunc::RowNumber => {
                for (pos, &r) in rows.iter().enumerate() {
                    out[r] = Value::BigInt(pos as i64 + 1);
                }
            }
            WindowFunc::Rank => {
                let mut rank = 1i64;
                for pos in 0..rows.len() {
                    if pos > 0 && peer_key(pos) != peer_key(pos - 1) {
                        rank = pos as i64 + 1;
                    }
                    out[rows[pos]] = Value::BigInt(rank);
                }
            }
            WindowFunc::DenseRank => {
                let mut rank = 1i64;
                for pos in 0..rows.len() {
                    if pos > 0 && peer_key(pos) != peer_key(pos - 1) {
                        rank += 1;
                    }
                    out[rows[pos]] = Value::BigInt(rank);
                }
            }
            WindowFunc::Ntile => {
                let buckets = arg_cols
                    .first()
                    .map(|c| c.get(at(rows[0])))
                    .and_then(|v| v.as_i64())
                    .unwrap_or(1)
                    .max(1) as usize;
                let len = rows.len();
                for (pos, &r) in rows.iter().enumerate() {
                    out[r] = Value::BigInt((pos * buckets / len.max(1)) as i64 + 1);
                }
            }
            WindowFunc::Lag | WindowFunc::Lead => {
                let offset = w
                    .args
                    .get(1)
                    .and_then(|a| match a {
                        ScalarExpr::Literal(v) => v.as_i64(),
                        _ => None,
                    })
                    .unwrap_or(1);
                let default = w.args.get(2).and_then(|a| match a {
                    ScalarExpr::Literal(v) => Some(v.clone()),
                    _ => None,
                });
                for pos in 0..rows.len() {
                    let target = if w.func == WindowFunc::Lag {
                        pos as i64 - offset
                    } else {
                        pos as i64 + offset
                    };
                    out[rows[pos]] = if target >= 0 && (target as usize) < rows.len() {
                        arg_cols[0].get(at(rows[target as usize]))
                    } else {
                        default.clone().unwrap_or(Value::Null)
                    };
                }
            }
            WindowFunc::FirstValue => {
                for &r in &rows {
                    out[r] = arg_cols[0].get(at(rows[0]));
                }
            }
            WindowFunc::LastValue => {
                // Default frame (up to current row): last value is the
                // current row's value; with an explicit full frame it is
                // the partition's last.
                let full = matches!(
                    &w.frame,
                    Some(WindowFrame {
                        end: FrameBound::UnboundedFollowing,
                        ..
                    })
                );
                for (pos, &r) in rows.iter().enumerate() {
                    let src = if full {
                        rows[rows.len() - 1]
                    } else {
                        rows[pos]
                    };
                    out[r] = arg_cols[0].get(at(src));
                }
            }
            WindowFunc::Agg(func) => {
                let frame = effective_frame(w);
                for pos in 0..rows.len() {
                    let (lo, hi) = frame_bounds(&frame, pos, rows.len());
                    let mut acc = AggState::new(*func);
                    for &r in &rows[lo..hi] {
                        let v = arg_cols.first().map(|c| c.get(at(r)));
                        acc.update(v.as_ref())?;
                    }
                    out[rows[pos]] = acc.finish();
                }
            }
        }
    }
    Ok(out)
}

/// Default frame semantics: with ORDER BY, unbounded-preceding..current;
/// without, the whole partition.
fn effective_frame(w: &WindowExpr) -> WindowFrame {
    match &w.frame {
        Some(f) => f.clone(),
        None if !w.order_by.is_empty() => WindowFrame {
            start: FrameBound::UnboundedPreceding,
            end: FrameBound::CurrentRow,
        },
        None => WindowFrame {
            start: FrameBound::UnboundedPreceding,
            end: FrameBound::UnboundedFollowing,
        },
    }
}

fn frame_bounds(frame: &WindowFrame, pos: usize, len: usize) -> (usize, usize) {
    let lo = match &frame.start {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => pos.saturating_sub(*k as usize),
        FrameBound::CurrentRow => pos,
        FrameBound::Following(k) => (pos + *k as usize).min(len),
        FrameBound::UnboundedFollowing => len,
    };
    let hi = match &frame.end {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => pos.saturating_sub(*k as usize).saturating_add(1).min(len),
        FrameBound::CurrentRow => (pos + 1).min(len),
        FrameBound::Following(k) => (pos + 1 + *k as usize).min(len),
        FrameBound::UnboundedFollowing => len,
    };
    (lo.min(hi), hi)
}

/// Small aggregate state for framed window aggregates.
struct AggState {
    func: AggFunc,
    count: i64,
    sum: Option<Value>,
    fsum: f64,
    fcount: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: None,
            fsum: 0.0,
            fcount: 0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        let Some(v) = v else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        self.sum = Some(match self.sum.take() {
            None => v.clone(),
            Some(cur) => cur.add(v)?,
        });
        if let Some(f) = v.as_f64() {
            self.fsum += f;
            self.fcount += 1;
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
        {
            self.max = Some(v.clone());
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::BigInt(self.count),
            AggFunc::Sum => self.sum.unwrap_or(Value::Null),
            AggFunc::Min => self.min.unwrap_or(Value::Null),
            AggFunc::Max => self.max.unwrap_or(Value::Null),
            AggFunc::Avg => {
                if self.fcount == 0 {
                    Value::Null
                } else {
                    Value::Double(self.fsum / self.fcount as f64)
                }
            }
            AggFunc::StddevSamp => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Row, Schema};
    use hive_optimizer::SortKey;

    fn input() -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("dept", DataType::String),
            Field::new("sal", DataType::Int),
        ]);
        VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::String("a".into()), Value::Int(10)]),
                Row::new(vec![Value::String("a".into()), Value::Int(30)]),
                Row::new(vec![Value::String("a".into()), Value::Int(30)]),
                Row::new(vec![Value::String("b".into()), Value::Int(5)]),
            ],
        )
        .unwrap()
    }

    fn wexpr(func: WindowFunc, args: Vec<ScalarExpr>, frame: Option<WindowFrame>) -> WindowExpr {
        WindowExpr {
            func,
            args,
            partition_by: vec![ScalarExpr::Column(0)],
            order_by: vec![SortKey {
                expr: ScalarExpr::Column(1),
                asc: true,
                nulls_first: false,
            }],
            frame,
        }
    }

    fn run(w: WindowExpr) -> Vec<Value> {
        let b = input();
        let plan_schema = {
            let mut fields = b.schema().fields().to_vec();
            fields.push(Field::new("_w0", window_output_type(&w, b.schema())));
            Schema::new(fields)
        };
        let sb = SelBatch::from_batch(b);
        let out = execute_window(&sb, &[w], &plan_schema).unwrap();
        (0..out.num_rows()).map(|i| out.column(2).get(i)).collect()
    }

    #[test]
    fn row_number_and_ranks() {
        assert_eq!(
            run(wexpr(WindowFunc::RowNumber, vec![], None)),
            vec![
                Value::BigInt(1),
                Value::BigInt(2),
                Value::BigInt(3),
                Value::BigInt(1)
            ]
        );
        assert_eq!(
            run(wexpr(WindowFunc::Rank, vec![], None)),
            vec![
                Value::BigInt(1),
                Value::BigInt(2),
                Value::BigInt(2),
                Value::BigInt(1)
            ]
        );
        assert_eq!(
            run(wexpr(WindowFunc::DenseRank, vec![], None)),
            vec![
                Value::BigInt(1),
                Value::BigInt(2),
                Value::BigInt(2),
                Value::BigInt(1)
            ]
        );
    }

    #[test]
    fn running_sum_default_frame() {
        assert_eq!(
            run(wexpr(
                WindowFunc::Agg(AggFunc::Sum),
                vec![ScalarExpr::Column(1)],
                None
            )),
            vec![
                Value::Int(10),
                Value::Int(40),
                Value::Int(70),
                Value::Int(5)
            ]
        );
    }

    #[test]
    fn sliding_frame() {
        assert_eq!(
            run(wexpr(
                WindowFunc::Agg(AggFunc::Sum),
                vec![ScalarExpr::Column(1)],
                Some(WindowFrame {
                    start: FrameBound::Preceding(1),
                    end: FrameBound::CurrentRow,
                })
            )),
            vec![
                Value::Int(10),
                Value::Int(40),
                Value::Int(60),
                Value::Int(5)
            ]
        );
    }

    #[test]
    fn lag_lead() {
        assert_eq!(
            run(wexpr(WindowFunc::Lag, vec![ScalarExpr::Column(1)], None)),
            vec![Value::Null, Value::Int(10), Value::Int(30), Value::Null]
        );
        assert_eq!(
            run(wexpr(WindowFunc::Lead, vec![ScalarExpr::Column(1)], None)),
            vec![Value::Int(30), Value::Int(30), Value::Null, Value::Null]
        );
    }

    #[test]
    fn first_last_value() {
        assert_eq!(
            run(wexpr(
                WindowFunc::FirstValue,
                vec![ScalarExpr::Column(1)],
                None
            )),
            vec![
                Value::Int(10),
                Value::Int(10),
                Value::Int(10),
                Value::Int(5)
            ]
        );
    }
}
