//! Window function execution: partition, order, and evaluate ranking /
//! navigation / framed-aggregate functions. Partitions sort on the
//! Sort's comparator and find peers through it ([`SortOrder`]); framed
//! aggregates fold the GROUP BY's interpreted accumulator ([`Acc`]).

use crate::aggregate::Acc;
use crate::engine::{compact_for, SortOrder};
use crate::kernels::eval_vector;
use crate::keys::{column_refs, Grouper, KeySide};
use hive_common::{ColumnBuilder, ColumnVector, Result, SelBatch, SelVec, Value, VectorBatch};
use hive_optimizer::plan::window_output_type;
use hive_optimizer::{ScalarExpr, WindowExpr, WindowFunc};
use hive_sql::{FrameBound, WindowFrame};
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
    let exprs = windows.iter().flat_map(|w| {
        (w.partition_by.iter())
            .chain(w.order_by.iter().map(|k| &k.expr))
            .chain(&w.args)
    });
    let input = compact_for(input.clone(), exprs);
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
    // Partition, order and argument columns, evaluated once.
    let eval = |e: &ScalarExpr| eval_vector(e, &input.batch);
    let part_cols = w
        .partition_by
        .iter()
        .map(eval)
        .collect::<Result<Vec<_>>>()?;
    let order_cols = (w.order_by.iter())
        .map(|k| eval(&k.expr))
        .collect::<Result<Vec<_>>>()?;
    let arg_cols = w.args.iter().map(eval).collect::<Result<Vec<_>>>()?;

    // Group positions by partition key through the key layer: dense
    // slots or packed words for fixed-width and dictionary-coded
    // columns, canonical bytes otherwise, and no table at all without
    // PARTITION BY.
    // (Output cells are written per position, so partition iteration
    // order is irrelevant to results.)
    let part_refs = column_refs(&part_cols);
    let part_side = KeySide::group(&part_refs).dense_over(&input.sel);
    // Bucket index = group id (dense in first-seen order).
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut groups = Grouper::new(&part_side, 1);
    part_side.key_chunks(&input.sel, 0, n, |at, keys| {
        groups.assign(keys, None, |r, g, new| {
            if new {
                buckets.push(Vec::new());
            }
            buckets[g as usize].push(at + r);
        })
    })?;

    let order = SortOrder::new(&order_cols, &w.order_by);
    let mut out = vec![Value::Null; n];
    for mut rows in buckets {
        rows.sort_by(|&a, &b| order.cmp(at(a), at(b)));
        let len = rows.len();
        // One past each position's last peer. Without ORDER BY every
        // row is every row's peer.
        let mut peer_end = vec![len; len];
        for i in (1..len).rev() {
            peer_end[i - 1] = if order.peers(at(rows[i - 1]), at(rows[i])) {
                peer_end[i]
            } else {
                i
            };
        }
        // The frame as a position range. The default is RANGE BETWEEN
        // UNBOUNDED PRECEDING AND CURRENT ROW, which ends at the
        // current row's last peer.
        let bounds = |pos: usize| match &w.frame {
            Some(f) => frame_bounds(f, pos, len),
            None => (0, peer_end[pos]),
        };
        match &w.func {
            WindowFunc::RowNumber => {
                for (pos, &r) in rows.iter().enumerate() {
                    out[r] = Value::BigInt(pos as i64 + 1);
                }
            }
            WindowFunc::Rank | WindowFunc::DenseRank => {
                // The current peer group's first position, and the
                // number of peer groups so far.
                let (mut first, mut dense) = (0, 0);
                for pos in 0..len {
                    if pos == 0 || peer_end[pos - 1] == pos {
                        (first, dense) = (pos, dense + 1);
                    }
                    let rank = match w.func {
                        WindowFunc::Rank => first + 1,
                        _ => dense,
                    };
                    out[rows[pos]] = Value::BigInt(rank as i64);
                }
            }
            WindowFunc::Ntile => {
                let buckets = arg_cols
                    .first()
                    .map(|c| c.get(at(rows[0])))
                    .and_then(|v| v.as_i64())
                    .unwrap_or(1)
                    .max(1) as usize;
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
                for pos in 0..len {
                    let target = if w.func == WindowFunc::Lag {
                        pos as i64 - offset
                    } else {
                        pos as i64 + offset
                    };
                    out[rows[pos]] = if target >= 0 && (target as usize) < len {
                        arg_cols[0].get(at(rows[target as usize]))
                    } else {
                        default.clone().unwrap_or(Value::Null)
                    };
                }
            }
            WindowFunc::FirstValue | WindowFunc::LastValue => {
                for pos in 0..len {
                    let (lo, hi) = bounds(pos);
                    out[rows[pos]] = if lo == hi {
                        Value::Null
                    } else if w.func == WindowFunc::FirstValue {
                        arg_cols[0].get(at(rows[lo]))
                    } else {
                        arg_cols[0].get(at(rows[hi - 1]))
                    };
                }
            }
            WindowFunc::Agg(func) => {
                // Frame ends never move back, so one accumulator serves
                // every frame that keeps the previous frame's start; a
                // frame whose start moves folds afresh.
                let (mut acc, mut lo0, mut hi0) = (Acc::of(*func), 0, 0);
                for pos in 0..len {
                    let (lo, hi) = bounds(pos);
                    if lo != lo0 {
                        (acc, lo0, hi0) = (Acc::of(*func), lo, lo);
                    }
                    for &r in &rows[hi0..hi] {
                        acc.update(arg_cols.first().map(|c| c.get(at(r))).as_ref())?;
                    }
                    hi0 = hi;
                    out[rows[pos]] = acc.clone().finish()?;
                }
            }
        }
    }
    Ok(out)
}

/// An explicit ROWS frame's position range at `pos` in a partition of
/// `len` rows.
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
        FrameBound::Preceding(k) => (pos + 1).saturating_sub(*k as usize).min(len),
        FrameBound::CurrentRow => (pos + 1).min(len),
        FrameBound::Following(k) => (pos + 1 + *k as usize).min(len),
        FrameBound::UnboundedFollowing => len,
    };
    (lo.min(hi), hi)
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
                Value::Int(70),
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

    // ---- the reference: every case against brute force over `Value`s ----

    use hive_common::BitSet;
    use hive_optimizer::AggFunc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    const G: usize = 0; // INT partition key
    const NUMERIC: [usize; 3] = [1, 2, 3]; // INT, BIGINT, DOUBLE
    const DICT_A: usize = 5; // shares its dictionary with DICT_B
    const DICT_B: usize = 6;
    const DICT_DUP: usize = 7; // a dictionary with duplicate entries
    const COLS: usize = 8;

    /// Columns: g INT, i INT, b BIGINT, d DOUBLE (NaN, ±0), s STRING,
    /// two dictionary columns over one shared dictionary, and one over
    /// a dictionary with duplicate entries; every column has NULLs and
    /// ties.
    fn random_batch(rng: &mut StdRng, rows: usize) -> VectorBatch {
        let nulls = |rng: &mut StdRng| {
            let mut n = BitSet::new(rows);
            (0..rows)
                .filter(|_| rng.gen_range(0..5) == 0)
                .for_each(|r| n.set(r));
            Some(n)
        };
        let vals = |rng: &mut StdRng, pick: &dyn Fn(&mut StdRng) -> Value| {
            (0..rows)
                .map(|_| match rng.gen_range(0..6) {
                    0 => Value::Null,
                    _ => pick(rng),
                })
                .collect::<Vec<_>>()
        };
        let doubles = [f64::NAN, 0.0, -0.0, 1.5, -2.0, 1.5, 7.25];
        let plain = [
            (DataType::Int, vals(rng, &|r| Value::Int(r.gen_range(0..3)))),
            (
                DataType::Int,
                vals(rng, &|r| Value::Int(r.gen_range(-2..3))),
            ),
            (
                DataType::BigInt,
                vals(rng, &|r| Value::BigInt(r.gen_range(0..4))),
            ),
            (
                DataType::Double,
                vals(rng, &|r| {
                    Value::Double(doubles[r.gen_range(0..doubles.len())])
                }),
            ),
            (
                DataType::String,
                vals(rng, &|r| {
                    Value::String(["a", "b", "ab", ""][r.gen_range(0..4)].into())
                }),
            ),
        ];
        let shared = Arc::new(["x", "y", "z", "w"].map(String::from).to_vec());
        let dup = Arc::new(["p", "q", "p", "r", "q"].map(String::from).to_vec());
        let dict = |rng: &mut StdRng, d: &Arc<Vec<String>>| {
            let codes = (0..rows)
                .map(|_| rng.gen_range(0..d.len() as u32))
                .collect();
            ColumnVector::dict_from_codes(codes, d.clone(), nulls(rng)).unwrap()
        };
        let mut fields = Vec::new();
        let mut cols = Vec::new();
        for (c, (dt, v)) in plain.into_iter().enumerate() {
            fields.push(Field::new(format!("c{c}"), dt.clone()));
            cols.push(ColumnVector::from_values(&v, &dt).unwrap());
        }
        for (c, d) in [(DICT_A, &shared), (DICT_B, &shared), (DICT_DUP, &dup)] {
            fields.push(Field::new(format!("c{c}"), DataType::String));
            cols.push(dict(rng, d));
        }
        VectorBatch::new(Schema::new(fields), cols).unwrap()
    }

    fn random_frame(rng: &mut StdRng) -> Option<WindowFrame> {
        use FrameBound::*;
        let frames = [
            (UnboundedPreceding, CurrentRow),
            (Preceding(1), Following(1)),
            (Preceding(2), Preceding(1)),
            (Preceding(3), CurrentRow),
            (CurrentRow, UnboundedFollowing),
            (Following(1), Following(3)),
            (UnboundedPreceding, UnboundedFollowing),
        ];
        let (start, end) = frames[rng.gen_range(0..frames.len())].clone();
        rng.gen_bool(0.6).then_some(WindowFrame { start, end })
    }

    /// `func` over random partition and order keys, arguments and frame.
    fn random_window(rng: &mut StdRng, func: WindowFunc) -> WindowExpr {
        let col = ScalarExpr::Column;
        let partitions: [&[usize]; 5] = [&[], &[G], &[DICT_A], &[G, DICT_DUP], &[DICT_B]];
        let partition_by = partitions[rng.gen_range(0..partitions.len())]
            .iter()
            .map(|&c| col(c))
            .collect();
        let order_by = (0..rng.gen_range(0..3))
            .map(|_| SortKey {
                expr: col(rng.gen_range(1..COLS)),
                asc: rng.gen_bool(0.5),
                nulls_first: rng.gen_bool(0.5),
            })
            .collect();
        let any = col(rng.gen_range(1..COLS));
        let numeric = col(NUMERIC[rng.gen_range(0..NUMERIC.len())]);
        let args = match func {
            WindowFunc::RowNumber | WindowFunc::Rank | WindowFunc::DenseRank => vec![],
            WindowFunc::Ntile => vec![ScalarExpr::Literal(Value::Int(rng.gen_range(1..5)))],
            WindowFunc::Lag | WindowFunc::Lead => {
                let offset = ScalarExpr::Literal(Value::Int(rng.gen_range(0..3)));
                if rng.gen_bool(0.5) {
                    vec![col(1), offset, ScalarExpr::Literal(Value::Int(99))]
                } else {
                    vec![any, offset]
                }
            }
            WindowFunc::FirstValue | WindowFunc::LastValue => vec![any],
            WindowFunc::Agg(AggFunc::Count) if rng.gen_bool(0.3) => vec![],
            WindowFunc::Agg(AggFunc::Count | AggFunc::Min | AggFunc::Max) => vec![any],
            WindowFunc::Agg(_) => vec![numeric],
        };
        WindowExpr {
            func,
            args,
            partition_by,
            order_by,
            frame: random_frame(rng),
        }
    }

    fn literal(e: &ScalarExpr) -> Value {
        match e {
            ScalarExpr::Literal(v) => v.clone(),
            _ => unreachable!("a literal argument"),
        }
    }

    /// Brute force: partitions by `group_eq` in first-seen order, each
    /// stable-sorted by the ORDER BY over values, peers as adjacent
    /// rows equal by `group_eq` on every key, frames as signed position
    /// ranges, aggregates folded with plain `Value` arithmetic.
    fn reference(batch: &VectorBatch, rows: &[usize], w: &WindowExpr) -> Vec<Value> {
        let v = |pos: usize, e: &ScalarExpr| match e {
            ScalarExpr::Column(c) => batch.column(*c).get(rows[pos]),
            e => literal(e),
        };
        let mut parts: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for pos in 0..rows.len() {
            let key: Vec<Value> = w.partition_by.iter().map(|e| v(pos, e)).collect();
            let same = |k: &Vec<Value>| k.iter().zip(&key).all(|(a, b)| a.group_eq(b));
            match parts.iter_mut().find(|(k, _)| same(k)) {
                Some((_, members)) => members.push(pos),
                None => parts.push((key, vec![pos])),
            }
        }
        let nan = |x: &Value| matches!(x, Value::Double(f) if f.is_nan());
        let order_cmp = |a: usize, b: usize| {
            for k in &w.order_by {
                let (x, y) = (v(a, &k.expr), v(b, &k.expr));
                let o = match (x.is_null(), y.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) if k.nulls_first => Ordering::Less,
                    (true, false) => Ordering::Greater,
                    (false, true) if k.nulls_first => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => {
                        let o = x.sql_cmp(&y).unwrap_or_else(|| nan(&x).cmp(&nan(&y)));
                        if k.asc {
                            o
                        } else {
                            o.reverse()
                        }
                    }
                };
                if o != Ordering::Equal {
                    return o;
                }
            }
            Ordering::Equal
        };
        let peers = |a: usize, b: usize| {
            (w.order_by.iter()).all(|k| v(a, &k.expr).group_eq(&v(b, &k.expr)))
        };
        let arg = |pos: usize| w.args.first().map(|e| v(pos, e));
        let mut out = vec![Value::Null; rows.len()];
        for (_, mut p) in parts {
            p.sort_by(|&a, &b| order_cmp(a, b));
            let len = p.len() as i64;
            for (i, &pos) in p.iter().enumerate() {
                // Peer groups are runs of adjacent peers.
                let (mut first_peer, mut last_peer) = (i, i);
                while first_peer > 0 && peers(p[first_peer - 1], p[first_peer]) {
                    first_peer -= 1;
                }
                while last_peer + 1 < p.len() && peers(p[last_peer], p[last_peer + 1]) {
                    last_peer += 1;
                }
                let here = i as i64;
                let bound = |b: &FrameBound| match b {
                    FrameBound::UnboundedPreceding => -1,
                    FrameBound::Preceding(k) => here - *k as i64,
                    FrameBound::CurrentRow => here,
                    FrameBound::Following(k) => here + *k as i64,
                    FrameBound::UnboundedFollowing => len,
                };
                // Inclusive frame ends, clamped into the partition.
                let (lo, hi) = match &w.frame {
                    None => (0, last_peer as i64),
                    Some(f) => (bound(&f.start).max(0), bound(&f.end).min(len - 1)),
                };
                let frame: Vec<usize> = (lo..=hi).map(|j| p[j as usize]).collect();
                out[pos] = match &w.func {
                    WindowFunc::RowNumber => Value::BigInt(here + 1),
                    WindowFunc::Rank => Value::BigInt(first_peer as i64 + 1),
                    WindowFunc::DenseRank => {
                        let starts = (1..=first_peer).filter(|&j| !peers(p[j - 1], p[j])).count();
                        Value::BigInt(starts as i64 + 1)
                    }
                    WindowFunc::Ntile => {
                        let buckets = literal(&w.args[0]).as_i64().unwrap_or(1).max(1);
                        Value::BigInt(here * buckets / len + 1)
                    }
                    WindowFunc::Lag | WindowFunc::Lead => {
                        let off = literal(&w.args[1]).as_i64().unwrap_or(1);
                        let t = if w.func == WindowFunc::Lag {
                            here - off
                        } else {
                            here + off
                        };
                        if (0..len).contains(&t) {
                            v(p[t as usize], &w.args[0])
                        } else {
                            w.args.get(2).map_or(Value::Null, literal)
                        }
                    }
                    WindowFunc::FirstValue => {
                        frame.first().map_or(Value::Null, |&f| v(f, &w.args[0]))
                    }
                    WindowFunc::LastValue => {
                        frame.last().map_or(Value::Null, |&f| v(f, &w.args[0]))
                    }
                    WindowFunc::Agg(func) => {
                        let vals: Vec<Value> = match arg(pos) {
                            None => frame.iter().map(|_| Value::BigInt(1)).collect(),
                            Some(_) => frame
                                .iter()
                                .filter_map(|&f| arg(f))
                                .filter(|x| !x.is_null())
                                .collect(),
                        };
                        let floats: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
                        let mean = floats.iter().sum::<f64>() / floats.len() as f64;
                        let pick = |keep: Ordering| {
                            vals.iter().fold(None::<Value>, |m, x| match m {
                                Some(m) if x.sql_cmp(&m) != Some(keep) => Some(m),
                                _ => Some(x.clone()),
                            })
                        };
                        match func {
                            AggFunc::Count => Some(Value::BigInt(vals.len() as i64)),
                            AggFunc::Sum => vals.iter().cloned().reduce(|s, x| s.add(&x).unwrap()),
                            AggFunc::Min => pick(Ordering::Less),
                            AggFunc::Max => pick(Ordering::Greater),
                            AggFunc::Avg => (!floats.is_empty()).then_some(Value::Double(mean)),
                            AggFunc::StddevSamp => (floats.len() > 1).then(|| {
                                let ss: f64 = floats.iter().map(|f| (f - mean) * (f - mean)).sum();
                                Value::Double((ss / (floats.len() - 1) as f64).sqrt())
                            }),
                        }
                        .unwrap_or(Value::Null)
                    }
                };
            }
        }
        out
    }

    /// Equal values; doubles within a relative 1e-9 (the reference's
    /// two-pass variance against Welford's), NaN equal to NaN.
    fn same(a: &Value, b: &Value) -> bool {
        match (a.as_f64(), b.as_f64(), a, b) {
            (Some(x), Some(y), Value::Double(_), _) | (Some(x), Some(y), _, Value::Double(_)) => {
                (x.is_nan() && y.is_nan()) || x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
            }
            _ => a.group_eq(b),
        }
    }

    #[test]
    fn every_window_function_matches_the_value_reference() {
        let funcs = [
            WindowFunc::RowNumber,
            WindowFunc::Rank,
            WindowFunc::DenseRank,
            WindowFunc::Ntile,
            WindowFunc::Lag,
            WindowFunc::Lead,
            WindowFunc::FirstValue,
            WindowFunc::LastValue,
            WindowFunc::Agg(AggFunc::Count),
            WindowFunc::Agg(AggFunc::Sum),
            WindowFunc::Agg(AggFunc::Min),
            WindowFunc::Agg(AggFunc::Max),
            WindowFunc::Agg(AggFunc::Avg),
            WindowFunc::Agg(AggFunc::StddevSamp),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_3a11);
        for case in 0..300 {
            let rows = rng.gen_range(0..40);
            let batch = random_batch(&mut rng, rows);
            // All rows, or a stacked selection: a subset in ascending or
            // in shuffled order.
            let sel = match rng.gen_range(0..3) {
                0 => SelVec::all(rows),
                k => {
                    let mut idx: Vec<u32> =
                        (0..rows as u32).filter(|_| rng.gen_bool(0.7)).collect();
                    if k == 2 {
                        for i in (1..idx.len()).rev() {
                            idx.swap(i, rng.gen_range(0..=i));
                        }
                    }
                    SelVec::Idx(idx)
                }
            };
            let positions: Vec<usize> = sel.iter().collect();
            let input = SelBatch::new(batch.clone(), sel).unwrap();
            for func in &funcs {
                let w = random_window(&mut rng, *func);
                let mut fields = batch.schema().fields().to_vec();
                fields.push(Field::new("w", window_output_type(&w, batch.schema())));
                let out =
                    execute_window(&input, std::slice::from_ref(&w), &Schema::new(fields)).unwrap();
                let want = reference(&batch, &positions, &w);
                for (pos, want) in want.iter().enumerate() {
                    let got = out.column(COLS).get(pos);
                    assert!(
                        same(&got, want),
                        "case {case}, position {pos}: {got:?} != {want:?} for {w:?}"
                    );
                }
            }
        }
    }
}
