//! Property test: **parts equal the whole, compiled equals
//! interpreted**. However an aggregate's input is cut into parts — row
//! groups with their own dictionaries, empty parts, parts under a
//! selection — the compiled `execute_aggregate_parts` (PIR counters
//! passed: state columns from the fold to the output, DISTINCT as a
//! first-occurrence filter) returns exactly what the serial, interpreted
//! `execute_aggregate` (accumulator rows, a `Value` per state) returns
//! over the concatenation: the same values to the bit, the same group
//! order, the neutral row over all-empty input, and the same error when
//! a decimal SUM overflows — at 1, 2 and 8 workers, with grouping sets,
//! through the parts route, and under a spill budget, whose partitions
//! are compiled or interpreted exactly as the unbudgeted build is.

use hive_common::{
    BitSet, ColumnVector, DataType, Field, Schema, SelBatch, SelVec, Value, VectorBatch,
};
use hive_dfs::{DfsPath, DistFs};
use hive_exec::aggregate::{execute_aggregate, execute_aggregate_parts};
use hive_exec::pir::PirCounters;
use hive_exec::{MemoryBroker, SpillCtx};
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Column positions in [`schema`].
const K_INT: usize = 0;
const K_STR: usize = 1;
const K_PART: usize = 2;
const K_ROW: usize = 3;
const FIRST_VALUE: usize = 4;
const V_INT: usize = 5;
const V_DEC: usize = 8;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k_int", DataType::Int),
        Field::new("k_str", DataType::String),
        Field::new("k_part", DataType::Int),
        Field::new("k_row", DataType::Int),
        Field::new("v_bool", DataType::Boolean),
        Field::new("v_int", DataType::Int),
        Field::new("v_big", DataType::BigInt),
        Field::new("v_dbl", DataType::Double),
        Field::new("v_dec", DataType::Decimal(38, 2)),
        Field::new("v_str", DataType::String),
        Field::new("v_date", DataType::Date),
        Field::new("v_ts", DataType::Timestamp),
    ])
}

fn nulls(rng: &mut StdRng, rows: usize) -> Option<BitSet> {
    // A third of the columns carry no bitmap at all.
    if rng.gen_range(0..3) == 0 {
        return None;
    }
    let mut b = BitSet::new(rows);
    for i in 0..rows {
        if rng.gen_range(0..6) == 0 {
            b.set(i);
        }
    }
    Some(b)
}

/// A string column over a handful of words: plain, or dictionary-encoded
/// over a dictionary of this part's own (a shuffled subset plus words no
/// other part has), so parts never agree on codes.
fn string_column(rng: &mut StdRng, rows: usize, part: usize) -> ColumnVector {
    let mut words: Vec<String> = ["ant", "bee", "cat", "dog", "eel", ""]
        .iter()
        .map(|w| w.to_string())
        .collect();
    words.push(format!("only-in-{part}"));
    for i in (1..words.len()).rev() {
        words.swap(i, rng.gen_range(0..=i));
    }
    words.truncate(rng.gen_range(2..=words.len()));
    let codes: Vec<u32> = (0..rows)
        .map(|_| rng.gen_range(0..words.len()) as u32)
        .collect();
    let nulls = nulls(rng, rows);
    if rng.gen_bool(0.7) {
        ColumnVector::dict_from_codes(codes, Arc::new(words), nulls).unwrap()
    } else {
        ColumnVector::Str(
            codes.iter().map(|&c| words[c as usize].clone()).collect(),
            nulls,
        )
    }
}

/// One part: `rows` random rows and a selection over them. `(k_part,
/// k_row)` is the part and the row within it — a key with a group per
/// row. `edge` mixes in the values where fold order or overflow shows:
/// `NaN` and `-0.0`, integers that wrap, decimals within a few additions
/// of `i128::MAX` (several *distinct* ones around `i128::MAX / 2`, so a
/// SUM(DISTINCT) overflows too).
fn random_part(rng: &mut StdRng, part: usize, rows: usize, edge: bool) -> SelBatch {
    let ints = |rng: &mut StdRng, lo: i64, hi: i64| -> Vec<i64> {
        (0..rows).map(|_| rng.gen_range(lo..hi)).collect()
    };
    let k_int: Vec<i32> = ints(rng, 0, 5).iter().map(|&v| v as i32).collect();
    let v_int: Vec<i32> = (0..rows)
        .map(|_| match rng.gen_range(0..8) {
            0 if edge => i32::MAX,
            1 if edge => i32::MIN,
            _ => rng.gen_range(-50..50),
        })
        .collect();
    let v_big: Vec<i64> = (0..rows)
        .map(|_| match rng.gen_range(0..8) {
            0 if edge => i64::MAX,
            1 if edge => i64::MIN,
            _ => rng.gen_range(-1000..1000),
        })
        .collect();
    let v_dbl: Vec<f64> = (0..rows)
        .map(|_| match rng.gen_range(0..10) {
            0 if edge => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 if edge => 1e300,
            _ => rng.gen_range(-400i64..400) as f64 * 0.125 + 0.1,
        })
        .collect();
    // Narrow (`i64`) unless a value past `i64` lands in the part, so the
    // parts of one column come at either width or both.
    let v_dec: Vec<i128> = (0..rows)
        .map(|_| match rng.gen_range(0..8) {
            0 if edge => i128::MAX / 3,
            1 if edge => -(i128::MAX / 3),
            2 if edge => i128::MAX / 2 + rng.gen_range(0i64..3) as i128,
            3 if edge => i64::MAX as i128,
            4 if edge => i64::MIN as i128,
            _ => rng.gen_range(-100_000i64..100_000) as i128,
        })
        .collect();
    let columns = vec![
        ColumnVector::Int(k_int, nulls(rng, rows)),
        string_column(rng, rows, part),
        ColumnVector::Int(vec![part as i32; rows], None),
        ColumnVector::Int((0..rows as i32).collect(), None),
        ColumnVector::Boolean(
            (0..rows).map(|_| rng.gen_bool(0.5)).collect(),
            nulls(rng, rows),
        ),
        ColumnVector::Int(v_int, nulls(rng, rows)),
        ColumnVector::BigInt(v_big, nulls(rng, rows)),
        ColumnVector::Double(v_dbl, nulls(rng, rows)),
        ColumnVector::Decimal(v_dec.into(), 2, nulls(rng, rows)),
        string_column(rng, rows, part),
        ColumnVector::Date(
            ints(rng, 0, 400).iter().map(|&v| v as i32).collect(),
            nulls(rng, rows),
        ),
        ColumnVector::Timestamp(ints(rng, -5, 5_000_000), nulls(rng, rows)),
    ];
    let batch = VectorBatch::new_with_rows(schema(), columns, rows).unwrap();
    let sel = match rng.gen_range(0..4) {
        0 => SelVec::Idx((0..rows as u32).filter(|_| rng.gen_bool(0.5)).collect()),
        1 => SelVec::Idx(Vec::new()),
        _ => SelVec::All(rows),
    };
    SelBatch::new(batch, sel).unwrap()
}

/// 1–9 parts, some of them empty. The first part is usually large
/// enough that two keys still reduce it eightfold — the keyed parts
/// route probes the first part and leaves keys that barely reduce to
/// the assembled build — and sometimes small, so both sides run.
fn random_parts(rng: &mut StdRng, edge: bool) -> Vec<SelBatch> {
    (0..rng.gen_range(1..=9))
        .map(|p| {
            let rows = match rng.gen_range(0..4) {
                0 => 0,
                _ if p == 0 && rng.gen_bool(0.7) => rng.gen_range(800..900),
                _ => rng.gen_range(1..80),
            };
            random_part(rng, p, rows, edge)
        })
        .collect()
}

/// Every aggregate the engine has over one value column, with and
/// without DISTINCT, plus `COUNT(*)`.
fn aggs_over(col: usize, dt: &DataType) -> Vec<AggExpr> {
    let numeric = matches!(
        dt,
        DataType::Int | DataType::BigInt | DataType::Double | DataType::Decimal(..)
    );
    let mut out = vec![AggExpr {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
    }];
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
        AggFunc::StddevSamp,
    ] {
        if !numeric && matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::StddevSamp) {
            continue;
        }
        for distinct in [false, true] {
            out.push(AggExpr {
                func,
                arg: Some(ScalarExpr::Column(col)),
                distinct,
            });
        }
    }
    out
}

fn out_schema(groups: &[ScalarExpr], sets: &Option<Vec<Vec<usize>>>, aggs: &[AggExpr]) -> Schema {
    LogicalPlan::Aggregate {
        input: Arc::new(LogicalPlan::Values {
            schema: schema(),
            rows: vec![],
        }),
        group_exprs: groups.to_vec(),
        grouping_sets: sets.clone(),
        aggs: aggs.to_vec(),
    }
    .schema()
}

/// Rows as values with doubles by bit pattern: `NaN` equals itself and
/// `-0.0` differs from `0.0`. Dictionary columns decode first — which
/// dictionary a result column happens to carry is not part of the
/// result.
fn bits(b: &VectorBatch) -> Vec<Vec<String>> {
    b.clone()
        .decode()
        .to_rows()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Double(f) => format!("f64:{:016x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

/// The key shapes: key-less, one key (both carry NULLs in most parts),
/// two keys, a two-`INT` key with a group per row, grouping sets (with
/// the empty set among them).
#[allow(clippy::type_complexity)]
fn key_shapes() -> Vec<(Vec<ScalarExpr>, Option<Vec<Vec<usize>>>)> {
    let k = |c| ScalarExpr::Column(c);
    vec![
        (vec![], None),
        (vec![k(K_STR)], None),
        (vec![k(K_INT)], None),
        (vec![k(K_INT), k(K_STR)], None),
        (vec![k(K_PART), k(K_ROW)], None),
        (
            vec![k(K_INT), k(K_STR)],
            Some(vec![vec![0, 1], vec![1], vec![0], vec![]]),
        ),
    ]
}

fn check(parts: &[SelBatch], what: &str) {
    let whole = VectorBatch::concat_selected(&schema(), parts).unwrap();
    let rows = whole.num_rows();
    for (groups, sets) in key_shapes() {
        for (col, field) in schema().fields().iter().enumerate().skip(FIRST_VALUE) {
            // One aggregate at a time and all of a column's at once:
            // alone, a mergeable aggregate takes the parts route; next to
            // an order-sensitive one, the whole operator assembles.
            let all = aggs_over(col, &field.data_type);
            let mut lists: Vec<Vec<AggExpr>> = all.iter().map(|a| vec![a.clone()]).collect();
            // ... and all that compile at once: STDDEV_SAMP keeps the
            // whole operator on the interpreter's rows.
            let compiled: Vec<AggExpr> = (all.iter())
                .filter(|a| a.func != AggFunc::StddevSamp)
                .cloned()
                .collect();
            if compiled.len() < all.len() {
                lists.push(compiled);
            }
            lists.push(all);
            for aggs in lists {
                let out = out_schema(&groups, &sets, &aggs);
                // The serial, interpreted build over the whole input.
                let want = execute_aggregate(&whole, &groups, &sets, &aggs, &out);
                // Which builds are compiled: all but STDDEV_SAMP and
                // MIN/MAX(DISTINCT) over a DOUBLE.
                let interpreted = aggs.iter().any(|a| {
                    a.func == AggFunc::StddevSamp
                        || (a.distinct
                            && matches!(a.func, AggFunc::Min | AggFunc::Max)
                            && field.data_type == DataType::Double)
                });
                let mut unbudgeted = None;
                for workers in [1, 2, 8] {
                    let mut pc = PirCounters::default();
                    let got = execute_aggregate_parts(
                        parts,
                        &groups,
                        &sets,
                        &aggs,
                        &out,
                        workers,
                        None,
                        Some(&mut pc),
                    )
                    .map(|(batch, _)| batch);
                    let ctx = format!(
                        "{what}: {} keys, sets {sets:?}, {aggs:?}, {workers} workers",
                        groups.len()
                    );
                    same(&want, &got, &ctx);
                    if got.is_ok() {
                        assert_eq!(pc.compiled_stages, !interpreted as u64, "{ctx}");
                        assert_eq!(pc.fallback_rows == 0, !interpreted || rows == 0, "{ctx}");
                        unbudgeted = Some((pc.compiled_stages, pc.fallback_rows));
                    }
                }
                // Under a budget the build spills, and each spilled
                // partition is the in-memory build over its positions:
                // the same bytes, compiled or interpreted exactly as the
                // unbudgeted build was.
                if aggs.len() > 1 && whole.num_rows() > 0 {
                    let want = execute_aggregate(&whole, &groups, &sets, &aggs, &out);
                    let fs = DistFs::new();
                    let broker = MemoryBroker::with_budget(4 * 1024);
                    let ops = AtomicU64::new(0);
                    let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q"), &broker, true, &ops);
                    let mut pc = PirCounters::default();
                    let got = execute_aggregate_parts(
                        parts,
                        &groups,
                        &sets,
                        &aggs,
                        &out,
                        2,
                        Some(&sp),
                        Some(&mut pc),
                    )
                    .map(|(batch, _)| batch);
                    let ctx = format!("{what}: {} keys, sets {sets:?}, spilled", groups.len());
                    same(&want, &got, &ctx);
                    if got.is_ok() {
                        let counters = (pc.compiled_stages, pc.fallback_rows);
                        assert_eq!(Some(counters), unbudgeted, "{ctx}");
                    }
                }
            }
        }
    }
}

fn same(
    want: &hive_common::Result<VectorBatch>,
    got: &hive_common::Result<VectorBatch>,
    ctx: &str,
) {
    match (want, got) {
        (Ok(w), Ok(g)) => assert_eq!(bits(g), bits(w), "{ctx}"),
        (Err(w), Err(g)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
        _ => panic!("{ctx}: interpreted {want:?} but compiled {got:?}"),
    }
}

#[test]
fn parts_equal_the_whole() {
    let mut rng = StdRng::seed_from_u64(0x9a275);
    for case in 0..6 {
        let parts = random_parts(&mut rng, false);
        check(&parts, &format!("case {case}"));
    }
}

#[test]
fn parts_equal_the_whole_at_the_edges() {
    // NaN leaders, signed zeros, wrapping integer sums, and decimal sums
    // that overflow — on a prefix only, in a partial only, or for good.
    let mut rng = StdRng::seed_from_u64(0xed9e);
    let (mut overflowed, mut distinct_overflowed) = (0, 0);
    for case in 0..8 {
        let parts = random_parts(&mut rng, true);
        let whole = VectorBatch::concat_selected(&schema(), &parts).unwrap();
        let mut sum_dec = [AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(V_DEC)),
            distinct: false,
        }];
        let out = out_schema(&[], &None, &sum_dec);
        overflowed += execute_aggregate(&whole, &[], &None, &sum_dec, &out).is_err() as usize;
        sum_dec[0].distinct = true;
        distinct_overflowed +=
            execute_aggregate(&whole, &[], &None, &sum_dec, &out).is_err() as usize;
        check(&parts, &format!("edge case {case}"));
    }
    assert!(
        (1..8).contains(&overflowed) && (1..8).contains(&distinct_overflowed),
        "the cases must include both overflowing and fitting decimal sums, got {overflowed}/8 \
         and {distinct_overflowed}/8 over the distinct values"
    );
}

#[test]
fn all_empty_parts_give_the_neutral_row() {
    let mut rng = StdRng::seed_from_u64(3);
    let parts: Vec<SelBatch> = (0..4).map(|p| random_part(&mut rng, p, 0, false)).collect();
    check(&parts, "all parts empty");
    let aggs = aggs_over(V_INT, &DataType::Int);
    let out = out_schema(&[], &None, &aggs);
    let mut pc = PirCounters::default();
    let got = execute_aggregate_parts(&parts, &[], &None, &aggs, &out, 2, None, Some(&mut pc))
        .map(|(batch, _)| batch)
        .unwrap();
    assert_eq!(got.num_rows(), 1);
    assert_eq!(got.row(0).get(0), &Value::BigInt(0)); // COUNT(*)
    assert!(got.row(0).get(3).is_null()); // SUM
}

#[test]
fn a_prefix_overflow_the_partials_hide_still_errors() {
    // Serially: MAX-1, then +5 overflows. Cut after the first row, the
    // second part's own sum is -5 and the merged total MAX-6 fits — only
    // the magnitude guard sees that the serial fold would have failed.
    let schema = Schema::new(vec![Field::new("d", DataType::Decimal(38, 0))]);
    let part = |vals: Vec<i128>| {
        SelBatch::from_batch(
            VectorBatch::new(
                schema.clone(),
                vec![ColumnVector::Decimal(vals.into(), 0, None)],
            )
            .unwrap(),
        )
    };
    let parts = [part(vec![i128::MAX - 1]), part(vec![5, -10])];
    let aggs = [AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(0)),
        distinct: false,
    }];
    let out = LogicalPlan::Aggregate {
        input: Arc::new(LogicalPlan::Values {
            schema: schema.clone(),
            rows: vec![],
        }),
        group_exprs: vec![],
        grouping_sets: None,
        aggs: aggs.to_vec(),
    }
    .schema();
    let whole = VectorBatch::concat_selected(&schema, &parts).unwrap();
    let want = execute_aggregate(&whole, &[], &None, &aggs, &out).unwrap_err();
    let mut pc = PirCounters::default();
    let got = execute_aggregate_parts(&parts, &[], &None, &aggs, &out, 2, None, Some(&mut pc))
        .map(|(batch, _)| batch)
        .unwrap_err();
    assert_eq!(got.to_string(), want.to_string());
}

#[test]
fn a_group_per_row_merges_its_partitions_in_first_seen_order() {
    // One part of several morsels, so the keyed build partitions by key
    // hash: with a group per row every partition holds thousands of
    // groups and the merge interleaves them; with the NULL-bearing
    // five-value key it holds a few.
    let mut rng = StdRng::seed_from_u64(0x24);
    let part = random_part(&mut rng, 0, 10_000, true);
    let whole = VectorBatch::concat_selected(&schema(), std::slice::from_ref(&part)).unwrap();
    let agg = |func, col, distinct| AggExpr {
        func,
        arg: Some(ScalarExpr::Column(col)),
        distinct,
    };
    let (v_dbl, v_str) = (V_INT + 2, V_DEC + 1);
    let aggs = vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        agg(AggFunc::Sum, v_dbl, false),
        agg(AggFunc::Min, v_str, false),
        agg(AggFunc::Avg, V_DEC, false),
        agg(AggFunc::Count, V_INT, true),
        agg(AggFunc::Sum, v_dbl, true),
        agg(AggFunc::Max, V_DEC, true),
    ];
    let k = |c| ScalarExpr::Column(c);
    for groups in [vec![k(K_PART), k(K_ROW)], vec![k(K_INT)]] {
        let out = out_schema(&groups, &None, &aggs);
        let want = execute_aggregate(&whole, &groups, &None, &aggs, &out);
        for workers in [1, 2, 8] {
            let mut pc = PirCounters::default();
            let got = execute_aggregate_parts(
                std::slice::from_ref(&part),
                &groups,
                &None,
                &aggs,
                &out,
                workers,
                None,
                Some(&mut pc),
            )
            .map(|(batch, _)| batch);
            let ctx = format!("{} keys, {workers} workers", groups.len());
            same(&want, &got, &ctx);
            assert_eq!((pc.compiled_stages, pc.fallback_rows), (1, 0), "{ctx}");
        }
    }
}

#[test]
fn keyless_double_sums_and_averages_continue_one_state_across_parts() {
    // Serially (1e16 + 1) + 1 rounds back to 1e16 twice, and the total
    // is 0; summed per part and merged it would be 1e16 + 2 - 1e16 = 2.
    // The parts route continues one state across the parts instead —
    // compiled, nothing assembled — and lands on the serial bits.
    let schema = Schema::new(vec![
        Field::new("d", DataType::Double),
        Field::new("m", DataType::Decimal(38, 2)),
    ]);
    let part = |d: Vec<f64>, sel: SelVec| {
        let m = (d.iter())
            .map(|&x| {
                if x.abs() < 1e6 {
                    (x * 100.0) as i128
                } else {
                    7
                }
            })
            .collect();
        let cols = vec![
            ColumnVector::Double(d, None),
            ColumnVector::Decimal(m, 2, None),
        ];
        SelBatch::new(VectorBatch::new(schema.clone(), cols).unwrap(), sel).unwrap()
    };
    let parts = [
        part(vec![1e16, -0.0], SelVec::All(2)),
        part(vec![1.0, 99.0, 1.0], SelVec::Idx(vec![0, 2])),
        part(vec![], SelVec::All(0)),
        part(vec![-1e16, 0.25], SelVec::All(2)),
    ];
    let agg = |func, col| AggExpr {
        func,
        arg: Some(ScalarExpr::Column(col)),
        distinct: false,
    };
    let aggs = [
        agg(AggFunc::Sum, 0),
        agg(AggFunc::Avg, 0),
        agg(AggFunc::Avg, 1),
        agg(AggFunc::Sum, 1),
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
    ];
    let out = LogicalPlan::Aggregate {
        input: Arc::new(LogicalPlan::Values {
            schema: schema.clone(),
            rows: vec![],
        }),
        group_exprs: vec![],
        grouping_sets: None,
        aggs: aggs.to_vec(),
    }
    .schema();
    let whole = VectorBatch::concat_selected(&schema, &parts).unwrap();
    let want = execute_aggregate(&whole, &[], &None, &aggs, &out);
    assert_eq!(want.as_ref().unwrap().row(0).get(0), &Value::Double(0.25));
    for workers in [1, 2, 8] {
        let mut pc = PirCounters::default();
        let got = execute_aggregate_parts(
            &parts,
            &[],
            &None,
            &aggs,
            &out,
            workers,
            None,
            Some(&mut pc),
        )
        .map(|(batch, _)| batch);
        same(&want, &got, &format!("{workers} workers"));
        assert_eq!(
            (pc.compiled_stages, pc.fallback_rows),
            (1, 0),
            "{workers} workers"
        );
    }
}
