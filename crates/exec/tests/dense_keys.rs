//! The dense kind of the key layer against a reference that shares no
//! key code with it.
//!
//! The row interpreter groups through the same `Grouper` as the
//! vectorized engine, so a differential run cannot see a wrong slot. The
//! reference here is a brute-force first-seen linear search over rows as
//! `Vec<Value>`, cells compared with `Value::group_eq` (NULL meets NULL):
//! no encoding, no hash, no slot. Over seeded columns — multi-column INT
//! keys with negative values and the `i32` extremes, BIGINT, DATE,
//! dictionaries with NULLs, a dictionary with a duplicate entry, an
//! all-NULL column — the group ids, first rows and partitioned routing
//! must be the reference's; spans exactly at the size rule take the dense
//! kind and one slot past it do not; a set operation's table covers an
//! input wider than the other on either side; and COUNT / SUM (DISTINCT)
//! over a narrow and a wide span return the reference's values at 1, 2
//! and 8 workers, with the aggregate's profile naming the index each
//! took.

use hive_common::{
    BitSet, ColumnVector, DataType, Field, Schema, SelBatch, SelVec, Value, VectorBatch,
};
use hive_exec::aggregate::execute_aggregate_parts;
use hive_exec::keys::{partition, Grouper, IndexKind, KeySide, Shape};
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// First-seen group ids and each group's first position, by linear
/// search over the rows' values.
fn brute_groups(rows: &[Vec<Value>]) -> (Vec<u32>, Vec<usize>) {
    let mut keys: Vec<&Vec<Value>> = Vec::new();
    let (mut ids, mut firsts) = (Vec::new(), Vec::new());
    for (pos, row) in rows.iter().enumerate() {
        let same = |k: &&Vec<Value>| k.iter().zip(row).all(|(a, b)| a.group_eq(b));
        let g = keys.iter().position(same).unwrap_or_else(|| {
            keys.push(row);
            firsts.push(pos);
            keys.len() - 1
        });
        ids.push(g as u32);
    }
    (ids, firsts)
}

/// The selected rows of `cols`, as values.
fn value_rows(cols: &[&ColumnVector], sel: &SelVec) -> Vec<Vec<Value>> {
    sel.iter()
        .map(|i| cols.iter().map(|c| c.get(i)).collect())
        .collect()
}

/// Group ids and first positions through a table over `side`'s keys.
fn layer_groups(side: &KeySide, sel: &SelVec) -> (Vec<u32>, Vec<usize>) {
    let keys = side.keys(sel, 0, sel.len());
    let (mut ids, mut firsts) = (Vec::new(), Vec::new());
    Grouper::new(side, 1)
        .assign(&keys, None, |r, g, new| {
            if new {
                firsts.push(r);
            }
            ids.push(g);
        })
        .unwrap();
    (ids, firsts)
}

/// The side's kind over `sel`, after checking its group ids and first
/// rows against the reference — whole, and split into 2, 4 and 16
/// partitions, where each partition's local groups must be exactly the
/// reference groups routed to it.
fn check(cols: &[&ColumnVector], sel: &SelVec, what: &str) -> Shape {
    let side = KeySide::group(cols).dense_over(sel);
    let want = brute_groups(&value_rows(cols, sel));
    assert_eq!(layer_groups(&side, sel), want, "{what}: {:?}", side.shape());
    let keys = side.keys(sel, 0, sel.len());
    for nparts in [2, 4, 16] {
        let runs = partition(&keys, 0, nparts);
        // (partition, local id) of every reference group, once seen.
        let mut placed: Vec<Option<(usize, u32)>> = vec![None; want.1.len()];
        let mut routed = 0;
        for p in 0..nparts {
            let mut local = Grouper::new(&side, nparts);
            local
                .assign(&keys, Some(runs.run(p)), |r, g, _| {
                    routed += 1;
                    let at = &mut placed[want.0[r] as usize];
                    assert_eq!(
                        *at.get_or_insert((p, g)),
                        (p, g),
                        "{what}: row {r}, {nparts} parts"
                    );
                })
                .unwrap();
        }
        assert_eq!(routed, sel.len(), "{what}: every row routed once");
        let mut distinct = placed.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            placed.len(),
            "{what}: one local group per group"
        );
    }
    side.shape()
}

fn nulls_where(n: usize, null: impl Fn(usize) -> bool) -> Option<BitSet> {
    let mut b = BitSet::new(n);
    (0..n).filter(|&i| null(i)).for_each(|i| b.set(i));
    Some(b)
}

fn dict(
    n: usize,
    entries: &[&str],
    code: impl Fn(usize) -> u32,
    nulls: Option<BitSet>,
) -> ColumnVector {
    let entries = Arc::new(entries.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    ColumnVector::dict_from_codes((0..n).map(code).collect(), entries, nulls).unwrap()
}

/// A shuffled subset of `0..n`, or all of it.
fn selection(rng: &mut StdRng, n: usize) -> SelVec {
    if rng.gen_range(0..2) == 0 {
        return SelVec::all(n);
    }
    let mut idx: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..3) > 0).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    SelVec::Idx(idx)
}

#[test]
fn group_ids_and_first_rows_equal_the_linear_search() {
    let mut rng = StdRng::seed_from_u64(0xD3E5);
    let n = 600;
    let pick = |rng: &mut StdRng, vals: &[i32]| -> Vec<i32> {
        (0..n).map(|_| vals[rng.gen_range(0..vals.len())]).collect()
    };
    let negative = ColumnVector::Int(pick(&mut rng, &[-7, -3, -1, 0, 2, 5]), None);
    let low = ColumnVector::Int(
        pick(&mut rng, &[i32::MIN, i32::MIN + 1, i32::MIN + 9]),
        None,
    );
    let high = ColumnVector::Int(
        pick(&mut rng, &[i32::MAX, i32::MAX - 4, i32::MAX - 1]),
        None,
    );
    let extremes = ColumnVector::Int(pick(&mut rng, &[i32::MIN, -1, 0, i32::MAX]), None);
    let nullable = ColumnVector::Int(pick(&mut rng, &[-2, 0, 3]), nulls_where(n, |i| i % 7 == 0));
    let big = ColumnVector::BigInt(
        (0..n)
            .map(|i| (1i64 << 40) + (i as i64 * 37 % 50) - 25)
            .collect(),
        nulls_where(n, |i| i % 11 == 3),
    );
    let date = ColumnVector::Date(
        (0..n as i32).map(|i| 18_000 + i * 13 % 40 - 20).collect(),
        None,
    );
    let words = ["ant", "bee", "cat", "dog"];
    let codes = dict(
        n,
        &words,
        |i| (i * 7 % 4) as u32,
        nulls_where(n, |i| i % 5 == 1),
    );
    let plain_codes = dict(n, &words, |i| (i % 3) as u32, None);
    let dups = dict(n, &["x", "y", "x"], |i| (i % 3) as u32, None);
    let all_null = ColumnVector::Int(vec![0; n], nulls_where(n, |_| true));
    let bools = ColumnVector::Boolean(
        (0..n).map(|i| i % 3 == 0).collect(),
        nulls_where(n, |i| i % 4 == 0),
    );

    type Case<'a> = (&'static str, Vec<&'a ColumnVector>, bool);
    let cases: Vec<Case> = vec![
        (
            "negative INT × nullable INT",
            vec![&negative, &nullable],
            true,
        ),
        (
            "INT near i32::MIN × INT near i32::MAX",
            vec![&low, &high],
            true,
        ),
        ("INT over both extremes", vec![&extremes], false),
        (
            "INT × INT over both extremes",
            vec![&negative, &extremes],
            false,
        ),
        ("BIGINT past i32 × DATE", vec![&big, &date], true),
        (
            "dictionary with NULLs × dictionary",
            vec![&codes, &plain_codes],
            true,
        ),
        (
            "dictionary × BOOLEAN with NULLs × INT",
            vec![&codes, &bools, &negative],
            true,
        ),
        ("duplicate-entry dictionary", vec![&dups], false),
        (
            "duplicate-entry dictionary × INT",
            vec![&dups, &negative],
            false,
        ),
        (
            "all-NULL column × dictionary",
            vec![&all_null, &codes],
            true,
        ),
        ("all-NULL column", vec![&all_null], true),
    ];
    for (what, cols, dense) in &cases {
        for _ in 0..4 {
            let sel = selection(&mut rng, n);
            let shape = check(cols, &sel, what);
            assert_eq!(shape == Shape::Dense, *dense, "{what}: {shape:?}");
        }
        // No rows at all.
        check(cols, &SelVec::Idx(Vec::new()), what);
    }
}

#[test]
fn spans_at_the_size_rule_are_dense_and_one_slot_past_are_not() {
    // 100 rows: the rule's floor, 65 536 slots.
    let n = 100;
    let ints = |top: i32, nulls: bool| {
        let vals = (0..n).map(|i| if i % 2 == 0 { 0 } else { top }).collect();
        ColumnVector::Int(
            vals,
            if nulls {
                nulls_where(n as usize, |i| i % 5 == 0)
            } else {
                None
            },
        )
    };
    let sel = SelVec::all(n as usize);
    let shape = |cols: &[&ColumnVector]| check(cols, &sel, "size rule");
    assert_eq!(shape(&[&ints(65_535, false)]), Shape::Dense);
    assert_eq!(shape(&[&ints(65_536, false)]), Shape::W64);
    // A nullable column's NULL slot counts.
    assert_eq!(shape(&[&ints(65_534, true)]), Shape::Dense);
    assert_eq!(shape(&[&ints(65_535, true)]), Shape::W64);
    // The product of the spans: 256 × 256 fits, 256 × 257 does not.
    assert_eq!(shape(&[&ints(255, false), &ints(255, false)]), Shape::Dense);
    assert_eq!(shape(&[&ints(255, false), &ints(256, false)]), Shape::W64);
    // Past the floor the rule is four slots a row.
    let rows = 20_000usize;
    let spread = |top: i32| {
        ColumnVector::Int(
            (0..rows as i32)
                .map(|i| i * top / (rows as i32 - 1))
                .collect(),
            None,
        )
    };
    let all = SelVec::all(rows);
    assert_eq!(
        check(&[&spread(4 * rows as i32 - 1)], &all, "4 × rows"),
        Shape::Dense
    );
    assert_eq!(
        check(&[&spread(4 * rows as i32)], &all, "4 × rows + 1"),
        Shape::W64
    );
}

#[test]
fn a_set_operation_keys_both_inputs_over_one_span() {
    // One input spans far wider than the other — the left, then the
    // right: either side's range alone would misplace the other's values.
    let (nl, nr) = (700usize, 90usize);
    let left = ColumnVector::Int((0..nl as i32).map(|i| i * 37 % 1001 - 500).collect(), None);
    let right = ColumnVector::Int(
        (0..nr as i32).map(|i| i % 11).collect(),
        nulls_where(nr, |i| i % 9 == 0),
    );
    let ltag = dict(nl, &["p", "q"], |i| (i % 2) as u32, None);
    let rtag = match &ltag {
        ColumnVector::Dict { dict: d, .. } => {
            ColumnVector::dict_from_codes((0..nr as u32).map(|i| i % 2).collect(), d.clone(), None)
                .unwrap()
        }
        _ => unreachable!(),
    };
    let (wide, narrow) = ((vec![&left], nl), (vec![&right], nr));
    let (wide2, narrow2) = ((vec![&ltag, &left], nl), (vec![&rtag, &right], nr));
    for ((lcols, nl), (rcols, nr)) in [
        (wide.clone(), narrow.clone()),
        (narrow, wide),
        (wide2.clone(), narrow2.clone()),
        (narrow2, wide2),
    ] {
        let (lside, rside) = KeySide::group_pair(&lcols, &rcols);
        assert_eq!(
            (lside.kind(), rside.kind()),
            (IndexKind::Dense, IndexKind::Dense)
        );
        // One table, the right input first, as the set operation runs.
        let mut groups = Grouper::new(&lside, 1);
        let mut ids = Vec::new();
        for (side, n) in [(&rside, nr), (&lside, nl)] {
            let keys = side.keys(&SelVec::all(n), 0, n);
            groups.assign(&keys, None, |_, g, _| ids.push(g)).unwrap();
        }
        let mut rows = value_rows(&rcols, &SelVec::all(nr));
        rows.extend(value_rows(&lcols, &SelVec::all(nl)));
        assert_eq!(ids, brute_groups(&rows).0);
    }
}

/// COUNT(DISTINCT v), SUM(DISTINCT v) per group, by linear search: the
/// groups in first-seen order and each group's distinct non-NULL values.
fn brute_distinct(keys: &[Value], vals: &[Value]) -> Vec<String> {
    let (ids, firsts) = brute_groups(&keys.iter().map(|k| vec![k.clone()]).collect::<Vec<_>>());
    let mut seen: Vec<Vec<Value>> = vec![Vec::new(); firsts.len()];
    for (g, v) in ids.iter().zip(vals) {
        let set = &mut seen[*g as usize];
        if !v.is_null() && !set.iter().any(|s| s.group_eq(v)) {
            set.push(v.clone());
        }
    }
    (firsts.iter().zip(&seen))
        .map(|(&pos, set)| {
            let sum = set.iter().fold(None, |acc: Option<Value>, v| {
                Some(acc.map_or(v.clone(), |a| a.add(v).unwrap()))
            });
            format!(
                "{}\t{}\t{}",
                keys[pos],
                set.len(),
                sum.unwrap_or(Value::Null)
            )
        })
        .collect()
}

#[test]
fn distinct_aggregates_over_narrow_and_wide_spans_equal_the_linear_search() {
    let rows = 20_000usize;
    let schema = Schema::new(vec![
        Field::new("g", DataType::String),
        Field::new("narrow", DataType::Int),
        Field::new("wide", DataType::BigInt),
    ]);
    let g = dict(
        rows,
        &["a", "b", "c", "d"],
        |i| (i * 7 % 4) as u32,
        nulls_where(rows, |i| i % 97 == 0),
    );
    let narrow = ColumnVector::Int(
        (0..rows as i32).map(|i| i * 31 % 57 - 20).collect(),
        nulls_where(rows, |i| i % 13 == 0),
    );
    let wide = ColumnVector::BigInt(
        (0..rows as i64).map(|i| (i * 7 % 300) << 33).collect(),
        None,
    );
    let batch = VectorBatch::new(schema.clone(), vec![g, narrow, wide]).unwrap();
    let part = SelBatch::from_batch(batch.clone());
    for (col, kind) in [(1, IndexKind::Dense), (2, IndexKind::Hashed)] {
        let aggs: Vec<AggExpr> = [AggFunc::Count, AggFunc::Sum]
            .into_iter()
            .map(|func| AggExpr {
                func,
                arg: Some(ScalarExpr::Column(col)),
                distinct: true,
            })
            .collect();
        let vals: Vec<Value> = (0..rows).map(|i| batch.column(col).get(i)).collect();
        for grouped in [true, false] {
            let groups = if grouped {
                vec![ScalarExpr::Column(0)]
            } else {
                vec![]
            };
            let out = LogicalPlan::Aggregate {
                input: Arc::new(LogicalPlan::Values {
                    schema: schema.clone(),
                    rows: vec![],
                }),
                group_exprs: groups.clone(),
                grouping_sets: None,
                aggs: aggs.clone(),
            }
            .schema();
            let keys: Vec<Value> = (0..rows)
                .map(|i| {
                    if grouped {
                        batch.column(0).get(i)
                    } else {
                        Value::Null
                    }
                })
                .collect();
            let mut want = brute_distinct(&keys, &vals);
            if !grouped {
                want = want
                    .iter()
                    .map(|r| r.split_once('\t').unwrap().1.to_string())
                    .collect();
            }
            for workers in [1, 2, 8] {
                let mut pc = hive_exec::pir::PirCounters::default();
                let (got, profile) = execute_aggregate_parts(
                    std::slice::from_ref(&part),
                    &groups,
                    &None,
                    &aggs,
                    &out,
                    workers,
                    None,
                    Some(&mut pc),
                )
                .unwrap();
                let got: Vec<String> = got.to_rows().iter().map(|r| r.to_string()).collect();
                let what = format!("column {col}, grouped {grouped}, {workers} workers");
                assert_eq!(got, want, "{what}");
                let set = &profile.sets[0];
                assert_eq!(set.distinct, Some(kind), "{what}");
                let route = if grouped { "assembled" } else { "keyless" };
                assert_eq!(set.route, route, "{what}");
            }
        }
    }
}
