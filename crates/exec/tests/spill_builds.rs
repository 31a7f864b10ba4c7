//! Property test: **a spilled build is the in-memory build.** Under a
//! budget that drives the grace join and the spilled GROUP BY at least
//! two levels down the spill recursion, every result is byte-identical
//! to the unbudgeted build's — for keys of every representation
//! (`INT`, `BIGINT`, `DOUBLE` with `NaN` and both zeros, `DECIMAL`,
//! dictionary and plain strings), with NULLs and, in some cases, one
//! hot key that no re-partitioning separates; for every join type with
//! and without a residual; and for every aggregate function, DISTINCT,
//! `STDDEV_SAMP` and grouping sets among them.

use hive_common::{BitSet, ColumnVector, DataType, Field, Schema, SelBatch, Value, VectorBatch};
use hive_dfs::{DfsPath, DistFs};
use hive_exec::aggregate::execute_aggregate_parts;
use hive_exec::join::execute_join_parts;
use hive_exec::pir::PirCounters;
use hive_exec::{MemoryBroker, SpillCtx};
use hive_optimizer::plan::{JoinType, LogicalPlan};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use hive_sql::BinaryOp;
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A per-query budget whose working chunk is the broker's minimum: a
/// few thousand build rows or a few hundred groups split twice.
const BUDGET: u64 = 8 * 1024;

const JOIN_TYPES: [JoinType; 6] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Right,
    JoinType::Full,
    JoinType::Semi,
    JoinType::Anti,
];

/// splitmix64: the cases are a pure function of the proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Key representations: INT, BIGINT, DOUBLE, DECIMAL, dictionary
/// strings, plain strings.
const KINDS: usize = 6;

fn key_type(kind: usize) -> DataType {
    match kind {
        0 => DataType::Int,
        1 => DataType::BigInt,
        2 => DataType::Double,
        3 => DataType::Decimal(18, 2),
        _ => DataType::String,
    }
}

/// A key column of `n` rows over `card` distinct values — a sixth of
/// the rows NULL, and with `hot` half of them one value.
fn key_column(rng: &mut Rng, kind: usize, n: usize, card: usize, hot: bool) -> ColumnVector {
    let picks: Vec<Option<usize>> = (0..n)
        .map(|_| match rng.below(12) {
            0 | 1 => None,
            r if hot && r < 8 => Some(0),
            _ => Some(rng.below(card)),
        })
        .collect();
    let values: Vec<Value> = (picks.iter())
        .map(|p| match (p, kind) {
            (None, _) => Value::Null,
            (Some(v), 0) => Value::Int(*v as i32 - 3),
            (Some(v), 1) => Value::BigInt([*v as i64, i64::MAX - *v as i64][v % 2]),
            // NaN, -0.0 and 0.0 are three of the values.
            (Some(v), 2) => Value::Double(
                [f64::NAN, -0.0, 0.0]
                    .get(*v)
                    .map_or(*v as f64 * 0.5, |&d| d),
            ),
            (Some(v), 3) => Value::Decimal(*v as i128 * 125 - 300, 2),
            (Some(v), _) => Value::String(format!("k{v}")),
        })
        .collect();
    if kind != 4 {
        return ColumnVector::from_values(&values, &key_type(kind)).unwrap();
    }
    let mut nulls = BitSet::new(n);
    let codes = (picks.iter().enumerate())
        .map(|(i, p)| {
            if p.is_none() {
                nulls.set(i);
            }
            p.unwrap_or(0) as u32
        })
        .collect();
    let dict = (0..card).map(|v| format!("k{v}")).collect();
    ColumnVector::dict_from_codes(codes, Arc::new(dict), Some(nulls)).unwrap()
}

/// A batch of `keys` then three value columns: `v_int`, `v_dbl`
/// (`NaN`, both zeros) and `v_dec`.
fn batch(rng: &mut Rng, prefix: &str, keys: Vec<ColumnVector>) -> VectorBatch {
    let n = keys.first().map_or(0, ColumnVector::len);
    let mut fields: Vec<Field> = (keys.iter().enumerate())
        .map(|(k, c)| Field::new(format!("{prefix}_k{k}"), c.data_type()))
        .collect();
    let mut cols = keys;
    let mut value = |f: &mut dyn FnMut(&mut Rng) -> Value, dt: DataType, name: &str| {
        let vals: Vec<Value> = (0..n)
            .map(|_| match rng.below(9) {
                0 => Value::Null,
                _ => f(rng),
            })
            .collect();
        cols.push(ColumnVector::from_values(&vals, &dt).unwrap());
        fields.push(Field::new(format!("{prefix}_{name}"), dt));
    };
    value(
        &mut |r| Value::Int(r.below(200) as i32 - 100),
        DataType::Int,
        "v_int",
    );
    value(
        &mut |r| match r.below(8) {
            0 => Value::Double(f64::NAN),
            1 => Value::Double(-0.0),
            2 => Value::Double(0.0),
            _ => Value::Double(r.below(1000) as f64 * 0.37 - 100.0),
        },
        DataType::Double,
        "v_dbl",
    );
    value(
        &mut |r| Value::Decimal(r.below(100_000) as i128 - 50_000, 2),
        DataType::Decimal(18, 2),
        "v_dec",
    );
    VectorBatch::new(Schema::new(fields), cols).unwrap()
}

/// A batch's bytes: its columns' representations and values, with every
/// `DOUBLE` by bit pattern.
fn bytes(b: &VectorBatch) -> String {
    let doubles: Vec<Vec<u64>> = (b.columns().iter())
        .filter_map(|c| match &**c {
            ColumnVector::Double(v, _) => Some(v.iter().map(|f| f.to_bits()).collect()),
            _ => None,
        })
        .collect();
    format!("{b:?} {doubles:?}")
}

fn spill_ctx<'a>(fs: &'a DistFs, broker: &'a MemoryBroker, ops: &'a AtomicU64) -> SpillCtx<'a> {
    SpillCtx::new(fs, DfsPath::new("/tmp/spill/q"), broker, true, ops)
}

/// Every aggregate over one value column, with and without DISTINCT,
/// plus `COUNT(*)`.
fn all_aggs(col: usize) -> Vec<AggExpr> {
    let mut aggs = vec![AggExpr {
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
        for distinct in [false, true] {
            aggs.push(AggExpr {
                func,
                arg: Some(ScalarExpr::Column(col)),
                distinct,
            });
        }
    }
    aggs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The grace join = the in-memory join, every join type, with and
    /// without a residual (`l.v_int < r.v_int`).
    fn grace_join_is_the_in_memory_join(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (nl, nr) = (300 + rng.below(500), 2_500 + rng.below(1_000));
        let nkeys = 1 + rng.below(2);
        let hot = rng.below(2) == 0;
        let (mut lkeys, mut rkeys) = (Vec::new(), Vec::new());
        for _ in 0..nkeys {
            let kind = rng.below(KINDS);
            // Strings meet across representations: dictionary × plain.
            let rkind = if kind >= 4 { 4 + rng.below(2) } else { kind };
            let card = 4 + rng.below(400);
            lkeys.push(key_column(&mut rng, kind, nl, card, hot));
            rkeys.push(key_column(&mut rng, rkind, nr, card, hot));
        }
        let (l, r) = (batch(&mut rng, "l", lkeys), batch(&mut rng, "r", rkeys));
        let (l, r) = (SelBatch::from_batch(l), SelBatch::from_batch(r));
        let equi: Vec<(ScalarExpr, ScalarExpr)> =
            (0..nkeys).map(|k| (ScalarExpr::Column(k), ScalarExpr::Column(k))).collect();
        let lw = l.batch.num_columns();
        let less = ScalarExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(ScalarExpr::Column(nkeys)),
            right: Box::new(ScalarExpr::Column(lw + nkeys)),
        };
        for jt in JOIN_TYPES {
            let out_schema = if jt.keeps_right() {
                l.batch.schema().join(r.batch.schema())
            } else {
                l.batch.schema().clone()
            };
            for residual in [None, Some(less.clone())] {
                let join = |spill: Option<&SpillCtx<'_>>, workers: usize| {
                    let mut pc = PirCounters::default();
                    let out = execute_join_parts(
                        std::slice::from_ref(&l), &r, jt, &equi, &residual, &out_schema, usize::MAX,
                        workers, spill, Some(&mut pc),
                    );
                    out.and_then(|(parts, _)| VectorBatch::concat_selected(&out_schema, &parts))
                        .map(|o| bytes(&o))
                };
                let want = join(None, 1).unwrap();
                let (fs, broker, ops) = (DistFs::new(), MemoryBroker::with_budget(BUDGET), AtomicU64::new(0));
                let sp = spill_ctx(&fs, &broker, &ops);
                let got = join(Some(&sp), 2).unwrap();
                let ctx = format!("{jt:?}, {nkeys} keys, hot={hot}, residual={}", residual.is_some());
                prop_assert!(got == want, "{}: the grace join diverged", ctx);
                // Every position is written once per level it is split
                // at: more than once over means a second level.
                prop_assert!(
                    sp.stats.bytes_written() > 4 * (nl + nr) as u64,
                    "{}: {} bytes spilled, depth < 2", ctx, sp.stats.bytes_written()
                );
                prop_assert!(fs.list_files_recursive(&DfsPath::new("/tmp/spill")).is_empty());
            }
        }
    }

    /// The spilled GROUP BY = the in-memory one: every function, with
    /// DISTINCT, over INT, DOUBLE or DECIMAL arguments; one key, two
    /// keys, or grouping sets.
    fn spilled_aggregate_is_the_in_memory_aggregate(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = 600 + rng.below(900);
        let hot = rng.below(2) == 0;
        let keys: Vec<ColumnVector> = (0..2)
            .map(|_| {
                let (kind, card) = (rng.below(KINDS), 4 + rng.below(600));
                key_column(&mut rng, kind, n, card, hot)
            })
            .collect();
        let input = SelBatch::from_batch(batch(&mut rng, "t", keys));
        let (groups, sets) = match rng.below(3) {
            0 => (vec![ScalarExpr::Column(0)], None),
            1 => (vec![ScalarExpr::Column(0), ScalarExpr::Column(1)], None),
            _ => (
                vec![ScalarExpr::Column(0), ScalarExpr::Column(1)],
                Some(vec![vec![0, 1], vec![1], vec![]]),
            ),
        };
        let nsets = sets.as_ref().map_or(1, Vec::len);
        let aggs = all_aggs(2 + rng.below(3));
        // All of them, then the compilable ones alone: STDDEV_SAMP keeps
        // the whole build on the interpreter's rows.
        let compiled: Vec<AggExpr> =
            aggs.iter().filter(|a| a.func != AggFunc::StddevSamp).cloned().collect();
        for aggs in [aggs, compiled] {
            let out_schema = LogicalPlan::Aggregate {
                input: Arc::new(LogicalPlan::Values {
                    schema: input.batch.schema().clone(),
                    rows: vec![],
                }),
                group_exprs: groups.clone(),
                grouping_sets: sets.clone(),
                aggs: aggs.clone(),
            }
            .schema();
            let aggregate = |spill: Option<&SpillCtx<'_>>, workers: usize| {
                let mut pc = PirCounters::default();
                let out = execute_aggregate_parts(
                    std::slice::from_ref(&input), &groups, &sets, &aggs, &out_schema, workers, spill, Some(&mut pc),
                )
        .map(|(batch, _)| batch);
                out.map(|o| (bytes(&o), pc.compiled_stages, pc.fallback_rows))
            };
            let want = aggregate(None, 1).unwrap();
            let (fs, broker, ops) = (DistFs::new(), MemoryBroker::with_budget(BUDGET), AtomicU64::new(0));
            let sp = spill_ctx(&fs, &broker, &ops);
            let got = aggregate(Some(&sp), 2).unwrap();
            let ctx = format!("{} aggs, sets {sets:?}, hot={hot}", aggs.len());
            prop_assert!(got.0 == want.0, "{}: the spilled build diverged", ctx);
            prop_assert_eq!((got.1, got.2), (want.1, want.2), "{}: counters", ctx);
            prop_assert!(
                sp.stats.bytes_written() > 4 * (n * nsets) as u64,
                "{}: {} bytes spilled, depth < 2", ctx, sp.stats.bytes_written()
            );
        }
    }
}
