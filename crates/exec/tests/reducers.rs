//! The semijoin reducer's key set ([`RuntimeFilter`]) against the join's
//! own key equality — a semi join of the probe rows against the build
//! keys is the reference:
//!
//! * a row the filter drops has no join partner, for every probe ×
//!   build representation pair, with NULLs on both sides, through `All`
//!   and `Idx` selections (ascending and not);
//! * the dense arm keeps exactly the rows that have one;
//! * the hashed arm passes at most 2 % of 100 000 absent keys;
//! * a scan that checks its reducers inside the morsel workers keeps the
//!   same rows by its parts route (an aggregate's input) as by its
//!   assembled one, at 1 and 2 workers, compiled and row-mode filters.
//!
//! Random columns of every `ColumnVector` variant come from a seeded
//! generator.

use hive_common::{
    BitSet, ColumnVector, DataType, Field, HiveConf, Schema, SelVec, Value, VectorBatch,
};
use hive_corc::{CorcWriter, KeyFilter, WriterOptions};
use hive_dfs::{DfsPath, DistFs};
use hive_exec::join::execute_join;
use hive_exec::runtime_filter::RuntimeFilter;
use hive_exec::{execute, ExecContext, WideOpenSnapshots};
use hive_metastore::{Metastore, TableBuilder};
use hive_optimizer::plan::{JoinType, LogicalPlan, ScanTable, SemiJoinFilterSpec};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use hive_sql::BinaryOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

const VARIANTS: usize = 10;

/// A column of `n` rows of the `variant`-th representation, values from
/// a small domain (so builds and probes overlap), about one NULL in six.
/// Variant 9 is BIGINT spread far wider than 16 bits a key: the hashed
/// arm of an integer build.
fn random_column(rng: &mut StdRng, variant: usize, n: usize) -> ColumnVector {
    let nulls = if rng.gen_bool(0.8) {
        let mut bits = BitSet::new(n);
        (0..n)
            .filter(|_| rng.gen_bool(0.16))
            .for_each(|i| bits.set(i));
        Some(bits)
    } else {
        None
    };
    let mut ints = |lo: i64, hi: i64| (0..n).map(|_| rng.gen_range(lo..hi)).collect::<Vec<_>>();
    let name = |i: i64| format!("brand #{i}");
    match variant {
        0 => ColumnVector::Boolean(ints(0, 2).iter().map(|&v| v == 1).collect(), nulls),
        1 => ColumnVector::Int(ints(-40, 40).iter().map(|&v| v as i32).collect(), nulls),
        2 => ColumnVector::BigInt(ints(-40, 40), nulls),
        3 => ColumnVector::Double(
            ints(-40, 40).iter().map(|&v| v as f64 / 2.0).collect(),
            nulls,
        ),
        4 => ColumnVector::Decimal(
            ints(-400, 400).iter().map(|&v| v as i128).collect(),
            1,
            nulls,
        ),
        5 => ColumnVector::Str(ints(0, 30).iter().map(|&v| name(v)).collect(), nulls),
        6 => ColumnVector::Dict {
            codes: ints(0, 24).iter().map(|&v| v as u32).collect(),
            // Some entries never referenced, some duplicated.
            dict: Arc::new((0..24).map(|i| name(i % 20)).collect()),
            nulls,
        },
        // Day 0 is the epoch, join-equal to TIMESTAMP 0.
        7 => ColumnVector::Date(ints(-40, 40).iter().map(|&v| v as i32).collect(), nulls),
        8 => ColumnVector::Timestamp(ints(-40, 40), nulls),
        _ => ColumnVector::BigInt(
            ints(-40, 40).iter().map(|&v| v * 1_000_000_007).collect(),
            nulls,
        ),
    }
}

fn batch_of(col: ColumnVector) -> VectorBatch {
    let schema = Schema::new(vec![Field::new("k", col.data_type())]);
    VectorBatch::new(schema, vec![col]).unwrap()
}

/// Which probe rows have a partner among the build keys: the rows a semi
/// join of `(probe key, row number)` against `build` returns.
fn partners(probe: &ColumnVector, build: &ColumnVector) -> Vec<bool> {
    let n = probe.len();
    let left = VectorBatch::new(
        Schema::new(vec![
            Field::new("k", probe.data_type()),
            Field::new("row", DataType::Int),
        ]),
        vec![
            probe.clone(),
            ColumnVector::Int((0..n as i32).collect(), None),
        ],
    )
    .unwrap();
    let equi = [(ScalarExpr::Column(0), ScalarExpr::Column(0))];
    let out = execute_join(
        &left,
        &batch_of(build.clone()),
        JoinType::Semi,
        &equi,
        &None,
        left.schema(),
        usize::MAX,
    )
    .unwrap();
    let mut has = vec![false; n];
    for i in 0..out.num_rows() {
        match out.column(1).get(i) {
            Value::Int(r) => has[r as usize] = true,
            v => panic!("row number {v:?}"),
        }
    }
    has
}

#[test]
fn a_dropped_row_has_no_join_partner_and_the_dense_arm_drops_every_other() {
    let mut rng = StdRng::seed_from_u64(0x5E31_2028);
    let (mut kept, mut exact, mut hashed) = (0usize, 0usize, 0usize);
    for round in 0..VARIANTS * VARIANTS * 6 {
        let (probe_variant, build_variant) = (round % VARIANTS, (round / VARIANTS) % VARIANTS);
        let what = format!("probe {probe_variant} build {build_variant}");
        let n = rng.gen_range(0..60);
        let build = random_column(&mut rng, build_variant, n);
        let probe = random_column(&mut rng, probe_variant, 300);
        let has = partners(&probe, &build);
        let Some(filter) = RuntimeFilter::build(&build) else {
            assert!(!has.contains(&true), "{what}: no build key, yet a partner");
            continue;
        };
        if filter.is_exact() {
            exact += 1;
        } else {
            hashed += 1;
        }
        for (r, _) in has.iter().enumerate().filter(|(_, &h)| h) {
            assert!(filter.might_contain(&probe.get(r)), "{what}: row {r}");
        }
        let idx: Vec<u32> = (0..300).filter(|_| rng.gen_bool(0.7)).collect();
        let reversed: Vec<u32> = idx.iter().rev().copied().collect();
        for sel in [SelVec::All(300), SelVec::Idx(idx), SelVec::Idx(reversed)] {
            let before: Vec<usize> = sel.iter().collect();
            let after: Vec<usize> = filter.retain(&probe, sel).iter().collect();
            // The survivors, in selection order.
            let mut rest = after.iter().peekable();
            for &r in &before {
                if rest.next_if_eq(&&r).is_none() {
                    assert!(!has[r], "{what}: row {r} dropped, but it has a partner");
                }
            }
            assert!(
                rest.next().is_none(),
                "{what}: kept {after:?} of {before:?}"
            );
            if filter.is_exact() {
                let want: Vec<usize> = before.iter().copied().filter(|&r| has[r]).collect();
                assert_eq!(after, want, "{what}: the dense arm is exact");
            }
            kept += after.len();
        }
    }
    assert!(
        kept > 5_000 && exact > 50 && hashed > 50,
        "the generator stopped covering both arms: kept {kept}, exact {exact}, hashed {hashed}"
    );
}

#[test]
fn the_hashed_arm_passes_at_most_two_percent_of_absent_keys() {
    let absent = 100_000;
    let fp_rate = |build: ColumnVector, probe: ColumnVector| {
        let f = RuntimeFilter::build(&build).unwrap();
        assert!(!f.is_exact());
        f.retain(&probe, SelVec::All(absent)).len() as f64 / absent as f64
    };
    // 1 000 BIGINT keys over a span of 10⁹ (too wide for the dense arm):
    // absent keys inside the same span.
    let keys: Vec<i64> = (0..1_000).map(|i| i * 1_000_003 + (i * i) % 977).collect();
    let set: HashSet<i64> = keys.iter().copied().collect();
    let probe: Vec<i64> = (0..)
        .map(|i: i64| i * 9_973 + 1)
        .filter(|k| !set.contains(k))
        .take(absent)
        .collect();
    assert!(probe[absent - 1] < keys[999]);
    let rate = fp_rate(
        ColumnVector::BigInt(keys, None),
        ColumnVector::BigInt(probe, None),
    );
    assert!(rate <= 0.02, "BIGINT false-positive rate {rate}");
    let names = |r: std::ops::Range<usize>| r.map(|i| format!("customer#{i:09}")).collect();
    let rate = fp_rate(
        ColumnVector::Str(names(0..1_000), None),
        ColumnVector::Str(names(1_000..1_000 + absent), None),
    );
    assert!(rate <= 0.02, "STRING false-positive rate {rate}");
}

/// A table `default.fact (k INT, id INT)` of 6 000 rows in three files of
/// 256-row row groups; `k` scatters over `0..5 000`, `id` is the row
/// number.
fn fact_table(fs: &DistFs, ms: &Metastore) -> ScanTable {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("id", DataType::Int),
    ]);
    let table = TableBuilder::new("default", "fact", schema.clone()).build();
    let dir = DfsPath::new(&table.location);
    ms.create_table(table).unwrap();
    for file in 0..3 {
        let ids: Vec<i32> = (file * 2_000..(file + 1) * 2_000).collect();
        let keys = ids.iter().map(|&i| i * 7_919 % 5_000).collect();
        let batch = VectorBatch::new(
            schema.clone(),
            vec![ColumnVector::Int(keys, None), ColumnVector::Int(ids, None)],
        )
        .unwrap();
        let mut w = CorcWriter::new(
            schema.clone(),
            WriterOptions {
                row_group_size: 256,
                ..Default::default()
            },
        )
        .unwrap();
        w.write_batch(&batch).unwrap();
        fs.create(&dir.child(format!("f{file}")), w.finish().unwrap())
            .unwrap();
    }
    ScanTable {
        qualified_name: "default.fact".into(),
        db: "default".into(),
        name: "fact".into(),
        schema,
        partition_cols: vec![],
        handler: None,
        acid: false,
        is_mv: false,
        external_query: None,
        external_source: None,
        row_ids: false,
    }
}

/// `(k, id)` of every row of `b` whose first two columns are `cols`.
fn pairs(b: &VectorBatch, cols: [usize; 2]) -> Vec<(Value, Value)> {
    (0..b.num_rows())
        .map(|i| (b.column(cols[0]).get(i), b.column(cols[1]).get(i)))
        .collect()
}

#[test]
fn the_parts_route_keeps_the_rows_of_the_assembled_route() {
    let (fs, ms) = (DistFs::new(), Metastore::new());
    let table = fact_table(&fs, &ms);
    let build_keys = |keys: &[i32]| {
        Arc::new(LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("b", DataType::Int)]),
            rows: keys.iter().map(|&k| vec![Value::Int(k)]).collect(),
        })
    };
    // Dense: every seventh key below 3 000. Hashed: a span past 65 536
    // bits over a few keys.
    let dense: Vec<i32> = (0..3_000).step_by(7).collect();
    let sparse = [3, 1_200, 4_999, 100_000];
    for keys in [&dense[..], &sparse[..]] {
        let scan = LogicalPlan::Scan {
            table: table.clone(),
            projection: vec![0, 1],
            filters: vec![ScalarExpr::Binary {
                op: BinaryOp::GtEq,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::Literal(Value::Int(700))),
            }],
            partitions: None,
            semijoin_filters: vec![SemiJoinFilterSpec {
                source: build_keys(keys),
                source_key: 0,
                target_col: 0,
                is_partition_col: false,
            }],
        };
        // Grouping by the row number keeps one group per row, in
        // first-seen order: the scan's row order.
        let by_parts = LogicalPlan::Aggregate {
            input: Arc::new(scan.clone()),
            group_exprs: vec![ScalarExpr::Column(1), ScalarExpr::Column(0)],
            grouping_sets: None,
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
        };
        let set: HashSet<i32> = keys.iter().copied().collect();
        let matching: Vec<i32> = (700..6_000i32)
            .filter(|&i| set.contains(&(i * 7_919 % 5_000)))
            .collect();
        for (threads, vectorized) in [(1, true), (2, true), (1, false), (2, false)] {
            let conf = HiveConf::v3_1().with(|c| {
                c.parallel_threads = threads;
                c.vectorized = vectorized;
                c.results_cache = false;
            });
            let snaps = WideOpenSnapshots(&ms);
            let ctx = ExecContext::new(&fs, &ms, &conf, None, &snaps, None);
            let whole = pairs(&execute(&scan, &ctx).unwrap().0, [0, 1]);
            let parts = pairs(&execute(&by_parts, &ctx).unwrap().0, [1, 0]);
            assert_eq!(parts, whole, "{} keys, {threads} workers", keys.len());
            let ids: Vec<i32> = whole
                .iter()
                .map(|(_, id)| match id {
                    Value::Int(id) => *id,
                    v => panic!("id {v:?}"),
                })
                .collect();
            if keys.len() == dense.len() {
                assert_eq!(ids, matching, "the dense arm keeps exactly the matches");
            } else {
                assert!(matching.iter().all(|m| ids.contains(m)), "a match dropped");
            }
        }
    }
}
