//! Flat-hash-table benchmark: the `hive.exec.rawtable.enabled` toggle
//! swaps every hash operator between the open-addressing [`RawTable`]
//! (fingerprint tags, arena keys, precomputed column-wise hashes) and
//! the legacy `HashMap`-of-owned-keys path. Both arms run the *same*
//! operator code through `execute_join_par` / `execute_aggregate_par`,
//! so the delta is the table representation alone.
//!
//! Cases:
//!
//! * **join_build** — build-heavy inner join: 400k-row build side with
//!   ~200k distinct keys, 20k-row probe side.
//! * **join_probe** — probe-heavy inner join: 2k-row build side, 600k
//!   probes at a ~50% hit rate.
//! * **groupby_highcard** — GROUP BY with ~200k distinct Int keys,
//!   COUNT(*) + SUM(Double).
//! * **groupby_lowcard** — the same aggregate over 8 groups (the regime
//!   where the table is tiny and the toggle must not regress).
//! * **distinct** — COUNT(DISTINCT x) + SUM(DISTINCT x) over 8 groups
//!   with ~100k distinct values per group set.
//!
//! Every case asserts byte-identical rows between the arms before
//! timing. Results (real host timings, not simulated cluster time)
//! land in `BENCH_hash.json` at the repo root.
//!
//! Run: `cargo bench -p hive-bench --bench hashtable` (or via
//! scripts/verify.sh; `HIVE_RAWTABLE_SWEEP=1` runs the test-suite
//! sweep first).

use hive_common::{ColumnVector, DataType, Field, Schema, SelBatch, VectorBatch};
use hive_exec::aggregate::execute_aggregate_par;
use hive_exec::join::execute_join_par;
use hive_optimizer::plan::{JoinType, LogicalPlan};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use std::sync::Arc;
use std::time::Instant;

const ITERS: usize = 7;
const ROWS: usize = 600_000;

/// Best-of-N wall-clock milliseconds (min is the stable statistic for
/// speedup comparisons on a shared host).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn rows_of(b: &VectorBatch) -> Vec<String> {
    b.to_rows().iter().map(|r| r.to_string()).collect()
}

/// Multiplicative scramble so adjacent rows do not hit adjacent keys.
fn scramble(i: usize, card: usize) -> i32 {
    ((i as u64).wrapping_mul(2654435761) % card as u64) as i32
}

fn int_col(vals: impl Iterator<Item = i32>) -> Arc<ColumnVector> {
    Arc::new(ColumnVector::Int(vals.collect(), None))
}

fn agg_schema(input: &Schema, groups: &[ScalarExpr], aggs: &[AggExpr]) -> Schema {
    LogicalPlan::Aggregate {
        input: Arc::new(LogicalPlan::Values {
            schema: input.clone(),
            rows: vec![],
        }),
        group_exprs: groups.to_vec(),
        grouping_sets: None,
        aggs: aggs.to_vec(),
    }
    .schema()
}

fn count_star() -> AggExpr {
    AggExpr {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
    }
}

fn sum(col: usize) -> AggExpr {
    AggExpr {
        func: AggFunc::Sum,
        arg: Some(ScalarExpr::Column(col)),
        distinct: false,
    }
}

/// Time `run(rawtable)` with the flat table on and off, asserting the
/// rows match first.
fn case(results: &mut Vec<(String, f64, f64)>, name: &str, run: impl Fn(bool) -> VectorBatch) {
    assert_eq!(
        rows_of(&run(true)),
        rows_of(&run(false)),
        "{name} diverged between rawtable settings"
    );
    let on = time_ms(|| {
        std::hint::black_box(run(true));
    });
    let off = time_ms(|| {
        std::hint::black_box(run(false));
    });
    eprintln!(
        "{name:<18} rawtable={on:8.2} ms  hashmap={off:8.2} ms  ({:.2}x)",
        off / on
    );
    results.push((name.to_string(), on, off));
}

/// A fact batch: group keys at two cardinalities, a join/distinct key,
/// and a Double payload.
fn fact_batch() -> VectorBatch {
    let schema = Schema::new(vec![
        Field::new("k_hi", DataType::Int),
        Field::new("k_lo", DataType::Int),
        Field::new("j", DataType::Int),
        Field::new("v", DataType::Double),
    ]);
    let cols = vec![
        int_col((0..ROWS).map(|i| scramble(i, 200_000))),
        int_col((0..ROWS).map(|i| (i % 8) as i32)),
        int_col((0..ROWS).map(|i| scramble(i, 400_000))),
        Arc::new(ColumnVector::Double(
            (0..ROWS).map(|i| (i % 1009) as f64 * 0.5).collect(),
            None,
        )),
    ];
    VectorBatch::from_arcs(schema, cols, ROWS).unwrap()
}

fn build_batch(rows: usize, card: usize) -> VectorBatch {
    let schema = Schema::new(vec![
        Field::new("b_j", DataType::Int),
        Field::new("b_v", DataType::Double),
    ]);
    let cols = vec![
        int_col((0..rows).map(|i| scramble(i, card))),
        Arc::new(ColumnVector::Double(
            (0..rows).map(|i| i as f64 * 2.0).collect(),
            None,
        )),
    ];
    VectorBatch::from_arcs(schema, cols, rows).unwrap()
}

fn join_case(
    fact: &VectorBatch,
    probe_rows: usize,
    build: &VectorBatch,
) -> impl Fn(bool) -> VectorBatch {
    let equi = vec![(ScalarExpr::Column(2), ScalarExpr::Column(0))];
    let join_out = {
        let mut fields = fact.schema().fields().to_vec();
        fields.extend(build.schema().fields().to_vec());
        Schema::new(fields)
    };
    // Collapse the join output through an ungrouped COUNT/SUM so the
    // timing is the hash work, not result materialization.
    let aggs = vec![count_star(), sum(5)];
    let out_schema = agg_schema(&join_out, &[], &aggs);
    let fact = fact.clone();
    let build = build.clone();
    move |rawtable| {
        let lsb = SelBatch::new(
            fact.clone(),
            hive_common::SelVec::Idx((0..probe_rows as u32).collect()),
        )
        .unwrap();
        let rsb = SelBatch::from_batch(build.clone());
        let joined = execute_join_par(
            &lsb,
            &rsb,
            JoinType::Inner,
            &equi,
            &None,
            &join_out,
            usize::MAX,
            1,
            rawtable,
            None,
            None,
        )
        .unwrap();
        let jsb = joined;
        execute_aggregate_par(
            &jsb,
            &[],
            &None,
            &aggs,
            &out_schema,
            1,
            rawtable,
            None,
            None,
        )
        .unwrap()
    }
}

fn main() {
    // The env knobs (set by HIVE_RAWTABLE_SWEEP test runs) must not
    // override the flags this harness passes explicitly.
    std::env::remove_var("HIVE_RAWTABLE_ENABLED");
    std::env::remove_var("HIVE_SELVEC_ENABLED");
    std::env::remove_var("HIVE_DICT_ENABLED");
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    let mut results: Vec<(String, f64, f64)> = Vec::new();
    let fact = fact_batch();

    // join_build: the build side dominates (400k rows, ~200k keys).
    let big_build = build_batch(400_000, 200_000);
    case(
        &mut results,
        "join_build",
        join_case(&fact, 20_000, &big_build),
    );

    // join_probe: the probe side dominates (600k probes into 2k keys;
    // j is uniform in 0..400k so ~0.5% of probes hit).
    let small_build = build_batch(2_000, 400_000);
    case(
        &mut results,
        "join_probe",
        join_case(&fact, ROWS, &small_build),
    );

    // GROUP BY at both cardinalities: COUNT(*), SUM(v).
    for (name, key) in [("groupby_highcard", 0usize), ("groupby_lowcard", 1)] {
        let groups = vec![ScalarExpr::Column(key)];
        let aggs = vec![count_star(), sum(3)];
        let out_schema = agg_schema(fact.schema(), &groups, &aggs);
        let fact = &fact;
        case(&mut results, name, move |rawtable| {
            let sb = SelBatch::from_batch(fact.clone());
            execute_aggregate_par(
                &sb,
                &groups,
                &None,
                &aggs,
                &out_schema,
                1,
                rawtable,
                None,
                None,
            )
            .unwrap()
        });
    }

    // DISTINCT aggregates: 8 groups, ~100k distinct j values per set.
    {
        let groups = vec![ScalarExpr::Column(1)];
        let aggs = vec![
            AggExpr {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(2)),
                distinct: true,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(2)),
                distinct: true,
            },
        ];
        let out_schema = agg_schema(fact.schema(), &groups, &aggs);
        let fact = &fact;
        case(&mut results, "distinct", move |rawtable| {
            let sb = SelBatch::from_batch(fact.clone());
            execute_aggregate_par(
                &sb,
                &groups,
                &None,
                &aggs,
                &out_schema,
                1,
                rawtable,
                None,
                None,
            )
            .unwrap()
        });
    }

    let mut entries = String::new();
    for (name, on_ms, off_ms) in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"case\": \"{name}\", \"rawtable_on_ms\": {on_ms:.3}, \
             \"rawtable_off_ms\": {off_ms:.3}, \"speedup\": {:.3}}}",
            off_ms / on_ms
        ));
    }
    let speedup_of = |case: &str| {
        results
            .iter()
            .find(|(n, _, _)| n == case)
            .map(|(_, on, off)| off / on)
            .unwrap_or(f64::NAN)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"hashtable\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"rows\": {ROWS},\n  \"host_cores\": {cores},\n  \
         \"results\": [\n{entries}\n  ],\n  \
         \"groupby_highcard_speedup\": {:.3},\n  \
         \"join_probe_speedup\": {:.3}\n}}\n",
        speedup_of("groupby_highcard"),
        speedup_of("join_probe"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hash.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
}
