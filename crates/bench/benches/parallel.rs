//! Morsel-driven parallelism benchmark: wall-clock time for the three
//! parallel operators (table scan, hash aggregate, hash join) across a
//! sweep of thread counts, asserting byte-identical results at every
//! count and writing the baseline to `BENCH_parallel.json` at the repo
//! root. Unlike the figure harnesses (simulated cluster time), these
//! are real host-thread timings.
//!
//! Run: `cargo bench --bench parallel` (or via scripts/verify.sh
//! `HIVE_PAR_SWEEP=1`).

use hive_common::{DataType, Field, HiveConf, Row, Schema, Value, VectorBatch};
use hive_core::HiveServer;
use hive_exec::aggregate::execute_aggregate_par;
use hive_exec::join::execute_join_par;
use hive_optimizer::plan::{JoinType, LogicalPlan};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const ITERS: usize = 5;

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

/// Table scan through the full engine (planner + lease-gated morsel
/// fan-out over corc row groups), LLAP cache off so every iteration
/// decodes from DFS bytes.
fn bench_scan(results: &mut Vec<(&'static str, usize, f64)>) {
    use hive_benchdata::tpcds::{self, TpcdsScale};
    let scale = TpcdsScale {
        days: 96,
        items: 500,
        customers: 500,
        stores: 8,
        sales_per_day: 2500,
        return_rate: 0.1,
    };
    let sql = "SELECT COUNT(*), SUM(ss_ext_sales_price), SUM(ss_net_profit), MAX(ss_list_price) \
               FROM store_sales WHERE ss_quantity > 0";
    let mut baseline: Option<Vec<String>> = None;
    for &t in &THREADS {
        let mut conf = HiveConf::v3_1();
        conf.parallel_threads = t;
        conf.llap_enabled = false;
        conf.results_cache = false;
        let server = HiveServer::new(conf);
        tpcds::load(&server, scale, 0xBE5C).unwrap();
        let session = server.session();
        let rows = session.execute(sql).unwrap().display_rows();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(&rows, b, "scan diverged at {t} threads"),
        }
        let ms = time_ms(|| {
            session.execute(sql).unwrap();
        });
        eprintln!("scan       threads={t:<2} {ms:8.2} ms");
        results.push(("scan", t, ms));
    }
}

fn bench_aggregate(results: &mut Vec<(&'static str, usize, f64)>) {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Double),
    ]);
    let rows: Vec<Row> = (0..600_000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i * 31 % 4_001),
                Value::Double(i as f64 * 0.5 - 1000.0),
            ])
        })
        .collect();
    let batch = VectorBatch::from_rows(&schema, &rows).unwrap();
    let groups = vec![ScalarExpr::Column(0)];
    let aggs = vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        },
        AggExpr {
            func: AggFunc::Avg,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        },
    ];
    let out_schema = LogicalPlan::Aggregate {
        input: std::sync::Arc::new(LogicalPlan::Values {
            schema: batch.schema().clone(),
            rows: vec![],
        }),
        group_exprs: groups.clone(),
        grouping_sets: None,
        aggs: aggs.clone(),
    }
    .schema();
    let input = hive_common::SelBatch::from_batch(batch);
    let mut baseline: Option<Vec<String>> = None;
    for &t in &THREADS {
        let out = execute_aggregate_par(&input, &groups, &None, &aggs, &out_schema, t, None, None)
            .unwrap();
        let got = rows_of(&out);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "aggregate diverged at {t} threads"),
        }
        let ms = time_ms(|| {
            execute_aggregate_par(&input, &groups, &None, &aggs, &out_schema, t, None, None)
                .unwrap();
        });
        eprintln!("aggregate  threads={t:<2} {ms:8.2} ms");
        results.push(("aggregate", t, ms));
    }
}

fn bench_join(results: &mut Vec<(&'static str, usize, f64)>) {
    let lschema = Schema::new(vec![
        Field::new("l_k", DataType::Int),
        Field::new("l_v", DataType::BigInt),
    ]);
    let lrows: Vec<Row> = (0..400_000)
        .map(|i| Row::new(vec![Value::Int(i * 13 % 200_003), Value::BigInt(i as i64)]))
        .collect();
    let left = VectorBatch::from_rows(&lschema, &lrows).unwrap();
    let rschema = Schema::new(vec![
        Field::new("r_k", DataType::Int),
        Field::new("r_v", DataType::BigInt),
    ]);
    let rrows: Vec<Row> = (0..40_000)
        .map(|i| Row::new(vec![Value::Int(i * 7 % 200_003), Value::BigInt(i as i64)]))
        .collect();
    let right = VectorBatch::from_rows(&rschema, &rrows).unwrap();
    let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
    let out_schema = left.schema().join(right.schema());
    let left = hive_common::SelBatch::from_batch(left);
    let right = hive_common::SelBatch::from_batch(right);
    let mut baseline: Option<Vec<String>> = None;
    for &t in &THREADS {
        let out = execute_join_par(
            &left,
            &right,
            JoinType::Inner,
            &equi,
            &None,
            &out_schema,
            usize::MAX,
            t,
            None,
            None,
        )
        .unwrap();
        let got = rows_of(&out.compact());
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "join diverged at {t} threads"),
        }
        let ms = time_ms(|| {
            execute_join_par(
                &left,
                &right,
                JoinType::Inner,
                &equi,
                &None,
                &out_schema,
                usize::MAX,
                t,
                None,
                None,
            )
            .unwrap();
        });
        eprintln!("join       threads={t:<2} {ms:8.2} ms");
        results.push(("join", t, ms));
    }
}

fn main() {
    // This harness manages thread counts itself; the env knob (set by
    // HIVE_PAR_SWEEP test runs) must not override the sweep.
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    let mut results: Vec<(&'static str, usize, f64)> = Vec::new();
    bench_scan(&mut results);
    bench_aggregate(&mut results);
    bench_join(&mut results);

    let ms_of = |op: &str, t: usize| {
        results
            .iter()
            .find(|(o, tt, _)| *o == op && *tt == t)
            .map(|(_, _, ms)| *ms)
            .unwrap_or(f64::NAN)
    };
    let mut entries = String::new();
    for (op, t, ms) in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"op\": \"{op}\", \"threads\": {t}, \"ms\": {ms:.3}}}"
        ));
    }
    let mut speedups = String::new();
    for op in ["scan", "aggregate", "join"] {
        if !speedups.is_empty() {
            speedups.push_str(", ");
        }
        speedups.push_str(&format!("\"{op}\": {:.2}", ms_of(op, 1) / ms_of(op, 4)));
    }
    // Speedup is bounded by physical cores: on a single-core host the
    // sweep measures pure parallelization overhead (the auto setting,
    // parallel_threads=0, resolves to the core count and stays serial
    // there), so record the host size alongside the timings.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"host_cores\": {cores},\n  \
         \"thread_counts\": [1, 2, 4, 8],\n  \"results\": [\n{entries}\n  ],\n  \
         \"speedup_at_4_threads\": {{{speedups}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    for op in ["scan", "aggregate", "join"] {
        eprintln!(
            "{op}: {:.2}x speedup at 4 threads",
            ms_of(op, 1) / ms_of(op, 4)
        );
    }
}
