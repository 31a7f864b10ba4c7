//! Compiled-accumulator and vectorized-join-residual benchmark.
//!
//! Engine-level queries against a loaded TPC-DS warehouse with
//! `hive.exec.pir.enabled` on and off. Where BENCH_pir.json measures the
//! fused Filter/Project chains, this grid targets the two hot loops PIR
//! compiles past the aggregate boundary: monomorphized accumulator
//! folds (SUM/COUNT/MIN/MAX/AVG over int, decimal, and dictionary
//! inputs) and residual join predicates evaluated vectorized over
//! gathered candidate pair-batches instead of per-pair row
//! interpretation.
//!
//! Results (real host timings, not simulated cluster time) land in
//! `BENCH_pir_agg.json` at the repo root, including the `gates` floors
//! `scripts/bench_check.py` re-validates on every verify run.
//!
//! Run: `cargo bench -p hive-bench --bench pir_agg` (or via
//! scripts/verify.sh; `HIVE_PIR_SWEEP=1` runs the test-suite sweep).

use hive_benchdata::tpcds::{self, TpcdsScale};
use hive_common::HiveConf;
use hive_core::HiveServer;
use std::time::Instant;

const ITERS: usize = 7;
const DAYS: usize = 8;
const SALES_PER_DAY: usize = 25_000;
const DICT_ITEMS: usize = 120_000;

/// Best-of-N wall-clock milliseconds for two alternatives, measured
/// *interleaved* (a-b-a-b…) so background load on a shared host skews
/// both sides alike instead of whichever ran second. Min is the stable
/// statistic for speedup comparisons.
fn time_pair_ms(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a(); // warmup (also warms the LLAP cache)
    b();
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        a();
        best.0 = best.0.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        b();
        best.1 = best.1.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn server(pir: bool, scale: TpcdsScale) -> HiveServer {
    let mut conf = HiveConf::v3_1();
    conf.pir_enabled = pir;
    conf.results_cache = false;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale, 0xBE5C).unwrap();
    server
}

/// The fact-table warehouse: 200k store_sales rows, `ss_customer_sk`
/// uniform in 0..300 so `< cutoff` predicates select ~pct% in every row
/// group, and `i_manufact_id = i % 100` over 500 items so a store-key
/// probe against it fans out to ~5 build candidates per probe row —
/// the residual-heavy join shape.
fn fact_scale() -> TpcdsScale {
    TpcdsScale {
        days: DAYS,
        items: 500,
        customers: 300,
        stores: 6,
        sales_per_day: SALES_PER_DAY,
        return_rate: 0.1,
    }
}

/// The string-heavy warehouse: a 120k-row item table whose i_category /
/// i_brand / i_class columns dictionary-encode (low cardinality), so
/// MIN/MAX fold over dictionary codes and the group keys are dict-dense.
fn dict_scale() -> TpcdsScale {
    TpcdsScale {
        days: 1,
        items: DICT_ITEMS,
        customers: 50,
        stores: 2,
        sales_per_day: 500,
        return_rate: 0.1,
    }
}

fn fact_cases() -> Vec<(String, String)> {
    vec![
        (
            // The gate case: 1%-selective filter feeding a wide
            // accumulator bank — compiled filter chain plus
            // monomorphized COUNT/SUM/MIN/MAX/AVG folds.
            "agg_filter_groupby_1pct".to_string(),
            "SELECT ss_store_sk, COUNT(*), COUNT(ss_customer_sk), SUM(ss_quantity), \
             SUM(ss_wholesale_cost), SUM(ss_list_price), SUM(ss_net_profit), \
             MIN(ss_net_profit), MAX(ss_list_price), AVG(ss_sales_price), \
             AVG(ss_quantity) FROM store_sales \
             WHERE ss_customer_sk < 3 GROUP BY ss_store_sk ORDER BY ss_store_sk"
                .to_string(),
        ),
        (
            // Near-full-table group-by: the accumulator folds dominate
            // (no filter win to hide behind).
            "agg_groupby_wide".to_string(),
            "SELECT ss_store_sk, COUNT(*), SUM(ss_quantity), SUM(ss_wholesale_cost), \
             SUM(ss_list_price), SUM(ss_sales_price), SUM(ss_ext_sales_price), \
             SUM(ss_net_profit), MIN(ss_net_profit), MAX(ss_ext_sales_price), \
             AVG(ss_list_price) FROM store_sales \
             GROUP BY ss_store_sk ORDER BY ss_store_sk"
                .to_string(),
        ),
        (
            // The gate case: ~5 build candidates per probe row and a
            // three-comparison decimal residual — 1M pairs through the
            // compiled conjunction versus per-pair row interpretation.
            "join_residual_heavy".to_string(),
            "SELECT COUNT(*), SUM(i_current_price) FROM store_sales \
             JOIN item ON ss_store_sk = i_manufact_id \
             AND ss_list_price > i_current_price \
             AND ss_net_profit < i_current_price \
             AND ss_wholesale_cost <> i_current_price"
                .to_string(),
        ),
        (
            // Non-compilable residual shape (arithmetic inside the
            // comparison): the row closure runs over the gathered
            // candidates — gated at 0.95x so the pair-buffer
            // restructure never taxes the fallback.
            "join_residual_mixed".to_string(),
            "SELECT COUNT(*), SUM(i_current_price) FROM store_sales \
             JOIN item ON ss_item_sk = i_item_sk \
             AND ss_list_price + ss_wholesale_cost > i_current_price"
                .to_string(),
        ),
    ]
}

fn dict_cases() -> Vec<(String, String)> {
    vec![(
        // Dictionary accumulator folds: MIN/MAX over dict-encoded
        // string columns compare codes through the shared dictionary,
        // grouped by a dict-dense key.
        "agg_groupby_dict".to_string(),
        "SELECT i_category, COUNT(*), MIN(i_brand), MAX(i_class), \
         SUM(i_current_price), AVG(i_current_price) FROM item \
         GROUP BY i_category ORDER BY i_category"
            .to_string(),
    )]
}

/// Time every case against one PIR-on and one PIR-off server, checking
/// the toggle is invisible in results.
fn run_cases(cases: &[(String, String)], scale: TpcdsScale, results: &mut Vec<(String, f64, f64)>) {
    let on = server(true, scale);
    let off = server(false, scale);
    for (name, sql) in cases {
        assert_eq!(
            on.session().execute(sql).unwrap().display_rows(),
            off.session().execute(sql).unwrap().display_rows(),
            "{name} diverged between PIR settings"
        );
        let (on_ms, off_ms) = time_pair_ms(
            || {
                on.session().execute(sql).unwrap();
            },
            || {
                off.session().execute(sql).unwrap();
            },
        );
        eprintln!(
            "{name:<30} pir={on_ms:8.2} ms  interp={off_ms:8.2} ms  ({:.2}x)",
            off_ms / on_ms
        );
        results.push((name.clone(), on_ms, off_ms));
    }
}

fn gate_floor(name: &str) -> f64 {
    match name {
        "agg_filter_groupby_1pct" => 2.0,
        "join_residual_heavy" => 1.5,
        _ => 0.95,
    }
}

fn main() {
    // The env knobs (set by HIVE_PIR_SWEEP test runs) must not
    // override the settings this harness manages itself.
    std::env::remove_var("HIVE_PIR_ENABLED");
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    // (name, pir_on_ms, pir_off_ms)
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    run_cases(&fact_cases(), fact_scale(), &mut results);
    run_cases(&dict_cases(), dict_scale(), &mut results);

    let speedup = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, on, off)| off / on)
            .unwrap_or(f64::NAN)
    };

    // The issue's gates: ≥2x on the 1%-selectivity filter→group-by
    // accumulator case, ≥1.5x on the residual-heavy join, and no case
    // below 0.95x.
    for (name, on, off) in &results {
        let floor = gate_floor(name);
        assert!(
            off / on >= floor,
            "{name} fell below its {floor:.2}x floor ({:.3}x)",
            off / on
        );
    }

    let mut entries = String::new();
    for (name, on_ms, off_ms) in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"case\": \"{name}\", \"pir_on_ms\": {on_ms:.3}, \
             \"pir_off_ms\": {off_ms:.3}, \"speedup\": {:.3}}}",
            off_ms / on_ms
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut gates = String::new();
    for (name, _, _) in &results {
        if !gates.is_empty() {
            gates.push_str(",\n");
        }
        gates.push_str(&format!("    \"{name}\": {:.2}", gate_floor(name)));
    }
    let json = format!(
        "{{\n  \"bench\": \"pir_agg\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"engine_rows\": {},\n  \"dict_rows\": {DICT_ITEMS},\n  \"host_cores\": {cores},\n  \
         \"results\": [\n{entries}\n  ],\n  \
         \"gates\": {{\n{gates}\n  }},\n  \
         \"filter_groupby_1pct_speedup\": {:.3},\n  \
         \"residual_heavy_speedup\": {:.3}\n}}\n",
        DAYS * SALES_PER_DAY,
        speedup("agg_filter_groupby_1pct"),
        speedup("join_residual_heavy"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pir_agg.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    eprintln!(
        "filter→group-by 1%: {:.2}x, residual-heavy join: {:.2}x with compiled kernels",
        speedup("agg_filter_groupby_1pct"),
        speedup("join_residual_heavy")
    );
}
