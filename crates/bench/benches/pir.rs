//! Physical-IR execution benchmark.
//!
//! Engine-level queries against a loaded TPC-DS warehouse with
//! `hive.exec.pir.enabled` on and off. The case grid covers the
//! filter→aggregate shapes the selection-vector bench once recorded at
//! ≤1.14x (EXPERIMENTS.md; scan / join / group-by at 1/50/99%
//! selectivity), a multi-conjunct predicate where compiled conjunct
//! ordering short-circuits through the selection vector, an explicit
//! filter→project→aggregate chain, and dictionary versus plain string
//! predicates over a string-heavy item table.
//!
//! Results (real host timings, not simulated cluster time) land in
//! `BENCH_pir.json` at the repo root, including the `gates` floors
//! `scripts/bench_check.py` re-validates on every verify run.
//!
//! Run: `cargo bench -p hive-bench --bench pir` (or via
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
/// uniform in 0..300 so `< cutoff` predicates select ~pct% in every
/// row group (immune to min/max sarg pruning — the filter is carried
/// by row-level selections, not file skipping).
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

/// The string-heavy warehouse: a 120k-row item table whose i_category
/// and i_brand columns dictionary-encode (low cardinality) while
/// i_item_id stays a plain string column (unique values).
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
    let mut out = Vec::new();
    for pct in [1u32, 50, 99] {
        let c = 300 * pct as usize / 100;
        out.push((
            format!("engine_filter_scan_{pct}pct"),
            format!(
                "SELECT ss_item_sk, ss_wholesale_cost, ss_list_price, ss_sales_price, \
                 ss_ext_sales_price, ss_net_profit FROM store_sales WHERE ss_customer_sk < {c}"
            ),
        ));
        out.push((
            format!("engine_filter_join_{pct}pct"),
            format!(
                "SELECT COUNT(*), SUM(ss_ext_sales_price), SUM(ss_net_profit), \
                 SUM(ss_list_price) FROM store_sales, item \
                 WHERE ss_item_sk = i_item_sk AND ss_customer_sk < {c}"
            ),
        ));
        out.push((
            format!("engine_filter_groupby_{pct}pct"),
            format!(
                "SELECT ss_store_sk, COUNT(*), SUM(ss_quantity), SUM(ss_wholesale_cost), \
                 SUM(ss_list_price), SUM(ss_sales_price), SUM(ss_ext_sales_price), \
                 SUM(ss_net_profit) FROM store_sales \
                 WHERE ss_customer_sk < {c} GROUP BY ss_store_sk ORDER BY ss_store_sk"
            ),
        ));
    }
    // Four conjuncts of mixed cost and selectivity: compiled ordering
    // runs the cheap 1%-selective comparison first and short-circuits
    // the rest through the shrinking selection.
    out.push((
        "engine_multi_conjunct_1pct".to_string(),
        "SELECT ss_store_sk, COUNT(*), SUM(ss_ext_sales_price), SUM(ss_net_profit) \
         FROM store_sales WHERE ss_customer_sk < 3 AND ss_quantity > 2 \
         AND ss_list_price < 80.0 AND ss_net_profit <> 0 \
         GROUP BY ss_store_sk ORDER BY ss_store_sk"
            .to_string(),
    ));
    // Filter→project→aggregate: the projection computes derived
    // columns, so the fused chain includes a real Project stage.
    out.push((
        "engine_filter_project_agg_1pct".to_string(),
        "SELECT COUNT(*), SUM(margin), SUM(resale) FROM \
         (SELECT ss_ext_sales_price - ss_wholesale_cost * ss_quantity AS margin, \
          ss_list_price - ss_sales_price AS resale, ss_customer_sk \
          FROM store_sales) t WHERE ss_customer_sk < 3"
            .to_string(),
    ));
    out
}

fn dict_cases() -> Vec<(String, String)> {
    vec![
        (
            // Dictionary LIKE-prefix plus a dictionary ordering
            // comparison: both evaluate once per distinct entry.
            "engine_dict_like_agg".to_string(),
            "SELECT i_brand, COUNT(*), SUM(i_current_price) FROM item \
             WHERE i_category LIKE 'B%' AND i_brand > 'brand#25' \
             GROUP BY i_brand ORDER BY i_brand"
                .to_string(),
        ),
        (
            // Plain (non-dictionary) string column: per-row prefix
            // kernel, ~1% selective.
            "engine_str_prefix_agg".to_string(),
            "SELECT COUNT(*), SUM(i_current_price), MIN(i_item_id) FROM item \
             WHERE i_item_id LIKE 'ITEM00000%'"
                .to_string(),
        ),
    ]
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

    // The issue's gate: at least two of the 1%-selectivity engine
    // filter→aggregate cases (≤1.14x under selection vectors alone)
    // must clear 2x under PIR, and no case may regress below 0.95x.
    let one_pct = [
        "engine_filter_scan_1pct",
        "engine_filter_join_1pct",
        "engine_filter_groupby_1pct",
    ];
    let cleared = one_pct.iter().filter(|n| speedup(n) >= 2.0).count();
    assert!(
        cleared >= 2,
        "only {cleared} of the 1%-selectivity engine cases reached 2x"
    );
    for (name, on, off) in &results {
        assert!(
            off / on >= 0.95,
            "{name} regressed below 0.95x ({:.3}x)",
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
        let floor = match name.as_str() {
            "engine_filter_scan_1pct" | "engine_filter_groupby_1pct" => 2.0,
            _ => 0.95,
        };
        gates.push_str(&format!("    \"{name}\": {floor:.2}"));
    }
    let json = format!(
        "{{\n  \"bench\": \"pir\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"engine_rows\": {},\n  \"dict_rows\": {DICT_ITEMS},\n  \"host_cores\": {cores},\n  \
         \"results\": [\n{entries}\n  ],\n  \
         \"gates\": {{\n{gates}\n  }},\n  \
         \"filter_groupby_1pct_speedup\": {:.3}\n}}\n",
        DAYS * SALES_PER_DAY,
        speedup("engine_filter_groupby_1pct"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pir.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    eprintln!(
        "1%-selectivity filter→group-by: {:.2}x with compiled pipelines",
        speedup("engine_filter_groupby_1pct")
    );
}
