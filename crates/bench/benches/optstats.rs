//! Histogram-driven planning benchmark.
//!
//! Simulated cluster milliseconds (`QueryResult::sim_ms` — fully
//! deterministic, so one warmed measurement per case is exact) with
//! `hive.optimizer.histograms.enabled` on and off. The gate case is a
//! skewed multi-join the constant-selectivity planner gets backwards:
//! a dimension filter on a heavy-hitter value that 1/NDV estimates as
//! rare (so the huge join runs first) versus a range filter the 1/3
//! default overestimates (so the tiny join runs last). Histogram
//! selectivities flip the order and the intermediate collapses from
//! ~90% of the fact table to ~1%. The curated TPC-DS suite rides along
//! gated at 0.95x: better estimates must never cost any query more
//! than 5% of simulated time.
//!
//! Results land in `BENCH_optstats.json` at the repo root, including
//! the `gates` floors `scripts/bench_check.py` re-validates on every
//! verify run.
//!
//! Run: `cargo bench -p hive-bench --bench optstats` (or via
//! scripts/verify.sh; `HIVE_STATS_SWEEP=1` runs the test-suite sweep).

use hive_benchdata::tpcds::{self, TpcdsScale};
use hive_common::HiveConf;
use hive_core::HiveServer;

const FACT_ROWS: usize = 40_000;
const DIM_ROWS: usize = 1_000;

fn server(histograms: bool) -> HiveServer {
    let mut conf = HiveConf::v3_1();
    conf.histograms_enabled = histograms;
    conf.results_cache = false;
    HiveServer::new(conf)
}

/// The misestimate shape: `dima.attr` holds one heavy hitter (900 of
/// 1000 rows are attr=1, the rest distinct — NDV 101, so 1/NDV calls
/// the equality filter ~1%-selective when it really keeps 90%), while
/// `dimb.attr` is uniform-distinct (the 1/3 range default calls
/// `attr <= 10` 333 rows when it really keeps 11).
fn load_skewed(server: &HiveServer) {
    let s = server.session();
    s.execute("CREATE TABLE skew_fact (ka INT, kb INT, v INT)")
        .unwrap();
    for chunk in 0..(FACT_ROWS / 1000) {
        let values: Vec<String> = (0..1000)
            .map(|i| {
                let n = chunk * 1000 + i;
                format!("({}, {}, {})", n % DIM_ROWS, (n * 7) % DIM_ROWS, n % 97)
            })
            .collect();
        s.execute(&format!(
            "INSERT INTO skew_fact VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
    let dima: Vec<String> = (0..DIM_ROWS)
        .map(|i| format!("({}, {})", i, if i < 900 { 1 } else { i as i64 }))
        .collect();
    s.execute("CREATE TABLE dima (ka INT, attr INT)").unwrap();
    s.execute(&format!("INSERT INTO dima VALUES {}", dima.join(", ")))
        .unwrap();
    let dimb: Vec<String> = (0..DIM_ROWS).map(|i| format!("({i}, {i})")).collect();
    s.execute("CREATE TABLE dimb (kb INT, attr INT)").unwrap();
    s.execute(&format!("INSERT INTO dimb VALUES {}", dimb.join(", ")))
        .unwrap();
}

const SKEWED_SQL: &str = "SELECT COUNT(*), SUM(f.v) FROM skew_fact f \
     JOIN dima a ON f.ka = a.ka JOIN dimb b ON f.kb = b.kb \
     WHERE a.attr = 1 AND b.attr <= 10";

/// TPC-DS warehouse for the ride-along suite: large enough that join
/// order and Bloom sizing show up in simulated time.
fn suite_scale() -> TpcdsScale {
    TpcdsScale {
        days: 8,
        items: 150,
        customers: 200,
        stores: 4,
        sales_per_day: 1500,
        return_rate: 0.1,
    }
}

/// Warmed deterministic sim-time: the first run pays cold-cache
/// penalties, the second is the steady state both settings compare at.
fn sim_ms(server: &HiveServer, sql: &str) -> f64 {
    server.session().execute(sql).unwrap();
    server.session().execute(sql).unwrap().sim_ms
}

fn gate_floor(name: &str) -> f64 {
    match name {
        "skewed_multijoin" => 1.5,
        _ => 0.95,
    }
}

fn main() {
    // The env knobs (set by HIVE_STATS_SWEEP test runs) must not
    // override the settings this harness manages itself.
    std::env::remove_var("HIVE_HISTOGRAMS_ENABLED");
    std::env::remove_var("HIVE_PIR_ENABLED");
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    // (name, hist_on_ms, hist_off_ms)
    let mut results: Vec<(String, f64, f64)> = Vec::new();

    let on = server(true);
    let off = server(false);
    load_skewed(&on);
    load_skewed(&off);
    assert_eq!(
        on.session().execute(SKEWED_SQL).unwrap().display_rows(),
        off.session().execute(SKEWED_SQL).unwrap().display_rows(),
        "skewed_multijoin diverged between histogram settings"
    );
    results.push((
        "skewed_multijoin".to_string(),
        sim_ms(&on, SKEWED_SQL),
        sim_ms(&off, SKEWED_SQL),
    ));

    let on = server(true);
    let off = server(false);
    tpcds::load(&on, suite_scale(), 0xBE5C).unwrap();
    tpcds::load(&off, suite_scale(), 0xBE5C).unwrap();
    for q in &tpcds::queries() {
        assert_eq!(
            on.session().execute(&q.sql).unwrap().display_rows(),
            off.session().execute(&q.sql).unwrap().display_rows(),
            "{} diverged between histogram settings",
            q.id
        );
        results.push((q.id.to_string(), sim_ms(&on, &q.sql), sim_ms(&off, &q.sql)));
    }

    for (name, on_ms, off_ms) in &results {
        eprintln!(
            "{name:<30} hist={on_ms:9.3} simms  const={off_ms:9.3} simms  ({:.2}x)",
            off_ms / on_ms
        );
        let floor = gate_floor(name);
        assert!(
            off_ms / on_ms >= floor,
            "{name} fell below its {floor:.2}x floor ({:.3}x)",
            off_ms / on_ms
        );
    }

    let mut entries = String::new();
    for (name, on_ms, off_ms) in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"case\": \"{name}\", \"hist_on_ms\": {on_ms:.3}, \
             \"hist_off_ms\": {off_ms:.3}, \"speedup\": {:.3}}}",
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
    let skew = results
        .iter()
        .find(|(n, _, _)| n == "skewed_multijoin")
        .map(|(_, on, off)| off / on)
        .unwrap_or(f64::NAN);
    let json = format!(
        "{{\n  \"bench\": \"optstats\",\n  \"unit\": \"sim_ms\",\n  \
         \"fact_rows\": {FACT_ROWS},\n  \"host_cores\": {cores},\n  \
         \"results\": [\n{entries}\n  ],\n  \
         \"gates\": {{\n{gates}\n  }},\n  \
         \"skewed_multijoin_speedup\": {skew:.3}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_optstats.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    eprintln!("skewed multi-join: {skew:.2}x simulated time with histogram planning");
}
