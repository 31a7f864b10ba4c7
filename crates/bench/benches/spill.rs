//! Spill benchmark: the cost of degrading instead of failing. Each
//! case runs the same SQL twice — once with an unlimited per-query
//! budget (everything stays in memory) and once under a tiny budget
//! that forces the dominant blocking operator through the spill path —
//! and reports the wall-clock overhead, the bytes spilled, and the
//! broker's peak tracked memory.
//!
//! Cases (each named for the operator that dominates its spill):
//!
//! * **join** — self-join of the fact table on (ticket, item): the
//!   48k-row build side overflows the budget and runs as a grace join;
//!   a probe-side filter keeps the downstream aggregate small.
//! * **groupby** — GROUP BY (item, customer) with ~30k groups: the
//!   aggregation table partitions and merges through spill files.
//! * **sort** — ORDER BY over the full fact table: bounded in-memory
//!   runs plus a k-way merge.
//!
//! Every case asserts byte-identical rows between the arms before
//! timing. Results (real host timings, not simulated cluster time)
//! land in `BENCH_spill.json` at the repo root.
//!
//! Run: `cargo bench -p hive-bench --bench spill` (or via
//! scripts/verify.sh; `HIVE_SPILL_SWEEP=1` runs the test-suite sweep
//! first).

use hive_benchdata::tpcds::{self, TpcdsScale};
use hive_common::HiveConf;
use hive_core::HiveServer;
use std::time::Instant;

const ITERS: usize = 5;

/// Small enough that every case's blocking operator overflows it.
const TINY_BUDGET: usize = 32 * 1024;

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

fn scale() -> TpcdsScale {
    TpcdsScale {
        days: 12,
        items: 300,
        customers: 400,
        stores: 4,
        sales_per_day: 4000,
        return_rate: 0.1,
    }
}

fn load_server(budget: usize) -> HiveServer {
    let mut conf = HiveConf::v3_1();
    conf.memory_per_query_bytes = budget;
    // Time executions, not cache hits.
    conf.results_cache = false;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

struct CaseResult {
    name: &'static str,
    in_memory_ms: f64,
    spill_ms: f64,
    bytes_spilled: u64,
    peak_memory_bytes: u64,
}

fn main() {
    // The env knobs (set by HIVE_*_SWEEP test runs) must not override
    // the budgets this harness sets explicitly.
    std::env::remove_var("HIVE_SPILL_ENABLED");
    std::env::remove_var("HIVE_MEMORY_BUDGET");
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    let cases: [(&'static str, &'static str); 3] = [
        (
            "join",
            "SELECT COUNT(*), SUM(b.ss_quantity) FROM store_sales a \
             JOIN store_sales b ON a.ss_ticket_number = b.ss_ticket_number \
             AND a.ss_item_sk = b.ss_item_sk \
             WHERE a.ss_quantity < 5",
        ),
        (
            "groupby",
            "SELECT ss_item_sk, ss_customer_sk, COUNT(*), SUM(ss_quantity), \
             SUM(ss_ext_sales_price) FROM store_sales \
             GROUP BY ss_item_sk, ss_customer_sk",
        ),
        (
            "sort",
            "SELECT ss_ticket_number, ss_item_sk, ss_ext_sales_price \
             FROM store_sales \
             ORDER BY ss_ext_sales_price, ss_ticket_number, ss_item_sk",
        ),
    ];

    let unlimited = load_server(0);
    let tiny = load_server(TINY_BUDGET);
    let mut results: Vec<CaseResult> = Vec::new();
    for (name, sql) in cases {
        let base = unlimited.session().execute(sql).unwrap();
        assert_eq!(base.bytes_spilled, 0, "{name}: unlimited budget spilled");
        let spilled = tiny.session().execute(sql).unwrap();
        assert_eq!(
            spilled.display_rows(),
            base.display_rows(),
            "{name}: spill path diverged from the in-memory oracle"
        );
        assert!(
            spilled.bytes_spilled > 0,
            "{name}: tiny budget failed to force a spill"
        );
        let in_memory_ms = time_ms(|| {
            unlimited.session().execute(sql).unwrap();
        });
        let spill_ms = time_ms(|| {
            tiny.session().execute(sql).unwrap();
        });
        eprintln!(
            "{name:<8} in_memory {in_memory_ms:8.2} ms   spill {spill_ms:8.2} ms \
             ({:.0} KiB spilled, peak {} B)",
            spilled.bytes_spilled as f64 / 1024.0,
            spilled.peak_memory_bytes,
        );
        results.push(CaseResult {
            name,
            in_memory_ms,
            spill_ms,
            bytes_spilled: spilled.bytes_spilled,
            peak_memory_bytes: spilled.peak_memory_bytes,
        });
    }

    let mut entries = String::new();
    for r in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"case\": \"{}\", \"in_memory_ms\": {:.3}, \"spill_ms\": {:.3}, \
             \"overhead\": {:.3}, \"bytes_spilled\": {}, \"peak_memory_bytes\": {}}}",
            r.name,
            r.in_memory_ms,
            r.spill_ms,
            r.spill_ms / r.in_memory_ms,
            r.bytes_spilled,
            r.peak_memory_bytes,
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"spill\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"budget_bytes\": {TINY_BUDGET},\n  \"host_cores\": {cores},\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spill.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    print!("{json}");
}
