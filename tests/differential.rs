//! The differential harness: one reference, a table of configurations.
//!
//! The reference is the row interpreter (`vectorized = false`, one
//! thread). It differs from the other rows only in how filters and
//! projections evaluate expressions: joins, group-bys, window
//! partitions and set operations run the same key layer on both sides,
//! and are held to `Value`-level references in their own modules'
//! tests. Every configuration row — the defaults, histograms off, shared
//! work off (every branch scans and filters its own rows instead of
//! applying its residual to a shared read), and a 32 KiB per-query
//! memory budget that forces grace joins, spilled group-bys and
//! external sorts, each at 1, 2 and 8 threads —
//! must return the reference's rows for all curated TPC-DS queries, byte
//! for byte. Each row then runs the suite under one seeded fault plan
//! (daemon deaths, transient and slow DFS reads, spill-targeted read and
//! write failures, all with recovery): the rows must still be the
//! reference's, and a second run from the same start must replay
//! `(sim_ms, fragment_retries, bytes_spilled)` exactly. Each row is its
//! own pair of tests, named after the row.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{DfsPath, FaultPlan, HiveConf, HiveServer};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Env knobs override the conf fields; this binary manages them itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        for var in [
            "HIVE_HISTOGRAMS_ENABLED",
            "HIVE_SPILL_ENABLED",
            "HIVE_MEMORY_BUDGET",
            "HIVE_PARALLEL_THREADS",
        ] {
            std::env::remove_var(var);
        }
    });
}

/// Big enough that scans span several row groups and partitions, joins
/// build tens of thousands of rows and group-bys hold thousands of
/// groups — far past [`TINY_BUDGET`].
fn scale() -> TpcdsScale {
    TpcdsScale {
        days: 8,
        items: 150,
        customers: 200,
        stores: 4,
        sales_per_day: 1500,
        return_rate: 0.1,
    }
}

/// Small enough that every blocking operator at this scale overflows
/// it, large enough to keep the spill recursion shallow.
const TINY_BUDGET: usize = 32 * 1024;

/// A configuration: a name and what it changes from the defaults.
type Config = (&'static str, fn(&mut HiveConf));

const DEFAULTS: Config = ("defaults", |_| {});
const HISTOGRAMS_OFF: Config = ("histograms off", |c| c.histograms_enabled = false);
const SHARED_WORK_OFF: Config = ("shared work off", |c| c.shared_work = false);
const TINY: Config = ("32 KiB budget", |c| c.memory_per_query_bytes = TINY_BUDGET);

/// The defaults every row starts from. The results cache is off so each
/// row really executes.
fn base_conf() -> HiveConf {
    HiveConf::v3_1().with(|c| c.results_cache = false)
}

fn load_server(conf: HiveConf) -> HiveServer {
    neutralize_env();
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

/// Rows, simulated time, fragment retries and spilled bytes per query.
type Pass = Vec<(Vec<String>, f64, u64, u64)>;

fn run_suite(server: &HiveServer) -> Pass {
    tpcds::queries()
        .iter()
        .map(|q| {
            let r = server
                .session()
                .execute(&q.sql)
                .unwrap_or_else(|e| panic!("{} failed: {e}", q.id));
            (
                r.display_rows(),
                r.sim_ms,
                r.fragment_retries,
                r.bytes_spilled,
            )
        })
        .collect()
}

/// The row interpreter's rows for every curated query.
fn reference() -> &'static Vec<Vec<String>> {
    static ROWS: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let server = load_server(base_conf().with(|c| {
            c.vectorized = false;
            c.parallel_threads = 1;
        }));
        let rows: Vec<Vec<String>> = run_suite(&server).into_iter().map(|r| r.0).collect();
        assert!(rows.iter().any(|r| !r.is_empty()));
        rows
    })
}

/// Each pass's rows against the reference, query by query.
fn assert_reference_rows(pass: &Pass, what: &str) {
    for ((q, want), (rows, ..)) in tpcds::queries().iter().zip(reference()).zip(pass) {
        assert_eq!(
            rows, want,
            "{} diverged from the row interpreter: {what}",
            q.id
        );
    }
}

/// Under a budget the suite must really spill (no vacuously green
/// row), and every spill file must be gone once its operator finishes.
fn assert_spilled_cleanly(server: &HiveServer, pass: &Pass, what: &str) {
    if server.conf().memory_per_query_bytes == 0 {
        return;
    }
    let spilled: u64 = pass.iter().map(|r| r.3).sum();
    assert!(spilled > 0, "the budget never forced a spill: {what}");
    let leftovers = server
        .fs()
        .list_files_recursive(&DfsPath::new("/tmp/hive/spill"));
    assert!(
        leftovers.is_empty(),
        "orphan spill files ({what}): {leftovers:?}"
    );
}

/// The server the fault-free rows share. Each row resets the whole conf,
/// clears the LLAP cache and forgets the runtime stats a tripped
/// cardinality guard leaves, so every row plans from its own estimates
/// whatever ran before it.
fn shared_server() -> MutexGuard<'static, HiveServer> {
    static SERVER: OnceLock<Mutex<HiveServer>> = OnceLock::new();
    SERVER
        .get_or_init(|| Mutex::new(load_server(base_conf())))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn returns_the_reference_rows((name, tweak): Config, threads: usize) {
    let server = shared_server();
    server.set_conf(|c| {
        *c = base_conf();
        c.parallel_threads = threads;
        tweak(c);
    });
    server.llap().cache().clear();
    server.metastore().clear_runtime_stats();
    let what = format!("{name}, {threads} threads");
    let pass = run_suite(&server);
    assert_reference_rows(&pass, &what);
    assert_spilled_cleanly(&server, &pass, &what);
}

fn faulted_rows_replay_exactly((name, tweak): Config, threads: usize) {
    let plan = FaultPlan::none().with(|p| {
        p.seed = 0xBADD_CAFE;
        p.daemon_kill_prob = 0.8;
        p.dfs_read_error_prob = 0.05;
        p.dfs_slow_prob = 0.1;
        p.dfs_slow_ms = 4.0;
        p.fail_path_substrings = vec!["spill".into()];
        p.path_fail_count = 2;
        p.dfs_write_error_prob = 0.2;
    });
    // Each run starts from a fresh server: killed daemons stay dead and
    // spill paths carry a per-server sequence number, so a second run on
    // the same server would not start where the first did.
    let run = || {
        let server = load_server(base_conf().with(|c| {
            c.parallel_threads = threads;
            tweak(c);
        }));
        server.set_conf(|c| c.fault = plan.clone());
        let pass = run_suite(&server);
        (server, pass)
    };
    let what = format!("{name}, {threads} threads, faulted");
    let (server, first) = run();
    assert_reference_rows(&first, &what);
    assert!(
        first.iter().any(|r| r.2 > 0),
        "the fault plan never fired: {what}"
    );
    assert_spilled_cleanly(&server, &first, &what);
    let penalty =
        |pass: &Pass| -> Vec<(f64, u64, u64)> { pass.iter().map(|r| (r.1, r.2, r.3)).collect() };
    let (_, second) = run();
    assert_reference_rows(&second, &what);
    assert_eq!(
        penalty(&second),
        penalty(&first),
        "sim_ms, retries and spilled bytes must replay exactly: {what}"
    );
}

/// The table of configurations. Each row is two tests: its fault-free
/// pass, and its pass under the seeded fault plan.
macro_rules! configurations {
    ($($row:ident: $config:ident, $threads:literal;)*) => {
        mod every_configuration_returns_the_row_interpreters_rows {
            $(#[test]
            fn $row() {
                super::returns_the_reference_rows(super::$config, $threads);
            })*
        }
        mod seeded_faults_return_the_same_rows_and_replay_exactly {
            $(#[test]
            fn $row() {
                super::faulted_rows_replay_exactly(super::$config, $threads);
            })*
        }
    };
}

configurations! {
    defaults_1_thread: DEFAULTS, 1;
    defaults_2_threads: DEFAULTS, 2;
    defaults_8_threads: DEFAULTS, 8;
    histograms_off_1_thread: HISTOGRAMS_OFF, 1;
    histograms_off_2_threads: HISTOGRAMS_OFF, 2;
    histograms_off_8_threads: HISTOGRAMS_OFF, 8;
    shared_work_off_1_thread: SHARED_WORK_OFF, 1;
    shared_work_off_2_threads: SHARED_WORK_OFF, 2;
    shared_work_off_8_threads: SHARED_WORK_OFF, 8;
    tiny_budget_1_thread: TINY, 1;
    tiny_budget_2_threads: TINY, 2;
    tiny_budget_8_threads: TINY, 8;
}
