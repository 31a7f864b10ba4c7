//! Parallel determinism: `execute()` must produce byte-identical rows
//! for any `hive.exec.parallel.threads` setting — morsel-driven
//! parallelism may only change wall-clock time, never results — and
//! that must hold with an active fault plan (daemon deaths mid-query)
//! exactly as it does fault-free.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{FaultPlan, HiveConf, HiveServer};

/// The env knob overrides the conf field (so `HIVE_PAR_SWEEP` can steer
/// whole test runs); this binary manages thread counts itself, so drop
/// the variable once before any server is built.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::remove_var("HIVE_PARALLEL_THREADS"));
}

/// Big enough that scans span many row groups and the row-range
/// operators (aggregate build, join probe) split into several morsels.
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

fn load_server(threads: usize) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.parallel_threads = threads;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

/// Every curated TPC-DS query returns identical rows at 1, 2, and 8
/// threads.
#[test]
fn thread_count_never_changes_results() {
    let queries = tpcds::queries();
    let baseline_server = load_server(1);
    let baseline: Vec<(String, Vec<String>)> = queries
        .iter()
        .map(|q| {
            let r = baseline_server.session().execute(&q.sql).unwrap();
            (q.id.to_string(), r.display_rows())
        })
        .collect();
    for threads in [2, 8] {
        let server = load_server(threads);
        for (id, expected) in &baseline {
            let q = queries.iter().find(|q| q.id == id.as_str()).unwrap();
            let got = server.session().execute(&q.sql).unwrap().display_rows();
            assert_eq!(&got, expected, "{id} diverged at {threads} threads");
        }
    }
}

/// A daemon-death fault plan (recovery enabled) under each thread count
/// still yields the fault-free rows, and replaying the same plan at the
/// same thread count reproduces simulated time bit-for-bit.
#[test]
fn daemon_death_plan_is_deterministic_across_thread_counts() {
    neutralize_env();
    let query = &tpcds::queries()[0]; // q3: scan + join + group + order
    let baseline = load_server(1)
        .session()
        .execute(&query.sql)
        .unwrap()
        .display_rows();
    assert!(!baseline.is_empty());

    let plan = FaultPlan::none().with(|p| {
        p.seed = 0xBADD_CAFE;
        p.daemon_kill_prob = 0.8;
        p.dfs_read_error_prob = 0.05;
        p.dfs_slow_prob = 0.1;
        p.dfs_slow_ms = 4.0;
    });
    let run = |threads: usize| -> (Vec<String>, f64, u64) {
        let server = load_server(threads);
        server.set_conf(|c| c.fault = plan.clone());
        let r = server.session().execute(&query.sql).unwrap();
        (r.display_rows(), r.sim_ms, r.fragment_retries)
    };
    for threads in [1, 2, 8] {
        let (rows, sim_ms, retries) = run(threads);
        assert_eq!(rows, baseline, "faulted run diverged at {threads} threads");
        let (rows2, sim_ms2, retries2) = run(threads);
        assert_eq!(rows2, baseline);
        assert_eq!(
            (sim_ms2, retries2),
            (sim_ms, retries),
            "fault penalty must replay exactly at {threads} threads"
        );
    }
}

/// Morsel workers are persistent and shared by every session of the
/// process (`hive_exec::par`): eight clients issuing statements at once
/// against one server at 8 threads — more claim loops wanted than there
/// are helpers, nested calls inside scan workers, calls that find no
/// idle helper and run on their caller — each get the serial rows.
#[test]
fn concurrent_sessions_share_the_executors_and_agree_with_serial() {
    let queries = tpcds::queries();
    let run_all = |server: &HiveServer| -> Vec<Vec<String>> {
        queries
            .iter()
            .map(|q| server.session().execute(&q.sql).unwrap().display_rows())
            .collect()
    };
    let serial_server = load_server(1);
    serial_server.set_conf(|c| c.results_cache = false);
    let serial = run_all(&serial_server);

    let server = load_server(8);
    server.set_conf(|c| c.results_cache = false);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..8).map(|_| s.spawn(|| run_all(&server))).collect();
        for (client, handle) in clients.into_iter().enumerate() {
            let got = handle.join().unwrap();
            assert_eq!(got, serial, "client {client} diverged from the serial rows");
        }
    });
}
