//! Scan-fed aggregates end to end: an aggregate whose input is a stored
//! table's scan folds the scan's morsels part by part instead of over
//! one assembled batch (DESIGN.md §4, "parts"). That may only change
//! wall-clock time. The twelve statement shapes of the `scan_cold`
//! benchmark workload — key-less sweeps, partition-range and point
//! reads, GROUP BYs over both fact tables — must return the row
//! interpreter's rows at every thread count, with LLAP or shared work
//! off, under a memory budget that denies the group-by its grant, and
//! under a seeded fault plan; simulated time must not depend on the
//! thread count; a cache too small for the working set must evict the
//! same chunks in every run; and a plan whose branches share a scan
//! must still read its table once. Beyond the aggregate, the statements
//! feed a filtered or projected multi-morsel scan to each consumer that
//! assembles its input into one batch — a Sort, a Window, a LIMIT, a
//! join's build side, a `RIGHT` / `FULL` join's probe side — under the
//! same configurations and fault plan.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{FaultPlan, HiveConf, HiveServer};

/// Env knobs override the conf fields; this binary manages them itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        for var in [
            "HIVE_PARALLEL_THREADS",
            "HIVE_SPILL_ENABLED",
            "HIVE_MEMORY_BUDGET",
        ] {
            std::env::remove_var(var);
        }
    });
}

/// Eight day partitions of 1 500 sales: every sweep is an eight-morsel
/// scan.
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

/// Under the decoded size of one `store_sales` sweep, so the LRFU cache
/// evicts all the way through.
const SMALL_CACHE: usize = 192 << 10;

fn load_server(conf: HiveConf) -> HiveServer {
    load_server_with_cache(conf, SMALL_CACHE)
}

fn load_server_with_cache(conf: HiveConf, cache_bytes: usize) -> HiveServer {
    neutralize_env();
    let server = HiveServer::new(conf.with(|c| {
        c.results_cache = false;
        c.llap_cache_bytes = cache_bytes;
    }));
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

/// The `scan_cold` statement shapes (`bench/e2e/src/workload.rs`).
fn statements() -> Vec<(&'static str, String)> {
    let cols = [
        "ss_item_sk",
        "ss_customer_sk",
        "ss_store_sk",
        "ss_hdemo_sk",
        "ss_addr_sk",
        "ss_promo_sk",
        "ss_ticket_number",
        "ss_quantity",
        "ss_wholesale_cost",
        "ss_list_price",
        "ss_sales_price",
        "ss_ext_sales_price",
        "ss_net_profit",
    ];
    let sweep = |cols: &[&str]| {
        let aggs: Vec<String> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{}({c})", ["SUM", "MIN", "MAX"][i % 3]))
            .collect();
        format!("SELECT {} FROM store_sales", aggs.join(", "))
    };
    let base = tpcds::base_date_sk();
    let mut out = vec![("sweep_all", sweep(&cols))];
    for (i, name) in ["sweep_0", "sweep_1", "sweep_2", "sweep_3"]
        .into_iter()
        .enumerate()
    {
        let pick: Vec<&str> = cols.iter().cycle().skip(i * 6).take(7).copied().collect();
        out.push((name, sweep(&pick)));
    }
    for (name, lo) in [("range_0", base + 1), ("range_1", base + 4)] {
        out.push((
            name,
            format!(
                "SELECT COUNT(*), SUM(ss_ext_sales_price), MAX(ss_quantity) FROM store_sales \
                 WHERE ss_sold_date_sk BETWEEN {lo} AND {}",
                lo + 2
            ),
        ));
    }
    for (name, ticket) in [("point_0", 17), ("point_1", 7001)] {
        out.push((
            name,
            format!(
                "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales \
                 WHERE ss_ticket_number = {ticket}"
            ),
        ));
    }
    out.push((
        "group_store",
        "SELECT ss_store_sk, COUNT(*), SUM(ss_net_profit) FROM store_sales GROUP BY ss_store_sk"
            .into(),
    ));
    out.push((
        "returns_sweep",
        "SELECT COUNT(*), SUM(sr_return_quantity), MAX(sr_return_amt), MIN(sr_item_sk), \
         MAX(sr_customer_sk), MAX(sr_ticket_number) FROM store_returns"
            .into(),
    ));
    out.push((
        "returns_group",
        "SELECT sr_return_quantity, COUNT(*), SUM(sr_return_amt) FROM store_returns \
         GROUP BY sr_return_quantity"
            .into(),
    ));
    // Beyond the benchmark's shapes: the aggregates whose state depends
    // on fold order, which must assemble rather than merge, a computed
    // argument, and a filter the scan fuses per morsel.
    out.push((
        "order_sensitive",
        "SELECT ss_store_sk, AVG(ss_net_profit), STDDEV_SAMP(ss_quantity), \
         COUNT(DISTINCT ss_promo_sk), SUM(ss_quantity * 2) FROM store_sales \
         WHERE ss_quantity > 5 GROUP BY ss_store_sk"
            .into(),
    ));
    // A filtered or projected scan under each consumer that assembles
    // its input into one batch: a Sort, a Window, a LIMIT, a join's
    // build side, and the probe side of a `RIGHT` and a `FULL` join.
    out.push((
        "sort",
        "SELECT ss_ticket_number, ss_item_sk, ss_quantity * 2 AS q2 FROM store_sales \
         WHERE ss_quantity > 15 ORDER BY ss_ticket_number DESC, ss_item_sk, q2"
            .into(),
    ));
    out.push((
        "window",
        "SELECT ss_store_sk, ss_ticket_number, ss_item_sk, \
         RANK() OVER (PARTITION BY ss_store_sk ORDER BY ss_net_profit DESC) AS rk, \
         SUM(ss_quantity) OVER (PARTITION BY ss_store_sk ORDER BY ss_ticket_number) AS run \
         FROM store_sales WHERE ss_quantity < 4 \
         ORDER BY ss_store_sk, ss_ticket_number, ss_item_sk, rk, run"
            .into(),
    ));
    out.push((
        "limit",
        "SELECT ss_ticket_number, ss_item_sk, ss_net_profit + 1 FROM store_sales \
         WHERE ss_quantity = 7 LIMIT 200"
            .into(),
    ));
    out.push((
        "join_build",
        "SELECT COUNT(*), SUM(a.ss_quantity), SUM(b.p) FROM store_sales a \
         JOIN (SELECT ss_ticket_number t, ss_net_profit * 2 p FROM store_sales \
               WHERE ss_quantity = 1) b ON a.ss_ticket_number = b.t"
            .into(),
    ));
    out.push((
        "right_join_probe",
        "SELECT i.i_item_sk, COUNT(s.ss_item_sk), SUM(s.q) \
         FROM (SELECT ss_item_sk, ss_quantity + 1 q FROM store_sales \
               WHERE ss_quantity > 10) s \
         RIGHT JOIN item i ON s.ss_item_sk = i.i_item_sk \
         GROUP BY i.i_item_sk ORDER BY i.i_item_sk"
            .into(),
    ));
    out.push((
        "full_join_probe",
        "SELECT COUNT(*), COUNT(s.ss_item_sk), COUNT(i.i_item_sk), SUM(s.ss_quantity) \
         FROM (SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 18) s \
         FULL OUTER JOIN (SELECT i_item_sk FROM item WHERE i_item_sk > 100) i \
         ON s.ss_item_sk = i.i_item_sk"
            .into(),
    ));
    // q88's shape: two branches scan `store_sales` with one projection
    // and different filters — one shared read — each joined to a
    // filtered dimension, so a semijoin reducer checks the published
    // morsels at both sites.
    let q88_branch = |(name, lo, hi, dep): (&str, i32, i32, i32)| {
        format!(
            "(SELECT COUNT(*) c, SUM(ss_quantity) q FROM store_sales, household_demographics \
             WHERE ss_hdemo_sk = hd_demo_sk AND hd_dep_count = {dep} \
             AND ss_quantity BETWEEN {lo} AND {hi}) {name}"
        )
    };
    out.push((
        "q88_shared_scan",
        format!(
            "SELECT * FROM {}, {}",
            q88_branch(("s1", 1, 8, 0)),
            q88_branch(("s2", 9, 20, 2))
        ),
    ));
    out
}

/// (rows, sim_ms, fragment retries) per statement.
type Pass = Vec<(Vec<String>, f64, u64)>;

fn run_all(server: &HiveServer) -> Pass {
    statements()
        .iter()
        .map(|(id, sql)| {
            let r = server
                .session()
                .execute(sql)
                .unwrap_or_else(|e| panic!("{id} failed: {e}"));
            (r.display_rows(), r.sim_ms, r.fragment_retries)
        })
        .collect()
}

fn oracle_rows() -> Vec<Vec<String>> {
    let interpreter = load_server(HiveConf::v3_1().with(|c| {
        c.vectorized = false;
        c.parallel_threads = 1;
    }));
    run_all(&interpreter).into_iter().map(|r| r.0).collect()
}

#[test]
fn statements_match_the_row_interpreter_under_every_configuration() {
    let oracle = oracle_rows();
    assert!(oracle.iter().all(|rows| !rows.is_empty()));
    let server = load_server(HiveConf::v3_1());
    let base = server.conf();
    type Variant = (&'static str, fn(&mut HiveConf));
    let variants: [Variant; 6] = [
        ("1 thread", |c| c.parallel_threads = 1),
        ("2 threads", |c| c.parallel_threads = 2),
        ("8 threads", |c| c.parallel_threads = 8),
        ("llap off", |c| c.llap_enabled = false),
        ("shared work off", |c| c.shared_work = false),
        // Denies every group-by its grant: the spilled build.
        ("tiny memory budget", |c| c.memory_per_query_bytes = 4 << 10),
    ];
    for (name, tweak) in variants {
        server.set_conf(|c| {
            *c = base.clone();
            c.parallel_threads = 2;
            tweak(c);
        });
        // Every row starts from a cold cache.
        server.llap().cache().clear();
        for (((id, _), want), (rows, _, _)) in
            statements().iter().zip(&oracle).zip(run_all(&server))
        {
            assert_eq!(&rows, want, "{id} diverged with {name}");
        }
    }
}

/// The row interpreter shares the Sort, Window and LIMIT operators with
/// the vectorized engine, so a consumer that lost a part of its input
/// would lose it in both modes. Count what each returns against the
/// aggregate's count of the same filter, which folds the parts itself.
#[test]
fn assembling_consumers_keep_every_morsel() {
    let server = load_server(HiveConf::v3_1().with(|c| c.parallel_threads = 2));
    let run = |sql: &str| server.session().execute(sql).unwrap().display_rows();
    let count = |filter: &str| -> usize {
        run(&format!("SELECT COUNT(*) FROM store_sales WHERE {filter}"))[0]
            .parse()
            .unwrap()
    };
    let statement = |id: &str| statements().into_iter().find(|s| s.0 == id).unwrap().1;
    assert_eq!(run(&statement("sort")).len(), count("ss_quantity > 15"));
    assert_eq!(run(&statement("window")).len(), count("ss_quantity < 4"));
    // More matching rows than the limit, over more than one morsel.
    assert!(count("ss_quantity = 7") > 2 * 200);
    assert_eq!(run(&statement("limit")).len(), 200);
}

/// Plan `sql` on `server` and execute it through the engine, shared
/// work prepared: its output and its trace tree.
fn traced(server: &HiveServer, sql: &str) -> (hive_common::SelBatch, hive_exec::NodeTrace) {
    use hive_optimizer::{Analyzer, MetastoreCatalog, Optimizer, OptimizerContext};
    let hive_sql::Statement::Query(q) = hive_sql::parse_sql(sql).unwrap() else {
        panic!("not a query: {sql}");
    };
    let (ms, conf) = (server.metastore(), server.conf());
    let cat = MetastoreCatalog::new(ms.clone(), "default".to_string());
    let analyzed = Analyzer::new(&cat).analyze_query(&q).unwrap();
    let octx = OptimizerContext {
        metastore: ms,
        conf: &conf,
        usable_views: vec![],
        feedback: Default::default(),
    };
    let plan = Optimizer::optimize(analyzed, &octx).unwrap();
    let snaps = hive_exec::WideOpenSnapshots(ms);
    let mut ctx =
        hive_exec::ExecContext::new(server.fs(), ms, &conf, Some(server.llap()), &snaps, None);
    ctx.prepare_shared_work(&plan);
    hive_exec::execute_sel(&plan, &ctx).unwrap()
}

/// A LIMIT walks its input's parts in order and keeps those it needs,
/// the last truncated: over the eight-morsel scan, whose every morsel
/// holds fewer than 200 matching rows, the statement's result is
/// assembled from the 200 rows it returns and no more.
#[test]
fn limit_copies_at_most_its_rows() {
    let server = load_server(HiveConf::v3_1().with(|c| c.parallel_threads = 2));
    let sql = statements().into_iter().find(|s| s.0 == "limit").unwrap().1;
    let (out, trace) = traced(&server, &sql);
    let mut limit = None;
    trace.visit(&mut |t| {
        if t.label == "Limit" {
            limit = Some((t.rows_in, t.rows_out));
        }
    });
    let (rows_in, rows_out) = limit.expect("the plan keeps its LIMIT");
    assert!(
        rows_in > 2 * 200,
        "the scan offers more than the limit: {rows_in}"
    );
    assert_eq!((rows_out, out.num_rows()), (200, 200));
    assert!(
        out.batch.num_rows() <= 200,
        "{} rows copied to return 200",
        out.batch.num_rows()
    );
}

#[test]
fn thread_count_moves_neither_simulated_time_nor_retries() {
    // With a cache that holds the working set. (Under one that
    // overflows, two workers race for residency and the split between
    // disk and cache bytes — hence simulated time — follows the race.)
    let passes: Vec<Pass> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let conf = HiveConf::v3_1().with(|c| c.parallel_threads = threads);
            let server = load_server_with_cache(conf, 64 << 20);
            let mut cold_then_warm = run_all(&server);
            cold_then_warm.extend(run_all(&server));
            cold_then_warm
        })
        .collect();
    assert_eq!(passes[1], passes[0], "2 threads against 1");
    assert_eq!(passes[2], passes[0], "8 threads against 1");
}

#[test]
fn tpcds_suite_matches_the_row_interpreter() {
    // `tests/parallel_determinism.rs` pins the vectorized engine at
    // 1 = 2 = 8 threads; this pins 2 threads to the row interpreter on
    // this file's multi-part layout.
    let queries = tpcds::queries();
    let interpreter = load_server(HiveConf::v3_1().with(|c| {
        c.vectorized = false;
        c.parallel_threads = 1;
    }));
    let vectorized = load_server(HiveConf::v3_1().with(|c| c.parallel_threads = 2));
    for q in &queries {
        let want = interpreter
            .session()
            .execute(&q.sql)
            .unwrap()
            .display_rows();
        let got = vectorized.session().execute(&q.sql).unwrap().display_rows();
        assert_eq!(got, want, "{} diverged from the row interpreter", q.id);
    }
}

#[test]
fn faulted_statements_recover_to_the_same_rows_and_replay_exactly() {
    let oracle = oracle_rows();
    let plan = FaultPlan::none().with(|p| {
        p.seed = 0x5ca1_ab1e;
        p.daemon_kill_prob = 0.5;
        p.cache_corruption_prob = 0.2;
        p.dfs_read_error_prob = 0.05;
        p.dfs_slow_prob = 0.1;
        p.dfs_slow_ms = 4.0;
    });
    let run = |threads: usize, cache_bytes: usize| {
        let conf = HiveConf::v3_1().with(|c| c.parallel_threads = threads);
        let server = load_server_with_cache(conf, cache_bytes);
        server.set_conf(|c| c.fault = plan.clone());
        // Twice: the second pass meets resident (and corruptible) chunks.
        let first = run_all(&server);
        let second = run_all(&server);
        (first, second)
    };
    let check = |passes: &(Pass, Pass), what: &str| {
        assert!(
            passes.0.iter().chain(&passes.1).any(|r| r.2 > 0),
            "{what}: the fault plan never fired"
        );
        for pass in [&passes.0, &passes.1] {
            for (((id, _), want), (rows, _, _)) in statements().iter().zip(&oracle).zip(pass) {
                assert_eq!(rows, want, "{id} diverged under faults, {what}");
            }
        }
    };
    // A cache that holds everything: which worker reads a chunk first
    // cannot change what is resident, so two threads replay exactly.
    let roomy = run(2, 64 << 20);
    check(&roomy, "2 threads, roomy cache");
    assert_eq!(run(2, 64 << 20), roomy, "exact replay at 2 threads");
    // A cache that overflows: eviction order follows reference order,
    // which only one thread fixes.
    let tight = run(1, SMALL_CACHE);
    check(&tight, "1 thread, small cache");
    assert_eq!(run(1, SMALL_CACHE), tight, "exact replay with evictions");
    check(&run(8, SMALL_CACHE), "8 threads, small cache");
}

#[test]
fn small_cache_evicts_the_same_chunks_every_run() {
    let counts = || {
        let server = load_server(HiveConf::v3_1().with(|c| c.parallel_threads = 1));
        run_all(&server);
        run_all(&server);
        let stats = server.llap().cache().stats();
        let (hits, misses) = stats.hit_miss();
        let evictions = stats.evictions.load(std::sync::atomic::Ordering::Relaxed);
        (hits, misses, evictions, server.llap().cache().len())
    };
    let first = counts();
    assert!(first.2 > 100, "the cache never overflowed: {first:?}");
    assert!(first.0 > 0, "nothing was ever re-read from the cache");
    assert_eq!(counts(), first);
}

#[test]
fn branches_sharing_a_scan_still_read_the_table_once() {
    // q88's shape: independent aggregates over one table under
    // different filters. The shared scan's first site publishes its
    // morsels' raw batches; each site filters its parts in the morsel
    // workers, so both aggregates fold one part per morsel.
    let branch = |lo: i32| {
        format!(
            "(SELECT COUNT(*) c FROM store_sales WHERE ss_quantity BETWEEN {lo} AND {}) ",
            lo + 4
        )
    };
    let both = format!("SELECT a.c, b.c FROM {}a, {}b", branch(1), branch(11));
    let run = |shared: bool, sql: &str| {
        let server = load_server(HiveConf::v3_1().with(|c| {
            c.shared_work = shared;
            c.llap_enabled = false;
        }));
        let r = server.session().execute(sql).unwrap();
        (r.display_rows(), r.bytes_disk)
    };
    let one = |lo: i32| format!("SELECT c FROM {}a", branch(lo));
    let (rows_a, bytes_one) = run(true, &one(1));
    let (rows_b, _) = run(true, &one(11));
    let (rows_shared, bytes_shared) = run(true, &both);
    let (rows_apart, bytes_apart) = run(false, &both);
    assert_eq!(rows_shared, vec![format!("{}\t{}", rows_a[0], rows_b[0])]);
    assert_eq!(rows_apart, rows_shared);
    assert_ne!(rows_a[0], "0");
    // Quantities are uniform over 1..20, so no row group is skipped: one
    // branch reads the whole column, two unshared branches read it twice.
    assert_eq!(bytes_shared, bytes_one, "the shared plan re-read its table");
    assert_eq!(bytes_apart, 2 * bytes_one);

    // Both sites do their row work on two workers: the publishing read
    // over its morsels, the reusing one over the published batches.
    let server = load_server(HiveConf::v3_1().with(|c| c.parallel_threads = 2));
    let (out, trace) = traced(&server, &both);
    assert_eq!(out.num_rows(), 1);
    let mut scans = Vec::new();
    trace.visit(&mut |t| {
        if t.label == "Scan(default.store_sales)" {
            let reuses = t.children.iter().any(|c| c.shared_reuse);
            scans.push((reuses, t.parallel_workers));
        }
    });
    scans.sort();
    assert_eq!(
        scans,
        vec![(false, 2), (true, 2)],
        "(reuses, workers) per site"
    );
}
