//! Physical-IR differential suite: the vectorized engine compiles every
//! predicate — Filter/Project chains, scan predicates (shared-work scans
//! included), aggregate accumulators and join residuals — and must
//! return the row interpreter's rows (`vectorized = false`, the Hive 1.2
//! engine and the reference). The curated TPC-DS suite runs in
//! `tests/differential.rs`; here property tests drive randomly generated
//! predicate trees — mixed-scale decimal literals, NULL literals,
//! CASE-produced NULLs, nested AND/OR/NOT — through both engines and
//! require identical row sets, as plain filters, as shared-scan
//! residuals, as aggregate inputs and as join residual predicates; the
//! `pir_compiled_stages`/`pir_fallback_rows` counters then prove the
//! compiled paths actually ran rather than silently falling back, and a
//! seeded fault plan must replay exactly.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{FaultPlan, HiveConf, HiveServer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Env knobs override the conf fields; this binary manages both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// Big enough that scans span several row groups and partitions, so
/// fused scan predicates and engine-level chains both run for real.
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

fn load_server(vectorized: bool, threads: usize) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.vectorized = vectorized;
    conf.parallel_threads = threads;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

// ---------------------------------------------------------------------
// Property tests: random predicate trees, compiled versus the row
// interpreter.
// ---------------------------------------------------------------------

/// A row-interpreter and a vectorized server, loaded once and reused
/// across all proptest cases (loading dominates per-case cost
/// otherwise).
fn servers() -> &'static (HiveServer, HiveServer) {
    static CELL: OnceLock<(HiveServer, HiveServer)> = OnceLock::new();
    CELL.get_or_init(|| (load_server(false, 1), load_server(true, 1)))
}

/// Integer-valued store_sales columns.
fn int_col() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("ss_quantity"),
        Just("ss_customer_sk"),
        Just("ss_item_sk"),
        Just("ss_store_sk"),
    ]
}

/// DECIMAL(7,2)-valued store_sales columns.
fn dec_col() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("ss_list_price"),
        Just("ss_net_profit"),
        Just("ss_wholesale_cost"),
    ]
}

fn cmp_op() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
        Just("="),
        Just("<>"),
    ]
}

/// Predicate atoms: typed comparisons (including scale-3 decimal
/// literals against scale-2 columns and NULL literals), IS [NOT] NULL,
/// and CASE expressions that *produce* NULLs so three-valued logic is
/// exercised on data that carries no stored NULLs.
fn atom() -> impl Strategy<Value = String> {
    let int_lit = prop_oneof![
        (0i64..300).prop_map(|n| n.to_string()),
        Just("NULL".to_string()),
    ];
    let dec_lit = prop_oneof![
        // Scale-3 literals: exact mixed-scale comparison territory.
        (0i64..30_000).prop_map(|n| format!("{}.{:03}", n / 1000, n % 1000)),
        (0i64..100).prop_map(|n| n.to_string()),
        Just("NULL".to_string()),
    ];
    prop_oneof![
        (int_col(), cmp_op(), int_lit).prop_map(|(c, op, l)| format!("{c} {op} {l}")),
        (dec_col(), cmp_op(), dec_lit).prop_map(|(c, op, l)| format!("{c} {op} {l}")),
        (int_col(), any::<bool>())
            .prop_map(|(c, neg)| format!("{c} IS {}NULL", if neg { "NOT " } else { "" })),
        (int_col(), 0i64..40, cmp_op(), 0i64..40).prop_map(|(c, k, op, k2)| format!(
            "(CASE WHEN {c} > {k} THEN NULL ELSE {c} END) {op} {k2}"
        )),
    ]
}

/// Random predicate trees over the atoms: AND/OR/NOT to `depth`.
fn pred(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return atom().boxed();
    }
    let inner = pred(depth - 1);
    prop_oneof![
        atom(),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} AND {b})")),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} OR {b})")),
        inner.prop_map(|a| format!("(NOT {a})")),
    ]
    .boxed()
}

/// Cross-side residual atoms for `store_sales ⋈ item`: decimal×decimal
/// column comparisons (the vectorized `CmpCols` territory), mixed-scale
/// and NULL decimal literals, dict-encoded item strings (literal and
/// dict×dict), and int×int cross-side comparisons.
fn resid_atom() -> impl Strategy<Value = String> {
    let dec_lit = prop_oneof![
        // Scale-3 literals against DECIMAL(7,2) columns.
        (0i64..10_000).prop_map(|n| format!("{}.{:03}", n / 1000, n % 1000)),
        Just("NULL".to_string()),
    ];
    prop_oneof![
        (dec_col(), cmp_op()).prop_map(|(c, op)| format!("{c} {op} i_current_price")),
        (cmp_op(), dec_lit).prop_map(|(op, l)| format!("i_current_price {op} {l}")),
        (int_col(), cmp_op()).prop_map(|(c, op)| format!("{c} {op} i_manufact_id")),
        cmp_op().prop_map(|op| format!("i_category {op} 'Home'")),
        cmp_op().prop_map(|op| format!("i_brand {op} i_class")),
    ]
}

/// Random residual trees over the cross-side atoms (AND/OR/NOT).
fn resid_pred(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return resid_atom().boxed();
    }
    let inner = resid_pred(depth - 1);
    prop_oneof![
        resid_atom(),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} AND {b})")),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} OR {b})")),
        inner.prop_map(|a| format!("(NOT {a})")),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated predicate returns the row interpreter's row
    /// sequence — both as a pushed-down scan filter and as an
    /// engine-level filter above a projected subquery (where the fused
    /// chain includes the Project stage).
    #[test]
    fn random_predicates_agree_fused_and_interpreted(p in pred(3)) {
        let (off, on) = servers();
        let scan_sql = format!(
            "SELECT ss_ticket_number, ss_item_sk, ss_quantity \
             FROM store_sales WHERE {p}"
        );
        let expected = off.session().execute(&scan_sql).unwrap().display_rows();
        let got = on.session().execute(&scan_sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "scan-level divergence for {}", p);

        let chain_sql = format!(
            "SELECT t, q FROM (SELECT ss_ticket_number AS t, \
             ss_quantity + 0 AS q, ss_quantity, ss_customer_sk, \
             ss_item_sk, ss_store_sk, ss_list_price, ss_net_profit, \
             ss_wholesale_cost FROM store_sales) sub WHERE {p}"
        );
        let expected = off.session().execute(&chain_sql).unwrap().display_rows();
        let got = on.session().execute(&chain_sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "chain-level divergence for {}", p);
    }

    /// Any generated predicate feeding an aggregate returns the row
    /// interpreter's groups. The aggregate list covers every
    /// compiled accumulator — COUNT(*), COUNT(col), SUM/AVG over int
    /// and decimal, MIN/MAX — plus STDDEV_SAMP and COUNT(DISTINCT),
    /// which must take the interpreted fallback and still agree.
    #[test]
    fn random_aggregates_agree_fused_and_interpreted(p in pred(2)) {
        let (off, on) = servers();
        let sql = format!(
            "SELECT ss_store_sk, COUNT(*) AS c0, COUNT(ss_customer_sk) AS c1, \
             SUM(ss_quantity) AS s0, SUM(ss_list_price) AS s1, \
             MIN(ss_net_profit) AS m0, MAX(ss_wholesale_cost) AS m1, \
             AVG(ss_list_price) AS a0, AVG(ss_quantity) AS a1 \
             FROM store_sales WHERE {p} \
             GROUP BY ss_store_sk ORDER BY ss_store_sk"
        );
        let expected = off.session().execute(&sql).unwrap().display_rows();
        let got = on.session().execute(&sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "aggregate divergence for {}", p);

        let fb_sql = format!(
            "SELECT ss_store_sk, STDDEV_SAMP(ss_quantity) AS sd, \
             COUNT(DISTINCT ss_customer_sk) AS cd \
             FROM store_sales WHERE {p} \
             GROUP BY ss_store_sk ORDER BY ss_store_sk"
        );
        let expected = off.session().execute(&fb_sql).unwrap().display_rows();
        let got = on.session().execute(&fb_sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "fallback-aggregate divergence for {}", p);
    }

    /// Any generated residual tree over `store_sales ⋈ item` joins to
    /// the row interpreter's row sequence — the compiled pair-batch
    /// conjunction versus the per-pair row interpreter.
    #[test]
    fn random_join_residuals_agree_fused_and_interpreted(p in resid_pred(2)) {
        let (off, on) = servers();
        let sql = format!(
            "SELECT ss_ticket_number, ss_item_sk, i_current_price \
             FROM store_sales JOIN item ON ss_item_sk = i_item_sk AND ({p})"
        );
        let expected = off.session().execute(&sql).unwrap().display_rows();
        let got = on.session().execute(&sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "residual divergence for {}", p);
    }

    /// Two branches that scan `store_sales` with the same columns and
    /// different generated predicates share one raw read (§4.5); each
    /// applies its own residual to the published rows. They must keep
    /// the row interpreter's rows.
    #[test]
    fn random_predicates_on_a_shared_scan_agree_with_the_row_interpreter(
        p in pred(2),
        q in pred(2),
    ) {
        let (off, on) = servers();
        let branch = |pred: &str| format!(
            "SELECT ss_ticket_number, ss_quantity, ss_customer_sk, ss_item_sk, \
             ss_store_sk, ss_list_price, ss_net_profit, ss_wholesale_cost \
             FROM store_sales WHERE {pred}"
        );
        let sql = format!("{} UNION ALL {}", branch(&p), branch(&q));
        let expected = off.session().execute(&sql).unwrap().display_rows();
        let got = on.session().execute(&sql).unwrap().display_rows();
        prop_assert_eq!(&got, &expected, "shared-scan divergence for {} / {}", p, q);
    }
}

/// The counters prove the compiled paths executed: a compilable
/// aggregate and a compilable residual report compiled stages (and the
/// residual reports zero interpreted pairs), the row interpreter reports
/// zero everywhere, a non-compilable residual shape reports its
/// fallback pairs instead of pretending it compiled, and a shared scan's
/// residuals report their stages and rows as an unshared scan's do.
#[test]
fn counters_prove_compiled_paths_ran() {
    let (off, on) = servers();

    let agg_sql = "SELECT ss_store_sk, COUNT(*) AS c, SUM(ss_quantity) AS s, \
                   AVG(ss_list_price) AS a FROM store_sales \
                   WHERE ss_quantity < 50 GROUP BY ss_store_sk ORDER BY ss_store_sk";
    let r = on.session().execute(agg_sql).unwrap();
    assert!(
        r.pir_compiled_stages > 0,
        "compiled aggregate did not run (stages={})",
        r.pir_compiled_stages
    );
    let r_off = off.session().execute(agg_sql).unwrap();
    assert_eq!(
        r_off.pir_compiled_stages, 0,
        "the row interpreter must report no compiled stages"
    );
    assert_eq!(
        r_off.pir_fallback_rows, 0,
        "the row interpreter must report no fallback rows"
    );

    let join_sql = "SELECT ss_ticket_number, i_current_price FROM store_sales \
                    JOIN item ON ss_item_sk = i_item_sk \
                    AND ss_list_price > i_current_price";
    let r = on.session().execute(join_sql).unwrap();
    assert!(
        r.pir_compiled_stages > 0,
        "compiled residual did not run (stages={})",
        r.pir_compiled_stages
    );
    assert_eq!(
        r.pir_fallback_rows, 0,
        "a fully compiled residual must interpret no candidate pairs"
    );

    // Arithmetic inside the residual is not a kernel shape: the row
    // closure runs, and every candidate pair is accounted as fallback.
    let fb_sql = "SELECT ss_ticket_number FROM store_sales \
                  JOIN item ON ss_item_sk = i_item_sk \
                  AND ss_list_price + ss_wholesale_cost > i_current_price";
    let r = on.session().execute(fb_sql).unwrap();
    assert!(
        r.pir_fallback_rows > 0,
        "non-compilable residual must count interpreted pairs"
    );

    // A shared scan: with shared work on, the two branches read the
    // table once (fewer DFS bytes than apart) and each branch's residual
    // compiles over the published rows, counted as an unshared scan
    // counts it. Arithmetic is not a kernel shape: that branch's
    // residual interprets every raw row of the table.
    let server = load_server(true, 1);
    let branch =
        |pred: &str| format!("SELECT ss_ticket_number, ss_quantity FROM store_sales WHERE {pred}");
    let run = |shared: bool, sql: &str| {
        server.set_conf(|c| {
            c.shared_work = shared;
            c.llap_enabled = false;
            c.results_cache = false;
        });
        server.session().execute(sql).unwrap()
    };
    let compiled = format!(
        "{} UNION ALL {}",
        branch("ss_quantity < 20"),
        branch("ss_quantity > 90 AND ss_quantity IS NOT NULL")
    );
    let (shared, apart) = (run(true, &compiled), run(false, &compiled));
    assert!(
        shared.bytes_disk < apart.bytes_disk,
        "the branches did not share their scan ({} vs {} bytes)",
        shared.bytes_disk,
        apart.bytes_disk
    );
    assert_eq!(shared.display_rows(), apart.display_rows());
    assert!(shared.pir_compiled_stages >= 2);
    assert_eq!(
        (shared.pir_compiled_stages, shared.pir_fallback_rows),
        (apart.pir_compiled_stages, 0),
        "a shared scan's compiled residuals must count as unshared ones do"
    );
    let table_rows: u64 = run(true, "SELECT COUNT(*) FROM store_sales").display_rows()[0]
        .parse()
        .unwrap();
    let mixed = format!(
        "{} UNION ALL {}",
        branch("ss_quantity < 20"),
        branch("ss_quantity + 1 > 91")
    );
    let shared = run(true, &mixed);
    assert_eq!(
        shared.pir_fallback_rows, table_rows,
        "a shared scan's row-kernel residual interprets every published row"
    );
    assert_eq!(
        shared.pir_compiled_stages + 1,
        run(true, &compiled).pir_compiled_stages,
        "only the compiled branch counts a compiled stage"
    );
}

/// Aggregate and join-residual queries return the row interpreter's
/// rows at 1/2/8 threads under a seeded fault plan, and the charged
/// fault penalty replays exactly — compiled accumulators and
/// pair-batches must not make the per-stage fault rolls depend on
/// anything but the plan and the seed.
#[test]
fn agg_and_residual_fault_sweep_replays_exactly() {
    let agg_sql = "SELECT ss_store_sk, COUNT(*) AS c, SUM(ss_list_price) AS s, \
                   MIN(ss_net_profit) AS lo, MAX(ss_wholesale_cost) AS hi, \
                   AVG(ss_quantity) AS a FROM store_sales \
                   WHERE ss_quantity < 80 GROUP BY ss_store_sk ORDER BY ss_store_sk";
    let join_sql = "SELECT ss_ticket_number, ss_item_sk, i_current_price \
                    FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
                    AND (ss_list_price > i_current_price OR i_category = 'Home')";
    let plan = FaultPlan::none().with(|p| {
        p.seed = 0x000A_660F_F00D;
        p.daemon_kill_prob = 0.6;
        p.dfs_read_error_prob = 0.05;
        p.dfs_slow_prob = 0.15;
        p.dfs_slow_ms = 3.0;
    });
    let baseline_server = load_server(false, 1);
    for sql in [agg_sql, join_sql] {
        let baseline = baseline_server
            .session()
            .execute(sql)
            .unwrap()
            .display_rows();
        for threads in [1usize, 2, 8] {
            // A fresh server per run: killed daemons stay dead.
            let run = || -> (Vec<String>, f64, u64) {
                let server = load_server(true, threads);
                server.set_conf(|c| c.fault = plan.clone());
                let r = server.session().execute(sql).unwrap();
                (r.display_rows(), r.sim_ms, r.fragment_retries)
            };
            let (rows, ms, retries) = run();
            assert_eq!(
                rows, baseline,
                "faulted compiled run diverged at {threads} threads"
            );
            let (rows_again, ms_again, retries_again) = run();
            assert_eq!(rows_again, baseline);
            assert_eq!(
                (ms_again, retries_again),
                (ms, retries),
                "fault penalty did not replay at {threads} threads"
            );
        }
    }
}
