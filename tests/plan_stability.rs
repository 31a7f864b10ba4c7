//! Plans do not move: the `EXPLAIN` text of the curated TPC-DS suite and
//! of one text per `bi_short` template (with its materialized view), and
//! the estimator's output for every node of their analyzed and optimized
//! plans as raw `f64` bits, must equal `tests/golden/plan_stability.txt`.
//! A change to how statistics are stored, fetched or summarized may move
//! planning *time*; any difference here means it moved an *estimate*.
//!
//! The second test is the deterministic gate for "planning in O(plan)":
//! one `Optimizer::optimize` fetches each table's statistics snapshot at
//! most once and derives each column summary at most once.
//!
//! The golden file is rewritten by `PLAN_STABILITY_BLESS=1 cargo test
//! --test plan_stability` — run that on the commit whose plans are the
//! reference, never to make a failing change pass.

use hive_metastore::histogram::summaries_built;
use hive_metastore::{Metastore, TableStats};
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::stats::{estimate_rows, GatedStats, StatsSource};
use hive_optimizer::{Analyzer, MetastoreCatalog, Optimizer, OptimizerContext};
use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{HiveConf, HiveServer};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// `summaries_built` counts for the whole process: the tests of this
/// binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/plan_stability.txt"
);

/// `bench/e2e`'s warehouse seed and the tiny sibling of its scale.
const SEED: u64 = 2019;

const MV_SQL: &str = "CREATE MATERIALIZED VIEW mv_daily_store AS \
     SELECT ss_sold_date_sk, ss_store_sk, SUM(ss_ext_sales_price) AS total, COUNT(*) AS cnt \
     FROM store_sales GROUP BY ss_sold_date_sk, ss_store_sk";

fn load_server() -> HiveServer {
    for var in ["HIVE_HISTOGRAMS_ENABLED", "HIVE_PARALLEL_THREADS"] {
        std::env::remove_var(var);
    }
    let server = HiveServer::new(HiveConf::v3_1());
    tpcds::load(&server, TpcdsScale::tiny(), SEED).unwrap();
    server
}

/// One text per `bench/e2e` `bi_short` template.
fn bi_short_texts() -> Vec<(&'static str, String)> {
    let day = tpcds::base_date_sk() + 3;
    vec![
        (
            "bi_rollup",
            format!(
                "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total, COUNT(*) AS cnt \
                 FROM store_sales WHERE ss_sold_date_sk = {day} GROUP BY ss_store_sk"
            ),
        ),
        (
            "bi_item",
            "SELECT i_item_id, i_category, i_brand, i_current_price FROM item \
             WHERE i_item_sk = 17"
                .to_string(),
        ),
        (
            "bi_category",
            format!(
                "SELECT i_brand, SUM(ss_sales_price) AS sales FROM store_sales, item \
                 WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = {day} AND i_category = 'Books' \
                 GROUP BY i_brand ORDER BY sales DESC, i_brand LIMIT 10"
            ),
        ),
        (
            "bi_customer",
            "SELECT c_first_name, c_last_name, ca_city, ca_state \
             FROM customer, customer_address \
             WHERE c_current_addr_sk = ca_address_sk AND c_customer_sk = 42"
                .to_string(),
        ),
    ]
}

fn node_kind(p: &LogicalPlan) -> &'static str {
    match p {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Values { .. } => "Values",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Window { .. } => "Window",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
        LogicalPlan::Union { .. } => "Union",
        LogicalPlan::SetOp { .. } => "SetOp",
    }
}

/// `estimate_rows` of every node (pre-order, semijoin sources included)
/// as raw bits, histograms on and then off.
fn estimates(out: &mut String, label: &str, plan: &LogicalPlan, server: &HiveServer) {
    for use_histograms in [true, false] {
        let gated = GatedStats {
            inner: server.metastore(),
            use_histograms,
            feedback: HashMap::new(),
        };
        writeln!(out, "-- estimates: {label}, histograms={use_histograms}").unwrap();
        plan.visit(&mut |p| {
            let bits = estimate_rows(p, &gated).to_bits();
            writeln!(out, "{} {bits:016x}", node_kind(p)).unwrap();
        });
    }
}

/// EXPLAIN through the session (MV rewriting, feedback and federation as
/// a query sees them), then the node estimates of the analyzed plan and
/// of the plan the public optimizer entry point makes of it.
fn describe(out: &mut String, id: &str, sql: &str, server: &HiveServer) {
    writeln!(out, "== {id} ==").unwrap();
    let explained = server
        .session()
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap_or_else(|e| panic!("EXPLAIN {id}: {e}"));
    out.push_str(explained.message.as_deref().unwrap_or(""));
    let hive_sql::Statement::Query(q) = hive_sql::parse_sql(sql).unwrap() else {
        panic!("{id} is not a query");
    };
    let cat = MetastoreCatalog::new(server.metastore().clone(), "default".to_string());
    let analyzed = Analyzer::new(&cat).analyze_query(&q).unwrap();
    estimates(out, "analyzed", &analyzed, server);
    let conf = server.conf();
    let ctx = OptimizerContext {
        metastore: server.metastore(),
        conf: &conf,
        usable_views: vec![],
        feedback: HashMap::new(),
    };
    let optimized = Optimizer::optimize(analyzed, &ctx).unwrap();
    estimates(out, "optimized", &optimized, server);
}

#[test]
fn plans_and_estimates_match_the_golden_file() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = load_server();
    let mut out = String::new();
    for q in tpcds::queries() {
        describe(&mut out, q.id, &q.sql, &server);
    }
    server.session().execute(MV_SQL).unwrap();
    for (id, sql) in bi_short_texts() {
        describe(&mut out, id, &sql, &server);
    }
    if std::env::var_os("PLAN_STABILITY_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/plan_stability.txt");
    for (n, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "first difference at golden line {}", n + 1);
    }
    assert_eq!(out.lines().count(), golden.lines().count(), "line count");
}

/// A [`StatsSource`] that counts the snapshot fetches per table.
struct CountingStats<'a> {
    inner: &'a Metastore,
    fetches: Mutex<HashMap<String, usize>>,
}

impl StatsSource for CountingStats<'_> {
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats> {
        *self
            .fetches
            .lock()
            .unwrap()
            .entry(qualified_name.to_string())
            .or_default() += 1;
        self.inner.table_stats(qualified_name)
    }
}

fn join_count(plan: &LogicalPlan) -> usize {
    let mut n = 0;
    plan.visit(&mut |p| n += usize::from(matches!(p, LogicalPlan::Join { .. })));
    n
}

#[test]
fn one_optimize_fetches_each_table_once_and_derives_each_summary_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = load_server();
    let cat = MetastoreCatalog::new(server.metastore().clone(), "default".to_string());
    // The suite's deepest join tree over the most tables.
    let analyzed = tpcds::queries()
        .iter()
        .map(|q| {
            let hive_sql::Statement::Query(ast) = hive_sql::parse_sql(&q.sql).unwrap() else {
                panic!("{} is not a query", q.id);
            };
            Analyzer::new(&cat).analyze_query(&ast).unwrap()
        })
        .max_by_key(|p| (p.referenced_tables().len(), join_count(p)))
        .unwrap();
    assert!(
        join_count(&analyzed) >= 3,
        "the suite has deep join queries"
    );
    let conf = server.conf();
    assert!(conf.cbo_enabled && conf.semijoin_reduction && conf.effective_histograms_enabled());
    let ctx = OptimizerContext {
        metastore: server.metastore(),
        conf: &conf,
        usable_views: vec![],
        feedback: HashMap::new(),
    };
    let optimize = || {
        let counting = CountingStats {
            inner: server.metastore(),
            fetches: Mutex::new(HashMap::new()),
        };
        let built_before = summaries_built();
        let plan = Optimizer::optimize_with_stats(analyzed.clone(), &ctx, &counting).unwrap();
        let fetches = counting.fetches.into_inner().unwrap();
        (plan, fetches, summaries_built() - built_before)
    };

    let (plan, fetches, built_cold) = optimize();
    let tables = plan.referenced_tables();
    assert!(tables.len() >= 4, "{tables:?}");
    for t in &tables {
        assert_eq!(
            fetches.get(t),
            Some(&1),
            "snapshot fetches of {t}: {fetches:?}"
        );
    }
    assert!(fetches.values().all(|&n| n == 1), "{fetches:?}");
    // Summaries are per column actually asked about: at most one per
    // column of the tables the estimator fetched, and some.
    let columns: usize = fetches
        .keys()
        .map(|t| server.metastore().table_stats(t).columns.len())
        .sum();
    assert!(
        (1..=columns as u64).contains(&built_cold),
        "{built_cold} of {columns}"
    );

    // Nothing was written in between: the published states still hold
    // their summaries, and a second planning derives none.
    let (again, fetches_again, built_warm) = optimize();
    assert_eq!(again.explain(), plan.explain());
    assert_eq!(fetches_again, fetches);
    assert_eq!(built_warm, 0, "a warm SELECT sorts no sample");
}

/// The base tables a subtree scans, semijoin reducer sources excluded.
fn scanned(plan: &LogicalPlan, out: &mut Vec<String>) {
    if let LogicalPlan::Scan { table, .. } = plan {
        out.push(table.qualified_name.clone());
    }
    for c in plan.children() {
        scanned(c, out);
    }
}

/// Every inner equi-join of a query whose authored order probed the
/// fact table with a dimension (q43's `date_dim` and `store`, q65's
/// store × item pairs) builds on the dimension side once optimized:
/// the fact table is never on a join's right, and no right input is
/// estimated larger than its left.
#[test]
fn fact_joins_build_on_the_dimension_side() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = load_server();
    let cat = MetastoreCatalog::new(server.metastore().clone(), "default".to_string());
    let conf = server.conf();
    let ctx = OptimizerContext {
        metastore: server.metastore(),
        conf: &conf,
        usable_views: vec![],
        feedback: HashMap::new(),
    };
    for id in ["q43", "q65"] {
        let q = tpcds::queries().into_iter().find(|q| q.id == id).unwrap();
        let hive_sql::Statement::Query(ast) = hive_sql::parse_sql(&q.sql).unwrap() else {
            panic!("{id} is not a query");
        };
        let analyzed = Analyzer::new(&cat).analyze_query(&ast).unwrap();
        let plan = Optimizer::optimize(analyzed, &ctx).unwrap();
        let mut joins = 0;
        plan.visit(&mut |p| {
            let LogicalPlan::Join {
                left,
                right,
                join_type: hive_optimizer::plan::JoinType::Inner,
                equi,
                ..
            } = p
            else {
                return;
            };
            if equi.is_empty() {
                return;
            }
            joins += 1;
            let mut build = Vec::new();
            scanned(right, &mut build);
            assert!(
                !build.iter().any(|t| t.ends_with("store_sales")),
                "{id} builds on {build:?}:\n{}",
                plan.explain()
            );
            let (l, r) = (
                estimate_rows(left, server.metastore()),
                estimate_rows(right, server.metastore()),
            );
            assert!(
                r <= l,
                "{id}: build {r} rows, probe {l}:\n{}",
                plan.explain()
            );
        });
        assert!(joins > 0, "{id} has an inner equi-join");
    }
}

/// A settled plan is left alone: the exhaustive stage, run on its own
/// output, reports no change after its first pass and hands back the
/// same `Arc` — for every curated query and every `bi_short` template.
#[test]
fn the_exhaustive_stage_leaves_a_settled_plan_alone() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = load_server();
    let cat = MetastoreCatalog::new(server.metastore().clone(), "default".to_string());
    let curated = tpcds::queries().into_iter().map(|q| (q.id, q.sql));
    for (id, sql) in curated.chain(bi_short_texts()) {
        let hive_sql::Statement::Query(q) = hive_sql::parse_sql(&sql).unwrap() else {
            panic!("{id} is not a query");
        };
        let analyzed = Arc::new(Analyzer::new(&cat).analyze_query(&q).unwrap());
        let settled = Optimizer::exhaustive(&analyzed).data;
        let again = Optimizer::exhaustive(&settled);
        assert!(
            !again.transformed,
            "{id}: a pass over the settled plan reported a change"
        );
        assert!(
            Arc::ptr_eq(&again.data, &settled),
            "{id}: the settled plan came back rebuilt"
        );
    }
}
