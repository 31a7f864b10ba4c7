//! Where the results cache sits (DESIGN.md §4.3): keyed on the analyzed
//! query and probed in front of the planner. Said without a clock —
//! `OPTIMIZE_CALLS` counts this thread's entries into
//! `Session::optimize_analyzed`.

use crate::driver::OPTIMIZE_CALLS;
use crate::{HiveServer, Session};
use hive_common::HiveConf;
use hive_optimizer::fingerprint::fingerprint;
use hive_sql as ast;

fn optimize_calls() -> u64 {
    OPTIMIZE_CALLS.with(|n| n.get())
}

/// `base_t` with 200 rows over two keys — enough that the cost-based
/// optimizer prefers a materialization over recomputation.
fn create_and_fill(sess: &Session) {
    sess.execute("CREATE TABLE base_t (k INT, v INT)").unwrap();
    let vals: Vec<String> = (0..200).map(|i| format!("({}, 1)", i % 2 + 1)).collect();
    sess.execute(&format!("INSERT INTO base_t VALUES {}", vals.join(", ")))
        .unwrap();
}

fn query(sql: &str) -> ast::Query {
    match hive_sql::parse_sql(sql).unwrap() {
        ast::Statement::Query(q) => q,
        other => panic!("not a query: {other:?}"),
    }
}

#[test]
fn a_hit_performs_no_optimization() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k ORDER BY k";
    let before = optimize_calls();
    let miss = sess.execute(q).unwrap();
    let after_miss = optimize_calls();
    assert!(!miss.from_cache && after_miss > before);
    for _ in 0..3 {
        let hit = sess.execute(q).unwrap();
        assert!(hit.from_cache);
        assert_eq!(hit.display_rows(), miss.display_rows());
    }
    assert_eq!(
        optimize_calls(),
        after_miss,
        "a hit went through the planner"
    );
}

#[test]
fn texts_that_only_optimize_alike_are_two_entries() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    let plain = "SELECT k, v FROM base_t WHERE k = 1";
    let wrapped = "SELECT k, v FROM (SELECT k, v FROM base_t) s WHERE k = 1";
    // The premise, checked: one optimized plan, two analyzed ones.
    let conf = server.conf();
    let optimized = |sql| fingerprint(&sess.plan_query(&query(sql), &conf).unwrap().0);
    let analyzed = |sql| fingerprint(&sess.analyze_query(&query(sql)).unwrap());
    assert_eq!(optimized(plain), optimized(wrapped));
    assert_ne!(analyzed(plain), analyzed(wrapped));

    assert!(!sess.execute(plain).unwrap().from_cache);
    assert!(!sess.execute(wrapped).unwrap().from_cache);
    assert_eq!(server.results_cache().len(), 2);
    assert!(sess.execute(plain).unwrap().from_cache);
    assert!(sess.execute(wrapped).unwrap().from_cache);
}

#[test]
fn one_text_under_two_current_databases_is_two_entries() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    for (db, v) in [("db_a", 1), ("db_b", 2)] {
        sess.execute(&format!("CREATE DATABASE {db}")).unwrap();
        sess.execute(&format!("USE {db}")).unwrap();
        sess.execute("CREATE TABLE t (v INT)").unwrap();
        sess.execute(&format!("INSERT INTO t VALUES ({v})"))
            .unwrap();
    }
    let q = "SELECT v FROM t";
    for (db, rows) in [("db_a", "1"), ("db_b", "2"), ("db_a", "1"), ("db_b", "2")] {
        sess.execute(&format!("USE {db}")).unwrap();
        assert_eq!(sess.execute(q).unwrap().display_rows(), vec![rows]);
    }
    assert_eq!(server.results_cache().stats(), (2, 2));
}

#[test]
fn mv_rewriting_on_and_off_never_share_an_entry_and_a_hit_reports_its_fills_used_mv() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    sess.execute("CREATE MATERIALIZED VIEW mv_sum AS SELECT k, SUM(v) AS s FROM base_t GROUP BY k")
        .unwrap();
    let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k ORDER BY k";
    let over_view = sess.execute(q).unwrap();
    assert!(over_view.used_mv && !over_view.from_cache);
    server.set_conf(|c| c.mv_rewriting = false);
    let over_base = sess.execute(q).unwrap();
    assert!(!over_base.used_mv && !over_base.from_cache);
    assert_eq!(over_base.display_rows(), over_view.display_rows());
    for (rewriting, used_mv) in [(false, false), (true, true), (false, false)] {
        server.set_conf(|c| c.mv_rewriting = rewriting);
        let hit = sess.execute(q).unwrap();
        assert!(hit.from_cache);
        assert_eq!(hit.used_mv, used_mv, "mv_rewriting = {rewriting}");
    }
    // A rebuild changes the view the first entry read, and only it.
    sess.execute("ALTER MATERIALIZED VIEW mv_sum REBUILD")
        .unwrap();
    assert!(sess.execute(q).unwrap().from_cache, "the base-table entry");
    server.set_conf(|c| c.mv_rewriting = true);
    let r = sess.execute(q).unwrap();
    assert!(!r.from_cache && r.used_mv, "the entry over the old view");
}

/// A non-deterministic expression keeps a query out of the cache
/// wherever the plan holds it — sort keys, join conditions and window
/// specifications as much as filters and projections.
#[test]
fn nondeterministic_sort_join_and_window_expressions_are_never_cached() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    for q in [
        "SELECT k FROM base_t ORDER BY rand()",
        "SELECT a.k FROM base_t a JOIN base_t b ON a.k = b.k AND rand() < 2 WHERE a.v = 7",
        "SELECT k, SUM(v) OVER (PARTITION BY k ORDER BY rand()) AS s FROM base_t",
    ] {
        for run in 0..2 {
            let r = sess.execute(q).unwrap();
            assert!(
                !r.from_cache,
                "run {run} of `{q}` was answered from the cache"
            );
        }
    }
    assert_eq!(server.results_cache().len(), 0);
}
