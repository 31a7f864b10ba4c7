//! A dropped-and-recreated table is a different table. WriteId counters
//! are kept per *name* and survive `DROP TABLE`, so everything that
//! remembers "this name at WriteId n" — the results cache, a
//! materialized view's freshness, its incremental rebuild — must also
//! remember which creation of the name it meant
//! (`hive_metastore::Table::incarnation`). Each test fails at the commit
//! before that was so, three of them by serving the dropped table's rows.

use hive_common::HiveConf;
use hive_core::HiveServer;

/// `base_t` with 200 rows over two keys — enough that the cost-based
/// optimizer prefers a materialization over recomputation.
fn create_and_fill(sess: &hive_core::Session) {
    sess.execute("CREATE TABLE base_t (k INT, v INT)").unwrap();
    let vals: Vec<String> = (0..200).map(|i| format!("({}, 1)", i % 2 + 1)).collect();
    sess.execute(&format!("INSERT INTO base_t VALUES {}", vals.join(", ")))
        .unwrap();
}

fn recreate_empty(sess: &hive_core::Session) {
    sess.execute("DROP TABLE base_t").unwrap();
    sess.execute("CREATE TABLE base_t (k INT, v INT)").unwrap();
}

#[test]
fn results_cache_does_not_answer_for_a_recreated_table() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    let q = "SELECT k, v FROM base_t WHERE k = 1";
    assert_eq!(sess.execute(q).unwrap().num_rows(), 100);
    assert!(sess.execute(q).unwrap().from_cache, "the entry is there");
    recreate_empty(&sess);
    let r = sess.execute(q).unwrap();
    assert!(!r.from_cache, "the old table's entry answered");
    assert_eq!(r.num_rows(), 0, "the old table's rows");
    // And the new table's own entry behaves.
    assert!(sess.execute(q).unwrap().from_cache);
    sess.execute("INSERT INTO base_t VALUES (1, 7)").unwrap();
    assert_eq!(sess.execute(q).unwrap().display_rows(), vec!["1\t7"]);
}

#[test]
fn a_view_of_a_dropped_table_answers_nothing_cached_or_not() {
    for results_cache in [true, false] {
        let server = HiveServer::new(HiveConf::v3_1().with(|c| c.results_cache = results_cache));
        let sess = server.session();
        create_and_fill(&sess);
        sess.execute(
            "CREATE MATERIALIZED VIEW mv_sum AS SELECT k, SUM(v) AS s FROM base_t GROUP BY k",
        )
        .unwrap();
        let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k ORDER BY k";
        let r = sess.execute(q).unwrap();
        assert!(r.used_mv);
        assert_eq!(r.display_rows(), vec!["1\t100", "2\t100"]);
        recreate_empty(&sess);
        // Whatever the statistics say of the new table: with none, the
        // rewriter leaves the view alone for the wrong reason (an empty
        // table is cheaper to scan than any view).
        let mut stats = hive_metastore::TableStats::new(2);
        stats.row_count = 100_000;
        server.metastore().set_table_stats("default.base_t", stats);
        let r = sess.execute(q).unwrap();
        assert!(
            !r.used_mv && !r.from_cache,
            "cache={results_cache}: used_mv={} from_cache={}",
            r.used_mv,
            r.from_cache
        );
        assert!(r.display_rows().is_empty(), "the dropped table's sums");
        // A rebuild is over the new table, and makes the view usable.
        sess.execute("INSERT INTO base_t VALUES (1, 5), (1, 6)")
            .unwrap();
        sess.execute("ALTER MATERIALIZED VIEW mv_sum REBUILD")
            .unwrap();
        assert_eq!(
            sess.execute("SELECT k, s FROM mv_sum")
                .unwrap()
                .display_rows(),
            vec!["1\t11"]
        );
    }
}

#[test]
fn a_staleness_window_does_not_cover_a_recreated_source() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    sess.execute(
        "CREATE MATERIALIZED VIEW mv_sum TBLPROPERTIES ('rewriting.time.window' = '3600000') \
         AS SELECT k, SUM(v) AS s FROM base_t GROUP BY k",
    )
    .unwrap();
    let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k ORDER BY k";
    // Behind its source but inside the window: used, and what it
    // returns is good for the window only — never cached.
    sess.execute("INSERT INTO base_t VALUES (1, 5)").unwrap();
    for _ in 0..2 {
        let r = sess.execute(q).unwrap();
        assert!(r.used_mv && !r.from_cache);
        assert_eq!(r.display_rows(), vec!["1\t100", "2\t100"]);
    }
    // Stale is not the same as about another table.
    recreate_empty(&sess);
    let r = sess.execute(q).unwrap();
    assert!(!r.used_mv && r.display_rows().is_empty());
}

#[test]
fn an_incremental_rebuild_does_not_keep_a_dropped_sources_rows() {
    let server = HiveServer::new(HiveConf::v3_1());
    let sess = server.session();
    create_and_fill(&sess);
    // Select-project: eligible for the incremental (insert-only) rebuild,
    // which reads only records above the WriteId the view was built at.
    sess.execute("CREATE MATERIALIZED VIEW mv_ones AS SELECT k, v FROM base_t WHERE k = 1")
        .unwrap();
    assert_eq!(
        sess.execute("SELECT k FROM mv_ones").unwrap().num_rows(),
        100
    );
    recreate_empty(&sess);
    sess.execute("INSERT INTO base_t VALUES (1, 9)").unwrap();
    sess.execute("ALTER MATERIALIZED VIEW mv_ones REBUILD")
        .unwrap();
    assert_eq!(
        sess.execute("SELECT k, v FROM mv_ones")
            .unwrap()
            .display_rows(),
        vec!["1\t9"]
    );
}
