//! Full-system tests through the public SQL surface: DDL, ACID DML,
//! results cache, MV rewriting and rebuild, compaction, federation,
//! workload management, and engine-version gating.

use hive_common::{DataType, Field, HiveConf, Row, Schema, Value, VectorBatch};
use hive_core::HiveServer;

fn server() -> HiveServer {
    HiveServer::new(HiveConf::v3_1())
}

fn setup_sales(s: &HiveServer) {
    let sess = s.session();
    sess.execute(
        "CREATE TABLE store_sales (
            ss_item_sk INT, ss_sales_price DECIMAL(7,2), ss_quantity INT
         ) PARTITIONED BY (ss_sold_date_sk INT)",
    )
    .unwrap();
    sess.execute("CREATE TABLE item (i_item_sk INT, i_category STRING, PRIMARY KEY (i_item_sk))")
        .unwrap();
    for i in 0..12 {
        sess.execute(&format!("INSERT INTO item VALUES ({i}, 'cat{}')", i % 3))
            .unwrap();
    }
    // Two day-partitions of sales.
    for day in [1, 2] {
        let values: Vec<String> = (0..60)
            .map(|i| format!("({}, {}.50, {}, {day})", i % 12, (i % 9) + 1, i % 5 + 1))
            .collect();
        sess.execute(&format!(
            "INSERT INTO store_sales VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
}

/// A DECIMAL product past `i128` is the typed `decimal overflow in *`
/// error, whether its operands are columns or CASTs; decimal values past
/// `i64` travel beside narrow ones through scans and aggregates.
#[test]
fn decimal_products_past_i128_fail_typed() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE d (a DECIMAL(38,1))").unwrap();
    sess.execute("INSERT INTO d VALUES (12345678901234567890.5), (1.5)")
        .unwrap();
    for sql in [
        "SELECT a * a FROM d",
        "SELECT CAST(12345678901234567890.5 AS DECIMAL(38,1)) \
         * CAST(12345678901234567890.5 AS DECIMAL(38,1))",
    ] {
        let err = sess.execute(sql).unwrap_err();
        assert!(
            err.to_string().contains("decimal overflow in *"),
            "{sql}: {err}"
        );
    }
    let r = sess
        .execute("SELECT SUM(a), MIN(a), MAX(a), COUNT(*) FROM d")
        .unwrap();
    assert_eq!(
        r.display_rows(),
        vec!["12345678901234567892.0\t1.5\t12345678901234567890.5\t2"]
    );
    let r = sess.execute("SELECT a * 2 FROM d WHERE a < 2").unwrap();
    assert_eq!(r.display_rows(), vec!["3.0"]);
}

#[test]
fn create_insert_select_round_trip() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let r = sess.execute("SELECT COUNT(*) FROM store_sales").unwrap();
    assert_eq!(r.display_rows(), vec!["120"]);
    let r = sess
        .execute("SELECT COUNT(*) FROM store_sales WHERE ss_sold_date_sk = 1")
        .unwrap();
    assert_eq!(r.display_rows(), vec!["60"]);
    let r = sess
        .execute(
            "SELECT i_category, SUM(ss_sales_price) AS s
             FROM store_sales, item WHERE ss_item_sk = i_item_sk
             GROUP BY i_category ORDER BY i_category",
        )
        .unwrap();
    assert_eq!(r.num_rows(), 3);
}

#[test]
fn results_cache_serves_repeats_and_invalidates() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let q = "SELECT SUM(ss_quantity) FROM store_sales";
    let first = sess.execute(q).unwrap();
    assert!(!first.from_cache);
    let second = sess.execute(q).unwrap();
    assert!(second.from_cache, "identical query must hit the cache");
    assert_eq!(first.display_rows(), second.display_rows());
    assert!(second.sim_ms < first.sim_ms, "cached fetch is ~free");
    // New data invalidates.
    sess.execute("INSERT INTO store_sales VALUES (1, 9.99, 1, 3)")
        .unwrap();
    let third = sess.execute(q).unwrap();
    assert!(!third.from_cache);
    assert_ne!(first.display_rows(), third.display_rows());
}

#[test]
fn nondeterministic_queries_bypass_cache() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let q = "SELECT COUNT(*) FROM item WHERE rand() < 2.0";
    let a = sess.execute(q).unwrap();
    let b = sess.execute(q).unwrap();
    assert!(!a.from_cache && !b.from_cache);
}

#[test]
fn update_delete_through_sql() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let r = sess
        .execute("UPDATE item SET i_category = 'sports' WHERE i_item_sk < 3")
        .unwrap();
    assert_eq!(r.affected_rows, 3);
    let r = sess
        .execute("SELECT COUNT(*) FROM item WHERE i_category = 'sports'")
        .unwrap();
    assert_eq!(r.display_rows(), vec!["3"]);
    let r = sess
        .execute("DELETE FROM item WHERE i_item_sk >= 9")
        .unwrap();
    assert_eq!(r.affected_rows, 3);
    let r = sess.execute("SELECT COUNT(*) FROM item").unwrap();
    assert_eq!(r.display_rows(), vec!["9"]);
}

#[test]
fn merge_statement_updates_and_inserts() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE target (k INT, v STRING)")
        .unwrap();
    sess.execute("CREATE TABLE source (k INT, v STRING)")
        .unwrap();
    sess.execute("INSERT INTO target VALUES (1, 'old1'), (2, 'old2')")
        .unwrap();
    sess.execute("INSERT INTO source VALUES (2, 'new2'), (3, 'new3')")
        .unwrap();
    let r = sess
        .execute(
            "MERGE INTO target t USING source s ON t.k = s.k
             WHEN MATCHED THEN UPDATE SET v = s.v
             WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.v)",
        )
        .unwrap();
    assert_eq!(r.affected_rows, 2);
    let r = sess.execute("SELECT k, v FROM target ORDER BY k").unwrap();
    assert_eq!(r.display_rows(), vec!["1\told1", "2\tnew2", "3\tnew3"]);
}

#[test]
fn merge_delete_arm() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE t2 (k INT, v INT)").unwrap();
    sess.execute("CREATE TABLE s2 (k INT, flag INT)").unwrap();
    sess.execute("INSERT INTO t2 VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    sess.execute("INSERT INTO s2 VALUES (1, 1), (2, 0)")
        .unwrap();
    sess.execute(
        "MERGE INTO t2 USING s2 ON t2.k = s2.k
         WHEN MATCHED AND s2.flag = 1 THEN DELETE",
    )
    .unwrap();
    let r = sess.execute("SELECT k FROM t2 ORDER BY k").unwrap();
    assert_eq!(r.display_rows(), vec!["2", "3"]);
}

#[test]
fn materialized_view_rewriting_paper_figure4() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE store_sales2 (ss_sold_date_sk INT, ss_sales_price DECIMAL(7,2))")
        .unwrap();
    sess.execute("CREATE TABLE date_dim (d_date_sk INT, d_year INT, d_moy INT, d_dom INT)")
        .unwrap();
    // date_dim: 3 years of months.
    let mut dd = Vec::new();
    let mut sk = 0;
    for y in 2016..=2018 {
        for m in 1..=12 {
            dd.push(format!("({sk}, {y}, {m}, 1)"));
            sk += 1;
        }
    }
    sess.execute(&format!("INSERT INTO date_dim VALUES {}", dd.join(", ")))
        .unwrap();
    // Fact rows: many sales per day so the view/complement split is
    // clearly cheaper than recomputation (the cost-based decision).
    let mut ss = Vec::new();
    for day in 0..sk {
        for i in 0..25 {
            ss.push(format!("({day}, {}.00)", (day + i) % 50 + 1));
        }
    }
    sess.execute(&format!(
        "INSERT INTO store_sales2 VALUES {}",
        ss.join(", ")
    ))
    .unwrap();

    // Figure 4(a): the materialized view.
    sess.execute(
        "CREATE MATERIALIZED VIEW mat_view AS
         SELECT d_year, d_moy, d_dom, SUM(ss_sales_price) AS sum_sales
         FROM store_sales2, date_dim
         WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
         GROUP BY d_year, d_moy, d_dom",
    )
    .unwrap();

    // Figure 4(b): fully contained query — must be rewritten.
    let q1 = "SELECT SUM(ss_sales_price) AS sum_sales
              FROM store_sales2, date_dim
              WHERE ss_sold_date_sk = d_date_sk AND d_year = 2018 AND d_moy IN (1,2,3)";
    let r1 = sess.execute(q1).unwrap();
    assert!(r1.used_mv, "q1 should be answered from the view");
    // Cross-check against the direct computation with rewriting off.
    s.set_conf(|c| c.mv_rewriting = false);
    let direct = sess.execute(q1).unwrap();
    assert!(!direct.used_mv);
    assert_eq!(r1.display_rows(), direct.display_rows());
    s.set_conf(|c| c.mv_rewriting = true);

    // Figure 4(c): partially contained query (d_year > 2016 vs > 2017).
    let q2 = "SELECT d_year, d_moy, SUM(ss_sales_price) AS sum_sales
              FROM store_sales2, date_dim
              WHERE ss_sold_date_sk = d_date_sk AND d_year > 2016
              GROUP BY d_year, d_moy";
    let r2 = sess.execute(q2).unwrap();
    s.set_conf(|c| c.mv_rewriting = false);
    let direct2 = sess.execute(q2).unwrap();
    s.set_conf(|c| c.mv_rewriting = true);
    let mut a = r2.display_rows();
    let mut b = direct2.display_rows();
    a.sort();
    b.sort();
    assert_eq!(a, b, "partial rewriting must preserve results");
    assert!(r2.used_mv, "q2 should use the union rewrite");
}

#[test]
fn stale_mv_not_used_until_rebuilt() {
    for results_cache in [true, false] {
        let s = server();
        s.set_conf(|c| c.results_cache = results_cache);
        let sess = s.session();
        sess.execute("CREATE TABLE base_t (k INT, v INT)").unwrap();
        // Enough rows that the cost-based optimizer prefers the (smaller)
        // materialization over recomputation.
        let vals: Vec<String> = (0..200).map(|i| format!("({}, 1)", i % 2 + 1)).collect();
        sess.execute(&format!("INSERT INTO base_t VALUES {}", vals.join(", ")))
            .unwrap();
        sess.execute(
            "CREATE MATERIALIZED VIEW mv_sum AS
             SELECT k, SUM(v) AS s FROM base_t GROUP BY k",
        )
        .unwrap();
        let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k ORDER BY k";
        assert!(sess.execute(q).unwrap().used_mv);
        // New data → stale → not used, and results stay correct.
        sess.execute("INSERT INTO base_t VALUES (1, 5)").unwrap();
        let r = sess.execute(q).unwrap();
        assert!(!r.used_mv, "stale view must not answer queries");
        assert!(!r.from_cache, "an entry outlived a write to its table");
        assert_eq!(r.display_rows(), vec!["1\t105", "2\t100"]);
        // Rebuild refreshes it. The rows the stale-view query computed
        // from the base table are still that table's rows, so with the
        // results cache on they answer — in front of the planner,
        // reporting the `used_mv` of the run that filled the entry. With
        // it off the planner is asked, and chooses the view again.
        sess.execute("ALTER MATERIALIZED VIEW mv_sum REBUILD")
            .unwrap();
        let r = sess.execute(q).unwrap();
        assert_eq!(r.from_cache, results_cache);
        assert_eq!(r.used_mv, !results_cache, "cache={results_cache}");
        assert_eq!(r.display_rows(), vec!["1\t105", "2\t100"]);
        // Either way the rebuilt view holds the new sums, and the next
        // write to the base table ends the cached answer with it.
        let direct = sess.execute("SELECT k, s FROM mv_sum ORDER BY k").unwrap();
        assert_eq!(direct.display_rows(), vec!["1\t105", "2\t100"]);
        sess.execute("INSERT INTO base_t VALUES (2, 7)").unwrap();
        let r = sess.execute(q).unwrap();
        assert!(!r.used_mv && !r.from_cache);
        assert_eq!(r.display_rows(), vec!["1\t105", "2\t107"]);
    }
}

#[test]
fn auto_compaction_triggers_on_many_deltas() {
    let s = server();
    s.set_conf(|c| c.compaction_delta_threshold = 8);
    let sess = s.session();
    sess.execute("CREATE TABLE hot (k INT)").unwrap();
    for i in 0..20 {
        sess.execute(&format!("INSERT INTO hot VALUES ({i})"))
            .unwrap();
    }
    // Compactions ran (visible in the queue history or by the directory
    // shape: far fewer than 20 deltas remain).
    let table = s.metastore().get_table("default", "hot").unwrap();
    let entries = s.fs().list(&hive_dfs::DfsPath::new(&table.location));
    assert!(
        entries.len() < 15,
        "compaction should have merged deltas, found {} entries",
        entries.len()
    );
    // Data intact.
    let r = sess.execute("SELECT COUNT(*) FROM hot").unwrap();
    assert_eq!(r.display_rows(), vec!["20"]);
}

#[test]
fn druid_federation_pushdown() {
    let s = server();
    // Create a datasource directly in "Druid" (it pre-exists, like the
    // paper's my_druid_source).
    let schema = Schema::new(vec![
        Field::new("__time", DataType::Timestamp),
        Field::new("d1", DataType::String),
        Field::new("m1", DataType::Double),
    ]);
    s.druid()
        .create_datasource("my_druid_source", &schema)
        .unwrap();
    let rows: Vec<Row> = (0..200)
        .map(|i| {
            Row::new(vec![
                Value::Timestamp((17500 + i % 400) as i64 * 86_400_000_000),
                Value::String(format!("d{}", i % 7)),
                Value::Double(i as f64),
            ])
        })
        .collect();
    s.druid()
        .ingest(
            "my_druid_source",
            &VectorBatch::from_rows(&schema, &rows).unwrap(),
        )
        .unwrap();

    let sess = s.session();
    // Map a Hive external table onto it — schema inferred (§6.1).
    sess.execute(
        "CREATE EXTERNAL TABLE my_druid_source ()
         STORED BY 'druid'
         TBLPROPERTIES ('druid.datasource' = 'my_druid_source')",
    )
    .unwrap();
    // The paper's Figure 6 query shape.
    let r = sess
        .execute(
            "SELECT d1, SUM(m1) AS s FROM my_druid_source
             GROUP BY d1 ORDER BY s DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.num_rows(), 3);
    // Verify the plan carries a generated Druid JSON query.
    let explain = sess
        .execute(
            "EXPLAIN SELECT d1, SUM(m1) AS s FROM my_druid_source
             GROUP BY d1 ORDER BY s DESC LIMIT 3",
        )
        .unwrap();
    let text = explain.message.unwrap();
    assert!(text.contains("Scan"), "{text}");
    // Descending sums.
    let sums: Vec<f64> = r
        .rows()
        .iter()
        .map(|row| row.get(1).as_f64().unwrap())
        .collect();
    assert!(sums[0] >= sums[1] && sums[1] >= sums[2]);
}

#[test]
fn jdbc_federation_receives_generated_sql() {
    let s = server();
    s.jdbc().create_table(
        "remote_orders",
        Schema::new(vec![
            Field::new("o_id", DataType::Int),
            Field::new("o_total", DataType::Double),
        ]),
    );
    s.jdbc()
        .insert(
            "remote_orders",
            (0..50)
                .map(|i| Row::new(vec![Value::Int(i), Value::Double(i as f64 * 1.5)]))
                .collect(),
        )
        .unwrap();
    let sess = s.session();
    sess.execute("CREATE EXTERNAL TABLE remote_orders () STORED BY 'jdbc'")
        .unwrap();
    let r = sess
        .execute("SELECT o_id FROM remote_orders WHERE o_total > 60.0 ORDER BY o_id")
        .unwrap();
    assert_eq!(r.num_rows(), 9); // o_total > 60 → ids 41..49
    let received = s.jdbc().received_sql();
    assert!(
        received.iter().any(|q| q.contains("WHERE")),
        "filter should be pushed as generated SQL: {received:?}"
    );
}

#[test]
fn workload_manager_enforces_pools() {
    let s = server();
    setup_sales(&s);
    s.activate_resource_plan(hive_llap::ResourcePlan::paper_example())
        .unwrap();
    // bi pool (visualization_app) admits 5 concurrent; sequential
    // queries release their slot, so all succeed.
    let sess = s.session_for("alice", Some("visualization_app"));
    for _ in 0..7 {
        sess.execute("SELECT COUNT(*) FROM item").unwrap();
    }
    assert_eq!(s.workload(|w| w.running_in("bi")), 0, "slots released");
}

#[test]
fn admission_slot_released_on_every_driver_path() {
    let s = server();
    setup_sales(&s);
    s.activate_resource_plan(hive_llap::ResourcePlan::paper_example())
        .unwrap();
    let sess = s.session_for("alice", Some("visualization_app"));
    let pools_empty = |s: &HiveServer| {
        s.workload(|w| w.running_in("bi")) == 0 && s.workload(|w| w.running_in("etl")) == 0
    };

    // Error path: analysis fails after admission.
    assert!(sess.execute("SELECT * FROM no_such_table").is_err());
    assert!(pools_empty(&s), "error path leaked an admission slot");

    // Cache-hit path: second run serves from the results cache but
    // still admits and releases.
    sess.execute("SELECT COUNT(*) FROM item").unwrap();
    let r = sess.execute("SELECT COUNT(*) FROM item").unwrap();
    assert!(r.from_cache, "second run should hit the results cache");
    assert!(pools_empty(&s), "cache-hit path leaked an admission slot");

    // Trigger-move path: the downgrade trigger fires (threshold 1 ms —
    // every real query exceeds it) and the query completes, its slot
    // released from the pool it was moved TO.
    let mut plan = hive_llap::ResourcePlan::paper_example();
    plan.triggers[0].total_runtime_ms_threshold = 1;
    s.activate_resource_plan(plan).unwrap();
    let r = sess
        .execute("SELECT i_category, COUNT(*) FROM item GROUP BY i_category")
        .unwrap();
    assert!(r.sim_ms > 1.0, "query must outlive the 1 ms threshold");
    assert!(
        pools_empty(&s),
        "trigger-move path leaked an admission slot"
    );

    // Trigger-kill path: a kill trigger at the threshold errors the
    // query AND releases its slot.
    let mut plan = hive_llap::ResourcePlan::paper_example();
    plan.triggers = vec![hive_llap::Trigger {
        name: "reaper".into(),
        pool: "bi".into(),
        total_runtime_ms_threshold: 1,
        action: hive_llap::TriggerAction::Kill,
    }];
    s.activate_resource_plan(plan).unwrap();
    let err = sess
        .execute("SELECT ss_item_sk, SUM(ss_quantity) FROM store_sales GROUP BY ss_item_sk")
        .unwrap_err();
    assert!(
        err.to_string().contains("killed by trigger reaper"),
        "got: {err}"
    );
    assert!(
        pools_empty(&s),
        "trigger-kill path leaked an admission slot"
    );
}

#[test]
fn group_mappings_route_sessions_end_to_end() {
    let s = server();
    setup_sales(&s);
    // Route the `analysts` group to bi, where a 1 ms kill trigger
    // awaits: a group-routed query dies, an unmapped one (default pool
    // etl) survives — proof the session's groups reached the router.
    let mut plan = hive_llap::ResourcePlan::paper_example();
    plan.mappings = vec![hive_llap::Mapping::Group {
        name: "analysts".into(),
        pool: "bi".into(),
    }];
    plan.triggers = vec![hive_llap::Trigger {
        name: "reaper".into(),
        pool: "bi".into(),
        total_runtime_ms_threshold: 1,
        action: hive_llap::TriggerAction::Kill,
    }];
    s.activate_resource_plan(plan).unwrap();
    let analyst = s.session_with_groups("dana", None, &["analysts".to_string()]);
    let err = analyst
        .execute("SELECT COUNT(*) FROM store_sales")
        .unwrap_err();
    assert!(err.to_string().contains("pool bi"), "got: {err}");
    let batch = s.session_for("dana", None);
    batch.execute("SELECT COUNT(*) FROM store_sales").unwrap();
    assert_eq!(s.workload(|w| w.running_in("bi")), 0);
    assert_eq!(s.workload(|w| w.running_in("etl")), 0);
}

#[test]
fn activate_validates_plan_and_preserves_live_slots() {
    let s = server();
    // A typo'd move target is rejected at activation, not at runtime.
    let mut bad = hive_llap::ResourcePlan::paper_example();
    bad.triggers[0].action = hive_llap::TriggerAction::MoveToPool("etk".into());
    assert!(s.activate_resource_plan(bad).is_err());

    // Activation with queries in flight keeps their accounting exact.
    s.activate_resource_plan(hive_llap::ResourcePlan::paper_example())
        .unwrap();
    let slot = s
        .workload(|w| w.admit("alice", Some("visualization_app"), &[]))
        .unwrap();
    assert_eq!(s.workload(|w| w.running_in("bi")), 1);
    s.activate_resource_plan(hive_llap::ResourcePlan::paper_example())
        .unwrap();
    assert_eq!(
        s.workload(|w| w.running_in("bi")),
        1,
        "activation wiped a live slot"
    );
    drop(slot);
    assert_eq!(s.workload(|w| w.running_in("bi")), 0);
}

#[test]
fn hive_1_2_rejects_new_sql_surface() {
    let s = server();
    setup_sales(&s);
    s.set_conf(|c| *c = HiveConf::v1_2());
    let sess = s.session();
    // Plain queries still run.
    sess.execute("SELECT COUNT(*) FROM item").unwrap();
    // Post-1.2 features are rejected (the Figure 7 "could not be
    // executed" mechanism).
    for q in [
        "SELECT i_item_sk FROM item INTERSECT SELECT i_item_sk FROM item",
        "SELECT i_item_sk FROM item EXCEPT SELECT i_item_sk FROM item",
        "SELECT i_category FROM item ORDER BY i_item_sk",
        "DELETE FROM item WHERE i_item_sk = 1",
    ] {
        let err = sess.execute(q).unwrap_err();
        assert!(
            matches!(err, hive_common::HiveError::Unsupported(_)),
            "{q} should be rejected: {err}"
        );
    }
}

#[test]
fn reoptimization_recovers_from_join_budget() {
    let s = server();
    setup_sales(&s);
    // A tiny budget forces a retryable failure on the first attempt.
    s.set_conf(|c| c.hash_join_row_budget = 2);
    let sess = s.session();
    let r = sess
        .execute("SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk")
        .unwrap();
    // Under HIVE_SPILL_SWEEP the env forces a memory budget, and the
    // same overflow degrades to a grace join on the first attempt
    // instead of failing retryably.
    let conf = s.conf();
    if conf.effective_spill_enabled() && conf.effective_memory_per_query_bytes() > 0 {
        assert!(!r.reexecuted, "spill-enabled run must degrade in place");
    } else {
        assert!(
            r.reexecuted,
            "query should have been re-optimized and retried"
        );
    }
    assert_eq!(r.display_rows(), vec!["120"]);
}

#[test]
fn explain_shows_plan() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let r = sess
        .execute("EXPLAIN SELECT COUNT(*) FROM store_sales WHERE ss_sold_date_sk = 1")
        .unwrap();
    let text = r.message.unwrap();
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("Scan[default.store_sales]"), "{text}");
    assert!(
        text.contains("partitions=1"),
        "partition pruning visible: {text}"
    );
}

#[test]
fn show_tables_and_use() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE DATABASE tpcds").unwrap();
    sess.execute("USE tpcds").unwrap();
    sess.execute("CREATE TABLE t1 (a INT)").unwrap();
    let r = sess.execute("SHOW TABLES").unwrap();
    assert_eq!(r.display_rows(), vec!["t1"]);
    assert!(sess.execute("USE nonexistent").is_err());
}

#[test]
fn snapshot_isolation_across_sessions() {
    let s = server();
    let a = s.session();
    a.execute("CREATE TABLE iso (k INT)").unwrap();
    a.execute("INSERT INTO iso VALUES (1)").unwrap();
    let b = s.session();
    assert_eq!(
        b.execute("SELECT COUNT(*) FROM iso")
            .unwrap()
            .display_rows(),
        vec!["1"]
    );
    a.execute("INSERT INTO iso VALUES (2)").unwrap();
    assert_eq!(
        b.execute("SELECT COUNT(*) FROM iso")
            .unwrap()
            .display_rows(),
        vec!["2"]
    );
}

#[test]
fn ctas_creates_and_fills() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    sess.execute(
        "CREATE TABLE cat_counts AS
         SELECT i_category, COUNT(*) AS c FROM item GROUP BY i_category",
    )
    .unwrap();
    let r = sess.execute("SELECT COUNT(*) FROM cat_counts").unwrap();
    assert_eq!(r.display_rows(), vec!["3"]);
}

#[test]
fn analyze_table_refreshes_stats() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    sess.execute("ANALYZE TABLE item COMPUTE STATISTICS")
        .unwrap();
    let stats = s.metastore().table_stats("default.item");
    assert_eq!(stats.row_count, 12);
    assert_eq!(stats.columns[0].ndv_estimate(), 12);
}

#[test]
fn multi_insert_is_one_transaction() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE src (k INT, v INT)").unwrap();
    sess.execute("CREATE TABLE pos (k INT, v INT)").unwrap();
    sess.execute("CREATE TABLE neg (k INT, v INT)").unwrap();
    sess.execute("INSERT INTO src VALUES (1, 5), (2, -3), (3, 7), (4, -1)")
        .unwrap();
    // The paper's §3.2 multi-insert: both tables written in ONE txn.
    let r = sess
        .execute(
            "FROM src
             INSERT INTO pos SELECT k, v WHERE v > 0
             INSERT INTO neg SELECT k, v WHERE v < 0",
        )
        .unwrap();
    assert_eq!(r.affected_rows, 4);
    assert_eq!(
        sess.execute("SELECT k FROM pos ORDER BY k")
            .unwrap()
            .display_rows(),
        vec!["1", "3"]
    );
    assert_eq!(
        sess.execute("SELECT k FROM neg ORDER BY k")
            .unwrap()
            .display_rows(),
        vec!["2", "4"]
    );
    // Both legs share one WriteId-allocating transaction: the write ids
    // of the two tables advanced exactly once each.
    assert_eq!(s.metastore().table_write_hwm("default.pos").raw(), 1);
    assert_eq!(s.metastore().table_write_hwm("default.neg").raw(), 1);
}

#[test]
fn multi_insert_failure_aborts_all_legs() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE src2 (k INT)").unwrap();
    sess.execute("CREATE TABLE ok_t (k INT)").unwrap();
    sess.execute("INSERT INTO src2 VALUES (1), (2)").unwrap();
    // Second leg references a missing table → whole statement aborts.
    let err = sess.execute(
        "FROM src2
         INSERT INTO ok_t SELECT k
         INSERT INTO missing_t SELECT k",
    );
    assert!(err.is_err());
    // The first leg's rows are invisible (aborted transaction).
    assert_eq!(
        sess.execute("SELECT COUNT(*) FROM ok_t")
            .unwrap()
            .display_rows(),
        vec!["0"]
    );
}

#[test]
fn materialized_view_stored_in_druid() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE clicks (ts TIMESTAMP, page STRING, dur DOUBLE)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "(TIMESTAMP '2020-01-{:02} 00:00:00', 'page{}', {}.0)",
                (i % 28) + 1,
                i % 5,
                i % 60
            )
        })
        .collect();
    sess.execute(&format!("INSERT INTO clicks VALUES {}", rows.join(", ")))
        .unwrap();
    // §4.4: materialized views "can be stored natively by Hive or in
    // other supported systems" — here the materialization lands in the
    // Druid substrate via the storage handler.
    sess.execute(
        "CREATE MATERIALIZED VIEW clicks_flat
         STORED BY 'druid'
         TBLPROPERTIES ('druid.datasource' = 'clicks_flat')
         AS SELECT ts AS __time, page, dur FROM clicks",
    )
    .unwrap();
    assert!(s.druid().has_datasource("clicks_flat"));
    // Queries over the Druid-backed MV run through federation pushdown.
    let r = sess
        .execute(
            "SELECT page, SUM(dur) AS total FROM clicks_flat
             GROUP BY page ORDER BY page",
        )
        .unwrap();
    assert_eq!(r.num_rows(), 5);
    // Cross-check against the source table.
    let direct = sess
        .execute("SELECT page, SUM(dur) AS total FROM clicks GROUP BY page ORDER BY page")
        .unwrap();
    assert_eq!(r.display_rows(), direct.display_rows());
}

#[test]
fn describe_and_show_partitions() {
    let s = server();
    setup_sales(&s);
    let sess = s.session();
    let r = sess.execute("SHOW PARTITIONS store_sales").unwrap();
    assert_eq!(
        r.display_rows(),
        vec!["ss_sold_date_sk=1", "ss_sold_date_sk=2"]
    );
    let r = sess.execute("DESCRIBE store_sales").unwrap();
    let rows = r.display_rows();
    assert!(rows.iter().any(|l| l.starts_with("ss_item_sk\tINT")));
    assert!(rows
        .iter()
        .any(|l| l.starts_with("ss_sold_date_sk\tINT\tpartition column")));
    let r = sess.execute("DESCRIBE EXTENDED store_sales").unwrap();
    assert!(r.display_rows().iter().any(|l| l.starts_with("#rows\t120")));
}

#[test]
fn druid_top_n_pushes_limit_spec() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE clicks (ts TIMESTAMP, page STRING, dur DOUBLE)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "(TIMESTAMP '2020-01-{:02} 00:00:00', 'page{}', {}.0)",
                (i % 28) + 1,
                i % 10,
                i % 60
            )
        })
        .collect();
    sess.execute(&format!("INSERT INTO clicks VALUES {}", rows.join(", ")))
        .unwrap();
    sess.execute(
        "CREATE MATERIALIZED VIEW clicks_druid
         STORED BY 'druid'
         TBLPROPERTIES ('druid.datasource' = 'clicks_druid')
         AS SELECT ts AS __time, page, dur FROM clicks",
    )
    .unwrap();
    // Figure 6's shape: top-N over the Druid-backed table. The Sort and
    // Limit fold into the pushed query's limitSpec, so Druid truncates
    // before transfer, and results still match the native table exactly.
    let federated = sess
        .execute(
            "SELECT page, SUM(dur) AS total FROM clicks_druid
             GROUP BY page ORDER BY total DESC, page LIMIT 3",
        )
        .unwrap();
    let native = sess
        .execute(
            "SELECT page, SUM(dur) AS total FROM clicks
             GROUP BY page ORDER BY total DESC, page LIMIT 3",
        )
        .unwrap();
    assert_eq!(federated.num_rows(), 3);
    assert_eq!(federated.display_rows(), native.display_rows());
}

#[test]
fn show_transactions_reports_states() {
    let s = server();
    let sess = s.session();
    sess.execute("CREATE TABLE t (a INT)").unwrap();
    sess.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // The committed insert transaction is visible in the listing.
    let r = sess.execute("SHOW TRANSACTIONS").unwrap();
    assert!(r.num_rows() >= 1);
    let rows = r.display_rows();
    assert!(
        rows.iter()
            .any(|row| row.contains("Committed") && row.contains("default.t")),
        "committed txn with its table listed: {rows:?}"
    );
    // A failed multi-insert statement leaves an aborted transaction.
    let _ = sess.execute("FROM t INSERT INTO t SELECT a INSERT INTO missing_t SELECT a");
    let r = sess.execute("SHOW TRANSACTIONS").unwrap();
    let rows = r.display_rows();
    assert!(
        rows.iter().any(|row| row.contains("Aborted")),
        "aborted txn visible: {rows:?}"
    );
}
