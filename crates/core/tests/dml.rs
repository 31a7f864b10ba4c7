//! UPDATE / DELETE / MERGE through the query engine: a model-based
//! generated-statement test across thread counts, LLAP on/off and a
//! seeded fault plan, plus the edge cases pinned by hand.

use hive_common::{FaultPlan, HiveConf};
use hive_core::{HiveServer, Session};
use hive_dfs::DfsPath;
use std::collections::BTreeMap;

fn server() -> HiveServer {
    HiveServer::new(HiveConf::v3_1())
}

fn run(s: &Session, sql: &str) -> hive_core::QueryResult {
    s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn rows(s: &Session, sql: &str) -> Vec<String> {
    run(s, sql).display_rows()
}

/// Every file under the warehouse with its length.
fn files(server: &HiveServer) -> Vec<(String, u64)> {
    server
        .fs()
        .list_files_recursive(&DfsPath::new("/warehouse"))
        .into_iter()
        .map(|(p, m)| (p.to_string(), m.len))
        .collect()
}

fn open_txns(s: &Session) -> usize {
    rows(s, "SHOW TRANSACTIONS")
        .iter()
        .filter(|r| r.contains("Open"))
        .count()
}

// ---- the model -----------------------------------------------------------

/// xorshift64*: the statements must be the same on every configuration.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `id -> (k, v, day)`; `k` is nullable (MERGE's insert column list
/// leaves it out).
type Model = BTreeMap<i64, (Option<i64>, String, i64)>;

const DAYS: u64 = 3;

fn render(model: &Model) -> Vec<String> {
    model
        .iter()
        .map(|(id, (k, v, day))| {
            let k = k.map_or("NULL".to_string(), |k| k.to_string());
            format!("{id}\t{k}\t{v}\t{day}")
        })
        .collect()
}

/// What one generated run observed, for comparison across configurations.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `affected_rows` of every statement, in order.
    affected: Vec<u64>,
    /// The final contents of both tables.
    rows: Vec<String>,
    files: Vec<(String, u64)>,
    retries: u64,
}

/// Apply `steps` random statements to the model and to a partitioned and
/// an unpartitioned table, checking both against the model after every
/// statement.
fn run_model(conf: HiveConf, seed: u64, steps: usize) -> Observed {
    let server = HiveServer::new(conf);
    let s = server.session();
    run(
        &s,
        "CREATE TABLE tp (id INT, k INT, v STRING) PARTITIONED BY (day INT)",
    );
    run(&s, "CREATE TABLE tu (id INT, k INT, v STRING, day INT)");
    let mut rng = Rng(seed | 1);
    let mut model = Model::new();
    let mut next_id = 0i64;
    let mut seen = Observed {
        affected: vec![],
        rows: vec![],
        files: vec![],
        retries: 0,
    };

    for step in 0..steps {
        // One statement text per table, and what it must affect.
        let mut staging: Vec<(i64, i64, String, i64)> = Vec::new();
        let (template, expect): (String, u64) = match rng.below(7) {
            0 | 1 => {
                let n = 1 + rng.below(5) as i64;
                let mut values = Vec::new();
                for _ in 0..n {
                    let (k, day) = (rng.below(50) as i64, rng.below(DAYS) as i64);
                    values.push(format!("({next_id}, {k}, 'i{step}', {day})"));
                    model.insert(next_id, (Some(k), format!("i{step}"), day));
                    next_id += 1;
                }
                (
                    format!("INSERT INTO {{t}} VALUES {}", values.join(", ")),
                    n as u64,
                )
            }
            2 => {
                let (lo, day) = (rng.below(50) as i64, rng.below(DAYS) as i64);
                type Pred = Box<dyn Fn(&(Option<i64>, String, i64)) -> bool>;
                let (filter, pred): (String, Pred) = match rng.below(4) {
                    0 => (String::new(), Box::new(|_| true)),
                    1 => (format!(" WHERE day = {day}"), Box::new(move |r| r.2 == day)),
                    _ => (
                        format!(" WHERE k >= {lo}"),
                        Box::new(move |r| r.0.is_some_and(|k| k >= lo)),
                    ),
                };
                let mut n = 0;
                for r in model.values_mut().filter(|r| pred(r)) {
                    r.0 = r.0.map(|k| k + 1);
                    r.1 = format!("u{step}");
                    n += 1;
                }
                (
                    format!("UPDATE {{t}} SET k = k + 1, v = 'u{step}'{filter}"),
                    n,
                )
            }
            3 => {
                let (a, day) = (rng.below(next_id.max(1) as u64) as i64, rng.below(DAYS));
                let before = model.len();
                let filter = match rng.below(8) {
                    0 => {
                        model.clear();
                        String::new()
                    }
                    1 | 2 => {
                        model.retain(|_, r| r.2 != day as i64);
                        format!(" WHERE day = {day}")
                    }
                    _ => {
                        model.retain(|id, _| !(a..a + 4).contains(id));
                        format!(" WHERE id BETWEEN {a} AND {}", a + 3)
                    }
                };
                (
                    format!("DELETE FROM {{t}}{filter}"),
                    (before - model.len()) as u64,
                )
            }
            arms => {
                // A staging table: distinct live ids (matched) and new
                // ids (not matched).
                let live: Vec<i64> = model.keys().copied().collect();
                for _ in 0..rng.below(6) {
                    if let Some(&id) = live.get(rng.below(live.len().max(1) as u64) as usize) {
                        if !staging.iter().any(|r| r.0 == id) {
                            staging.push((id, rng.below(50) as i64, format!("m{step}"), 0));
                        }
                    }
                }
                for _ in 0..rng.below(4) {
                    let day = rng.below(DAYS) as i64;
                    staging.push((next_id, rng.below(50) as i64, format!("n{step}"), day));
                    next_id += 1;
                }
                let mut n = 0;
                let text = match arms {
                    4 => {
                        for (id, k, v, _) in &staging {
                            if let Some(r) = model.get_mut(id) {
                                (r.0, r.1) = (Some(*k), v.clone());
                                n += 1;
                            }
                        }
                        "WHEN MATCHED THEN UPDATE SET k = s.k, v = s.v".to_string()
                    }
                    5 => {
                        for (id, k, _, _) in &staging {
                            match model.get_mut(id) {
                                Some(r) if *k >= 30 => {
                                    r.0 = r.0.map(|old| old + k);
                                    n += 1;
                                }
                                Some(_) if *k < 15 => {
                                    model.remove(id);
                                    n += 1;
                                }
                                _ => {}
                            }
                        }
                        "WHEN MATCHED AND s.k >= 30 THEN UPDATE SET k = t.k + s.k \
                         WHEN MATCHED AND s.k < 15 THEN DELETE"
                            .to_string()
                    }
                    _ => {
                        for (id, _, v, day) in &staging {
                            match model.get_mut(id) {
                                Some(r) => r.1 = v.clone(),
                                None => {
                                    model.insert(*id, (None, v.clone(), *day));
                                }
                            }
                            n += 1;
                        }
                        "WHEN MATCHED THEN UPDATE SET v = s.v \
                         WHEN NOT MATCHED THEN INSERT (id, v, day) VALUES (s.id, s.v, s.day)"
                            .to_string()
                    }
                };
                (
                    format!("MERGE INTO {{t}} t USING stage s ON t.id = s.id {text}"),
                    n,
                )
            }
        };

        if template.starts_with("MERGE") {
            run(&s, "DROP TABLE IF EXISTS stage");
            run(&s, "CREATE TABLE stage (id INT, k INT, v STRING, day INT)");
            if !staging.is_empty() {
                let values: Vec<String> = staging
                    .iter()
                    .map(|(id, k, v, day)| format!("({id}, {k}, '{v}', {day})"))
                    .collect();
                run(
                    &s,
                    &format!("INSERT INTO stage VALUES {}", values.join(", ")),
                );
            }
        }
        for t in ["tp", "tu"] {
            let sql = template.replace("{t}", t);
            let r = run(&s, &sql);
            assert_eq!(r.affected_rows, expect, "step {step}: {sql}");
            seen.affected.push(r.affected_rows);
            seen.retries += r.fragment_retries;
            let got = rows(&s, &format!("SELECT id, k, v, day FROM {t} ORDER BY id"));
            assert_eq!(got, render(&model), "step {step}: {sql}");
        }
    }
    assert_eq!(open_txns(&s), 0);
    seen.rows = render(&model);
    seen.files = files(&server);
    seen
}

#[test]
fn generated_dml_matches_the_model_on_every_configuration() {
    let conf = |threads: usize, llap: bool| {
        HiveConf::v3_1().with(|c| {
            c.parallel_threads = threads;
            c.llap_enabled = llap;
            // Low enough that the run compacts, minor and major.
            c.compaction_delta_threshold = 4;
        })
    };
    assert!(conf(1, true).auto_compaction);
    let reference = run_model(conf(1, true), 2019, 60);
    assert!(
        reference.files.iter().any(|(p, _)| p.contains("/base_")),
        "the run never compacted"
    );
    for (threads, llap) in [(2, true), (8, true), (1, false), (2, false), (8, false)] {
        // Rows, affected counts and the bytes of every file written.
        assert_eq!(
            run_model(conf(threads, llap), 2019, 60),
            reference,
            "threads={threads} llap={llap}"
        );
    }
    // Another statement sequence altogether.
    run_model(conf(2, true), 7, 60);
}

#[test]
fn generated_dml_under_faults_gives_the_same_rows_and_replays_its_retries() {
    let clean = run_model(HiveConf::v3_1(), 11, 40);
    let faulty = || {
        run_model(
            HiveConf::v3_1().with(|c| {
                c.fault = FaultPlan::none().with(|p| {
                    p.seed = 0xD31;
                    p.dfs_read_error_prob = 0.01;
                    p.fragment_failure_prob = 0.2;
                })
            }),
            11,
            40,
        )
    };
    let (a, b) = (faulty(), faulty());
    assert_eq!((&a.rows, &a.affected), (&clean.rows, &clean.affected));
    assert!(a.retries > 0, "the fault plan never fired");
    assert_eq!(a, b, "same seed, same recovery");
}

// ---- pinned by hand ------------------------------------------------------

fn target_and_source(s: &Session) {
    run(
        s,
        "CREATE TABLE t (id INT, k INT, v STRING) PARTITIONED BY (day INT)",
    );
    run(s, "CREATE TABLE src (id INT, k INT, v STRING, day INT)");
    run(
        s,
        "INSERT INTO t VALUES (1, 10, 'a', 1), (2, 20, 'b', 1), (3, 30, 'c', 2)",
    );
}

#[test]
fn null_join_keys_never_match() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    run(&s, "INSERT INTO t VALUES (NULL, 40, 'd', 2)");
    run(
        &s,
        "INSERT INTO src VALUES (NULL, 99, 'n', 3), (2, 21, 'B', 1)",
    );
    let r = run(
        &s,
        "MERGE INTO t USING src s ON t.id = s.id \
         WHEN MATCHED THEN UPDATE SET k = s.k, v = s.v \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    // The NULL-keyed source row matches nothing — not even the NULL-keyed
    // target row — and is inserted.
    assert_eq!(r.affected_rows, 2);
    assert_eq!(
        rows(&s, "SELECT id, k, v, day FROM t ORDER BY k"),
        [
            "1\t10\ta\t1",
            "2\t21\tB\t1",
            "3\t30\tc\t2",
            "NULL\t40\td\t2",
            "NULL\t99\tn\t3"
        ]
    );
}

#[test]
fn non_equi_on_gives_the_nested_loop_answer() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    // Mixed: the equality is the hash key, the inequality a residual.
    run(&s, "INSERT INTO src VALUES (1, 5, 'x', 1), (2, 25, 'y', 1)");
    let r = run(
        &s,
        "MERGE INTO t USING src s ON t.k < s.k AND t.id = s.id \
         WHEN MATCHED THEN UPDATE SET v = s.v \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id + 100, s.k, s.v, s.day)",
    );
    // (1, 10) vs (1, 5): 10 < 5 fails, so that source row is unmatched.
    assert_eq!(r.affected_rows, 2);
    assert_eq!(
        rows(&s, "SELECT id, k, v, day FROM t ORDER BY id"),
        ["1\t10\ta\t1", "2\t20\ty\t1", "3\t30\tc\t2", "101\t5\tx\t1"]
    );

    // Pure inequality: no hash key at all. One source row covers two
    // target rows; the other covers none and is inserted.
    run(&s, "DROP TABLE src");
    run(&s, "CREATE TABLE src (id INT, k INT, v STRING, day INT)");
    run(&s, "INSERT INTO src VALUES (7, 25, 'p', 3), (8, 1, 'q', 3)");
    let plan = rows(
        &s,
        "EXPLAIN MERGE INTO t USING src s ON t.k < s.k WHEN MATCHED THEN DELETE \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    assert!(plan[1].contains("Join[Right] on "), "{plan:?}");
    let r = run(
        &s,
        "MERGE INTO t USING src s ON t.k < s.k WHEN MATCHED THEN DELETE \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    assert_eq!(r.affected_rows, 4);
    assert_eq!(
        rows(&s, "SELECT id, k, v, day FROM t ORDER BY id"),
        ["3\t30\tc\t2", "8\t1\tq\t3"]
    );
}

#[test]
fn merge_from_a_subquery_source() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    run(
        &s,
        "INSERT INTO src VALUES (1, 1, 'x', 1), (1, 2, 'x', 1), (9, 3, 'z', 2)",
    );
    let r = run(
        &s,
        "MERGE INTO t USING (SELECT id, SUM(k) AS total, MAX(day) AS day FROM src GROUP BY id) s \
         ON t.id = s.id \
         WHEN MATCHED THEN UPDATE SET k = k + s.total \
         WHEN NOT MATCHED THEN INSERT (id, k, day) VALUES (s.id, s.total, s.day)",
    );
    assert_eq!(r.affected_rows, 2);
    assert_eq!(
        rows(&s, "SELECT id, k, v, day FROM t ORDER BY id"),
        ["1\t13\ta\t1", "2\t20\tb\t1", "3\t30\tc\t2", "9\t3\tNULL\t2"]
    );
}

#[test]
fn update_and_delete_without_where_touch_every_row() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    assert_eq!(run(&s, "UPDATE t SET k = k * 2").affected_rows, 3);
    assert_eq!(
        rows(&s, "SELECT id, k FROM t ORDER BY id"),
        ["1\t20", "2\t40", "3\t60"]
    );
    assert_eq!(run(&s, "DELETE FROM t").affected_rows, 3);
    assert_eq!(rows(&s, "SELECT COUNT(*) FROM t"), ["0"]);
}

#[test]
fn dml_touching_no_rows_writes_nothing() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    let before = files(&server);
    for sql in [
        "UPDATE t SET k = 0 WHERE id > 100",
        "DELETE FROM t WHERE day = 9",
        "MERGE INTO t USING src s ON t.id = s.id WHEN MATCHED THEN DELETE \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    ] {
        assert_eq!(run(&s, sql).affected_rows, 0, "{sql}");
    }
    assert_eq!(files(&server), before);
    assert_eq!(open_txns(&s), 0);
}

/// WHERE and WHEN conditions that evaluate to NULL on some rows: a NULL
/// column, a CASE arm that yields NULL, NOT and OR over a NULL. A row
/// whose condition is NULL is neither updated nor deleted, and a MERGE
/// row whose UPDATE condition is NULL falls through to the DELETE arm.
/// The vectorized engine (compiled conditions) and the row interpreter
/// must both reach the rows worked out by hand.
#[test]
fn null_producing_conditions_match_row_mode_and_the_pinned_rows() {
    let apply = |vectorized: bool| {
        let server = HiveServer::new(HiveConf::v3_1().with(|c| c.vectorized = vectorized));
        let s = server.session();
        run(
            &s,
            "CREATE TABLE t (id INT, k INT, v STRING) PARTITIONED BY (day INT)",
        );
        run(&s, "CREATE TABLE src (id INT, k INT, v STRING, day INT)");
        run(
            &s,
            "INSERT INTO t VALUES (1, 10, 'a', 1), (2, 20, 'b', 1), (3, 30, 'c', 2), \
             (4, NULL, 'd', 2), (5, 5, 'e', 1), (7, NULL, 'g', 1)",
        );
        run(
            &s,
            "INSERT INTO src VALUES (1, 1, 's1', 1), (2, 9, 's2', 1), (4, NULL, 's4', 2), \
             (5, 7, 's5', 1), (6, 7, 's6', 2), (7, 3, 's7', 1)",
        );
        let affected: Vec<u64> = [
            "UPDATE t SET v = 'u' WHERE k > 15",
            "UPDATE t SET v = 'w' WHERE CASE WHEN k > 25 THEN NULL ELSE k < 12 END",
            "DELETE FROM t WHERE NOT (k < 25)",
            "MERGE INTO t USING src s ON t.id = s.id \
             WHEN MATCHED AND (CASE WHEN s.k > 5 THEN NULL ELSE s.k < 2 END) \
             THEN UPDATE SET v = s.v \
             WHEN MATCHED AND (s.k IS NULL OR t.k < s.k) THEN DELETE \
             WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
        ]
        .iter()
        .map(|sql| run(&s, sql).affected_rows)
        .collect();
        (
            affected,
            rows(&s, "SELECT id, k, v, day FROM t ORDER BY id"),
        )
    };
    let vectorized = apply(true);
    assert_eq!(vectorized, apply(false), "the engines disagree");
    assert_eq!(vectorized.0, [2, 2, 1, 4]);
    assert_eq!(
        vectorized.1,
        [
            "1\t10\ts1\t1",
            "2\t20\tu\t1",
            "6\t7\ts6\t2",
            "7\tNULL\tg\t1"
        ]
    );
}

// ---- satellites ----------------------------------------------------------

#[test]
fn a_failed_dml_statement_leaves_no_open_transaction() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    // DATE has no cast to INT: the SET fails after the txn opened.
    let err = s
        .execute("UPDATE t SET k = CAST('2020-01-01' AS DATE)")
        .unwrap_err();
    assert_eq!(err.kind(), "EXECUTION", "{err}");
    let err = s
        .execute("MERGE INTO t USING t s ON t.id = s.id WHEN MATCHED THEN UPDATE SET k = CAST('2020-01-01' AS DATE)")
        .unwrap_err();
    assert_eq!(err.kind(), "EXECUTION", "{err}");
    assert_eq!(open_txns(&s), 0, "{:?}", rows(&s, "SHOW TRANSACTIONS"));
    // Nothing pins the snapshot: DML and a major compaction go through.
    assert_eq!(
        run(&s, "UPDATE t SET k = k + 1 WHERE day = 1").affected_rows,
        2
    );
    run(&s, "ALTER TABLE t COMPACT 'major'");
    assert!(files(&server).iter().any(|(p, _)| p.contains("/base_")));
    assert_eq!(
        rows(&s, "SELECT id, k FROM t ORDER BY id"),
        ["1\t11", "2\t21", "3\t30"]
    );
}

#[test]
fn merge_cannot_update_a_partition_column() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    let err = s
        .execute("MERGE INTO t USING src s ON t.id = s.id WHEN MATCHED THEN UPDATE SET day = s.day")
        .unwrap_err();
    assert_eq!(err.kind(), "UNSUPPORTED", "{err}");
    let same = s.execute("UPDATE t SET day = 5").unwrap_err();
    assert_eq!(same.kind(), "UNSUPPORTED");
}

#[test]
fn merge_matching_a_row_twice_is_a_cardinality_violation() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    run(
        &s,
        "INSERT INTO src VALUES (1, 200, 'w', 1), (3, 1, 'x', 2), (3, 2, 'y', 2), (9, 3, 'z', 2)",
    );
    // Row 1 (partition day=1) has a well-defined update; row 3 (day=2,
    // written after it) is matched twice, by source rows neither arm
    // condition even takes.
    let before = (files(&server), rows(&s, "SELECT * FROM t ORDER BY id"));
    let err = s
        .execute(
            "MERGE INTO t USING src s ON t.id = s.id \
             WHEN MATCHED AND s.k > 100 THEN UPDATE SET v = s.v \
             WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "CARDINALITY_VIOLATION", "{err}");
    assert_eq!(
        (files(&server), rows(&s, "SELECT * FROM t ORDER BY id")),
        before
    );
    assert_eq!(open_txns(&s), 0);
    // Without a WHEN MATCHED arm the duplicates decide nothing.
    let r = run(
        &s,
        "MERGE INTO t USING src s ON t.id = s.id \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    assert_eq!(r.affected_rows, 1);
}

#[test]
fn merge_inserts_are_folded_into_table_statistics() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    run(
        &s,
        "INSERT INTO src VALUES (2, 21, 'B', 1), (8, 80, 'h', 2), (9, 90, 'i', 3)",
    );
    run(
        &s,
        "MERGE INTO t USING src s ON t.id = s.id \
         WHEN MATCHED THEN UPDATE SET k = s.k \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    assert_eq!(server.metastore().table_stats("default.t").row_count, 5);
}

#[test]
fn explain_shows_the_compiled_dml_plan() {
    let server = server();
    let s = server.session();
    target_and_source(&s);
    run(&s, "INSERT INTO t VALUES (4, 40, 'd', 3)");
    run(
        &s,
        "CREATE MATERIALIZED VIEW t_by_day AS SELECT day, SUM(k) AS total FROM t GROUP BY day",
    );

    let merge = rows(
        &s,
        "EXPLAIN MERGE INTO t USING src s ON t.id = s.id \
         WHEN MATCHED THEN UPDATE SET k = s.k \
         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.k, s.v, s.day)",
    );
    assert_eq!(merge[0], "Merge[default.t] arms=update,insert");
    // A hash join keyed on the ON column: target id ($0) = source id ($0).
    assert_eq!(merge[1].trim(), "Join[Right] on $0=$0", "{merge:?}");
    assert!(merge[2].contains("Scan[default.t]") && merge[2].ends_with("row_ids"));
    assert!(merge[3].contains("Scan[default.src]") && !merge[3].contains("row_ids"));

    let update = rows(&s, "EXPLAIN UPDATE t SET k = k + 1 WHERE day = 3");
    assert_eq!(update[0], "Update[default.t] arms=update");
    assert!(update[1].contains("partitions=1"), "{update:?}");

    // The view could answer `SELECT day, SUM(k) ... GROUP BY day`, and
    // the results cache its repeats; a DML target is read from neither.
    for text in [&merge, &update] {
        assert!(text.iter().all(|l| !l.contains("t_by_day")), "{text:?}");
    }
    for _ in 0..2 {
        let r = run(&s, "UPDATE t SET k = k + 1 WHERE day = 3");
        assert_eq!(r.affected_rows, 1);
        assert!(!r.from_cache && !r.used_mv);
        // Counters out of the plan's trace, as a SELECT reports them.
        assert!(r.sim_ms > 0.0 && r.bytes_disk + r.bytes_cache > 0, "{r:?}");
    }
    assert_eq!(rows(&s, "SELECT k FROM t WHERE day = 3"), ["42"]);
}
