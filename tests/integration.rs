//! Cross-crate integration tests through the `hive-warehouse` public
//! API: the full lifecycle a downstream user exercises.

use hive_warehouse::benchdata::{ssb, tpcds};
use hive_warehouse::{HiveConf, HiveServer, Value};

#[test]
fn end_to_end_warehouse_lifecycle() {
    let server = HiveServer::new(HiveConf::v3_1());
    let session = server.session();

    // DDL + DML.
    session
        .execute("CREATE TABLE orders (o_id INT, region STRING, total DECIMAL(10,2))")
        .unwrap();
    session
        .execute("INSERT INTO orders VALUES (1, 'EU', 10.00), (2, 'NA', 20.00), (3, 'EU', 30.00)")
        .unwrap();
    session
        .execute("UPDATE orders SET total = total + 1.00 WHERE region = 'EU'")
        .unwrap();
    session
        .execute("DELETE FROM orders WHERE o_id = 2")
        .unwrap();

    let r = session
        .execute("SELECT region, SUM(total) FROM orders GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(r.display_rows(), vec!["EU\t42.00"]);

    // Results cache round trip.
    let again = session
        .execute("SELECT region, SUM(total) FROM orders GROUP BY region ORDER BY region")
        .unwrap();
    assert!(again.from_cache);
}

#[test]
fn tpcds_workload_runs_on_both_engine_versions() {
    let server = HiveServer::new(HiveConf::v3_1());
    tpcds::load(&server, tpcds::TpcdsScale::tiny(), 99).unwrap();
    let session = server.session();
    let queries = tpcds::queries();

    // All queries succeed on 3.1.
    let mut v31: Vec<(String, Vec<String>)> = Vec::new();
    for q in &queries {
        let r = session
            .execute(&q.sql)
            .unwrap_or_else(|e| panic!("{} failed on 3.1: {e}", q.id));
        v31.push((q.id.to_string(), r.display_rows()));
    }

    // On 1.2 exactly the gated queries fail; the rest agree with 3.1.
    // (Row-interpreter execution must be bit-identical to vectorized for
    // deterministic queries without floats in unstable aggregation
    // orders; compare sorted rows.)
    server.set_conf(|c| *c = HiveConf::v1_2());
    for (q, (id, expected)) in queries.iter().zip(&v31) {
        match session.execute(&q.sql) {
            Ok(r) => {
                assert!(q.v1_2_ok, "{id} should have been rejected on 1.2");
                let mut a = r.display_rows();
                let mut b = expected.clone();
                a.sort();
                b.sort();
                // Floating-point group sums may differ in the last ulps
                // between accumulation orders; normalize.
                let norm = |rows: &mut Vec<String>| {
                    for r in rows.iter_mut() {
                        *r = r
                            .split('\t')
                            .map(|c| match c.parse::<f64>() {
                                Ok(v) => format!("{v:.2}"),
                                Err(_) => c.to_string(),
                            })
                            .collect::<Vec<_>>()
                            .join("\t");
                    }
                };
                norm(&mut a);
                norm(&mut b);
                assert_eq!(a, b, "{id} diverged between engine versions");
            }
            Err(e) => {
                assert!(!q.v1_2_ok, "{id} unexpectedly failed on 1.2: {e}");
            }
        }
    }
}

#[test]
fn ssb_federation_agrees_between_stores() {
    let server = HiveServer::new(HiveConf::v3_1());
    let scale = ssb::SsbScale {
        lineorders: 800,
        days: 90,
    };
    ssb::load_native(&server, scale, 5).unwrap();
    ssb::load_druid(&server, scale, 5).unwrap();
    let session = server.session();
    for ((id, nq), (_, dq)) in ssb::queries("ssb_flat")
        .iter()
        .zip(&ssb::queries("ssb_flat_druid"))
    {
        let norm = |rows: Vec<String>| {
            let mut out: Vec<String> = rows
                .into_iter()
                .map(|r| {
                    r.split('\t')
                        .map(|c| match c.parse::<f64>() {
                            Ok(v) => format!("{v:.2}"),
                            Err(_) => c.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join("\t")
                })
                .collect();
            out.sort();
            out
        };
        let a = norm(session.execute(nq).unwrap().display_rows());
        let b = norm(session.execute(dq).unwrap().display_rows());
        assert_eq!(a, b, "{id} diverged between native and Druid");
    }
}

#[test]
fn crash_free_error_paths() {
    let server = HiveServer::new(HiveConf::v3_1());
    let session = server.session();
    // Every failure mode surfaces as a typed error, never a panic.
    assert!(session.execute("SELECT * FROM missing_table").is_err());
    assert!(session.execute("SELEC nonsense").is_err());
    assert!(session.execute("SELECT unknown_fn(1)").is_err());
    session.execute("CREATE TABLE t (a INT NOT NULL)").unwrap();
    assert!(session.execute("INSERT INTO t VALUES (NULL)").is_err());
    assert!(
        session.execute("INSERT INTO t VALUES (1, 2)").is_err(),
        "arity mismatch"
    );
    // Writes to external tables without handlers fail cleanly.
    session
        .execute("CREATE EXTERNAL TABLE plain_ext (a INT)")
        .unwrap();
    assert!(session.execute("DELETE FROM plain_ext").is_err());
}

#[test]
fn write_write_conflicts_surface_to_clients() {
    let server = HiveServer::new(HiveConf::v3_1());
    let a = server.session();
    a.execute("CREATE TABLE c (k INT, v INT)").unwrap();
    a.execute("INSERT INTO c VALUES (1, 10)").unwrap();
    // Two sessions race an UPDATE on the same rows: with synchronous
    // execution the statements serialize, so both succeed — the
    // conflict machinery is exercised at the TxnManager level (see
    // hive-metastore's first_commit_wins test); here we verify values
    // remain consistent after interleaved updates.
    let b = server.session();
    a.execute("UPDATE c SET v = v + 1 WHERE k = 1").unwrap();
    b.execute("UPDATE c SET v = v + 1 WHERE k = 1").unwrap();
    let r = a.execute("SELECT v FROM c WHERE k = 1").unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int(12));
}

/// An explicit NULLS clause places NULLs where it says, under ASC and
/// under DESC alike; with no clause NULLs come last in both directions.
/// The Sort and the window's ORDER BY share one comparator, vectorized
/// and in row mode.
#[test]
fn nulls_clauses_place_nulls_under_asc_and_desc_in_both_modes() {
    let cases = [
        ("x", ["1", "3", "NULL"]),
        ("x DESC", ["3", "1", "NULL"]),
        ("x ASC NULLS FIRST", ["NULL", "1", "3"]),
        ("x ASC NULLS LAST", ["1", "3", "NULL"]),
        ("x DESC NULLS FIRST", ["NULL", "3", "1"]),
        ("x DESC NULLS LAST", ["3", "1", "NULL"]),
    ];
    for vectorized in [true, false] {
        let server = HiveServer::new(HiveConf::v3_1().with(|c| c.vectorized = vectorized));
        let session = server.session();
        session.execute("CREATE TABLE n (x INT)").unwrap();
        session
            .execute("INSERT INTO n VALUES (1), (NULL), (3)")
            .unwrap();
        for (order, want) in cases {
            let sorted = session
                .execute(&format!("SELECT x FROM n ORDER BY {order}"))
                .unwrap()
                .display_rows();
            assert_eq!(sorted, want, "ORDER BY {order}, vectorized = {vectorized}");
            // The window numbers the rows in its own ORDER BY's order.
            let numbered = session
                .execute(&format!(
                    "SELECT x, ROW_NUMBER() OVER (ORDER BY {order}) AS r FROM n ORDER BY r"
                ))
                .unwrap()
                .display_rows();
            let numbered: Vec<&str> = numbered
                .iter()
                .map(|row| row.split('\t').next().unwrap_or(""))
                .collect();
            assert_eq!(
                numbered, want,
                "OVER (ORDER BY {order}), vectorized = {vectorized}"
            );
        }
    }
}

/// A window aggregate finishes as the GROUP BY's does: over each
/// partition, `STDDEV_SAMP(x) OVER (PARTITION BY g)` is that group's
/// `STDDEV_SAMP` on every row, vectorized and in row mode.
#[test]
fn window_stddev_samp_equals_the_group_by_stddev_samp_in_both_modes() {
    for vectorized in [true, false] {
        let mut conf = HiveConf::v3_1();
        conf.vectorized = vectorized;
        let server = HiveServer::new(conf);
        let session = server.session();
        session.execute("CREATE TABLE t (g INT, x DOUBLE)").unwrap();
        session
            .execute(
                "INSERT INTO t VALUES (1, 1.0), (1, 2.0), (1, 4.0), \
                 (2, 1.0), (2, NULL), (2, 3.0), (3, 5.0)",
            )
            .unwrap();
        let grouped = session
            .execute("SELECT g, STDDEV_SAMP(x) FROM t GROUP BY g ORDER BY g")
            .unwrap()
            .display_rows();
        assert_eq!(grouped.len(), 3);
        assert!(grouped[0].starts_with("1\t1.5275"), "{grouped:?}");
        assert!(grouped[1].starts_with("2\t1.4142"), "{grouped:?}");
        assert_eq!(grouped[2], "3\tNULL");
        let mut windowed = session
            .execute("SELECT g, STDDEV_SAMP(x) OVER (PARTITION BY g) FROM t ORDER BY g")
            .unwrap()
            .display_rows();
        assert_eq!(windowed.len(), 7);
        windowed.dedup();
        assert_eq!(windowed, grouped, "vectorized = {vectorized}");
    }
}
