//! The hash-key layer end to end (DESIGN.md §4, "Hash keys"): every
//! hash operator now keys rows as packed words where the columns allow
//! and as canonical bytes where they do not. That may only change
//! wall-clock time. The 28 TPC-DS queries and the twelve `scan_cold`
//! statement shapes must return the row interpreter's rows
//! (`vectorized = false`, one thread) at 1, 2 and 4 threads — a sibling
//! of `tests/scan_parts.rs`, which pins 2 threads — and DOUBLE keys
//! must give one answer under every configuration: `COUNT(DISTINCT x)`
//! counts a NaN once, and a join on DOUBLE columns matches NaN to NaN
//! and `0.0` to `-0.0`.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{HiveConf, HiveServer, Row, Value};

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

/// Day partitions of 3 000 sales: joins and group-bys above the
/// one-morsel size where builds partition and probes split into ranges.
fn load_server(conf: HiveConf) -> HiveServer {
    neutralize_env();
    let server = HiveServer::new(conf.with(|c| c.results_cache = false));
    let scale = TpcdsScale {
        days: 6,
        items: 150,
        customers: 200,
        stores: 4,
        sales_per_day: 3000,
        return_rate: 0.1,
    };
    tpcds::load(&server, scale, 0xDA7A).unwrap();
    server
}

/// The `scan_cold` statement shapes (`bench/e2e/src/workload.rs`).
fn scan_cold_statements() -> Vec<(String, String)> {
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
    let mut out = vec![("sweep_all".to_string(), sweep(&cols))];
    for i in 0..4 {
        let pick: Vec<&str> = cols.iter().cycle().skip(i * 6).take(7).copied().collect();
        out.push((format!("sweep_{i}"), sweep(&pick)));
    }
    for (i, lo) in [base + 1, base + 3].into_iter().enumerate() {
        out.push((
            format!("range_{i}"),
            format!(
                "SELECT COUNT(*), SUM(ss_ext_sales_price), MAX(ss_quantity) FROM store_sales \
                 WHERE ss_sold_date_sk BETWEEN {lo} AND {}",
                lo + 2
            ),
        ));
    }
    for (i, ticket) in [17, 7001].into_iter().enumerate() {
        out.push((
            format!("point_{i}"),
            format!(
                "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales \
                 WHERE ss_ticket_number = {ticket}"
            ),
        ));
    }
    for (id, sql) in [
        (
            "group_store",
            "SELECT ss_store_sk, COUNT(*), SUM(ss_net_profit) FROM store_sales \
             GROUP BY ss_store_sk",
        ),
        (
            "returns_sweep",
            "SELECT COUNT(*), SUM(sr_return_quantity), MAX(sr_return_amt), MIN(sr_item_sk), \
             MAX(sr_customer_sk), MAX(sr_ticket_number) FROM store_returns",
        ),
        (
            "returns_group",
            "SELECT sr_return_quantity, COUNT(*), SUM(sr_return_amt) FROM store_returns \
             GROUP BY sr_return_quantity",
        ),
    ] {
        out.push((id.to_string(), sql.to_string()));
    }
    out
}

#[test]
fn tpcds_and_scan_cold_match_the_row_interpreter_at_1_2_4_threads() {
    let mut statements: Vec<(String, String)> = tpcds::queries()
        .into_iter()
        .map(|q| (q.id.to_string(), q.sql))
        .collect();
    assert_eq!(statements.len(), 28);
    statements.extend(scan_cold_statements());
    assert_eq!(statements.len(), 40);
    let run = |server: &HiveServer| -> Vec<Vec<String>> {
        statements
            .iter()
            .map(|(id, sql)| {
                let r = server.session().execute(sql);
                r.unwrap_or_else(|e| panic!("{id} failed: {e}"))
                    .display_rows()
            })
            .collect()
    };
    let interpreter = load_server(HiveConf::v3_1().with(|c| {
        c.vectorized = false;
        c.parallel_threads = 1;
    }));
    let want = run(&interpreter);
    assert!(want.iter().filter(|rows| !rows.is_empty()).count() > 30);
    let vectorized = load_server(HiveConf::v3_1());
    for threads in [1, 2, 4] {
        vectorized.set_conf(|c| c.parallel_threads = threads);
        for ((id, _), (got, want)) in statements.iter().zip(run(&vectorized).iter().zip(&want)) {
            assert_eq!(
                got, want,
                "{id} diverged from the row interpreter at {threads} threads"
            );
        }
    }
}

#[test]
fn double_keys_are_one_answer_under_every_configuration() {
    // Two NaNs, both zeros, and repeats, spread over enough rows for a
    // partitioned build: NaN is one value, 0.0 and -0.0 are one value.
    let values = [f64::NAN, 0.0, 2.5, f64::NAN, -0.0, 3.0, 2.5, 3.0];
    let rows: Vec<Row> = (0..12_000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 3),
                Value::Double(values[(i as usize * 7 + i as usize / 5) % values.len()]),
            ])
        })
        .collect();
    // A join partner per DOUBLE key `h`: NaN, both zeros, 2.5, and 7.0,
    // which no row of `nums` holds.
    let keys = [f64::NAN, 0.0, -0.0, 2.5, 7.0];
    let partners: Vec<Row> = (keys.iter().enumerate())
        .map(|(h, &y)| Row::new(vec![Value::Int(h as i32), Value::Double(y)]))
        .collect();
    // The compiled aggregate (DISTINCT as a first-occurrence filter in
    // front of the kernels) and the interpreted one (a value set per
    // group) are two of the configurations. With the NaNs filtered out,
    // SUM and AVG over the distinct values show the fold order too.
    let mut answers = Vec::new();
    for vectorized in [true, false] {
        for threads in [1, 2, 4] {
            neutralize_env();
            let server = HiveServer::new(HiveConf::v3_1().with(|c| {
                c.results_cache = false;
                c.vectorized = vectorized;
                c.parallel_threads = threads;
            }));
            let session = server.session();
            session
                .execute("CREATE TABLE nums (g INT, x DOUBLE)")
                .unwrap();
            session.bulk_insert("nums", rows.clone()).unwrap();
            session
                .execute("CREATE TABLE partners (h INT, y DOUBLE)")
                .unwrap();
            session.bulk_insert("partners", partners.clone()).unwrap();
            let mut got = Vec::new();
            for sql in [
                "SELECT COUNT(DISTINCT x) FROM nums",
                "SELECT g, COUNT(DISTINCT x), COUNT(x) FROM nums GROUP BY g ORDER BY g",
                "SELECT g, SUM(DISTINCT x), AVG(DISTINCT x) FROM nums GROUP BY g ORDER BY g",
                "SELECT g, SUM(DISTINCT x), AVG(DISTINCT x), COUNT(DISTINCT x) FROM nums \
                 WHERE x < 100 GROUP BY g ORDER BY g",
                "SELECT h, COUNT(*) FROM nums JOIN partners ON x = y GROUP BY h ORDER BY h",
            ] {
                got.push(session.execute(sql).unwrap().display_rows());
            }
            answers.push((format!("vectorized {vectorized}, {threads} threads"), got));
        }
    }
    // NaN, zero, 2.5, 3.0.
    assert_eq!(answers[0].1[0], vec!["4".to_string()]);
    assert_eq!(
        answers[0].1[1],
        vec!["0\t4\t4000", "1\t4\t4000", "2\t4\t4000"]
    );
    // A NaN among the distinct values is the sum; without it, 0 + 2.5 + 3
    // over three values.
    assert_eq!(
        answers[0].1[2],
        vec!["0\tNaN\tNaN", "1\tNaN\tNaN", "2\tNaN\tNaN"]
    );
    let third = format!("{}", 5.5 / 3.0);
    assert_eq!(
        answers[0].1[3],
        [0, 1, 2].map(|g| format!("{g}\t5.5\t{third}\t3"))
    );
    // NaN meets NaN, each zero meets both zeros, 7.0 meets nothing.
    let count = |hit: fn(f64) -> bool| {
        (rows.iter())
            .filter(|r| matches!(r.get(1), Value::Double(x) if hit(*x)))
            .count()
    };
    let (nan, zero, two_and_a_half) =
        (count(f64::is_nan), count(|x| x == 0.0), count(|x| x == 2.5));
    assert!(nan > 0 && zero > 0);
    assert_eq!(
        answers[0].1[4],
        vec![
            format!("0\t{nan}"),
            format!("1\t{zero}"),
            format!("2\t{zero}"),
            format!("3\t{two_and_a_half}"),
        ]
    );
    for (what, got) in &answers[1..] {
        assert_eq!(got, &answers[0].1, "{what}");
    }
}
