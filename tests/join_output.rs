//! Joins hand their output on columnar — dictionary strings still
//! encoded, semi/anti joins as selections — so every operator above a
//! join now sees `Dict` columns and stacked selections it used to see
//! decoded and compacted. Each consumer must return what the row
//! interpreter (`vectorized = false`) returns: GROUP BY on a dictionary
//! key, Window, Sort, INTERSECT and UNION ALL over inputs with
//! *different* dictionaries, and the result `decode()` itself.
//!
//! A *plain* string a join replicates — a small dimension's name column
//! the writer rightly left unencoded, a string literal — reaches those
//! consumers encoded too (one dictionary built by the gather, one entry
//! for a literal); the second test holds them to the same oracle.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{HiveConf, HiveServer};

/// Env knobs override the conf fields; this binary manages them itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        for var in ["HIVE_PARALLEL_THREADS", "HIVE_MEMORY_BUDGET"] {
            std::env::remove_var(var);
        }
    });
}

fn load_server(tune: impl FnOnce(&mut HiveConf)) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    // Every run executes: a cached answer would compare nothing.
    conf.results_cache = false;
    tune(&mut conf);
    let server = HiveServer::new(conf);
    let scale = TpcdsScale {
        days: 6,
        items: 120,
        customers: 150,
        stores: 4,
        sales_per_day: 1200,
        return_rate: 0.1,
    };
    tpcds::load(&server, scale, 0xC01A).unwrap();
    server
}

/// (what the join feeds, SQL). Every statement is deterministic up to
/// row order; rows are compared sorted.
const CONSUMERS: [(&str, &str); 7] = [
    (
        "GROUP BY on a dictionary key",
        "SELECT i_category, i_class, COUNT(*), SUM(ss_quantity) \
         FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
         GROUP BY i_category, i_class",
    ),
    (
        "GROUP BY over NULL-extended dictionary keys",
        "SELECT s_state, i_category, COUNT(*) \
         FROM item LEFT JOIN store_sales ON i_item_sk = ss_item_sk AND ss_quantity > 19 \
              LEFT JOIN store ON ss_store_sk = s_store_sk \
         GROUP BY s_state, i_category",
    ),
    (
        "Window",
        "SELECT i_category, i_brand, total, \
                RANK() OVER (PARTITION BY i_category ORDER BY total DESC, i_brand) AS rk \
         FROM (SELECT i_category, i_brand, SUM(ss_quantity) AS total \
               FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
               GROUP BY i_category, i_brand) t",
    ),
    (
        "Sort",
        "SELECT i_category, i_brand, s_store_name, ss_quantity, ss_ticket_number \
         FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
              JOIN store ON ss_store_sk = s_store_sk \
         WHERE ss_quantity > 18 \
         ORDER BY i_category DESC, i_brand, s_store_name, ss_quantity, ss_ticket_number \
         LIMIT 200",
    ),
    (
        "INTERSECT over different dictionaries",
        "SELECT s_state FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
         INTERSECT \
         SELECT ca_state FROM customer JOIN customer_address ON c_current_addr_sk = ca_address_sk",
    ),
    (
        "UNION ALL over different dictionaries",
        "SELECT u.label, COUNT(*) FROM ( \
            SELECT i_category AS label FROM store_sales JOIN item ON ss_item_sk = i_item_sk \
            UNION ALL \
            SELECT ca_state AS label FROM customer LEFT JOIN customer_address \
                   ON c_current_addr_sk = ca_address_sk AND ca_state < 'M' \
         ) u GROUP BY u.label",
    ),
    (
        "result decode, semi join under an outer join",
        "SELECT c_customer_id, c_last_name, ca_state, ca_city \
         FROM customer LEFT JOIN customer_address \
              ON c_current_addr_sk = ca_address_sk AND ca_state < 'M' \
         WHERE c_customer_sk IN (SELECT ss_customer_sk FROM store_sales WHERE ss_quantity > 16)",
    ),
];

fn sorted_rows(server: &HiveServer, sql: &str) -> Vec<String> {
    let mut rows = server
        .session()
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .display_rows();
    rows.sort();
    rows
}

#[test]
fn operators_above_a_join_match_the_row_interpreter() {
    let oracle = load_server(|c| c.vectorized = false);
    let expected: Vec<Vec<String>> = CONSUMERS
        .iter()
        .map(|(_, sql)| sorted_rows(&oracle, sql))
        .collect();
    for (what, rows) in CONSUMERS.iter().map(|c| c.0).zip(&expected) {
        assert!(!rows.is_empty(), "{what}: the fixture returns no rows");
    }
    type Tune = fn(&mut HiveConf);
    let settings: [(&str, Tune); 3] = [
        ("defaults", |_| {}),
        ("8 threads", |c| c.parallel_threads = 8),
        ("32 KiB budget", |c| c.memory_per_query_bytes = 32 * 1024),
    ];
    for (setting, tune) in settings {
        let server = load_server(tune);
        for ((what, sql), want) in CONSUMERS.iter().zip(&expected) {
            assert_eq!(&sorted_rows(&server, sql), want, "{what} under {setting}");
        }
    }
}

/// Consumers of a plain string column a join has replicated:
/// `s_store_name` has as many distinct values as `store` has rows, so
/// the writer leaves it plain, and the literals are plain by birth.
const REPLICATED: [(&str, &str); 6] = [
    (
        "GROUP BY",
        "SELECT s_store_name, COUNT(*), SUM(ss_quantity) \
         FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
         GROUP BY s_store_name",
    ),
    (
        "GROUP BY through a second join",
        "SELECT s_store_name, i_category, COUNT(*) \
         FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
              JOIN item ON ss_item_sk = i_item_sk \
         GROUP BY s_store_name, i_category",
    ),
    (
        "ORDER BY",
        "SELECT s_store_name, ss_ticket_number, ss_item_sk, ss_quantity \
         FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
         WHERE ss_quantity > 18 \
         ORDER BY s_store_name DESC, ss_ticket_number, ss_item_sk, ss_quantity \
         LIMIT 200",
    ),
    (
        "DISTINCT beside a literal",
        "SELECT DISTINCT s_store_name, 'store' AS channel \
         FROM store_sales LEFT JOIN store ON ss_store_sk = s_store_sk AND ss_quantity > 10",
    ),
    (
        "window PARTITION BY",
        "SELECT s_store_name, ss_sold_date_sk, total, \
                RANK() OVER (PARTITION BY s_store_name ORDER BY total DESC, ss_sold_date_sk), \
                SUM(total) OVER (PARTITION BY s_store_name) \
         FROM (SELECT s_store_name, ss_sold_date_sk, SUM(ss_quantity) AS total \
               FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
               GROUP BY s_store_name, ss_sold_date_sk) t",
    ),
    (
        "UNION ALL of literal-tagged branches",
        "SELECT u.channel, u.name, COUNT(*) FROM ( \
            SELECT 'store' AS channel, s_store_name AS name \
            FROM store_sales JOIN store ON ss_store_sk = s_store_sk \
            UNION ALL \
            SELECT 'customer' AS channel, c_last_name AS name \
            FROM store_sales JOIN customer ON ss_customer_sk = c_customer_sk \
         ) u GROUP BY u.channel, u.name",
    ),
];

/// The same statement with every joined dimension string computed in
/// a derived table: the join then replicates strings that are plain
/// whatever the writer chose.
fn computed_strings(sql: &str) -> String {
    sql.replace(
        "JOIN store ON",
        "JOIN (SELECT s_store_sk, CONCAT(s_store_name, '') AS s_store_name FROM store) st ON",
    )
    .replace(
        "JOIN item ON",
        "JOIN (SELECT i_item_sk, CONCAT(i_category, '') AS i_category FROM item) it ON",
    )
    .replace(
        "JOIN customer ON",
        "JOIN (SELECT c_customer_sk, CONCAT(c_last_name, '') AS c_last_name FROM customer) cu ON",
    )
}

#[test]
fn replicated_plain_strings_match_the_row_interpreter() {
    let oracle = load_server(|c| c.vectorized = false);
    let servers = [1, 2, 8].map(|n| (n, load_server(move |c| c.parallel_threads = n)));
    for (what, sql) in REPLICATED {
        let plain = computed_strings(sql);
        assert_ne!(plain, sql, "{what}: no dimension string to compute");
        for (leg, sql) in [("as stored", sql), ("computed", plain.as_str())] {
            let want = sorted_rows(&oracle, sql);
            assert!(
                want.len() > 1,
                "{what}, {leg}: the fixture returns {want:?}"
            );
            for (threads, server) in &servers {
                assert_eq!(
                    sorted_rows(server, sql),
                    want,
                    "{what}, {leg}, at {threads} threads"
                );
            }
        }
    }
}

/// Statements whose authored order probes the fact table with a
/// dimension (the dimension first in FROM), so the optimizer swaps the
/// join's inputs and composes the column permutation into whatever sits
/// above it: a window, a semi join's probe side, both branches of a
/// UNION ALL, a residual over both sides, a LEFT JOIN. `SELECT *` is
/// the join at the plan's root, whose column order nothing above can
/// absorb: it keeps its sides.
const SWAPPED: [(&str, &str); 6] = [
    (
        "Window over the join",
        "SELECT i_category, ss_ticket_number, ss_quantity, \
                RANK() OVER (PARTITION BY i_category ORDER BY ss_quantity DESC, ss_ticket_number, ss_item_sk) \
         FROM item JOIN store_sales ON i_item_sk = ss_item_sk WHERE ss_quantity > 15",
    ),
    (
        "semi join probing the join",
        "SELECT i_item_id, ss_quantity, ss_ticket_number FROM item JOIN store_sales ON i_item_sk = ss_item_sk \
         WHERE ss_customer_sk IN (SELECT c_customer_sk FROM customer WHERE c_customer_sk < 40)",
    ),
    (
        "UNION ALL of two joins",
        "SELECT i_brand, ss_quantity, ss_ticket_number FROM item JOIN store_sales ON i_item_sk = ss_item_sk \
         WHERE ss_quantity > 18 \
         UNION ALL \
         SELECT s_store_name, ss_quantity, ss_ticket_number FROM store JOIN store_sales ON s_store_sk = ss_store_sk \
         WHERE ss_quantity < 2",
    ),
    (
        "residual over both sides",
        "SELECT i_item_id, ss_quantity, ss_ticket_number \
         FROM item JOIN store_sales ON i_item_sk = ss_item_sk AND ss_quantity * 10 > i_item_sk",
    ),
    (
        "LEFT JOIN above",
        "SELECT s_store_name, i_brand, ss_quantity, ss_ticket_number \
         FROM item JOIN store_sales ON i_item_sk = ss_item_sk \
              LEFT JOIN store ON ss_store_sk = s_store_sk AND s_store_sk > 2 \
         WHERE ss_quantity > 17",
    ),
    (
        "SELECT *",
        "SELECT * FROM store JOIN store_sales ON s_store_sk = ss_store_sk WHERE ss_quantity = 7",
    ),
];

/// A build-side swap is invisible in the rows: every statement returns
/// what it returns with the cost-based stages off (no reordering, no
/// swap), vectorized and in the row interpreter — and the swap really
/// ran where it may, or the comparison would be vacuous.
#[test]
fn swapped_build_sides_return_the_unswapped_rows() {
    let unswapped = load_server(|c| c.cbo_enabled = false);
    let vectorized = load_server(|_| {});
    let interpreted = load_server(|c| c.vectorized = false);
    for (what, sql) in SWAPPED {
        let want = sorted_rows(&unswapped, sql);
        assert!(!want.is_empty(), "{what}: the fixture returns no rows");
        for server in [&vectorized, &interpreted] {
            assert_eq!(sorted_rows(server, sql), want, "{what}");
        }
        let explain = |s: &HiveServer| {
            (s.session().execute(&format!("EXPLAIN {sql}")).unwrap())
                .message
                .unwrap_or_default()
        };
        let swapped = explain(&vectorized) != explain(&unswapped);
        assert_eq!(swapped, what != "SELECT *", "{what}");
    }
}
