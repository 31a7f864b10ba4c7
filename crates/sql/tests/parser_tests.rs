//! Parser coverage tests over the SQL surface the paper describes.

use hive_common::{DataType, Value};
use hive_sql::*;

fn parse(sql: &str) -> Statement {
    parse_sql(sql).unwrap_or_else(|e| panic!("failed to parse {sql:?}: {e}"))
}

fn parse_query(sql: &str) -> Query {
    match parse(sql) {
        Statement::Query(q) => q,
        other => panic!("expected query, got {other:?}"),
    }
}

fn select_of(q: &Query) -> &Select {
    match &q.body {
        QueryBody::Select(s) => s,
        other => panic!("expected select, got {other:?}"),
    }
}

#[test]
fn simple_select() {
    let q = parse_query("SELECT a, b AS bee, t.c FROM t WHERE a > 1 LIMIT 10");
    let s = select_of(&q);
    assert_eq!(s.projection.len(), 3);
    assert!(matches!(
        &s.projection[1],
        SelectItem::Expr { alias: Some(a), .. } if a == "bee"
    ));
    assert_eq!(q.limit, Some(10));
    assert!(s.selection.is_some());
}

#[test]
fn paper_store_sales_ddl() {
    // The CREATE TABLE from Section 3.1 of the paper.
    let stmt = parse(
        "CREATE TABLE store_sales (
            sold_date_sk INT, item_sk INT, customer_sk INT, store_sk INT,
            quantity INT, list_price DECIMAL(7,2), sales_price DECIMAL(7,2)
         ) PARTITIONED BY (sold_date_sk INT)",
    );
    match stmt {
        Statement::CreateTable(ct) => {
            assert_eq!(ct.name, ObjectName::bare("store_sales"));
            assert_eq!(ct.columns.len(), 7);
            assert_eq!(ct.columns[5].data_type, DataType::Decimal(7, 2));
            assert_eq!(ct.partitioned_by.len(), 1);
            assert_eq!(ct.partitioned_by[0].name, "sold_date_sk");
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn ddl_with_constraints_properties_handler() {
    let stmt = parse(
        "CREATE EXTERNAL TABLE druid_table_1 (
            __time TIMESTAMP, dim1 VARCHAR(20), m1 FLOAT,
            PRIMARY KEY (dim1),
            FOREIGN KEY (m1) REFERENCES other(m2),
            UNIQUE (dim1, m1)
         )
         STORED BY 'druid'
         TBLPROPERTIES ('druid.datasource' = 'my_druid_source')",
    );
    match stmt {
        Statement::CreateTable(ct) => {
            assert!(ct.external);
            assert_eq!(ct.stored_by.as_deref(), Some("druid"));
            assert_eq!(ct.constraints.len(), 3);
            assert_eq!(
                ct.properties,
                vec![("druid.datasource".into(), "my_druid_source".into())]
            );
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn materialized_view_from_paper() {
    // Figure 4(a).
    let stmt = parse(
        "CREATE MATERIALIZED VIEW mat_view AS
         SELECT d_year, d_moy, d_dom, SUM(ss_sales_price) AS sum_sales
         FROM store_sales, date_dim
         WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
         GROUP BY d_year, d_moy, d_dom",
    );
    match stmt {
        Statement::CreateMaterializedView(mv) => {
            assert_eq!(mv.name, ObjectName::bare("mat_view"));
            let s = select_of(&mv.query);
            assert_eq!(s.group_by.len(), 3);
            assert_eq!(s.from.len(), 2, "comma join");
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn join_kinds() {
    let q = parse_query(
        "SELECT * FROM a JOIN b ON a.x = b.x
         LEFT OUTER JOIN c ON b.y = c.y
         RIGHT JOIN d ON c.z = d.z
         FULL OUTER JOIN e ON d.w = e.w
         CROSS JOIN f
         LEFT SEMI JOIN g ON f.v = g.v",
    );
    let s = select_of(&q);
    let mut kinds = Vec::new();
    fn walk(t: &TableRef, kinds: &mut Vec<JoinKind>) {
        if let TableRef::Join { left, kind, .. } = t {
            walk(left, kinds);
            kinds.push(*kind);
        }
    }
    walk(&s.from[0], &mut kinds);
    assert_eq!(
        kinds,
        vec![
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Cross,
            JoinKind::LeftSemi
        ]
    );
}

#[test]
fn set_operations_and_precedence() {
    // INTERSECT binds tighter than UNION.
    let q = parse_query("SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v");
    match &q.body {
        QueryBody::SetOp { op, right, .. } => {
            assert_eq!(*op, SetOperator::Union);
            assert!(matches!(
                right.as_ref(),
                QueryBody::SetOp {
                    op: SetOperator::Intersect,
                    ..
                }
            ));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn correlated_subqueries() {
    let q = parse_query(
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)
           AND a IN (SELECT b FROM v)
           AND a > (SELECT AVG(c) FROM w WHERE w.k = t.k)",
    );
    let s = select_of(&q);
    assert!(s.selection.as_ref().unwrap().contains_subquery());
}

#[test]
fn grouping_sets_rollup_cube() {
    let q = parse_query("SELECT a, b, SUM(c) FROM t GROUP BY ROLLUP(a, b)");
    let s = select_of(&q);
    assert_eq!(s.grouping_sets, Some(vec![vec![0, 1], vec![0], vec![]]));
    let q = parse_query("SELECT a, b, SUM(c) FROM t GROUP BY CUBE(a, b)");
    assert_eq!(select_of(&q).grouping_sets.as_ref().unwrap().len(), 4);
    let q = parse_query("SELECT a, b, SUM(c) FROM t GROUP BY a, b GROUPING SETS ((a, b), (a), ())");
    assert_eq!(
        select_of(&q).grouping_sets,
        Some(vec![vec![0, 1], vec![0], vec![]])
    );
}

#[test]
fn window_functions() {
    let q = parse_query(
        "SELECT RANK() OVER (PARTITION BY d ORDER BY s DESC),
                SUM(x) OVER (PARTITION BY d ORDER BY s ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
         FROM t",
    );
    let s = select_of(&q);
    match &s.projection[1] {
        SelectItem::Expr {
            expr: Expr::Window { func, frame, .. },
            ..
        } => {
            assert_eq!(func, "sum");
            assert_eq!(
                frame,
                &Some(WindowFrame {
                    start: FrameBound::Preceding(2),
                    end: FrameBound::CurrentRow
                })
            );
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn ctes() {
    let q = parse_query(
        "WITH base AS (SELECT a FROM t), top AS (SELECT a FROM base LIMIT 5)
         SELECT * FROM top",
    );
    assert_eq!(q.ctes.len(), 2);
    assert_eq!(q.ctes[1].0, "top");
}

#[test]
fn dml_statements() {
    match parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')") {
        Statement::Insert(i) => {
            assert_eq!(i.columns, Some(vec!["a".into(), "b".into()]));
            match i.source {
                InsertSource::Values(rows) => assert_eq!(rows.len(), 2),
                other => panic!("unexpected: {other:?}"),
            }
        }
        other => panic!("unexpected: {other:?}"),
    }
    match parse("UPDATE t SET a = a + 1, b = 'z' WHERE c < 5") {
        Statement::Update(u) => {
            assert_eq!(u.assignments.len(), 2);
            assert!(u.filter.is_some());
        }
        other => panic!("unexpected: {other:?}"),
    }
    match parse("DELETE FROM t WHERE a IS NULL") {
        Statement::Delete(d) => assert!(d.filter.is_some()),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn merge_statement() {
    let stmt = parse(
        "MERGE INTO target t USING source s ON t.k = s.k
         WHEN MATCHED AND s.flag = 1 THEN UPDATE SET v = s.v
         WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.v)",
    );
    match stmt {
        Statement::Merge(m) => {
            assert_eq!(m.target_alias.as_deref(), Some("t"));
            assert!(m.when_matched_update.is_some());
            assert!(m.when_matched_delete.is_none());
            assert!(m.when_not_matched_insert.is_some());
            assert!(m.when_matched_update.as_ref().unwrap().condition.is_some());
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn expressions() {
    let q = parse_query(
        "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END,
                CAST(a AS BIGINT),
                EXTRACT(year FROM d),
                a NOT BETWEEN 1 AND 10,
                s LIKE 'Sport%',
                -a + 2 * 3
         FROM t",
    );
    let s = select_of(&q);
    assert_eq!(s.projection.len(), 6);
    // Precedence: -a + (2*3)
    match &s.projection[5] {
        SelectItem::Expr {
            expr:
                Expr::BinaryOp {
                    op: BinaryOp::Plus,
                    right,
                    ..
                },
            ..
        } => {
            assert!(matches!(
                right.as_ref(),
                Expr::BinaryOp {
                    op: BinaryOp::Multiply,
                    ..
                }
            ));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn date_and_interval_literals() {
    let q = parse_query(
        "SELECT * FROM t WHERE d BETWEEN DATE '2000-01-27' AND DATE '2000-01-27' + INTERVAL 30 DAYS",
    );
    let s = select_of(&q);
    let mut found_date = false;
    let mut found_interval = false;
    s.selection.as_ref().unwrap().visit(&mut |e| match e {
        Expr::Literal(Value::Date(_)) => found_date = true,
        Expr::Function { name, .. } if name == "__interval_day" => found_interval = true,
        _ => {}
    });
    assert!(found_date && found_interval);
}

#[test]
fn order_by_variants() {
    let q = parse_query("SELECT a, b FROM t ORDER BY a DESC NULLS LAST, b ASC");
    assert_eq!(q.order_by.len(), 2);
    assert!(!q.order_by[0].asc);
    assert_eq!(q.order_by[0].nulls_first, Some(false));
    assert!(q.order_by[1].asc);
}

#[test]
fn misc_statements() {
    assert!(matches!(parse("USE tpcds"), Statement::Use(d) if d == "tpcds"));
    assert!(matches!(parse("SHOW TABLES"), Statement::ShowTables));
    assert!(matches!(
        parse("SHOW COMPACTIONS"),
        Statement::ShowCompactions
    ));
    assert!(matches!(
        parse("ANALYZE TABLE t COMPUTE STATISTICS"),
        Statement::AnalyzeTable { .. }
    ));
    assert!(matches!(
        parse("ALTER TABLE t COMPACT 'major'"),
        Statement::AlterTableCompact { major: true, .. }
    ));
    assert!(matches!(
        parse("ALTER MATERIALIZED VIEW mv REBUILD"),
        Statement::AlterMaterializedViewRebuild { .. }
    ));
    assert!(matches!(parse("EXPLAIN SELECT 1"), Statement::Explain(_)));
    assert!(matches!(
        parse("DROP TABLE IF EXISTS t"),
        Statement::DropTable {
            if_exists: true,
            ..
        }
    ));
}

#[test]
fn subquery_in_from() {
    let q = parse_query("SELECT x FROM (SELECT a AS x FROM t) sub WHERE x > 1");
    let s = select_of(&q);
    assert!(matches!(
        &s.from[0],
        TableRef::Subquery { alias, .. } if alias == "sub"
    ));
}

#[test]
fn multi_statement_script() {
    let stmts =
        hive_sql::parser::parse_statements("CREATE TABLE a (x INT); INSERT INTO a VALUES (1);")
            .unwrap();
    assert_eq!(stmts.len(), 2);
}

#[test]
fn parse_errors_are_reported() {
    assert!(parse_sql("SELECT FROM WHERE").is_err());
    assert!(parse_sql("SELEC 1").is_err());
    assert!(parse_sql("SELECT a FROM t WHERE").is_err());
    assert!(parse_sql("").is_err());
    assert!(parse_sql("SELECT 1; SELECT 2").is_err(), "two statements");
}

#[test]
fn count_star_and_distinct() {
    let q = parse_query("SELECT COUNT(*), COUNT(DISTINCT a), SUM(b) FROM t");
    let s = select_of(&q);
    match &s.projection[0] {
        SelectItem::Expr {
            expr: Expr::Function { name, args, .. },
            ..
        } => {
            assert_eq!(name, "count");
            assert!(args.is_empty());
        }
        other => panic!("unexpected: {other:?}"),
    }
    match &s.projection[1] {
        SelectItem::Expr {
            expr: Expr::Function { distinct, .. },
            ..
        } => assert!(distinct),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn multi_insert_statement() {
    let stmt = parse(
        "FROM src
         INSERT INTO t1 SELECT a, b WHERE a > 0
         INSERT INTO t2 (x) SELECT a WHERE a <= 0",
    );
    match stmt {
        Statement::MultiInsert(mi) => {
            assert_eq!(mi.inserts.len(), 2);
            assert_eq!(mi.inserts[0].table, ObjectName::bare("t1"));
            assert!(mi.inserts[0].filter.is_some());
            assert_eq!(mi.inserts[1].columns, Some(vec!["x".into()]));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn describe_and_show_partitions_parse() {
    assert!(matches!(
        parse("DESCRIBE t"),
        Statement::Describe {
            extended: false,
            ..
        }
    ));
    assert!(matches!(
        parse("DESC EXTENDED db.t"),
        Statement::Describe { extended: true, .. }
    ));
    assert!(matches!(
        parse("SHOW PARTITIONS store_sales"),
        Statement::ShowPartitions { .. }
    ));
}

#[test]
fn show_transactions_parses() {
    assert!(matches!(
        parse("SHOW TRANSACTIONS"),
        Statement::ShowTransactions
    ));
    assert!(matches!(
        parse("SHOW COMPACTIONS"),
        Statement::ShowCompactions
    ));
    assert!(hive_sql::parse_sql("SHOW NONSENSE").is_err());
}

#[test]
fn decimal_types_are_validated() {
    // Precision 1..=38, scale at most the precision; nothing truncates.
    for (sql, want) in [
        (
            "CREATE TABLE t (d DECIMAL(38,38))",
            Some(DataType::Decimal(38, 38)),
        ),
        (
            "CREATE TABLE t (d DECIMAL(1))",
            Some(DataType::Decimal(1, 0)),
        ),
        ("CREATE TABLE t (d DECIMAL)", Some(DataType::Decimal(10, 0))),
        ("CREATE TABLE t (d DECIMAL(300,2))", None),
        ("CREATE TABLE t (d DECIMAL(39,2))", None),
        ("CREATE TABLE t (d DECIMAL(0,0))", None),
        ("CREATE TABLE t (d DECIMAL(38,60))", None),
        ("CREATE TABLE t (d DECIMAL(5,9))", None),
        ("CREATE TABLE t (d DECIMAL(5,256))", None),
    ] {
        match (parse_sql(sql), want) {
            (Ok(Statement::CreateTable(ct)), Some(dt)) => assert_eq!(ct.columns[0].data_type, dt),
            (Err(hive_common::HiveError::Parse(_)), None) => {}
            (got, want) => panic!("{sql}: {got:?}, wanted {want:?}"),
        }
    }
    for sql in [
        "SELECT CAST(1.5 AS DECIMAL(10,50))",
        "SELECT CAST(1.5 AS DECIMAL(300,2))",
    ] {
        assert!(
            matches!(parse_sql(sql), Err(hive_common::HiveError::Parse(_))),
            "{sql}"
        );
    }
}
