//! Materialized-view lifecycle (paper §4.4): creation, rebuild, and
//! the freshness/staleness rules deciding which views are usable for
//! rewriting under the current snapshot.

use crate::driver::QuerySnapshots;
use crate::session::{QueryResult, Session};
use hive_common::{HiveError, Result, VectorBatch};
use hive_dfs::DfsPath;
use hive_metastore::{MaterializedViewInfo, Metastore, TableBuilder, TableType};
use hive_optimizer::mv_rewrite::UsableView;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{Analyzer, MetastoreCatalog};
use hive_sql as ast;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Wall-clock millis (staleness windows).
fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Table property defining the allowed staleness window, e.g.
/// `'rewriting.time.window' = '600000'` (milliseconds) — the paper's
/// "define a window for data staleness allowed in the materialized view
/// definition using a table property".
pub const STALENESS_PROP: &str = "rewriting.time.window";

/// `CREATE MATERIALIZED VIEW ... AS SELECT ...`
pub(crate) fn create_view(
    session: &Session,
    cmv: ast::CreateMaterializedView,
) -> Result<QueryResult> {
    let db = cmv.name.db.clone().unwrap_or_else(|| session.current_db());
    let name = cmv.name.name.clone();
    let ms = session.server.metastore();
    if ms.table_exists(&db, &name) {
        if cmv.if_not_exists {
            return Ok(QueryResult::message(format!("{db}.{name} exists")));
        }
        return Err(HiveError::Catalog(format!(
            "materialized view exists: {db}.{name}"
        )));
    }
    let conf = session.server.conf();
    // Plan + execute the definition.
    let (plan, _) = session.plan_query(&cmv.query, &conf)?;
    let (batch, _) = session.execute_plan(&plan, &conf)?;
    let sources = plan.referenced_tables();
    let (snapshots, incarnations) = source_versions(ms, &sources);
    let staleness = cmv
        .properties
        .iter()
        .find(|(k, _)| k == STALENESS_PROP)
        .and_then(|(_, v)| v.parse::<u64>().ok());
    let info = MaterializedViewInfo {
        definition: render_query(&cmv.query),
        source_tables: sources.clone(),
        source_snapshots: snapshots,
        source_incarnations: incarnations,
        last_rebuild_millis: now_millis(),
        staleness_window_millis: staleness,
        rewrite_enabled: true,
    };
    let mut builder = TableBuilder::new(&db, &name, batch.schema().clone()).mv_info(info);
    for (k, v) in &cmv.properties {
        builder = builder.property(k, v);
    }
    if let Some(h) = &cmv.stored_by {
        // MV stored in an external system (§4.4: "they can be stored …
        // in other supported systems").
        builder = builder.stored_by(h);
    }
    let mut table = builder.build();
    // `stored_by` resets the table type; restore MV identity.
    table.table_type = TableType::MaterializedView;
    if let Some(h) = &cmv.stored_by {
        let handler = session.server.inner.registry.get(h)?;
        handler.on_table_created(&mut table)?;
    }
    let qname = table.qualified_name();
    let rows = batch.num_rows() as u64;
    ms.create_table(table.clone())?;
    write_contents(session, &table, &batch)?;
    let mut stats = hive_metastore::TableStats::new(batch.num_columns());
    stats.update_batch(&batch);
    ms.set_table_stats(&qname, stats);
    if let Some(info) = &table.mv_info {
        // Built here so the first query after CREATE finds it.
        definition_plan(session, &table, info);
    }
    Ok(QueryResult {
        affected_rows: rows,
        message: Some(format!("created materialized view {qname} ({rows} rows)")),
        ..QueryResult::empty()
    })
}

/// Write MV contents (native base write or storage-handler write).
fn write_contents(
    session: &Session,
    table: &hive_metastore::Table,
    batch: &VectorBatch,
) -> Result<()> {
    let ms = session.server.metastore();
    if let Some(h) = &table.storage_handler {
        let handler = session.server.inner.registry.get(h)?;
        return handler.write(table, batch);
    }
    let qname = table.qualified_name();
    let txn = ms.open_txn();
    let wid = ms.allocate_write_id(txn, &qname)?;
    let writer = hive_acid::AcidWriter::new(
        session.server.fs(),
        &DfsPath::new(&table.location),
        table.schema.clone(),
    );
    writer.write_insert_delta(wid, batch)?;
    ms.commit_txn(txn)
}

/// `ALTER MATERIALIZED VIEW name REBUILD`.
///
/// Per §4.4, Hive attempts an incremental rebuild and falls back to full
/// rebuild. Here: SPJ views over insert-only sources rebuild
/// incrementally (an INSERT of just the new records); SPJA views and
/// views whose sources saw updates/deletes rebuild fully.
pub(crate) fn rebuild(session: &Session, name: &ast::ObjectName) -> Result<QueryResult> {
    let db = name.db.clone().unwrap_or_else(|| session.current_db());
    let ms = session.server.metastore();
    let table = ms.get_table(&db, &name.name)?;
    let info = table.mv_info.clone().ok_or_else(|| {
        HiveError::Catalog(format!("{db}.{} is not a materialized view", name.name))
    })?;
    let conf = session.server.conf();
    let query = hive_sql::parse_sql(&info.definition)?;
    let ast::Statement::Query(q) = query else {
        return Err(HiveError::Catalog("corrupt MV definition".into()));
    };
    let (plan, _) = session.plan_query(&q, &conf)?;

    // Incremental eligibility: SPJ definition + insert-only source
    // changes (no delete deltas past the recorded snapshot) to the
    // tables the snapshot was taken of — a re-created source shares
    // nothing with the rows the view holds.
    let is_spj = !plan_has_aggregate(&plan);
    let incremental = is_spj
        && table.storage_handler.is_none()
        && freshness(ms, &info) != Freshness::Orphaned
        && sources_insert_only(session, &info)?;

    let mode;
    if incremental {
        // Read only records newer than the recorded snapshot: a snapshot
        // list that hides everything at or below the old high watermark.
        let (batch, _) = execute_with_floor(session, &plan, &conf, &info)?;
        mode = format!("incremental (+{} rows)", batch.num_rows());
        if batch.num_rows() > 0 {
            write_contents(session, &table, &batch)?;
            let mut delta = hive_metastore::TableStats::new(batch.num_columns());
            delta.update_batch(&batch);
            ms.merge_table_stats(&table.qualified_name(), &delta);
        }
    } else {
        // Full rebuild: recompute and replace.
        let (batch, _) = session.execute_plan(&plan, &conf)?;
        mode = format!("full ({} rows)", batch.num_rows());
        if table.storage_handler.is_none() {
            // Drop old contents, write fresh.
            let _ = session
                .server
                .fs()
                .delete_dir(&DfsPath::new(&table.location));
            write_contents(session, &table, &batch)?;
        } else {
            write_contents(session, &table, &batch)?;
        }
        let mut stats = hive_metastore::TableStats::new(batch.num_columns());
        stats.update_batch(&batch);
        ms.set_table_stats(&table.qualified_name(), stats);
    }
    // Refresh the snapshot metadata.
    let (snapshots, incarnations) = source_versions(ms, &info.source_tables);
    ms.update_mv_info(
        &db,
        &name.name,
        MaterializedViewInfo {
            source_snapshots: snapshots,
            source_incarnations: incarnations,
            last_rebuild_millis: now_millis(),
            ..info
        },
    )?;
    Ok(QueryResult::message(format!(
        "rebuilt {db}.{} — {mode}",
        name.name
    )))
}

/// Execute the MV definition over only the records above the recorded
/// snapshot (the incremental-maintenance read, §4.4: "the materialized
/// view definition is enriched with filter conditions on the WriteId
/// column value of each table scanned").
fn execute_with_floor(
    session: &Session,
    plan: &LogicalPlan,
    conf: &hive_common::HiveConf,
    info: &MaterializedViewInfo,
) -> Result<(VectorBatch, hive_exec::NodeTrace)> {
    struct FloorSnapshots<'a> {
        base: QuerySnapshots<'a>,
        floors: &'a BTreeMap<String, u64>,
    }
    impl hive_exec::SnapshotProvider for FloorSnapshots<'_> {
        fn write_ids(&self, table: &str) -> hive_metastore::ValidWriteIdList {
            let mut w = self.base.write_ids(table);
            if let Some(&floor) = self.floors.get(table) {
                // Mark everything at or below the floor invalid-for-read
                // by treating it as aborted history (read-side only).
                for wid in 1..=floor {
                    w.aborted.insert(hive_common::WriteId(wid));
                }
            }
            w
        }
    }
    let snaps = FloorSnapshots {
        base: QuerySnapshots::new(session.server.metastore(), None),
        floors: &info.source_snapshots,
    };
    let scanner = session.server.federation_scanner();
    let mut ctx = hive_exec::ExecContext::new(
        session.server.fs(),
        session.server.metastore(),
        conf,
        Some(session.server.llap()),
        &snaps,
        Some(&scanner),
    );
    ctx.prepare_shared_work(plan);
    hive_exec::execute(plan, &ctx)
}

fn plan_has_aggregate(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| {
        if matches!(p, LogicalPlan::Aggregate { .. }) {
            found = true;
        }
    });
    found
}

/// Have the MV's sources only gained inserts since the snapshot? (Any
/// delete delta above the recorded floor forces a full rebuild.)
fn sources_insert_only(session: &Session, info: &MaterializedViewInfo) -> Result<bool> {
    for source in &info.source_tables {
        let Some((db, tname)) = source.split_once('.') else {
            continue;
        };
        let table = session.server.metastore().get_table(db, tname)?;
        let floor = info.source_snapshots.get(source).copied().unwrap_or(0);
        let dirs: Vec<DfsPath> = if table.is_partitioned() {
            table
                .partitions
                .values()
                .map(|i| DfsPath::new(&i.location))
                .collect()
        } else {
            vec![DfsPath::new(&table.location)]
        };
        for dir in dirs {
            for entry in session.server.fs().list(&dir) {
                if let Some(d) = hive_acid::AcidDir::parse(&entry.path) {
                    if d.kind == hive_acid::DirKind::DeleteDelta && d.max_wid.raw() > floor {
                        return Ok(false);
                    }
                }
            }
        }
    }
    Ok(true)
}

/// The sources' current WriteId high watermarks and incarnations: what
/// a (re)build records as the state its contents reflect.
fn source_versions(
    ms: &Metastore,
    sources: &[String],
) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    sources
        .iter()
        .map(|t| {
            let v = ms.table_version(t);
            ((t.clone(), v.hwm.raw()), (t.clone(), v.incarnation))
        })
        .unzip()
}

/// How a view's contents stand to its sources as they are now.
#[derive(Debug, PartialEq, Eq)]
enum Freshness {
    /// Nothing was written to any source since the last (re)build.
    Fresh,
    /// Sources gained writes: usable inside the staleness window only.
    Behind,
    /// A source was dropped, or dropped and re-created: the contents
    /// describe a table that no longer exists, whatever the WriteId
    /// counters (kept per name, across the drop) say.
    Orphaned,
}

fn freshness(ms: &Metastore, info: &MaterializedViewInfo) -> Freshness {
    let mut state = Freshness::Fresh;
    for t in &info.source_tables {
        let now = ms.table_version(t);
        if now.incarnation != info.source_incarnations.get(t).copied().unwrap_or(0) {
            return Freshness::Orphaned;
        }
        if now.hwm.raw() != info.source_snapshots.get(t).copied().unwrap_or(0) {
            state = Freshness::Behind;
        }
    }
    state
}

/// Does `plan` read a materialized view that is not fresh? (What such a
/// plan returns is good for the view's staleness window only.)
pub(crate) fn reads_stale_view(ms: &Metastore, plan: &LogicalPlan) -> bool {
    plan.referenced_tables().iter().any(|t| {
        ms.get_table_qualified(t)
            .and_then(|table| table.mv_info.as_ref().map(|i| freshness(ms, i)))
            .is_some_and(|f| f != Freshness::Fresh)
    })
}

/// Views usable for rewriting under the current state: fresh views, plus
/// views behind their sources but still inside their declared staleness
/// window.
pub(crate) fn usable_views(session: &Session) -> Result<Vec<UsableView>> {
    let ms = session.server.metastore();
    let mut out = Vec::new();
    for table in ms.rewrite_enabled_views() {
        let Some(info) = &table.mv_info else {
            continue;
        };
        let usable = match freshness(ms, info) {
            Freshness::Fresh => true,
            Freshness::Behind => info
                .staleness_window_millis
                .is_some_and(|w| now_millis().saturating_sub(info.last_rebuild_millis) <= w),
            Freshness::Orphaned => false,
        };
        if !usable {
            continue;
        }
        let Some(plan) = definition_plan(session, &table, info) else {
            continue;
        };
        out.push(UsableView { table, plan });
    }
    Ok(out)
}

/// What the server keeps with a materialized view: its definition plan
/// (`None`: the definition does not analyze) and the metastore DDL
/// generation it was derived under.
pub(crate) struct DefinitionPlan {
    built_under: u64,
    plan: Option<Arc<LogicalPlan>>,
}

/// The view's definition as the rewriter wants it: parsed, analyzed in
/// the view's database, and normalized like the query side will be
/// (pushdown etc.). `None` when the definition does not analyze (a
/// source was dropped or re-created with another schema).
///
/// What the text binds to can only change with DDL, so the plan is kept
/// with the view under the metastore's DDL generation and re-derived
/// when that moved — never per query, and not on INSERT or REBUILD,
/// which change data and snapshots but not definitions.
fn definition_plan(
    session: &Session,
    table: &hive_metastore::Table,
    info: &MaterializedViewInfo,
) -> Option<Arc<LogicalPlan>> {
    let ms = session.server.metastore();
    let qname = table.qualified_name();
    // Read before analyzing: a DDL racing the analysis leaves an entry
    // the next query sees as outdated.
    let generation = ms.ddl_generation();
    if let Some(kept) = session.server.inner.mv_plans.lock().get(&qname) {
        if kept.built_under == generation {
            return kept.plan.clone();
        }
    }
    let plan = analyze_definition(ms, &table.db, &info.definition);
    session.server.inner.mv_plans.lock().insert(
        qname,
        DefinitionPlan {
            built_under: generation,
            plan: plan.clone(),
        },
    );
    plan
}

fn analyze_definition(
    ms: &hive_metastore::Metastore,
    db: &str,
    definition: &str,
) -> Option<Arc<LogicalPlan>> {
    let Ok(ast::Statement::Query(q)) = hive_sql::parse_sql(definition) else {
        return None;
    };
    let cat = MetastoreCatalog::new(ms.clone(), db.to_string());
    let plan = Analyzer::new(&cat).analyze_query(&q).ok()?;
    Some(hive_optimizer::Optimizer::exhaustive(&Arc::new(plan)).data)
}

/// Render a query AST back to SQL-ish text for storage. The parser
/// accepts everything we emit via Debug round-trip storage; we keep the
/// original text when available instead.
fn render_query(q: &ast::Query) -> String {
    // The AST has no pretty-printer; store a canonical debug form that
    // `parse_sql` cannot read — so instead re-render from the minimal
    // subset we need. To stay faithful and simple, we store the original
    // text captured at parse time when the caller provides it; as a
    // fallback we re-render SELECT bodies.
    crate::mv::render::query_sql(q)
}

pub(crate) mod render {
    //! Minimal AST → SQL rendering (enough to round-trip MV definitions
    //! through the parser).

    use hive_sql as ast;

    pub fn query_sql(q: &ast::Query) -> String {
        let mut s = String::new();
        if !q.ctes.is_empty() {
            s.push_str("WITH ");
            for (i, (name, cq)) in q.ctes.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{name} AS ({})", query_sql(cq)));
            }
            s.push(' ');
        }
        s.push_str(&body_sql(&q.body));
        if !q.order_by.is_empty() {
            s.push_str(" ORDER BY ");
            let parts: Vec<String> = q
                .order_by
                .iter()
                .map(|o| format!("{}{}", expr_sql(&o.expr), if o.asc { "" } else { " DESC" }))
                .collect();
            s.push_str(&parts.join(", "));
        }
        if let Some(n) = q.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        s
    }

    fn body_sql(b: &ast::QueryBody) -> String {
        match b {
            ast::QueryBody::Select(sel) => select_sql(sel),
            ast::QueryBody::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let kw = match op {
                    ast::SetOperator::Union => "UNION",
                    ast::SetOperator::Intersect => "INTERSECT",
                    ast::SetOperator::Except => "EXCEPT",
                };
                format!(
                    "{} {kw}{} {}",
                    body_sql(left),
                    if *all { " ALL" } else { "" },
                    body_sql(right)
                )
            }
        }
    }

    fn select_sql(sel: &ast::Select) -> String {
        let mut s = String::from("SELECT ");
        if sel.distinct {
            s.push_str("DISTINCT ");
        }
        let items: Vec<String> = sel
            .projection
            .iter()
            .map(|i| match i {
                ast::SelectItem::Wildcard => "*".to_string(),
                ast::SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
                ast::SelectItem::Expr { expr, alias } => match alias {
                    Some(a) => format!("{} AS {a}", expr_sql(expr)),
                    None => expr_sql(expr),
                },
            })
            .collect();
        s.push_str(&items.join(", "));
        if !sel.from.is_empty() {
            s.push_str(" FROM ");
            let froms: Vec<String> = sel.from.iter().map(table_ref_sql).collect();
            s.push_str(&froms.join(", "));
        }
        if let Some(w) = &sel.selection {
            s.push_str(&format!(" WHERE {}", expr_sql(w)));
        }
        if !sel.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            let keys: Vec<String> = sel.group_by.iter().map(expr_sql).collect();
            s.push_str(&keys.join(", "));
        }
        if let Some(h) = &sel.having {
            s.push_str(&format!(" HAVING {}", expr_sql(h)));
        }
        s
    }

    fn table_ref_sql(t: &ast::TableRef) -> String {
        match t {
            ast::TableRef::Table { name, alias } => match alias {
                Some(a) => format!("{name} {a}"),
                None => name.to_string(),
            },
            ast::TableRef::Subquery { query, alias } => {
                format!("({}) {alias}", query_sql(query))
            }
            ast::TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let kw = match kind {
                    ast::JoinKind::Inner => "JOIN",
                    ast::JoinKind::Left => "LEFT JOIN",
                    ast::JoinKind::Right => "RIGHT JOIN",
                    ast::JoinKind::Full => "FULL JOIN",
                    ast::JoinKind::Cross => "CROSS JOIN",
                    ast::JoinKind::LeftSemi => "LEFT SEMI JOIN",
                };
                let mut s = format!("{} {kw} {}", table_ref_sql(left), table_ref_sql(right));
                if let Some(cond) = on {
                    s.push_str(&format!(" ON {}", expr_sql(cond)));
                }
                s
            }
        }
    }

    pub fn expr_sql(e: &ast::Expr) -> String {
        use hive_common::Value;
        match e {
            ast::Expr::Literal(Value::String(s)) => format!("'{}'", s.replace('\'', "''")),
            ast::Expr::Literal(Value::Date(_)) => format!("DATE '{}'", literal_text(e)),
            ast::Expr::Literal(Value::Timestamp(_)) => {
                format!("TIMESTAMP '{}'", literal_text(e))
            }
            ast::Expr::Literal(v) => v.to_string(),
            ast::Expr::Column { qualifier, name } => match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            },
            ast::Expr::BinaryOp { left, op, right } => {
                format!("({} {op} {})", expr_sql(left), expr_sql(right))
            }
            ast::Expr::Not(i) => format!("NOT ({})", expr_sql(i)),
            ast::Expr::Negate(i) => format!("-({})", expr_sql(i)),
            ast::Expr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                expr_sql(expr),
                if *negated { "NOT " } else { "" }
            ),
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "{} {}BETWEEN {} AND {}",
                expr_sql(expr),
                if *negated { "NOT " } else { "" },
                expr_sql(low),
                expr_sql(high)
            ),
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(expr_sql).collect();
                format!(
                    "{} {}IN ({})",
                    expr_sql(expr),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            ast::Expr::Like {
                expr,
                pattern,
                negated,
            } => format!(
                "{} {}LIKE {}",
                expr_sql(expr),
                if *negated { "NOT " } else { "" },
                expr_sql(pattern)
            ),
            ast::Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let mut s = String::from("CASE");
                if let Some(o) = operand {
                    s.push_str(&format!(" {}", expr_sql(o)));
                }
                for (c, r) in branches {
                    s.push_str(&format!(" WHEN {} THEN {}", expr_sql(c), expr_sql(r)));
                }
                if let Some(x) = else_expr {
                    s.push_str(&format!(" ELSE {}", expr_sql(x)));
                }
                s.push_str(" END");
                s
            }
            ast::Expr::Cast { expr, to } => format!("CAST({} AS {to})", expr_sql(expr)),
            ast::Expr::Extract { field, expr } => {
                format!("EXTRACT({} FROM {})", field_name(field), expr_sql(expr))
            }
            ast::Expr::Function {
                name,
                args,
                distinct,
            } => {
                let a: Vec<String> = args.iter().map(expr_sql).collect();
                format!(
                    "{name}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    a.join(", ")
                )
            }
            ast::Expr::Window { .. }
            | ast::Expr::InSubquery { .. }
            | ast::Expr::Exists { .. }
            | ast::Expr::ScalarSubquery(_) => {
                // MV definitions with these shapes are rejected earlier
                // by the rewriter; render a placeholder for diagnostics.
                "/*unrenderable*/ NULL".to_string()
            }
        }
    }

    fn literal_text(e: &ast::Expr) -> String {
        match e {
            ast::Expr::Literal(v) => v.to_string(),
            _ => String::new(),
        }
    }

    fn field_name(f: &hive_common::dates::DateField) -> &'static str {
        use hive_common::dates::DateField::*;
        match f {
            Year => "year",
            Quarter => "quarter",
            Month => "month",
            Day => "day",
            DayOfWeek => "dow",
            Hour => "hour",
            Minute => "minute",
            Second => "second",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::usable_views;
    use crate::HiveServer;
    use hive_common::HiveConf;
    use std::sync::Arc;

    /// The definition plan is kept with the view: a query gets the same
    /// `Arc`, data changes (INSERT, REBUILD) decide usability without
    /// re-deriving it, and DDL under the view re-derives it — so a plan
    /// analyzed against a dropped table is never offered.
    #[test]
    fn definition_plan_follows_ddl_not_data() {
        for results_cache in [true, false] {
            definition_plan_follows_ddl_not_data_with(results_cache);
        }
    }

    fn definition_plan_follows_ddl_not_data_with(results_cache: bool) {
        let server = HiveServer::new(HiveConf::v3_1().with(|c| c.results_cache = results_cache));
        let sess = server.session();
        sess.execute("CREATE TABLE base_t (k INT, v INT)").unwrap();
        let vals: Vec<String> = (0..200).map(|i| format!("({}, 1)", i % 2 + 1)).collect();
        sess.execute(&format!("INSERT INTO base_t VALUES {}", vals.join(", ")))
            .unwrap();
        sess.execute(
            "CREATE MATERIALIZED VIEW mv_sum AS SELECT k, SUM(v) AS s FROM base_t GROUP BY k",
        )
        .unwrap();
        let q = "SELECT k, SUM(v) AS s FROM base_t GROUP BY k";
        assert!(sess.execute(q).unwrap().used_mv);
        let first = usable_views(&sess).unwrap().remove(0).plan;
        let again = usable_views(&sess).unwrap().remove(0).plan;
        assert!(Arc::ptr_eq(&first, &again), "a query re-derived the plan");

        sess.execute("INSERT INTO base_t VALUES (1, 5)").unwrap();
        assert!(
            usable_views(&sess).unwrap().is_empty(),
            "stale view offered"
        );
        let over_base = sess.execute(q).unwrap();
        assert!(!over_base.used_mv && !over_base.from_cache);
        sess.execute("ALTER MATERIALIZED VIEW mv_sum REBUILD")
            .unwrap();
        let rebuilt = usable_views(&sess).unwrap().remove(0).plan;
        assert!(
            Arc::ptr_eq(&first, &rebuilt),
            "data changes re-derived the plan"
        );
        // The planner would choose the rebuilt view again; with the
        // results cache on it is not asked — the base table's rows did
        // not change, and the hit reports the run that computed them.
        let r = sess.execute(q).unwrap();
        assert_eq!((r.from_cache, r.used_mv), (results_cache, !results_cache));
        let sorted = |r: &crate::QueryResult| {
            let mut rows = r.display_rows();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&r), vec!["1\t105", "2\t100"]);
        assert_eq!(sorted(&r), sorted(&over_base));

        // The source comes back with another schema: the text no longer
        // binds, and the plan analyzed before the DDL must be gone.
        sess.execute("DROP TABLE base_t").unwrap();
        sess.execute("CREATE TABLE base_t (k INT, w INT)").unwrap();
        assert!(
            usable_views(&sess).unwrap().is_empty(),
            "plan from before the DDL offered"
        );
        let r = sess
            .execute("SELECT k, MAX(w) AS m FROM base_t GROUP BY k")
            .unwrap();
        assert!(!r.used_mv && r.display_rows().is_empty());

        // Dropping the view drops its plan.
        sess.execute("DROP TABLE mv_sum").unwrap();
        assert!(server.inner.mv_plans.lock().is_empty());
    }
}
