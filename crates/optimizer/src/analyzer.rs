//! The analyzer/binder: resolves an AST against the catalog and lowers
//! it into a typed [`LogicalPlan`].
//!
//! Responsibilities:
//! * name resolution (qualified/unqualified columns, aliases, CTEs);
//! * type coercion (explicit casts inserted so operand types align);
//! * aggregate/window extraction;
//! * **subquery decorrelation** (§3.1's correlated subqueries): IN /
//!   EXISTS become Semi/Anti joins, scalar subqueries become (grouped)
//!   left joins, with correlated conjuncts pulled up into join
//!   conditions;
//! * GROUPING SETS / ROLLUP / CUBE, DISTINCT, set operations, ORDER BY
//!   over unselected columns.

use crate::expr::{AggExpr, AggFunc, BuiltinFunc, ScalarExpr, SortKey, WindowExpr, WindowFunc};
use crate::plan::{row_id_fields, JoinType, LogicalPlan, ScanTable};
use hive_common::{HiveError, Result, Schema, Value};
use hive_metastore::Table;
use hive_sql as ast;
use hive_sql::{BinaryOp, ObjectName, SelectItem};
use std::collections::HashMap;
use std::sync::Arc;

mod dml;
pub use dml::{DmlKind, DmlPlan, UpdateArm};

/// Catalog access needed by the analyzer.
pub trait CatalogView {
    /// Resolve a table by database and name.
    fn get_table(&self, db: &str, name: &str) -> Result<Arc<Table>>;
    /// The session's current database.
    fn default_db(&self) -> String;
}

/// The standard [`CatalogView`] over a [`hive_metastore::Metastore`]
/// plus a session-current database.
pub struct MetastoreCatalog {
    ms: hive_metastore::Metastore,
    db: String,
}

impl MetastoreCatalog {
    /// Bind a metastore and current database.
    pub fn new(ms: hive_metastore::Metastore, db: impl Into<String>) -> Self {
        MetastoreCatalog { ms, db: db.into() }
    }
}

impl CatalogView for MetastoreCatalog {
    fn get_table(&self, db: &str, name: &str) -> Result<Arc<Table>> {
        self.ms.get_table(db, name)
    }

    fn default_db(&self) -> String {
        self.db.clone()
    }
}

/// One column visible in a scope.
#[derive(Debug, Clone)]
struct ScopeColumn {
    qualifier: Option<String>,
    name: String,
}

/// A resolution scope: columns aligned with a plan's output schema,
/// plus an optional parent (outer query) scope for correlation.
#[derive(Debug, Clone, Default)]
struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    fn from_schema(schema: &Schema, qualifier: Option<&str>) -> Scope {
        Scope {
            columns: schema
                .fields()
                .iter()
                .map(|f| ScopeColumn {
                    qualifier: qualifier.map(|q| q.to_ascii_lowercase()),
                    name: f.name.clone(),
                })
                .collect(),
        }
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Scope { columns }
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let name = name.to_ascii_lowercase();
        let qualifier = qualifier.map(|q| q.to_ascii_lowercase());
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == name
                    && match &qualifier {
                        Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Ok(None),
            1 => Ok(Some(matches[0])),
            _ if qualifier.is_none() => {
                // Ambiguous unqualified reference: Hive resolves to the
                // first occurrence when names collide across inputs only
                // if identical; we error to be safe, except equal-name
                // self-join keys resolve to the first.
                Ok(Some(matches[0]))
            }
            _ => Err(HiveError::Analysis(format!("ambiguous column: {name}"))),
        }
    }
}

/// The analyzer.
pub struct Analyzer<'a> {
    catalog: &'a dyn CatalogView,
}

/// State while planning one SELECT: the current input plan and scope,
/// growing as subquery joins are spliced in.
struct SelectContext<'o> {
    plan: Arc<LogicalPlan>,
    scope: Scope,
    /// Outer scope + plan schema length, for correlated subqueries.
    outer: Option<&'o OuterContext<'o>>,
    /// Collected correlated conjuncts (inner-side expr, op, outer col).
    correlated: Vec<(ScalarExpr, BinaryOp, usize)>,
}

struct OuterContext<'o> {
    scope: &'o Scope,
    parent: Option<&'o OuterContext<'o>>,
}

impl<'a> Analyzer<'a> {
    /// Create an analyzer over a catalog.
    pub fn new(catalog: &'a dyn CatalogView) -> Self {
        Analyzer { catalog }
    }

    /// Analyze a full query into a logical plan.
    pub fn analyze_query(&self, q: &ast::Query) -> Result<LogicalPlan> {
        let mut ctes = HashMap::new();
        self.analyze_query_with(q, &mut ctes, None)
    }

    fn analyze_query_with(
        &self,
        q: &ast::Query,
        ctes: &mut HashMap<String, ast::Query>,
        outer: Option<&OuterContext>,
    ) -> Result<LogicalPlan> {
        // Register CTEs (shadowing outer ones of the same name).
        let mut local_ctes = ctes.clone();
        for (name, cte_q) in &q.ctes {
            local_ctes.insert(name.clone(), cte_q.clone());
        }
        let (plan, scope) = self.analyze_body(&q.body, &mut local_ctes, outer)?;
        let mut plan = Arc::new(plan);

        // ORDER BY: resolve against the output scope; fall back to the
        // final projection's *input* for unselected columns (a feature
        // Hive 1.2 lacked — see Figure 7's failing queries).
        if !q.order_by.is_empty() {
            let schema = plan.schema();
            let lower_key = |item: &ast::OrderItem,
                             plan: &Arc<LogicalPlan>,
                             scope: &Scope|
             -> Result<ScalarExpr> {
                match &item.expr {
                    ast::Expr::Literal(Value::Int(n))
                        if *n >= 1 && (*n as usize) <= schema.len() =>
                    {
                        Ok(ScalarExpr::Column(*n as usize - 1))
                    }
                    e => {
                        let mut ctx = SelectContext {
                            plan: plan.clone(),
                            scope: scope.clone(),
                            outer: None,
                            correlated: Vec::new(),
                        };
                        let direct = self.lower_expr(e, &mut ctx, &mut local_ctes.clone());
                        match (direct, e) {
                            (Ok(x), _) => Ok(x),
                            // The select list strips qualifiers; `ORDER BY
                            // a.k` refers to output column `k`.
                            (
                                Err(_),
                                ast::Expr::Column {
                                    qualifier: Some(_),
                                    name,
                                },
                            ) => self.lower_expr(
                                &ast::Expr::Column {
                                    qualifier: None,
                                    name: name.clone(),
                                },
                                &mut ctx,
                                &mut local_ctes.clone(),
                            ),
                            (err, _) => err,
                        }
                    }
                }
            };
            let direct: Result<Vec<ScalarExpr>> = q
                .order_by
                .iter()
                .map(|item| lower_key(item, &plan, &scope))
                .collect();
            match direct {
                Ok(exprs) => {
                    let keys = exprs
                        .into_iter()
                        .zip(&q.order_by)
                        .map(|(expr, item)| SortKey {
                            expr,
                            asc: item.asc,
                            nulls_first: item.nulls_first.unwrap_or(false),
                        })
                        .collect();
                    plan = Arc::new(LogicalPlan::Sort { input: plan, keys });
                }
                Err(_) => {
                    // Unselected-column fallback: only valid above a
                    // projection whose input still has the columns.
                    let LogicalPlan::Project {
                        input,
                        exprs,
                        names,
                    } = plan.as_ref()
                    else {
                        // Re-raise the original resolution error.
                        for item in &q.order_by {
                            lower_key(item, &plan, &scope)?;
                        }
                        unreachable!("direct lowering failed then succeeded");
                    };
                    let in_scope = Scope::from_schema(&input.schema(), None);
                    let orig_len = exprs.len();
                    let mut ext_exprs = exprs.clone();
                    let mut ext_names = names.clone();
                    let mut keys = Vec::new();
                    for item in &q.order_by {
                        // Prefer the output column when it resolves.
                        let expr = match lower_key(item, &plan, &scope) {
                            Ok(e) => e,
                            Err(_) => {
                                let under = lower_key(item, input, &in_scope)?;
                                ext_exprs.push(under);
                                ext_names.push(format!("_sort{}", ext_names.len()));
                                ScalarExpr::Column(ext_exprs.len() - 1)
                            }
                        };
                        keys.push(SortKey {
                            expr,
                            asc: item.asc,
                            nulls_first: item.nulls_first.unwrap_or(false),
                        });
                    }
                    let extended = Arc::new(LogicalPlan::Project {
                        input: input.clone(),
                        exprs: ext_exprs,
                        names: ext_names.clone(),
                    });
                    let sorted = Arc::new(LogicalPlan::Sort {
                        input: extended,
                        keys,
                    });
                    // Drop the helper sort columns again.
                    plan = Arc::new(LogicalPlan::Project {
                        input: sorted,
                        exprs: (0..orig_len).map(ScalarExpr::Column).collect(),
                        names: ext_names[..orig_len].to_vec(),
                    });
                }
            }
        }
        if let Some(n) = q.limit {
            plan = Arc::new(LogicalPlan::Limit { input: plan, n });
        }
        Ok(Arc::try_unwrap(plan).unwrap_or_else(|a| (*a).clone()))
    }

    fn analyze_body(
        &self,
        body: &ast::QueryBody,
        ctes: &mut HashMap<String, ast::Query>,
        outer: Option<&OuterContext>,
    ) -> Result<(LogicalPlan, Scope)> {
        match body {
            ast::QueryBody::Select(sel) => self.analyze_select(sel, ctes, outer),
            ast::QueryBody::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (lp, ls) = self.analyze_body(left, ctes, outer)?;
                let (rp, _) = self.analyze_body(right, ctes, outer)?;
                let lschema = lp.schema();
                let rschema = rp.schema();
                if lschema.len() != rschema.len() {
                    return Err(HiveError::Analysis(format!(
                        "set operation arity mismatch: {} vs {}",
                        lschema.len(),
                        rschema.len()
                    )));
                }
                // Cast right side to the left side's types.
                let rp = cast_to_schema(Arc::new(rp), &lschema)?;
                let lp = Arc::new(lp);
                let plan = match op {
                    ast::SetOperator::Union => {
                        let union = LogicalPlan::Union {
                            inputs: vec![lp, rp],
                        };
                        if *all {
                            union
                        } else {
                            distinct_of(Arc::new(union))
                        }
                    }
                    _ => LogicalPlan::SetOp {
                        op: *op,
                        all: *all,
                        left: lp,
                        right: rp,
                    },
                };
                Ok((plan, ls))
            }
        }
    }

    // ---- FROM clause -----------------------------------------------------

    fn analyze_table_ref(
        &self,
        t: &ast::TableRef,
        ctes: &mut HashMap<String, ast::Query>,
        outer: Option<&OuterContext>,
    ) -> Result<(Arc<LogicalPlan>, Scope)> {
        match t {
            ast::TableRef::Table { name, alias } => {
                // CTE reference?
                if name.db.is_none() {
                    if let Some(cte_q) = ctes.get(&name.name).cloned() {
                        let plan = self.analyze_query_with(&cte_q, &mut ctes.clone(), None)?;
                        let q = alias.as_deref().unwrap_or(&name.name);
                        let scope = Scope::from_schema(&plan.schema(), Some(q));
                        return Ok((Arc::new(plan), scope));
                    }
                }
                let (scan, table_alias, _) = self.plan_scan(name, alias.as_deref(), false)?;
                let scope = Scope::from_schema(&scan.schema(), Some(&table_alias));
                Ok((Arc::new(scan), scope))
            }
            ast::TableRef::Subquery { query, alias } => {
                let plan = self.analyze_query_with(query, ctes, outer)?;
                let scope = Scope::from_schema(&plan.schema(), Some(alias));
                Ok((Arc::new(plan), scope))
            }
            ast::TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.analyze_table_ref(left, ctes, outer)?;
                let (rp, rs) = self.analyze_table_ref(right, ctes, outer)?;
                let joint_scope = ls.concat(&rs);
                let join_type = match kind {
                    ast::JoinKind::Inner => JoinType::Inner,
                    ast::JoinKind::Left => JoinType::Left,
                    ast::JoinKind::Right => JoinType::Right,
                    ast::JoinKind::Full => JoinType::Full,
                    ast::JoinKind::Cross => JoinType::Cross,
                    ast::JoinKind::LeftSemi => JoinType::Semi,
                };
                let (equi, residual) = match on {
                    Some(cond) => {
                        let mut ctx = SelectContext {
                            plan: Arc::new(LogicalPlan::Join {
                                left: lp.clone(),
                                right: rp.clone(),
                                join_type: JoinType::Inner,
                                equi: vec![],
                                residual: None,
                            }),
                            scope: joint_scope.clone(),
                            outer: None,
                            correlated: Vec::new(),
                        };
                        let lowered = self.lower_expr(cond, &mut ctx, ctes)?;
                        split_join_condition(lowered, lp.schema().len())?
                    }
                    None => (vec![], None),
                };
                let out_scope = if join_type.keeps_right() {
                    joint_scope
                } else {
                    ls
                };
                Ok((
                    Arc::new(LogicalPlan::Join {
                        left: lp,
                        right: rp,
                        join_type,
                        equi,
                        residual,
                    }),
                    out_scope,
                ))
            }
        }
    }

    /// Plan a full-projection scan of a catalog table; with `row_ids`
    /// (DML targets) the scan also emits the record-identity columns.
    fn plan_scan(
        &self,
        name: &ObjectName,
        alias: Option<&str>,
        row_ids: bool,
    ) -> Result<(LogicalPlan, String, Arc<Table>)> {
        let db = name.db.clone().unwrap_or_else(|| self.catalog.default_db());
        let table = self.catalog.get_table(&db, &name.name)?;
        let mut full = table.full_schema();
        let data_cols = table.schema.len();
        let partition_cols = (data_cols..full.len()).collect();
        if row_ids {
            full = full.join(&Schema::new(row_id_fields().to_vec()));
        }
        let external_source = table
            .properties
            .get("druid.datasource")
            .or_else(|| table.properties.get("jdbc.table"))
            .cloned();
        let scan_table = ScanTable {
            qualified_name: table.qualified_name(),
            db: table.db.clone(),
            name: table.name.clone(),
            schema: full.clone(),
            partition_cols,
            handler: table.storage_handler.clone(),
            acid: table.is_acid(),
            is_mv: table.table_type == hive_metastore::TableType::MaterializedView,
            external_query: None,
            external_source,
            row_ids,
        };
        let alias = alias
            .map(|a| a.to_ascii_lowercase())
            .unwrap_or_else(|| table.name.clone());
        Ok((
            LogicalPlan::Scan {
                table: scan_table,
                projection: (0..full.len()).collect(),
                filters: vec![],
                partitions: None,
                semijoin_filters: vec![],
            },
            alias,
            table,
        ))
    }

    // ---- SELECT ------------------------------------------------------------

    fn analyze_select(
        &self,
        sel: &ast::Select,
        ctes: &mut HashMap<String, ast::Query>,
        outer: Option<&OuterContext>,
    ) -> Result<(LogicalPlan, Scope)> {
        // FROM: comma-separated refs become cross joins.
        let (plan, mut scope) = if sel.from.is_empty() {
            // SELECT without FROM: single empty row.
            (
                Arc::new(LogicalPlan::Values {
                    schema: Schema::empty(),
                    rows: vec![vec![]],
                }),
                Scope::default(),
            )
        } else {
            let mut iter = sel.from.iter();
            let (mut p, mut s) = self.analyze_table_ref(iter.next().unwrap(), ctes, outer)?;
            for t in iter {
                let (rp, rs) = self.analyze_table_ref(t, ctes, outer)?;
                p = Arc::new(LogicalPlan::Join {
                    left: p,
                    right: rp,
                    join_type: JoinType::Cross,
                    equi: vec![],
                    residual: None,
                });
                s = s.concat(&rs);
            }
            (p, s)
        };

        let mut ctx = SelectContext {
            plan: plan.clone(),
            scope: scope.clone(),
            outer,
            correlated: Vec::new(),
        };

        if let Some(pred) = &sel.selection {
            self.apply_where(pred, &mut ctx, ctes)?;
        }
        let _ = plan; // superseded by the context's plan from here on
        scope = ctx.scope.clone();

        // ---- aggregate & window extraction --------------------------------
        // Gather the output expressions (expanding wildcards).
        let mut out_exprs: Vec<(ast::Expr, Option<String>)> = Vec::new();
        for item in &sel.projection {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in scope.columns.iter().enumerate() {
                        out_exprs.push((
                            ast::Expr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            Some(scope.columns[i].name.clone()),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    for c in scope
                        .columns
                        .iter()
                        .filter(|c| c.qualifier.as_deref() == Some(q.as_str()))
                    {
                        out_exprs.push((
                            ast::Expr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            Some(c.name.clone()),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    out_exprs.push((expr.clone(), alias.clone()));
                }
            }
        }

        let has_aggs = !sel.group_by.is_empty()
            || sel.having.is_some()
            || out_exprs.iter().any(|(e, _)| contains_aggregate(e));

        let (final_plan, final_scope) = if has_aggs {
            self.plan_aggregate_select(sel, &out_exprs, ctx, ctes)?
        } else {
            self.plan_plain_select(sel, &out_exprs, ctx, ctes)?
        };

        // DISTINCT.
        if sel.distinct {
            let p = distinct_of(Arc::new(final_plan));
            return Ok((p, final_scope));
        }
        Ok((final_plan, final_scope))
    }

    /// Apply a WHERE predicate to `ctx.plan`. IN/EXISTS subqueries are
    /// only supported as top-level conjuncts (they become Semi/Anti
    /// joins); scalar subqueries may appear anywhere (they become Left
    /// joins producing a column).
    fn apply_where(
        &self,
        pred: &ast::Expr,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<()> {
        let mut plain: Vec<ScalarExpr> = Vec::new();
        for conjunct in split_ast_conjuncts(pred) {
            let (inner, negated) = unwrap_not(conjunct);
            match inner {
                ast::Expr::InSubquery {
                    expr,
                    query,
                    negated: n2,
                } => {
                    let key = self.lower_expr(expr, ctx, ctes)?;
                    let anti = negated ^ *n2;
                    self.plan_subquery_join(
                        ctx,
                        ctes,
                        query,
                        if anti { JoinType::Anti } else { JoinType::Semi },
                        Some(key),
                        false,
                    )?;
                }
                ast::Expr::Exists { query, negated: n2 } => {
                    let anti = negated ^ *n2;
                    self.plan_subquery_join(
                        ctx,
                        ctes,
                        query,
                        if anti { JoinType::Anti } else { JoinType::Semi },
                        None,
                        false,
                    )?;
                }
                _ => {
                    let lowered = self.lower_expr(conjunct, ctx, ctes)?;
                    plain.push(lowered);
                }
            }
        }
        if let Some(pred) = ScalarExpr::conjunction(plain) {
            ctx.plan = Arc::new(LogicalPlan::Filter {
                input: ctx.plan.clone(),
                predicate: pred,
            });
        }
        Ok(())
    }

    /// SELECT without aggregation: project (with window extraction).
    fn plan_plain_select(
        &self,
        _sel: &ast::Select,
        out_exprs: &[(ast::Expr, Option<String>)],
        mut ctx: SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<(LogicalPlan, Scope)> {
        // Extract window expressions first; each becomes a named column
        // appended by the Window node, and its occurrences in the select
        // list are substituted by that column reference (windows may be
        // nested inside larger expressions).
        let windows = collect_windows(out_exprs.iter().map(|(e, _)| e));
        let mut window_names: HashMap<String, String> = HashMap::new();
        if !windows.is_empty() {
            let mut lowered_windows = Vec::new();
            for w in windows.iter() {
                lowered_windows.push(self.lower_window(w, &mut ctx, ctes)?);
            }
            ctx.plan = Arc::new(LogicalPlan::Window {
                input: ctx.plan.clone(),
                windows: lowered_windows,
            });
            for w in &windows {
                let name = format!("_w{}", ctx.scope.columns.len());
                window_names.insert(window_key(w), name.clone());
                ctx.scope.columns.push(ScopeColumn {
                    qualifier: None,
                    name,
                });
            }
        }

        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (i, (e, alias)) in out_exprs.iter().enumerate() {
            let rewritten = replace_windows_in_ast(e, &window_names);
            let lowered = self.lower_expr(&rewritten, &mut ctx, ctes)?;
            names.push(output_name(e, alias, i));
            exprs.push(lowered);
        }
        let plan = LogicalPlan::Project {
            input: ctx.plan,
            exprs,
            names: names.clone(),
        };
        let scope = Scope {
            columns: names
                .into_iter()
                .map(|n| ScopeColumn {
                    qualifier: None,
                    name: n,
                })
                .collect(),
        };
        Ok((plan, scope))
    }

    /// SELECT with GROUP BY / aggregates / HAVING.
    fn plan_aggregate_select(
        &self,
        sel: &ast::Select,
        out_exprs: &[(ast::Expr, Option<String>)],
        mut ctx: SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<(LogicalPlan, Scope)> {
        // Resolve group expressions (allowing aliases and ordinals).
        let mut group_ast: Vec<ast::Expr> = Vec::new();
        for g in &sel.group_by {
            let resolved = match g {
                ast::Expr::Literal(Value::Int(n))
                    if *n >= 1 && (*n as usize) <= out_exprs.len() =>
                {
                    out_exprs[*n as usize - 1].0.clone()
                }
                ast::Expr::Column {
                    qualifier: None,
                    name,
                } if ctx.scope.resolve(None, name)?.is_none() => {
                    // Alias reference.
                    out_exprs
                        .iter()
                        .find(|(_, a)| a.as_deref() == Some(name.as_str()))
                        .map(|(e, _)| e.clone())
                        .ok_or_else(|| {
                            HiveError::Analysis(format!("cannot resolve group key {name}"))
                        })?
                }
                other => other.clone(),
            };
            group_ast.push(resolved);
        }

        let group_lowered: Vec<ScalarExpr> = group_ast
            .iter()
            .map(|g| self.lower_expr(g, &mut ctx, ctes))
            .collect::<Result<Vec<_>>>()?;

        // Collect aggregate calls from projection, HAVING and ORDER BY
        // handled separately (ORDER BY resolves over output).
        let mut agg_calls: Vec<ast::Expr> = Vec::new();
        for (e, _) in out_exprs {
            collect_aggregates(e, &mut agg_calls);
        }
        if let Some(h) = &sel.having {
            collect_aggregates(h, &mut agg_calls);
        }
        dedup_exprs(&mut agg_calls);

        let mut lowered_aggs = Vec::new();
        for call in &agg_calls {
            lowered_aggs.push(self.lower_aggregate(call, &mut ctx, ctes)?);
        }

        let agg_plan = Arc::new(LogicalPlan::Aggregate {
            input: ctx.plan.clone(),
            group_exprs: group_lowered,
            grouping_sets: sel.grouping_sets.clone(),
            aggs: lowered_aggs,
        });

        // Build the post-aggregation scope: group keys then agg outputs.
        let mut replace: Vec<(ast::Expr, usize)> = Vec::new();
        for (i, g) in group_ast.iter().enumerate() {
            replace.push((g.clone(), i));
        }
        for (i, a) in agg_calls.iter().enumerate() {
            replace.push((a.clone(), group_ast.len() + i));
        }
        let agg_schema = agg_plan.schema();
        let agg_scope = Scope::from_schema(&agg_schema, None);

        let mut post_ctx = SelectContext {
            plan: agg_plan,
            scope: agg_scope,
            outer: ctx.outer,
            correlated: std::mem::take(&mut ctx.correlated),
        };

        // HAVING.
        if let Some(h) = &sel.having {
            let lowered = self.lower_post_agg(h, &replace, &mut post_ctx, ctes)?;
            post_ctx.plan = Arc::new(LogicalPlan::Filter {
                input: post_ctx.plan.clone(),
                predicate: lowered,
            });
        }

        // Windows over aggregated output: window arguments may contain
        // aggregate calls (e.g. SUM(SUM(x)) OVER …), resolved through
        // the same replace list; window occurrences in the select list
        // are substituted by the appended window columns.
        let windows = collect_windows(out_exprs.iter().map(|(e, _)| e));
        let mut window_names: HashMap<String, String> = HashMap::new();
        let base_len = post_ctx.plan.schema().len();
        if !windows.is_empty() {
            let mut lowered_windows = Vec::new();
            for w in windows.iter() {
                let lw = self.lower_window_post_agg(w, &replace, &mut post_ctx, ctes)?;
                lowered_windows.push(lw);
            }
            post_ctx.plan = Arc::new(LogicalPlan::Window {
                input: post_ctx.plan.clone(),
                windows: lowered_windows,
            });
            for (i, w) in windows.iter().enumerate() {
                let name = format!("_w{}", base_len + i);
                window_names.insert(window_key(w), name.clone());
                post_ctx.scope.columns.push(ScopeColumn {
                    qualifier: None,
                    name,
                });
            }
            // Window columns are addressable through the replace list as
            // well (the post-agg lowering path).
        }

        // Final projection.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (i, (e, alias)) in out_exprs.iter().enumerate() {
            let rewritten = replace_windows_in_ast(e, &window_names);
            let lowered = self.lower_post_agg(&rewritten, &replace, &mut post_ctx, ctes)?;
            names.push(output_name(e, alias, i));
            exprs.push(lowered);
        }
        // GROUPING SETS expose the grouping id for queries that need it;
        // plain queries just project it away.
        let plan = LogicalPlan::Project {
            input: post_ctx.plan,
            exprs,
            names: names.clone(),
        };
        ctx.correlated = post_ctx.correlated;
        let scope = Scope {
            columns: names
                .into_iter()
                .map(|n| ScopeColumn {
                    qualifier: None,
                    name: n,
                })
                .collect(),
        };
        Ok((plan, scope))
    }

    /// Lower an expression that may reference aggregate results: first
    /// substitute known (group key / agg call) subtrees by their output
    /// column, then lower the remainder.
    fn lower_post_agg(
        &self,
        e: &ast::Expr,
        replace: &[(ast::Expr, usize)],
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<ScalarExpr> {
        for (pat, idx) in replace {
            if exprs_equal(e, pat) {
                return Ok(ScalarExpr::Column(*idx));
            }
        }
        match e {
            ast::Expr::BinaryOp { left, op, right } => Ok(ScalarExpr::Binary {
                op: *op,
                left: Box::new(self.lower_post_agg(left, replace, ctx, ctes)?),
                right: Box::new(self.lower_post_agg(right, replace, ctx, ctes)?),
            }),
            ast::Expr::Not(inner) => Ok(ScalarExpr::Not(Box::new(
                self.lower_post_agg(inner, replace, ctx, ctes)?,
            ))),
            ast::Expr::Negate(inner) => Ok(ScalarExpr::Negate(Box::new(
                self.lower_post_agg(inner, replace, ctx, ctes)?,
            ))),
            ast::Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.lower_post_agg(expr, replace, ctx, ctes)?),
                negated: *negated,
            }),
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.lower_post_agg(expr, replace, ctx, ctes)?;
                let lo = self.lower_post_agg(low, replace, ctx, ctes)?;
                let hi = self.lower_post_agg(high, replace, ctx, ctes)?;
                Ok(lower_between(e, lo, hi, *negated))
            }
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => Ok(ScalarExpr::InList {
                expr: Box::new(self.lower_post_agg(expr, replace, ctx, ctes)?),
                list: list
                    .iter()
                    .map(|x| self.lower_post_agg(x, replace, ctx, ctes))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            }),
            ast::Expr::Case {
                operand,
                branches,
                else_expr,
            } => Ok(ScalarExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.lower_post_agg(o, replace, ctx, ctes).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.lower_post_agg(c, replace, ctx, ctes)?,
                            self.lower_post_agg(r, replace, ctx, ctes)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|o| self.lower_post_agg(o, replace, ctx, ctes).map(Box::new))
                    .transpose()?,
            }),
            ast::Expr::Cast { expr, to } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.lower_post_agg(expr, replace, ctx, ctes)?),
                to: to.clone(),
            }),
            ast::Expr::Function { name, args, .. } if name == "grouping" => {
                // grouping(col): derived from the grouping-id column,
                // which the Aggregate appends last.
                let _ = args;
                let gid_idx = ctx
                    .scope
                    .columns
                    .iter()
                    .position(|c| c.name == "_grouping_id")
                    .ok_or_else(|| {
                        HiveError::Analysis("grouping() without GROUPING SETS".into())
                    })?;
                Ok(ScalarExpr::Column(gid_idx))
            }
            ast::Expr::Function { name, args, .. } => {
                if let Some(func) = BuiltinFunc::from_name(name) {
                    Ok(ScalarExpr::Func {
                        func,
                        args: args
                            .iter()
                            .map(|a| self.lower_post_agg(a, replace, ctx, ctes))
                            .collect::<Result<Vec<_>>>()?,
                    })
                } else if AggFunc::from_name(name).is_some() {
                    Err(HiveError::Analysis(format!(
                        "aggregate {name} not found in aggregation list"
                    )))
                } else {
                    Err(HiveError::Analysis(format!("unknown function {name}")))
                }
            }
            // Plain columns: group keys are substituted above; anything
            // else must still resolve (e.g. grouping-set key columns).
            other => self.lower_expr(other, ctx, ctes),
        }
    }

    fn lower_window_post_agg(
        &self,
        w: &ast::Expr,
        replace: &[(ast::Expr, usize)],
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<WindowExpr> {
        if let ast::Expr::Window {
            func,
            args,
            partition_by,
            order_by,
            frame,
        } = w
        {
            let wf = WindowFunc::from_name(func)
                .ok_or_else(|| HiveError::Analysis(format!("unknown window function {func}")))?;
            Ok(WindowExpr {
                func: wf,
                args: args
                    .iter()
                    .map(|a| self.lower_post_agg(a, replace, ctx, ctes))
                    .collect::<Result<Vec<_>>>()?,
                partition_by: partition_by
                    .iter()
                    .map(|a| self.lower_post_agg(a, replace, ctx, ctes))
                    .collect::<Result<Vec<_>>>()?,
                order_by: order_by
                    .iter()
                    .map(|o| {
                        Ok(SortKey {
                            expr: self.lower_post_agg(&o.expr, replace, ctx, ctes)?,
                            asc: o.asc,
                            nulls_first: o.nulls_first.unwrap_or(false),
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
                frame: frame.clone(),
            })
        } else {
            Err(HiveError::Analysis("expected window expression".into()))
        }
    }

    fn lower_window(
        &self,
        w: &ast::Expr,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<WindowExpr> {
        self.lower_window_post_agg(w, &[], ctx, ctes)
    }

    fn lower_aggregate(
        &self,
        call: &ast::Expr,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<AggExpr> {
        if let ast::Expr::Function {
            name,
            args,
            distinct,
        } = call
        {
            let func = AggFunc::from_name(name)
                .ok_or_else(|| HiveError::Analysis(format!("unknown aggregate {name}")))?;
            let arg = match args.first() {
                Some(a) => Some(self.lower_expr(a, ctx, ctes)?),
                None => None,
            };
            Ok(AggExpr {
                func,
                arg,
                distinct: *distinct,
            })
        } else {
            Err(HiveError::Analysis("expected aggregate call".into()))
        }
    }

    // ---- expression lowering -------------------------------------------

    /// Lower an AST expression against the current context. Subquery
    /// expressions splice joins into `ctx.plan`. Columns that fail local
    /// resolution but resolve in the outer scope register a correlated
    /// conjunct (handled by the caller building the subquery join).
    fn lower_expr(
        &self,
        e: &ast::Expr,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<ScalarExpr> {
        match e {
            ast::Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            ast::Expr::Column { qualifier, name } => {
                if let Some(i) = ctx.scope.resolve(qualifier.as_deref(), name)? {
                    return Ok(ScalarExpr::Column(i));
                }
                // Correlated reference to the outer query?
                if let Some(outer) = ctx.outer {
                    if let Some(i) = resolve_outer(outer, qualifier.as_deref(), name)? {
                        // Mark with a sentinel that the subquery-planning
                        // caller extracts; expressed as a pseudo column
                        // beyond the local schema.
                        return Ok(ScalarExpr::Column(CORRELATED_BASE + i));
                    }
                }
                Err(HiveError::Analysis(format!(
                    "cannot resolve column {}{}",
                    qualifier
                        .as_deref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default(),
                    name
                )))
            }
            ast::Expr::BinaryOp { left, op, right } => {
                // Date ± INTERVAL lowering.
                if matches!(op, BinaryOp::Plus | BinaryOp::Minus) {
                    if let Some(expr) = self.try_lower_interval_arith(left, op, right, ctx, ctes)? {
                        return Ok(expr);
                    }
                }
                let l = self.lower_expr(left, ctx, ctes)?;
                let r = self.lower_expr(right, ctx, ctes)?;
                Ok(ScalarExpr::Binary {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
            ast::Expr::Not(inner) => Ok(ScalarExpr::Not(Box::new(
                self.lower_expr(inner, ctx, ctes)?,
            ))),
            ast::Expr::Negate(inner) => Ok(ScalarExpr::Negate(Box::new(
                self.lower_expr(inner, ctx, ctes)?,
            ))),
            ast::Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.lower_expr(expr, ctx, ctes)?),
                negated: *negated,
            }),
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.lower_expr(expr, ctx, ctes)?;
                let lo = self.lower_expr(low, ctx, ctes)?;
                let hi = self.lower_expr(high, ctx, ctes)?;
                Ok(lower_between(e, lo, hi, *negated))
            }
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => Ok(ScalarExpr::InList {
                expr: Box::new(self.lower_expr(expr, ctx, ctes)?),
                list: list
                    .iter()
                    .map(|x| self.lower_expr(x, ctx, ctes))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            }),
            ast::Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(ScalarExpr::Like {
                expr: Box::new(self.lower_expr(expr, ctx, ctes)?),
                pattern: Box::new(self.lower_expr(pattern, ctx, ctes)?),
                negated: *negated,
            }),
            ast::Expr::Case {
                operand,
                branches,
                else_expr,
            } => Ok(ScalarExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.lower_expr(o, ctx, ctes).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.lower_expr(c, ctx, ctes)?,
                            self.lower_expr(r, ctx, ctes)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|o| self.lower_expr(o, ctx, ctes).map(Box::new))
                    .transpose()?,
            }),
            ast::Expr::Cast { expr, to } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.lower_expr(expr, ctx, ctes)?),
                to: to.clone(),
            }),
            ast::Expr::Extract { field, expr } => Ok(ScalarExpr::Extract {
                field: *field,
                expr: Box::new(self.lower_expr(expr, ctx, ctes)?),
            }),
            ast::Expr::Function { name, args, .. } => {
                if let Some(func) = BuiltinFunc::from_name(name) {
                    return Ok(ScalarExpr::Func {
                        func,
                        args: args
                            .iter()
                            .map(|a| self.lower_expr(a, ctx, ctes))
                            .collect::<Result<Vec<_>>>()?,
                    });
                }
                if AggFunc::from_name(name).is_some() {
                    return Err(HiveError::Analysis(format!(
                        "aggregate function {name} not allowed here"
                    )));
                }
                Err(HiveError::Analysis(format!("unknown function {name}")))
            }
            ast::Expr::Window { .. } => Err(HiveError::Analysis(
                "window function not allowed in this context".into(),
            )),
            ast::Expr::InSubquery { .. } | ast::Expr::Exists { .. } => Err(HiveError::Unsupported(
                "IN/EXISTS subqueries are only supported as top-level WHERE conjuncts".into(),
            )),
            ast::Expr::ScalarSubquery(query) => {
                let col = self.plan_subquery_join(ctx, ctes, query, JoinType::Left, None, true)?;
                Ok(ScalarExpr::Column(col))
            }
        }
    }

    /// Lower date ± interval into date_add/add_months calls.
    fn try_lower_interval_arith(
        &self,
        left: &ast::Expr,
        op: &BinaryOp,
        right: &ast::Expr,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<Option<ScalarExpr>> {
        let interval = match right {
            ast::Expr::Function { name, args, .. } if name.starts_with("__interval_") => {
                Some((name.as_str(), args))
            }
            _ => None,
        };
        let Some((unit, args)) = interval else {
            return Ok(None);
        };
        let n = match args.first() {
            Some(ast::Expr::Literal(v)) => v.as_i64().unwrap_or(0),
            _ => 0,
        };
        let n = if *op == BinaryOp::Minus { -n } else { n };
        let base = self.lower_expr(left, ctx, ctes)?;
        let expr = match unit {
            "__interval_day" => ScalarExpr::Func {
                func: BuiltinFunc::DateAdd,
                args: vec![base, ScalarExpr::Literal(Value::BigInt(n))],
            },
            "__interval_month" => ScalarExpr::Func {
                func: BuiltinFunc::AddMonths,
                args: vec![base, ScalarExpr::Literal(Value::BigInt(n))],
            },
            "__interval_year" => ScalarExpr::Func {
                func: BuiltinFunc::AddMonths,
                args: vec![base, ScalarExpr::Literal(Value::BigInt(n * 12))],
            },
            _ => return Ok(None),
        };
        Ok(Some(expr))
    }

    /// Plan a subquery as a join spliced onto `ctx.plan`, decorrelating
    /// conjuncts that reference the outer scope.
    ///
    /// Returns the output-column index of the scalar value for scalar
    /// subqueries (`scalar = true`); otherwise 0.
    fn plan_subquery_join(
        &self,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
        query: &ast::Query,
        join_type: JoinType,
        in_key: Option<ScalarExpr>,
        scalar: bool,
    ) -> Result<usize> {
        // Analyze the inner query with the current scope as its outer.
        let outer_ctx = OuterContext {
            scope: &ctx.scope,
            parent: None,
        };
        let inner_plan = self.analyze_query_with(query, ctes, Some(&outer_ctx))?;
        // Extract correlated predicates: walk the inner plan's filters
        // for conjuncts mentioning CORRELATED_BASE columns.
        let (inner_plan, correlated) = extract_correlation(inner_plan)?;
        let inner = Arc::new(inner_plan);
        let inner_schema = inner.schema();
        let left_len = ctx.plan.schema().len();

        let mut equi: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
        let mut residual_parts: Vec<ScalarExpr> = Vec::new();
        if let Some(key) = in_key {
            // IN key matches the subquery's first output column.
            equi.push((key, ScalarExpr::Column(0)));
        }
        for (inner_expr, op, outer_idx) in correlated {
            if op == BinaryOp::Eq {
                equi.push((ScalarExpr::Column(outer_idx), inner_expr));
            } else {
                // Residual over concatenated schema.
                residual_parts.push(ScalarExpr::Binary {
                    op,
                    left: Box::new(inner_expr.shift_columns(left_len)),
                    right: Box::new(ScalarExpr::Column(outer_idx)),
                });
            }
        }

        // The scalar value is the subquery's first select-list column
        // (decorrelation may have appended pass-through key columns
        // after it).
        let _ = inner_schema;
        let scalar_col = if scalar { left_len } else { 0 };

        ctx.plan = Arc::new(LogicalPlan::Join {
            left: ctx.plan.clone(),
            right: inner.clone(),
            join_type,
            equi,
            residual: ScalarExpr::conjunction(residual_parts),
        });
        if join_type.keeps_right() {
            ctx.scope = ctx.scope.concat(&Scope::from_schema(&inner.schema(), None));
        }
        Ok(scalar_col)
    }
}

/// Sentinel base for correlated (outer) column references during
/// subquery analysis: `Column(CORRELATED_BASE + outer_index)`.
pub(crate) const CORRELATED_BASE: usize = 1 << 24;

fn resolve_outer(
    outer: &OuterContext,
    qualifier: Option<&str>,
    name: &str,
) -> Result<Option<usize>> {
    if let Some(i) = outer.scope.resolve(qualifier, name)? {
        return Ok(Some(i));
    }
    match outer.parent {
        Some(p) => resolve_outer(p, qualifier, name),
        None => Ok(None),
    }
}

/// How a node transformation moved its output columns, so parents can
/// rebase their expressions.
#[derive(Debug, Clone, Copy)]
enum Remap {
    Identity,
    /// Columns at or beyond `at` shift up by `by` (group-key insertion).
    Shift {
        at: usize,
        by: usize,
    },
}

impl Remap {
    fn apply(&self, e: ScalarExpr) -> ScalarExpr {
        match self {
            Remap::Identity => e,
            Remap::Shift { at, by } => e.transform(&mut |x| match x {
                ScalarExpr::Column(c) if c >= *at && c < CORRELATED_BASE => {
                    ScalarExpr::Column(c + by)
                }
                other => other,
            }),
        }
    }
}

/// Pull correlated conjuncts (those referencing `CORRELATED_BASE`
/// columns) out of the inner plan's filters. Returns the cleaned plan
/// and the extracted `(inner expr over plan output, op, outer column)`
/// triples.
///
/// Correlated references are supported in top-level WHERE conjuncts of
/// the subquery of the form `<inner expr> op <outer column>`; anything
/// deeper is rejected, matching the common decorrelation classes.
/// Aggregates decorrelate by appending the correlation keys to the
/// group key (classic Kim-style unnesting); projections grow
/// pass-through columns when needed.
#[allow(clippy::type_complexity)]
fn extract_correlation(
    plan: LogicalPlan,
) -> Result<(LogicalPlan, Vec<(ScalarExpr, BinaryOp, usize)>)> {
    let mut collected: Vec<(ScalarExpr, BinaryOp, usize)> = Vec::new();
    let (cleaned, _) = strip_correlated(&plan, &mut collected)?;
    Ok((cleaned, collected))
}

fn has_correlated(e: &ScalarExpr) -> bool {
    e.columns().iter().any(|&c| c >= CORRELATED_BASE)
}

fn strip_correlated(
    plan: &LogicalPlan,
    out: &mut Vec<(ScalarExpr, BinaryOp, usize)>,
) -> Result<(LogicalPlan, Remap)> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (input_clean, map) = strip_correlated(input, out)?;
            let mut keep: Vec<ScalarExpr> = Vec::new();
            for part in predicate.split_conjunction() {
                let part = map.apply(part.clone());
                if has_correlated(&part) {
                    out.push(classify_correlated(&part)?);
                } else {
                    keep.push(part);
                }
            }
            let plan = match ScalarExpr::conjunction(keep) {
                Some(pred) => LogicalPlan::Filter {
                    input: Arc::new(input_clean),
                    predicate: pred,
                },
                None => input_clean,
            };
            Ok((plan, map))
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            grouping_sets,
            aggs,
        } => {
            let before = out.len();
            let (input_clean, map) = strip_correlated(input, out)?;
            let mut group_exprs: Vec<ScalarExpr> =
                group_exprs.iter().map(|g| map.apply(g.clone())).collect();
            let aggs: Vec<AggExpr> = aggs
                .iter()
                .map(|a| AggExpr {
                    func: a.func,
                    arg: a.arg.clone().map(|e| map.apply(e)),
                    distinct: a.distinct,
                })
                .collect();
            let n_orig = group_exprs.len();
            if out.len() > before {
                if grouping_sets.is_some() {
                    return Err(HiveError::Unsupported(
                        "correlated subquery with grouping sets".into(),
                    ));
                }
                // Append the correlation keys to the group keys and
                // rewrite extracted entries to the aggregate's output.
                for item in out[before..].iter_mut() {
                    let key_expr = item.0.clone();
                    let idx = match group_exprs.iter().position(|g| *g == key_expr) {
                        Some(i) => i,
                        None => {
                            group_exprs.push(key_expr);
                            group_exprs.len() - 1
                        }
                    };
                    item.0 = ScalarExpr::Column(idx);
                }
            }
            let n_new = group_exprs.len() - n_orig;
            let plan = LogicalPlan::Aggregate {
                input: Arc::new(input_clean),
                group_exprs,
                grouping_sets: grouping_sets.clone(),
                aggs,
            };
            let remap = if n_new > 0 {
                Remap::Shift {
                    at: n_orig,
                    by: n_new,
                }
            } else {
                Remap::Identity
            };
            Ok((plan, remap))
        }
        LogicalPlan::Project {
            input,
            exprs,
            names,
        } => {
            let before = out.len();
            let (input_clean, map) = strip_correlated(input, out)?;
            let mut exprs: Vec<ScalarExpr> = exprs.iter().map(|e| map.apply(e.clone())).collect();
            let mut names = names.clone();
            if out.len() > before {
                // Re-express extracted entries over the projection
                // output; add pass-through columns where needed.
                for item in out[before..].iter_mut() {
                    let wanted = item.0.clone();
                    let pos = exprs.iter().position(|e| *e == wanted);
                    let idx = match pos {
                        Some(i) => i,
                        None => {
                            exprs.push(wanted);
                            names.push(format!("_corr{}", names.len()));
                            exprs.len() - 1
                        }
                    };
                    item.0 = ScalarExpr::Column(idx);
                }
            }
            let plan = LogicalPlan::Project {
                input: Arc::new(input_clean),
                exprs,
                names,
            };
            // Old output columns keep their positions.
            Ok((plan, Remap::Identity))
        }
        LogicalPlan::Sort { input, keys } => {
            let (input_clean, map) = strip_correlated(input, out)?;
            let keys = keys
                .iter()
                .map(|k| SortKey {
                    expr: map.apply(k.expr.clone()),
                    asc: k.asc,
                    nulls_first: k.nulls_first,
                })
                .collect();
            Ok((
                LogicalPlan::Sort {
                    input: Arc::new(input_clean),
                    keys,
                },
                map,
            ))
        }
        LogicalPlan::Limit { input, n } => {
            let (input_clean, map) = strip_correlated(input, out)?;
            Ok((
                LogicalPlan::Limit {
                    input: Arc::new(input_clean),
                    n: *n,
                },
                map,
            ))
        }
        other => {
            // Any remaining correlated reference deeper in the tree is
            // unsupported.
            let mut bad = false;
            other.visit(&mut |p| {
                let check = |e: &ScalarExpr| has_correlated(e);
                match p {
                    LogicalPlan::Filter { predicate, .. } => bad |= check(predicate),
                    LogicalPlan::Project { exprs, .. } => bad |= exprs.iter().any(check),
                    LogicalPlan::Join { equi, residual, .. } => {
                        bad |= equi.iter().any(|(l, r)| check(l) || check(r));
                        if let Some(r) = residual {
                            bad |= check(r);
                        }
                    }
                    _ => {}
                }
            });
            if bad {
                return Err(HiveError::Unsupported(
                    "correlated subquery pattern not supported".into(),
                ));
            }
            Ok((other.clone(), Remap::Identity))
        }
    }
}

/// Split an AST predicate into top-level AND conjuncts.
fn split_ast_conjuncts(e: &ast::Expr) -> Vec<&ast::Expr> {
    match e {
        ast::Expr::BinaryOp {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = split_ast_conjuncts(left);
            out.extend(split_ast_conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Strip a NOT wrapper, reporting whether negation applies.
fn unwrap_not(e: &ast::Expr) -> (&ast::Expr, bool) {
    match e {
        ast::Expr::Not(inner) => {
            let (e2, n) = unwrap_not(inner);
            (e2, !n)
        }
        other => (other, false),
    }
}

/// Classify one correlated conjunct into `(inner expr, op, outer col)`.
fn classify_correlated(e: &ScalarExpr) -> Result<(ScalarExpr, BinaryOp, usize)> {
    if let ScalarExpr::Binary { op, left, right } = e {
        let l_corr = has_correlated(left);
        let r_corr = has_correlated(right);
        if l_corr ^ r_corr {
            let (outer_side, inner_side, op) = if r_corr {
                (right, left, *op)
            } else {
                (left, right, flip_op(*op))
            };
            if let ScalarExpr::Column(c) = outer_side.as_ref() {
                if *c >= CORRELATED_BASE && !has_correlated(inner_side) {
                    return Ok((inner_side.as_ref().clone(), op, c - CORRELATED_BASE));
                }
            }
        }
    }
    Err(HiveError::Unsupported(format!(
        "unsupported correlated predicate: {e}"
    )))
}

fn flip_op(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// `BETWEEN` lowered to a pair of comparisons.
fn lower_between(e: ScalarExpr, lo: ScalarExpr, hi: ScalarExpr, negated: bool) -> ScalarExpr {
    let ge = ScalarExpr::Binary {
        op: BinaryOp::GtEq,
        left: Box::new(e.clone()),
        right: Box::new(lo),
    };
    let le = ScalarExpr::Binary {
        op: BinaryOp::LtEq,
        left: Box::new(e),
        right: Box::new(hi),
    };
    let both = ScalarExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(ge),
        right: Box::new(le),
    };
    if negated {
        ScalarExpr::Not(Box::new(both))
    } else {
        both
    }
}

/// Split a lowered join condition (over the concatenated schema) into
/// equi pairs and a residual.
#[allow(clippy::type_complexity)]
fn split_join_condition(
    cond: ScalarExpr,
    left_len: usize,
) -> Result<(Vec<(ScalarExpr, ScalarExpr)>, Option<ScalarExpr>)> {
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for part in cond.split_conjunction() {
        if let ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = part
        {
            let l_cols = left.columns();
            let r_cols = right.columns();
            let l_left = l_cols.iter().all(|&c| c < left_len);
            let l_right = l_cols.iter().all(|&c| c >= left_len);
            let r_left = r_cols.iter().all(|&c| c < left_len);
            let r_right = r_cols.iter().all(|&c| c >= left_len);
            if l_left && r_right && !l_cols.is_empty() && !r_cols.is_empty() {
                let r_shift = right
                    .clone()
                    .remap_columns(&|c| Some(c - left_len))
                    .expect("all right side");
                equi.push(((**left).clone(), r_shift));
                continue;
            }
            if l_right && r_left && !l_cols.is_empty() && !r_cols.is_empty() {
                let l_shift = left
                    .clone()
                    .remap_columns(&|c| Some(c - left_len))
                    .expect("all right side");
                equi.push(((**right).clone(), l_shift));
                continue;
            }
        }
        residual.push(part.clone());
    }
    Ok((equi, ScalarExpr::conjunction(residual)))
}

/// `SELECT DISTINCT` / `UNION DISTINCT` as a group-by-all aggregate.
fn distinct_of(input: Arc<LogicalPlan>) -> LogicalPlan {
    let n = input.schema().len();
    LogicalPlan::Aggregate {
        input,
        group_exprs: (0..n).map(ScalarExpr::Column).collect(),
        grouping_sets: None,
        aggs: vec![],
    }
}

/// Insert a cast projection so `plan` produces exactly `target` types.
fn cast_to_schema(plan: Arc<LogicalPlan>, target: &Schema) -> Result<Arc<LogicalPlan>> {
    let schema = plan.schema();
    let mut needs = false;
    for (f, t) in schema.fields().iter().zip(target.fields()) {
        if f.data_type != t.data_type {
            needs = true;
        }
    }
    if !needs {
        return Ok(plan);
    }
    let exprs = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.data_type == target.field(i).data_type {
                ScalarExpr::Column(i)
            } else {
                ScalarExpr::Cast {
                    expr: Box::new(ScalarExpr::Column(i)),
                    to: target.field(i).data_type.clone(),
                }
            }
        })
        .collect();
    let names = target.fields().iter().map(|f| f.name.clone()).collect();
    Ok(Arc::new(LogicalPlan::Project {
        input: plan,
        exprs,
        names,
    }))
}

// ---- AST helpers -----------------------------------------------------------

fn contains_aggregate(e: &ast::Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        if let ast::Expr::Function { name, .. } = n {
            if AggFunc::from_name(name).is_some() {
                found = true;
            }
        }
    });
    found
}

fn collect_aggregates(e: &ast::Expr, out: &mut Vec<ast::Expr>) {
    match e {
        ast::Expr::Function { name, .. } if AggFunc::from_name(name).is_some() => {
            out.push(e.clone());
        }
        ast::Expr::Window { .. } => {
            // Window arguments may contain aggregates (e.g. SUM(SUM(x))
            // OVER ...); collect from args.
            if let ast::Expr::Window {
                args,
                partition_by,
                order_by,
                ..
            } = e
            {
                for a in args {
                    collect_aggregates(a, out);
                }
                for p in partition_by {
                    collect_aggregates(p, out);
                }
                for o in order_by {
                    collect_aggregates(&o.expr, out);
                }
            }
        }
        ast::Expr::BinaryOp { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        ast::Expr::Not(i) | ast::Expr::Negate(i) => collect_aggregates(i, out),
        ast::Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        ast::Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        ast::Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        ast::Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        ast::Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                collect_aggregates(o, out);
            }
            for (c, r) in branches {
                collect_aggregates(c, out);
                collect_aggregates(r, out);
            }
            if let Some(x) = else_expr {
                collect_aggregates(x, out);
            }
        }
        ast::Expr::Cast { expr, .. } | ast::Expr::Extract { expr, .. } => {
            collect_aggregates(expr, out)
        }
        ast::Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        _ => {}
    }
}

fn collect_windows<'e>(exprs: impl Iterator<Item = &'e ast::Expr>) -> Vec<ast::Expr> {
    let mut out = Vec::new();
    for e in exprs {
        e.visit(&mut |n| {
            if matches!(n, ast::Expr::Window { .. }) {
                out.push(n.clone());
            }
        });
    }
    dedup_exprs(&mut out);
    out
}

fn dedup_exprs(exprs: &mut Vec<ast::Expr>) {
    let mut seen: Vec<String> = Vec::new();
    exprs.retain(|e| {
        let k = expr_fingerprint(e);
        if seen.contains(&k) {
            false
        } else {
            seen.push(k);
            true
        }
    });
}

fn expr_fingerprint(e: &ast::Expr) -> String {
    format!("{e:?}")
}

/// Replace every window-function subtree with a reference to its
/// appended output column (keyed by the window's fingerprint).
fn replace_windows_in_ast(e: &ast::Expr, map: &HashMap<String, String>) -> ast::Expr {
    if let Some(col) = map.get(&expr_fingerprint(e)) {
        return ast::Expr::Column {
            qualifier: None,
            name: col.clone(),
        };
    }
    match e {
        ast::Expr::BinaryOp { left, op, right } => ast::Expr::BinaryOp {
            left: Box::new(replace_windows_in_ast(left, map)),
            op: *op,
            right: Box::new(replace_windows_in_ast(right, map)),
        },
        ast::Expr::Not(i) => ast::Expr::Not(Box::new(replace_windows_in_ast(i, map))),
        ast::Expr::Negate(i) => ast::Expr::Negate(Box::new(replace_windows_in_ast(i, map))),
        ast::Expr::IsNull { expr, negated } => ast::Expr::IsNull {
            expr: Box::new(replace_windows_in_ast(expr, map)),
            negated: *negated,
        },
        ast::Expr::Between {
            expr,
            low,
            high,
            negated,
        } => ast::Expr::Between {
            expr: Box::new(replace_windows_in_ast(expr, map)),
            low: Box::new(replace_windows_in_ast(low, map)),
            high: Box::new(replace_windows_in_ast(high, map)),
            negated: *negated,
        },
        ast::Expr::InList {
            expr,
            list,
            negated,
        } => ast::Expr::InList {
            expr: Box::new(replace_windows_in_ast(expr, map)),
            list: list
                .iter()
                .map(|i| replace_windows_in_ast(i, map))
                .collect(),
            negated: *negated,
        },
        ast::Expr::Like {
            expr,
            pattern,
            negated,
        } => ast::Expr::Like {
            expr: Box::new(replace_windows_in_ast(expr, map)),
            pattern: Box::new(replace_windows_in_ast(pattern, map)),
            negated: *negated,
        },
        ast::Expr::Case {
            operand,
            branches,
            else_expr,
        } => ast::Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(replace_windows_in_ast(o, map))),
            branches: branches
                .iter()
                .map(|(c, r)| {
                    (
                        replace_windows_in_ast(c, map),
                        replace_windows_in_ast(r, map),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|x| Box::new(replace_windows_in_ast(x, map))),
        },
        ast::Expr::Cast { expr, to } => ast::Expr::Cast {
            expr: Box::new(replace_windows_in_ast(expr, map)),
            to: to.clone(),
        },
        ast::Expr::Extract { field, expr } => ast::Expr::Extract {
            field: *field,
            expr: Box::new(replace_windows_in_ast(expr, map)),
        },
        ast::Expr::Function {
            name,
            args,
            distinct,
        } => ast::Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| replace_windows_in_ast(a, map))
                .collect(),
            distinct: *distinct,
        },
        other => other.clone(),
    }
}

fn window_key(e: &ast::Expr) -> String {
    expr_fingerprint(e)
}

fn exprs_equal(a: &ast::Expr, b: &ast::Expr) -> bool {
    a == b
}

/// Derive the output column name for a select item.
fn output_name(e: &ast::Expr, alias: &Option<String>, pos: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match e {
        ast::Expr::Column { name, .. } => name.clone(),
        _ => format!("_c{pos}"),
    }
}
