//! DML compilation (paper §3.2): UPDATE, DELETE and MERGE bind to
//! ordinary logical plans over a `row_ids` scan of the target, so they
//! run through the same optimizer and executor as every query. What is
//! left for the driver is the sink: turning the plan's rows into delete
//! and insert deltas.

use super::{split_join_condition, Analyzer, Scope, ScopeColumn, SelectContext};
use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use hive_common::{HiveError, Result, Value};
use hive_metastore::Table;
use hive_sql as ast;
use std::collections::HashMap;
use std::sync::Arc;

/// Which statement a [`DmlPlan`] was compiled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmlKind {
    Update,
    Delete,
    Merge,
}

/// `WHEN MATCHED [AND condition] THEN UPDATE`, or a whole UPDATE.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateArm {
    pub condition: Option<ScalarExpr>,
    /// The new value of every data column of the target, to be cast to
    /// the column's type (an unassigned column is a bare reference to
    /// its old value).
    pub values: Vec<ScalarExpr>,
}

/// A DML statement compiled to a relational plan plus row-level actions.
///
/// `plan`'s output starts with the target's full schema (data columns,
/// partition columns) and its [`crate::plan::ROW_ID_COLS`] identity
/// columns; a MERGE appends the source's columns. Three shapes:
///
/// * UPDATE / DELETE — `Filter(Scan(target + row ids))`: every output
///   row is a record to rewrite or tombstone;
/// * MERGE with an insert arm — `target RIGHT JOIN source ON <on>`: a
///   source row nothing matched arrives with NULL row ids;
/// * MERGE without one — the same as an inner join.
///
/// Every arm expression is over `plan`'s output schema, which
/// optimization preserves.
#[derive(Debug, Clone)]
pub struct DmlPlan {
    pub kind: DmlKind,
    pub target: Arc<Table>,
    pub plan: LogicalPlan,
    /// Applies to a matched row first.
    pub update: Option<UpdateArm>,
    /// Applies to a matched row the update arm did not take;
    /// `Some(None)` is an unconditional delete.
    pub delete: Option<Option<ScalarExpr>>,
    /// Applies to unmatched source rows: one value per column of the
    /// target's full schema, to be cast to its type.
    pub insert: Option<Vec<ScalarExpr>>,
}

impl DmlPlan {
    /// Index of the first row-identity column in `plan`'s output.
    pub fn row_id_start(&self) -> usize {
        self.target.full_schema().len()
    }
}

impl Analyzer<'_> {
    /// Compile an UPDATE, DELETE or MERGE statement.
    pub fn analyze_dml(&self, stmt: &ast::Statement) -> Result<DmlPlan> {
        match stmt {
            ast::Statement::Update(u) => {
                let (mut ctx, target) =
                    self.dml_target(&u.table, None, "UPDATE", u.filter.as_ref())?;
                let values = self.lower_assignments(&u.assignments, &target, &mut ctx)?;
                Ok(DmlPlan {
                    kind: DmlKind::Update,
                    target,
                    plan: unwrap_plan(ctx.plan),
                    update: Some(UpdateArm {
                        condition: None,
                        values,
                    }),
                    delete: None,
                    insert: None,
                })
            }
            ast::Statement::Delete(d) => {
                let (ctx, target) = self.dml_target(&d.table, None, "DELETE", d.filter.as_ref())?;
                Ok(DmlPlan {
                    kind: DmlKind::Delete,
                    target,
                    plan: unwrap_plan(ctx.plan),
                    update: None,
                    delete: Some(None),
                    insert: None,
                })
            }
            ast::Statement::Merge(m) => self.analyze_merge(m),
            other => Err(HiveError::Analysis(format!(
                "not a DML statement: {other:?}"
            ))),
        }
    }

    /// The target scan with row ids under an optional WHERE, and the
    /// scope its columns resolve in.
    fn dml_target(
        &self,
        name: &ast::ObjectName,
        alias: Option<&str>,
        op: &str,
        filter: Option<&ast::Expr>,
    ) -> Result<(SelectContext<'static>, Arc<Table>)> {
        let (scan, alias, target) = self.plan_scan(name, alias, true)?;
        if !target.is_acid() {
            return Err(HiveError::Unsupported(format!(
                "{op} requires a full-ACID managed table; {} is not",
                target.qualified_name()
            )));
        }
        let mut ctx = SelectContext {
            scope: Scope::from_schema(&scan.schema(), Some(&alias)),
            plan: Arc::new(scan),
            outer: None,
            correlated: Vec::new(),
        };
        if let Some(pred) = filter {
            self.apply_where(pred, &mut ctx, &mut HashMap::new())?;
        }
        Ok((ctx, target))
    }

    /// `SET col = expr, ...` as one expression per data column.
    fn lower_assignments(
        &self,
        assignments: &[(String, ast::Expr)],
        target: &Table,
        ctx: &mut SelectContext,
    ) -> Result<Vec<ScalarExpr>> {
        let mut values: Vec<ScalarExpr> =
            (0..target.schema.len()).map(ScalarExpr::Column).collect();
        for (col, e) in assignments {
            if target.partition_key_index(col).is_some() {
                return Err(HiveError::Unsupported(format!(
                    "cannot update partition column {col}"
                )));
            }
            let i = target.schema.index_of_required(col)?;
            values[i] = self.lower_expr(e, ctx, &mut HashMap::new())?;
        }
        Ok(values)
    }

    fn analyze_merge(&self, m: &ast::Merge) -> Result<DmlPlan> {
        let (tctx, target) =
            self.dml_target(&m.target, m.target_alias.as_deref(), "MERGE", None)?;
        let target_len = tctx.scope.columns.len();
        let mut ctes = HashMap::new();
        let (source, source_scope) = self.analyze_table_ref(&m.source, &mut ctes, None)?;
        let scope = tctx.scope.concat(&source_scope);
        let join = |left: Arc<LogicalPlan>, join_type, equi, residual| {
            Arc::new(LogicalPlan::Join {
                left,
                right: source.clone(),
                join_type,
                equi,
                residual,
            })
        };
        let mut ctx = SelectContext {
            plan: join(tctx.plan.clone(), JoinType::Inner, vec![], None),
            scope,
            outer: None,
            correlated: Vec::new(),
        };

        // ON conjuncts over the target alone restrict the side the join
        // does not preserve, so they filter its scan (and prune its
        // partitions); the rest are the join's keys and residual.
        let on = self.lower_expr(&m.on, &mut ctx, &mut ctes)?;
        let (target_only, joining): (Vec<_>, Vec<_>) =
            on.split_conjunction().into_iter().cloned().partition(|c| {
                let cols = c.columns();
                !cols.is_empty() && cols.iter().all(|&i| i < target_len)
            });
        let target_plan = match ScalarExpr::conjunction(target_only) {
            Some(predicate) => Arc::new(LogicalPlan::Filter {
                input: tctx.plan,
                predicate,
            }),
            None => tctx.plan,
        };
        let (equi, residual) = match ScalarExpr::conjunction(joining) {
            Some(cond) => split_join_condition(cond, target_len)?,
            None => (vec![], None),
        };
        let join_type = if m.when_not_matched_insert.is_some() {
            JoinType::Right
        } else {
            JoinType::Inner
        };
        ctx.plan = join(target_plan, join_type, equi, residual);

        let update = m
            .when_matched_update
            .as_ref()
            .map(|u| {
                Ok::<_, HiveError>(UpdateArm {
                    condition: u
                        .condition
                        .as_ref()
                        .map(|c| self.lower_expr(c, &mut ctx, &mut ctes))
                        .transpose()?,
                    values: self.lower_assignments(&u.assignments, &target, &mut ctx)?,
                })
            })
            .transpose()?;
        let delete = m
            .when_matched_delete
            .as_ref()
            .map(|c| {
                c.as_ref()
                    .map(|c| self.lower_expr(c, &mut ctx, &mut ctes))
                    .transpose()
            })
            .transpose()?;
        let insert = m
            .when_not_matched_insert
            .as_ref()
            .map(|ins| self.lower_merge_insert(ins, &target, target_len, &mut ctx, &mut ctes))
            .transpose()?;
        Ok(DmlPlan {
            kind: DmlKind::Merge,
            target,
            plan: unwrap_plan(ctx.plan),
            update,
            delete,
            insert,
        })
    }

    /// `WHEN NOT MATCHED THEN INSERT [cols] VALUES (...)` as one value
    /// per column of the target's full schema.
    fn lower_merge_insert(
        &self,
        ins: &ast::MergeInsert,
        target: &Table,
        target_len: usize,
        ctx: &mut SelectContext,
        ctes: &mut HashMap<String, ast::Query>,
    ) -> Result<Vec<ScalarExpr>> {
        let full = target.full_schema();
        let cols: Vec<usize> = match &ins.columns {
            Some(cs) => cs
                .iter()
                .map(|c| full.index_of_required(c))
                .collect::<Result<_>>()?,
            None => (0..full.len()).collect(),
        };
        if cols.len() != ins.values.len() {
            return Err(HiveError::Analysis(format!(
                "MERGE INSERT arity mismatch: {} values for {} columns",
                ins.values.len(),
                cols.len()
            )));
        }
        // An unmatched source row has no target row: only the source's
        // columns are in scope for its values.
        let hidden = ScopeColumn {
            qualifier: None,
            name: String::new(),
        };
        let source_only = Scope {
            columns: std::iter::repeat_n(hidden, target_len)
                .chain(ctx.scope.columns[target_len..].iter().cloned())
                .collect(),
        };
        let joint = std::mem::replace(&mut ctx.scope, source_only);
        let mut values = vec![ScalarExpr::Literal(Value::Null); full.len()];
        let lowered: Result<Vec<ScalarExpr>> = ins
            .values
            .iter()
            .map(|e| self.lower_expr(e, ctx, ctes))
            .collect();
        // Scalar subqueries extend the scope past the joint columns.
        ctx.scope.columns[..target_len].clone_from_slice(&joint.columns[..target_len]);
        let lowered = lowered.map_err(|e| {
            HiveError::Analysis(format!(
                "MERGE insert values may only reference the source ({e})"
            ))
        })?;
        for (c, e) in cols.into_iter().zip(lowered) {
            values[c] = e;
        }
        Ok(values)
    }
}

fn unwrap_plan(plan: Arc<LogicalPlan>) -> LogicalPlan {
    Arc::try_unwrap(plan).unwrap_or_else(|p| (*p).clone())
}
