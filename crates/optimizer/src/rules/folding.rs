//! Constant folding and predicate simplification.

use crate::eval::eval_scalar;
use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::{map_node_exprs, node_exprs, transform_up, Rewrite, Transformed};
use hive_common::{Schema, Value};
use hive_sql::BinaryOp;
use std::sync::Arc;

/// Fold constant subexpressions and simplify boolean structure across
/// the whole plan; collapse always-false filters into empty relations
/// and drop always-true filters.
pub fn fold_constants(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut |node| {
        let mut folds = false;
        node_exprs(&node, &mut |e| {
            e.visit(&mut |s| folds = folds || fold_node(s).is_some())
        });
        if !folds {
            return simplify_node(node);
        }
        let mut node = Arc::unwrap_or_clone(node);
        map_node_exprs(&mut node, &mut |e| e.transform(&mut fold_expr));
        Transformed::yes(simplify_node(Arc::new(node)).data)
    })
}

/// Fold one expression node (called bottom-up by `transform`).
pub fn fold_expr(e: ScalarExpr) -> ScalarExpr {
    fold_node(&e).unwrap_or(e)
}

/// What [`fold_expr`] makes of one node, `None` when it leaves the node
/// as it is — so `transform(fold_expr)` changes a tree exactly when this
/// is `Some` for one of the tree's nodes.
fn fold_node(e: &ScalarExpr) -> Option<ScalarExpr> {
    // Evaluate fully-constant deterministic subtrees.
    if !matches!(e, ScalarExpr::Literal(_) | ScalarExpr::Column(_)) && e.is_constant() {
        if let Ok(v) = eval_scalar(e, &[]) {
            return Some(ScalarExpr::Literal(v));
        }
    }
    let boolean = |b: &ScalarExpr| match b {
        ScalarExpr::Literal(Value::Boolean(b)) => Some(*b),
        _ => None,
    };
    match e {
        // NOT NOT x → x; NOT literal folds above.
        ScalarExpr::Not(inner) => match &**inner {
            ScalarExpr::Not(x) => Some((**x).clone()),
            ScalarExpr::Literal(Value::Boolean(b)) => Some(ScalarExpr::Literal(Value::Boolean(!b))),
            _ => None,
        },
        ScalarExpr::Binary {
            op: op @ (BinaryOp::And | BinaryOp::Or),
            left,
            right,
        } => {
            // FALSE decides an AND, TRUE an OR; the other literal drops out.
            let decides = *op == BinaryOp::Or;
            let (l, r) = (boolean(left), boolean(right));
            if l == Some(decides) || r == Some(decides) {
                Some(ScalarExpr::Literal(Value::Boolean(decides)))
            } else if l.is_some() {
                Some((**right).clone())
            } else if r.is_some() {
                Some((**left).clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

fn simplify_node(node: Arc<LogicalPlan>) -> Rewrite {
    let LogicalPlan::Filter { input, predicate } = &*node else {
        return Transformed::no(node);
    };
    match predicate {
        ScalarExpr::Literal(Value::Boolean(true)) => Transformed::yes(input.clone()),
        ScalarExpr::Literal(Value::Boolean(false) | Value::Null) => {
            Transformed::yes(Arc::new(empty_of(&input.schema())))
        }
        _ => Transformed::no(node),
    }
}

/// An empty relation with the given schema.
pub fn empty_of(schema: &Schema) -> LogicalPlan {
    LogicalPlan::Values {
        schema: schema.clone(),
        rows: vec![],
    }
}

/// Merge adjacent Filter nodes (Filter(Filter(x)) → Filter(x)).
pub fn merge_filters(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut |node| match &*node {
        LogicalPlan::Filter { input, predicate } => match input.as_ref() {
            LogicalPlan::Filter {
                input: inner,
                predicate: p2,
            } => Transformed::yes(Arc::new(LogicalPlan::Filter {
                input: inner.clone(),
                predicate: ScalarExpr::Binary {
                    op: BinaryOp::And,
                    left: Box::new(predicate.clone()),
                    right: Box::new(p2.clone()),
                },
            })),
            _ => Transformed::no(node),
        },
        _ => Transformed::no(node),
    })
}

/// Collapse trivial projections (identity over the full input). The
/// input's schema is built last: most projections fail the positional
/// column test first.
pub fn remove_trivial_projects(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut |node| {
        let LogicalPlan::Project {
            input,
            exprs,
            names,
        } = &*node
        else {
            return Transformed::no(node);
        };
        let positional = exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, ScalarExpr::Column(c) if *c == i));
        if !positional {
            return Transformed::no(node);
        }
        let in_schema = input.schema();
        let identity = exprs.len() == in_schema.len()
            && names
                .iter()
                .enumerate()
                .all(|(i, n)| in_schema.field(i).name == *n);
        if identity {
            Transformed::yes(input.clone())
        } else {
            Transformed::no(node)
        }
    })
}

/// Stacked Project(Project(x)) composition when the outer is made of
/// column refs and cheap expressions.
pub fn merge_projects(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut |node| match &*node {
        LogicalPlan::Project {
            input,
            exprs,
            names,
        } => {
            let LogicalPlan::Project {
                input: inner_input,
                exprs: inner_exprs,
                ..
            } = input.as_ref()
            else {
                return Transformed::no(node);
            };
            // Substitute inner expressions into the outer.
            let composed: Vec<ScalarExpr> = exprs
                .iter()
                .map(|e| {
                    e.clone().transform(&mut |x| match x {
                        ScalarExpr::Column(c) => inner_exprs[c].clone(),
                        other => other,
                    })
                })
                .collect();
            Transformed::yes(Arc::new(LogicalPlan::Project {
                input: inner_input.clone(),
                exprs: composed,
                names: names.clone(),
            }))
        }
        _ => Transformed::no(node),
    })
}

/// Propagate emptiness: joins/filters/aggregates over empty inputs.
pub fn prune_empty(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut |node| {
        let is_empty = |p: &Arc<LogicalPlan>| matches!(p.as_ref(), LogicalPlan::Values { rows, .. } if rows.is_empty());
        let empty = match &*node {
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => match join_type {
                JoinType::Inner | JoinType::Cross | JoinType::Semi => {
                    is_empty(left) || is_empty(right)
                }
                JoinType::Anti => is_empty(left),
                _ => false,
            },
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Window { input, .. } => is_empty(input),
            _ => false,
        };
        if empty {
            Transformed::yes(Arc::new(empty_of(&node.schema())))
        } else {
            Transformed::no(node)
        }
    })
}
