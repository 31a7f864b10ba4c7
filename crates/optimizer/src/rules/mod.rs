//! The rewrite-rule library. A rule takes a plan by `Arc` and returns a
//! [`Transformed`]: the rewritten plan and whether the rule changed
//! anything. A rule that changes nothing hands back its input's own
//! `Arc`, and so does [`transform_up`] for every subtree no call
//! changed, so an unchanged plan is never rebuilt. The
//! [`crate::optimizer::Optimizer`] sequences the rules into exhaustive
//! and cost-based stages (§4.1's "multi-stage optimization"); the
//! exhaustive stage stops on the first pass no rule changed.

pub mod folding;
pub mod join_reorder;
pub mod partition_prune;
pub mod pruning;
pub mod pushdown;
pub mod semijoin;

use crate::expr::ScalarExpr;
use crate::plan::LogicalPlan;
use hive_common::Value;
use std::sync::Arc;

/// A rewrite's result and whether the rewrite changed its input
/// (DataFusion's `Transformed`).
#[derive(Debug)]
pub struct Transformed<T> {
    pub data: T,
    pub transformed: bool,
}

impl<T> Transformed<T> {
    /// A changed result.
    pub fn yes(data: T) -> Self {
        Transformed {
            data,
            transformed: true,
        }
    }

    /// The unchanged input.
    pub fn no(data: T) -> Self {
        Transformed {
            data,
            transformed: false,
        }
    }
}

/// What a plan rule returns.
pub type Rewrite = Transformed<Arc<LogicalPlan>>;

/// Rebuild a plan with children replaced (shape-preserving).
pub fn with_children(plan: &LogicalPlan, new_children: Vec<Arc<LogicalPlan>>) -> LogicalPlan {
    let mut node = plan.clone();
    for (slot, child) in node.children_mut().into_iter().zip(new_children) {
        *slot = child;
    }
    node
}

/// Apply `f` bottom-up over the whole plan (children first). A node
/// whose children all come back unchanged reaches `f` as its own `Arc`;
/// one with a changed child is rebuilt once around the new children.
pub fn transform_up(
    plan: &Arc<LogicalPlan>,
    f: &mut impl FnMut(Arc<LogicalPlan>) -> Rewrite,
) -> Rewrite {
    let mut changed = false;
    let new_children: Vec<Arc<LogicalPlan>> = plan
        .children()
        .into_iter()
        .map(|c| {
            let t = transform_up(c, f);
            changed |= t.transformed;
            t.data
        })
        .collect();
    let node = if changed {
        Arc::new(with_children(plan, new_children))
    } else {
        Arc::clone(plan)
    };
    let out = f(node);
    Transformed {
        data: out.data,
        transformed: changed || out.transformed,
    }
}

/// Call `f` on every scalar expression one node holds (not its
/// children's).
pub fn node_exprs(plan: &LogicalPlan, f: &mut impl FnMut(&ScalarExpr)) {
    match plan {
        LogicalPlan::Scan { filters: es, .. } | LogicalPlan::Project { exprs: es, .. } => {
            es.iter().for_each(f)
        }
        LogicalPlan::Filter { predicate, .. } => f(predicate),
        LogicalPlan::Join { equi, residual, .. } => {
            equi.iter().for_each(|(l, r)| {
                f(l);
                f(r)
            });
            residual.iter().for_each(f);
        }
        LogicalPlan::Aggregate {
            group_exprs, aggs, ..
        } => {
            group_exprs.iter().for_each(&mut *f);
            aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(f);
        }
        LogicalPlan::Window { windows, .. } => {
            for w in windows {
                let keys = w.order_by.iter().map(|k| &k.expr);
                w.args
                    .iter()
                    .chain(&w.partition_by)
                    .chain(keys)
                    .for_each(&mut *f);
            }
        }
        LogicalPlan::Sort { keys, .. } => keys.iter().for_each(|k| f(&k.expr)),
        // No expressions of their own.
        LogicalPlan::Values { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::Union { .. }
        | LogicalPlan::SetOp { .. } => {}
    }
}

/// Replace every scalar expression one node holds by `f` of it.
pub fn map_node_exprs(plan: &mut LogicalPlan, f: &mut impl FnMut(ScalarExpr) -> ScalarExpr) {
    let mut map =
        |e: &mut ScalarExpr| *e = f(std::mem::replace(e, ScalarExpr::Literal(Value::Null)));
    match plan {
        LogicalPlan::Scan { filters: es, .. } | LogicalPlan::Project { exprs: es, .. } => {
            es.iter_mut().for_each(map)
        }
        LogicalPlan::Filter { predicate, .. } => map(predicate),
        LogicalPlan::Join { equi, residual, .. } => {
            equi.iter_mut().for_each(|(l, r)| {
                map(l);
                map(r)
            });
            residual.iter_mut().for_each(map);
        }
        LogicalPlan::Aggregate {
            group_exprs, aggs, ..
        } => {
            group_exprs.iter_mut().for_each(&mut map);
            aggs.iter_mut().filter_map(|a| a.arg.as_mut()).for_each(map);
        }
        LogicalPlan::Window { windows, .. } => {
            for w in windows {
                let keys = w.order_by.iter_mut().map(|k| &mut k.expr);
                w.args
                    .iter_mut()
                    .chain(&mut w.partition_by)
                    .chain(keys)
                    .for_each(&mut map);
            }
        }
        LogicalPlan::Sort { keys, .. } => keys.iter_mut().for_each(|k| map(&mut k.expr)),
        LogicalPlan::Values { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::Union { .. }
        | LogicalPlan::SetOp { .. } => {}
    }
}
