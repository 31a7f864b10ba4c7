//! Dynamic semijoin reduction planning (§4.6).
//!
//! For inner joins where one side is selectively filtered (a dimension
//! table behind predicates) and the other side's join key is a plain
//! scan column (the fact table), attach a [`SemiJoinFilterSpec`] to the
//! fact scan. At run time the executor evaluates the dimension subplan
//! first, collects the join-key values, and reduces the fact scan with:
//!
//! * **dynamic partition pruning** when the key is a partition column —
//!   unneeded partition directories are skipped outright;
//! * an **index semijoin** otherwise — a min/max range plus Bloom filter
//!   pushed into the scan's search argument so entire row groups are
//!   skipped.

use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan, SemiJoinFilterSpec};
use crate::rules::{transform_up, with_children, Transformed};
use crate::stats::Estimator;
use std::sync::Arc;

/// Maximum estimated build-side rows for which a reducer is planned.
const MAX_SOURCE_ROWS: f64 = 2_000_000.0;
/// Minimum ratio between probe and build side for the filter to pay off.
const MIN_RATIO: f64 = 2.0;

/// Plan semijoin reducers across the plan.
pub fn plan_semijoin_reduction(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Arc<LogicalPlan> {
    transform_up(plan, &mut |node| match attach_reducers(&node, est) {
        Some(p) => Transformed::yes(Arc::new(p)),
        None => Transformed::no(node),
    })
    .data
}

/// The join with reducers attached to its larger side, `None` when no
/// reducer applies.
fn attach_reducers(node: &LogicalPlan, est: &mut Estimator) -> Option<LogicalPlan> {
    let LogicalPlan::Join {
        left,
        right,
        join_type,
        equi,
        residual,
    } = node
    else {
        return None;
    };
    if !matches!(join_type, JoinType::Inner | JoinType::Semi) || equi.is_empty() {
        return None;
    }
    let left_rows = est.rows_of(left);
    let right_rows = est.rows_of(right);
    // Reducers only reach through intermediate joins on the histogram
    // path: the constant-selectivity plan shape (and thus simulated
    // cost) stays byte-identical to the pre-histogram oracle.
    let through_joins = est.histograms_enabled();

    let mut new_left = left.clone();
    let mut new_right = right.clone();
    // Try reducing the larger side with keys from the smaller, filtered
    // side. Only a side that actually has filtering (Filter node or scan
    // filters) is a useful source.
    for (li, ri) in equi {
        if right_rows * MIN_RATIO < left_rows && right_rows < MAX_SOURCE_ROWS && is_filtered(right)
        {
            if let Some(reduced) = try_attach(&new_left, li, right, ri, through_joins) {
                new_left = reduced;
            }
        } else if left_rows * MIN_RATIO < right_rows
            && left_rows < MAX_SOURCE_ROWS
            && is_filtered(left)
        {
            if let Some(reduced) = try_attach(&new_right, ri, left, li, through_joins) {
                new_right = reduced;
            }
        }
    }
    if Arc::ptr_eq(&new_left, left) && Arc::ptr_eq(&new_right, right) {
        return None;
    }
    Some(LogicalPlan::Join {
        left: new_left,
        right: new_right,
        join_type: *join_type,
        equi: equi.clone(),
        residual: residual.clone(),
    })
}

/// Does the subplan apply any filtering (so its key set is selective)?
fn is_filtered(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| match p {
        LogicalPlan::Filter { .. } => found = true,
        LogicalPlan::Scan { filters, .. } if !filters.is_empty() => found = true,
        _ => {}
    });
    found
}

/// Attach a reducer to the scan feeding `target_expr` on the probe side.
/// The key must be a plain column that passes untransformed through
/// Filters (and trivial Projects) down to a Scan.
fn try_attach(
    probe: &Arc<LogicalPlan>,
    probe_key: &ScalarExpr,
    build: &Arc<LogicalPlan>,
    build_key: &ScalarExpr,
    through_joins: bool,
) -> Option<Arc<LogicalPlan>> {
    let ScalarExpr::Column(col) = probe_key else {
        return None;
    };
    // Build the source plan: build subtree projected to its key column.
    let build_schema = build.schema();
    let key_name = match build_key {
        ScalarExpr::Column(c) => build_schema.field(*c).name.clone(),
        _ => "_sj_key".to_string(),
    };
    let source = Arc::new(LogicalPlan::Project {
        input: build.clone(),
        exprs: vec![build_key.clone()],
        names: vec![key_name],
    });
    let spec_builder = |target_col: usize, is_partition_col: bool| SemiJoinFilterSpec {
        source: source.clone(),
        source_key: 0,
        target_col,
        is_partition_col,
    };
    attach_to_scan(probe, *col, &spec_builder, through_joins).map(Arc::new)
}

fn attach_to_scan(
    plan: &LogicalPlan,
    col: usize,
    make_spec: &dyn Fn(usize, bool) -> SemiJoinFilterSpec,
    through_joins: bool,
) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table, projection, ..
        } => {
            let schema_col = *projection.get(col)?;
            let spec = make_spec(col, table.partition_cols.contains(&schema_col));
            let mut scan = plan.clone();
            if let LogicalPlan::Scan {
                semijoin_filters, ..
            } = &mut scan
            {
                semijoin_filters.push(spec);
            }
            Some(scan)
        }
        LogicalPlan::Filter { input, .. } => {
            let inner = attach_to_scan(input, col, make_spec, through_joins)?;
            Some(with_children(plan, vec![Arc::new(inner)]))
        }
        // Trace through a pass-through projection.
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col) {
            Some(ScalarExpr::Column(inner_col)) => {
                let inner = attach_to_scan(input, *inner_col, make_spec, through_joins)?;
                Some(with_children(plan, vec![Arc::new(inner)]))
            }
            _ => None,
        },
        // Trace through an intermediate inner/cross join to whichever
        // side owns the column: the reducer only drops rows whose key
        // cannot satisfy the *outer* join's equality, so filtering the
        // base scan early is safe regardless of this join. This is what
        // keeps dynamic partition pruning alive when the cost-based
        // order joins the partition-keyed dimension last.
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            ..
        } => {
            if !through_joins {
                return None;
            }
            let left_width = left.schema().len();
            let children = if col < left_width {
                let inner = attach_to_scan(left, col, make_spec, through_joins)?;
                vec![Arc::new(inner), right.clone()]
            } else {
                let inner = attach_to_scan(right, col - left_width, make_spec, through_joins)?;
                vec![left.clone(), Arc::new(inner)]
            };
            Some(with_children(plan, children))
        }
        _ => None,
    }
}
