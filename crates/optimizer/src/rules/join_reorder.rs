//! Cost-based join reordering (§4.1).
//!
//! Flattens a tree of inner/cross joins into a join graph, then rebuilds
//! a left-deep order greedily: root the tree at the largest connected
//! relation (the fact table — the executor builds hash tables on the
//! *right* input, so small filtered dimensions should join in as build
//! sides) and at each step attach the connected relation that minimizes
//! the estimated intermediate cardinality (falling back to Cartesian
//! expansion only when no connected relation remains). A final
//! projection restores the original column order. Last, every inner
//! equi-join is built on its smaller input (`build_on_smaller`).
//!
//! Every estimate goes through the pass's [`Estimator`]: relations and
//! candidate joins are `Arc` nodes it memoizes, so the subtree under a
//! candidate is estimated once however many candidates stack on it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::{transform_up, Rewrite, Transformed};
use crate::stats::Estimator;
use hive_common::{HiveError, Result};
use std::sync::Arc;

/// Reorder all maximal inner-join trees in the plan, then build every
/// inner equi-join on its smaller input (`build_on_smaller`). Reports a
/// change when the result is not the input's own `Arc`.
pub fn reorder_joins(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Result<Rewrite> {
    let reordered = reorder_only(plan, est)?;
    let out = build_on_smaller(&reordered, est);
    Ok(Transformed {
        transformed: !Arc::ptr_eq(&out, plan),
        data: out,
    })
}

fn reorder_only(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Result<Arc<LogicalPlan>> {
    if est.histograms_enabled() {
        return reorder_top_down(plan, est);
    }
    let mut err = None;
    let out = transform_up(plan, &mut |node| {
        if !is_reorderable_join(&node) {
            return Transformed::no(node);
        }
        match reorder_one(&node, est, false) {
            Ok(p) => Transformed::yes(Arc::new(p)),
            Err(e) => {
                err = Some(e);
                Transformed::no(node)
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out.data),
    }
}

/// Histogram-path traversal: joins are visited top-down so `flatten`
/// sees the whole maximal inner-join tree at once. (The bottom-up pass
/// rewrites inner joins first and caps each at a column-restoring
/// Project, which the outer flatten then treats as one opaque relation
/// — reordering degenerates to pairwise build-side choice and a
/// histogram can never move a selective dimension ahead of a bulky
/// one.) Relations discovered by `flatten` are recursed into, so join
/// trees under aggregates, set ops, or non-inner joins still reorder.
fn reorder_top_down(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Result<Arc<LogicalPlan>> {
    if !is_reorderable_join(plan) {
        return map_children(plan, |c| reorder_top_down(c, est));
    }
    let authored = reorder_below_joins(plan, est)?;
    // Two relations: the greedy tree is the authored one or its mirror,
    // which the estimator costs the same, or higher when the authored
    // join carries a residual; the tie goes to the authored tree, and
    // `build_on_smaller` makes the one decision left.
    if plan.children().iter().all(|c| !is_reorderable_join(c)) {
        return Ok(authored);
    }
    // Greedy left-deep rebuild versus the authored shape, costed under
    // the same estimator. Greedy's search space is left-deep chains
    // only; an authored bushy shape (e.g. cross-joining two tiny
    // dimensions before one multi-key probe of the fact) can be
    // strictly cheaper, and on a tie the authored tree wins — it needs
    // no column-restoring projection.
    let greedy = reorder_one(plan, est, true)?;
    Ok(
        if join_tree_cost(&greedy, est) < join_tree_cost(&authored, est) {
            Arc::new(greedy)
        } else {
            authored
        },
    )
}

/// Keep this maximal inner-join tree's authored shape, recursing only
/// into the relations below it (which may themselves contain join trees
/// — subqueries, derived tables — that still get their own
/// authored-versus-greedy choice).
fn reorder_below_joins(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Result<Arc<LogicalPlan>> {
    if is_reorderable_join(plan) {
        map_children(plan, |c| reorder_below_joins(c, est))
    } else {
        reorder_top_down(plan, est)
    }
}

/// `plan` over `f` of each child: `plan` itself when `f` hands every
/// child back as it was.
fn map_children(
    plan: &Arc<LogicalPlan>,
    mut f: impl FnMut(&Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>>,
) -> Result<Arc<LogicalPlan>> {
    let children = plan.children();
    let new: Vec<_> = children.iter().map(|c| f(c)).collect::<Result<_>>()?;
    if new.iter().zip(&children).all(|(n, o)| Arc::ptr_eq(n, o)) {
        return Ok(plan.clone());
    }
    Ok(Arc::new(super::with_children(plan, new)))
}

/// A swap must find the right input larger than the left by more than
/// estimate noise — the greedy order's histogram margin: a right input
/// within 1 / `SWAP_MARGIN` of the left stays the build side.
const SWAP_MARGIN: f64 = 0.9;

/// The build side (§4.1: the optimizer picks which input becomes the
/// in-memory hash table). The executor builds on a join's *right*
/// input, and a greedy or authored order can leave the bigger input
/// there — a dimension probing the fact table. Every inner equi-join
/// whose estimated right input exceeds its left by more than
/// [`SWAP_MARGIN`] swaps its inputs: the equi pairs flip and the
/// residual is remapped.
///
/// A swap permutes the join's output columns, and it adds no plan node
/// to restore them: the permutation composes into the expressions of
/// the operators above, through every operator that passes columns
/// through (Filter, Sort, Limit, Window, the probe side of a join), up
/// to the first Project or Aggregate, which absorbs it. A join with no
/// such operator above it — under the plan's root, a union or a set
/// operation, whose output columns are positional — keeps its sides.
///
/// The estimates go through the pass's estimator, whose memo holds what
/// the reordering before this pass estimated.
fn build_on_smaller(plan: &Arc<LogicalPlan>, est: &mut Estimator) -> Arc<LogicalPlan> {
    let (out, perm) = swap_sides(plan, false, est);
    debug_assert!(perm.is_none(), "the root absorbs no column permutation");
    out
}

/// A rewritten node's output columns against the original's: original
/// column `i` is column `perm[i]`; `None` is the identity.
type Perm = Option<Vec<usize>>;

fn at(perm: &Perm, i: usize) -> usize {
    perm.as_ref().map_or(i, |p| p[i])
}

/// Rewrite `expr` over an input whose columns moved by `perm`.
fn moved(expr: ScalarExpr, perm: &Perm) -> ScalarExpr {
    match perm {
        None => expr,
        Some(p) => expr.transform(&mut |e| match e {
            ScalarExpr::Column(c) => ScalarExpr::Column(p[c]),
            e => e,
        }),
    }
}

/// [`build_on_smaller`] below `plan`: the rewritten node and how its
/// output columns moved. `absorbed` tells whether an operator above
/// takes a permutation of this node's columns into its expressions.
fn swap_sides(
    plan: &Arc<LogicalPlan>,
    absorbed: bool,
    est: &mut Estimator,
) -> (Arc<LogicalPlan>, Perm) {
    let children = plan.children();
    if children.is_empty() {
        return (plan.clone(), None);
    }
    let child_absorbed = |i: usize| match &**plan {
        LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. } => true,
        LogicalPlan::Union { .. } | LogicalPlan::SetOp { .. } => false,
        // A semi or anti join outputs its probe side only.
        LogicalPlan::Join { join_type, .. } if !join_type.keeps_right() => i == 1 || absorbed,
        _ => absorbed,
    };
    let mut new_children = Vec::with_capacity(children.len());
    let mut perms = Vec::with_capacity(children.len());
    for (i, c) in children.into_iter().enumerate() {
        let (nc, p) = swap_sides(c, child_absorbed(i), est);
        new_children.push(nc);
        perms.push(p);
    }
    let unchanged = perms.iter().all(Option::is_none)
        && new_children
            .iter()
            .zip(plan.children())
            .all(|(n, o)| Arc::ptr_eq(n, o));
    if let LogicalPlan::Join {
        left,
        right,
        join_type,
        equi,
        residual,
    } = &**plan
    {
        let swap = *join_type == JoinType::Inner
            && !equi.is_empty()
            && absorbed
            && est.rows_of(left) < est.rows_of(right) * SWAP_MARGIN;
        if unchanged && !swap {
            return (plan.clone(), None);
        }
        let (pl, pr) = (&perms[0], &perms[1]);
        let (lw, rw) = (left.schema().len(), right.schema().len());
        // The join's own columns over (left ++ right), moved by the
        // children's permutations.
        let joined: Perm = (pl.is_some() || pr.is_some()).then(|| {
            (0..lw)
                .map(|c| at(pl, c))
                .chain((0..rw).map(|c| lw + at(pr, c)))
                .collect()
        });
        let (nl, nr) = (new_children[0].clone(), new_children[1].clone());
        let equi = equi
            .iter()
            .map(|(l, r)| (moved(l.clone(), pl), moved(r.clone(), pr)));
        if !swap {
            let out_perm = if join_type.keeps_right() {
                joined.clone()
            } else {
                pl.clone()
            };
            let node = LogicalPlan::Join {
                left: nl,
                right: nr,
                join_type: *join_type,
                equi: equi.collect(),
                residual: residual.clone().map(|r| moved(r, &joined)),
            };
            return (Arc::new(node), out_perm);
        }
        // Swapped: the right input's columns come first.
        let swapped: Perm = Some(
            (0..lw)
                .map(|c| rw + at(pl, c))
                .chain((0..rw).map(|c| at(pr, c)))
                .collect(),
        );
        let node = LogicalPlan::Join {
            left: nr,
            right: nl,
            join_type: *join_type,
            equi: equi.map(|(l, r)| (r, l)).collect(),
            residual: residual.clone().map(|r| moved(r, &swapped)),
        };
        return (Arc::new(node), swapped);
    }
    if unchanged {
        return (plan.clone(), None);
    }
    let input = &perms[0];
    let out_perm = match &**plan {
        LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. } => None,
        LogicalPlan::Window { windows, .. } => input.as_ref().map(|p| {
            let width = p.len();
            p.iter()
                .copied()
                .chain(width..width + windows.len())
                .collect()
        }),
        _ => input.clone(),
    };
    let mut node = super::with_children(plan, new_children);
    super::map_node_exprs(&mut node, &mut |e| moved(e, input));
    (Arc::new(node), out_perm)
}

/// Cost of a join tree as the sum of estimated output rows over every
/// inner/cross join node: every intermediate a plan materializes is
/// work its downstream operators pay for again.
fn join_tree_cost(plan: &LogicalPlan, est: &mut Estimator) -> f64 {
    let mut cost = 0.0;
    plan.visit(&mut |p| {
        if is_reorderable_join(p) {
            cost += est.rows(p);
        }
    });
    cost
}

fn is_reorderable_join(node: &LogicalPlan) -> bool {
    matches!(
        node,
        LogicalPlan::Join {
            join_type: JoinType::Inner | JoinType::Cross,
            ..
        }
    )
}

/// One relation in the flattened join graph.
struct Rel {
    plan: Arc<LogicalPlan>,
    /// Offset of this relation's columns in the original global order.
    offset: usize,
    width: usize,
    rows: f64,
}

/// An equi edge in global column coordinates.
struct Edge {
    left_rel: usize,
    right_rel: usize,
    /// Exprs in each relation's local coordinates.
    left_expr: ScalarExpr,
    right_expr: ScalarExpr,
    used: bool,
}

impl Edge {
    /// Is this an unused edge between relation `r` and a joined one?
    fn connects(&self, joined: &[bool], r: usize) -> bool {
        !self.used
            && ((joined[self.left_rel] && self.right_rel == r)
                || (joined[self.right_rel] && self.left_rel == r))
    }
}

fn reorder_one(node: &Arc<LogicalPlan>, est: &mut Estimator, deep: bool) -> Result<LogicalPlan> {
    // Flatten.
    let mut rels: Vec<Rel> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut residuals: Vec<ScalarExpr> = Vec::new(); // global coords
    flatten(node, &mut rels, &mut edges, &mut residuals, est, deep)?;
    if rels.len() < 2 {
        return Ok((**node).clone());
    }

    // Greedy construction.
    let n = rels.len();
    let mut joined = vec![false; n];
    // Current output layout: list of (rel index, local col) in order.
    let mut layout: Vec<(usize, usize)> = Vec::new();

    // Root the left-deep tree at the largest connected relation (the
    // fact table): the executor builds its hash table on the *right*
    // input, so smaller relations should join in as build sides.
    let start = (0..n)
        .max_by(|&a, &b| {
            let conn_a = edges.iter().any(|e| e.left_rel == a || e.right_rel == a);
            let conn_b = edges.iter().any(|e| e.left_rel == b || e.right_rel == b);
            conn_a
                .cmp(&conn_b)
                .then(rels[a].rows.total_cmp(&rels[b].rows))
        })
        .ok_or_else(|| HiveError::Plan("join reorder: no relation to start from".into()))?;
    joined[start] = true;
    let mut current: Arc<LogicalPlan> = rels[start].plan.clone();
    let mut current_rows = rels[start].rows;
    layout.extend((0..rels[start].width).map(|c| (start, c)));

    // On the histogram path a candidate must beat the incumbent by a
    // real margin: reservoir sampling and bucket interpolation put
    // noise on estimates that are logically equal (e.g. two unfiltered
    // FK dimensions), and deviating from the authored order on noise
    // buys nothing while the column-restoring projection it forces
    // costs real rows. Genuine wins (a filtered dimension versus an
    // unfiltered one) differ by integer factors, far past 10%.
    let margin = if est.histograms_enabled() { 0.9 } else { 1.0 };
    while joined.iter().any(|j| !j) {
        // Candidate = unjoined relation; prefer connected ones, pick the
        // one minimizing estimated output rows.
        let mut best: Option<Candidate> = None;
        for r in 0..n {
            if joined[r] {
                continue;
            }
            let connected = edges.iter().any(|e| e.connects(&joined, r));
            let (rows, join) = if !connected {
                (current_rows * rels[r].rows, None)
            } else if est.histograms_enabled() {
                // Cost the candidate through the full estimator
                // (histogram overlap on the join keys, runtime
                // feedback when present) by building the join it
                // would produce.
                candidate_join(
                    &current,
                    current_rows,
                    &rels[r],
                    r,
                    &edges,
                    &joined,
                    &layout,
                    est,
                )
            } else {
                // Constant-selectivity oracle: size-containment on
                // the raw row counts.
                (containment(current_rows, rels[r].rows), None)
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (connected && !b.connected)
                        || (connected == b.connected && rows < b.rows * margin)
                }
            };
            if better {
                best = Some(Candidate {
                    rel: r,
                    rows,
                    connected,
                    join,
                });
            }
        }
        let Some(chosen) = best else {
            return Err(HiveError::Plan(
                "join reorder: no relation left to attach".into(),
            ));
        };
        let next = chosen.rel;
        current = match chosen.join {
            // The candidate the estimator costed is the join to build.
            Some(join) => join,
            None => {
                let equi = connecting_keys(&edges, &joined, &layout, next)?;
                let join_type = if chosen.connected && !equi.is_empty() {
                    JoinType::Inner
                } else {
                    JoinType::Cross
                };
                Arc::new(LogicalPlan::Join {
                    left: current,
                    right: rels[next].plan.clone(),
                    join_type,
                    equi,
                    residual: None,
                })
            }
        };
        for e in edges.iter_mut() {
            if e.connects(&joined, next) {
                e.used = true;
            }
        }
        layout.extend((0..rels[next].width).map(|c| (next, c)));
        joined[next] = true;
        current_rows = chosen.rows.max(1.0);
    }

    // Any unused edges (cycles) and residuals become a filter on top,
    // remapped from global coordinates to the final layout.
    let global_to_layout = |g: usize| -> Option<usize> {
        // Find which relation owns global column g.
        let rel = rels
            .iter()
            .position(|r| g >= r.offset && g < r.offset + r.width)?;
        let local = g - rels[rel].offset;
        layout.iter().position(|&(r, lc)| r == rel && lc == local)
    };
    let mut filters: Vec<ScalarExpr> = Vec::new();
    for e in edges.iter().filter(|e| !e.used) {
        let l = e.left_expr.clone().remap_columns(&|c| {
            layout
                .iter()
                .position(|&(r, lc)| r == e.left_rel && lc == c)
        })?;
        let r = e.right_expr.clone().remap_columns(&|c| {
            layout
                .iter()
                .position(|&(r2, lc)| r2 == e.right_rel && lc == c)
        })?;
        filters.push(ScalarExpr::eq(l, r));
    }
    for res in &residuals {
        filters.push(res.clone().remap_columns(&global_to_layout)?);
    }
    let mut out: Arc<LogicalPlan> = current;
    if let Some(pred) = ScalarExpr::conjunction(filters) {
        out = Arc::new(LogicalPlan::Filter {
            input: out,
            predicate: pred,
        });
    }

    // Restore the original global column order.
    let schema = out.schema();
    let total: usize = rels.iter().map(|r| r.width).sum();
    let mut exprs = Vec::with_capacity(total);
    let mut names = Vec::with_capacity(total);
    for g in 0..total {
        let pos =
            global_to_layout(g).ok_or_else(|| HiveError::Plan("lost column in reorder".into()))?;
        exprs.push(ScalarExpr::Column(pos));
        names.push(schema.field(pos).name.clone());
    }
    Ok(LogicalPlan::Project {
        input: out,
        exprs,
        names,
    })
}

/// The best relation to attach next, so far.
struct Candidate {
    rel: usize,
    rows: f64,
    connected: bool,
    /// The join node the estimate was made on, when one was built.
    join: Option<Arc<LogicalPlan>>,
}

/// Size-containment estimate of joining two relations on some key.
fn containment(l: f64, r: f64) -> f64 {
    l * r / l.max(r).max(1.0)
}

/// The equi conditions joining relation `r` onto the accumulated tree:
/// every unused edge between `r` and a joined relation, the joined
/// side's expression remapped into the accumulated `layout`.
fn connecting_keys(
    edges: &[Edge],
    joined: &[bool],
    layout: &[(usize, usize)],
    r: usize,
) -> Result<Vec<(ScalarExpr, ScalarExpr)>> {
    let mut equi = Vec::new();
    for e in edges.iter().filter(|e| e.connects(joined, r)) {
        let (cur_rel, cur_expr, next_expr) = if e.right_rel == r && joined[e.left_rel] {
            (e.left_rel, &e.left_expr, &e.right_expr)
        } else {
            (e.right_rel, &e.right_expr, &e.left_expr)
        };
        let left = cur_expr
            .clone()
            .remap_columns(&|c| layout.iter().position(|&(rr, lc)| rr == cur_rel && lc == c))?;
        equi.push((left, next_expr.clone()));
    }
    Ok(equi)
}

/// Estimated output rows of joining `rel` onto the accumulated
/// `current` tree, costed through the estimator on the candidate join
/// node — returned with the estimate — so histogram overlap and runtime
/// feedback participate. Falls back to size-containment (and no node)
/// when the candidate's join keys cannot be expressed over the
/// accumulated layout.
#[allow(clippy::too_many_arguments)]
fn candidate_join(
    current: &Arc<LogicalPlan>,
    current_rows: f64,
    rel: &Rel,
    r: usize,
    edges: &[Edge],
    joined: &[bool],
    layout: &[(usize, usize)],
    est: &mut Estimator,
) -> (f64, Option<Arc<LogicalPlan>>) {
    let fallback = (containment(current_rows, rel.rows), None);
    let Ok(equi) = connecting_keys(edges, joined, layout, r) else {
        return fallback;
    };
    if equi.is_empty() {
        return fallback;
    }
    let candidate = Arc::new(LogicalPlan::Join {
        left: current.clone(),
        right: rel.plan.clone(),
        join_type: JoinType::Inner,
        equi,
        residual: None,
    });
    (est.rows_of(&candidate).max(1.0), Some(candidate))
}

/// Flatten nested inner/cross joins into relations + edges.
fn flatten(
    node: &Arc<LogicalPlan>,
    rels: &mut Vec<Rel>,
    edges: &mut Vec<Edge>,
    residuals: &mut Vec<ScalarExpr>,
    est: &mut Estimator,
    deep: bool,
) -> Result<()> {
    match &**node {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            equi,
            residual,
        } => {
            let left_start_rel = rels.len();
            flatten(left, rels, edges, residuals, est, deep)?;
            let right_start_rel = rels.len();
            let left_width: usize = rels[left_start_rel..right_start_rel]
                .iter()
                .map(|r| r.width)
                .sum();
            let left_offset = rels.get(left_start_rel).map(|r| r.offset).unwrap_or(0);
            flatten(right, rels, edges, residuals, est, deep)?;
            // Register equi edges: left expr over left subtree's local
            // coords, right over right subtree's.
            for (l, r) in equi {
                let (l_rel, l_local) = locate(rels, left_start_rel, right_start_rel, l)?;
                let (r_rel, r_local) = locate(rels, right_start_rel, rels.len(), r)?;
                edges.push(Edge {
                    left_rel: l_rel,
                    right_rel: r_rel,
                    left_expr: l_local,
                    right_expr: r_local,
                    used: false,
                });
            }
            if let Some(res) = residual {
                // Residual over (left ++ right) local coords → global.
                let shifted = res.clone().remap_columns(&|c| {
                    if c < left_width {
                        Some(left_offset + c)
                    } else {
                        let right_offset = rels.get(right_start_rel).map(|r| r.offset)?;
                        Some(right_offset + (c - left_width))
                    }
                })?;
                residuals.push(shifted);
            }
            Ok(())
        }
        other => {
            let plan = if deep {
                reorder_top_down(node, est)?
            } else {
                node.clone()
            };
            let offset = rels.iter().map(|r| r.width).sum();
            let width = other.schema().len();
            rels.push(Rel {
                rows: est.rows_of(&plan),
                plan,
                offset,
                width,
            });
            Ok(())
        }
    }
}

/// Express a join-side expr in the local coordinates of the single
/// relation it references (errors when an expr spans relations — those
/// stay as residuals upstream of this rule).
fn locate(
    rels: &[Rel],
    rel_start: usize,
    rel_end: usize,
    expr: &ScalarExpr,
) -> Result<(usize, ScalarExpr)> {
    // The expr is in the subtree's combined coordinates; relation widths
    // inside [rel_start, rel_end) partition that space in order.
    let cols = expr.columns();
    let mut acc = 0usize;
    for (idx, rel) in rels[rel_start..rel_end].iter().enumerate() {
        let lo = acc;
        let hi = acc + rel.width;
        if cols.iter().all(|&c| c >= lo && c < hi) {
            let local = expr.clone().remap_columns(&|c| Some(c - lo))?;
            return Ok((rel_start + idx, local));
        }
        acc = hi;
    }
    Err(HiveError::Plan("join key spans multiple relations".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, AggFunc};
    use crate::plan::ScanTable;
    use crate::stats::{GatedStats, StatsSource};
    use hive_common::{DataType, Field, Schema, Value};
    use hive_metastore::TableStats;
    use hive_sql::{BinaryOp, SetOperator};
    use std::collections::HashMap;

    struct FakeStats(HashMap<String, Arc<TableStats>>);

    impl StatsSource for FakeStats {
        fn stats_for(&self, q: &str) -> Arc<TableStats> {
            self.0.get(q).map(Arc::clone).unwrap_or_default()
        }
    }

    /// The histogram path before two-relation trees kept their authored
    /// shape: every inner-join tree costs its greedy rebuild against the
    /// authored tree. (Relations are recursed into by the engine's
    /// traversal; the generated relations hold no joins.)
    fn reference_top_down(
        plan: &Arc<LogicalPlan>,
        est: &mut Estimator,
    ) -> Result<Arc<LogicalPlan>> {
        if !is_reorderable_join(plan) {
            return map_children(plan, |c| reference_top_down(c, est));
        }
        let greedy = reorder_one(plan, est, true)?;
        let authored = reorder_below_joins(plan, est)?;
        Ok(
            if join_tree_cost(&greedy, est) < join_tree_cost(&authored, est) {
                Arc::new(greedy)
            } else {
                authored
            },
        )
    }

    /// A table of `rows` rows over INT columns `k` (`ndv` distinct keys)
    /// and `v` (distinct per row), registered in `stats`.
    fn table(
        stats: &mut HashMap<String, Arc<TableStats>>,
        name: &str,
        rows: u64,
        ndv: u64,
    ) -> Arc<LogicalPlan> {
        let qualified_name = format!("default.{name}");
        let mut ts = TableStats::new(2);
        ts.row_count = rows;
        for i in 0..rows {
            ts.columns[0].update(&Value::Int((i % ndv) as i32));
            ts.columns[1].update(&Value::Int(i as i32));
        }
        stats.insert(qualified_name.clone(), Arc::new(ts));
        Arc::new(LogicalPlan::Scan {
            table: ScanTable {
                qualified_name,
                db: "default".into(),
                name: name.into(),
                schema: Schema::new(vec![
                    Field::new("k", DataType::Int),
                    Field::new("v", DataType::Int),
                ]),
                partition_cols: vec![],
                handler: None,
                acid: true,
                is_mv: false,
                external_query: None,
                external_source: None,
                row_ids: false,
            },
            projection: vec![0, 1],
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        })
    }

    /// `l` joined to `r` on `k` (inner) or crossed, with `l.v < r.v` as
    /// residual when asked.
    fn join(
        l: &Arc<LogicalPlan>,
        r: &Arc<LogicalPlan>,
        inner: bool,
        residual: bool,
    ) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Join {
            left: l.clone(),
            right: r.clone(),
            join_type: if inner {
                JoinType::Inner
            } else {
                JoinType::Cross
            },
            equi: match inner {
                true => vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
                false => vec![],
            },
            residual: residual.then(|| ScalarExpr::Binary {
                op: BinaryOp::Lt,
                left: Box::new(ScalarExpr::Column(1)),
                right: Box::new(ScalarExpr::Column(3)),
            }),
        })
    }

    fn project_all(input: Arc<LogicalPlan>) -> Arc<LogicalPlan> {
        let width = input.schema().len();
        Arc::new(LogicalPlan::Project {
            input,
            exprs: (0..width).map(ScalarExpr::Column).collect(),
            names: (0..width).map(|c| format!("c{c}")).collect(),
        })
    }

    /// Every node's estimate (pre-order) as bits, memo hits included.
    fn estimate_bits(plan: &LogicalPlan, est: &mut Estimator) -> Vec<u64> {
        let mut out = Vec::new();
        plan.visit(&mut |p| out.push(est.rows(p).to_bits()));
        out
    }

    #[test]
    fn two_relation_trees_keep_the_plans_and_estimates_greedy_gave() {
        let mut cases = 0;
        for (rows_a, rows_b) in [(2000, 100), (100, 2000), (500, 500)] {
            let mut stats = HashMap::new();
            let a = table(&mut stats, "a", rows_a, 50);
            let b = table(&mut stats, "b", rows_b, 40);
            let c = table(&mut stats, "c", 300, 30);
            let src = FakeStats(stats);
            for inner in [true, false] {
                for residual in [false, true] {
                    let ab = join(&a, &b, inner, residual);
                    let ba = join(&b, &a, inner, residual);
                    let shapes: [(&str, Arc<LogicalPlan>); 4] = [
                        ("project", project_all(ab.clone())),
                        (
                            "aggregate",
                            Arc::new(LogicalPlan::Aggregate {
                                input: ab.clone(),
                                group_exprs: vec![ScalarExpr::Column(2)],
                                grouping_sets: None,
                                aggs: vec![AggExpr {
                                    func: AggFunc::Count,
                                    arg: None,
                                    distinct: false,
                                }],
                            }),
                        ),
                        (
                            "set op",
                            Arc::new(LogicalPlan::SetOp {
                                op: SetOperator::Intersect,
                                all: false,
                                left: ab.clone(),
                                right: ba,
                            }),
                        ),
                        (
                            "outer join",
                            project_all(Arc::new(LogicalPlan::Join {
                                left: ab,
                                right: c.clone(),
                                join_type: JoinType::Left,
                                equi: vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
                                residual: None,
                            })),
                        ),
                    ];
                    for (shape, plan) in shapes {
                        for feedback in [None, Some(1234u64)] {
                            let case = format!(
                                "{rows_a}x{rows_b} inner={inner} residual={residual} \
                                 {shape} feedback={feedback:?}"
                            );
                            let gated = GatedStats {
                                inner: &src,
                                use_histograms: true,
                                feedback: feedback
                                    .map(|n| ("default.a,default.b".to_string(), n))
                                    .into_iter()
                                    .collect(),
                            };
                            let mut est = Estimator::new(&gated);
                            let got = reorder_joins(&plan, &mut est).unwrap().data;
                            let got_bits = estimate_bits(&got, &mut est);
                            let mut ref_est = Estimator::new(&gated);
                            let reference = reference_top_down(&plan, &mut ref_est).unwrap();
                            let want = build_on_smaller(&reference, &mut ref_est);
                            let want_bits = estimate_bits(&want, &mut ref_est);
                            assert_eq!(got, want, "{case}");
                            assert_eq!(got_bits, want_bits, "{case}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 96);
    }
}
