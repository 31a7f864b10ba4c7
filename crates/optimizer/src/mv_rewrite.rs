//! Materialized-view based query rewriting (§4.4).
//!
//! The rewriter handles Select-Project-Join-Aggregate (SPJA)
//! expressions, producing:
//!
//! * **full rewrites** (Figure 4(b)): the query's data need is contained
//!   in the view — scan the view, apply residual filters, and roll up to
//!   the query's (coarser or equal) grouping;
//! * **partially contained rewrites** (Figure 4(c)): the query's range
//!   predicate is wider than the view's — a UNION ALL of the view part
//!   and the complement computed from the source tables, re-aggregated.
//!
//! Matching is structural over an extracted SPJA summary: scanned-table
//! multiset, equi-join pair set, filter conjuncts with single-column
//! range implication, group keys, and derivable aggregates.

use crate::expr::{AggExpr, AggFunc, ScalarExpr};
use crate::optimizer::Optimizer;
use crate::plan::{JoinType, LogicalPlan, ScanTable};
use crate::rules::{join_reorder, transform_up, Transformed};
use crate::stats::{Estimator, StatsSource};
use hive_common::{HiveError, Result, Value};
use hive_sql::BinaryOp;
use std::cmp::Ordering;
use std::sync::Arc;

/// A view eligible for rewriting under the current snapshot, with its
/// analyzed definition plan.
#[derive(Debug, Clone)]
pub struct UsableView {
    /// The MV's own table (scanned by rewritten plans).
    pub table: Arc<hive_metastore::Table>,
    /// The analyzed definition plan, normalized by the exhaustive stage
    /// like the query side will be. Shared: the driver keeps it with
    /// the view and hands it to every query.
    pub plan: Arc<LogicalPlan>,
}

/// Column coordinates: `rel_idx * COL_STRIDE + table_schema_col`.
const COL_STRIDE: usize = 4096;

/// The SPJA summary of a plan subtree.
#[derive(Debug, Clone)]
struct Spja {
    /// Scans ordered by qualified name (self-joins rejected).
    scans: Vec<ScanTable>,
    /// Canonicalized equi-join pairs over global coordinates.
    join_pairs: Vec<(String, String)>,
    /// Filter conjuncts over global coordinates.
    filters: Vec<ScalarExpr>,
    /// Group keys over global coordinates (empty for SPJ).
    group_keys: Vec<ScalarExpr>,
    /// Aggregates over global coordinates.
    aggs: Vec<AggExpr>,
    /// True when the subtree ends in an Aggregate.
    has_agg: bool,
    /// The join conditions as equality expressions (global coords),
    /// kept for rebuilding source branches.
    raw_joins: Vec<ScalarExpr>,
}

impl Spja {
    fn table_names(&self) -> Vec<&str> {
        self.scans
            .iter()
            .map(|s| s.qualified_name.as_str())
            .collect()
    }
}

/// Try to rewrite `plan` using any usable view; returns the rewritten
/// plan only when its estimated cost improves.
pub fn try_rewrite(
    plan: &Arc<LogicalPlan>,
    views: &[UsableView],
    stats: &dyn StatsSource,
) -> Result<Option<Arc<LogicalPlan>>> {
    let mut applied = false;
    let rewritten = transform_up(plan, &mut |node| {
        // One substitution per pass keeps things simple.
        if applied || !matches!(*node, LogicalPlan::Aggregate { .. }) {
            return Transformed::no(node);
        }
        for view in views {
            if let Ok(Some(new)) = rewrite_aggregate(&node, view) {
                applied = true;
                return Transformed::yes(Arc::new(new));
            }
        }
        Transformed::no(node)
    });
    if !applied {
        return Ok(None);
    }
    // Normalize the rewritten plan (pushdown/folding) before the
    // cost-based decision: a freshly rebuilt union branch starts as a
    // filtered cross join and would otherwise look artificially costly.
    // Both sides are compared *after* join reordering, since that is the
    // form either one would ultimately execute in.
    let rewritten = Optimizer::exhaustive(&rewritten.data).data;
    let mut est = Estimator::new(stats);
    let reordered = join_reorder::reorder_joins(&rewritten, &mut est)?;
    let rewritten = if reordered.transformed {
        Optimizer::exhaustive(&reordered.data).data
    } else {
        reordered.data
    };
    let old_reordered = join_reorder::reorder_joins(plan, &mut est)?.data;
    let old_cost = est.cost(&old_reordered);
    let new_cost = est.cost(&rewritten);
    if std::env::var("HIVE_MV_DEBUG").is_ok() {
        eprintln!("mv_rewrite: old={old_cost} new={new_cost}");
    }
    if new_cost < old_cost {
        Ok(Some(rewritten))
    } else {
        Ok(None)
    }
}

/// One MV table column's meaning: the view's i-th group key or j-th
/// aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutSlot {
    Key(usize),
    Agg(usize),
}

/// Extract the view definition's SPJA plus the mapping from MV table
/// columns to (key/agg) slots. Accepts an optional top-level projection
/// of plain column references (the analyzer always produces one).
fn extract_view(plan: &LogicalPlan) -> Option<(Spja, Vec<OutSlot>)> {
    let (agg_node, out_cols): (&LogicalPlan, Option<Vec<usize>>) = match plan {
        LogicalPlan::Project { input, exprs, .. } => {
            let cols: Option<Vec<usize>> = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(c) => Some(*c),
                    _ => None,
                })
                .collect();
            (input.as_ref(), Some(cols?))
        }
        other => (other, None),
    };
    let spja = extract_spja(agg_node)?;
    if !spja.has_agg {
        return None;
    }
    let nk = spja.group_keys.len();
    let width = nk + spja.aggs.len();
    let slot_of = |c: usize| -> Option<OutSlot> {
        if c < nk {
            Some(OutSlot::Key(c))
        } else if c < width {
            Some(OutSlot::Agg(c - nk))
        } else {
            None
        }
    };
    let slots: Vec<OutSlot> = match out_cols {
        Some(cols) => cols.into_iter().map(slot_of).collect::<Option<Vec<_>>>()?,
        None => (0..width).map(|c| slot_of(c).unwrap()).collect(),
    };
    Some((spja, slots))
}

/// Attempt to rewrite one Aggregate subtree against one view.
fn rewrite_aggregate(node: &LogicalPlan, view: &UsableView) -> Result<Option<LogicalPlan>> {
    let Some(query) = extract_spja(node) else {
        return Ok(None);
    };
    let Some((view_spja, view_slots)) = extract_view(&view.plan) else {
        return Ok(None);
    };
    if !query.has_agg {
        return Ok(None);
    }
    // 1. Same table multiset.
    if query.table_names() != view_spja.table_names() {
        return Ok(None);
    }
    // 2. Same join pairs.
    if query.join_pairs != view_spja.join_pairs {
        return Ok(None);
    }
    // 3. Query group keys ⊆ view group keys.
    let mut key_map: Vec<usize> = Vec::new(); // query key → view key idx
    for qk in &query.group_keys {
        match view_spja.group_keys.iter().position(|vk| vk == qk) {
            Some(i) => key_map.push(i),
            None => return Ok(None),
        }
    }
    // 4. Filter containment.
    let containment = check_filters(&query.filters, &view_spja.filters);
    let (residuals, complement) = match containment {
        FilterMatch::Contained { residuals } => (residuals, None),
        FilterMatch::Partial {
            residuals,
            complement,
        } => (residuals, Some(complement)),
        FilterMatch::No => return Ok(None),
    };
    // Residual filters must be expressible over the view's output
    // (its group keys); anything else defeats the rewrite.
    let mut residual_over_view: Vec<ScalarExpr> = Vec::new();
    for r in &residuals {
        match remap_to_view_output(r, &view_spja, &view_slots) {
            Some(e) => residual_over_view.push(e),
            None => return Ok(None),
        }
    }
    // 5. Aggregate derivability (rollup-merge over the view's rows).
    let mut derived: Vec<(AggExpr, Option<usize>)> = Vec::new(); // (view rollup agg, divisor col for AVG)
    for qa in &query.aggs {
        match derive_agg(qa, &view_spja, &view_slots) {
            Some(d) => derived.push(d),
            None => return Ok(None),
        }
    }

    // Build the view branch: Scan(MV) → Filter(residual) → Aggregate
    // (group = query keys as view cols, aggs = derived) → Project.
    let view_branch = build_view_branch(
        view,
        &view_slots,
        &key_map,
        &residual_over_view,
        &derived,
        &query,
    )?;

    let replacement = match complement {
        None => view_branch,
        Some(comp_filter) => {
            // Partially contained rewrite: union with the source part.
            let mut source_filters = query.filters.clone();
            source_filters.push(comp_filter);
            let source_branch = build_source_branch(&query, &source_filters)?;
            // Merge-aggregate the union: group keys 0..k, merge aggs.
            let k = query.group_keys.len();
            let mut merge_aggs = Vec::new();
            for (i, qa) in query.aggs.iter().enumerate() {
                let func = match qa.func {
                    AggFunc::Sum => AggFunc::Sum,
                    AggFunc::Count => AggFunc::Sum,
                    AggFunc::Min => AggFunc::Min,
                    AggFunc::Max => AggFunc::Max,
                    // AVG/Stddev/distinct cannot merge across branches.
                    _ => return Ok(None),
                };
                if qa.distinct {
                    return Ok(None);
                }
                merge_aggs.push(AggExpr {
                    func,
                    arg: Some(ScalarExpr::Column(k + i)),
                    distinct: false,
                });
            }
            let union = LogicalPlan::Union {
                inputs: vec![Arc::new(view_branch), Arc::new(source_branch)],
            };
            LogicalPlan::Aggregate {
                input: Arc::new(union),
                group_exprs: (0..k).map(ScalarExpr::Column).collect(),
                grouping_sets: None,
                aggs: merge_aggs,
            }
        }
    };
    // The replacement schema must align with the original Aggregate
    // output (same arity/types by construction: keys then aggs).
    Ok(Some(replacement))
}

/// Build the rewritten branch reading from the MV table.
fn build_view_branch(
    view: &UsableView,
    view_slots: &[OutSlot],
    key_map: &[usize],
    residuals: &[ScalarExpr],
    derived: &[(AggExpr, Option<usize>)],
    query: &Spja,
) -> Result<LogicalPlan> {
    let mv_schema = view.table.full_schema();
    let scan = LogicalPlan::Scan {
        table: ScanTable {
            qualified_name: view.table.qualified_name(),
            db: view.table.db.clone(),
            name: view.table.name.clone(),
            schema: mv_schema.clone(),
            partition_cols: vec![],
            handler: view.table.storage_handler.clone(),
            acid: view.table.is_acid(),
            is_mv: true,
            external_query: None,
            external_source: None,
            row_ids: false,
        },
        projection: (0..mv_schema.len()).collect(),
        filters: residuals.to_vec(),
        partitions: None,
        semijoin_filters: vec![],
    };
    // Roll up to the query grouping (query key → MV column via slots).
    let group_exprs: Vec<ScalarExpr> = key_map
        .iter()
        .map(|&vk| {
            let col = view_slots
                .iter()
                .position(|s| *s == OutSlot::Key(vk))
                .ok_or_else(|| HiveError::Plan("view key not in MV output".into()))?;
            Ok(ScalarExpr::Column(col))
        })
        .collect::<Result<Vec<_>>>()?;
    let aggs: Vec<AggExpr> = derived.iter().map(|(a, _)| a.clone()).collect();
    let agg = LogicalPlan::Aggregate {
        input: Arc::new(scan),
        group_exprs,
        grouping_sets: None,
        aggs,
    };
    // Project: keys in query order, then agg results (with AVG division).
    let k = query.group_keys.len();
    let mut exprs: Vec<ScalarExpr> = (0..k).map(ScalarExpr::Column).collect();
    let mut names: Vec<String> = (0..k).map(|i| format!("_g{i}")).collect();
    for (i, (agg_expr, divisor)) in derived.iter().enumerate() {
        let col = ScalarExpr::Column(k + i);
        let e = match divisor {
            Some(div_idx) => ScalarExpr::Binary {
                op: BinaryOp::Divide,
                left: Box::new(col),
                right: Box::new(ScalarExpr::Column(k + div_idx)),
            },
            None => col,
        };
        let _ = agg_expr;
        exprs.push(e);
        names.push(format!("_a{i}"));
    }
    Ok(LogicalPlan::Project {
        input: Arc::new(agg),
        exprs,
        names,
    })
}

/// Rebuild the source SPJA from its summary with the given filters.
fn build_source_branch(query: &Spja, filters: &[ScalarExpr]) -> Result<LogicalPlan> {
    // Left-deep cross-join of scans in summary order, then filters as a
    // predicate (pushdown will redistribute), then the aggregate.
    let mut plan: Option<Arc<LogicalPlan>> = None;
    let mut offsets: Vec<usize> = Vec::new();
    let mut acc = 0usize;
    for s in &query.scans {
        offsets.push(acc);
        acc += s.schema.len();
        let scan = Arc::new(LogicalPlan::Scan {
            table: s.clone(),
            projection: (0..s.schema.len()).collect(),
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        });
        plan = Some(match plan {
            None => scan,
            Some(left) => Arc::new(LogicalPlan::Join {
                left,
                right: scan,
                join_type: JoinType::Cross,
                equi: vec![],
                residual: None,
            }),
        });
    }
    let plan = plan.ok_or_else(|| HiveError::Plan("empty SPJA summary".into()))?;
    let to_flat = |e: &ScalarExpr| -> Result<ScalarExpr> {
        e.clone().remap_columns(&|g| {
            let rel = g / COL_STRIDE;
            let col = g % COL_STRIDE;
            offsets.get(rel).map(|off| off + col)
        })
    };
    // Join pairs back to predicates.
    let mut preds: Vec<ScalarExpr> = Vec::new();
    for f in filters {
        preds.push(to_flat(f)?);
    }
    for s in &query.join_pairs_struct() {
        preds.push(to_flat(s)?);
    }
    let filtered = match ScalarExpr::conjunction(preds) {
        Some(p) => Arc::new(LogicalPlan::Filter {
            input: plan,
            predicate: p,
        }),
        None => plan,
    };
    let group_exprs = query
        .group_keys
        .iter()
        .map(&to_flat)
        .collect::<Result<Vec<_>>>()?;
    let aggs = query
        .aggs
        .iter()
        .map(|a| {
            Ok(AggExpr {
                func: a.func,
                arg: a.arg.as_ref().map(&to_flat).transpose()?,
                distinct: a.distinct,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(LogicalPlan::Aggregate {
        input: filtered,
        group_exprs,
        grouping_sets: None,
        aggs,
    })
}

impl Spja {
    /// The join pairs as equality expressions in global coordinates.
    fn join_pairs_struct(&self) -> Vec<ScalarExpr> {
        self.raw_joins.clone()
    }
}

/// How the query's filters relate to the view's.
enum FilterMatch {
    /// Query region ⊆ view region; `residuals` re-applied on the view.
    Contained {
        residuals: Vec<ScalarExpr>,
    },
    /// Exactly one view range conjunct is *narrower* than the query's on
    /// the same column: the complement must be computed from source.
    Partial {
        residuals: Vec<ScalarExpr>,
        /// The complement predicate (global coords) for the source part.
        complement: ScalarExpr,
    },
    No,
}

fn check_filters(query: &[ScalarExpr], view: &[ScalarExpr]) -> FilterMatch {
    // Residuals: every query conjunct not literally present in the view.
    let residuals: Vec<ScalarExpr> = query
        .iter()
        .filter(|q| !view.contains(q))
        .cloned()
        .collect();
    // Every view conjunct must be implied by the query's conjunction.
    let mut uncovered: Vec<&ScalarExpr> = Vec::new();
    for v in view {
        let implied = query.iter().any(|q| implies(q, v));
        if !implied {
            uncovered.push(v);
        }
    }
    if uncovered.is_empty() {
        return FilterMatch::Contained { residuals };
    }
    // Partial containment: a single uncovered *range* view conjunct on a
    // column where the query has a wider (or absent) range.
    if uncovered.len() == 1 {
        if let Some((col, _, _)) = as_range(uncovered[0]) {
            // The complement region = query ∧ NOT(view conjunct).
            let complement = ScalarExpr::Not(Box::new(uncovered[0].clone()));
            // Query must not contradict the view region entirely: if the
            // query has a conflicting range making the intersection
            // empty, the full rewrite is just wrong, not partial; we
            // accept and let the optimizer fold empty branches.
            let _ = col;
            return FilterMatch::Partial {
                residuals,
                complement,
            };
        }
    }
    FilterMatch::No
}

/// Does conjunct `q` imply conjunct `v`?
fn implies(q: &ScalarExpr, v: &ScalarExpr) -> bool {
    if q == v {
        return true;
    }
    let (Some((qc, qop, qv)), Some((vc, vop, vv))) = (as_range(q), as_range(v)) else {
        return false;
    };
    if qc != vc {
        return false;
    }
    let cmp = match qv.sql_cmp(&vv) {
        Some(c) => c,
        None => return false,
    };
    use BinaryOp::*;
    match (qop, vop) {
        (Eq, Eq) => cmp == Ordering::Equal,
        (Eq, Gt) => cmp == Ordering::Greater,
        (Eq, GtEq) => cmp != Ordering::Less,
        (Eq, Lt) => cmp == Ordering::Less,
        (Eq, LtEq) => cmp != Ordering::Greater,
        (Gt, Gt) => cmp != Ordering::Less,
        (Gt, GtEq) => cmp != Ordering::Less,
        (GtEq, Gt) => cmp == Ordering::Greater,
        (GtEq, GtEq) => cmp != Ordering::Less,
        (Lt, Lt) => cmp != Ordering::Greater,
        (Lt, LtEq) => cmp != Ordering::Greater,
        (LtEq, Lt) => cmp == Ordering::Less,
        (LtEq, LtEq) => cmp != Ordering::Greater,
        _ => false,
    }
}

/// View a conjunct as `column op literal` (normalizing direction).
fn as_range(e: &ScalarExpr) -> Option<(usize, BinaryOp, Value)> {
    if let ScalarExpr::Binary { op, left, right } = e {
        if let (ScalarExpr::Column(c), ScalarExpr::Literal(v)) = (left.as_ref(), right.as_ref()) {
            return Some((*c, *op, v.clone()));
        }
        if let (ScalarExpr::Literal(v), ScalarExpr::Column(c)) = (left.as_ref(), right.as_ref()) {
            let flipped = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::LtEq => BinaryOp::GtEq,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::GtEq => BinaryOp::LtEq,
                other => *other,
            };
            return Some((*c, flipped, v.clone()));
        }
    }
    None
}

/// Re-express a global-coordinate expression over the MV table's
/// columns. Fails when a referenced column is not one of the view's
/// group keys (or its key is not exported by the MV's projection).
fn remap_to_view_output(e: &ScalarExpr, view: &Spja, slots: &[OutSlot]) -> Option<ScalarExpr> {
    let mut ok = true;
    let out = e.clone().transform(&mut |x| match &x {
        ScalarExpr::Column(g) => {
            let key_idx = view
                .group_keys
                .iter()
                .position(|k| matches!(k, ScalarExpr::Column(kc) if kc == g));
            match key_idx.and_then(|i| slots.iter().position(|s| *s == OutSlot::Key(i))) {
                Some(col) => ScalarExpr::Column(col),
                None => {
                    ok = false;
                    x
                }
            }
        }
        _ => x,
    });
    ok.then_some(out)
}

/// Derive a query aggregate from the view's aggregate columns.
/// Returns the rollup aggregate over the MV scan plus, for AVG, the
/// index (within the derived agg list, filled by the caller's layout)
/// of the COUNT divisor.
fn derive_agg(qa: &AggExpr, view: &Spja, slots: &[OutSlot]) -> Option<(AggExpr, Option<usize>)> {
    if qa.distinct {
        return None;
    }
    // Find the MV column exporting the matching view aggregate.
    let find = |func: AggFunc, arg: &Option<ScalarExpr>| -> Option<usize> {
        let j = view
            .aggs
            .iter()
            .position(|va| va.func == func && va.arg == *arg && !va.distinct)?;
        slots.iter().position(|s| *s == OutSlot::Agg(j))
    };
    match qa.func {
        AggFunc::Sum => {
            let col = find(AggFunc::Sum, &qa.arg)?;
            Some((
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column(col)),
                    distinct: false,
                },
                None,
            ))
        }
        AggFunc::Count => {
            let col = find(AggFunc::Count, &qa.arg)?;
            Some((
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column(col)),
                    distinct: false,
                },
                None,
            ))
        }
        AggFunc::Min => {
            let col = find(AggFunc::Min, &qa.arg)?;
            Some((
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(ScalarExpr::Column(col)),
                    distinct: false,
                },
                None,
            ))
        }
        AggFunc::Max => {
            let col = find(AggFunc::Max, &qa.arg)?;
            Some((
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::Column(col)),
                    distinct: false,
                },
                None,
            ))
        }
        // AVG and STDDEV require auxiliary columns; only AVG with
        // SUM+COUNT present derives (divisor handled by the caller).
        _ => None,
    }
}

/// Extract an SPJA summary, or `None` when the subtree contains shapes
/// the rewriter does not reason about.
fn extract_spja(plan: &LogicalPlan) -> Option<Spja> {
    let mut scans: Vec<(ScanTable, usize)> = Vec::new(); // (table, flat offset)
    let mut filters_flat: Vec<ScalarExpr> = Vec::new();
    let mut joins_flat: Vec<ScalarExpr> = Vec::new();
    let (agg_input, group_keys_raw, aggs_raw, has_agg) = match plan {
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            grouping_sets,
            aggs,
        } => {
            if grouping_sets.is_some() {
                return None;
            }
            (input.as_ref(), group_exprs.clone(), aggs.clone(), true)
        }
        other => (other, vec![], vec![], false),
    };
    collect_spj(agg_input, 0, &mut scans, &mut filters_flat, &mut joins_flat)?;
    // Convert flat coordinates to (rel, schema col) global coordinates.
    let flat_to_global = |c: usize| -> Option<usize> {
        for (i, (t, off)) in scans.iter().enumerate() {
            if c >= *off && c < off + t.schema.len() {
                return Some(i * COL_STRIDE + (c - off));
            }
        }
        None
    };
    // Canonical order: sort scans by name; reject self-joins.
    let mut order: Vec<usize> = (0..scans.len()).collect();
    order.sort_by(|&a, &b| scans[a].0.qualified_name.cmp(&scans[b].0.qualified_name));
    for w in order.windows(2) {
        if scans[w[0]].0.qualified_name == scans[w[1]].0.qualified_name {
            return None; // self-join ambiguity
        }
    }
    let rel_rename: Vec<usize> = {
        // old rel idx -> new rel idx
        let mut m = vec![0usize; scans.len()];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            m[old_idx] = new_idx;
        }
        m
    };
    let remap = |e: &ScalarExpr| -> Option<ScalarExpr> {
        let mut ok = true;
        let out = e.clone().transform(&mut |x| match x {
            ScalarExpr::Column(c) => match flat_to_global(c) {
                Some(g) => {
                    let rel = g / COL_STRIDE;
                    let col = g % COL_STRIDE;
                    ScalarExpr::Column(rel_rename[rel] * COL_STRIDE + col)
                }
                None => {
                    ok = false;
                    ScalarExpr::Column(c)
                }
            },
            other => other,
        });
        ok.then_some(out)
    };
    let filters = filters_flat
        .iter()
        .map(&remap)
        .collect::<Option<Vec<_>>>()?;
    let raw_joins = joins_flat.iter().map(&remap).collect::<Option<Vec<_>>>()?;
    let mut join_pairs: Vec<(String, String)> = raw_joins
        .iter()
        .filter_map(|j| {
            if let ScalarExpr::Binary {
                op: BinaryOp::Eq,
                left,
                right,
            } = j
            {
                let (a, b) = (format!("{left}"), format!("{right}"));
                Some(if a <= b { (a, b) } else { (b, a) })
            } else {
                None
            }
        })
        .collect();
    join_pairs.sort();
    let group_keys = group_keys_raw
        .iter()
        .map(&remap)
        .collect::<Option<Vec<_>>>()?;
    let aggs = aggs_raw
        .iter()
        .map(|a| {
            Some(AggExpr {
                func: a.func,
                arg: match &a.arg {
                    Some(e) => Some(remap(e)?),
                    None => None,
                },
                distinct: a.distinct,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let ordered_scans: Vec<ScanTable> = order.iter().map(|&i| scans[i].0.clone()).collect();
    Some(Spja {
        scans: ordered_scans,
        join_pairs,
        filters,
        group_keys,
        aggs,
        has_agg,
        raw_joins,
    })
}

/// Walk an SPJ tree collecting scans (with flat offsets), filters and
/// join conditions in flat (concatenated) coordinates.
fn collect_spj(
    plan: &LogicalPlan,
    offset: usize,
    scans: &mut Vec<(ScanTable, usize)>,
    filters: &mut Vec<ScalarExpr>,
    joins: &mut Vec<ScalarExpr>,
) -> Option<usize> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters: scan_filters,
            semijoin_filters: _,
            partitions: _,
        } => {
            // Require full projection in schema order (pre-pruning plans).
            if projection.len() != table.schema.len()
                || projection.iter().enumerate().any(|(i, &p)| p != i)
            {
                // Remap anyway via projection.
                for f in scan_filters {
                    let remapped = f
                        .clone()
                        .remap_columns(&|c| projection.get(c).map(|&p| p + offset))
                        .ok()?;
                    filters.push(remapped);
                }
                scans.push((table.clone(), offset));
                return Some(offset + table.schema.len());
            }
            for f in scan_filters {
                for part in f.split_conjunction() {
                    filters.push(part.clone().shift_columns(offset));
                }
            }
            scans.push((table.clone(), offset));
            Some(offset + table.schema.len())
        }
        LogicalPlan::Filter { input, predicate } => {
            let end = collect_spj(input, offset, scans, filters, joins)?;
            for part in predicate.split_conjunction() {
                let cols = part.columns();
                let is_join = matches!(
                    part,
                    ScalarExpr::Binary {
                        op: BinaryOp::Eq,
                        ..
                    }
                ) && cols.len() >= 2
                    && spans_scans(&cols, scans, offset);
                if is_join {
                    joins.push(part.clone().shift_columns(offset));
                } else {
                    filters.push(part.clone().shift_columns(offset));
                }
            }
            Some(end)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            equi,
            residual,
        } => {
            let mid = collect_spj(left, offset, scans, filters, joins)?;
            let end = collect_spj(right, mid, scans, filters, joins)?;
            for (l, r) in equi {
                let le = l.clone().shift_columns(offset);
                let re = r.clone().shift_columns(mid);
                joins.push(ScalarExpr::eq(le, re));
            }
            if let Some(res) = residual {
                let shifted = res
                    .clone()
                    .remap_columns(&|c| {
                        let left_w = mid - offset;
                        if c < left_w {
                            Some(c + offset)
                        } else {
                            Some(c - left_w + mid)
                        }
                    })
                    .ok()?;
                filters.push(shifted);
            }
            Some(end)
        }
        // Projections inside the SPJ break the simple column mapping;
        // only identity projections are accepted.
        LogicalPlan::Project { input, exprs, .. } => {
            let identity = exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, ScalarExpr::Column(c) if *c == i));
            if identity {
                collect_spj(input, offset, scans, filters, joins)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Does the column set span more than one scan's flat range?
fn spans_scans(cols: &[usize], scans: &[(ScanTable, usize)], base: usize) -> bool {
    let rel_of = |c: usize| -> Option<usize> {
        scans
            .iter()
            .position(|(t, off)| c + base >= *off && c + base < off + t.schema.len())
    };
    let rels: Vec<_> = cols.iter().filter_map(|&c| rel_of(c)).collect();
    rels.windows(2).any(|w| w[0] != w[1])
}
