//! Cardinality estimation over logical plans, driven by the HMS
//! statistics (§4.1): row counts, min/max, HyperLogLog-backed NDV, and
//! seeded equi-depth histograms, plus observed-cardinality feedback
//! from the runtime-stats store (§4.2).
//!
//! Statistics arrive as immutable `Arc` snapshots ([`StatsSource`]) and
//! are only ever borrowed. A planning pass estimates through one
//! [`Estimator`], which fetches each table's snapshot once and computes
//! each plan node's estimate once.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use hive_common::Value;
use hive_metastore::{ColumnStatsMeta, TableStats};
use hive_sql::BinaryOp;
use std::collections::HashMap;
use std::sync::Arc;

/// Source of table statistics.
pub trait StatsSource {
    /// The published statistics snapshot for a qualified table name
    /// (empty default when unknown).
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats>;

    /// Whether histogram-driven estimation is active
    /// (`hive.optimizer.histograms.enabled`). When false the System-R
    /// constant-selectivity + max-NDV containment path runs — the
    /// differential oracle.
    fn histograms_enabled(&self) -> bool {
        false
    }

    /// Observed output cardinality for a join over this table set (the
    /// [`join_feedback_key`]), from runtime feedback. Takes precedence
    /// over any estimate.
    fn feedback_rows(&self, _tables: &str) -> Option<u64> {
        None
    }
}

impl StatsSource for hive_metastore::Metastore {
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats> {
        self.table_stats(qualified_name)
    }
}

/// The [`StatsSource`] the optimizer stages drive: raw HMS statistics
/// plus the histogram gate and per-query runtime feedback. All gating
/// flows through this wrapper, so the estimator never consults
/// configuration itself.
pub struct GatedStats<'a> {
    /// Underlying statistics (normally the metastore).
    pub inner: &'a dyn StatsSource,
    /// Resolved `hive.optimizer.histograms.enabled`.
    pub use_histograms: bool,
    /// Observed join cardinalities keyed by [`join_feedback_key`].
    pub feedback: HashMap<String, u64>,
}

impl StatsSource for GatedStats<'_> {
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats> {
        self.inner.stats_for(qualified_name)
    }

    fn histograms_enabled(&self) -> bool {
        self.use_histograms
    }

    fn feedback_rows(&self, tables: &str) -> Option<u64> {
        if self.use_histograms {
            self.feedback.get(tables).copied()
        } else {
            None
        }
    }
}

/// Feedback key for a join node: the sorted, deduplicated set of base
/// tables feeding it. Stable across join reorderings of the same table
/// set, which is exactly what lets an observed cardinality recorded
/// under one plan correct the estimate for every candidate order.
pub fn join_feedback_key(plan: &LogicalPlan) -> String {
    let mut tables = plan.referenced_tables();
    tables.sort();
    tables.dedup();
    tables.join(",")
}

/// Fixed selectivity guesses (System R heritage) used when column stats
/// cannot answer precisely.
const SEL_EQ_DEFAULT: f64 = 0.05;
const SEL_RANGE_DEFAULT: f64 = 1.0 / 3.0;
const SEL_LIKE_DEFAULT: f64 = 0.25;

/// Estimate output rows for a plan: one throwaway [`Estimator`] pass.
/// Code that estimates many nodes of related plans (the optimizer's
/// cost-based stages, the driver's cardinality guard) keeps one
/// `Estimator` instead.
pub fn estimate_rows(plan: &LogicalPlan, src: &dyn StatsSource) -> f64 {
    Estimator::new(src).rows(plan)
}

/// A base-table column a plan column traces to, inside the snapshot the
/// estimator holds for that table.
struct TracedColumn {
    stats: Arc<TableStats>,
    col: usize,
}

impl TracedColumn {
    fn get(&self) -> Option<&ColumnStatsMeta> {
        self.stats.columns.get(self.col)
    }
}

/// The cardinality estimator of one planning pass.
///
/// It holds what makes repeated estimation cheap and nothing else: the
/// statistics snapshot of every table asked about (fetched from the
/// [`StatsSource`] once, so one pass sees one state of each table) and a
/// memo of per-node estimates. The memo key is plan-node **identity** —
/// the address of a node that lives in an `Arc` — and each entry keeps a
/// clone of that `Arc`, so a memoized address can never be reused by
/// another node while the estimator lives. A node's estimate is a pure
/// function of the node, the snapshots and the source's feedback, so a
/// memo hit returns exactly what recomputation would.
pub struct Estimator<'a> {
    src: &'a dyn StatsSource,
    tables: HashMap<String, Arc<TableStats>>,
    memo: HashMap<*const LogicalPlan, (Arc<LogicalPlan>, f64)>,
}

impl<'a> Estimator<'a> {
    /// An estimator over `src` with nothing fetched or estimated yet.
    pub fn new(src: &'a dyn StatsSource) -> Self {
        Estimator {
            src,
            tables: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Whether histogram-driven estimation is active on the source.
    pub fn histograms_enabled(&self) -> bool {
        self.src.histograms_enabled()
    }

    /// This pass's snapshot of a table's statistics.
    fn table(&mut self, qualified_name: &str) -> Arc<TableStats> {
        if let Some(stats) = self.tables.get(qualified_name) {
            return Arc::clone(stats);
        }
        let stats = self.src.stats_for(qualified_name);
        self.tables
            .insert(qualified_name.to_string(), Arc::clone(&stats));
        stats
    }

    /// Estimated output rows of a shared plan node, memoized.
    pub fn rows_of(&mut self, plan: &Arc<LogicalPlan>) -> f64 {
        let key = Arc::as_ptr(plan);
        if let Some((_, rows)) = self.memo.get(&key) {
            return *rows;
        }
        let rows = self.node_rows(plan);
        self.memo.insert(key, (Arc::clone(plan), rows));
        rows
    }

    /// Estimated output rows of a plan. The node itself cannot be pinned
    /// through a plain reference, so it is looked up (it may be a child
    /// estimated before) but not remembered; everything below it is.
    pub fn rows(&mut self, plan: &LogicalPlan) -> f64 {
        if let Some((_, rows)) = self.memo.get(&(plan as *const LogicalPlan)) {
            return *rows;
        }
        self.node_rows(plan)
    }

    /// One node's estimate from its children's.
    fn node_rows(&mut self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                partitions,
                ..
            } => {
                let stats = self.table(&table.qualified_name);
                let mut rows = stats.row_count.max(1) as f64;
                if let Some(parts) = partitions {
                    // Assume uniform partition sizes.
                    let total = table_partition_count(&table.qualified_name).max(1);
                    rows *= (parts.len() as f64 / total as f64).min(1.0);
                }
                let use_hist = self.src.histograms_enabled();
                for f in filters {
                    rows *= selectivity_with(f, Some((&*stats, projection)), use_hist);
                }
                rows.max(1.0)
            }
            LogicalPlan::Values { rows, .. } => rows.len() as f64,
            LogicalPlan::Filter { input, predicate } => {
                (self.rows_of(input) * selectivity(predicate, None)).max(1.0)
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Window { input, .. } => {
                self.rows_of(input)
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                equi,
                residual,
            } => {
                // Runtime feedback wins over any estimate: an observed
                // cardinality for this table set (from a prior execution or
                // the current query's misestimate trip) IS the answer.
                if let Some(obs) = self.src.feedback_rows(&join_feedback_key(plan)) {
                    return (obs as f64).max(1.0);
                }
                let l = self.rows_of(left);
                let r = self.rows_of(right);
                let mut rows = match join_type {
                    JoinType::Cross => l * r,
                    JoinType::Semi => l * 0.5,
                    JoinType::Anti => l * 0.5,
                    _ => {
                        if equi.is_empty() {
                            l * r
                        } else {
                            match self.equi_selectivity(left, right, equi) {
                                Some(s) => l * r * s,
                                None => l * r / l.min(r).max(1.0),
                            }
                        }
                    }
                };
                if residual.is_some() {
                    rows *= SEL_RANGE_DEFAULT;
                }
                match join_type {
                    JoinType::Left => rows.max(l),
                    JoinType::Right => rows.max(r),
                    JoinType::Full => rows.max(l + r),
                    _ => rows.max(1.0),
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                grouping_sets,
                ..
            } => {
                let in_rows = self.rows_of(input);
                if group_exprs.is_empty() {
                    return 1.0;
                }
                // Heuristic: each key contributes sqrt reduction.
                let groups = in_rows
                    .powf(0.5 + 0.1 * (group_exprs.len() as f64 - 1.0))
                    .min(in_rows);
                match grouping_sets {
                    Some(sets) => groups * sets.len() as f64,
                    None => groups,
                }
            }
            LogicalPlan::Sort { input, .. } => self.rows_of(input),
            LogicalPlan::Limit { input, n } => self.rows_of(input).min(*n as f64),
            LogicalPlan::Union { inputs } => inputs.iter().map(|i| self.rows_of(i)).sum(),
            LogicalPlan::SetOp {
                op, left, right, ..
            } => {
                let l = self.rows_of(left);
                let r = self.rows_of(right);
                match op {
                    hive_sql::SetOperator::Intersect => l.min(r) * 0.5,
                    _ => l,
                }
            }
        }
    }

    /// Combined selectivity of a join's equi keys, `None` when no key
    /// reaches statistics. Per key: histogram overlap when both sides
    /// trace to histogrammed scan columns (and the gate is on), otherwise
    /// `1 / max(key NDV)` containment. Multiple keys AND together: on
    /// the histogram path they are independent predicates and multiply
    /// (a multi-key probe of a cross product of dimensions must not
    /// estimate like its loosest key); otherwise keep the most selective.
    fn equi_selectivity(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        equi: &[(ScalarExpr, ScalarExpr)],
    ) -> Option<f64> {
        let use_hist = self.src.histograms_enabled();
        let mut sel: Option<f64> = None;
        for (le, re) in equi {
            let lc = self.key_column(left, le);
            let rc = self.key_column(right, re);
            let (lcs, rcs) = (
                lc.as_ref().and_then(TracedColumn::get),
                rc.as_ref().and_then(TracedColumn::get),
            );
            let mut key_sel: Option<f64> = None;
            if use_hist {
                if let (Some(lcs), Some(rcs)) = (lcs, rcs) {
                    key_sel = hive_metastore::join_selectivity(&lcs.histogram, &rcs.histogram);
                }
            }
            if key_sel.is_none() {
                let mut denom: f64 = 0.0;
                for cs in [lcs, rcs].into_iter().flatten() {
                    let ndv = cs.ndv_estimate();
                    if ndv > 0 {
                        denom = denom.max(ndv as f64);
                    }
                }
                if denom >= 1.0 {
                    key_sel = Some(1.0 / denom);
                }
            }
            if let Some(s) = key_sel {
                sel = Some(match sel {
                    Some(cur) if use_hist => cur * s,
                    Some(cur) => cur.min(s),
                    None => s,
                });
            }
        }
        sel
    }

    /// A simple total-cost model: cumulative rows processed, weighting
    /// joins by build-side size. Used by MV rewriting to compare plans.
    pub fn cost(&mut self, plan: &LogicalPlan) -> f64 {
        let mut cost = self.rows(plan);
        for c in plan.children() {
            cost += self.cost(c);
        }
        if let LogicalPlan::Join { right, .. } = plan {
            // Hash-build cost on the right side.
            cost += self.rows_of(right) * 2.0;
        }
        cost
    }

    /// The base column behind a join-key expression when it is a plain
    /// column tracing through Filters/pass-through Projects/Joins down
    /// to a Scan.
    fn key_column(&mut self, plan: &LogicalPlan, key: &ScalarExpr) -> Option<TracedColumn> {
        match key {
            ScalarExpr::Column(c) => self.trace_column(plan, *c),
            _ => None,
        }
    }

    fn trace_column(&mut self, plan: &LogicalPlan, col: usize) -> Option<TracedColumn> {
        match plan {
            LogicalPlan::Scan {
                table, projection, ..
            } => Some(TracedColumn {
                col: *projection.get(col)?,
                stats: self.table(&table.qualified_name),
            }),
            LogicalPlan::Filter { input, .. } => self.trace_column(input, col),
            LogicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
                ScalarExpr::Column(c) => self.trace_column(input, *c),
                _ => None,
            },
            LogicalPlan::Join { left, right, .. } => {
                // Join output is left columns then right columns.
                let lw = left.schema().len();
                if col < lw {
                    self.trace_column(left, col)
                } else {
                    self.trace_column(right, col - lw)
                }
            }
            _ => None,
        }
    }
}

fn table_partition_count(_name: &str) -> usize {
    // Partition counts are resolved by the partition-pruning rule which
    // stores the concrete list; estimation just needs a denominator and
    // the rule records it through `partitions`. Fall back to 365 (a
    // year of daily partitions) as the typical shape.
    365
}

/// Estimate the selectivity of a predicate; when `scan` is provided the
/// per-column statistics refine the guess. Constant-selectivity path
/// (no histograms) — see [`selectivity_with`].
pub fn selectivity(pred: &ScalarExpr, scan: Option<(&TableStats, &[usize])>) -> f64 {
    selectivity_with(pred, scan, false)
}

/// Estimate the selectivity of a predicate. With `use_hist` set,
/// equality predicates answer from the column histogram's bucket-local
/// NDV (end-biased for sampled heavy hitters) and range predicates
/// from bucket interpolation; otherwise — and whenever no histogram
/// was collected — min/max interpolation and the System-R constants
/// apply.
pub fn selectivity_with(
    pred: &ScalarExpr,
    scan: Option<(&TableStats, &[usize])>,
    use_hist: bool,
) -> f64 {
    match pred {
        ScalarExpr::Literal(Value::Boolean(true)) => 1.0,
        ScalarExpr::Literal(Value::Boolean(false)) => 0.0,
        ScalarExpr::Binary { op, left, right } => match op {
            BinaryOp::And => {
                selectivity_with(left, scan, use_hist) * selectivity_with(right, scan, use_hist)
            }
            BinaryOp::Or => {
                let a = selectivity_with(left, scan, use_hist);
                let b = selectivity_with(right, scan, use_hist);
                (a + b - a * b).min(1.0)
            }
            BinaryOp::Eq => eq_selectivity(left, right, scan, use_hist),
            BinaryOp::NotEq => 1.0 - eq_selectivity(left, right, scan, use_hist),
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                range_selectivity(op, left, right, scan, use_hist)
            }
            _ => SEL_RANGE_DEFAULT,
        },
        ScalarExpr::Not(e) => (1.0 - selectivity_with(e, scan, use_hist)).max(0.0),
        ScalarExpr::IsNull { expr, negated } => {
            let frac = column_of(expr)
                .and_then(|c| column_stats(scan, c))
                .map(|(cs, rows)| {
                    if rows == 0 {
                        0.0
                    } else {
                        cs.null_count as f64 / rows as f64
                    }
                })
                .unwrap_or(0.05);
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        ScalarExpr::Like { negated, .. } => {
            if *negated {
                1.0 - SEL_LIKE_DEFAULT
            } else {
                SEL_LIKE_DEFAULT
            }
        }
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let cs = column_of(expr).and_then(|c| column_stats(scan, c));
            // Histogram path: sum the per-literal equality fractions
            // (end-biased, so a heavy hitter in the list dominates).
            let hist_sum = if use_hist {
                cs.as_ref().and_then(|(cs, rows)| {
                    if cs.histogram.is_empty() {
                        return None;
                    }
                    let mut sum = 0.0;
                    for lit in list {
                        let v = match lit {
                            ScalarExpr::Literal(v) if !v.is_null() => v,
                            _ => return None,
                        };
                        let x = v.as_f64().or_else(|| v.as_i64().map(|x| x as f64))?;
                        sum += cs.histogram.eq_fraction(x)?;
                    }
                    Some(sum * nonnull_fraction(cs, *rows))
                })
            } else {
                None
            };
            let s = match hist_sum {
                Some(s) => s.clamp(0.0, 1.0),
                None => {
                    let per = cs
                        .map(|(cs, _)| 1.0 / cs.ndv_estimate().max(1) as f64)
                        .unwrap_or(SEL_EQ_DEFAULT);
                    (per * list.len() as f64).min(1.0)
                }
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        _ => SEL_RANGE_DEFAULT,
    }
}

fn column_of(e: &ScalarExpr) -> Option<usize> {
    match e {
        ScalarExpr::Column(c) => Some(*c),
        ScalarExpr::Cast { expr, .. } => column_of(expr),
        _ => None,
    }
}

fn column_stats<'a>(
    scan: Option<(&'a TableStats, &[usize])>,
    out_col: usize,
) -> Option<(&'a ColumnStatsMeta, u64)> {
    let (stats, projection) = scan?;
    let table_col = *projection.get(out_col)?;
    let cs = stats.columns.get(table_col)?;
    Some((cs, stats.row_count))
}

/// Fraction of a column's rows that are non-null (histogram fractions
/// are relative to the sampled non-null values, predicate selectivity
/// to all rows).
fn nonnull_fraction(cs: &ColumnStatsMeta, rows: u64) -> f64 {
    if rows == 0 {
        return 1.0;
    }
    (1.0 - cs.null_count as f64 / rows as f64).clamp(0.0, 1.0)
}

fn eq_selectivity(
    left: &ScalarExpr,
    right: &ScalarExpr,
    scan: Option<(&TableStats, &[usize])>,
    use_hist: bool,
) -> f64 {
    for (col_side, other) in [(left, right), (right, left)] {
        if let Some(c) = column_of(col_side) {
            if let ScalarExpr::Literal(v) = other {
                if let Some((cs, rows)) = column_stats(scan, c) {
                    // Histogram path: sample frequency for heavy
                    // hitters, bucket depth / bucket NDV otherwise.
                    if use_hist && !v.is_null() {
                        if let Some(x) = v.as_f64().or_else(|| v.as_i64().map(|x| x as f64)) {
                            if let Some(frac) = cs.histogram.eq_fraction(x) {
                                return (frac * nonnull_fraction(cs, rows)).clamp(0.0, 1.0);
                            }
                        }
                        // No histogram reaches the column (strings, or
                        // all-NULL): equality still only matches
                        // non-null rows.
                        return (nonnull_fraction(cs, rows) / cs.ndv_estimate().max(1) as f64)
                            .clamp(0.0, 1.0);
                    }
                    return 1.0 / cs.ndv_estimate().max(1) as f64;
                }
            }
        }
    }
    SEL_EQ_DEFAULT
}

fn range_selectivity(
    op: &BinaryOp,
    left: &ScalarExpr,
    right: &ScalarExpr,
    scan: Option<(&TableStats, &[usize])>,
    use_hist: bool,
) -> f64 {
    // col op literal with numeric min/max: interpolate.
    let (col, lit, op_dir) = match (column_of(left), right) {
        (Some(c), ScalarExpr::Literal(v)) if !v.is_null() => (c, v, *op),
        _ => match (column_of(right), left) {
            (Some(c), ScalarExpr::Literal(v)) if !v.is_null() => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => *other,
                };
                (c, v, flipped)
            }
            _ => return SEL_RANGE_DEFAULT,
        },
    };
    let Some((cs, rows)) = column_stats(scan, col) else {
        return SEL_RANGE_DEFAULT;
    };
    let lit_f64 = lit.as_f64().or_else(|| lit.as_i64().map(|v| v as f64));
    // Histogram path: bucket interpolation, with the equality share of
    // the bound value split out for strict comparisons.
    if use_hist && !cs.histogram.is_empty() {
        if let Some(x) = lit_f64 {
            let frac = match op_dir {
                BinaryOp::Lt => cs
                    .histogram
                    .range_fraction(None, Some(x))
                    .map(|f| (f - cs.histogram.eq_fraction(x).unwrap_or(0.0)).max(0.0)),
                BinaryOp::LtEq => cs.histogram.range_fraction(None, Some(x)),
                BinaryOp::Gt => cs
                    .histogram
                    .range_fraction(Some(x), None)
                    .map(|f| (f - cs.histogram.eq_fraction(x).unwrap_or(0.0)).max(0.0)),
                BinaryOp::GtEq => cs.histogram.range_fraction(Some(x), None),
                _ => None,
            };
            if let Some(f) = frac {
                return (f * nonnull_fraction(cs, rows)).clamp(0.0, 1.0);
            }
        }
    }
    let (Some(min), Some(max)) = (
        cs.min
            .as_ref()
            .and_then(|v| v.as_f64().or_else(|| v.as_i64().map(|x| x as f64))),
        cs.max
            .as_ref()
            .and_then(|v| v.as_f64().or_else(|| v.as_i64().map(|x| x as f64))),
    ) else {
        return SEL_RANGE_DEFAULT;
    };
    let Some(x) = lit_f64 else {
        return SEL_RANGE_DEFAULT;
    };
    if max <= min {
        return SEL_RANGE_DEFAULT;
    }
    // Discrete-domain correction: with NDV distinct values evenly spaced
    // over [min, max], a strict bound excludes whole value-steps that a
    // continuous interpolation would keep (e.g. `year > 2016` over
    // {2016, 2017, 2018} keeps 2/3, not 100%).
    let ndv = cs.ndv_estimate().max(2) as f64;
    let step = (max - min) / (ndv - 1.0);
    let frac = |span: f64| (span / (max - min + step)).clamp(0.001, 1.0);
    match op_dir {
        BinaryOp::Lt => frac(x - min),
        BinaryOp::LtEq => frac(x - min + step),
        BinaryOp::Gt => frac(max - x),
        BinaryOp::GtEq => frac(max - x + step),
        _ => SEL_RANGE_DEFAULT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Schema};
    use hive_metastore::TableStats;
    use std::collections::HashMap;
    use std::sync::Arc;

    struct FakeStats(HashMap<String, Arc<TableStats>>);

    impl StatsSource for FakeStats {
        fn stats_for(&self, q: &str) -> Arc<TableStats> {
            self.0.get(q).map(Arc::clone).unwrap_or_default()
        }
    }

    fn scan(name: &str, rows: u64) -> (LogicalPlan, FakeStats) {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let plan = LogicalPlan::Scan {
            table: crate::plan::ScanTable {
                qualified_name: format!("default.{name}"),
                db: "default".into(),
                name: name.into(),
                schema,
                partition_cols: vec![],
                handler: None,
                acid: true,
                is_mv: false,
                external_query: None,
                external_source: None,
                row_ids: false,
            },
            projection: vec![0],
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        };
        let mut stats = TableStats::new(1);
        stats.row_count = rows;
        for i in 0..1000.min(rows) {
            stats.columns[0].update(&Value::Int(i as i32));
        }
        let mut m = HashMap::new();
        m.insert(format!("default.{name}"), Arc::new(stats));
        (plan, FakeStats(m))
    }

    #[test]
    fn scan_filter_reduces_estimate() {
        let (plan, src) = scan("t", 100_000);
        assert_eq!(estimate_rows(&plan, &src), 100_000.0);
        let filtered = LogicalPlan::Filter {
            input: Arc::new(plan),
            predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(5))),
        };
        let est = estimate_rows(&filtered, &src);
        assert!(est < 100_000.0 * 0.2, "eq filter must be selective: {est}");
    }

    #[test]
    fn eq_filter_on_scan_uses_ndv() {
        let (plan, src) = scan("t", 100_000);
        if let LogicalPlan::Scan {
            table,
            projection,
            partitions,
            semijoin_filters,
            ..
        } = plan
        {
            let scan_with_filter = LogicalPlan::Scan {
                table,
                projection,
                filters: vec![ScalarExpr::eq(
                    ScalarExpr::Column(0),
                    ScalarExpr::Literal(Value::Int(5)),
                )],
                partitions,
                semijoin_filters,
            };
            let est = estimate_rows(&scan_with_filter, &src);
            // NDV ~1000 → ~100 rows.
            assert!((50.0..200.0).contains(&est), "got {est}");
        }
    }

    #[test]
    fn join_estimates_fk_pk() {
        let (fact, src_f) = scan("fact", 1_000_000);
        let (dim, _) = scan("dim", 1000);
        let mut merged = src_f.0;
        let mut dim_stats = TableStats::new(1);
        dim_stats.row_count = 1000;
        merged.insert("default.dim".into(), Arc::new(dim_stats));
        let src = FakeStats(merged);
        let join = LogicalPlan::Join {
            left: Arc::new(fact),
            right: Arc::new(dim),
            join_type: JoinType::Inner,
            equi: vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
            residual: None,
        };
        let est = estimate_rows(&join, &src);
        // FK-PK join keeps ~|fact| rows.
        assert!((500_000.0..2_000_000.0).contains(&est), "got {est}");
    }

    #[test]
    fn range_selectivity_interpolates() {
        let (plan, src) = scan("t", 100_000);
        if let LogicalPlan::Scan { table, .. } = &plan {
            let stats = src.stats_for(&table.qualified_name);
            // col a in [0, 999]; a > 900 should be ~10%.
            let s = selectivity(
                &ScalarExpr::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(ScalarExpr::Column(0)),
                    right: Box::new(ScalarExpr::Literal(Value::Int(900))),
                },
                Some((&stats, &[0])),
            );
            assert!((0.05..0.2).contains(&s), "got {s}");
        }
    }
}
