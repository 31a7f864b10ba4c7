//! The multi-stage optimization driver (§4.1): an exhaustive rewrite
//! stage run until no rule fires, followed by cost-based stages.

use crate::fingerprint::fingerprint;
use crate::mv_rewrite;
use crate::plan::LogicalPlan;
use crate::rules::{
    folding, join_reorder, partition_prune, pruning, pushdown, semijoin, Rewrite, Transformed,
};
use crate::stats::{Estimator, GatedStats, StatsSource};
use hive_common::{HiveConf, Result};
use hive_metastore::Metastore;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the optimizer needs from its environment.
pub struct OptimizerContext<'a> {
    /// Metastore (statistics, partitions, MV registry).
    pub metastore: &'a Metastore,
    /// Engine configuration (feature switches).
    pub conf: &'a HiveConf,
    /// Materialized views eligible for rewriting *under the current
    /// snapshot* (fresh, or within their staleness window). The driver
    /// computes this (it owns snapshot state).
    pub usable_views: Vec<mv_rewrite::UsableView>,
    /// Observed join cardinalities keyed by
    /// [`crate::stats::join_feedback_key`] — runtime feedback from the
    /// persisted runtime-stats store or a mid-query misestimate trip
    /// (§4.2). Substituted for the estimate of any join over the same
    /// table set.
    pub feedback: HashMap<String, u64>,
}

/// The optimizer.
pub struct Optimizer;

impl Optimizer {
    /// Optimize an analyzed plan.
    pub fn optimize(plan: LogicalPlan, ctx: &OptimizerContext) -> Result<LogicalPlan> {
        Self::optimize_with_stats(plan, ctx, ctx.metastore)
    }

    /// [`Optimizer::optimize`] with the statistics read from `stats`
    /// instead of `ctx.metastore` — the seam a test uses to count or
    /// fake what the cost-based stages ask for.
    pub fn optimize_with_stats(
        plan: LogicalPlan,
        ctx: &OptimizerContext,
        stats: &dyn StatsSource,
    ) -> Result<LogicalPlan> {
        // Stage 1 — exhaustive rewriting to fixpoint.
        let mut plan = Self::exhaustive(&Arc::new(plan)).data;

        // Stage 2 — materialized-view rewriting (cost-based: the
        // rewriter only substitutes when the estimate improves).
        if ctx.conf.mv_rewriting && !ctx.usable_views.is_empty() {
            if let Some(rewritten) = mv_rewrite::try_rewrite(&plan, &ctx.usable_views, stats)? {
                plan = Self::exhaustive(&rewritten).data;
            }
        }

        // Cost-based stages see the metastore through a gate: the gate
        // decides whether histogram/feedback-driven estimation is live,
        // so the rules themselves never read configuration. They share
        // one estimator: each table's statistics snapshot is fetched
        // once and each plan node estimated once for the whole pass.
        let gated = GatedStats {
            inner: stats,
            use_histograms: ctx.conf.effective_histograms_enabled(),
            feedback: ctx.feedback.clone(),
        };
        let mut est = Estimator::new(&gated);

        // Stage 3 — cost-based join reordering; the exhaustive stage
        // runs again only on a plan it changed.
        if ctx.conf.cbo_enabled {
            let reordered = join_reorder::reorder_joins(&plan, &mut est)?;
            plan = if reordered.transformed {
                Self::exhaustive(&reordered.data).data
            } else {
                reordered.data
            };
        }

        // Stage 4 — static partition pruning (after pushdown settled).
        plan = partition_prune::prune_partitions(&plan, ctx.metastore)?;

        // Stage 5 — projection pruning (drives columnar projection
        // pushdown).
        plan = Arc::new(pruning::prune_columns(&plan, ctx.metastore)?);
        plan = folding::remove_trivial_projects(&plan).data;

        // Stage 6 — dynamic semijoin reduction planning.
        if ctx.conf.semijoin_reduction {
            plan = semijoin::plan_semijoin_reduction(&plan, &mut est);
        }

        debug_assert!(plan.check().is_ok(), "optimized plan fails type check");
        Ok(Arc::unwrap_or_clone(plan))
    }

    /// The exhaustive stage: folding, filter merging, pushdown, project
    /// merging, trivial-project removal and empty pruning, in passes
    /// until a pass changes nothing (at most ten). Changed when any pass
    /// changed the plan; a settled plan comes back as the same `Arc`.
    pub fn exhaustive(plan: &Arc<LogicalPlan>) -> Rewrite {
        let rules: [fn(&Arc<LogicalPlan>) -> Rewrite; 6] = [
            folding::fold_constants,
            folding::merge_filters,
            pushdown::push_down_predicates,
            folding::merge_projects,
            folding::remove_trivial_projects,
            folding::prune_empty,
        ];
        let mut out = Transformed::no(plan.clone());
        for _ in 0..10 {
            let before = cfg!(debug_assertions).then(|| fingerprint(&out.data));
            let mut changed = false;
            for rule in rules {
                let t = rule(&out.data);
                changed |= t.transformed;
                out.data = t.data;
            }
            if !changed {
                debug_assert_eq!(
                    before,
                    Some(fingerprint(&out.data)),
                    "a pass that reported no change changed the plan"
                );
                break;
            }
            out.transformed = true;
        }
        out
    }
}
