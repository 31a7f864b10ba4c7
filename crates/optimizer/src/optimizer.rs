//! The multi-stage optimization driver (§4.1): an exhaustive rewrite
//! stage run to fixpoint, followed by cost-based stages.

use crate::mv_rewrite;
use crate::plan::LogicalPlan;
use crate::rules::{folding, join_reorder, partition_prune, pruning, pushdown, semijoin};
use crate::stats::{Estimator, GatedStats, StatsSource};
use hive_common::{HiveConf, Result};
use hive_metastore::Metastore;
use std::collections::HashMap;

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
        let mut plan = plan;

        // Stage 1 — exhaustive rewriting to fixpoint.
        plan = Self::exhaustive(plan)?;

        // Stage 2 — materialized-view rewriting (cost-based: the
        // rewriter only substitutes when the estimate improves).
        if ctx.conf.mv_rewriting && !ctx.usable_views.is_empty() {
            if let Some(rewritten) = mv_rewrite::try_rewrite(&plan, &ctx.usable_views, stats)? {
                plan = Self::exhaustive(rewritten)?;
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

        // Stage 3 — cost-based join reordering.
        if ctx.conf.cbo_enabled {
            plan = join_reorder::reorder_joins(&plan, &mut est)?;
            plan = Self::exhaustive(plan)?;
        }

        // Stage 4 — static partition pruning (after pushdown settled).
        plan = partition_prune::prune_partitions(&plan, ctx.metastore)?;

        // Stage 5 — projection pruning (drives columnar projection
        // pushdown).
        plan = pruning::prune_columns(&plan, ctx.metastore)?;
        plan = folding::remove_trivial_projects(&plan);

        // Stage 6 — dynamic semijoin reduction planning.
        if ctx.conf.semijoin_reduction {
            plan = semijoin::plan_semijoin_reduction(&plan, &mut est);
        }

        debug_assert!(plan.check().is_ok(), "optimized plan fails type check");
        Ok(plan)
    }

    /// The exhaustive stage: folding, filter merging, pushdown, project
    /// merging, empty pruning — iterated until the plan stops changing.
    pub fn exhaustive(mut plan: LogicalPlan) -> Result<LogicalPlan> {
        for _ in 0..10 {
            let before = crate::fingerprint::fingerprint(&plan);
            plan = folding::fold_constants(&plan);
            plan = folding::merge_filters(&plan);
            plan = pushdown::push_down_predicates(&plan);
            plan = folding::merge_projects(&plan);
            plan = folding::remove_trivial_projects(&plan);
            plan = folding::prune_empty(&plan);
            if crate::fingerprint::fingerprint(&plan) == before {
                break;
            }
        }
        Ok(plan)
    }
}
