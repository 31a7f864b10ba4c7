//! Stable plan fingerprints.
//!
//! Used by the shared-work optimizer (§4.5) to detect identical
//! subplans within one query, by the results cache (§4.3) as part of its
//! key, and by re-optimization (§4.2) to index persisted runtime stats.

use crate::plan::LogicalPlan;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A 64-bit structural fingerprint of a plan.
pub fn fingerprint(plan: &LogicalPlan) -> u64 {
    let mut h = DefaultHasher::new();
    hash_plan(plan, &mut h);
    h.finish()
}

/// Hex form used in diagnostics and as map keys.
pub fn fingerprint_hex(plan: &LogicalPlan) -> String {
    format!("{:016x}", fingerprint(plan))
}

fn hash_plan(plan: &LogicalPlan, h: &mut DefaultHasher) {
    // Debug rendering is stable for our fixed enum shapes and keeps this
    // honest as the plan grows; node-kind discriminants are mixed in to
    // cheaply disambiguate.
    std::mem::discriminant(plan).hash(h);
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            partitions,
            semijoin_filters,
        } => {
            table.qualified_name.hash(h);
            table.handler.hash(h);
            // Pushed external queries distinguish otherwise-identical
            // scans (the results cache and shared work key on this).
            table.external_query.hash(h);
            // Only mixed in when set, so read plans hash as they always
            // have (runtime-stats and results-cache keys are unchanged).
            if table.row_ids {
                "row_ids".hash(h);
            }
            projection.hash(h);
            for f in filters {
                format!("{f}").hash(h);
            }
            partitions.hash(h);
            semijoin_filters.len().hash(h);
            for s in semijoin_filters {
                s.source_key.hash(h);
                s.target_col.hash(h);
                hash_plan(&s.source, h);
            }
        }
        LogicalPlan::Values { rows, .. } => {
            rows.len().hash(h);
            format!("{rows:?}").hash(h);
        }
        LogicalPlan::Filter { predicate, .. } => format!("{predicate}").hash(h),
        LogicalPlan::Project { exprs, names, .. } => {
            for e in exprs {
                format!("{e}").hash(h);
            }
            names.hash(h);
        }
        LogicalPlan::Join {
            join_type,
            equi,
            residual,
            ..
        } => {
            format!("{join_type:?}").hash(h);
            for (l, r) in equi {
                format!("{l}={r}").hash(h);
            }
            if let Some(r) = residual {
                format!("{r}").hash(h);
            }
        }
        LogicalPlan::Aggregate {
            group_exprs,
            grouping_sets,
            aggs,
            ..
        } => {
            for g in group_exprs {
                format!("{g}").hash(h);
            }
            grouping_sets.hash(h);
            for a in aggs {
                format!("{a}").hash(h);
            }
        }
        LogicalPlan::Window { windows, .. } => {
            format!("{windows:?}").hash(h);
        }
        LogicalPlan::Sort { keys, .. } => {
            for k in keys {
                format!("{} {} {}", k.expr, k.asc, k.nulls_first).hash(h);
            }
        }
        LogicalPlan::Limit { n, .. } => n.hash(h),
        LogicalPlan::Union { .. } => "union".hash(h),
        LogicalPlan::SetOp { op, all, .. } => {
            format!("{op:?}{all}").hash(h);
        }
    }
    for c in plan.children() {
        hash_plan(c, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::plan::ScanTable;
    use hive_common::{DataType, Field, Schema, Value};
    use std::sync::Arc;

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: ScanTable {
                qualified_name: format!("default.{name}"),
                db: "default".into(),
                name: name.into(),
                schema: Schema::new(vec![Field::new("a", DataType::Int)]),
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
        }
    }

    #[test]
    fn identical_plans_share_fingerprints() {
        let a = LogicalPlan::Filter {
            input: Arc::new(scan("t")),
            predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1))),
        };
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_plans_differ() {
        let a = scan("t");
        let b = scan("u");
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let fa = LogicalPlan::Filter {
            input: Arc::new(a.clone()),
            predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1))),
        };
        let fb = LogicalPlan::Filter {
            input: Arc::new(a),
            predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(2))),
        };
        assert_ne!(fingerprint(&fa), fingerprint(&fb));
    }

    #[test]
    fn hex_is_stable_within_process() {
        let p = scan("t");
        assert_eq!(fingerprint_hex(&p), fingerprint_hex(&p));
        assert_eq!(fingerprint_hex(&p).len(), 16);
    }
}
