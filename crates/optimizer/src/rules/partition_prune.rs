//! Static partition pruning (§3.1: "Hive will be able to skip scanning
//! full partitions easily for queries that filter on those values").
//!
//! For every scan of a partitioned table whose pushed filters constrain
//! the partition columns, evaluate those filter conjuncts against each
//! registered partition's values and record the surviving directory
//! list on the scan.

use crate::eval::eval_scalar;
use crate::expr::ScalarExpr;
use crate::plan::LogicalPlan;
use crate::rules::{transform_up, Transformed};
use hive_common::{Result, Value};
use hive_metastore::Metastore;
use std::sync::Arc;

/// Apply static partition pruning using the catalog's partition lists.
pub fn prune_partitions(plan: &Arc<LogicalPlan>, ms: &Metastore) -> Result<Arc<LogicalPlan>> {
    let mut err: Option<hive_common::HiveError> = None;
    let out = transform_up(plan, &mut |node| match prune_scan(&node, ms) {
        Ok(None) => Transformed::no(node),
        Ok(Some(p)) => Transformed::yes(Arc::new(p)),
        Err(e) => {
            err = Some(e);
            Transformed::no(node)
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out.data),
    }
}

/// The scan with its surviving partitions recorded, `None` when it is
/// not a partitioned scan this rule can prune.
fn prune_scan(node: &LogicalPlan, ms: &Metastore) -> Result<Option<LogicalPlan>> {
    let LogicalPlan::Scan {
        table,
        projection,
        filters,
        partitions: None,
        semijoin_filters,
    } = node
    else {
        return Ok(None);
    };
    // Output-column index of each partition column, when projected.
    let part_out_cols: Vec<(usize, usize)> = table
        .partition_cols
        .iter()
        .enumerate()
        .filter_map(|(k, &schema_col)| {
            projection
                .iter()
                .position(|&p| p == schema_col)
                .map(|out| (out, k))
        })
        .collect();
    if part_out_cols.is_empty() {
        return Ok(None);
    }
    // Filter conjuncts that reference only partition columns.
    let part_conjuncts: Vec<&ScalarExpr> = filters
        .iter()
        .flat_map(|f| f.split_conjunction())
        .filter(|c| {
            let cols = c.columns();
            !cols.is_empty()
                && cols
                    .iter()
                    .all(|col| part_out_cols.iter().any(|(out, _)| out == col))
        })
        .collect();
    if part_conjuncts.is_empty() {
        return Ok(None);
    }
    // Evaluate each conjunct per partition: build a pseudo-row where the
    // partition columns carry the partition's values.
    let cat_table = ms.get_table(&table.db, &table.name)?;
    let row_width = projection.len();
    let mut selected: Vec<String> = Vec::new();
    for (dir, info) in &cat_table.partitions {
        let mut row = vec![Value::Null; row_width];
        for &(out, k) in &part_out_cols {
            row[out] = info.values.get(k).cloned().unwrap_or(Value::Null);
        }
        let keep = part_conjuncts
            .iter()
            .all(|c| matches!(eval_scalar(c, &row), Ok(Value::Boolean(true))));
        if keep {
            selected.push(dir.clone());
        }
    }
    Ok(Some(LogicalPlan::Scan {
        table: table.clone(),
        projection: projection.clone(),
        filters: filters.clone(),
        partitions: Some(selected),
        semijoin_filters: semijoin_filters.clone(),
    }))
}
