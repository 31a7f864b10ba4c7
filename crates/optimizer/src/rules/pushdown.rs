//! Predicate pushdown: move filters toward the scans they constrain,
//! extract equi-join conditions from cross joins (comma joins), and sink
//! residual scan predicates into the `Scan.filters` list where the I/O
//! layer turns them into sargs.

use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::{transform_up, Rewrite, Transformed};
use hive_sql::BinaryOp;
use std::sync::Arc;

/// One pushdown pass (run to fixpoint by the optimizer driver).
pub fn push_down_predicates(plan: &Arc<LogicalPlan>) -> Rewrite {
    transform_up(plan, &mut push_one)
}

/// A Filter of `predicate` over `input`, pushed as far as it goes.
fn pushed(input: &Arc<LogicalPlan>, predicate: ScalarExpr) -> Arc<LogicalPlan> {
    let filter = LogicalPlan::Filter {
        input: input.clone(),
        predicate,
    };
    push_one(Arc::new(filter)).data
}

fn push_one(node: Arc<LogicalPlan>) -> Rewrite {
    let LogicalPlan::Filter { input, predicate } = &*node else {
        return Transformed::no(node);
    };
    let out = match input.as_ref() {
        LogicalPlan::Project {
            input: p_input,
            exprs,
            names,
        } => {
            // Inline projection expressions into the predicate and push
            // below (only when all substituted expressions are
            // deterministic).
            let mut ok = true;
            let substituted = predicate.clone().transform(&mut |e| match e {
                ScalarExpr::Column(c) => {
                    let sub = exprs[c].clone();
                    if !sub.is_deterministic() {
                        ok = false;
                    }
                    sub
                }
                other => other,
            });
            if !ok {
                return Transformed::no(node);
            }
            LogicalPlan::Project {
                input: pushed(p_input, substituted),
                exprs: exprs.clone(),
                names: names.clone(),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
        } => {
            let left_len = left.schema().len();
            let mut to_left: Vec<ScalarExpr> = Vec::new();
            let mut to_right: Vec<ScalarExpr> = Vec::new();
            let mut new_equi = equi.clone();
            let mut keep: Vec<ScalarExpr> = Vec::new();
            let can_push_left = matches!(
                join_type,
                JoinType::Inner
                    | JoinType::Cross
                    | JoinType::Left
                    | JoinType::Semi
                    | JoinType::Anti
            );
            let can_push_right = matches!(
                join_type,
                JoinType::Inner | JoinType::Cross | JoinType::Right
            );
            let can_extract_equi = matches!(join_type, JoinType::Inner | JoinType::Cross);
            for part in predicate.split_conjunction() {
                let cols = part.columns();
                let all_left = cols.iter().all(|&c| c < left_len);
                let all_right = cols.iter().all(|&c| c >= left_len);
                if all_left && !cols.is_empty() && can_push_left {
                    to_left.push(part.clone());
                } else if all_right && !cols.is_empty() && can_push_right {
                    to_right.push(
                        part.clone()
                            .remap_columns(&|c| Some(c - left_len))
                            .expect("all right"),
                    );
                } else if can_extract_equi {
                    // Equi-condition extraction: left_expr = right_expr.
                    if let ScalarExpr::Binary {
                        op: BinaryOp::Eq,
                        left: l,
                        right: r,
                    } = part
                    {
                        let lc = l.columns();
                        let rc = r.columns();
                        let l_left = !lc.is_empty() && lc.iter().all(|&c| c < left_len);
                        let l_right = !lc.is_empty() && lc.iter().all(|&c| c >= left_len);
                        let r_left = !rc.is_empty() && rc.iter().all(|&c| c < left_len);
                        let r_right = !rc.is_empty() && rc.iter().all(|&c| c >= left_len);
                        if l_left && r_right {
                            new_equi.push((
                                (**l).clone(),
                                (**r)
                                    .clone()
                                    .remap_columns(&|c| Some(c - left_len))
                                    .expect("right side"),
                            ));
                            continue;
                        }
                        if l_right && r_left {
                            new_equi.push((
                                (**r).clone(),
                                (**l)
                                    .clone()
                                    .remap_columns(&|c| Some(c - left_len))
                                    .expect("right side"),
                            ));
                            continue;
                        }
                    }
                    keep.push(part.clone());
                } else {
                    keep.push(part.clone());
                }
            }
            // Cross joins that gained equi conditions become inner.
            let new_type = if *join_type == JoinType::Cross && !new_equi.is_empty() {
                JoinType::Inner
            } else {
                *join_type
            };
            let kept = ScalarExpr::conjunction(keep);
            if to_left.is_empty()
                && to_right.is_empty()
                && new_equi.len() == equi.len()
                && new_type == *join_type
                && kept.as_ref() == Some(predicate)
            {
                return Transformed::no(node);
            }
            let new_left = match ScalarExpr::conjunction(to_left) {
                Some(p) => pushed(left, p),
                None => left.clone(),
            };
            let new_right = match ScalarExpr::conjunction(to_right) {
                Some(p) => pushed(right, p),
                None => right.clone(),
            };
            let join = LogicalPlan::Join {
                left: new_left,
                right: new_right,
                join_type: new_type,
                equi: new_equi,
                residual: residual.clone(),
            };
            match kept {
                Some(p) => LogicalPlan::Filter {
                    input: Arc::new(join),
                    predicate: p,
                },
                None => join,
            }
        }
        LogicalPlan::Aggregate {
            input: a_input,
            group_exprs,
            grouping_sets,
            aggs,
        } => {
            // Push conjuncts that reference only plain group-key columns
            // (disabled under grouping sets: filters over partially
            // grouped output are not equivalent below the aggregate).
            if grouping_sets.is_some() {
                return Transformed::no(node);
            }
            let mut below: Vec<ScalarExpr> = Vec::new();
            let mut keep: Vec<ScalarExpr> = Vec::new();
            for part in predicate.split_conjunction() {
                let cols = part.columns();
                let only_keys = cols.iter().all(|&c| c < group_exprs.len());
                if only_keys && !cols.is_empty() {
                    // Rewrite over aggregate input by substituting the
                    // group expressions.
                    let rewritten = part.clone().transform(&mut |e| match e {
                        ScalarExpr::Column(c) if c < group_exprs.len() => group_exprs[c].clone(),
                        other => other,
                    });
                    below.push(rewritten);
                } else {
                    keep.push(part.clone());
                }
            }
            let Some(below) = ScalarExpr::conjunction(below) else {
                return Transformed::no(node);
            };
            let aggregate = LogicalPlan::Aggregate {
                input: pushed(a_input, below),
                group_exprs: group_exprs.clone(),
                grouping_sets: grouping_sets.clone(),
                aggs: aggs.clone(),
            };
            match ScalarExpr::conjunction(keep) {
                Some(p) => LogicalPlan::Filter {
                    input: Arc::new(aggregate),
                    predicate: p,
                },
                None => aggregate,
            }
        }
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            inputs: inputs
                .iter()
                .map(|i| pushed(i, predicate.clone()))
                .collect(),
        },
        LogicalPlan::Sort {
            input: s_input,
            keys,
        } => LogicalPlan::Sort {
            input: pushed(s_input, predicate.clone()),
            keys: keys.clone(),
        },
        LogicalPlan::Filter {
            input: f_input,
            predicate: p2,
        } => {
            let both = ScalarExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(predicate.clone()),
                right: Box::new(p2.clone()),
            };
            return Transformed::yes(pushed(f_input, both));
        }
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            partitions,
            semijoin_filters,
        } => {
            // Sink deterministic predicates into the scan.
            let mut new_filters = filters.clone();
            let mut keep: Vec<ScalarExpr> = Vec::new();
            for part in predicate.split_conjunction() {
                if part.is_deterministic() {
                    new_filters.push(part.clone());
                } else {
                    keep.push(part.clone());
                }
            }
            let kept = ScalarExpr::conjunction(keep);
            if new_filters.len() == filters.len() && kept.as_ref() == Some(predicate) {
                return Transformed::no(node);
            }
            let scan = LogicalPlan::Scan {
                table: table.clone(),
                projection: projection.clone(),
                filters: new_filters,
                partitions: partitions.clone(),
                semijoin_filters: semijoin_filters.clone(),
            };
            match kept {
                Some(p) => LogicalPlan::Filter {
                    input: Arc::new(scan),
                    predicate: p,
                },
                None => scan,
            }
        }
        _ => return Transformed::no(node),
    };
    Transformed::yes(Arc::new(out))
}
