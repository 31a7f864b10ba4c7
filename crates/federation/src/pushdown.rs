//! Federation pushdown rules — the Calcite role from §6.2: "the
//! optimizer applies rules that match a sequence of operators in the
//! plan and generate a new equivalent sequence with more operations
//! executed in Druid", attaching the generated query to the scan.

use crate::druid::{DruidAgg, DruidFilter, DruidQuery};
use crate::sqlgen;
use hive_common::{dates, DataType, Field, Schema, Value};
use hive_optimizer::plan::{LogicalPlan, ScanTable};
use hive_optimizer::rules::{transform_up, Rewrite, Transformed};
use hive_optimizer::{AggFunc, ScalarExpr};
use hive_sql::BinaryOp;
use std::sync::Arc;

/// Apply every federation pushdown rule to the plan.
pub fn push_to_external(plan: &LogicalPlan) -> LogicalPlan {
    let mut plan = Arc::new(plan.clone());
    for mut rule in [push_druid_aggregate, push_druid_limit, push_external_scan] {
        plan = transform_up(&plan, &mut rule).data;
    }
    Arc::unwrap_or_clone(plan)
}

/// Rule 1b: `Limit(Sort(Scan(druid groupBy)))` → fold the ordering and
/// limit into the pushed query's `limitSpec` (Figure 6's
/// `ORDER BY s DESC LIMIT 10`). The local Sort/Limit stay in the plan
/// (they are idempotent) but Druid now truncates before transfer.
fn push_druid_limit(node: Arc<LogicalPlan>) -> Rewrite {
    let LogicalPlan::Limit { input, n } = &*node else {
        return Transformed::no(node);
    };
    let LogicalPlan::Sort {
        input: sort_input,
        keys,
    } = input.as_ref()
    else {
        return Transformed::no(node);
    };
    // Allow a pass-through projection between Sort and Scan.
    let (scan, mapping): (&LogicalPlan, Option<Vec<usize>>) = match sort_input.as_ref() {
        LogicalPlan::Project { input, exprs, .. } => {
            let cols: Option<Vec<usize>> = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(c) => Some(*c),
                    _ => None,
                })
                .collect();
            match (input.as_ref(), cols) {
                (s @ LogicalPlan::Scan { .. }, Some(m)) => (s, Some(m)),
                _ => return Transformed::no(node),
            }
        }
        s @ LogicalPlan::Scan { .. } => (s, None),
        _ => return Transformed::no(node),
    };
    let LogicalPlan::Scan {
        table,
        projection,
        filters,
        partitions,
        semijoin_filters,
    } = scan
    else {
        return Transformed::no(node);
    };
    let Some(json) = &table.external_query else {
        return Transformed::no(node);
    };
    if table.handler.as_deref() != Some("druid") {
        return Transformed::no(node);
    }
    let Ok(mut q) = DruidQuery::parse(json) else {
        return Transformed::no(node);
    };
    if q.limit_spec.is_some() {
        return Transformed::no(node);
    }
    // Sort keys must be plain columns of the pushed query's output.
    let mut columns: Vec<(String, bool)> = Vec::new();
    for k in keys {
        let ScalarExpr::Column(c) = &k.expr else {
            return Transformed::no(node);
        };
        let scan_out = match &mapping {
            Some(m) => match m.get(*c) {
                Some(&mc) => mc,
                None => return Transformed::no(node),
            },
            None => *c,
        };
        // The scan's own projection indexes into table.schema, whose
        // layout for a pushed groupBy is dims then agg names.
        let scan_out = match projection.get(scan_out) {
            Some(&i) => i,
            None => return Transformed::no(node),
        };
        let name = if scan_out < q.dimensions.len() {
            q.dimensions[scan_out].clone()
        } else {
            match q.aggregations.get(scan_out - q.dimensions.len()) {
                Some(a) => a.name().to_string(),
                None => return Transformed::no(node),
            }
        };
        columns.push((name, !k.asc));
    }
    q.limit_spec = Some(crate::druid::query::LimitSpec {
        limit: *n as usize,
        columns,
    });
    let new_scan = LogicalPlan::Scan {
        table: ScanTable {
            external_query: Some(q.to_json().to_string()),
            ..table.clone()
        },
        projection: projection.clone(),
        filters: filters.clone(),
        partitions: partitions.clone(),
        semijoin_filters: semijoin_filters.clone(),
    };
    let new_sort_input: LogicalPlan = match sort_input.as_ref() {
        LogicalPlan::Project { exprs, names, .. } => LogicalPlan::Project {
            input: Arc::new(new_scan),
            exprs: exprs.clone(),
            names: names.clone(),
        },
        _ => new_scan,
    };
    Transformed::yes(Arc::new(LogicalPlan::Limit {
        input: Arc::new(LogicalPlan::Sort {
            input: Arc::new(new_sort_input),
            keys: keys.clone(),
        }),
        n: *n,
    }))
}

/// Rule 1: `Aggregate(Filter?(Scan(druid)))` → a Druid groupBy query.
fn push_druid_aggregate(node: Arc<LogicalPlan>) -> Rewrite {
    let LogicalPlan::Aggregate {
        input,
        group_exprs,
        grouping_sets,
        aggs,
    } = &*node
    else {
        return Transformed::no(node);
    };
    if grouping_sets.is_some() {
        return Transformed::no(node);
    }
    // Peel Filters and pass-through (column-only) Projects down to the
    // scan — projection pruning routinely inserts both. Expressions at
    // the aggregate level are remapped into scan-output coordinates, and
    // filter predicates found part-way down are remapped through the
    // remaining projections.
    let mut cursor: &LogicalPlan = input.as_ref();
    let mut mappings: Vec<Vec<usize>> = Vec::new();
    let mut pending_filters: Vec<(usize, ScalarExpr)> = Vec::new(); // (depth, pred)
    let scan = loop {
        match cursor {
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Option<Vec<usize>> = exprs
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Column(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                match cols {
                    Some(m) => {
                        mappings.push(m);
                        cursor = input.as_ref();
                    }
                    None => return Transformed::no(node),
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                pending_filters.push((mappings.len(), predicate.clone()));
                cursor = input.as_ref();
            }
            s @ LogicalPlan::Scan { .. } => break s,
            _ => return Transformed::no(node),
        }
    };
    let LogicalPlan::Scan {
        table,
        projection,
        filters,
        ..
    } = scan
    else {
        return Transformed::no(node);
    };
    if table.handler.as_deref() != Some("druid") || table.external_query.is_some() {
        return Transformed::no(node);
    }
    // Compose an expression from coordinate depth `from` down to scan
    // output coordinates.
    let to_scan_coords = |e: &ScalarExpr, from: usize| -> Option<ScalarExpr> {
        let mut out = e.clone();
        for m in &mappings[from..] {
            out = out.remap_columns(&|c| m.get(c).copied()).ok()?;
        }
        Some(out)
    };
    let extra_filter: Option<ScalarExpr> = {
        let mut parts: Vec<ScalarExpr> = Vec::new();
        for (depth, pred) in &pending_filters {
            match to_scan_coords(pred, *depth) {
                Some(p) => parts.push(p),
                None => return Transformed::no(node),
            }
        }
        ScalarExpr::conjunction(parts)
    };
    let extra_filter = extra_filter.as_ref();

    // Group keys must be plain scan columns naming string dimensions.
    let mut dims: Vec<String> = Vec::new();
    for g in group_exprs {
        let Some(ScalarExpr::Column(c)) = to_scan_coords(g, 0) else {
            return Transformed::no(node);
        };
        let Some(&sc) = projection.get(c) else {
            return Transformed::no(node);
        };
        let f = table.schema.field(sc);
        if f.data_type != DataType::String {
            return Transformed::no(node);
        }
        dims.push(f.name.clone());
    }

    // Aggregates over numeric metric columns (or COUNT(*)).
    let mut druid_aggs: Vec<DruidAgg> = Vec::new();
    for (i, a) in aggs.iter().enumerate() {
        if a.distinct {
            return Transformed::no(node);
        }
        let name = format!("_a{i}");
        let metric_of = |e: &Option<ScalarExpr>| -> Option<String> {
            match e.as_ref().and_then(|e| to_scan_coords(e, 0)) {
                Some(ScalarExpr::Column(c)) => {
                    let sc = *projection.get(c)?;
                    let f = table.schema.field(sc);
                    f.data_type.is_numeric().then(|| f.name.clone())
                }
                _ => None,
            }
        };
        let agg = match a.func {
            AggFunc::Count if a.arg.is_none() => DruidAgg::Count { name },
            AggFunc::Sum => match metric_of(&a.arg) {
                Some(field) => DruidAgg::DoubleSum { name, field },
                None => return Transformed::no(node),
            },
            AggFunc::Min => match metric_of(&a.arg) {
                Some(field) => DruidAgg::DoubleMin { name, field },
                None => return Transformed::no(node),
            },
            AggFunc::Max => match metric_of(&a.arg) {
                Some(field) => DruidAgg::DoubleMax { name, field },
                None => return Transformed::no(node),
            },
            _ => return Transformed::no(node),
        };
        druid_aggs.push(agg);
    }

    // Filters: every conjunct must convert.
    let mut druid_filters: Vec<DruidFilter> = Vec::new();
    let mut intervals: Vec<(i64, i64)> = Vec::new();
    let mut conjuncts: Vec<&ScalarExpr> = Vec::new();
    for f in filters {
        conjuncts.extend(f.split_conjunction());
    }
    if let Some(p) = extra_filter {
        conjuncts.extend(p.split_conjunction());
    }
    for c in conjuncts {
        match convert_conjunct(c, table, projection) {
            Some(Converted::Filter(df)) => druid_filters.push(df),
            Some(Converted::Interval(a, b)) => intervals.push((a, b)),
            None => return Transformed::no(node),
        }
    }

    // Build the query and the replacement scan. Conjunct-derived
    // intervals intersect into one.
    let source = table
        .external_source
        .clone()
        .unwrap_or_else(|| table.name.clone());
    let mut q = DruidQuery::group_by(&source);
    q.dimensions = dims.clone();
    q.aggregations = druid_aggs;
    q.intervals = if intervals.is_empty() {
        vec![]
    } else {
        let start = intervals.iter().map(|(a, _)| *a).max().unwrap();
        let end = intervals.iter().map(|(_, b)| *b).min().unwrap();
        vec![(start, end.max(start))]
    };
    q.filter = match druid_filters.len() {
        0 => None,
        1 => Some(druid_filters.remove(0)),
        _ => Some(DruidFilter::And(druid_filters)),
    };
    // Output schema: dims then agg outputs, matching the Aggregate node.
    let agg_schema = node.schema();
    let out_schema = Schema::new(
        agg_schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if i < dims.len() {
                    Field::new(dims[i].clone(), DataType::String)
                } else {
                    f.clone()
                }
            })
            .collect(),
    );
    // Druid answers SUM/MIN/MAX as Double and COUNT as BigInt; the
    // Aggregate schema already matches for Druid's numeric metrics.
    Transformed::yes(Arc::new(LogicalPlan::Scan {
        table: ScanTable {
            qualified_name: table.qualified_name.clone(),
            db: table.db.clone(),
            name: table.name.clone(),
            schema: out_schema.clone(),
            partition_cols: vec![],
            handler: Some("druid".into()),
            acid: false,
            is_mv: table.is_mv,
            external_query: Some(q.to_json().to_string()),
            external_source: table.external_source.clone(),
            row_ids: false,
        },
        projection: (0..out_schema.len()).collect(),
        filters: vec![],
        partitions: None,
        semijoin_filters: vec![],
    }))
}

enum Converted {
    Filter(DruidFilter),
    Interval(i64, i64),
}

/// Convert one conjunct over the scan output into a Druid filter or a
/// time interval. `None` = unconvertible (abort the rewrite).
fn convert_conjunct(e: &ScalarExpr, table: &ScanTable, projection: &[usize]) -> Option<Converted> {
    let field_of =
        |c: usize| -> Option<&Field> { projection.get(c).map(|&sc| table.schema.field(sc)) };
    match e {
        // EXTRACT(year FROM __time) cmp literal → interval (Figure 6).
        ScalarExpr::Binary { op, left, right } => {
            if let (
                ScalarExpr::Extract {
                    field: dates::DateField::Year,
                    expr,
                },
                ScalarExpr::Literal(v),
            ) = (left.as_ref(), right.as_ref())
            {
                if let ScalarExpr::Column(c) = expr.as_ref() {
                    let f = field_of(*c)?;
                    if f.data_type == DataType::Timestamp {
                        let year = v.as_i64()? as i32;
                        return year_interval(*op, year).map(|(a, b)| Converted::Interval(a, b));
                    }
                }
            }
            // dim cmp string literal.
            if let (ScalarExpr::Column(c), ScalarExpr::Literal(v)) = (left.as_ref(), right.as_ref())
            {
                let f = field_of(*c)?;
                match (&f.data_type, v) {
                    (DataType::String, Value::String(s)) => {
                        return match op {
                            BinaryOp::Eq => Some(Converted::Filter(DruidFilter::Selector {
                                dimension: f.name.clone(),
                                value: s.clone(),
                            })),
                            BinaryOp::Lt | BinaryOp::LtEq => {
                                Some(Converted::Filter(DruidFilter::Bound {
                                    dimension: f.name.clone(),
                                    lower: None,
                                    upper: Some(s.clone()),
                                    numeric: false,
                                }))
                            }
                            BinaryOp::Gt | BinaryOp::GtEq => {
                                Some(Converted::Filter(DruidFilter::Bound {
                                    dimension: f.name.clone(),
                                    lower: Some(s.clone()),
                                    upper: None,
                                    numeric: false,
                                }))
                            }
                            _ => None,
                        };
                    }
                    (DataType::Timestamp, Value::Timestamp(t)) => {
                        let ms = t / 1000;
                        return match op {
                            BinaryOp::GtEq => Some(Converted::Interval(ms, time_max_ms())),
                            BinaryOp::Lt => Some(Converted::Interval(time_min_ms(), ms)),
                            _ => None,
                        };
                    }
                    _ => return None,
                }
            }
            None
        }
        ScalarExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let ScalarExpr::Column(c) = expr.as_ref() {
                let f = field_of(*c)?;
                if f.data_type == DataType::String {
                    let values: Option<Vec<String>> = list
                        .iter()
                        .map(|i| match i {
                            ScalarExpr::Literal(Value::String(s)) => Some(s.clone()),
                            _ => None,
                        })
                        .collect();
                    return Some(Converted::Filter(DruidFilter::In {
                        dimension: f.name.clone(),
                        values: values?,
                    }));
                }
            }
            None
        }
        _ => None,
    }
}

/// Open-ended interval sentinels, kept within ISO-renderable dates.
fn time_min_ms() -> i64 {
    dates::civil_to_days(1, 1, 1) as i64 * 86_400_000
}
fn time_max_ms() -> i64 {
    dates::civil_to_days(9999, 1, 1) as i64 * 86_400_000
}

/// `EXTRACT(year) op literal` → millisecond interval.
fn year_interval(op: BinaryOp, year: i32) -> Option<(i64, i64)> {
    let start_of = |y: i32| dates::civil_to_days(y, 1, 1) as i64 * 86_400_000;
    match op {
        BinaryOp::Eq => Some((start_of(year), start_of(year + 1))),
        BinaryOp::Gt => Some((start_of(year + 1), time_max_ms())),
        BinaryOp::GtEq => Some((start_of(year), time_max_ms())),
        BinaryOp::Lt => Some((time_min_ms(), start_of(year))),
        BinaryOp::LtEq => Some((time_min_ms(), start_of(year + 1))),
        _ => None,
    }
}

/// Rule 2: push filters+projection of a plain external scan as generated
/// SQL for JDBC handlers (Druid raw scans export as-is; the handler
/// does its own scan-query conversion).
fn push_external_scan(node: Arc<LogicalPlan>) -> Rewrite {
    let LogicalPlan::Scan {
        table,
        projection,
        filters,
        partitions,
        semijoin_filters,
    } = &*node
    else {
        return Transformed::no(node);
    };
    if table.handler.as_deref() != Some("jdbc") || table.external_query.is_some() {
        return Transformed::no(node);
    }
    let remote_name = table
        .external_source
        .clone()
        .unwrap_or_else(|| table.name.clone());
    let Ok(sql) = sqlgen::select_sql(&remote_name, &table.schema, projection, filters) else {
        return Transformed::no(node);
    };
    // The pushed query produces exactly the projected columns.
    let out_schema = table.schema.project(projection);
    Transformed::yes(Arc::new(LogicalPlan::Scan {
        table: ScanTable {
            qualified_name: table.qualified_name.clone(),
            db: table.db.clone(),
            name: table.name.clone(),
            schema: out_schema.clone(),
            partition_cols: vec![],
            handler: Some("jdbc".into()),
            acid: false,
            is_mv: table.is_mv,
            external_query: Some(sql),
            external_source: table.external_source.clone(),
            row_ids: false,
        },
        projection: (0..out_schema.len()).collect(),
        // Filters were pushed; keep none locally (predicates are
        // evaluated remotely; re-evaluation would need remapping).
        filters: vec![],
        partitions: partitions.clone(),
        semijoin_filters: semijoin_filters.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::druid::query::LimitSpec;
    use hive_optimizer::SortKey;

    fn druid_scan() -> LogicalPlan {
        let mut q = DruidQuery::group_by("wiki");
        q.dimensions = vec!["page".to_string()];
        q.aggregations = vec![DruidAgg::DoubleSum {
            name: "s".to_string(),
            field: "added".to_string(),
        }];
        LogicalPlan::Scan {
            table: ScanTable {
                qualified_name: "default.wiki".to_string(),
                db: "default".to_string(),
                name: "wiki".to_string(),
                schema: Schema::new(vec![
                    Field::new("page", DataType::String),
                    Field::new("s", DataType::Double),
                ]),
                partition_cols: vec![],
                handler: Some("druid".to_string()),
                acid: false,
                is_mv: false,
                external_query: Some(q.to_json().to_string()),
                external_source: Some("wiki".to_string()),
                row_ids: false,
            },
            projection: vec![0, 1],
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        }
    }

    fn sort_limit(input: LogicalPlan, col: usize, asc: bool, n: u64) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Arc::new(LogicalPlan::Sort {
                input: Arc::new(input),
                keys: vec![SortKey {
                    expr: ScalarExpr::Column(col),
                    asc,
                    nulls_first: !asc,
                }],
            }),
            n,
        }
    }

    fn pushed_limit_spec(plan: &LogicalPlan) -> Option<LimitSpec> {
        let mut found = None;
        fn walk(p: &LogicalPlan, found: &mut Option<LimitSpec>) {
            if let LogicalPlan::Scan { table, .. } = p {
                if let Some(j) = &table.external_query {
                    *found = DruidQuery::parse(j).unwrap().limit_spec;
                }
            }
            for c in p.children() {
                walk(c, found);
            }
        }
        walk(plan, &mut found);
        found
    }

    #[test]
    fn sort_limit_folded_into_limit_spec() {
        let plan = sort_limit(druid_scan(), 1, false, 10);
        let pushed = push_to_external(&plan);
        let ls = pushed_limit_spec(&pushed).expect("limitSpec pushed");
        assert_eq!(ls.limit, 10);
        assert_eq!(ls.columns, vec![("s".to_string(), true)]);
        // Local Sort/Limit remain for exactness.
        assert!(matches!(pushed, LogicalPlan::Limit { .. }));
    }

    #[test]
    fn sort_on_dimension_uses_dimension_name() {
        let plan = sort_limit(druid_scan(), 0, true, 5);
        let ls = pushed_limit_spec(&push_to_external(&plan)).unwrap();
        assert_eq!(ls.columns, vec![("page".to_string(), false)]);
    }

    #[test]
    fn limit_through_passthrough_project() {
        // Project reorders columns: output 0 = agg "s", output 1 = dim.
        let proj = LogicalPlan::Project {
            input: Arc::new(druid_scan()),
            exprs: vec![ScalarExpr::Column(1), ScalarExpr::Column(0)],
            names: vec!["s".to_string(), "page".to_string()],
        };
        let plan = sort_limit(proj, 0, false, 3);
        let ls = pushed_limit_spec(&push_to_external(&plan)).unwrap();
        assert_eq!(ls.limit, 3);
        assert_eq!(ls.columns, vec![("s".to_string(), true)]);
    }

    #[test]
    fn limit_not_pushed_without_sort_or_handler() {
        // Bare limit (no sort): rule does not apply.
        let plan = LogicalPlan::Limit {
            input: Arc::new(druid_scan()),
            n: 10,
        };
        assert!(pushed_limit_spec(&push_to_external(&plan)).is_none());

        // Computed sort key: rule does not apply.
        let computed = LogicalPlan::Limit {
            input: Arc::new(LogicalPlan::Sort {
                input: Arc::new(druid_scan()),
                keys: vec![SortKey {
                    expr: ScalarExpr::Binary {
                        op: BinaryOp::Plus,
                        left: Box::new(ScalarExpr::Column(1)),
                        right: Box::new(ScalarExpr::Column(1)),
                    },
                    asc: true,
                    nulls_first: false,
                }],
            }),
            n: 10,
        };
        assert!(pushed_limit_spec(&push_to_external(&computed)).is_none());
    }
}
