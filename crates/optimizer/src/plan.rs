//! The logical relational algebra.

use crate::expr::{AggExpr, ScalarExpr, SortKey, WindowExpr};
use hive_common::{DataType, Field, Result, Schema, Value};
use hive_sql::SetOperator;
use std::fmt;
use std::sync::Arc;

/// Join types, extending SQL joins with the Semi/Anti forms produced by
/// subquery decorrelation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    Full,
    /// LEFT SEMI: left rows with at least one match; left columns only.
    Semi,
    /// LEFT ANTI: left rows with no match; left columns only.
    Anti,
    Cross,
}

impl JoinType {
    /// Does the output carry the right side's columns?
    pub fn keeps_right(&self) -> bool {
        !matches!(self, JoinType::Semi | JoinType::Anti)
    }
}

/// The table metadata a scan carries (a projection of the catalog's
/// [`hive_metastore::Table`] that the optimizer and executor need).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTable {
    /// `db.table`.
    pub qualified_name: String,
    pub db: String,
    pub name: String,
    /// Full logical schema: data columns then partition columns, then —
    /// when `row_ids` is set — the [`row_id_fields`] virtual columns.
    pub schema: Schema,
    /// Indexes (into `schema`) of the partition columns.
    pub partition_cols: Vec<usize>,
    /// Storage handler for federated tables.
    pub handler: Option<String>,
    /// ACID (managed) vs external.
    pub acid: bool,
    /// Whether this is a materialized view.
    pub is_mv: bool,
    /// A query pushed down to the external system (§6.2): the handler's
    /// own query language (e.g. Druid JSON, remote-dialect SQL),
    /// generated by the federation pushdown rules. When set, the scan's
    /// schema describes the *pushed query's* output, not the raw table.
    pub external_query: Option<String>,
    /// The external system's own object name (Druid datasource / remote
    /// JDBC table), resolved from table properties at analysis time.
    pub external_source: Option<String>,
    /// The scan exposes each record's ACID identity triple as the last
    /// [`ROW_ID_COLS`] columns of `schema` (paper §3.2: UPDATE / DELETE /
    /// MERGE read the rows they rewrite through the ordinary scan).
    pub row_ids: bool,
}

/// Number of virtual row-identity columns a `row_ids` scan appends.
pub const ROW_ID_COLS: usize = 3;

/// The virtual row-identity columns `(WriteId, bucket, RowId)`, named
/// like the synthetic columns of the ACID file layout they surface.
pub fn row_id_fields() -> [Field; ROW_ID_COLS] {
    ["__writeid", "__bucket", "__rowid"].map(|n| Field::new(n, DataType::BigInt))
}

/// A planned dynamic semijoin-reduction filter on a scan (§4.6): at
/// runtime, evaluate `source` (a small filtered subplan), collect the
/// values of its `source_key` column, and reduce this scan with a
/// min/max range plus Bloom filter on `target_col` — or prune entire
/// partitions when `target_col` is a partition column.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiJoinFilterSpec {
    /// The subplan producing reducer values.
    pub source: Arc<LogicalPlan>,
    /// Column of `source`'s output holding the join key.
    pub source_key: usize,
    /// Target column (index into the scan's *output* projection).
    pub target_col: usize,
    /// True when `target_col` is a partition column of the scanned
    /// table — enables dynamic partition pruning.
    pub is_partition_col: bool,
}

/// A logical plan node. Children are `Arc`ed so rewrites share
/// unmodified subtrees cheaply (and so the shared-work optimizer can
/// fingerprint common subplans).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: table scan with pushed projection and filters.
    Scan {
        table: ScanTable,
        /// Output columns (indexes into `table.schema`).
        projection: Vec<usize>,
        /// Conjunctive filters over the scan *output* columns.
        filters: Vec<ScalarExpr>,
        /// Statically pruned partition directory names (`None` = all).
        partitions: Option<Vec<String>>,
        /// Dynamic semijoin reducers.
        semijoin_filters: Vec<SemiJoinFilterSpec>,
    },
    /// Leaf: literal rows.
    Values {
        schema: Schema,
        rows: Vec<Vec<Value>>,
    },
    Filter {
        input: Arc<LogicalPlan>,
        predicate: ScalarExpr,
    },
    Project {
        input: Arc<LogicalPlan>,
        exprs: Vec<ScalarExpr>,
        /// Output column names (aliases).
        names: Vec<String>,
    },
    Join {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        join_type: JoinType,
        /// Equi-join key pairs: (left expr over left schema, right expr
        /// over right schema).
        equi: Vec<(ScalarExpr, ScalarExpr)>,
        /// Residual predicate over the concatenated (left ++ right)
        /// schema.
        residual: Option<ScalarExpr>,
    },
    Aggregate {
        input: Arc<LogicalPlan>,
        group_exprs: Vec<ScalarExpr>,
        /// Grouping sets as index lists into `group_exprs`; `None` means
        /// one set containing all of them.
        grouping_sets: Option<Vec<Vec<usize>>>,
        aggs: Vec<AggExpr>,
    },
    Window {
        input: Arc<LogicalPlan>,
        windows: Vec<WindowExpr>,
    },
    Sort {
        input: Arc<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Arc<LogicalPlan>,
        n: u64,
    },
    /// UNION ALL (distinct is an Aggregate above).
    Union {
        inputs: Vec<Arc<LogicalPlan>>,
    },
    /// INTERSECT / EXCEPT.
    SetOp {
        op: SetOperator,
        all: bool,
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan {
                table, projection, ..
            } => table.schema.project(projection),
            LogicalPlan::Values { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project {
                input,
                exprs,
                names,
            } => {
                let in_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .zip(names)
                        .map(|(e, n)| {
                            let dt = e.data_type(&in_schema).unwrap_or(DataType::String);
                            Field::new(n.clone(), dt)
                        })
                        .collect(),
                )
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.keeps_right() {
                    left.schema().join(&right.schema())
                } else {
                    left.schema()
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                grouping_sets,
                aggs,
            } => {
                let in_schema = input.schema();
                let mut fields = Vec::new();
                for (i, g) in group_exprs.iter().enumerate() {
                    let dt = g.data_type(&in_schema).unwrap_or(DataType::String);
                    // Preserve simple column names where possible.
                    let name = match g {
                        ScalarExpr::Column(c) => in_schema.field(*c).name.clone(),
                        _ => format!("_g{i}"),
                    };
                    fields.push(Field::new(name, dt));
                }
                for (i, a) in aggs.iter().enumerate() {
                    let arg_t = a.arg.as_ref().and_then(|e| e.data_type(&in_schema).ok());
                    fields.push(Field::new(
                        format!("_a{i}"),
                        a.func.output_type(arg_t.as_ref()),
                    ));
                }
                // GROUPING SETS add a grouping-id column.
                if grouping_sets.is_some() {
                    fields.push(Field::new("_grouping_id", DataType::BigInt));
                }
                Schema::new(fields)
            }
            LogicalPlan::Window { input, windows } => {
                let mut fields = input.schema().fields().to_vec();
                let in_schema = input.schema();
                for (i, w) in windows.iter().enumerate() {
                    let dt = window_output_type(w, &in_schema);
                    fields.push(Field::new(format!("_w{i}"), dt));
                }
                Schema::new(fields)
            }
            LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Union { inputs } => inputs[0].schema(),
            LogicalPlan::SetOp { left, .. } => left.schema(),
        }
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
            LogicalPlan::SetOp { left, right, .. } => vec![left, right],
        }
    }

    /// Direct children, to replace.
    pub fn children_mut(&mut self) -> Vec<&mut Arc<LogicalPlan>> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
            LogicalPlan::Union { inputs } => inputs.iter_mut().collect(),
        }
    }

    /// Qualified names of every table scanned anywhere in the plan
    /// (drives snapshot acquisition, the results cache validity check,
    /// and MV source tracking).
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let LogicalPlan::Scan { table, .. } = p {
                out.push(table.qualified_name.clone());
            }
        });
        out.sort();
        out.dedup();
        out
    }

    /// Visit all nodes (pre-order), including semijoin source subplans.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        if let LogicalPlan::Scan {
            semijoin_filters, ..
        } = self
        {
            for s in semijoin_filters {
                s.source.visit(f);
            }
        }
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Indented EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                partitions,
                semijoin_filters,
            } => {
                out.push_str(&format!(
                    "{pad}Scan[{}] cols={projection:?}",
                    table.qualified_name
                ));
                if !filters.is_empty() {
                    out.push_str(&format!(
                        " filters=[{}]",
                        filters
                            .iter()
                            .map(|f| f.to_string())
                            .collect::<Vec<_>>()
                            .join(" AND ")
                    ));
                }
                if let Some(p) = partitions {
                    out.push_str(&format!(" partitions={}", p.len()));
                }
                if table.row_ids {
                    out.push_str(" row_ids");
                }
                if !semijoin_filters.is_empty() {
                    out.push_str(&format!(" semijoin_reducers={}", semijoin_filters.len()));
                }
                out.push('\n');
            }
            LogicalPlan::Values { rows, .. } => {
                out.push_str(&format!("{pad}Values[{} rows]\n", rows.len()));
            }
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("{pad}Filter[{predicate}]\n"));
            }
            LogicalPlan::Project { exprs, .. } => {
                out.push_str(&format!(
                    "{pad}Project[{}]\n",
                    exprs
                        .iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            LogicalPlan::Join {
                join_type, equi, ..
            } => {
                out.push_str(&format!(
                    "{pad}Join[{join_type:?}] on {}\n",
                    equi.iter()
                        .map(|(l, r)| format!("{l}={r}"))
                        .collect::<Vec<_>>()
                        .join(" AND ")
                ));
            }
            LogicalPlan::Aggregate {
                group_exprs,
                aggs,
                grouping_sets,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate[group=({}) aggs=({}){}]\n",
                    group_exprs
                        .iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    aggs.iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    if let Some(gs) = grouping_sets {
                        format!(" sets={}", gs.len())
                    } else {
                        String::new()
                    }
                ));
            }
            LogicalPlan::Window { windows, .. } => {
                out.push_str(&format!("{pad}Window[{} fns]\n", windows.len()));
            }
            LogicalPlan::Sort { keys, .. } => {
                out.push_str(&format!(
                    "{pad}Sort[{}]\n",
                    keys.iter()
                        .map(|k| format!("{} {}", k.expr, if k.asc { "ASC" } else { "DESC" }))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            LogicalPlan::Limit { n, .. } => {
                out.push_str(&format!("{pad}Limit[{n}]\n"));
            }
            LogicalPlan::Union { inputs } => {
                out.push_str(&format!("{pad}UnionAll[{}]\n", inputs.len()));
            }
            LogicalPlan::SetOp { op, all, .. } => {
                out.push_str(&format!("{pad}SetOp[{op:?} all={all}]\n"));
            }
        }
        if let LogicalPlan::Scan {
            semijoin_filters, ..
        } = self
        {
            for s in semijoin_filters {
                out.push_str(&format!(
                    "{}<- semijoin reducer (source key ${}, target ${}{})\n",
                    "  ".repeat(depth + 1),
                    s.source_key,
                    s.target_col,
                    if s.is_partition_col {
                        ", partition"
                    } else {
                        ""
                    }
                ));
                s.source.explain_into(depth + 2, out);
            }
        }
        for c in self.children() {
            c.explain_into(depth + 1, out);
        }
    }

    /// Validate that the plan type-checks (every expression resolves
    /// against its input schema). Used in tests and debug assertions.
    pub fn check(&self) -> Result<()> {
        for c in self.children() {
            c.check()?;
        }
        match self {
            LogicalPlan::Filter { input, predicate } => {
                predicate.data_type(&input.schema())?;
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let s = input.schema();
                for e in exprs {
                    e.data_type(&s)?;
                }
            }
            LogicalPlan::Join {
                left,
                right,
                equi,
                residual,
                ..
            } => {
                let ls = left.schema();
                let rs = right.schema();
                for (l, r) in equi {
                    l.data_type(&ls)?;
                    r.data_type(&rs)?;
                }
                if let Some(res) = residual {
                    res.data_type(&ls.join(&rs))?;
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let s = input.schema();
                for g in group_exprs {
                    g.data_type(&s)?;
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        arg.data_type(&s)?;
                    }
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let s = input.schema();
                for k in keys {
                    k.expr.data_type(&s)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Output type of a window expression.
pub fn window_output_type(w: &WindowExpr, input: &Schema) -> DataType {
    use crate::expr::WindowFunc::*;
    match &w.func {
        RowNumber | Rank | DenseRank | Ntile => DataType::BigInt,
        Lag | Lead | FirstValue | LastValue => w
            .args
            .first()
            .and_then(|a| a.data_type(input).ok())
            .unwrap_or(DataType::String),
        Agg(f) => {
            let arg_t = w.args.first().and_then(|a| a.data_type(input).ok());
            f.output_type(arg_t.as_ref())
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, ScalarExpr};

    pub(crate) fn test_scan(name: &str, fields: Vec<Field>) -> LogicalPlan {
        let schema = Schema::new(fields);
        let ncols = schema.len();
        LogicalPlan::Scan {
            table: ScanTable {
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
            projection: (0..ncols).collect(),
            filters: vec![],
            partitions: None,
            semijoin_filters: vec![],
        }
    }

    #[test]
    fn schema_propagation() {
        let scan = test_scan(
            "t",
            vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::String),
            ],
        );
        let filter = LogicalPlan::Filter {
            input: Arc::new(scan.clone()),
            predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1))),
        };
        assert_eq!(filter.schema().names(), vec!["a", "b"]);
        let agg = LogicalPlan::Aggregate {
            input: Arc::new(filter),
            group_exprs: vec![ScalarExpr::Column(1)],
            grouping_sets: None,
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
        };
        let s = agg.schema();
        assert_eq!(s.names(), vec!["b", "_a0"]);
        assert_eq!(s.field(1).data_type, DataType::BigInt);
        agg.check().unwrap();
    }

    #[test]
    fn join_schema_and_semi() {
        let l = Arc::new(test_scan("l", vec![Field::new("a", DataType::Int)]));
        let r = Arc::new(test_scan("r", vec![Field::new("b", DataType::Int)]));
        let inner = LogicalPlan::Join {
            left: l.clone(),
            right: r.clone(),
            join_type: JoinType::Inner,
            equi: vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
            residual: None,
        };
        assert_eq!(inner.schema().len(), 2);
        let semi = LogicalPlan::Join {
            left: l,
            right: r,
            join_type: JoinType::Semi,
            equi: vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
            residual: None,
        };
        assert_eq!(semi.schema().len(), 1);
        assert_eq!(
            semi.referenced_tables(),
            vec!["default.l".to_string(), "default.r".to_string()]
        );
    }

    #[test]
    fn check_catches_bad_columns() {
        let scan = test_scan("t", vec![Field::new("a", DataType::Int)]);
        let bad = LogicalPlan::Filter {
            input: Arc::new(scan),
            predicate: ScalarExpr::Column(5),
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn explain_renders() {
        let scan = test_scan("t", vec![Field::new("a", DataType::Int)]);
        let plan = LogicalPlan::Limit {
            input: Arc::new(LogicalPlan::Sort {
                input: Arc::new(scan),
                keys: vec![SortKey {
                    expr: ScalarExpr::Column(0),
                    asc: false,
                    nulls_first: true,
                }],
            }),
            n: 10,
        };
        let text = plan.explain();
        assert!(text.contains("Limit[10]"));
        assert!(text.contains("Sort[$0 DESC]"));
        assert!(text.contains("Scan[default.t]"));
    }
}
