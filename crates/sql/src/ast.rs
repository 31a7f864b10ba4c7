//! The abstract syntax tree produced by the parser.

use hive_common::{DataType, Value};
use std::fmt;

/// A top-level SQL statement.
///
/// The `Merge` payload is much larger than the other variants; statements are
/// parsed once and never stored in bulk, so the size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A SELECT query (possibly with set operations).
    Query(Query),
    CreateDatabase {
        name: String,
        if_not_exists: bool,
    },
    DropDatabase {
        name: String,
        if_exists: bool,
    },
    Use(String),
    CreateTable(CreateTable),
    DropTable {
        name: ObjectName,
        if_exists: bool,
    },
    CreateMaterializedView(CreateMaterializedView),
    DropMaterializedView {
        name: ObjectName,
        if_exists: bool,
    },
    /// `ALTER MATERIALIZED VIEW name REBUILD`
    AlterMaterializedViewRebuild {
        name: ObjectName,
    },
    Insert(Insert),
    MultiInsert(MultiInsert),
    Update(Update),
    Delete(Delete),
    Merge(Merge),
    /// `EXPLAIN <statement>`
    Explain(Box<Statement>),
    /// `ANALYZE TABLE name COMPUTE STATISTICS`
    AnalyzeTable {
        name: ObjectName,
    },
    /// `ALTER TABLE name COMPACT 'minor'|'major'`
    AlterTableCompact {
        name: ObjectName,
        major: bool,
    },
    ShowTables,
    ShowCompactions,
    ShowTransactions,
    /// `SHOW PARTITIONS t`
    ShowPartitions {
        name: ObjectName,
    },
    /// `DESCRIBE [EXTENDED] t`
    Describe {
        name: ObjectName,
        extended: bool,
    },
}

/// A possibly-qualified object name (`db.table` or `table`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName {
    pub db: Option<String>,
    pub name: String,
}

impl ObjectName {
    /// Unqualified name.
    pub fn bare(name: impl Into<String>) -> Self {
        ObjectName {
            db: None,
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Qualified name.
    pub fn qualified(db: impl Into<String>, name: impl Into<String>) -> Self {
        ObjectName {
            db: Some(db.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.db {
            Some(d) => write!(f, "{d}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A column definition in DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// Table-level constraints in DDL.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraintDef {
    PrimaryKey(Vec<String>),
    ForeignKey {
        columns: Vec<String>,
        ref_table: ObjectName,
        ref_columns: Vec<String>,
    },
    Unique(Vec<String>),
}

/// `CREATE [EXTERNAL] TABLE ...`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: ObjectName,
    pub if_not_exists: bool,
    pub external: bool,
    pub columns: Vec<ColumnDef>,
    pub constraints: Vec<TableConstraintDef>,
    /// `PARTITIONED BY (col type, ...)`
    pub partitioned_by: Vec<ColumnDef>,
    /// `STORED BY 'handler'`
    pub stored_by: Option<String>,
    /// `TBLPROPERTIES ('k' = 'v', ...)`
    pub properties: Vec<(String, String)>,
    /// `AS SELECT ...` (CTAS)
    pub as_query: Option<Query>,
}

/// `CREATE MATERIALIZED VIEW ... AS SELECT ...`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateMaterializedView {
    pub name: ObjectName,
    pub if_not_exists: bool,
    pub stored_by: Option<String>,
    pub properties: Vec<(String, String)>,
    pub query: Query,
}

/// `INSERT INTO t [(cols)] VALUES ... | SELECT ...`
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: ObjectName,
    pub columns: Option<Vec<String>>,
    pub source: InsertSource,
    pub overwrite: bool,
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Query),
}

/// Hive's multi-insert statement (paper §3.2: "it is possible to write
/// to multiple tables within a single transaction using Hive
/// multi-insert statements"):
///
/// ```sql
/// FROM src
/// INSERT INTO t1 SELECT a, b WHERE a > 0
/// INSERT INTO t2 SELECT a, c WHERE a <= 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInsert {
    /// The shared source relation.
    pub source: TableRef,
    /// The insert legs, applied within one transaction.
    pub inserts: Vec<MultiInsertLeg>,
}

/// One leg of a multi-insert.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInsertLeg {
    pub table: ObjectName,
    pub columns: Option<Vec<String>>,
    pub projection: Vec<SelectItem>,
    pub filter: Option<Expr>,
}

/// `UPDATE t SET c = e, ... [WHERE p]`
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: ObjectName,
    pub assignments: Vec<(String, Expr)>,
    pub filter: Option<Expr>,
}

/// `DELETE FROM t [WHERE p]`
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: ObjectName,
    pub filter: Option<Expr>,
}

/// `MERGE INTO target USING source ON cond WHEN ...`
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    pub target: ObjectName,
    pub target_alias: Option<String>,
    pub source: TableRef,
    pub on: Expr,
    /// `WHEN MATCHED [AND p] THEN UPDATE SET ...`
    pub when_matched_update: Option<MergeUpdate>,
    /// `WHEN MATCHED [AND p] THEN DELETE`
    pub when_matched_delete: Option<Option<Expr>>,
    /// `WHEN NOT MATCHED THEN INSERT [cols] VALUES (...)`
    pub when_not_matched_insert: Option<MergeInsert>,
}

/// The UPDATE arm of a MERGE.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeUpdate {
    pub condition: Option<Expr>,
    pub assignments: Vec<(String, Expr)>,
}

/// The INSERT arm of a MERGE.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeInsert {
    pub columns: Option<Vec<String>>,
    pub values: Vec<Expr>,
}

/// A full query: optional CTEs, body, ORDER BY / LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (query), ...` — inlined by the analyzer.
    pub ctes: Vec<(String, Query)>,
    pub body: QueryBody,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// A bare query around a body.
    pub fn simple(body: QueryBody) -> Self {
        Query {
            ctes: Vec::new(),
            body,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// Query body: a SELECT or a set operation tree.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    Select(Box<Select>),
    SetOp {
        op: SetOperator,
        all: bool,
        left: Box<QueryBody>,
        right: Box<QueryBody>,
    },
}

/// UNION / INTERSECT / EXCEPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOperator {
    Union,
    Intersect,
    Except,
}

/// The SELECT core.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// Explicit grouping sets (each set lists indexes into `group_by`).
    /// `None` means plain GROUP BY over all `group_by` expressions.
    pub grouping_sets: Option<Vec<Vec<usize>>>,
    pub having: Option<Expr>,
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// Expression with optional alias.
    Expr { expr: Expr, alias: Option<String> },
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
}

/// A FROM-clause table reference.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: ObjectName,
        alias: Option<String>,
    },
    Subquery {
        query: Box<Query>,
        alias: String,
    },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
    LeftSemi,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
    /// `None` = the default, NULLS LAST under ASC and under DESC (Hive's
    /// is ASC NULLS FIRST: a known deviation, DESIGN.md §1).
    pub nulls_first: Option<bool>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// Is this a comparison operator?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Window frame bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBound {
    UnboundedPreceding,
    Preceding(u64),
    CurrentRow,
    Following(u64),
    UnboundedFollowing,
}

/// A `ROWS BETWEEN ... AND ...` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFrame {
    pub start: FrameBound,
    pub end: FrameBound,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// Column reference, optionally qualified by table alias.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Negate(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    ScalarSubquery(Box<Query>),
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Cast {
        expr: Box<Expr>,
        to: DataType,
    },
    /// `EXTRACT(field FROM e)`
    Extract {
        field: hive_common::dates::DateField,
        expr: Box<Expr>,
    },
    /// Ordinary or aggregate function call; the analyzer decides which.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `func(args) OVER (PARTITION BY ... ORDER BY ... [frame])`
    Window {
        func: String,
        args: Vec<Expr>,
        partition_by: Vec<Expr>,
        order_by: Vec<OrderItem>,
        frame: Option<WindowFrame>,
    },
}

impl Expr {
    /// Shorthand column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// Shorthand literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    /// Build `self AND other` (or pass-through when one side is empty).
    pub fn and(self, other: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// Walk the expression tree, visiting every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::BinaryOp { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Not(e) | Expr::Negate(e) => e.visit(f),
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            Expr::Cast { expr, .. } | Expr::Extract { expr, .. } => expr.visit(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Window {
                args,
                partition_by,
                order_by,
                ..
            } => {
                for a in args {
                    a.visit(f);
                }
                for p in partition_by {
                    p.visit(f);
                }
                for o in order_by {
                    o.expr.visit(f);
                }
            }
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
        }
    }

    /// Does the tree contain any subquery expression?
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(
                e,
                Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
            ) {
                found = true;
            }
        });
        found
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::String(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::BinaryOp { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::Negate(e) => write!(f, "-({e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery { expr, negated, .. } => write!(
                f,
                "{expr} {}IN (<subquery>)",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { negated, .. } => {
                write!(
                    f,
                    "{}EXISTS (<subquery>)",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::ScalarSubquery(_) => write!(f, "(<scalar subquery>)"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case { .. } => write!(f, "CASE ... END"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Extract { field, expr } => write!(f, "EXTRACT({field:?} FROM {expr})"),
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Window { func, args, .. } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") OVER (...)")
            }
        }
    }
}
