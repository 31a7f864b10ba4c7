//! Resolved, typed scalar expressions over positional column indexes.
//!
//! The analyzer lowers AST expressions ([`hive_sql::Expr`]) into this
//! form; the execution engine evaluates them vectorized. Every
//! expression can report its output type against an input schema, and
//! the analyzer inserts explicit casts so operand types always align.

use hive_common::dates::DateField;
use hive_common::{DataType, HiveError, Result, Schema, Value};
use hive_sql::BinaryOp;
use std::fmt;

/// A scalar expression over the input relation's columns (by index).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Input column at index.
    Column(usize),
    Literal(Value),
    Binary {
        op: BinaryOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    Not(Box<ScalarExpr>),
    Negate(Box<ScalarExpr>),
    IsNull {
        expr: Box<ScalarExpr>,
        negated: bool,
    },
    Like {
        expr: Box<ScalarExpr>,
        pattern: Box<ScalarExpr>,
        negated: bool,
    },
    InList {
        expr: Box<ScalarExpr>,
        list: Vec<ScalarExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<ScalarExpr>>,
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        else_expr: Option<Box<ScalarExpr>>,
    },
    Cast {
        expr: Box<ScalarExpr>,
        to: DataType,
    },
    Extract {
        field: DateField,
        expr: Box<ScalarExpr>,
    },
    Func {
        func: BuiltinFunc,
        args: Vec<ScalarExpr>,
    },
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinFunc {
    Substr,
    Upper,
    Lower,
    Length,
    Trim,
    Concat,
    Abs,
    Round,
    Floor,
    Ceil,
    Sqrt,
    Power,
    Coalesce,
    /// `date_add(date, days)`
    DateAdd,
    /// `date_sub(date, days)`
    DateSub,
    /// `add_months(date, n)`
    AddMonths,
    /// `year(d)`, kept for Hive-style function syntax.
    Year,
    Month,
    Day,
    Quarter,
    DayOfWeek,
    /// `trunc(date, 'MM'|'YYYY')` — month/year truncation.
    TruncMonth,
    TruncYear,
    /// `if(cond, a, b)`
    If,
    /// `nvl(a, b)`
    Nvl,
    /// Deterministic hash — for bucketing tests.
    Hash64,
    /// Non-deterministic: random(). Disqualifies results caching (§4.3).
    Rand,
    /// Runtime-constant: current_date. Disqualifies results caching.
    CurrentDate,
    /// Runtime-constant: current_timestamp.
    CurrentTimestamp,
}

impl BuiltinFunc {
    /// Resolve a function name from SQL.
    pub fn from_name(name: &str) -> Option<BuiltinFunc> {
        Some(match name {
            "substr" | "substring" => BuiltinFunc::Substr,
            "upper" | "ucase" => BuiltinFunc::Upper,
            "lower" | "lcase" => BuiltinFunc::Lower,
            "length" => BuiltinFunc::Length,
            "trim" => BuiltinFunc::Trim,
            "concat" => BuiltinFunc::Concat,
            "abs" => BuiltinFunc::Abs,
            "round" => BuiltinFunc::Round,
            "floor" => BuiltinFunc::Floor,
            "ceil" | "ceiling" => BuiltinFunc::Ceil,
            "sqrt" => BuiltinFunc::Sqrt,
            "power" | "pow" => BuiltinFunc::Power,
            "coalesce" => BuiltinFunc::Coalesce,
            "date_add" => BuiltinFunc::DateAdd,
            "date_sub" => BuiltinFunc::DateSub,
            "add_months" => BuiltinFunc::AddMonths,
            "year" => BuiltinFunc::Year,
            "month" => BuiltinFunc::Month,
            "day" | "dayofmonth" => BuiltinFunc::Day,
            "quarter" => BuiltinFunc::Quarter,
            "dayofweek" => BuiltinFunc::DayOfWeek,
            "if" => BuiltinFunc::If,
            "nvl" => BuiltinFunc::Nvl,
            "hash64" => BuiltinFunc::Hash64,
            "rand" | "random" => BuiltinFunc::Rand,
            "current_date" => BuiltinFunc::CurrentDate,
            "current_timestamp" | "now" => BuiltinFunc::CurrentTimestamp,
            _ => return None,
        })
    }

    /// Functions whose results cannot be cached (§4.3: "the query cannot
    /// contain non-deterministic functions (rand), runtime constant
    /// functions (current_date, current_timestamp)").
    pub fn disqualifies_cache(&self) -> bool {
        matches!(
            self,
            BuiltinFunc::Rand | BuiltinFunc::CurrentDate | BuiltinFunc::CurrentTimestamp
        )
    }
}

impl ScalarExpr {
    /// Output type against an input schema.
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        Ok(match self {
            ScalarExpr::Column(i) => {
                if *i >= input.len() {
                    return Err(HiveError::Plan(format!(
                        "column index {i} out of bounds for schema of {} cols",
                        input.len()
                    )));
                }
                input.field(*i).data_type.clone()
            }
            ScalarExpr::Literal(v) => v.data_type(),
            ScalarExpr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    DataType::Boolean
                } else {
                    let lt = left.data_type(input)?;
                    let rt = right.data_type(input)?;
                    match op {
                        BinaryOp::Divide => DataType::Double,
                        _ => DataType::arithmetic_result(&lt, &rt).ok_or_else(|| {
                            HiveError::Plan(format!("no arithmetic type for {lt} {op} {rt}"))
                        })?,
                    }
                }
            }
            ScalarExpr::Not(_)
            | ScalarExpr::IsNull { .. }
            | ScalarExpr::Like { .. }
            | ScalarExpr::InList { .. } => DataType::Boolean,
            ScalarExpr::Negate(e) => e.data_type(input)?,
            ScalarExpr::Case {
                branches,
                else_expr,
                ..
            } => {
                let mut ty = DataType::Null;
                for (_, r) in branches {
                    let t = r.data_type(input)?;
                    ty = DataType::common_supertype(&ty, &t).unwrap_or(t);
                }
                if let Some(e) = else_expr {
                    let t = e.data_type(input)?;
                    ty = DataType::common_supertype(&ty, &t).unwrap_or(t);
                }
                if ty == DataType::Null {
                    DataType::String
                } else {
                    ty
                }
            }
            ScalarExpr::Cast { to, .. } => to.clone(),
            ScalarExpr::Extract { .. } => DataType::BigInt,
            ScalarExpr::Func { func, args } => match func {
                BuiltinFunc::Substr
                | BuiltinFunc::Upper
                | BuiltinFunc::Lower
                | BuiltinFunc::Trim
                | BuiltinFunc::Concat => DataType::String,
                BuiltinFunc::Length => DataType::BigInt,
                BuiltinFunc::Abs | BuiltinFunc::Round => args
                    .first()
                    .map(|a| a.data_type(input))
                    .transpose()?
                    .unwrap_or(DataType::Double),
                BuiltinFunc::Floor | BuiltinFunc::Ceil => DataType::BigInt,
                BuiltinFunc::Sqrt | BuiltinFunc::Power | BuiltinFunc::Rand => DataType::Double,
                BuiltinFunc::Coalesce | BuiltinFunc::Nvl | BuiltinFunc::If => {
                    let mut ty = DataType::Null;
                    let rel = if *func == BuiltinFunc::If {
                        &args[1..]
                    } else {
                        &args[..]
                    };
                    for a in rel {
                        let t = a.data_type(input)?;
                        ty = DataType::common_supertype(&ty, &t).unwrap_or(t);
                    }
                    ty
                }
                BuiltinFunc::DateAdd
                | BuiltinFunc::DateSub
                | BuiltinFunc::AddMonths
                | BuiltinFunc::TruncMonth
                | BuiltinFunc::TruncYear => DataType::Date,
                BuiltinFunc::Year
                | BuiltinFunc::Month
                | BuiltinFunc::Day
                | BuiltinFunc::Quarter
                | BuiltinFunc::DayOfWeek
                | BuiltinFunc::Hash64 => DataType::BigInt,
                BuiltinFunc::CurrentDate => DataType::Date,
                BuiltinFunc::CurrentTimestamp => DataType::Timestamp,
            },
        })
    }

    /// Visit all nodes.
    pub fn visit(&self, f: &mut impl FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            ScalarExpr::Not(e) | ScalarExpr::Negate(e) => e.visit(f),
            ScalarExpr::IsNull { expr, .. } => expr.visit(f),
            ScalarExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            ScalarExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            ScalarExpr::Case {
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
            ScalarExpr::Cast { expr, .. } | ScalarExpr::Extract { expr, .. } => expr.visit(f),
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
        }
    }

    /// Rewrite the tree bottom-up.
    pub fn transform(self, f: &mut impl FnMut(ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        let rebuilt = match self {
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.transform(f))),
            ScalarExpr::Negate(e) => ScalarExpr::Negate(Box::new(e.transform(f))),
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.into_iter().map(|e| e.transform(f)).collect(),
                negated,
            },
            ScalarExpr::Case {
                operand,
                branches,
                else_expr,
            } => ScalarExpr::Case {
                operand: operand.map(|o| Box::new(o.transform(f))),
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.transform(f))),
            },
            ScalarExpr::Cast { expr, to } => ScalarExpr::Cast {
                expr: Box::new(expr.transform(f)),
                to,
            },
            ScalarExpr::Extract { field, expr } => ScalarExpr::Extract {
                field,
                expr: Box::new(expr.transform(f)),
            },
            ScalarExpr::Func { func, args } => ScalarExpr::Func {
                func,
                args: args.into_iter().map(|e| e.transform(f)).collect(),
            },
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// Collect referenced column indexes.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let ScalarExpr::Column(i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rebase column indexes through a mapping (old index → new index);
    /// fails when a referenced column is not mapped.
    pub fn remap_columns(self, map: &dyn Fn(usize) -> Option<usize>) -> Result<ScalarExpr> {
        let mut err = None;
        let out = self.transform(&mut |e| {
            if let ScalarExpr::Column(i) = e {
                match map(i) {
                    Some(n) => ScalarExpr::Column(n),
                    None => {
                        err = Some(i);
                        ScalarExpr::Column(i)
                    }
                }
            } else {
                e
            }
        });
        match err {
            Some(i) => Err(HiveError::Plan(format!(
                "column {i} not available after remap"
            ))),
            None => Ok(out),
        }
    }

    /// Shift all column references by `delta` (join input splicing).
    pub fn shift_columns(self, delta: usize) -> ScalarExpr {
        self.transform(&mut |e| match e {
            ScalarExpr::Column(i) => ScalarExpr::Column(i + delta),
            other => other,
        })
    }

    /// True when the expression references no columns (constant).
    pub fn is_constant(&self) -> bool {
        let mut column = false;
        self.visit(&mut |e| column |= matches!(e, ScalarExpr::Column(_)));
        !column && self.is_deterministic()
    }

    /// True when the expression has no non-deterministic or
    /// runtime-constant calls.
    pub fn is_deterministic(&self) -> bool {
        let mut det = true;
        self.visit(&mut |e| {
            if let ScalarExpr::Func { func, .. } = e {
                if func.disqualifies_cache() {
                    det = false;
                }
            }
        });
        det
    }

    /// Shorthand: `col = col` equality.
    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Conjunction of a non-empty predicate list.
    pub fn conjunction(mut preds: Vec<ScalarExpr>) -> Option<ScalarExpr> {
        let first = preds.pop()?;
        Some(preds.into_iter().fold(first, |acc, p| ScalarExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(p),
            right: Box::new(acc),
        }))
    }

    /// Split a predicate into its top-level AND conjuncts.
    pub fn split_conjunction(&self) -> Vec<&ScalarExpr> {
        match self {
            ScalarExpr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjunction();
                out.extend(right.split_conjunction());
                out
            }
            other => vec![other],
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    StddevSamp,
}

impl AggFunc {
    /// Resolve from SQL name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" | "mean" => AggFunc::Avg,
            "stddev" | "stddev_samp" => AggFunc::StddevSamp,
            _ => return None,
        })
    }

    /// Output type given the argument type.
    pub fn output_type(&self, arg: Option<&DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::BigInt,
            AggFunc::Avg | AggFunc::StddevSamp => DataType::Double,
            AggFunc::Sum => match arg {
                Some(DataType::Int) | Some(DataType::BigInt) => DataType::BigInt,
                Some(DataType::Decimal(_, s)) => DataType::Decimal(38, *s),
                _ => DataType::Double,
            },
            AggFunc::Min | AggFunc::Max => arg.cloned().unwrap_or(DataType::Null),
        }
    }
}

/// One aggregate call in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    pub distinct: bool,
}

/// Window functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowFunc {
    RowNumber,
    Rank,
    DenseRank,
    Ntile,
    Lag,
    Lead,
    FirstValue,
    LastValue,
    /// Aggregates used in window context.
    Agg(AggFunc),
}

impl WindowFunc {
    /// Resolve from SQL name.
    pub fn from_name(name: &str) -> Option<WindowFunc> {
        Some(match name {
            "row_number" => WindowFunc::RowNumber,
            "rank" => WindowFunc::Rank,
            "dense_rank" => WindowFunc::DenseRank,
            "ntile" => WindowFunc::Ntile,
            "lag" => WindowFunc::Lag,
            "lead" => WindowFunc::Lead,
            "first_value" => WindowFunc::FirstValue,
            "last_value" => WindowFunc::LastValue,
            other => WindowFunc::Agg(AggFunc::from_name(other)?),
        })
    }
}

/// One window call in a Window node.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    pub func: WindowFunc,
    pub args: Vec<ScalarExpr>,
    pub partition_by: Vec<ScalarExpr>,
    pub order_by: Vec<SortKey>,
    pub frame: Option<hive_sql::WindowFrame>,
}

/// A sort key: expression, direction, null placement.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: ScalarExpr,
    pub asc: bool,
    pub nulls_first: bool,
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "${i}"),
            ScalarExpr::Literal(v) => match v {
                Value::String(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
            ScalarExpr::Negate(e) => write!(f, "-{e}"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            ScalarExpr::InList {
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
            ScalarExpr::Case { .. } => write!(f, "CASE..END"),
            ScalarExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            ScalarExpr::Extract { field, expr } => write!(f, "EXTRACT({field:?}, {expr})"),
            ScalarExpr::Func { func, args } => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(", self.func)?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a}")?,
            None => write!(f, "*")?,
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::String),
            Field::new("c", DataType::Decimal(7, 2)),
        ])
    }

    #[test]
    fn types() {
        let s = schema();
        assert_eq!(
            ScalarExpr::Column(2).data_type(&s).unwrap(),
            DataType::Decimal(7, 2)
        );
        let cmp = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1)));
        assert_eq!(cmp.data_type(&s).unwrap(), DataType::Boolean);
        let add = ScalarExpr::Binary {
            op: BinaryOp::Plus,
            left: Box::new(ScalarExpr::Column(0)),
            right: Box::new(ScalarExpr::Literal(Value::BigInt(1))),
        };
        assert_eq!(add.data_type(&s).unwrap(), DataType::BigInt);
        assert!(ScalarExpr::Column(9).data_type(&s).is_err());
    }

    #[test]
    fn columns_and_shift() {
        let e = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2));
        assert_eq!(e.columns(), vec![0, 2]);
        let shifted = e.shift_columns(5);
        assert_eq!(shifted.columns(), vec![5, 7]);
    }

    #[test]
    fn conjunction_round_trip() {
        let parts = vec![
            ScalarExpr::Column(0),
            ScalarExpr::Column(1),
            ScalarExpr::Column(2),
        ];
        let conj = ScalarExpr::conjunction(parts).unwrap();
        assert_eq!(conj.split_conjunction().len(), 3);
    }

    #[test]
    fn determinism() {
        let r = ScalarExpr::Func {
            func: BuiltinFunc::Rand,
            args: vec![],
        };
        assert!(!r.is_deterministic());
        assert!(!r.is_constant());
        let l = ScalarExpr::Literal(Value::Int(1));
        assert!(l.is_constant());
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(None), DataType::BigInt);
        assert_eq!(
            AggFunc::Sum.output_type(Some(&DataType::Int)),
            DataType::BigInt
        );
        assert_eq!(
            AggFunc::Sum.output_type(Some(&DataType::Decimal(7, 2))),
            DataType::Decimal(38, 2)
        );
        assert_eq!(
            AggFunc::Avg.output_type(Some(&DataType::Int)),
            DataType::Double
        );
    }
}
