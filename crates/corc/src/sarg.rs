//! Search arguments (sargs): the pushed-down predicate form the paper's
//! I/O elevator evaluates against row-group indexes (§5.1) before
//! reading data.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::bloom::BloomFilter;
use crate::stats::ColumnStatistics;
use hive_common::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Three-valued outcome of evaluating a predicate against an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthValue {
    /// Every row in the range satisfies the predicate.
    Yes,
    /// No row in the range can satisfy the predicate — skip it.
    No,
    /// Cannot decide from the index; rows must be read.
    Maybe,
}

impl TruthValue {
    /// Logical AND for conjunctions.
    pub fn and(self, other: TruthValue) -> TruthValue {
        use TruthValue::*;
        match (self, other) {
            (No, _) | (_, No) => No,
            (Yes, Yes) => Yes,
            _ => Maybe,
        }
    }
}

/// A runtime semijoin reducer's key set (§4.6). The executor builds it
/// from a join's build side and checks rows against it itself; a sarg
/// only asks it about the one value of a single-valued row group.
pub trait KeyFilter: fmt::Debug + Send + Sync {
    /// `false` only when no build key is join-equal to `v`. NULL never
    /// matches.
    fn might_contain(&self, v: &Value) -> bool;
}

/// A single sargable predicate on one column (identified by its index in
/// the file schema).
#[derive(Debug, Clone)]
pub enum ColumnPredicate {
    Eq(usize, Value),
    Lt(usize, Value),
    Le(usize, Value),
    Gt(usize, Value),
    Ge(usize, Value),
    Between(usize, Value, Value),
    In(usize, Vec<Value>),
    IsNull(usize),
    IsNotNull(usize),
    /// Dynamic runtime filter from semijoin reduction (§4.6): the
    /// build-side keys' min/max range, then their key set.
    Reducer {
        column: usize,
        min: Value,
        max: Value,
        filter: Arc<dyn KeyFilter>,
    },
}

impl ColumnPredicate {
    /// The column this predicate constrains.
    pub fn column(&self) -> usize {
        match self {
            ColumnPredicate::Eq(c, _)
            | ColumnPredicate::Lt(c, _)
            | ColumnPredicate::Le(c, _)
            | ColumnPredicate::Gt(c, _)
            | ColumnPredicate::Ge(c, _)
            | ColumnPredicate::Between(c, _, _)
            | ColumnPredicate::In(c, _)
            | ColumnPredicate::IsNull(c)
            | ColumnPredicate::IsNotNull(c)
            | ColumnPredicate::Reducer { column: c, .. } => *c,
        }
    }

    /// The same predicate over column `col`.
    pub fn with_column(&self, col: usize) -> ColumnPredicate {
        let mut p = self.clone();
        match &mut p {
            ColumnPredicate::Eq(c, _)
            | ColumnPredicate::Lt(c, _)
            | ColumnPredicate::Le(c, _)
            | ColumnPredicate::Gt(c, _)
            | ColumnPredicate::Ge(c, _)
            | ColumnPredicate::Between(c, _, _)
            | ColumnPredicate::In(c, _)
            | ColumnPredicate::IsNull(c)
            | ColumnPredicate::IsNotNull(c)
            | ColumnPredicate::Reducer { column: c, .. } => *c = col,
        }
        p
    }

    /// Evaluate against row-range statistics (and an optional Bloom
    /// filter over the same range).
    pub fn evaluate(&self, stats: &ColumnStatistics, bloom: Option<&BloomFilter>) -> TruthValue {
        use TruthValue::*;
        // A range with no rows can be skipped outright.
        if stats.num_rows == 0 {
            return No;
        }
        match self {
            ColumnPredicate::IsNull(_) => {
                if stats.null_count == 0 {
                    No
                } else if stats.all_null() {
                    Yes
                } else {
                    Maybe
                }
            }
            ColumnPredicate::IsNotNull(_) => {
                if stats.all_null() {
                    No
                } else if stats.null_count == 0 {
                    Yes
                } else {
                    Maybe
                }
            }
            _ if stats.all_null() => No, // comparisons never match NULL
            ColumnPredicate::Eq(_, v) => {
                match range_contains(stats, v) {
                    No => No,
                    _ => {
                        // Consult the Bloom filter for a definitive miss.
                        if let Some(b) = bloom {
                            if !b.might_contain(v) {
                                return No;
                            }
                        }
                        if stats.null_count == 0 && stats.min == stats.max {
                            // Constant column equal to v.
                            if stats.min.as_ref() == Some(v) {
                                return Yes;
                            }
                        }
                        Maybe
                    }
                }
            }
            ColumnPredicate::In(_, vals) => {
                let mut any = No;
                for v in vals {
                    let t = ColumnPredicate::Eq(self.column(), v.clone()).evaluate(stats, bloom);
                    any = match (any, t) {
                        (_, Yes) | (Yes, _) => Yes,
                        (Maybe, _) | (_, Maybe) => Maybe,
                        _ => No,
                    };
                }
                any
            }
            ColumnPredicate::Lt(_, v) => cmp_bound(stats, v, |o| o == Ordering::Less),
            ColumnPredicate::Le(_, v) => cmp_bound(stats, v, |o| o != Ordering::Greater),
            ColumnPredicate::Gt(_, v) => cmp_bound(stats, v, |o| o == Ordering::Greater),
            ColumnPredicate::Ge(_, v) => cmp_bound(stats, v, |o| o != Ordering::Less),
            ColumnPredicate::Between(_, lo, hi) => {
                let ge = cmp_bound(stats, lo, |o| o != Ordering::Less);
                let le = cmp_bound(stats, hi, |o| o != Ordering::Greater);
                ge.and(le)
            }
            ColumnPredicate::Reducer {
                min, max, filter, ..
            } => {
                let ge = cmp_bound(stats, min, |o| o != Ordering::Less);
                let le = cmp_bound(stats, max, |o| o != Ordering::Greater);
                if ge.and(le) == No {
                    return No;
                }
                // If the range is a single value, the key set can give
                // a definitive miss.
                if stats.min == stats.max {
                    if let Some(v) = &stats.min {
                        if !filter.might_contain(v) {
                            return No;
                        }
                    }
                }
                Maybe
            }
        }
    }
}

/// `No` when `v` is outside `[min, max]`, else `Maybe`.
fn range_contains(stats: &ColumnStatistics, v: &Value) -> TruthValue {
    if let (Some(min), Some(max)) = (&stats.min, &stats.max) {
        if v.sql_cmp(min) == Some(Ordering::Less) || v.sql_cmp(max) == Some(Ordering::Greater) {
            return TruthValue::No;
        }
    }
    TruthValue::Maybe
}

/// Evaluate an ordering predicate against min/max bounds.
fn cmp_bound(stats: &ColumnStatistics, v: &Value, accept: impl Fn(Ordering) -> bool) -> TruthValue {
    let (min, max) = match (&stats.min, &stats.max) {
        (Some(a), Some(b)) => (a, b),
        _ => return TruthValue::Maybe,
    };
    let min_ok = min.sql_cmp(v).map(&accept);
    let max_ok = max.sql_cmp(v).map(&accept);
    match (min_ok, max_ok) {
        (Some(true), Some(true)) if stats.null_count == 0 => TruthValue::Yes,
        (Some(false), Some(false)) => TruthValue::No,
        _ => TruthValue::Maybe,
    }
}

/// A conjunction of sargable predicates.
#[derive(Debug, Clone, Default)]
pub struct SearchArgument {
    /// All predicates must hold (AND semantics).
    pub predicates: Vec<ColumnPredicate>,
}

impl SearchArgument {
    /// The empty (always-true) sarg.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from predicates.
    pub fn with(predicates: Vec<ColumnPredicate>) -> Self {
        SearchArgument { predicates }
    }

    /// True when no predicates are present.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluate the conjunction against per-column stats/blooms for a
    /// row range. `stats(col)` and `bloom(col)` fetch the per-column
    /// index entries.
    pub fn evaluate<'a>(
        &self,
        stats: impl Fn(usize) -> Option<&'a ColumnStatistics>,
        bloom: impl Fn(usize) -> Option<&'a BloomFilter>,
    ) -> TruthValue {
        let mut acc = TruthValue::Yes;
        for p in &self.predicates {
            let col = p.column();
            let t = match stats(col) {
                Some(s) => p.evaluate(s, bloom(col)),
                None => TruthValue::Maybe,
            };
            acc = acc.and(t);
            if acc == TruthValue::No {
                return TruthValue::No;
            }
        }
        acc
    }
}

impl fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnPredicate::Eq(c, v) => write!(f, "col{c} = {v}"),
            ColumnPredicate::Lt(c, v) => write!(f, "col{c} < {v}"),
            ColumnPredicate::Le(c, v) => write!(f, "col{c} <= {v}"),
            ColumnPredicate::Gt(c, v) => write!(f, "col{c} > {v}"),
            ColumnPredicate::Ge(c, v) => write!(f, "col{c} >= {v}"),
            ColumnPredicate::Between(c, a, b) => write!(f, "col{c} BETWEEN {a} AND {b}"),
            ColumnPredicate::In(c, vs) => {
                write!(f, "col{c} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            ColumnPredicate::IsNull(c) => write!(f, "col{c} IS NULL"),
            ColumnPredicate::IsNotNull(c) => write!(f, "col{c} IS NOT NULL"),
            ColumnPredicate::Reducer {
                column, min, max, ..
            } => {
                write!(f, "col{column} IN REDUCER[{min}..{max}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(min: i32, max: i32, nulls: u64, rows: u64) -> ColumnStatistics {
        ColumnStatistics {
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            null_count: nulls,
            num_rows: rows,
            ..Default::default()
        }
    }

    #[test]
    fn eq_against_range() {
        let s = stats(10, 20, 0, 100);
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(5)).evaluate(&s, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(15)).evaluate(&s, None),
            TruthValue::Maybe
        );
        let constant = stats(7, 7, 0, 10);
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(7)).evaluate(&constant, None),
            TruthValue::Yes
        );
    }

    #[test]
    fn eq_with_bloom_definitive_miss() {
        let s = stats(0, 1000, 0, 100);
        let mut b = BloomFilter::new(100, 0.01);
        b.insert(&Value::Int(500));
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(500)).evaluate(&s, Some(&b)),
            TruthValue::Maybe
        );
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(501)).evaluate(&s, Some(&b)),
            TruthValue::No
        );
    }

    #[test]
    fn ordering_predicates() {
        let s = stats(10, 20, 0, 100);
        assert_eq!(
            ColumnPredicate::Lt(0, Value::Int(10)).evaluate(&s, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::Lt(0, Value::Int(25)).evaluate(&s, None),
            TruthValue::Yes
        );
        assert_eq!(
            ColumnPredicate::Lt(0, Value::Int(15)).evaluate(&s, None),
            TruthValue::Maybe
        );
        assert_eq!(
            ColumnPredicate::Ge(0, Value::Int(21)).evaluate(&s, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::Between(0, Value::Int(30), Value::Int(40)).evaluate(&s, None),
            TruthValue::No
        );
    }

    #[test]
    fn null_predicates() {
        let no_nulls = stats(1, 2, 0, 10);
        let all_null = ColumnStatistics {
            min: None,
            max: None,
            null_count: 10,
            num_rows: 10,
            ..Default::default()
        };
        assert_eq!(
            ColumnPredicate::IsNull(0).evaluate(&no_nulls, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::IsNull(0).evaluate(&all_null, None),
            TruthValue::Yes
        );
        assert_eq!(
            ColumnPredicate::Eq(0, Value::Int(1)).evaluate(&all_null, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::IsNotNull(0).evaluate(&all_null, None),
            TruthValue::No
        );
    }

    #[test]
    fn conjunction_short_circuits() {
        let s = stats(10, 20, 0, 100);
        let sarg = SearchArgument::with(vec![
            ColumnPredicate::Ge(0, Value::Int(15)),
            ColumnPredicate::Eq(1, Value::Int(999)),
        ]);
        // Column 1 stats say impossible -> whole conjunction is No.
        let other = stats(0, 5, 0, 100);
        let t = sarg.evaluate(|c| if c == 0 { Some(&s) } else { Some(&other) }, |_| None);
        assert_eq!(t, TruthValue::No);
    }

    #[test]
    fn in_list() {
        let s = stats(10, 20, 0, 100);
        assert_eq!(
            ColumnPredicate::In(0, vec![Value::Int(1), Value::Int(2)]).evaluate(&s, None),
            TruthValue::No
        );
        assert_eq!(
            ColumnPredicate::In(0, vec![Value::Int(1), Value::Int(12)]).evaluate(&s, None),
            TruthValue::Maybe
        );
    }

    /// A key set of the listed integers.
    #[derive(Debug)]
    struct Keys(Vec<i32>);

    impl KeyFilter for Keys {
        fn might_contain(&self, v: &Value) -> bool {
            matches!(v, Value::Int(x) if self.0.contains(x))
        }
    }

    #[test]
    fn reducer_skips_by_range_then_by_the_single_value() {
        let reducer = ColumnPredicate::Reducer {
            column: 0,
            min: Value::Int(5),
            max: Value::Int(9),
            filter: Arc::new(Keys(vec![5, 9])),
        };
        let t = |lo, hi| reducer.evaluate(&stats(lo, hi, 0, 10), None);
        assert_eq!(t(10, 20), TruthValue::No, "above the range");
        assert_eq!(t(0, 4), TruthValue::No, "below the range");
        assert_eq!(t(7, 7), TruthValue::No, "the one value is not a key");
        assert_eq!(t(9, 9), TruthValue::Maybe);
        assert_eq!(t(6, 8), TruthValue::Maybe, "several values: range only");
        assert_eq!(reducer.with_column(3).column(), 3);
    }
}
