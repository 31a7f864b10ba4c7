//! Table and column statistics stored in HMS and served to the
//! optimizer (paper §4.1). Statistics are additive: inserts and
//! per-partition stats merge onto existing values without rescanning.
//!
//! The types here hold only that additive data plus, inside the NDV
//! sketch and the histogram, a lazily derived query-ready summary (see
//! `derived`) that `Clone`, `PartialEq` and every fold ignore or drop.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::histogram::ColumnHistogram;
use crate::hll::HyperLogLog;
use hive_common::{hash, BitSet, ColumnVector, DecUnit, Value, VectorBatch};
use serde::{Deserialize, Serialize};

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ColumnStatsMeta {
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of NULLs.
    pub null_count: u64,
    /// NDV sketch (merged losslessly across partitions/inserts).
    pub ndv: HyperLogLog,
    /// Seeded equi-depth histogram over the column's numeric values
    /// (merged across partitions/inserts like the NDV sketch).
    pub histogram: ColumnHistogram,
}

impl ColumnStatsMeta {
    /// Estimated number of distinct values (computed once per sketch
    /// state).
    pub fn ndv_estimate(&self) -> u64 {
        self.ndv.estimate()
    }

    /// Fold one value in.
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        self.histogram.update(v);
        self.ndv.add(v);
        self.fold_min_max(v);
    }

    /// Widen min/max to cover `v` (the per-value comparator shared by
    /// `update`, `merge` and the vectorized column paths).
    fn fold_min_max(&mut self, v: &Value) {
        match &self.min {
            None => self.min = Some(v.clone()),
            Some(m) if v.sql_cmp(m) == Some(std::cmp::Ordering::Less) => self.min = Some(v.clone()),
            _ => {}
        }
        match &self.max {
            None => self.max = Some(v.clone()),
            Some(m) if v.sql_cmp(m) == Some(std::cmp::Ordering::Greater) => {
                self.max = Some(v.clone())
            }
            _ => {}
        }
    }

    /// Fold a whole column vector in.
    ///
    /// Byte-parity contract: the resulting stats are identical to
    /// calling [`ColumnStatsMeta::update`] on `col.get(i)` for every
    /// row in order — but without constructing (or cloning) a `Value`
    /// per row. Strings fold through [`HyperLogLog::add_str`] with
    /// `&str` min/max tracking; dictionary columns fold each *present*
    /// dictionary entry once (duplicate rows cannot move the sketch's
    /// registers, min/max, or the histogram — strings are invisible to
    /// it — so per-entry folding is state-identical to per-row);
    /// numeric columns reuse one canonical-encoding buffer across the
    /// column and feed the histogram from the primitive lane.
    pub fn update_column(&mut self, col: &ColumnVector) {
        match col {
            ColumnVector::Dict { codes, dict, nulls } => {
                let mut present = vec![false; dict.len()];
                match nulls {
                    Some(n) => {
                        for (i, &c) in codes.iter().enumerate() {
                            if n.get(i) {
                                self.null_count += 1;
                            } else {
                                present[c as usize] = true;
                            }
                        }
                    }
                    None => {
                        for &c in codes {
                            present[c as usize] = true;
                        }
                    }
                }
                let mut lo: Option<&String> = None;
                let mut hi: Option<&String> = None;
                for (c, s) in dict.iter().enumerate() {
                    if !present[c] {
                        continue;
                    }
                    self.ndv.add_str(s);
                    if lo.is_none_or(|m| s < m) {
                        lo = Some(s);
                    }
                    if hi.is_none_or(|m| s > m) {
                        hi = Some(s);
                    }
                }
                if let Some(s) = lo {
                    self.fold_min_max(&Value::String(s.clone()));
                }
                if let Some(s) = hi {
                    self.fold_min_max(&Value::String(s.clone()));
                }
            }
            ColumnVector::Str(vals, nulls) => {
                let mut buf = Vec::with_capacity(32);
                let mut lo: Option<&String> = None;
                let mut hi: Option<&String> = None;
                for (i, s) in vals.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|n| n.get(i)) {
                        self.null_count += 1;
                        continue;
                    }
                    buf.clear();
                    hash::encode_str(s.as_bytes(), &mut buf);
                    self.ndv.add_bytes(&buf);
                    if lo.is_none_or(|m| s < m) {
                        lo = Some(s);
                    }
                    if hi.is_none_or(|m| s > m) {
                        hi = Some(s);
                    }
                }
                if let Some(s) = lo {
                    self.fold_min_max(&Value::String(s.clone()));
                }
                if let Some(s) = hi {
                    self.fold_min_max(&Value::String(s.clone()));
                }
            }
            ColumnVector::Boolean(vals, nulls) => self.update_numeric(
                vals,
                nulls.as_ref(),
                Value::Boolean,
                |b, buf| {
                    buf.push(hash::TAG_BOOL);
                    buf.push(b as u8);
                },
                |b| b as u8 as f64,
            ),
            ColumnVector::Int(vals, nulls) => self.update_numeric(
                vals,
                nulls.as_ref(),
                Value::Int,
                |v, buf| hash::encode_i64(v as i64, buf),
                |v| v as f64,
            ),
            ColumnVector::BigInt(vals, nulls) => {
                self.update_numeric(vals, nulls.as_ref(), Value::BigInt, hash::encode_i64, |v| {
                    v as f64
                })
            }
            ColumnVector::Double(vals, nulls) => {
                self.update_numeric(vals, nulls.as_ref(), Value::Double, hash::encode_f64, |v| v)
            }
            ColumnVector::Decimal(vals, scale, nulls) => {
                let s = *scale;
                hive_common::with_dec!(vals, vals => self.update_numeric(
                    vals,
                    nulls.as_ref(),
                    |u| Value::Decimal(u.wide(), s),
                    |u, buf| hash::encode_decimal(u.wide(), s, buf),
                    |u| u.wide() as f64 / 10f64.powi(s as i32),
                ))
            }
            ColumnVector::Date(vals, nulls) => {
                self.update_numeric(vals, nulls.as_ref(), Value::Date, hash::encode_date, |v| {
                    v as f64
                })
            }
            ColumnVector::Timestamp(vals, nulls) => self.update_numeric(
                vals,
                nulls.as_ref(),
                Value::Timestamp,
                hash::encode_timestamp,
                |v| v as f64,
            ),
        }
    }

    /// Shared numeric-lane fold: bitmap null check, histogram from the
    /// primitive, NDV via a reused canonical-encoding buffer, min/max
    /// through the same `sql_cmp` fold as the per-value path (stack
    /// `Value`s — no heap traffic for numeric variants).
    fn update_numeric<T: Copy>(
        &mut self,
        vals: &[T],
        nulls: Option<&BitSet>,
        to_value: impl Fn(T) -> Value,
        encode: impl Fn(T, &mut Vec<u8>),
        to_f64: impl Fn(T) -> f64,
    ) {
        let mut buf = Vec::with_capacity(16);
        for (i, &x) in vals.iter().enumerate() {
            if nulls.is_some_and(|n| n.get(i)) {
                self.null_count += 1;
                continue;
            }
            self.histogram.update_f64(to_f64(x));
            buf.clear();
            encode(x, &mut buf);
            self.ndv.add_bytes(&buf);
            self.fold_min_max(&to_value(x));
        }
    }

    /// Additive merge with stats from another data slice.
    pub fn merge(&mut self, other: &ColumnStatsMeta) {
        self.null_count += other.null_count;
        self.ndv.merge(&other.ndv);
        self.histogram.merge(&other.histogram);
        for v in [&other.min, &other.max].into_iter().flatten() {
            self.fold_min_max(v);
        }
    }
}

/// Statistics for one table (or one partition of it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TableStats {
    /// Total row count.
    pub row_count: u64,
    /// Per-column statistics, aligned with the table schema.
    pub columns: Vec<ColumnStatsMeta>,
}

impl TableStats {
    /// Empty stats for `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        TableStats {
            row_count: 0,
            columns: vec![ColumnStatsMeta::default(); ncols],
        }
    }

    /// Fold a batch of new data in (the INSERT path).
    pub fn update_batch(&mut self, batch: &VectorBatch) {
        self.row_count += batch.num_rows() as u64;
        for (cs, col) in self.columns.iter_mut().zip(batch.columns()) {
            cs.update_column(col);
        }
    }

    /// Additive merge (cross-partition rollup).
    pub fn merge(&mut self, other: &TableStats) {
        self.row_count += other.row_count;
        if self.columns.len() < other.columns.len() {
            self.columns
                .resize(other.columns.len(), ColumnStatsMeta::default());
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Row, Schema};

    fn batch(vals: &[(i32, &str)]) -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("s", DataType::String),
        ]);
        let rows: Vec<Row> = vals
            .iter()
            .map(|(k, s)| {
                Row::new(vec![
                    Value::Int(*k),
                    if s.is_empty() {
                        Value::Null
                    } else {
                        Value::String((*s).into())
                    },
                ])
            })
            .collect();
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    #[test]
    fn update_batch_tracks_everything() {
        let mut st = TableStats::new(2);
        st.update_batch(&batch(&[(3, "a"), (1, "b"), (7, ""), (1, "a")]));
        assert_eq!(st.row_count, 4);
        assert_eq!(st.columns[0].min, Some(Value::Int(1)));
        assert_eq!(st.columns[0].max, Some(Value::Int(7)));
        assert_eq!(st.columns[0].ndv_estimate(), 3);
        assert_eq!(st.columns[1].null_count, 1);
        assert_eq!(st.columns[1].ndv_estimate(), 2);
    }

    /// Per-value oracle for the parity test below: the exact loop
    /// `update_column` replaced.
    fn update_column_per_value(cs: &mut ColumnStatsMeta, col: &ColumnVector) {
        for i in 0..col.len() {
            cs.update(&col.get(i));
        }
    }

    #[test]
    fn vectorized_update_column_matches_per_value_path() {
        use hive_common::BitSet;
        use std::sync::Arc;

        let mut nulls = BitSet::new(6);
        nulls.set(2);
        nulls.set(5);
        let dict = Arc::new(vec![
            "beta".to_string(),
            "alpha".to_string(),
            "gamma".to_string(),
            "alpha".to_string(), // duplicate entry collapses in NDV
        ]);
        let cols = vec![
            ColumnVector::Int(vec![3, 1, 0, 7, 1, 0], Some(nulls.clone())),
            ColumnVector::BigInt(vec![9, -2, 0, 9, 5, 0], Some(nulls.clone())),
            ColumnVector::Double(vec![1.5, 2.0, 0.0, -3.25, 2.0, 0.0], Some(nulls.clone())),
            ColumnVector::Decimal(
                vec![125i128, -50, 0, 125, 300, 0].into(),
                2,
                Some(nulls.clone()),
            ),
            ColumnVector::Boolean(
                vec![true, false, false, true, true, false],
                Some(nulls.clone()),
            ),
            ColumnVector::Date(vec![10, 0, 0, -4, 10, 0], Some(nulls.clone())),
            ColumnVector::Timestamp(vec![86_400, 0, 0, 7, 86_400, 0], Some(nulls.clone())),
            ColumnVector::Str(
                vec![
                    "m".into(),
                    "a".into(),
                    String::new(),
                    "z".into(),
                    "a".into(),
                    String::new(),
                ],
                Some(nulls.clone()),
            ),
            ColumnVector::Dict {
                codes: vec![0, 1, 0, 2, 3, 0],
                dict,
                nulls: Some(nulls),
            },
            // No null bitmap at all.
            ColumnVector::Int(vec![5, 5, 5], None),
        ];
        for col in &cols {
            let mut vectorized = ColumnStatsMeta::default();
            vectorized.update_column(col);
            let mut oracle = ColumnStatsMeta::default();
            update_column_per_value(&mut oracle, col);
            assert_eq!(
                vectorized,
                oracle,
                "vectorized path diverged on {:?}",
                col.data_type()
            );
        }
    }

    #[test]
    fn histogram_rides_along_with_stats() {
        let mut st = TableStats::new(2);
        st.update_batch(&batch(&[(3, "a"), (1, "b"), (7, ""), (1, "a")]));
        // Numeric column feeds the histogram; string column does not.
        assert_eq!(st.columns[0].histogram.total_rows(), 4);
        assert!(st.columns[1].histogram.is_empty());
    }

    #[test]
    fn merge_is_additive() {
        let mut a = TableStats::new(2);
        a.update_batch(&batch(&[(1, "x"), (2, "y")]));
        let mut b = TableStats::new(2);
        b.update_batch(&batch(&[(2, "z"), (9, "")]));
        let mut merged = a.clone();
        merged.merge(&b);
        // Compare with stats computed over the union.
        let mut whole = TableStats::new(2);
        whole.update_batch(&batch(&[(1, "x"), (2, "y"), (2, "z"), (9, "")]));
        assert_eq!(merged.row_count, whole.row_count);
        assert_eq!(merged.columns[0].min, whole.columns[0].min);
        assert_eq!(merged.columns[0].max, whole.columns[0].max);
        assert_eq!(
            merged.columns[0].ndv_estimate(),
            whole.columns[0].ndv_estimate()
        );
        assert_eq!(merged.columns[1].null_count, whole.columns[1].null_count);
    }
}
