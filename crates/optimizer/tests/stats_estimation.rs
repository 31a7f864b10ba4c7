//! Estimation battery over known data distributions: `estimate_rows`
//! with histogram-driven selectivity must land within bounded error of
//! the true cardinalities for uniform, zipf-skewed, all-NULL and
//! single-valued columns — and merged per-partition histograms must
//! agree with a whole-table histogram.

use hive_common::{DataType, Field, Schema, Value};
use hive_metastore::{ColumnHistogram, TableStats};
use hive_optimizer::plan::{LogicalPlan, ScanTable};
use hive_optimizer::stats::{estimate_rows, GatedStats, StatsSource};
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

struct FakeStats(HashMap<String, Arc<TableStats>>);

impl StatsSource for FakeStats {
    fn stats_for(&self, q: &str) -> Arc<TableStats> {
        self.0.get(q).map(Arc::clone).unwrap_or_default()
    }
}

/// A one-column scan of `name` whose column stats were folded from
/// `values` (row count = values.len()).
fn scan_of(name: &str, values: &[Value]) -> (LogicalPlan, FakeStats) {
    let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
    let plan = LogicalPlan::Scan {
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
        projection: vec![0],
        filters: vec![],
        partitions: None,
        semijoin_filters: vec![],
    };
    let mut stats = TableStats::new(1);
    stats.row_count = values.len() as u64;
    for v in values {
        stats.columns[0].update(v);
    }
    let mut m = HashMap::new();
    m.insert(format!("default.{name}"), Arc::new(stats));
    (plan, FakeStats(m))
}

fn with_filter(plan: LogicalPlan, pred: ScalarExpr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            mut filters,
            partitions,
            semijoin_filters,
        } => {
            filters.push(pred);
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                partitions,
                semijoin_filters,
            }
        }
        other => other,
    }
}

fn gated(src: &FakeStats) -> GatedStats<'_> {
    GatedStats {
        inner: src,
        use_histograms: true,
        feedback: Default::default(),
    }
}

fn eq(col: usize, v: i32) -> ScalarExpr {
    ScalarExpr::eq(ScalarExpr::Column(col), ScalarExpr::Literal(Value::Int(v)))
}

fn cmp(op: BinaryOp, col: usize, v: i32) -> ScalarExpr {
    ScalarExpr::Binary {
        op,
        left: Box::new(ScalarExpr::Column(col)),
        right: Box::new(ScalarExpr::Literal(Value::Int(v))),
    }
}

fn true_count(values: &[Value], f: impl Fn(i32) -> bool) -> f64 {
    values
        .iter()
        .filter(|v| matches!(v, Value::Int(x) if f(*x)))
        .count() as f64
}

#[test]
fn uniform_distribution_bounded_error() {
    // 0..1000, each value exactly 100 times.
    let values: Vec<Value> = (0..100_000).map(|i| Value::Int(i % 1000)).collect();
    let (plan, src) = scan_of("uni", &values);
    let src = gated(&src);

    // Range: a <= 249 keeps exactly 25% of rows.
    let truth = true_count(&values, |x| x <= 249);
    let est = estimate_rows(
        &with_filter(plan.clone(), cmp(BinaryOp::LtEq, 0, 249)),
        &src,
    );
    assert!(
        (est - truth).abs() / truth < 0.5,
        "uniform range: est {est} vs truth {truth}"
    );

    // Equality: each value holds 0.1% of rows.
    let truth = true_count(&values, |x| x == 500);
    let est = estimate_rows(&with_filter(plan, eq(0, 500)), &src);
    assert!(
        est >= truth / 10.0 && est <= truth * 10.0,
        "uniform eq: est {est} vs truth {truth}"
    );
}

#[test]
fn zipf_distribution_heavy_hitter_dominates() {
    // Rank k (1..=50) appears 10_000/k times: rank 1 holds ~22% of all
    // rows, rank 50 only ~0.4%.
    let mut values = Vec::new();
    for k in 1..=50i32 {
        for _ in 0..(10_000 / k) {
            values.push(Value::Int(k));
        }
    }
    let n = values.len() as f64;
    let (plan, src) = scan_of("zipf", &values);
    let src = gated(&src);

    let truth_heavy = true_count(&values, |x| x == 1);
    let est_heavy = estimate_rows(&with_filter(plan.clone(), eq(0, 1)), &src);
    assert!(
        est_heavy >= truth_heavy / 2.0 && est_heavy <= truth_heavy * 2.0,
        "zipf heavy hitter: est {est_heavy} vs truth {truth_heavy}"
    );

    // The tail value must NOT be estimated anywhere near the heavy
    // hitter — this asymmetry is what a constant 1/NDV can't express.
    let est_tail = estimate_rows(&with_filter(plan, eq(0, 50)), &src);
    assert!(
        est_tail < n * 0.05,
        "zipf tail: est {est_tail} must stay small (n={n})"
    );
    assert!(
        est_heavy > est_tail * 5.0,
        "skew must separate head ({est_heavy}) from tail ({est_tail})"
    );
}

#[test]
fn all_null_column_matches_nothing() {
    let values = vec![Value::Null; 10_000];
    let (plan, src) = scan_of("nulls", &values);
    let src = gated(&src);
    // Equality never matches NULL: the estimate collapses to the floor.
    let est = estimate_rows(&with_filter(plan, eq(0, 5)), &src);
    assert!(est <= 1.0 + f64::EPSILON, "all-null eq: est {est}");
}

#[test]
fn single_value_column_is_all_or_nothing() {
    let values = vec![Value::Int(7); 50_000];
    let (plan, src) = scan_of("single", &values);
    let src = gated(&src);
    let est_hit = estimate_rows(&with_filter(plan.clone(), eq(0, 7)), &src);
    assert!(
        est_hit > 45_000.0,
        "single-value eq on the value: est {est_hit}"
    );
    let est_miss = estimate_rows(&with_filter(plan, eq(0, 8)), &src);
    assert!(
        est_miss <= 1.0 + f64::EPSILON,
        "single-value eq off the value: est {est_miss}"
    );
}

#[test]
fn histograms_off_falls_back_to_constants() {
    // Same skewed data, gate off: head and tail estimate identically
    // (1/NDV) — the differential oracle the toggle preserves.
    let mut values = Vec::new();
    for k in 1..=50i32 {
        for _ in 0..(10_000 / k) {
            values.push(Value::Int(k));
        }
    }
    let (plan, src) = scan_of("zipf_off", &values);
    let off = GatedStats {
        inner: &src,
        use_histograms: false,
        feedback: Default::default(),
    };
    let est_head = estimate_rows(&with_filter(plan.clone(), eq(0, 1)), &off);
    let est_tail = estimate_rows(&with_filter(plan, eq(0, 50)), &off);
    assert!(
        (est_head - est_tail).abs() < 1e-9,
        "constant path cannot separate head ({est_head}) from tail ({est_tail})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding a table's values partition-by-partition and merging the
    /// per-partition histograms must answer range queries like one
    /// histogram built over the whole table. Under the sample cap the
    /// merge is lossless, so the agreement is exact.
    #[test]
    fn merged_partition_histograms_match_whole_table(
        part_a in proptest::collection::vec(-500i32..500, 1..600),
        part_b in proptest::collection::vec(-500i32..500, 1..600),
        bound in -500i32..500,
    ) {
        let mut whole = ColumnHistogram::default();
        let mut ha = ColumnHistogram::default();
        let mut hb = ColumnHistogram::default();
        for &x in &part_a {
            whole.update(&Value::Int(x));
            ha.update(&Value::Int(x));
        }
        for &x in &part_b {
            whole.update(&Value::Int(x));
            hb.update(&Value::Int(x));
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.total_rows(), whole.total_rows());
        let w = whole.range_fraction(None, Some(bound as f64)).unwrap();
        let m = merged.range_fraction(None, Some(bound as f64)).unwrap();
        prop_assert!((w - m).abs() < 1e-9, "whole {} vs merged {}", w, m);
        let we = whole.eq_fraction(bound as f64).unwrap();
        let me = merged.eq_fraction(bound as f64).unwrap();
        prop_assert!((we - me).abs() < 1e-9, "eq whole {} vs merged {}", we, me);
    }
}
