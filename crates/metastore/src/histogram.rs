//! Seeded equi-depth column histograms (paper §4.1).
//!
//! HMS column statistics carry one [`ColumnHistogram`] per column next
//! to the HLL NDV sketch. The histogram is backed by a **deterministic
//! reservoir sample** of the column's numeric values: a pinned-seed
//! xorshift64* stream drives Algorithm-R replacement, so the sketch is
//! a pure function of the insertion sequence — identical across runs,
//! platforms and toolchains, which keeps `HIVE_FAULT_SEED`-style replay
//! and the histogram on/off differential oracle byte-stable.
//!
//! Equi-depth buckets are *derived* from the sample
//! ([`ColumnHistogram::buckets`]): the sample is sorted and split into
//! up to [`BUCKETS`] depth-equal runs, each carrying its value range,
//! row weight and bucket-local NDV. Under [`SAMPLE_CAP`] values the
//! sample is lossless, so bucket depths and NDVs are exact. The sorted
//! sample and the buckets form the histogram's query-ready **summary**:
//! built by the first reader of a given state, kept beside the additive
//! data in a `Derived` cell, and dropped by every method that changes
//! the sample — estimation reads it, INSERT folding never builds it.
//!
//! Merging (cross-partition rollup, the INSERT path) concatenates
//! samples while the union fits the cap — exact, order-independent up
//! to sample order — and otherwise takes a quantile-stride subsample of
//! each side proportional to its observed row weight, which preserves
//! the shape of both distributions without any randomness beyond the
//! pinned insertion stream.
//!
//! Only values with a numeric view ([`Value::as_f64`] /
//! [`Value::as_i64`]) are sampled; strings and NULLs are invisible to
//! the histogram (the optimizer falls back to NDV/constant selectivity
//! for those), which keeps the dictionary fast path in
//! `stats::ColumnStatsMeta::update_column` byte-identical to the
//! per-value path.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::derived::Derived;
use hive_common::Value;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reservoir capacity: below this many observed numeric values the
/// histogram is lossless.
pub const SAMPLE_CAP: usize = 8192;

/// Maximum number of derived equi-depth buckets.
pub const BUCKETS: usize = 64;

/// Pinned xorshift64* seed (split of the FNV-1a offset basis — an
/// arbitrary odd constant; the only requirement is that it never
/// changes).
const RNG_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One derived equi-depth bucket: `[lo, hi]` with an estimated row
/// weight and bucket-local distinct-value count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Smallest value in the bucket.
    pub lo: f64,
    /// Largest value in the bucket (inclusive).
    pub hi: f64,
    /// Estimated number of rows in the bucket (sample depth scaled to
    /// the observed total).
    pub rows: f64,
    /// Distinct values observed in the bucket's sample slice.
    pub ndv: f64,
}

/// A seeded equi-depth histogram over one column's numeric values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnHistogram {
    /// Reservoir sample (insertion order; at most [`SAMPLE_CAP`]).
    sample: Vec<f64>,
    /// Total numeric non-null values observed.
    seen: u64,
    /// xorshift64* state for Algorithm-R replacement.
    rng: u64,
    /// Query-ready view of `sample`; every method that writes `sample`
    /// invalidates it.
    summary: Derived<Summary>,
}

impl Default for ColumnHistogram {
    fn default() -> Self {
        ColumnHistogram {
            sample: Vec::new(),
            seen: 0,
            rng: RNG_SEED,
            summary: Derived::default(),
        }
    }
}

/// What estimation reads instead of the raw reservoir.
struct Summary {
    /// The sample in `f64::total_cmp` order.
    sorted: Vec<f64>,
    /// Up to [`BUCKETS`] equi-depth buckets over `sorted`.
    buckets: Vec<Bucket>,
}

/// Summaries derived since process start (a statistic: tests and probes
/// read it to show that planning derives each column's summary once).
static SUMMARIES_BUILT: AtomicU64 = AtomicU64::new(0);

/// Number of histogram summaries (sample sort + bucket derivation) built
/// by this process so far.
pub fn summaries_built() -> u64 {
    SUMMARIES_BUILT.load(Ordering::Relaxed)
}

/// Numeric view used for sampling: the same mapping
/// `optimizer::stats::range_selectivity` applies to min/max bounds, so
/// histogram estimates and range interpolation agree on the value axis.
pub fn numeric_view(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_i64().map(|x| x as f64))
}

impl ColumnHistogram {
    /// Observe one value. Non-numeric values (strings, NULLs) are
    /// ignored.
    pub fn update(&mut self, v: &Value) {
        if let Some(x) = numeric_view(v) {
            self.update_f64(x);
        }
    }

    /// Observe one numeric value (Algorithm-R reservoir step).
    pub fn update_f64(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.summary.invalidate();
        self.seen += 1;
        if self.sample.len() < SAMPLE_CAP {
            self.sample.push(x);
        } else {
            // Replace a random slot with probability CAP / seen.
            let j = self.next_below(self.seen);
            if (j as usize) < SAMPLE_CAP {
                self.sample[j as usize] = x;
            }
        }
    }

    /// xorshift64* step returning a value uniform in `[0, n)`.
    fn next_below(&mut self, n: u64) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    /// Total numeric values observed.
    pub fn total_rows(&self) -> u64 {
        self.seen
    }

    /// True when no numeric value has been observed.
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// Additive merge (cross-partition rollup). Exact (sample union)
    /// while the combined sample fits the cap; otherwise each side
    /// contributes a quantile-stride subsample proportional to its
    /// observed row weight.
    pub fn merge(&mut self, other: &ColumnHistogram) {
        if other.sample.is_empty() {
            return;
        }
        if self.sample.is_empty() {
            *self = other.clone();
            return;
        }
        self.summary.invalidate();
        let total = self.seen + other.seen;
        if self.sample.len() + other.sample.len() <= SAMPLE_CAP {
            self.sample.extend_from_slice(&other.sample);
        } else {
            let n_self = ((SAMPLE_CAP as u128 * self.seen as u128) / total as u128) as usize;
            let n_self = n_self.clamp(1, SAMPLE_CAP - 1);
            let n_other = SAMPLE_CAP - n_self;
            let mut merged = quantile_stride(&self.sample, n_self);
            merged.extend(quantile_stride(&other.sample, n_other));
            self.sample = merged;
        }
        self.seen = total;
        // Mix the two streams so subsequent replacement draws differ
        // from either input's continuation (still fully deterministic).
        self.rng ^= other.rng.rotate_left(32);
        if self.rng == 0 {
            self.rng = RNG_SEED;
        }
    }

    /// The additive data (`summary_tests` recomputes from it).
    #[cfg(test)]
    pub(crate) fn raw(&self) -> (&[f64], u64) {
        (&self.sample, self.seen)
    }

    fn summary(&self) -> &Summary {
        self.summary.get_or_build(|| {
            SUMMARIES_BUILT.fetch_add(1, Ordering::Relaxed);
            let mut sorted = self.sample.clone();
            sorted.sort_by(f64::total_cmp);
            let buckets = derive_buckets(&sorted, self.seen);
            Summary { sorted, buckets }
        })
    }

    /// Up to [`BUCKETS`] equi-depth buckets over the sample.
    pub fn buckets(&self) -> &[Bucket] {
        if self.sample.is_empty() {
            return &[];
        }
        &self.summary().buckets
    }

    /// Estimated fraction of (numeric, non-null) rows equal to `x`.
    ///
    /// Heavy hitters — values appearing more than once in the sample —
    /// are estimated end-biased from their sample frequency; everything
    /// else falls back to the equi-depth assumption inside the covering
    /// bucket (`depth / bucket NDV`). Returns `None` when the histogram
    /// is empty.
    pub fn eq_fraction(&self, x: f64) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let summary = self.summary();
        // Sample values equal to `x`: `total_cmp` order is non-decreasing
        // under `<` too (it only splits -0.0 from 0.0, which stay
        // adjacent), so both bounds are binary searches.
        let sorted = &summary.sorted;
        let hits = sorted.partition_point(|&v| v <= x) - sorted.partition_point(|&v| v < x);
        if hits >= 2 {
            return Some(hits as f64 / sorted.len() as f64);
        }
        for b in &summary.buckets {
            if x >= b.lo && x <= b.hi {
                let frac = b.rows / self.seen as f64;
                return Some(frac / b.ndv.max(1.0));
            }
        }
        // Outside every bucket: the value was never sampled.
        Some(0.0)
    }

    /// Estimated fraction of rows in `[lo, hi]` (either bound may be
    /// unbounded), by bucket interpolation. Returns `None` when the
    /// histogram is empty.
    pub fn range_fraction(&self, lo: Option<f64>, hi: Option<f64>) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let total = self.seen as f64;
        let mut rows = 0.0;
        for b in self.buckets() {
            rows += bucket_overlap_rows(b, lo, hi);
        }
        Some((rows / total).clamp(0.0, 1.0))
    }

    /// Smallest sampled value.
    pub fn min_value(&self) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        self.summary().sorted.first().copied()
    }

    /// Largest sampled value.
    pub fn max_value(&self) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        self.summary().sorted.last().copied()
    }
}

/// Split a `total_cmp`-sorted, non-empty sample standing for `seen` rows
/// into up to [`BUCKETS`] equi-depth buckets.
fn derive_buckets(sorted: &[f64], seen: u64) -> Vec<Bucket> {
    let scale = seen as f64 / sorted.len() as f64;
    let n = sorted.len();
    let nb = BUCKETS.min(n);
    let mut out = Vec::with_capacity(nb);
    let mut start = 0usize;
    for b in 0..nb {
        // Depth-equal split points; the last bucket absorbs the
        // remainder.
        let mut end = ((b + 1) * n) / nb;
        // Never split a run of equal values across buckets: extend
        // to cover the full run so `hi` boundaries are honest.
        while end < n && end > start && sorted[end - 1] == sorted[end] {
            end += 1;
        }
        if end <= start {
            continue;
        }
        let slice = &sorted[start..end];
        let mut ndv = 1u64;
        for w in slice.windows(2) {
            if w[0] != w[1] {
                ndv += 1;
            }
        }
        out.push(Bucket {
            lo: slice[0],
            hi: slice[end - start - 1],
            rows: slice.len() as f64 * scale,
            ndv: ndv as f64,
        });
        start = end;
        if start >= n {
            break;
        }
    }
    out
}

/// Rows of `b` falling inside the (inclusive) query range, assuming
/// values spread uniformly across the bucket and NDV-many equal steps.
fn bucket_overlap_rows(b: &Bucket, lo: Option<f64>, hi: Option<f64>) -> f64 {
    let qlo = lo.unwrap_or(f64::NEG_INFINITY);
    let qhi = hi.unwrap_or(f64::INFINITY);
    if qhi < b.lo || qlo > b.hi {
        return 0.0;
    }
    if qlo <= b.lo && qhi >= b.hi {
        return b.rows;
    }
    let width = b.hi - b.lo;
    if width <= 0.0 {
        // Single-valued bucket inside the range (checked above).
        return b.rows;
    }
    let cl = qlo.max(b.lo);
    let ch = qhi.min(b.hi);
    let mut frac = (ch - cl) / width;
    // Discrete correction: an inclusive range covering k of the
    // bucket's ndv steps holds at least one step's worth of rows.
    frac = frac.max(1.0 / b.ndv.max(1.0));
    b.rows * frac.clamp(0.0, 1.0)
}

/// Estimated join selectivity factor for `l ⋈ r` on the histogrammed
/// key: `|out| ≈ factor · |L| · |R|`. Computed by summing, over the
/// elementary segments of the two bucket sets' merged boundaries,
/// `rows_l(seg) · rows_r(seg) / max(ndv_l(seg), ndv_r(seg))` — the
/// containment assumption applied per segment instead of globally, so
/// skewed overlap regions (one heavy key on both sides) dominate the
/// estimate the way they dominate the real join. Returns `None` when
/// either histogram is empty.
pub fn join_selectivity(l: &ColumnHistogram, r: &ColumnHistogram) -> Option<f64> {
    if l.is_empty() || r.is_empty() {
        return None;
    }
    let lb = l.buckets();
    let rb = r.buckets();
    let l_total = l.total_rows() as f64;
    let r_total = r.total_rows() as f64;

    // Merged boundary points across both bucket sets.
    let mut bounds: Vec<f64> = Vec::with_capacity((lb.len() + rb.len()) * 2);
    for b in lb.iter().chain(rb.iter()) {
        bounds.push(b.lo);
        bounds.push(b.hi);
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();

    // Elementary segments: a zero-width point at every merged boundary
    // (where single-valued buckets — heavy hitters and low-NDV keys —
    // concentrate their mass) alternating with the open interval to the
    // next boundary. Distributing each bucket's rows across these
    // segments with per-bucket normalization counts every row exactly
    // once, so a key taking k distinct values joins at exactly 1/k.
    let mut segs: Vec<(f64, f64)> = Vec::with_capacity(bounds.len() * 2);
    for (i, &v) in bounds.iter().enumerate() {
        segs.push((v, v));
        if let Some(&next) = bounds.get(i + 1) {
            segs.push((v, next));
        }
    }
    let l_seg = distribute_over_segments(lb, &bounds, &segs);
    let r_seg = distribute_over_segments(rb, &bounds, &segs);

    let mut out_rows = 0.0;
    for (i, &(lo, hi)) in segs.iter().enumerate() {
        let (lr, mut ln) = l_seg[i];
        let (rr, mut rn) = r_seg[i];
        if lr <= 0.0 || rr <= 0.0 {
            continue;
        }
        if hi <= lo {
            // A point segment holds exactly one value per side.
            ln = 1.0;
            rn = 1.0;
        }
        out_rows += lr * rr / ln.max(rn).max(1.0);
    }
    if out_rows <= 0.0 {
        return Some(0.0);
    }
    Some((out_rows / (l_total * r_total)).clamp(0.0, 1.0))
}

/// Per-segment (rows, ndv) attribution of a bucket list over the
/// elementary segments of `join_selectivity`. A point segment inside a
/// wide bucket weighs one discrete step (`1/ndv`); an open interval
/// weighs its width fraction; zero-width buckets sit wholly on their
/// point. Weights are normalized per bucket so its rows are partitioned
/// across the segments rather than double-counted at shared boundaries.
///
/// `segs[2k]` is the point at `bounds[k]` and `segs[2k + 1]` the open
/// interval to `bounds[k + 1]`, so a bucket can only weigh on the
/// segments between its own two boundaries: those are found by binary
/// search (one interval of slack on each side) and the rest, whose
/// weight is exactly zero, skipped — adding zeros changes no sum.
fn distribute_over_segments(
    buckets: &[Bucket],
    bounds: &[f64],
    segs: &[(f64, f64)],
) -> Vec<(f64, f64)> {
    let mut out = vec![(0.0, 0.0); segs.len()];
    for b in buckets {
        let first = (2 * bounds.partition_point(|&v| v < b.lo)).saturating_sub(1);
        let last = (2 * bounds.partition_point(|&v| v <= b.hi) + 1).min(segs.len());
        let (out, segs) = (&mut out[first..last], &segs[first..last]);
        let width = b.hi - b.lo;
        let weight = |&(lo, hi): &(f64, f64)| -> f64 {
            if hi <= lo {
                // Point segment.
                if b.lo <= lo && lo <= b.hi {
                    if width <= 0.0 {
                        1.0
                    } else {
                        1.0 / b.ndv.max(1.0)
                    }
                } else {
                    0.0
                }
            } else if width <= 0.0 {
                // Zero-width buckets live entirely on their point.
                0.0
            } else {
                let cl = lo.max(b.lo);
                let ch = hi.min(b.hi);
                if ch > cl {
                    (ch - cl) / width
                } else {
                    0.0
                }
            }
        };
        let total: f64 = segs.iter().map(weight).sum();
        if total <= 0.0 {
            continue;
        }
        for (i, seg) in segs.iter().enumerate() {
            let w = weight(seg) / total;
            if w <= 0.0 {
                continue;
            }
            out[i].0 += b.rows * w;
            out[i].1 += (b.ndv * w).clamp(1.0, b.ndv.max(1.0));
        }
    }
    out
}

/// `k` evenly spaced order statistics of `sample` (a quantile-stride
/// subsample): deterministic, order-insensitive, shape-preserving.
fn quantile_stride(sample: &[f64], k: usize) -> Vec<f64> {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if k >= n {
        return sorted;
    }
    (0..k).map(|i| sorted[(i * n + n / 2) / k.max(1)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(vals: impl IntoIterator<Item = f64>) -> ColumnHistogram {
        let mut h = ColumnHistogram::default();
        for v in vals {
            h.update_f64(v);
        }
        h
    }

    #[test]
    fn deterministic_across_runs() {
        let a = hist_of((0..50_000).map(|i| (i % 997) as f64));
        let b = hist_of((0..50_000).map(|i| (i % 997) as f64));
        assert_eq!(a, b, "pinned-seed reservoir must be reproducible");
        assert_eq!(a.total_rows(), 50_000);
        assert_eq!(a.buckets().len(), BUCKETS);
    }

    #[test]
    fn lossless_under_cap() {
        let h = hist_of((0..1000).map(|i| i as f64));
        assert_eq!(h.total_rows(), 1000);
        let total: f64 = h.buckets().iter().map(|b| b.rows).sum();
        assert!((total - 1000.0).abs() < 1e-9);
        // Uniform 0..1000: a half-range predicate lands near 50%.
        let f = h.range_fraction(None, Some(499.0)).unwrap();
        assert!((f - 0.5).abs() < 0.02, "got {f}");
        // Point equality on a unique value: 1/1000.
        let e = h.eq_fraction(500.0).unwrap();
        assert!((e - 0.001).abs() < 0.001, "got {e}");
    }

    #[test]
    fn heavy_hitter_equality_is_end_biased() {
        // 90% of rows are the single value 7.
        let mut vals = vec![7.0; 9000];
        vals.extend((0..1000).map(|i| i as f64));
        let h = hist_of(vals);
        let e = h.eq_fraction(7.0).unwrap();
        assert!(e > 0.8, "heavy hitter fraction {e} should be ~0.9");
        let cold = h.eq_fraction(900.0).unwrap();
        assert!(cold < 0.01, "cold value fraction {cold} should be tiny");
    }

    #[test]
    fn skewed_join_overlap_beats_containment() {
        // L: one heavy key (0) plus a uniform tail; R1 hits the heavy
        // key, R2 only the tail. Overlap-based selectivity must rank
        // L⋈R1 far above L⋈R2 — bare max-NDV containment cannot.
        let mut l = vec![0.0; 5000];
        l.extend((1..1001).map(|i| i as f64));
        let l = hist_of(l);
        let r_heavy = hist_of(std::iter::repeat_n(0.0, 100));
        let r_tail = hist_of((1..101).map(|i| i as f64));
        let s_heavy = join_selectivity(&l, &r_heavy).unwrap();
        let s_tail = join_selectivity(&l, &r_tail).unwrap();
        // Heavy join truly yields 5000*100 rows => sel ~ 0.833.
        // Tail join yields 100 rows => sel ~ 1.7e-4.
        assert!(
            s_heavy > 50.0 * s_tail,
            "overlap must separate skew: heavy {s_heavy} vs tail {s_tail}"
        );
    }

    #[test]
    fn merge_exact_when_under_cap() {
        let a = hist_of((0..2000).map(|i| i as f64));
        let b = hist_of((2000..4000).map(|i| i as f64));
        let mut m = a.clone();
        m.merge(&b);
        let whole = hist_of((0..4000).map(|i| i as f64));
        assert_eq!(m.total_rows(), whole.total_rows());
        // Same multiset of samples => identical sorted buckets.
        assert_eq!(m.buckets(), whole.buckets());
    }

    #[test]
    fn merge_over_cap_stays_close() {
        let a = hist_of((0..30_000).map(|i| (i % 500) as f64));
        let b = hist_of((0..30_000).map(|i| (500 + i % 500) as f64));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total_rows(), 60_000);
        // Half the merged mass sits below 500.
        let f = m.range_fraction(None, Some(499.0)).unwrap();
        assert!((f - 0.5).abs() < 0.05, "got {f}");
    }

    #[test]
    fn non_numeric_and_null_ignored() {
        let mut h = ColumnHistogram::default();
        h.update(&Value::Null);
        h.update(&Value::String("x".into()));
        assert!(h.is_empty());
        h.update(&Value::Int(3));
        h.update(&Value::Date(10));
        assert_eq!(h.total_rows(), 2);
    }
}
