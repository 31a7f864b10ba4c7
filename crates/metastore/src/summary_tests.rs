//! Snapshots and summaries: every estimate read through a lazily built
//! summary must equal, bit for bit, what the clone-and-sort code it
//! replaced computes from the same additive data — whatever updates,
//! merges, clones and snapshot hand-outs came before the read — and a
//! published snapshot must never change under its holder.

use crate::histogram::{join_selectivity, Bucket, BUCKETS, SAMPLE_CAP};
use crate::{ColumnStatsMeta, Metastore, TableStats};
use hive_common::{ColumnVector, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// The estimation code as it was before summaries existed: every call
/// copies the sample, sorts it and derives the buckets again. Kept here
/// only, as the reference.
mod old {
    use super::{Bucket, BUCKETS};

    pub fn buckets(sample: &[f64], seen: u64) -> Vec<Bucket> {
        if sample.is_empty() {
            return Vec::new();
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let scale = seen as f64 / sorted.len() as f64;
        let n = sorted.len();
        let nb = BUCKETS.min(n);
        let mut out = Vec::with_capacity(nb);
        let mut start = 0usize;
        for b in 0..nb {
            let mut end = ((b + 1) * n) / nb;
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

    pub fn eq_fraction(sample: &[f64], seen: u64, x: f64) -> Option<f64> {
        if sample.is_empty() {
            return None;
        }
        let hits = sample.iter().filter(|&&v| v == x).count();
        if hits >= 2 {
            return Some(hits as f64 / sample.len() as f64);
        }
        for b in buckets(sample, seen) {
            if x >= b.lo && x <= b.hi {
                let frac = b.rows / seen as f64;
                return Some(frac / b.ndv.max(1.0));
            }
        }
        Some(0.0)
    }

    pub fn range_fraction(
        sample: &[f64],
        seen: u64,
        lo: Option<f64>,
        hi: Option<f64>,
    ) -> Option<f64> {
        if sample.is_empty() {
            return None;
        }
        let total = seen as f64;
        let mut rows = 0.0;
        for b in buckets(sample, seen) {
            rows += bucket_overlap_rows(&b, lo, hi);
        }
        Some((rows / total).clamp(0.0, 1.0))
    }

    pub fn min_value(sample: &[f64]) -> Option<f64> {
        sample.iter().copied().min_by(f64::total_cmp)
    }

    pub fn max_value(sample: &[f64]) -> Option<f64> {
        sample.iter().copied().max_by(f64::total_cmp)
    }

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
            return b.rows;
        }
        let cl = qlo.max(b.lo);
        let ch = qhi.min(b.hi);
        let mut frac = (ch - cl) / width;
        frac = frac.max(1.0 / b.ndv.max(1.0));
        b.rows * frac.clamp(0.0, 1.0)
    }

    pub fn join_selectivity(l: (&[f64], u64), r: (&[f64], u64)) -> Option<f64> {
        if l.0.is_empty() || r.0.is_empty() {
            return None;
        }
        let lb = buckets(l.0, l.1);
        let rb = buckets(r.0, r.1);
        let l_total = l.1 as f64;
        let r_total = r.1 as f64;
        let mut bounds: Vec<f64> = Vec::with_capacity((lb.len() + rb.len()) * 2);
        for b in lb.iter().chain(rb.iter()) {
            bounds.push(b.lo);
            bounds.push(b.hi);
        }
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let mut segs: Vec<(f64, f64)> = Vec::with_capacity(bounds.len() * 2);
        for (i, &v) in bounds.iter().enumerate() {
            segs.push((v, v));
            if let Some(&next) = bounds.get(i + 1) {
                segs.push((v, next));
            }
        }
        let l_seg = distribute_over_segments(&lb, &segs);
        let r_seg = distribute_over_segments(&rb, &segs);
        let mut out_rows = 0.0;
        for (i, &(lo, hi)) in segs.iter().enumerate() {
            let (lr, mut ln) = l_seg[i];
            let (rr, mut rn) = r_seg[i];
            if lr <= 0.0 || rr <= 0.0 {
                continue;
            }
            if hi <= lo {
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

    /// Every bucket against every segment.
    fn distribute_over_segments(buckets: &[Bucket], segs: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); segs.len()];
        for b in buckets {
            let width = b.hi - b.lo;
            let weight = |&(lo, hi): &(f64, f64)| -> f64 {
                if hi <= lo {
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

    /// The per-call register loop `HyperLogLog::estimate` used to be.
    pub fn hll_estimate(registers: &[u8]) -> u64 {
        let m = registers.len() as f64;
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            let lc = m * (m / zeros as f64).ln();
            return lc.round() as u64;
        }
        raw.round() as u64
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn bucket_bits(buckets: &[Bucket]) -> Vec<[u64; 4]> {
    buckets
        .iter()
        .map(|b| {
            [
                b.lo.to_bits(),
                b.hi.to_bits(),
                b.rows.to_bits(),
                b.ndv.to_bits(),
            ]
        })
        .collect()
}

/// Every summary-backed read of `cs` (and its join against `other`)
/// equals the old code's answer over `cs`'s additive data.
fn assert_reads_match_old(cs: &ColumnStatsMeta, other: &ColumnStatsMeta, probes: &[f64]) {
    let h = &cs.histogram;
    let (sample, seen) = h.raw();
    assert_eq!(
        bucket_bits(h.buckets()),
        bucket_bits(&old::buckets(sample, seen)),
        "buckets"
    );
    assert_eq!(bits(h.min_value()), bits(old::min_value(sample)), "min");
    assert_eq!(bits(h.max_value()), bits(old::max_value(sample)), "max");
    for &x in probes {
        assert_eq!(
            bits(h.eq_fraction(x)),
            bits(old::eq_fraction(sample, seen, x)),
            "eq_fraction({x})"
        );
        for (lo, hi) in [
            (None, Some(x)),
            (Some(x), None),
            (Some(x), Some(x + 3.0)),
            (None, None),
        ] {
            assert_eq!(
                bits(h.range_fraction(lo, hi)),
                bits(old::range_fraction(sample, seen, lo, hi)),
                "range_fraction({lo:?}, {hi:?})"
            );
        }
    }
    assert_eq!(
        cs.ndv_estimate(),
        old::hll_estimate(cs.ndv.registers()),
        "ndv_estimate"
    );
    for (l, r) in [(cs, other), (other, cs)] {
        assert_eq!(
            bits(join_selectivity(&l.histogram, &r.histogram)),
            bits(old::join_selectivity(l.histogram.raw(), r.histogram.raw())),
            "join_selectivity"
        );
    }
}

const PROBES: [f64; 8] = [-1.0, -0.0, 0.0, 1.0, 3.0, 7.0, 19.0, 25.5];

fn stats_of(values: impl IntoIterator<Item = f64>) -> ColumnStatsMeta {
    let mut cs = ColumnStatsMeta::default();
    for v in values {
        cs.update(&Value::Double(v));
    }
    cs
}

#[test]
fn summary_reads_match_old_code_on_edge_samples() {
    // (name, sample sits at SAMPLE_CAP, statistics)
    let cases: Vec<(&str, bool, ColumnStatsMeta)> = vec![
        ("empty", false, ColumnStatsMeta::default()),
        ("single value", false, stats_of([7.0])),
        ("all equal", false, stats_of(std::iter::repeat_n(7.0, 1000))),
        ("signed zeros", false, stats_of([0.0, -0.0, 0.0, -0.0, 1.0])),
        (
            "exactly the cap",
            true,
            stats_of((0..SAMPLE_CAP).map(|i| (i % 3000) as f64)),
        ),
        (
            "past the cap (reservoir replacement)",
            true,
            stats_of((0..SAMPLE_CAP + 5000).map(|i| (i % 977) as f64)),
        ),
        ("heavy hitter plus tail", false, {
            let mut v = vec![3.0; 5000];
            v.extend((0..2000).map(|i| i as f64));
            stats_of(v)
        }),
        ("merged past the cap", true, {
            let mut a = stats_of((0..6000).map(|i| (i % 500) as f64));
            a.merge(&stats_of((0..6000).map(|i| (500 + i % 700) as f64)));
            a
        }),
    ];
    let other = stats_of((0..300).map(|i| (i % 40) as f64));
    for (name, at_cap, cs) in &cases {
        assert_eq!(cs.histogram.raw().0.len() == SAMPLE_CAP, *at_cap, "{name}");
        // Twice: the second round reads the summaries the first built.
        for _ in 0..2 {
            assert_reads_match_old(cs, &other, &PROBES);
            assert_reads_match_old(&other, cs, &PROBES);
        }
    }
}

#[test]
fn a_clone_starts_without_its_origins_summary() {
    let mut a = stats_of((0..500).map(|i| (i % 50) as f64));
    let before = bucket_bits(a.histogram.buckets());
    assert_eq!(a.ndv_estimate(), 50);
    // The clone is written to; the origin keeps what it derived.
    let mut b = a.clone();
    b.merge(&stats_of((1000..1500).map(|i| i as f64)));
    assert_eq!(bucket_bits(a.histogram.buckets()), before);
    assert_reads_match_old(&b, &a, &PROBES);
    assert_eq!(b.ndv_estimate(), old::hll_estimate(b.ndv.registers()));
    assert!(b.ndv_estimate() > 500);
    // And the other way round: writing to the origin after the clone
    // read its own summary.
    assert_reads_match_old(&b, &a, &PROBES);
    a.update_column(&ColumnVector::Int((2000..2100).collect(), None));
    assert_reads_match_old(&a, &b, &PROBES);
    assert_reads_match_old(&b, &a, &PROBES);
}

#[derive(Debug, Clone)]
enum Op {
    /// `update` per value.
    Update(usize, Vec<i32>),
    /// One vectorized `update_column`.
    UpdateColumn(usize, Vec<i32>),
    /// `world[to].merge(world[from])`.
    Merge(usize, usize),
    /// `world[to]` becomes a clone of `world[from]`.
    CloneOver(usize, usize),
    /// Hand the current `Arc` out; it is held to the end.
    Snapshot(usize),
    /// Read everything (filling summaries) on `world[i]` against `[j]`.
    Read(usize, usize),
}

const WORLD: usize = 3;

fn op() -> impl Strategy<Value = Op> {
    let values = || proptest::collection::vec(0..20i32, 0..40);
    prop_oneof![
        (0..WORLD, values()).prop_map(|(i, v)| Op::Update(i, v)),
        (0..WORLD, values()).prop_map(|(i, v)| Op::UpdateColumn(i, v)),
        (0..WORLD, 0..WORLD).prop_map(|(a, b)| Op::Merge(a, b)),
        (0..WORLD, 0..WORLD).prop_map(|(a, b)| Op::CloneOver(a, b)),
        (0..WORLD).prop_map(Op::Snapshot),
        (0..WORLD, 0..WORLD).prop_map(|(a, b)| Op::Read(a, b)),
        (0..WORLD, 0..WORLD).prop_map(|(a, b)| Op::Read(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of writes (through `Arc::make_mut`, so they
    /// are in place or copy-on-write depending on who holds the state),
    /// clones, snapshot hand-outs and summary reads.
    #[test]
    fn reads_equal_a_from_scratch_recompute(ops in proptest::collection::vec(op(), 1..40)) {
        let mut world: Vec<Arc<ColumnStatsMeta>> =
            (0..WORLD).map(|_| Arc::new(ColumnStatsMeta::default())).collect();
        // (snapshot, deep copy of its additive data when handed out)
        let mut held: Vec<(Arc<ColumnStatsMeta>, ColumnStatsMeta)> = Vec::new();
        for op in &ops {
            match op {
                Op::Update(i, values) => {
                    let cs = Arc::make_mut(&mut world[*i]);
                    for v in values {
                        cs.update(&if *v == 0 { Value::Null } else { Value::Int(*v) });
                    }
                }
                Op::UpdateColumn(i, values) => {
                    Arc::make_mut(&mut world[*i]).update_column(&ColumnVector::Int(values.clone(), None));
                }
                Op::Merge(to, from) => {
                    let from = Arc::clone(&world[*from]);
                    Arc::make_mut(&mut world[*to]).merge(&from);
                }
                Op::CloneOver(to, from) => {
                    world[*to] = Arc::new((*world[*from]).clone());
                }
                Op::Snapshot(i) => {
                    held.push((Arc::clone(&world[*i]), (*world[*i]).clone()));
                }
                Op::Read(i, j) => {
                    assert_reads_match_old(&world[*i], &world[*j], &PROBES);
                }
            }
        }
        for i in 0..WORLD {
            assert_reads_match_old(&world[i], &world[(i + 1) % WORLD], &PROBES);
        }
        for (snapshot, copy) in &held {
            prop_assert_eq!(&**snapshot, copy);
            assert_reads_match_old(snapshot, &world[0], &PROBES);
        }
    }
}

fn delta(rows: std::ops::Range<i32>) -> TableStats {
    let mut d = TableStats::new(1);
    d.row_count = rows.len() as u64;
    d.columns[0].update_column(&ColumnVector::Int(rows.collect(), None));
    d
}

#[test]
fn table_stats_hands_out_the_published_arc() {
    let ms = Metastore::new();
    ms.set_table_stats("default.t", delta(0..100));
    let a = ms.table_stats("default.t");
    let b = ms.table_stats("default.t");
    assert!(Arc::ptr_eq(&a, &b), "two fetches of one state are one Arc");
    // A summary derived through one handle is the one the other reads.
    let buckets = a.columns[0].histogram.buckets().as_ptr();
    assert_eq!(b.columns[0].histogram.buckets().as_ptr(), buckets);
    // Unknown tables read as empty statistics.
    assert_eq!(*ms.table_stats("default.nope"), TableStats::default());
}

#[test]
fn a_held_snapshot_survives_a_merge_unchanged() {
    let ms = Metastore::new();
    ms.set_table_stats("default.t", delta(0..100));
    let held = ms.table_stats("default.t");
    let copy = (*held).clone();
    let held_buckets = bucket_bits(held.columns[0].histogram.buckets());

    ms.merge_table_stats("default.t", &delta(100..300));

    assert_eq!(*held, copy, "the snapshot is immutable");
    assert_eq!(
        bucket_bits(held.columns[0].histogram.buckets()),
        held_buckets
    );
    let next = ms.table_stats("default.t");
    assert!(!Arc::ptr_eq(&held, &next));
    assert_eq!(next.row_count, 300);
    // The new state's summary is of the new data, not the held one's.
    assert_reads_match_old(&next.columns[0], &held.columns[0], &PROBES);
    assert_eq!(next.columns[0].histogram.max_value(), Some(299.0));

    // With no reader holding the state the merge is in place — and the
    // summary read above must not survive it.
    drop(next);
    ms.merge_table_stats("default.t", &delta(300..400));
    let last = ms.table_stats("default.t");
    assert_eq!(last.columns[0].histogram.max_value(), Some(399.0));
    assert_reads_match_old(&last.columns[0], &held.columns[0], &PROBES);
}

/// Four readers estimate while one writer merges. Each round is fenced
/// by barriers, so every reader races the round's merge and must see
/// either the state before it or the state after it — whole: row count,
/// histogram and summary of one and the same state.
#[test]
fn concurrent_readers_see_only_whole_snapshots() {
    const ROUNDS: i32 = 24;
    const STEP: i32 = 100;
    let ms = Metastore::new();
    ms.set_table_stats("default.t", delta(0..STEP));
    let barrier = Barrier::new(5);
    let failed = AtomicBool::new(false);
    let check = |snap: &TableStats, allowed: [u64; 2]| {
        let h = &snap.columns[0].histogram;
        let bucket_rows: f64 = h.buckets().iter().map(|b| b.rows).sum();
        let whole = allowed.contains(&snap.row_count)
            && h.total_rows() == snap.row_count
            && bucket_rows == snap.row_count as f64
            && h.max_value() == Some(snap.row_count as f64 - 1.0)
            && snap.columns[0].ndv_estimate() == old::hll_estimate(snap.columns[0].ndv.registers());
        if !whole {
            failed.store(true, Ordering::SeqCst);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for round in 1..=ROUNDS {
                    let (before, after) = ((round * STEP) as u64, ((round + 1) * STEP) as u64);
                    barrier.wait();
                    for _ in 0..8 {
                        check(&ms.table_stats("default.t"), [before, after]);
                    }
                    barrier.wait();
                    check(&ms.table_stats("default.t"), [after, after]);
                }
            });
        }
        s.spawn(|| {
            for round in 1..=ROUNDS {
                barrier.wait();
                ms.merge_table_stats("default.t", &delta(round * STEP..(round + 1) * STEP));
                barrier.wait();
            }
        });
    });
    assert!(
        !failed.load(Ordering::SeqCst),
        "a reader saw a torn snapshot"
    );
    assert_eq!(
        ms.table_stats("default.t").row_count,
        ((ROUNDS + 1) * STEP) as u64
    );
}
