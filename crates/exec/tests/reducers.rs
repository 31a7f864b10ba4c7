//! Semijoin reducers read typed slices; they must give the bits and the
//! verdicts of the `Value`-at-a-time code they replaced (kept here as the
//! reference): the Bloom filter decides which rows a scan hands on, and
//! that count is compared exactly across commits.
//!
//! Random columns of every `ColumnVector` variant, with NULLs, from a
//! seeded generator; the types without a typed path must fall back to
//! the `Value` one and so agree trivially.

use hive_common::{BitSet, ColumnVector, Field, Schema, Value, VectorBatch};
use hive_corc::{BloomFilter, ColumnPredicate};
use hive_exec::join::build_runtime_filter_sized;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

const VARIANTS: usize = 9;

/// A column of `n` rows of the `variant`-th representation, values from
/// a small domain (so builds and probes overlap), about one NULL in six.
fn random_column(rng: &mut StdRng, variant: usize, n: usize) -> ColumnVector {
    let nulls = if rng.gen_bool(0.8) {
        let mut bits = BitSet::new(n);
        (0..n)
            .filter(|_| rng.gen_bool(0.16))
            .for_each(|i| bits.set(i));
        Some(bits)
    } else {
        None
    };
    let mut ints = |lo: i64, hi: i64| (0..n).map(|_| rng.gen_range(lo..hi)).collect::<Vec<_>>();
    let name = |i: i64| format!("brand #{i}");
    match variant {
        0 => ColumnVector::Boolean(ints(0, 2).iter().map(|&v| v == 1).collect(), nulls),
        1 => ColumnVector::Int(ints(-40, 40).iter().map(|&v| v as i32).collect(), nulls),
        2 => ColumnVector::BigInt(ints(-40, 40), nulls),
        3 => ColumnVector::Double(
            ints(-40, 40).iter().map(|&v| v as f64 / 2.0).collect(),
            nulls,
        ),
        4 => ColumnVector::Decimal(
            ints(-400, 400).iter().map(|&v| v as i128).collect(),
            1,
            nulls,
        ),
        5 => ColumnVector::Str(ints(0, 30).iter().map(|&v| name(v)).collect(), nulls),
        6 => ColumnVector::Dict {
            codes: ints(0, 24).iter().map(|&v| v as u32).collect(),
            // Some entries never referenced, some duplicated.
            dict: Arc::new((0..24).map(|i| name(i % 20)).collect()),
            nulls,
        },
        7 => ColumnVector::Date(
            ints(17_000, 17_080).iter().map(|&v| v as i32).collect(),
            nulls,
        ),
        _ => ColumnVector::Timestamp(ints(-40, 40), nulls),
    }
}

fn batch_of(col: ColumnVector) -> VectorBatch {
    let schema = Schema::new(vec![Field::new("k", col.data_type())]);
    VectorBatch::new(schema, vec![col]).unwrap()
}

/// `build_runtime_filter_sized` as it was at 62e7c99, less the
/// dictionary shortcut of its no-hint arm (same distinct strings).
fn reference_build(
    col: &ColumnVector,
    ndv_hint: Option<usize>,
) -> Option<(Value, Value, BloomFilter)> {
    let live = (0..col.len()).map(|i| col.get(i)).filter(|v| !v.is_null());
    let values: Vec<Value> = match ndv_hint {
        Some(_) => live.collect(),
        None => {
            let mut seen = HashSet::new();
            live.filter(|v| seen.insert(v.clone())).collect()
        }
    };
    let mut bloom = BloomFilter::new(ndv_hint.unwrap_or(values.len()).max(16), 0.01);
    let (mut min, mut max): (Option<Value>, Option<Value>) = (None, None);
    for v in values {
        bloom.insert(&v);
        if min
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
        {
            min = Some(v.clone());
        }
        if max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
        {
            max = Some(v);
        }
    }
    Some((min?, max?, bloom))
}

/// Same variant, not merely `==` (which is SQL equality across types).
fn same(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

#[test]
fn typed_build_has_the_bits_and_bounds_of_the_value_build() {
    let mut rng = StdRng::seed_from_u64(0x5E31_2019);
    for round in 0..600 {
        let variant = round % VARIANTS;
        let n = [0, 1, 7, 200][rng.gen_range(0..4usize)];
        let col = random_column(&mut rng, variant, n);
        for hint in [None, Some(3), Some(1_000)] {
            let typed = build_runtime_filter_sized(&batch_of(col.clone()), 0, hint);
            match (typed, reference_build(&col, hint)) {
                (None, None) => {}
                (Some((min, max, bloom)), Some((rmin, rmax, rbloom))) => {
                    assert!(
                        same(&min, &rmin),
                        "variant {variant}: min {min:?} vs {rmin:?}"
                    );
                    assert!(
                        same(&max, &rmax),
                        "variant {variant}: max {max:?} vs {rmax:?}"
                    );
                    assert_eq!(
                        bloom, rbloom,
                        "variant {variant} hint {hint:?}: bits differ"
                    );
                }
                (t, r) => panic!("variant {variant}: {t:?} vs {r:?}"),
            }
        }
    }
}

#[test]
fn typed_row_checks_keep_the_rows_the_value_checks_keep() {
    let mut rng = StdRng::seed_from_u64(0xB100_2019);
    let mut typed_kept = 0usize;
    for round in 0..900 {
        // Every probe representation against a reducer built from every
        // build representation: INT rows against BIGINT bounds, strings
        // against numbers (never match), and so on.
        let (probe_variant, build_variant) = (round % VARIANTS, (round / VARIANTS) % VARIANTS);
        let build = random_column(&mut rng, build_variant, 40);
        let Some((min, max, bloom)) = reference_build(&build, Some(rng.gen_range(1..64usize)))
        else {
            continue;
        };
        let pred = ColumnPredicate::BloomRange {
            column: 0,
            min,
            max,
            bloom,
        };
        let probe = random_column(&mut rng, probe_variant, 300);
        // Positions index a selection, not the column.
        let sel: Vec<usize> = (0..300).filter(|_| rng.gen_bool(0.7)).rev().collect();
        let expect: Vec<u32> = (0..sel.len() as u32)
            .filter(|&p| pred.matches_value(&probe.get(sel[p as usize])))
            .collect();
        let mut positions: Vec<u32> = (0..sel.len() as u32).collect();
        pred.retain_matching(&probe, &mut positions, |p| sel[p as usize]);
        assert_eq!(
            positions, expect,
            "probe {probe_variant} build {build_variant}"
        );
        typed_kept += positions.len();
    }
    assert!(
        typed_kept > 1_000,
        "the generator stopped producing matches"
    );
}
