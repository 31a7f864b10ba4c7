//! Property-based tests over the shared substrate: value arithmetic,
//! decimal codecs, calendar math, LIKE matching, bitsets, and the
//! columnar batch round trip.

use hive_common::{dates, like, value, BitSet, DataType, Field, Row, Schema, Value, VectorBatch};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::BigInt),
        (-1.0e12f64..1.0e12).prop_map(Value::Double),
        (-1_000_000_000i64..1_000_000_000, 0u8..6).prop_map(|(u, s)| Value::Decimal(u as i128, s)),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(Value::String),
        (-100_000i32..100_000).prop_map(Value::Date),
        (-3_000_000_000_000i64..3_000_000_000_000).prop_map(|v| Value::Timestamp(v * 1000)),
    ]
}

/// Unscaled decimals around the edges of the `i64` fast path: `i64::MIN`
/// and `MAX` ± 1, ±2^53 ± 1 (where `f64` stops being exact), and any
/// `i128` at all.
fn arb_unscaled() -> impl Strategy<Value = i128> {
    let edges: Vec<i128> = [
        i64::MIN as i128,
        i64::MAX as i128,
        1i128 << 53,
        -(1i128 << 53),
    ]
    .iter()
    .flat_map(|&e| [e - 1, e, e + 1])
    .collect();
    prop_oneof![
        (0..edges.len()).prop_map(move |i| edges[i]),
        any::<i64>().prop_map(i128::from),
        i128::MIN..i128::MAX,
        -(1i128 << 60)..(1i128 << 60),
    ]
}

proptest! {
    /// `dec_to_f64` is the `i128` conversion divided by `10^scale`, bit
    /// for bit, over scales 0–38 — its `i64` path rounds exactly as the
    /// `i128` conversion does.
    #[test]
    fn dec_to_f64_is_the_i128_conversion(unscaled in arb_unscaled(), scale in 0u8..=38) {
        let want = (unscaled as f64) / 10f64.powi(scale as i32);
        let got = value::dec_to_f64(unscaled, scale);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} at scale {}", unscaled, scale);
        prop_assert_eq!(Value::Decimal(unscaled, scale).as_f64().map(f64::to_bits), Some(want.to_bits()));
    }

    #[test]
    fn decimal_format_parse_round_trip(unscaled in -10_000_000_000i128..10_000_000_000, scale in 0u8..9) {
        let text = value::format_decimal(unscaled, scale);
        let back = value::parse_decimal(&text, scale);
        prop_assert_eq!(back, Some(unscaled));
    }

    #[test]
    fn rescale_up_then_down_is_identity(unscaled in -1_000_000i128..1_000_000, s in 0u8..6, extra in 1u8..6) {
        let up = value::rescale(unscaled, s, s + extra);
        let down = value::rescale(up, s + extra, s);
        prop_assert_eq!(down, unscaled);
    }

    #[test]
    fn civil_round_trip(days in -1_000_000i32..1_000_000) {
        let (y, m, d) = dates::days_to_civil(days);
        prop_assert_eq!(dates::civil_to_days(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn date_format_parse_round_trip(days in -500_000i32..500_000) {
        let text = dates::format_date(days);
        prop_assert_eq!(dates::parse_date(&text), Some(days));
    }

    #[test]
    fn timestamp_format_parse_round_trip(micros in -40_000_000_000_000i64..40_000_000_000_000) {
        let text = dates::format_timestamp(micros);
        prop_assert_eq!(dates::parse_timestamp(&text), Some(micros));
    }

    #[test]
    fn add_months_inverse(days in -200_000i32..200_000, months in -240i32..240) {
        // Moving forward then back lands within the clamped day range.
        let fwd = dates::add_months(days, months);
        let back = dates::add_months(fwd, -months);
        let (y0, m0, _) = dates::days_to_civil(days);
        let (y1, m1, _) = dates::days_to_civil(back);
        prop_assert_eq!((y0, m0), (y1, m1));
    }

    #[test]
    fn like_literal_patterns_match_themselves(s in "[a-z0-9]{0,16}") {
        prop_assert!(like::like_match(&s, &s));
        prop_assert!(like::like_match(&s, "%"));
        let suffix_pat = format!("%{s}");
        let prefix_pat = format!("{s}%");
        prop_assert!(like::like_match(&s, &suffix_pat));
        prop_assert!(like::like_match(&s, &prefix_pat));
    }

    #[test]
    fn like_prefix_suffix_semantics(a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
        let text = format!("{a}{b}");
        let p1 = format!("{a}%");
        let p2 = format!("%{b}");
        let p3 = format!("{a}%{b}");
        prop_assert!(like::like_match(&text, &p1));
        prop_assert!(like::like_match(&text, &p2));
        prop_assert!(like::like_match(&text, &p3));
    }

    #[test]
    fn bitset_matches_vec_bool(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut bs = BitSet::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bs.set(i);
            }
        }
        prop_assert_eq!(bs.count_ones(), bits.iter().filter(|&&b| b).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bs.get(i), b);
        }
        let ones: Vec<usize> = bs.iter_ones().collect();
        let expect: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(ones, expect);
        let mut neg = bs.clone();
        neg.negate();
        prop_assert_eq!(neg.count_ones(), bits.len() - bs.count_ones());
    }

    #[test]
    fn sql_cmp_is_antisymmetric(a in arb_value(), b in arb_value()) {
        if let (Some(x), Some(y)) = (a.sql_cmp(&b), b.sql_cmp(&a)) {
            prop_assert_eq!(x, y.reverse());
        }
        // NULL never compares.
        prop_assert_eq!(Value::Null.sql_cmp(&a), None);
    }

    #[test]
    fn add_sub_round_trip_ints(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let x = Value::BigInt(a);
        let y = Value::BigInt(b);
        let sum = x.add(&y).unwrap();
        let back = sum.sub(&y).unwrap();
        prop_assert_eq!(back, x);
    }

    #[test]
    fn batch_row_round_trip(rows in proptest::collection::vec(
        (any::<Option<i32>>(), "[a-z]{0,8}", any::<Option<i64>>()), 0..50)) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::String),
            Field::new("c", DataType::BigInt),
        ]);
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(a, b, c)| {
                Row::new(vec![
                    a.map(Value::Int).unwrap_or(Value::Null),
                    Value::String(b),
                    c.map(Value::BigInt).unwrap_or(Value::Null),
                ])
            })
            .collect();
        let batch = VectorBatch::from_rows(&schema, &rows).unwrap();
        prop_assert_eq!(batch.num_rows(), rows.len());
        prop_assert_eq!(batch.to_rows(), rows.clone());
        // take() of every index is identity.
        let idx: Vec<u32> = (0..rows.len() as u32).collect();
        prop_assert_eq!(batch.take(&idx), batch.clone());
        // split+concat is identity.
        let parts = batch.split(7);
        let merged = VectorBatch::concat(batch.schema(), &parts).unwrap();
        prop_assert_eq!(merged, batch);
    }
}
