//! The columnar gather and cast kernels against the per-cell path they
//! replaced: `get(i)` → `Value` → `ColumnBuilder::push`. Every
//! `ColumnVector` variant × (no bitmap / sparse NULLs / all NULL) ×
//! (identity, permuted, repeated, sentinel, empty) index lists, plus
//! the empty source column under all-sentinel indices.

use hive_common::{BitSet, ColumnBuilder, ColumnVector, DataType, DecVals, Value, NULL_INDEX};
use proptest::prelude::*;
use std::sync::Arc;

const VARIANTS: usize = 10;

/// Duplicate entries on purpose: equal strings under different codes.
fn dictionary() -> Arc<Vec<String>> {
    Arc::new(
        ["a", "42", "a", "2001-02-03", " 7 ", "true", "1.255", "42"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    )
}

/// A source column of variant `variant` over raw `cells`; a row is NULL
/// when `null_mode` is 2, or 1 and its flag is set. NULL slots hold the
/// type's default, as builders and readers leave them.
fn column_of(variant: usize, cells: &[(i64, bool)], null_mode: u8) -> ColumnVector {
    let is_null = |&(_, flag): &(i64, bool)| null_mode == 2 || (null_mode == 1 && flag);
    let nulls = (null_mode != 0).then(|| {
        let mut b = BitSet::new(cells.len());
        for (i, c) in cells.iter().enumerate() {
            if is_null(c) {
                b.set(i);
            }
        }
        b
    });
    fn vals<T: Default>(
        cells: &[(i64, bool)],
        is_null: impl Fn(&(i64, bool)) -> bool,
        f: impl Fn(i64) -> T,
    ) -> Vec<T> {
        cells
            .iter()
            .map(|c| if is_null(c) { T::default() } else { f(c.0) })
            .collect()
    }
    let text = |x: i64| match x.rem_euclid(6) {
        0 => x.to_string(),
        1 => format!("{}.{:03}", x / 1000, x.rem_euclid(1000)),
        2 => "2019-09-27".to_string(),
        3 => " TRUE".to_string(),
        4 => "false".to_string(),
        _ => format!("s{x}"),
    };
    match variant {
        0 => ColumnVector::Boolean(vals(cells, is_null, |x| x & 1 == 1), nulls),
        1 => ColumnVector::Int(vals(cells, is_null, |x| x as i32), nulls),
        2 => ColumnVector::BigInt(vals(cells, is_null, |x| x), nulls),
        3 => ColumnVector::Double(vals(cells, is_null, |x| x as f64 / 8.0), nulls),
        // Decimals narrow by content, reaching the `i64` extremes, and
        // the same values held wide.
        4 | 9 => {
            let v = vals(cells, is_null, |x| match x.rem_euclid(7) {
                0 => i64::MAX as i128,
                1 => i64::MIN as i128,
                _ => x as i128,
            });
            let v = if variant == 4 {
                DecVals::from(v)
            } else {
                DecVals::Wide(v)
            };
            ColumnVector::Decimal(v, 2, nulls)
        }
        5 => ColumnVector::Str(vals(cells, is_null, text), nulls),
        6 => {
            let dict = dictionary();
            let codes = vals(cells, is_null, |x| x.rem_euclid(dict.len() as i64) as u32);
            ColumnVector::dict_from_codes(codes, dict, nulls).unwrap()
        }
        7 => ColumnVector::Date(vals(cells, is_null, |x| (x % 100_000) as i32), nulls),
        _ => ColumnVector::Timestamp(vals(cells, is_null, |x| x), nulls),
    }
}

fn bitmap(c: &ColumnVector) -> Option<&BitSet> {
    match c {
        ColumnVector::Boolean(_, n)
        | ColumnVector::Int(_, n)
        | ColumnVector::BigInt(_, n)
        | ColumnVector::Double(_, n)
        | ColumnVector::Decimal(_, _, n)
        | ColumnVector::Str(_, n)
        | ColumnVector::Dict { nulls: n, .. }
        | ColumnVector::Date(_, n)
        | ColumnVector::Timestamp(_, n) => n.as_ref(),
    }
}

/// The index list of `mode` over a source of `n` rows.
fn indices(mode: u8, n: usize, raw: &[u32]) -> Vec<u32> {
    if n == 0 {
        // Only NULL rows can be gathered from an empty source.
        return if mode == 4 {
            Vec::new()
        } else {
            vec![NULL_INDEX; raw.len()]
        };
    }
    let n32 = n as u32;
    match mode {
        0 => (0..n32).collect(),
        1 => {
            let mut idx: Vec<u32> = (0..n32).collect();
            idx.sort_by_key(|&i| (raw.get(i as usize).copied().unwrap_or(i), i));
            idx
        }
        2 => raw.iter().map(|r| r % n32).collect(),
        3 => raw
            .iter()
            .map(|r| match r % (n32 + 1) {
                r if r == n32 => NULL_INDEX,
                r => r,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The replaced path: one `Value` per cell through a builder.
fn reference<'a>(
    cells: impl Iterator<Item = Value> + 'a,
    dt: &DataType,
) -> Result<ColumnVector, String> {
    let mut b = ColumnBuilder::new(dt).map_err(|e| e.to_string())?;
    for v in cells {
        b.push(&v).map_err(|e| e.to_string())?;
    }
    Ok(b.finish())
}

/// The fan-out rule: a plain string column holding at least one string,
/// gathered into at least twice as many cells as it has rows, leaves
/// encoded.
fn fans_out(src: &ColumnVector, idx: &[u32]) -> bool {
    matches!(src, ColumnVector::Str(..))
        && idx.len() >= 2 * src.len()
        && src.null_count() < src.len()
}

fn assert_bitmap_only_for_nulls(c: &ColumnVector) {
    assert_eq!(bitmap(c).is_some(), c.null_count() > 0, "{c:?}");
}

proptest! {
    #[test]
    fn gather_matches_the_value_round_trip(
        variant in 0usize..VARIANTS,
        cells in proptest::collection::vec((-3_000_000_000_000_000i64..3_000_000_000_000_000, any::<bool>()), 0..40),
        null_mode in 0u8..3,
        index_mode in 0u8..5,
        raw in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let src = column_of(variant, &cells, null_mode);
        let idx = indices(index_mode, src.len(), &raw);
        let want = reference(
            idx.iter().map(|&i| if i == NULL_INDEX { Value::Null } else { src.get(i as usize) }),
            &src.data_type(),
        )
        .unwrap();

        let got = src.take_or_null(&idx);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.len(), idx.len());
        assert_bitmap_only_for_nulls(&got);
        // The representation survives; an encoded column keeps its
        // dictionary by handle (an empty one has no code for a NULL).
        // The one change of representation is a plain string column
        // with a string to repeat, gathered to more cells than rows.
        match (src.dict_parts(), got.dict_parts()) {
            (Some((_, d0, _)), Some((_, d1, _))) => prop_assert!(Arc::ptr_eq(d0, d1)),
            (Some((_, d0, _)), None) => prop_assert!(d0.is_empty()),
            (None, got_dict) => prop_assert_eq!(got_dict.is_some(), fans_out(&src, &idx)),
        }
        if !idx.contains(&NULL_INDEX) {
            let plain = src.take(&idx);
            prop_assert_eq!(&plain, &want);
            assert_bitmap_only_for_nulls(&plain);
        }
    }

    #[test]
    fn cast_matches_the_value_round_trip(
        variant in 0usize..VARIANTS,
        cells in proptest::collection::vec((-3_000_000_000_000_000i64..3_000_000_000_000_000, any::<bool>()), 0..40),
        null_mode in 0u8..3,
    ) {
        let src = column_of(variant, &cells, null_mode);
        for want in [
            DataType::Boolean,
            DataType::Int,
            DataType::BigInt,
            DataType::Double,
            DataType::Decimal(12, 0),
            DataType::Decimal(38, 2),
            DataType::Decimal(20, 5),
            DataType::String,
            DataType::Date,
            DataType::Timestamp,
        ] {
            // Aligned types never reach the kernel: `align_column`
            // passes them through by handle.
            let aligned = src.data_type() == want
                || matches!((&src, &want), (ColumnVector::Decimal(_, a, _), DataType::Decimal(_, b)) if a == b);
            if aligned {
                continue;
            }
            let expect = reference((0..src.len()).map(|i| src.get(i)), &want);
            match (src.cast_to(&want), expect) {
                (Ok(got), Ok(expect)) => {
                    prop_assert_eq!(&got, &expect, "{:?} -> {}", src, want);
                    assert_bitmap_only_for_nulls(&got);
                }
                (Err(got), Err(expect)) => prop_assert_eq!(got.to_string(), expect),
                (got, expect) => prop_assert!(false, "{src:?} -> {want}: {got:?} vs {expect:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Plain string columns on both sides of the fan-out threshold:
    /// whatever representation leaves, it reads as the `Value`-per-cell
    /// gather does, and an encoded result is a well-formed dictionary
    /// column that later gathers carry by handle.
    #[test]
    fn string_fan_out_is_representation_blind(
        // Few distinct words, "" among them, so duplicates are the rule.
        words in proptest::collection::vec((0usize..5, any::<bool>()), 0..12),
        null_mode in 0u8..3,
        length in 0u8..6,
        raw in proptest::collection::vec(any::<u32>(), 0..16),
    ) {
        const WORDS: [&str; 5] = ["", "Store A", "ese", "", "Store A "];
        let is_null = |flag: bool| null_mode == 2 || (null_mode == 1 && flag);
        let len = words.len();
        let nulls = (null_mode != 0).then(|| {
            let mut b = BitSet::new(len);
            (0..len).filter(|&i| is_null(words[i].1)).for_each(|i| b.set(i));
            b
        });
        let src = ColumnVector::Str(
            words
                .iter()
                .map(|&(w, flag)| if is_null(flag) { String::new() } else { WORDS[w].to_string() })
                .collect(),
            nulls,
        );
        // Cell counts on both sides of the threshold (`2 x len`), or
        // whatever `raw` holds; repeats throughout, and the NULL sentinel
        // where `raw` says so.
        let cells = match length {
            0 => len,
            1 => len + 1,
            2 => (2 * len).saturating_sub(1),
            3 => 2 * len,
            4 => 64 * len,
            _ => raw.len(),
        };
        let idx: Vec<u32> = (0..cells)
            .map(|o| {
                let r = raw.get(o % raw.len().max(1)).copied().unwrap_or(o as u32);
                match (r as usize).wrapping_add(o) % (len + 1) {
                    i if i == len => NULL_INDEX,
                    i => i as u32,
                }
            })
            .collect();
        let want = reference(
            idx.iter().map(|&i| if i == NULL_INDEX { Value::Null } else { src.get(i as usize) }),
            &DataType::String,
        )
        .unwrap();

        let mut results = vec![src.take_or_null(&idx)];
        if !idx.contains(&NULL_INDEX) {
            results.push(src.take(&idx));
        }
        for got in results {
            prop_assert_eq!(got.len(), want.len());
            for i in 0..want.len() {
                prop_assert_eq!(got.get(i), want.get(i), "cell {}", i);
            }
            assert_bitmap_only_for_nulls(&got);
            prop_assert_eq!(got.is_dict(), fans_out(&src, &idx));
            let Some((codes, dict, _)) = got.dict_parts() else { continue };
            let distinct: std::collections::HashSet<&String> = dict.iter().collect();
            prop_assert_eq!(distinct.len(), dict.len(), "duplicate entry in {:?}", dict);
            prop_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
            let again = got.take_or_null(&[0, NULL_INDEX, 0]);
            let kept = again.dict_parts().is_some_and(|(_, d, _)| Arc::ptr_eq(d, dict));
            prop_assert!(kept, "a second gather re-encoded the column");
        }
    }
}

#[test]
fn empty_dictionary_null_extends_to_a_plain_column() {
    let empty = ColumnVector::dict_from_codes(Vec::new(), Arc::new(Vec::new()), None).unwrap();
    let got = empty.take_or_null(&[NULL_INDEX; 3]);
    assert_eq!(got, ColumnVector::all_null(&DataType::String, 3).unwrap());
    assert_eq!(got.null_count(), 3);
    assert!(empty.take_or_null(&[]).is_empty());
}

#[test]
fn decimal_rescale_rounds_like_the_scalar_cast() {
    let src = ColumnVector::Decimal(vec![1255i128, -1255, 1, 0].into(), 3, None);
    let got = src.cast_to(&DataType::Decimal(10, 2)).unwrap();
    let expect: Vec<Value> = (0..4)
        .map(|i| src.get(i).cast_to(&DataType::Decimal(10, 2)).unwrap())
        .collect();
    assert_eq!((0..4).map(|i| got.get(i)).collect::<Vec<_>>(), expect);
    assert_eq!(
        got,
        ColumnVector::Decimal(vec![126i128, -126, 0, 0].into(), 2, None)
    );
}

proptest! {
    /// A decimal column's width is invisible: the same values held as
    /// `i64` or `i128` are equal, gather, cast and hash alike, and parts
    /// of mixed widths concatenate (widening) to what appending their
    /// `Value`s builds. Values past `i64` keep a column wide.
    #[test]
    fn decimal_widths_are_invisible(
        cells in proptest::collection::vec((any::<i64>(), 0u8..8), 0..40),
        null_mode in 0u8..3,
        raw in proptest::collection::vec(any::<u32>(), 0..60),
        cuts in proptest::collection::vec(any::<u32>(), 3),
    ) {
        let n = cells.len();
        let is_null = |k: u8| null_mode == 2 || (null_mode == 1 && k == 0);
        let vals: Vec<i128> = cells
            .iter()
            .map(|&(x, k)| match k {
                _ if is_null(k) => 0,
                1 => i64::MAX as i128,
                2 => i64::MIN as i128,
                3 => x as i128 * 1_000_000_007, // past `i64` unless small
                _ => x as i128,
            })
            .collect();
        let nulls = (null_mode != 0).then(|| {
            let mut b = BitSet::new(n);
            (0..n).filter(|&i| is_null(cells[i].1)).for_each(|i| b.set(i));
            b
        });
        let fits = vals.iter().all(|&v| i64::try_from(v).is_ok());
        let by_content = ColumnVector::Decimal(DecVals::from(vals.clone()), 2, nulls.clone());
        let wide = ColumnVector::Decimal(DecVals::Wide(vals.clone()), 2, nulls.clone());
        let ColumnVector::Decimal(v, ..) = &by_content else { unreachable!() };
        prop_assert_eq!(v.is_narrow(), fits);
        prop_assert_eq!(by_content.approx_bytes(), wide.approx_bytes() - if fits { 8 * n } else { 0 });
        prop_assert_eq!(&by_content, &wide);
        prop_assert_eq!(&wide, &by_content);

        // Gathers, casts and canonical hash encodings agree cell for cell.
        let idx = indices(3, n, &raw);
        prop_assert_eq!(by_content.take_or_null(&idx), wide.take_or_null(&idx));
        for want in [DataType::Double, DataType::Int, DataType::BigInt, DataType::Decimal(38, 4), DataType::Decimal(20, 1), DataType::String] {
            match (by_content.cast_to(&want), wide.cast_to(&want)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "-> {want}: {a:?} vs {b:?}"),
            }
        }
        for i in 0..n {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            hive_common::hash::encode_value(&by_content.get(i), &mut a);
            hive_common::hash::encode_value(&wide.get(i), &mut b);
            prop_assert_eq!(a, b);
        }

        // Parts of either width, cut at `cuts`, each under a selection.
        let small = ColumnVector::Decimal(DecVals::from(vec![5i128, -7]), 2, None);
        let parts = [&by_content, &wide, &small, &by_content];
        let sels: Vec<Option<Vec<u32>>> = parts
            .iter()
            .zip(&cuts)
            .map(|(c, &k)| (k % 3 != 0).then(|| (0..c.len() as u32).filter(|i| (i + k) % 3 != 0).collect()))
            .chain([None])
            .collect();
        let refs: Vec<(&ColumnVector, Option<&[u32]>)> =
            parts.iter().zip(&sels).map(|(&c, s)| (c, s.as_deref())).collect();
        let got = ColumnVector::concat_selected(&DataType::Decimal(38, 2), &refs).unwrap();
        let want = reference(
            refs.iter().flat_map(|&(c, sel)| match sel {
                Some(sel) => sel.iter().map(|&i| c.get(i as usize)).collect::<Vec<_>>(),
                None => (0..c.len()).map(|i| c.get(i)).collect(),
            }),
            &DataType::Decimal(38, 2),
        )
        .unwrap();
        // Cell for cell: a part's bitmap, even an empty one, stays
        // present in a concatenation.
        prop_assert_eq!(got.len(), want.len());
        for i in 0..got.len() {
            prop_assert_eq!(got.get(i), want.get(i), "cell {}", i);
        }
        let ColumnVector::Decimal(g, ..) = &got else { unreachable!() };
        prop_assert!(!g.is_narrow() || fits, "narrow concat of a wide part");
    }
}
