//! Property-based tests of the corc format: arbitrary batches survive
//! the write→read round trip exactly, and row-group selection never
//! drops matching rows (sargs are pruning-only).

use hive_common::{DataType, Field, Row, Schema, Value, VectorBatch};
use hive_corc::{
    reader::round_trip, ColumnPredicate, CorcFile, CorcWriter, SearchArgument, WriterOptions,
};
use hive_dfs::{DfsPath, DistFs};
use proptest::prelude::*;

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            any::<Option<i64>>(),
            proptest::option::of("[a-zA-Z0-9]{0,12}"),
            any::<Option<bool>>(),
            proptest::option::of(-1_000_000i64..1_000_000),
        ),
        0..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, c, d)| {
                Row::new(vec![
                    a.map(Value::BigInt).unwrap_or(Value::Null),
                    b.map(Value::String).unwrap_or(Value::Null),
                    c.map(Value::Boolean).unwrap_or(Value::Null),
                    d.map(|v| Value::Decimal(v as i128, 2))
                        .unwrap_or(Value::Null),
                ])
            })
            .collect()
    })
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::BigInt),
        Field::new("s", DataType::String),
        Field::new("flag", DataType::Boolean),
        Field::new("amount", DataType::Decimal(18, 2)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_round_trip_exact(rows in arb_rows(200), rg in 1usize..64) {
        let batch = VectorBatch::from_rows(&schema(), &rows).unwrap();
        let opts = WriterOptions {
            row_group_size: rg,
            bloom_columns: vec![0, 1],
            bloom_fpp: 0.05,
            ..Default::default()
        };
        let back = round_trip(&batch, opts).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn sarg_selection_never_loses_matches(
        keys in proptest::collection::vec(-500i64..500, 1..300),
        lo in -500i64..500,
        span in 0i64..200,
        rg in 1usize..50,
    ) {
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| Row::new(vec![
                Value::BigInt(k),
                Value::String(format!("s{k}")),
                Value::Boolean(k % 2 == 0),
                Value::Decimal(k as i128, 2),
            ]))
            .collect();
        let batch = VectorBatch::from_rows(&schema(), &rows).unwrap();
        let fs = DistFs::new();
        let path = DfsPath::new("/p/f");
        let mut w = CorcWriter::new(schema(), WriterOptions {
            row_group_size: rg,
            bloom_columns: vec![0],
            bloom_fpp: 0.02,
            ..Default::default()
        }).unwrap();
        w.write_batch(&batch).unwrap();
        fs.create(&path, w.finish().unwrap()).unwrap();
        let f = CorcFile::open(&fs, &path).unwrap();

        let hi = lo + span;
        let sarg = SearchArgument::with(vec![ColumnPredicate::Between(
            0, Value::BigInt(lo), Value::BigInt(hi),
        )]);
        // Read only the selected row groups and count matches.
        let mut selected_matches = 0usize;
        for g in f.selected_row_groups(&sarg) {
            let part = f.read_row_group(g, &[0]).unwrap();
            for i in 0..part.num_rows() {
                if let Value::BigInt(k) = part.column(0).get(i) {
                    if k >= lo && k <= hi {
                        selected_matches += 1;
                    }
                }
            }
        }
        let expected = keys.iter().filter(|&&k| k >= lo && k <= hi).count();
        prop_assert_eq!(selected_matches, expected, "sarg pruning dropped matching rows");
    }
}

// --- dictionary-encoded round trips ------------------------------------

use hive_common::ColumnVector;
use std::sync::Arc;

fn str_schema() -> Schema {
    Schema::new(vec![Field::new("s", DataType::String)])
}

/// Write `batch`, then read it back both materialized and encoded; the
/// encoded form must decode to exactly the materialized read.
fn encoded_round_trip(batch: &VectorBatch, rg: usize) -> (VectorBatch, VectorBatch) {
    let fs = DistFs::new();
    let path = DfsPath::new("/t/dict_rt");
    let mut w = CorcWriter::new(
        batch.schema().clone(),
        WriterOptions {
            row_group_size: rg,
            ..Default::default()
        },
    )
    .unwrap();
    w.write_batch(batch).unwrap();
    fs.create(&path, w.finish().unwrap()).unwrap();
    let f = CorcFile::open(&fs, &path).unwrap();
    (f.read_all().unwrap(), f.read_all_encoded().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Low-cardinality string columns (the case the writer dictionary-
    /// encodes): write → read_all_encoded → decode is the identity.
    #[test]
    fn dict_write_read_decode_round_trip(
        picks in proptest::collection::vec(proptest::option::of(0usize..5), 0..200),
        rg in 1usize..64,
    ) {
        let pool = ["", "alpha", "beta", "gamma", "delta"];
        let rows: Vec<Row> = picks
            .iter()
            .map(|p| Row::new(vec![p.map(|i| Value::String(pool[i].into())).unwrap_or(Value::Null)]))
            .collect();
        let batch = VectorBatch::from_rows(&str_schema(), &rows).unwrap();
        let (plain, encoded) = encoded_round_trip(&batch, rg);
        prop_assert_eq!(&plain, &batch);
        // Encoded and plain reads are logically equal before decode
        // (ColumnVector::PartialEq compares Dict vs Str by content)...
        prop_assert_eq!(&encoded, &batch);
        // ...and exactly equal after materialization.
        prop_assert_eq!(encoded.decode(), plain);
    }

    /// A Dict column fed to the writer round-trips the same as its
    /// materialized form: the encoder is representation-agnostic.
    #[test]
    fn dict_input_encodes_byte_identically(
        codes in proptest::collection::vec(0u32..4, 1..150),
        null_every in 2usize..7,
        rg in 1usize..64,
    ) {
        let dict = Arc::new(vec![
            "a".to_string(),
            "bb".to_string(),
            "ccc".to_string(),
            "".to_string(),
        ]);
        let mut nulls = hive_common::BitSet::new(codes.len());
        for i in (0..codes.len()).step_by(null_every) {
            nulls.set(i);
        }
        let col = ColumnVector::dict_from_codes(codes, dict, Some(nulls)).unwrap();
        let n = col.len();
        let as_dict = VectorBatch::new_with_rows(str_schema(), vec![col.clone()], n).unwrap();
        let as_str = VectorBatch::new_with_rows(str_schema(), vec![col.decode()], n).unwrap();
        let opts = WriterOptions { row_group_size: rg, ..Default::default() };
        let from_dict =
            hive_corc::writer::write_batch_to_bytes(&as_dict, opts.clone()).unwrap();
        let from_str = hive_corc::writer::write_batch_to_bytes(&as_str, opts).unwrap();
        prop_assert_eq!(from_dict, from_str, "Dict input changed the file bytes");
        let (_, encoded) = encoded_round_trip(&as_dict, rg);
        prop_assert_eq!(encoded.decode(), as_str);
    }
}

/// Zero rows means a zero-length dictionary; the boundary code
/// `dict_len - 1` is the largest that may round-trip.
#[test]
fn dict_edge_cases_round_trip() {
    // Empty dictionary / empty column.
    let empty = VectorBatch::new_with_rows(
        str_schema(),
        vec![ColumnVector::dict_from_codes(vec![], Arc::new(vec![]), None).unwrap()],
        0,
    )
    .unwrap();
    let (plain, encoded) = encoded_round_trip(&empty, 8);
    assert_eq!(plain.num_rows(), 0);
    assert_eq!(encoded.decode(), plain);

    // Every row uses the boundary code dict_len - 1.
    let dict = Arc::new(vec!["lo".to_string(), "hi".to_string()]);
    let col = ColumnVector::dict_from_codes(vec![1, 1, 1], dict.clone(), None).unwrap();
    let b = VectorBatch::new_with_rows(str_schema(), vec![col], 3).unwrap();
    let (plain, encoded) = encoded_round_trip(&b, 2);
    assert_eq!(encoded.decode(), plain);
    assert_eq!(plain.column(0).get(2), Value::String("hi".into()));

    // One past the boundary is rejected at construction.
    let err = ColumnVector::dict_from_codes(vec![0, 2], dict, None).unwrap_err();
    assert!(matches!(err, hive_common::HiveError::Format(_)), "{err:?}");
}

// --- corrupt footers ----------------------------------------------------

use hive_common::HiveError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Byte-level fuzz of the footer (the chunk decoder's has its own in
/// `reader`): every truncation, 2 000 seeded single-byte mutations, and a
/// varint of 2⁶² spliced in at every byte of a footer that carries Bloom
/// indexes open as `Ok` or `HiveError::Format`. No count read from the
/// footer may size an allocation or an index before it is checked, and a
/// footer that still opens answers Bloom lookups and row-group selection
/// without panicking.
#[test]
fn footer_truncations_and_mutations_end_typed() {
    let rows: Vec<Row> = (0..600i64)
        .map(|k| {
            Row::new(vec![
                Value::BigInt(k * 7),
                Value::String(format!("s{}", k % 50)),
                Value::Boolean(k % 3 == 0),
                Value::Decimal(k as i128 * 25, 2),
            ])
        })
        .collect();
    let mut w = CorcWriter::new(
        schema(),
        WriterOptions {
            row_group_size: 100,
            bloom_columns: vec![0, 1],
            bloom_fpp: 0.05,
            ..Default::default()
        },
    )
    .unwrap();
    w.write_batch(&VectorBatch::from_rows(&schema(), &rows).unwrap())
        .unwrap();
    let file = w.finish().unwrap().to_vec();
    let (body, tail) = file.split_at(file.len() - 8);
    let footer_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as usize;
    let (data, footer) = body.split_at(body.len() - footer_len);

    let fs = DistFs::new();
    let path = DfsPath::new("/fuzz/f");
    let probes = [
        Value::BigInt(14),
        Value::BigInt(15),
        Value::String("s3".into()),
        Value::Null,
    ];
    let open = |footer: &[u8], what: &str| {
        let mut bytes = data.to_vec();
        bytes.extend_from_slice(footer);
        bytes.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&tail[4..]);
        let _ = fs.delete_file(&path);
        fs.create(&path, bytes.into()).unwrap();
        let f = match CorcFile::open(&fs, &path) {
            Ok(f) => f,
            Err(HiveError::Format(_)) => return,
            Err(e) => panic!("{what}: untyped open error {e:?}"),
        };
        let cols = f.schema().len();
        for rg in 0..f.row_group_count() {
            for col in 0..cols {
                if let Some(b) = f.column_bloom(rg, col) {
                    probes.iter().for_each(|v| {
                        b.might_contain(v);
                    });
                }
            }
        }
        let sarg = (0..cols.min(2))
            .map(|c| ColumnPredicate::Eq(c, probes[c * 2].clone()))
            .collect();
        f.selected_row_groups(&SearchArgument::with(sarg));
    };
    open(footer, "intact");
    for cut in 0..footer.len() {
        open(&footer[..cut], &format!("cut at {cut}"));
    }
    let mut rng = StdRng::seed_from_u64(0xf007);
    let mut buf = footer.to_vec();
    for _ in 0..2_000 {
        let at = rng.gen_range(0..buf.len());
        let old = buf[at];
        buf[at] = rng.gen_range(0..=255u8);
        open(&buf, &format!("byte {at} -> {}", buf[at]));
        buf[at] = old;
    }
    // A count read there claims far more entries than bytes are left.
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    for at in 0..footer.len() {
        let spliced = [&footer[..at], &huge[..], &footer[at + 1..]].concat();
        open(&spliced, &format!("2^62 at byte {at}"));
    }
}
