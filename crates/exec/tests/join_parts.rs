//! Property test: **a join probed part by part is the join over the
//! concatenation**. However the probe side is cut into parts — empty
//! parts, parts under a selection, a dictionary of each part's own on the
//! key and on the payload — `execute_join_parts` returns, end to end, the
//! bytes `execute_join` returns over the concatenated probe side, for
//! `Inner`/`Left`/`Semi`/`Anti`/`Cross` with and without equi keys, with
//! a compiled, an interpreted and no residual, at 1, 2 and 8 workers. A
//! plain string build column the whole join fans out leaves as `Dict`
//! over one dictionary in every part, even where no single part fans it
//! out.

use hive_common::{
    BitSet, ColumnVector, DataType, Field, Schema, SelBatch, SelVec, Value, VectorBatch,
};
use hive_exec::join::{execute_join, execute_join_parts};
use hive_exec::pir::PirCounters;
use hive_optimizer::plan::JoinType;
use hive_optimizer::ScalarExpr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Probe columns: an INT key, a STRING key, an INT value, a STRING
/// payload, a DECIMAL payload.
const L_K: usize = 0;
const L_S: usize = 1;
const L_V: usize = 2;
/// Build columns: an INT key, a STRING key, an INT value, a plain
/// STRING payload (the column a fan-out encodes).
const R_NAME: usize = 3;

const WORDS: [&str; 6] = ["ant", "bee", "cat", "dog", "eel", ""];

fn probe_schema() -> Schema {
    Schema::new(vec![
        Field::new("l_k", DataType::Int),
        Field::new("l_s", DataType::String),
        Field::new("l_v", DataType::Int),
        Field::new("l_pay", DataType::String),
        Field::new("l_d", DataType::Decimal(9, 2)),
    ])
}

fn build_schema() -> Schema {
    Schema::new(vec![
        Field::new("r_k", DataType::Int),
        Field::new("r_s", DataType::String),
        Field::new("r_v", DataType::Int),
        Field::new("r_name", DataType::String),
    ])
}

fn nulls(rng: &mut StdRng, rows: usize, every: u32) -> Option<BitSet> {
    let mut b = BitSet::new(rows);
    for i in 0..rows {
        if rng.gen_range(0..every) == 0 {
            b.set(i);
        }
    }
    Some(b)
}

/// Strings over [`WORDS`]: dictionary-encoded over a dictionary of this
/// part's own (shuffled, with a word no other part has), or plain.
fn strings(rng: &mut StdRng, rows: usize, part: usize, dict: bool) -> ColumnVector {
    let mut words: Vec<String> = WORDS.iter().map(|w| w.to_string()).collect();
    words.push(format!("only-in-{part}"));
    for i in (1..words.len()).rev() {
        words.swap(i, rng.gen_range(0..=i));
    }
    let codes: Vec<u32> = (0..rows)
        .map(|_| rng.gen_range(0..words.len()) as u32)
        .collect();
    let nulls = nulls(rng, rows, 13);
    if dict {
        ColumnVector::dict_from_codes(codes, Arc::new(words), nulls).unwrap()
    } else {
        ColumnVector::Str(
            codes.iter().map(|&c| words[c as usize].clone()).collect(),
            nulls,
        )
    }
}

/// One probe part of `rows` rows, keys over `0..key_domain`, under a
/// selection: all rows, about half, or none.
fn probe_part(
    rng: &mut StdRng,
    part: usize,
    rows: usize,
    key_domain: i32,
    dict_keys: bool,
) -> SelBatch {
    let dict_payload = rng.gen_bool(0.6);
    let cols = vec![
        ColumnVector::Int(
            (0..rows).map(|_| rng.gen_range(0..key_domain)).collect(),
            nulls(rng, rows, 17),
        ),
        strings(rng, rows, part, dict_keys),
        ColumnVector::Int((0..rows).map(|_| rng.gen_range(-30..60)).collect(), None),
        strings(rng, rows, part + 100, dict_payload),
        ColumnVector::Decimal(
            (0..rows)
                .map(|_| rng.gen_range(-9_999i64..9_999) as i128)
                .collect(),
            2,
            None,
        ),
    ];
    let batch = VectorBatch::new_with_rows(probe_schema(), cols, rows).unwrap();
    let sel = match rng.gen_range(0..5) {
        0 => SelVec::Idx((0..rows as u32).filter(|_| rng.gen_bool(0.5)).collect()),
        1 if rows > 0 && rng.gen_bool(0.3) => SelVec::Idx(Vec::new()),
        _ => SelVec::All(rows),
    };
    SelBatch::new(batch, sel).unwrap()
}

/// A build side of `rows` rows with keys over `0..key_domain`, its
/// string key dictionary-encoded (or plain), its name column plain.
fn build_side(rng: &mut StdRng, rows: usize, key_domain: i32, dict_key: bool) -> VectorBatch {
    let cols = vec![
        ColumnVector::Int(
            (0..rows).map(|_| rng.gen_range(0..key_domain)).collect(),
            nulls(rng, rows, 19),
        ),
        strings(rng, rows, 999, dict_key),
        ColumnVector::Int((0..rows).map(|_| rng.gen_range(-30..60)).collect(), None),
        ColumnVector::Str(
            (0..rows).map(|i| format!("name {}", i % 97)).collect(),
            nulls(rng, rows, 23),
        ),
    ];
    VectorBatch::new_with_rows(build_schema(), cols, rows).unwrap()
}

/// Rows as values with doubles by bit pattern; dictionaries decoded —
/// which dictionary a column carries is not part of the result.
fn bits(b: &VectorBatch) -> Vec<Vec<String>> {
    (b.clone().decode().to_rows().iter())
        .map(|r| {
            (r.values().iter())
                .map(|v| match v {
                    Value::Double(f) => format!("f64:{:016x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

/// The parts, end to end, are `want`: column for column (a dictionary
/// column equals its decoded twin), and — where that fails — row for
/// row by value, which is what tells the difference.
fn same(parts: &[SelBatch], want: &VectorBatch, schema: &Schema, ctx: &str) {
    let joined = VectorBatch::concat_selected(schema, parts).unwrap();
    if joined != *want {
        assert_eq!(bits(&joined), bits(want), "{ctx}");
    }
}

fn col(c: usize) -> ScalarExpr {
    ScalarExpr::Column(c)
}

fn binary(op: hive_sql::BinaryOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// No residual; `l_v > r_v` (a compiled column-pair kernel); `l_v + r_v
/// > 40` (arithmetic under the comparison: the row interpreter).
fn residuals(lw: usize) -> [(&'static str, Option<ScalarExpr>); 3] {
    use hive_sql::BinaryOp::{Gt, Plus};
    let r_v = col(lw + 2);
    [
        ("none", None),
        ("compiled", Some(binary(Gt, col(L_V), r_v.clone()))),
        (
            "interpreted",
            Some(binary(
                Gt,
                binary(Plus, col(L_V), r_v),
                ScalarExpr::Literal(Value::Int(40)),
            )),
        ),
    ]
}

/// What one join configuration returned, part by part.
struct Outcome {
    parts: Vec<SelBatch>,
    pc: PirCounters,
}

#[allow(clippy::too_many_arguments)]
fn join_parts(
    parts: &[SelBatch],
    right: &VectorBatch,
    jt: JoinType,
    equi: &[(ScalarExpr, ScalarExpr)],
    residual: &Option<ScalarExpr>,
    out_schema: &Schema,
    workers: usize,
) -> Outcome {
    let mut pc = PirCounters::default();
    let (parts, _) = execute_join_parts(
        parts,
        &SelBatch::from_batch(right.clone()),
        jt,
        equi,
        residual,
        out_schema,
        usize::MAX,
        workers,
        None,
        Some(&mut pc),
    )
    .unwrap();
    Outcome { parts, pc }
}

/// Every join type and key shape over `parts` against `right`, checked
/// against the join over the concatenation; returns how many
/// configurations took the parts route.
fn check(parts: &[SelBatch], right: &VectorBatch, small: &VectorBatch, what: &str) -> usize {
    let whole = VectorBatch::concat_selected(&probe_schema(), parts).unwrap();
    let lw = probe_schema().len();
    let mut by_parts = 0;
    let key_shapes: [(&str, Vec<(ScalarExpr, ScalarExpr)>); 4] = [
        ("int key", vec![(col(L_K), col(0))]),
        ("string key", vec![(col(L_S), col(1))]),
        ("two keys", vec![(col(L_K), col(0)), (col(L_S), col(1))]),
        ("no key", vec![]),
    ];
    for (keys, equi) in &key_shapes {
        let join_types: &[JoinType] = if equi.is_empty() {
            &[JoinType::Cross, JoinType::Left, JoinType::Inner]
        } else {
            &[
                JoinType::Inner,
                JoinType::Left,
                JoinType::Semi,
                JoinType::Anti,
            ]
        };
        // A key-less join pairs every probe row with the whole build:
        // keep that build to a scalar subquery's few rows.
        let build = if equi.is_empty() { small } else { right };
        for &jt in join_types {
            let out_schema = if jt.keeps_right() {
                probe_schema().join(&build_schema())
            } else {
                probe_schema()
            };
            for (resid_name, residual) in residuals(lw) {
                let want =
                    execute_join(&whole, build, jt, equi, &residual, &out_schema, usize::MAX)
                        .unwrap();
                for workers in [1, 2, 8] {
                    let ctx = format!(
                        "{what}: {jt:?} / {keys} / residual {resid_name} / {workers} workers"
                    );
                    let got = join_parts(parts, build, jt, equi, &residual, &out_schema, workers);
                    same(&got.parts, &want, &out_schema, &ctx);
                    if got.parts.len() > 1 {
                        assert_eq!(
                            got.parts.len(),
                            parts.len(),
                            "{ctx}: one output part per probe part"
                        );
                        by_parts += 1;
                    }
                    // The residual's accounting is the whole join's: one
                    // compiled stage, or every candidate pair interpreted.
                    match resid_name {
                        "compiled" => assert_eq!(
                            (got.pc.compiled_stages, got.pc.fallback_rows),
                            (1, 0),
                            "{ctx}"
                        ),
                        "none" => assert_eq!(
                            (got.pc.compiled_stages, got.pc.fallback_rows),
                            (0, 0),
                            "{ctx}"
                        ),
                        _ => assert_eq!(got.pc.compiled_stages, 0, "{ctx}"),
                    }
                    if jt.keeps_right() {
                        assert_one_dictionary(
                            &got.parts,
                            lw + R_NAME,
                            build,
                            want.num_rows(),
                            &ctx,
                        );
                    }
                }
            }
        }
    }
    by_parts
}

/// The build's plain name column, once the whole join's output holds at
/// least twice its rows, leaves as `Dict` over one `Arc` in every part;
/// below that, plain in every part.
fn assert_one_dictionary(
    parts: &[SelBatch],
    c: usize,
    build: &VectorBatch,
    out_rows: usize,
    ctx: &str,
) {
    let src = build.column(R_NAME);
    let fans_out = out_rows >= 2 * src.len() && src.null_count() < src.len();
    let dicts: Vec<Option<&Arc<Vec<String>>>> = (parts.iter())
        .map(|p| p.batch.column(c).dict_parts().map(|(_, d, _)| d))
        .collect();
    if !fans_out {
        assert!(
            dicts.iter().all(Option::is_none),
            "{ctx}: no fan-out, yet encoded"
        );
        return;
    }
    let first = dicts[0].unwrap_or_else(|| panic!("{ctx}: a fanned-out build string left plain"));
    for d in &dicts {
        let d = d.unwrap_or_else(|| panic!("{ctx}: a part left the fanned-out string plain"));
        assert!(
            Arc::ptr_eq(first, d),
            "{ctx}: parts carry different dictionaries"
        );
    }
}

#[test]
fn parts_equal_the_concatenation() {
    let mut rng = StdRng::seed_from_u64(0x101_7a27);
    let mut by_parts = 0;
    for case in 0..3 {
        let dict_keys = case % 2 == 0;
        let nparts = [9, 1, 6][case];
        let parts: Vec<SelBatch> = (0..nparts)
            .map(|p| {
                let rows = if rng.gen_range(0..6) == 0 {
                    0
                } else {
                    rng.gen_range(1_800..3_000)
                };
                probe_part(&mut rng, p, rows, 400, dict_keys)
            })
            .collect();
        let right = build_side(&mut rng, 300, 400, dict_keys);
        let small = build_side(&mut rng, 3, 400, dict_keys);
        by_parts += check(
            &parts,
            &right,
            &small,
            &format!("case {case} ({nparts} parts)"),
        );
    }
    assert!(by_parts > 100, "the parts route must run: {by_parts}");
}

#[test]
fn key_representations_that_differ_between_parts_assemble() {
    // Plain string keys in some parts, dictionary keys in others: one
    // build index cannot serve both pairings, so the join takes the
    // assembled route — with the same bytes.
    let mut rng = StdRng::seed_from_u64(0xd1c7);
    let parts: Vec<SelBatch> = (0..6)
        .map(|p| probe_part(&mut rng, p, 2_000, 400, p % 2 == 0))
        .collect();
    let right = build_side(&mut rng, 300, 400, true);
    let small = build_side(&mut rng, 3, 400, true);
    check(&parts, &right, &small, "mixed key representations");
}

#[test]
fn a_build_string_fanned_out_by_the_whole_join_only_is_one_dictionary() {
    // Every part's output stays under twice the build's 300 rows; the
    // whole join's is several times that. Each part on its own would
    // clone strings; decided once for the whole join, every part gathers
    // codes over one dictionary.
    let mut rng = StdRng::seed_from_u64(0xfa0);
    let parts: Vec<SelBatch> = (0..9)
        .map(|p| {
            let mut part = probe_part(&mut rng, p, 1_500, 2_000, false);
            part.sel = SelVec::All(1_500);
            part
        })
        .collect();
    let right = build_side(&mut rng, 300, 2_000, false);
    let equi = vec![(col(L_K), col(0))];
    let out_schema = probe_schema().join(&build_schema());
    let whole = VectorBatch::concat_selected(&probe_schema(), &parts).unwrap();
    let want = execute_join(
        &whole,
        &right,
        JoinType::Inner,
        &equi,
        &None,
        &out_schema,
        usize::MAX,
    )
    .unwrap();
    for workers in [1, 2, 8] {
        let got = join_parts(
            &parts,
            &right,
            JoinType::Inner,
            &equi,
            &None,
            &out_schema,
            workers,
        );
        assert_eq!(got.parts.len(), parts.len());
        assert!(
            got.parts
                .iter()
                .all(|p| p.num_rows() < 2 * right.num_rows()),
            "every part under 2x"
        );
        let total: usize = got.parts.iter().map(SelBatch::num_rows).sum();
        assert!(
            total >= 2 * right.num_rows(),
            "the whole join fans out: {total}"
        );
        assert_one_dictionary(
            &got.parts,
            probe_schema().len() + R_NAME,
            &right,
            total,
            "whole-join fan-out",
        );
        same(
            &got.parts,
            &want,
            &out_schema,
            &format!("{workers} workers"),
        );
    }
}
