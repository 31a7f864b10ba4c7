//! The key layer (`hive_exec::keys`) against the code it replaced.
//!
//! Until the key layer, every hash operator encoded each key cell into
//! canonical bytes, hashed them with FNV-1a and compared them in a byte
//! arena. That encode-and-FNV code is kept here, in [`reference`], and
//! nowhere else: group ids, first-seen order and join pairs computed
//! from it with a plain `HashMap` are what the word shapes, the bytes
//! shape and the operators built on them must reproduce — over random
//! columns of every `ColumnVector` variant with NULLs, every join type,
//! INT × BIGINT, dictionaries that are disjoint, overlapping or carry
//! duplicate entries, `Dict` × `Str`, one to four key columns, keys too
//! wide to pack, and no key columns at all.

use hive_common::hash::fnv1a;
use hive_common::{
    BitSet, ColumnVector, Field, Schema, SelBatch, SelVec, Value, VectorBatch, NULL_INDEX,
};
use hive_exec::aggregate::execute_aggregate_parts;
use hive_exec::join::execute_join_parts;
use hive_exec::keys::{
    partition, route, Grouper, JoinIndex, KeySide, RowKeys, Shape, ValueSet, Word, WordTable,
};
use hive_optimizer::plan::{JoinType, LogicalPlan};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The parent commit's key code (`rawtable::try_encode_cell`,
/// `dict::KeyReader::encode_part_at`, `join::JoinCodec`'s encode half
/// and both `hash_rows`), verbatim in what it computes.
mod reference {
    use super::*;
    use hive_common::hash;

    /// `rawtable::try_encode_cell`.
    pub fn try_encode_cell(col: &ColumnVector, i: usize, out: &mut Vec<u8>) -> bool {
        if col.is_null(i) {
            return false;
        }
        match col {
            ColumnVector::Boolean(v, _) => {
                out.push(hash::TAG_BOOL);
                out.push(v[i] as u8);
            }
            ColumnVector::Int(v, _) => hash::encode_i64(v[i] as i64, out),
            ColumnVector::BigInt(v, _) => hash::encode_i64(v[i], out),
            ColumnVector::Double(v, _) => hash::encode_f64(v[i], out),
            ColumnVector::Decimal(v, s, _) => hash::encode_decimal(v.get(i), *s, out),
            ColumnVector::Str(v, _) => hash::encode_str(v[i].as_bytes(), out),
            ColumnVector::Dict { codes, dict, .. } => {
                hash::encode_str(dict[codes[i] as usize].as_bytes(), out)
            }
            ColumnVector::Date(v, _) => hash::encode_date(v[i], out),
            ColumnVector::Timestamp(v, _) => hash::encode_timestamp(v[i], out),
        }
        true
    }

    /// `dict::KeyReader`: the code fast path needs distinct entries.
    pub struct KeyReader<'a> {
        col: &'a ColumnVector,
        dict: Option<(&'a [u32], Option<&'a BitSet>)>,
    }

    impl<'a> KeyReader<'a> {
        pub fn new(col: &'a ColumnVector) -> Self {
            let dict = col
                .dict_parts()
                .filter(|(_, d, _)| {
                    let mut seen = std::collections::HashSet::new();
                    d.iter().all(|s| seen.insert(s.as_str()))
                })
                .map(|(codes, _, nulls)| (codes, nulls));
            KeyReader { col, dict }
        }

        /// `encode_part_at`: NULL is its own key class.
        pub fn encode_part_at(&self, i: usize, out: &mut Vec<u8>) {
            match &self.dict {
                Some((codes, nulls)) => {
                    if nulls.is_some_and(|n| n.get(i)) {
                        out.push(hash::TAG_NULL);
                    } else {
                        hash::encode_code(codes[i], out);
                    }
                }
                None => {
                    if !try_encode_cell(self.col, i, out) {
                        out.push(hash::TAG_NULL);
                    }
                }
            }
        }
    }

    /// `join::JoinCodec`, encode half.
    pub enum JoinCodec<'a> {
        Codes {
            lcodes: &'a [u32],
            lnulls: Option<&'a BitSet>,
            rcodes: &'a [u32],
            rnulls: Option<&'a BitSet>,
            rcanon: Vec<u32>,
            probe_map: Vec<Option<u32>>,
        },
        Vals {
            l: &'a ColumnVector,
            r: &'a ColumnVector,
        },
    }

    impl<'a> JoinCodec<'a> {
        pub fn new(l: &'a ColumnVector, r: &'a ColumnVector) -> JoinCodec<'a> {
            if let (Some((lc, ld, ln)), Some((rc, rd, rn))) = (l.dict_parts(), r.dict_parts()) {
                let mut rindex: HashMap<&str, u32> = HashMap::with_capacity(rd.len());
                let rcanon: Vec<u32> = rd
                    .iter()
                    .enumerate()
                    .map(|(ci, s)| *rindex.entry(s.as_str()).or_insert(ci as u32))
                    .collect();
                let probe_map = ld.iter().map(|s| rindex.get(s.as_str()).copied()).collect();
                return JoinCodec::Codes {
                    lcodes: lc,
                    lnulls: ln,
                    rcodes: rc,
                    rnulls: rn,
                    rcanon,
                    probe_map,
                };
            }
            JoinCodec::Vals { l, r }
        }

        pub fn encode_build_part(&self, i: usize, out: &mut Vec<u8>) -> bool {
            match self {
                JoinCodec::Codes {
                    rcodes,
                    rnulls,
                    rcanon,
                    ..
                } => {
                    if rnulls.is_some_and(|n| n.get(i)) {
                        false
                    } else {
                        hash::encode_code(rcanon[rcodes[i] as usize], out);
                        true
                    }
                }
                JoinCodec::Vals { r, .. } => try_encode_cell(r, i, out),
            }
        }

        pub fn encode_probe_part(&self, i: usize, out: &mut Vec<u8>) -> bool {
            match self {
                JoinCodec::Codes {
                    lcodes,
                    lnulls,
                    probe_map,
                    ..
                } => {
                    if lnulls.is_some_and(|n| n.get(i)) {
                        false
                    } else {
                        match probe_map[lcodes[i] as usize] {
                            Some(c) => hash::encode_code(c, out),
                            None => hash::encode_miss(out),
                        }
                        true
                    }
                }
                JoinCodec::Vals { l, .. } => try_encode_cell(l, i, out),
            }
        }
    }

    /// A grouping key's bytes for batch row `i`.
    pub fn group_key(cols: &[&ColumnVector], i: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for c in cols {
            KeyReader::new(c).encode_part_at(i, &mut out);
        }
        out
    }

    /// A join key's bytes for row `i` of one side; `None` = NULL key.
    pub fn join_key(codecs: &[JoinCodec<'_>], i: usize, build: bool) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for c in codecs {
            let keyed = if build {
                c.encode_build_part(i, &mut out)
            } else {
                c.encode_probe_part(i, &mut out)
            };
            if !keyed {
                return None;
            }
        }
        Some(out)
    }

    /// Group ids in first-seen order over the selected rows.
    pub fn group_ids(cols: &[&ColumnVector], sel: &SelVec) -> Vec<u32> {
        let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
        sel.iter()
            .map(|i| {
                let next = index.len() as u32;
                *index.entry(group_key(cols, i)).or_insert(next)
            })
            .collect()
    }

    /// Per probe row, the build rows carrying its key, ascending.
    pub fn candidates(
        l: &[&ColumnVector],
        r: &[&ColumnVector],
        nl: usize,
        nr: usize,
    ) -> Vec<Vec<u32>> {
        let codecs: Vec<JoinCodec<'_>> =
            l.iter().zip(r).map(|(l, r)| JoinCodec::new(l, r)).collect();
        let mut table: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
        for ri in 0..nr {
            if let Some(key) = join_key(&codecs, ri, true) {
                table.entry(key).or_default().push(ri as u32);
            }
        }
        (0..nl)
            .map(|li| {
                join_key(&codecs, li, false)
                    .and_then(|key| table.get(&key).cloned())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The join's output as `(left row, right row)` pairs, `NULL_INDEX`
    /// where a side is NULL-extended (or, for semi/anti, absent).
    pub fn join_pairs(cands: &[Vec<u32>], nr: usize, jt: JoinType) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut matched = vec![false; nr];
        for (li, kept) in cands.iter().enumerate() {
            let li = li as u32;
            match jt {
                JoinType::Semi if !kept.is_empty() => out.push((li, NULL_INDEX)),
                JoinType::Anti if kept.is_empty() => out.push((li, NULL_INDEX)),
                JoinType::Semi | JoinType::Anti => {}
                _ => {
                    for &ri in kept {
                        matched[ri as usize] = true;
                        out.push((li, ri));
                    }
                    if kept.is_empty() && matches!(jt, JoinType::Left | JoinType::Full) {
                        out.push((li, NULL_INDEX));
                    }
                }
            }
        }
        if matches!(jt, JoinType::Right | JoinType::Full) {
            out.extend(
                (0..nr as u32)
                    .filter(|&ri| !matched[ri as usize])
                    .map(|ri| (NULL_INDEX, ri)),
            );
        }
        out
    }
}

// --- random columns -----------------------------------------------------

/// splitmix64: the test's own stream, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const WORDS: [&str; 8] = ["ash", "birch", "cedar", "", "elm", "fir", "gum", "holly"];

fn dictionary(entries: &[&str]) -> Arc<Vec<String>> {
    Arc::new(entries.iter().map(|s| s.to_string()).collect())
}

/// A column of `n` rows of representation `kind` over a small value
/// domain (so keys repeat), NULL about one row in six when `nullable`.
/// Values stay integral where types can meet (an INT key equals a
/// BIGINT, DOUBLE or DECIMAL key of the same value).
fn column(rng: &mut Rng, kind: usize, n: usize, nullable: bool) -> ColumnVector {
    let mut nulls = BitSet::new(n);
    if nullable {
        (0..n)
            .filter(|_| rng.below(6) == 0)
            .collect::<Vec<_>>()
            .into_iter()
            .for_each(|i| nulls.set(i));
    }
    let nulls = nullable.then_some(nulls);
    let small = |rng: &mut Rng| rng.below(5) as i64 - 1;
    let codes =
        |rng: &mut Rng, len: usize| (0..n).map(|_| rng.below(len) as u32).collect::<Vec<u32>>();
    match kind {
        0 => ColumnVector::Boolean((0..n).map(|_| rng.below(2) == 0).collect(), nulls),
        1 => ColumnVector::Int((0..n).map(|_| small(rng) as i32).collect(), nulls),
        2 => ColumnVector::BigInt(
            (0..n)
                .map(|_| [small(rng), i64::MAX, i64::MIN + 1, 1 << 40][rng.below(4)])
                .collect(),
            nulls,
        ),
        3 => ColumnVector::Double(
            (0..n)
                .map(|_| [small(rng) as f64, 0.5, -0.0, f64::NAN][rng.below(4)])
                .collect(),
            nulls,
        ),
        4 => ColumnVector::Decimal((0..n).map(|_| small(rng) as i128 * 50).collect(), 2, nulls),
        5 => ColumnVector::Str(
            (0..n).map(|_| WORDS[rng.below(5)].to_string()).collect(),
            nulls,
        ),
        // Distinct entries; 7 and 8 overlap it partly / not at all.
        6 => ColumnVector::dict_from_codes(codes(rng, 5), dictionary(&WORDS[..5]), nulls).unwrap(),
        7 => ColumnVector::dict_from_codes(codes(rng, 5), dictionary(&WORDS[3..]), nulls).unwrap(),
        8 => ColumnVector::dict_from_codes(codes(rng, 2), dictionary(&["yew", "zelkova"]), nulls)
            .unwrap(),
        // Duplicate entries: codes 0/2 and 1/3 are one string each.
        9 => ColumnVector::dict_from_codes(
            codes(rng, 5),
            dictionary(&["ash", "birch", "ash", "birch", "cedar"]),
            nulls,
        )
        .unwrap(),
        10 => ColumnVector::Date((0..n).map(|_| small(rng) as i32).collect(), nulls),
        _ => ColumnVector::Timestamp((0..n).map(|_| small(rng)).collect(), nulls),
    }
}
const KINDS: usize = 12;

/// `(left kind, right kind)` of one join key column pair: every
/// same-kind pair, and the pairs where representations differ.
fn pair_kinds(rng: &mut Rng) -> (usize, usize) {
    const MIXED: [(usize, usize); 14] = [
        (1, 2), // INT × BIGINT
        (2, 1), // BIGINT × INT
        (6, 7), // overlapping dictionaries
        (7, 6),
        (6, 8), // disjoint dictionaries
        (9, 6), // duplicate entries on the probe side
        (6, 9), // ... on the build side
        (9, 9),
        (6, 5),   // Dict × Str
        (5, 7),   // Str × Dict
        (3, 1),   // DOUBLE × INT: integral doubles meet their integers
        (4, 2),   // DECIMAL × BIGINT
        (10, 11), // DATE × TIMESTAMP: equal at the epoch only
        (1, 10),  // INT × DATE: never equal
    ];
    match rng.below(2) {
        0 => {
            let k = rng.below(KINDS);
            (k, k)
        }
        _ => MIXED[rng.below(MIXED.len())],
    }
}

fn refs(cols: &[ColumnVector]) -> Vec<&ColumnVector> {
    cols.iter().collect()
}

/// A selection over `n` rows: all of them, or a shuffled subset.
fn selection(rng: &mut Rng, n: usize) -> SelVec {
    if rng.below(2) == 0 {
        return SelVec::all(n);
    }
    let mut idx: Vec<u32> = (0..n as u32).filter(|_| rng.below(3) > 0).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.below(i + 1));
    }
    SelVec::Idx(idx)
}

/// Group ids of `keys`, keyed by `side`, through the key layer.
fn layer_group_ids(side: &KeySide, keys: &RowKeys) -> (Vec<u32>, Vec<usize>) {
    let (mut ids, mut firsts) = (Vec::new(), Vec::new());
    Grouper::new(side, 1)
        .assign(keys, None, |r, g, new| {
            assert_eq!(r, ids.len(), "rows arrive in ascending order");
            assert_eq!(
                new,
                g as usize == firsts.len(),
                "new groups take the next id"
            );
            if new {
                firsts.push(r);
            }
            ids.push(g);
        })
        .unwrap();
    (ids, firsts)
}

/// Candidate lists of every probe row through the key layer: `nl`
/// probe rows against `nr` build rows in `nparts` partitions.
fn layer_candidates(
    probe: &KeySide,
    build: &KeySide,
    (nl, nr): (usize, usize),
    nparts: usize,
) -> Vec<Vec<u32>> {
    let index = JoinIndex::build(build, &SelVec::all(nr), nparts, nparts).unwrap();
    let probe = index
        .probe_side(probe.clone())
        .keys(&SelVec::all(nl), 0, nl);
    let mut out = Vec::new();
    index
        .probe(&probe, |r, cands| {
            assert_eq!(r, out.len());
            out.push(cands.to_vec());
            Ok(())
        })
        .unwrap();
    out
}

fn batch_of(prefix: &str, mut cols: Vec<ColumnVector>) -> VectorBatch {
    // The payload: each row's own number, to read join pairs back.
    let n = cols.first().map_or(0, |c| c.len());
    cols.push(ColumnVector::Int((0..n as i32).collect(), None));
    let fields = cols
        .iter()
        .enumerate()
        .map(|(c, col)| Field::new(format!("{prefix}{c}"), col.data_type()))
        .collect();
    VectorBatch::new(Schema::new(fields), cols).unwrap()
}

/// The `(left row, right row)` pairs a join's output stands for.
fn output_pairs(out: &VectorBatch, lid: usize, rid: Option<usize>) -> Vec<(u32, u32)> {
    let id = |v: &Value| match v {
        Value::Int(i) => *i as u32,
        _ => NULL_INDEX,
    };
    out.to_rows()
        .iter()
        .map(|row| (id(row.get(lid)), rid.map_or(NULL_INDEX, |c| id(row.get(c)))))
        .collect()
}

/// The worker counts to run an operator at.
const WORKERS: [usize; 3] = [1, 2, 4];

const JOIN_TYPES: [JoinType; 6] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Right,
    JoinType::Full,
    JoinType::Semi,
    JoinType::Anti,
];

/// Run the join operator over `l ⋈ r` on their first `nkeys` columns
/// and check its pairs against `want`, at 1/2/4 workers.
fn check_join_operator(
    l: &VectorBatch,
    r: &VectorBatch,
    nkeys: usize,
    jt: JoinType,
    want: &[(u32, u32)],
) {
    let equi: Vec<(ScalarExpr, ScalarExpr)> = (0..nkeys)
        .map(|k| (ScalarExpr::Column(k), ScalarExpr::Column(k)))
        .collect();
    let out_schema = if jt.keeps_right() {
        l.schema().join(r.schema())
    } else {
        l.schema().clone()
    };
    let (lid, rid) = (nkeys, jt.keeps_right().then_some(2 * nkeys + 1));
    let (lsb, rsb) = (
        SelBatch::from_batch(l.clone()),
        SelBatch::from_batch(r.clone()),
    );
    // Byte-identity by `Debug`: a NaN key column is unequal to itself.
    let mut first: Option<String> = None;
    for workers in WORKERS {
        let (parts, _) = execute_join_parts(
            std::slice::from_ref(&lsb),
            &rsb,
            jt,
            &equi,
            &None,
            &out_schema,
            usize::MAX,
            workers,
            None,
            None,
        )
        .unwrap();
        let out = VectorBatch::concat_selected(&out_schema, &parts).unwrap();
        let ctx = format!("{jt:?}, {workers} workers");
        assert_eq!(output_pairs(&out, lid, rid), want, "{ctx}");
        let out = format!("{out:?}");
        match &first {
            None => first = Some(out),
            Some(f) => assert_eq!(&out, f, "{ctx}: not byte-identical"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Group ids and first-seen order: whichever shape the columns
    /// choose = the reference, through any selection.
    fn group_ids_equal_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = rng.below(120);
        let ncols = 1 + rng.below(4);
        let cols: Vec<ColumnVector> = (0..ncols)
            .map(|_| {
                let (kind, nullable) = (rng.below(KINDS), rng.below(2) == 0);
                column(&mut rng, kind, n, nullable)
            })
            .collect();
        let cols = refs(&cols);
        let sel = selection(&mut rng, n);
        let want = reference::group_ids(&cols, &sel);
        // The shape the columns choose, and the dense kind where the
        // selected rows allow it.
        for side in [KeySide::group(&cols), KeySide::group(&cols).dense_over(&sel)] {
            let keys = side.keys(&sel, 0, sel.len());
            prop_assert_eq!(keys.len(), sel.len());
            let (ids, _) = layer_group_ids(&side, &keys);
            prop_assert_eq!(&ids, &want, "shape {:?}", side.shape());
            // A row range keys like the same rows of the whole.
            let (lo, hi) = (sel.len() / 3, sel.len() - sel.len() / 4);
            let part = side.keys(&sel, lo, hi);
            for r in 0..hi - lo {
                prop_assert_eq!(part.hash(r), keys.hash(lo + r));
            }
        }
    }

    /// Where the columns choose the bytes shape, it is the parent's
    /// encoding and hash, byte for byte; the word shapes carry no bytes.
    fn bytes_shape_is_the_reference_encoding(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = rng.below(60);
        let cols: Vec<ColumnVector> = (0..1 + rng.below(3))
            .map(|_| {
                let (kind, nullable) = (rng.below(KINDS), rng.below(2) == 0);
                column(&mut rng, kind, n, nullable)
            })
            .collect();
        let cols = refs(&cols);
        let side = KeySide::group(&cols);
        let keys = side.keys(&SelVec::all(n), 0, n);
        for i in 0..n {
            if side.shape() != Shape::Bytes {
                prop_assert_eq!(keys.bytes(i), None);
                continue;
            }
            let want = reference::group_key(&cols, i);
            prop_assert_eq!(keys.bytes(i), Some(&want[..]));
            prop_assert_eq!(keys.hash(i), Some(fnv1a(&want)));
        }
        // And a join's two sides, where a NULL part drops the row.
        let (lk, rk) = pair_kinds(&mut rng);
        let (l, r) = (column(&mut rng, lk, n, true), column(&mut rng, rk, n, true));
        let codecs = [reference::JoinCodec::new(&l, &r)];
        let (probe, build) = KeySide::join_pair(&[&l], &[&r]);
        let (pkeys, bkeys) = (probe.keys(&SelVec::all(n), 0, n), build.keys(&SelVec::all(n), 0, n));
        for i in (0..n).filter(|_| probe.shape() == Shape::Bytes) {
            let want = reference::join_key(&codecs, i, false);
            prop_assert_eq!(pkeys.bytes(i), want.as_deref());
            prop_assert_eq!(pkeys.hash(i), want.as_deref().map(fnv1a));
            let want = reference::join_key(&codecs, i, true);
            prop_assert_eq!(bkeys.bytes(i), want.as_deref());
            prop_assert_eq!(bkeys.hash(i), want.as_deref().map(fnv1a));
        }
    }

    /// Join candidates — whichever shape the columns choose = the
    /// reference, at any partition count — and the operator's pairs for
    /// every join type at 1/2/4 workers.
    fn join_pairs_equal_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (nl, nr) = (rng.below(90), rng.below(60));
        let nkeys = 1 + rng.below(4);
        let (mut lcols, mut rcols) = (Vec::new(), Vec::new());
        for _ in 0..nkeys {
            let (lk, rk) = pair_kinds(&mut rng);
            let nullable = (rng.below(2) == 0, rng.below(2) == 0);
            lcols.push(column(&mut rng, lk, nl, nullable.0));
            rcols.push(column(&mut rng, rk, nr, nullable.1));
        }
        let want = reference::candidates(&refs(&lcols), &refs(&rcols), nl, nr);
        let (probe, build) = KeySide::join_pair(&refs(&lcols), &refs(&rcols));
        prop_assert_eq!(probe.shape(), build.shape());
        for nparts in [1, 3] {
            let got = layer_candidates(&probe, &build, (nl, nr), nparts);
            prop_assert_eq!(&got, &want, "shape {:?}, {} partitions", probe.shape(), nparts);
        }

        let (l, r) = (batch_of("l", lcols), batch_of("r", rcols));
        for jt in JOIN_TYPES {
            check_join_operator(&l, &r, nkeys, jt, &reference::join_pairs(&want, nr, jt));
        }
    }

    /// `partition` puts every keyed row in exactly one run — the
    /// partition `route` gives its hash — numbered from the chunk's first
    /// position and ascending within the run; a row a join excludes is
    /// in none. Join sides (NULL parts excluded) and grouping sides (NULL
    /// a key), every shape, one to eight partitions.
    fn partition_scatters_each_keyed_row_once_by_route(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = rng.below(300);
        let at = rng.below(10_000);
        let (mut lcols, mut rcols) = (Vec::new(), Vec::new());
        for _ in 0..rng.below(4) {
            let (lk, rk) = pair_kinds(&mut rng);
            let nullable = (rng.below(2) == 0, rng.below(2) == 0);
            lcols.push(column(&mut rng, lk, n, nullable.0));
            rcols.push(column(&mut rng, rk, n, nullable.1));
        }
        let (probe, build) = KeySide::join_pair(&refs(&lcols), &refs(&rcols));
        let group = KeySide::group(&refs(&lcols));
        let all = SelVec::all(n);
        for side in [&probe, &build, &group] {
            let keys = side.keys(&all, 0, n);
            for nparts in [1, 2, 3, 8] {
                let runs = partition(&keys, at, nparts);
                let mut seen = vec![0u32; n];
                for p in 0..nparts {
                    let run = runs.run(p);
                    prop_assert!(run.windows(2).all(|w| w[0] < w[1]), "run {} ascends", p);
                    for &row in run {
                        let r = row as usize - at;
                        seen[r] += 1;
                        let h = keys.hash(r);
                        prop_assert_eq!(h.map(|h| route(h, nparts)), Some(p), "row {}", r);
                    }
                }
                for (r, &times) in seen.iter().enumerate() {
                    prop_assert_eq!(times, keys.hash(r).is_some() as u32, "row {} of {:?}", r, side.shape());
                }
            }
        }
    }

    /// Equal keys hash equally on the probe and the build side of a
    /// word-shaped join, whatever each side's representation.
    fn word_hashes_agree_across_join_sides(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(60);
        let vals: Vec<i32> = (0..n).map(|_| rng.below(1000) as i32 - 500).collect();
        let codes: Vec<u32> = (0..n).map(|_| rng.below(5) as u32).collect();
        let int = ColumnVector::Int(vals.clone(), None);
        let big = ColumnVector::BigInt(vals.iter().map(|&v| v as i64).collect(), None);
        // The same strings under different codes and a larger dictionary.
        let ldict = ColumnVector::dict_from_codes(codes.clone(), dictionary(&WORDS[..5]), None).unwrap();
        let shuffled = ["elm", "nope", "", "cedar", "birch", "ash", "zzz"];
        let rcodes = codes.iter().map(|&c| {
            shuffled.iter().position(|s| *s == WORDS[c as usize]).unwrap() as u32
        });
        let rdict = ColumnVector::dict_from_codes(rcodes.collect(), dictionary(&shuffled), None).unwrap();
        for (l, r) in [
            (vec![&int], vec![&big]),
            (vec![&big, &int], vec![&int, &int]),
            (vec![&ldict], vec![&rdict]),
            (vec![&int, &ldict, &int], vec![&big, &rdict, &int]),
        ] {
            let (probe, build) = KeySide::join_pair(&l, &r);
            prop_assert!(matches!(probe.shape(), Shape::W64 | Shape::W128));
            let (p, b) = (probe.keys(&SelVec::all(n), 0, n), build.keys(&SelVec::all(n), 0, n));
            for i in 0..n {
                prop_assert!(p.hash(i).is_some());
                prop_assert_eq!(p.hash(i), b.hash(i));
            }
        }
    }

    /// GROUP BY through the operator: groups in first-seen order with
    /// their counts, byte-identical at 1/2/4 workers.
    fn group_by_operator_equals_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = rng.below(150);
        let ncols = 1 + rng.below(3);
        let cols: Vec<ColumnVector> = (0..ncols)
            .map(|_| {
                let (kind, nullable) = (rng.below(KINDS), rng.below(2) == 0);
                column(&mut rng, kind, n, nullable)
            })
            .collect();
        let ids = reference::group_ids(&refs(&cols), &SelVec::all(n));
        let mut counts: Vec<i64> = Vec::new();
        for &g in &ids {
            if g as usize == counts.len() {
                counts.push(0);
            }
            counts[g as usize] += 1;
        }
        let batch = batch_of("c", cols);
        let groups: Vec<ScalarExpr> = (0..ncols).map(ScalarExpr::Column).collect();
        let aggs = vec![AggExpr { func: AggFunc::Count, arg: None, distinct: false }];
        let out_schema = LogicalPlan::Aggregate {
            input: Arc::new(LogicalPlan::Values { schema: batch.schema().clone(), rows: vec![] }),
            group_exprs: groups.clone(),
            grouping_sets: None,
            aggs: aggs.clone(),
        }
        .schema();
        let sb = SelBatch::from_batch(batch);
        let mut first: Option<String> = None;
        for workers in WORKERS {
            let out = execute_aggregate_parts(
                std::slice::from_ref(&sb), &groups, &None, &aggs, &out_schema, workers, None, None,
            )
        .map(|(batch, _)| batch)
            .unwrap();
            let got: Vec<i64> = out
                .to_rows()
                .iter()
                .map(|row| row.get(ncols).as_i64().unwrap())
                .collect();
            prop_assert_eq!(&got, &counts, "{} workers", workers);
            let out = format!("{out:?}");
            match &first {
                None => first = Some(out),
                Some(f) => prop_assert_eq!(&out, f),
            }
        }
    }
}

#[test]
fn keys_too_wide_to_pack_take_the_bytes_shape_and_still_group() {
    let n = 64;
    let big = |mul: i64| ColumnVector::BigInt((0..n).map(|i| (i % 4) * mul).collect(), None);
    let cols = [big(1), big(-7), big(1 << 40)];
    let side = KeySide::group(&refs(&cols));
    assert_eq!(side.shape(), Shape::Bytes);
    let (ids, _) = layer_group_ids(&side, &side.keys(&SelVec::all(n as usize), 0, n as usize));
    assert_eq!(
        ids,
        reference::group_ids(&refs(&cols), &SelVec::all(n as usize))
    );
    // Two of them fit a u128.
    assert_eq!(KeySide::group(&refs(&cols[..2])).shape(), Shape::W128);
}

#[test]
fn chunked_keys_group_like_the_whole_range() {
    // Serial consumers take keys a chunk at a time (`key_chunks`): one
    // table across chunk boundaries must see what it would see in the
    // whole range's keys, on a word shape, the bytes shape and the dense
    // kind.
    let n = 40_000usize;
    let ints = ColumnVector::Int((0..n).map(|i| (i * 7919 % 3001) as i32).collect(), None);
    let text = ColumnVector::Str((0..n).map(|i| format!("s{}", i * 31 % 977)).collect(), None);
    let sel = SelVec::all(n);
    let dense = KeySide::group(&[&ints]).dense_over(&sel);
    assert_eq!(dense.shape(), Shape::Dense);
    for side in [
        KeySide::group(&[&ints]),
        KeySide::group(&[&ints, &text]),
        dense,
    ] {
        let (whole, _) = layer_group_ids(&side, &side.keys(&sel, 0, n));
        let mut chunked = vec![u32::MAX; n];
        let (mut groups, mut chunks) = (Grouper::new(&side, 1), 0);
        side.key_chunks(&sel, 0, n, |at, keys| {
            chunks += 1;
            groups.assign(keys, None, |r, g, _| chunked[at + r] = g)
        })
        .unwrap();
        assert!(chunks > 1, "the input must span several chunks");
        assert_eq!(chunked, whole, "shape {:?}", side.shape());
    }
}

#[test]
fn forced_full_hash_collisions_still_separate_keys() {
    // Every key gets the same hash: one probe chain, told apart by the
    // word alone, across several growths.
    fn check<K: Word>(key: impl Fn(u64) -> K) {
        let mut t = WordTable::<K>::new();
        let h = 0xdead_beef_dead_beef;
        for n in 0..300u64 {
            assert_eq!(t.insert(h, key(n)), (n as u32, true));
        }
        for n in 0..300u64 {
            assert_eq!(t.insert(h, key(n)), (n as u32, false));
            assert_eq!(t.find(h, key(n)), Some(n as u32));
        }
        assert_eq!(t.find(h, key(1000)), None);
        assert_eq!(t.len(), 300);
    }
    check::<u64>(|n| n);
    check::<u128>(|n| (n as u128) << 64 | 7);
}

#[test]
fn keyless_joins_consult_no_table() {
    // No key columns: every probe row meets every build row, in order —
    // 0, 1 and many build rows, every join type that plans produce
    // without keys.
    for nr in [0usize, 1, 7] {
        let nl = 5usize;
        let (probe, build) = KeySide::join_pair(&[], &[]);
        assert_eq!(probe.shape(), Shape::None);
        let cands = layer_candidates(&probe, &build, (nl, nr), 2);
        let everyone: Vec<u32> = (0..nr as u32).collect();
        assert_eq!(cands, vec![everyone; nl]);
        let (l, r) = (batch_rows("l", nl), batch_rows("r", nr));
        for jt in [
            JoinType::Left,
            JoinType::Inner,
            JoinType::Cross,
            JoinType::Semi,
            JoinType::Anti,
            JoinType::Full,
        ] {
            let want = reference::join_pairs(
                &cands,
                nr,
                if jt == JoinType::Cross {
                    JoinType::Inner
                } else {
                    jt
                },
            );
            check_join_operator(&l, &r, 0, jt, &want);
        }
    }
}

/// A batch of `n` rows holding only the row-number payload.
fn batch_rows(prefix: &str, n: usize) -> VectorBatch {
    let col = ColumnVector::Int((0..n as i32).collect(), None);
    VectorBatch::new(
        Schema::new(vec![Field::new(format!("{prefix}0"), col.data_type())]),
        vec![col],
    )
    .unwrap()
}

#[test]
fn nan_zero_and_integral_doubles_are_one_value_each() {
    // ROADMAP's NaN bug: the `HashMap` arm of the DISTINCT set counted
    // every NaN separately (`Value`'s `Eq` is `sql_cmp`, NaN ≠ NaN).
    let mut set = ValueSet::default();
    let fresh: Vec<bool> = [
        Value::Double(f64::NAN),
        Value::Double(f64::NAN),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(3.0),
        Value::Int(3),
        Value::BigInt(3),
        Value::Double(3.5),
    ]
    .iter()
    .map(|v| set.insert(v))
    .collect();
    assert_eq!(fresh, [true, false, true, false, true, false, false, true]);
    assert_eq!(set.len(), 4);
}
