//! Property tests: the ACID stack's visible row set always equals a
//! trivial in-memory model, no matter how inserts, aborts, deletes,
//! minor/major compactions, and cleaning interleave (§3.2).

use hive_acid::writer::{acid_file_schema, delete_file_schema, record_id_at};
use hive_acid::{resolve_snapshot, AcidDir, AcidScan, AcidWriter, Compactor, DirKind};
use hive_common::{
    BucketId, DataType, Field, RecordId, Row, RowId, Schema, Value, VectorBatch, WriteId,
};
use hive_corc::{CorcFile, CorcWriter, SearchArgument};
use hive_dfs::{DfsPath, DistFs};
use hive_metastore::{Metastore, TableBuilder, ValidWriteIdList};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

const TABLE: &str = "default.t";

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        // Low-cardinality: dictionary-encoded on disk.
        Field::new("s", DataType::String),
    ])
}

/// One step of the generated history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `n` fresh keys and commit.
    Insert(u8),
    /// Insert `n` keys, then abort the transaction.
    InsertAborted(u8),
    /// Delete the i-th currently-visible row (modulo count) and commit.
    Delete(u8),
    /// Minor compaction + clean.
    Minor,
    /// Major compaction + clean.
    Major,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u8..6).prop_map(Op::Insert),
        1 => (1u8..6).prop_map(Op::InsertAborted),
        3 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Minor),
        1 => Just(Op::Major),
    ]
}

struct Harness {
    fs: DistFs,
    ms: Metastore,
    dir: DfsPath,
    writer: AcidWriter,
    /// Model: visible rows as key → RecordId.
    model: BTreeMap<i32, RecordId>,
    next_key: i32,
}

impl Harness {
    fn new() -> Self {
        let fs = DistFs::new();
        let ms = Metastore::new();
        ms.create_table(TableBuilder::new("default", "t", schema()).build())
            .unwrap();
        let dir = DfsPath::new("/warehouse/default/t");
        let writer = AcidWriter::new(&fs, &dir, schema());
        Harness {
            fs,
            ms,
            dir,
            writer,
            model: BTreeMap::new(),
            next_key: 0,
        }
    }

    fn batch(&mut self, n: u8) -> (VectorBatch, Vec<i32>) {
        let keys: Vec<i32> = (0..n as i32).map(|i| self.next_key + i).collect();
        self.next_key += n as i32;
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| Row::new(vec![Value::Int(k), Value::String(format!("s{}", k % 3))]))
            .collect();
        (VectorBatch::from_rows(&schema(), &rows).unwrap(), keys)
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(n) => {
                let (batch, keys) = self.batch(*n);
                let txn = self.ms.open_txn();
                let wid = self.ms.allocate_write_id(txn, TABLE).unwrap();
                self.writer.write_insert_delta(wid, &batch).unwrap();
                self.ms.commit_txn(txn).unwrap();
                for (i, k) in keys.into_iter().enumerate() {
                    self.model
                        .insert(k, RecordId::new(wid, BucketId(0), RowId(i as u64)));
                }
            }
            Op::InsertAborted(n) => {
                let (batch, _) = self.batch(*n);
                let txn = self.ms.open_txn();
                let wid = self.ms.allocate_write_id(txn, TABLE).unwrap();
                self.writer.write_insert_delta(wid, &batch).unwrap();
                self.ms.abort_txn(txn).unwrap();
                // Model unchanged: aborted rows must never be visible.
            }
            Op::Delete(i) => {
                if self.model.is_empty() {
                    return;
                }
                let idx = *i as usize % self.model.len();
                let (&key, &rid) = self.model.iter().nth(idx).unwrap();
                let txn = self.ms.open_txn();
                let wid = self.ms.allocate_write_id(txn, TABLE).unwrap();
                self.ms.add_write_set(txn, TABLE, None).unwrap();
                self.writer.write_delete_delta(wid, &[rid]).unwrap();
                self.ms.commit_txn(txn).unwrap();
                self.model.remove(&key);
            }
            Op::Minor => {
                let snap = self.ms.valid_txn_list();
                let wlist = self.ms.valid_write_ids(TABLE, &snap, None);
                let compactor = Compactor::new(&self.fs, &self.dir, schema());
                if let Some(outcome) = compactor.minor(&wlist).unwrap() {
                    compactor.clean(&outcome).unwrap();
                }
            }
            Op::Major => {
                let snap = self.ms.valid_txn_list();
                let wlist = self.ms.valid_write_ids(TABLE, &snap, None);
                let compactor = Compactor::new(&self.fs, &self.dir, schema());
                if let Some(outcome) = compactor.major(&wlist).unwrap() {
                    compactor.clean(&outcome).unwrap();
                    if let Some(hwm) = outcome.new_base_wid {
                        self.ms.truncate_aborted_history(TABLE, hwm);
                    }
                }
            }
        }
    }

    fn visible_keys(&self) -> Vec<i32> {
        let snap = self.ms.valid_txn_list();
        let wlist = self.ms.valid_write_ids(TABLE, &snap, None);
        let scan = AcidScan::new(&self.fs, &self.dir, schema(), wlist).unwrap();
        let b = scan.read(&[0], &SearchArgument::new(), false).unwrap();
        let mut out: Vec<i32> = b
            .to_rows()
            .into_iter()
            .map(|r| match r.get(0) {
                Value::Int(v) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// The compactor's reads as they were before `hive_acid::visibility`
/// decided row groups from their footers: every file read whole, a
/// `Value` per cell, one `append(take)` per file. Kept as the reference
/// for the bytes a compaction writes.
mod replaced {
    use super::*;

    /// The rows of `dirs`' files whose `keep` says so, in file order.
    pub fn read_stores(
        fs: &DistFs,
        dirs: &[AcidDir],
        file_schema: &Schema,
        keep: impl Fn(&VectorBatch, usize) -> bool,
    ) -> VectorBatch {
        let mut out = VectorBatch::empty(file_schema).unwrap();
        for d in dirs {
            for (path, _) in fs.list_files_recursive(&d.path) {
                let all = CorcFile::open(fs, &path)
                    .unwrap()
                    .read_all_encoded()
                    .unwrap();
                let kept: Vec<u32> = (0..all.num_rows())
                    .filter(|&i| keep(&all, i))
                    .map(|i| i as u32)
                    .collect();
                out.append(&all.take(&kept)).unwrap();
            }
        }
        out
    }

    pub fn visible(wlist: &ValidWriteIdList, batch: &VectorBatch, col: usize, i: usize) -> bool {
        match batch.column(col).get(i) {
            Value::BigInt(v) => wlist.is_visible(WriteId(v as u64)),
            _ => false,
        }
    }

    /// The identities named by visible tombstones.
    pub fn delete_set(
        fs: &DistFs,
        dirs: &[AcidDir],
        wlist: &ValidWriteIdList,
    ) -> HashSet<RecordId> {
        let all = read_stores(fs, dirs, &delete_file_schema(), |b, i| {
            visible(wlist, b, 3, i)
        });
        (0..all.num_rows()).map(|i| record_id_at(&all, i)).collect()
    }

    pub fn file_bytes(schema: Schema, batch: &VectorBatch) -> bytes::Bytes {
        let mut w = CorcWriter::new(schema, Default::default()).unwrap();
        w.write_batch(batch).unwrap();
        w.finish().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A compaction writes, byte for byte, the file the replaced
    /// whole-file `Value`-per-row reads would have produced.
    #[test]
    fn compacted_files_are_byte_identical_to_the_replaced_reads(
        ops in proptest::collection::vec(op_strategy(), 2..20),
        major in any::<bool>(),
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
        }
        let snap = h.ms.valid_txn_list();
        let wlist = h.ms.valid_write_ids(TABLE, &snap, None);
        // Every transaction here is decided, so the ceiling is the
        // watermark and every delta is a source.
        let before = resolve_snapshot(&h.fs, &h.dir, &wlist);
        let compactor = Compactor::new(&h.fs, &h.dir, schema());
        let outcome = if major { compactor.major(&wlist) } else { compactor.minor(&wlist) };
        let Some(outcome) = outcome.unwrap() else { return };
        let data_schema = acid_file_schema(&schema());
        let mut want: Vec<bytes::Bytes> = Vec::new();
        if major {
            let deleted = replaced::delete_set(&h.fs, &before.delete_deltas, &wlist);
            let sources: Vec<AcidDir> =
                before.base.iter().chain(&before.insert_deltas).cloned().collect();
            let merged = replaced::read_stores(&h.fs, &sources, &data_schema, |b, i| {
                replaced::visible(&wlist, b, 0, i) && !deleted.contains(&record_id_at(b, i))
            });
            want.push(replaced::file_bytes(data_schema, &merged));
        } else {
            if before.insert_deltas.len() >= 2 {
                let merged = replaced::read_stores(&h.fs, &before.insert_deltas, &data_schema,
                    |b, i| replaced::visible(&wlist, b, 0, i));
                want.push(replaced::file_bytes(data_schema, &merged));
            }
            if before.delete_deltas.len() >= 2 {
                let merged = replaced::read_stores(&h.fs, &before.delete_deltas,
                    &delete_file_schema(), |b, i| replaced::visible(&wlist, b, 3, i));
                want.push(replaced::file_bytes(delete_file_schema(), &merged));
            }
        }
        let got: Vec<bytes::Bytes> = outcome
            .produced
            .iter()
            .flat_map(|d| h.fs.list_files_recursive(d))
            .map(|(path, _)| h.fs.read(&path).unwrap().1)
            .collect();
        prop_assert_eq!(got.len(), want.len(), "{:?}", outcome);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g == w, "file {} of {:?} differs from the replaced reads' bytes", i, outcome.produced);
        }
        let kinds: Vec<DirKind> =
            outcome.produced.iter().filter_map(AcidDir::parse).map(|d| d.kind).collect();
        prop_assert_eq!(kinds.len(), want.len());
    }

    /// The visible row set matches the model after every step.
    #[test]
    fn acid_history_matches_model(ops in proptest::collection::vec(op_strategy(), 1..24)) {
        let mut h = Harness::new();
        for (step, op) in ops.iter().enumerate() {
            h.apply(op);
            let got = h.visible_keys();
            let want: Vec<i32> = h.model.keys().copied().collect();
            prop_assert_eq!(&got, &want, "divergence after step {} ({:?})", step, op);
        }
    }

    /// Compactions never change what a reader sees, and the delta count
    /// after a major compaction + clean is zero.
    #[test]
    fn major_compaction_is_invisible_and_collapses_layout(
        ops in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
        }
        let before = h.visible_keys();
        h.apply(&Op::Major);
        let after = h.visible_keys();
        prop_assert_eq!(before, after);
        // Post-clean layout: at most a single base directory remains.
        let entries: Vec<String> = h
            .fs
            .list(&h.dir)
            .into_iter()
            .map(|e| e.path.to_string())
            .collect();
        let deltas = entries
            .iter()
            .filter(|e| {
                let leaf = e.rsplit('/').next().unwrap_or("");
                leaf.starts_with("delta_") || leaf.starts_with("delete_delta_")
            })
            .count();
        prop_assert_eq!(deltas, 0, "layout after major+clean: {:?}", entries);
    }
}
