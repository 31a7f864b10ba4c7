//! Resolving a snapshot against a store directory: which base, which
//! deltas, and the set of deleted record identities.

use crate::layout::{AcidDir, DirKind};
use crate::visibility::{id_slice, record_id, Visibility};
use crate::writer::ACID_COLS;
use hive_common::{RecordId, Result, WriteId};
use hive_corc::CorcFile;
use hive_dfs::{DfsPath, DistFs};
use hive_metastore::ValidWriteIdList;

/// The store directories a given snapshot must read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcidSnapshot {
    /// The chosen base, if any.
    pub base: Option<AcidDir>,
    /// Insert deltas above the base (records still filtered per WriteId).
    pub insert_deltas: Vec<AcidDir>,
    /// Delete deltas that may apply.
    pub delete_deltas: Vec<AcidDir>,
    /// Directories that are obsolete under *every* current snapshot
    /// (covered by the chosen base) — candidates for the cleaner.
    pub obsolete: Vec<AcidDir>,
}

impl AcidSnapshot {
    /// Total number of live store directories (diagnostic; drives the
    /// auto-compaction delta-count threshold).
    pub fn delta_count(&self) -> usize {
        self.insert_deltas.len() + self.delete_deltas.len()
    }
}

/// Resolve the directory listing of `dir` against a snapshot:
///
/// 1. choose the highest `base_N` valid under the snapshot
///    (`N ≤ hwm`, no open WriteId `≤ N`);
/// 2. keep insert/delete deltas whose range reaches above `N` and whose
///    range intersects visible WriteIds.
pub fn resolve_snapshot(fs: &DistFs, dir: &DfsPath, wlist: &ValidWriteIdList) -> AcidSnapshot {
    let mut bases: Vec<AcidDir> = Vec::new();
    let mut deltas: Vec<AcidDir> = Vec::new();
    let mut delete_deltas: Vec<AcidDir> = Vec::new();
    for entry in fs.list(dir) {
        if !entry.is_dir() {
            continue; // stray files are not stores
        }
        if let Some(d) = AcidDir::parse(&entry.path) {
            match d.kind {
                DirKind::Base => bases.push(d),
                DirKind::Delta => deltas.push(d),
                DirKind::DeleteDelta => delete_deltas.push(d),
            }
        }
    }
    bases.sort_by_key(|b| b.max_wid);
    let base = bases
        .iter()
        .rev()
        .find(|b| wlist.is_valid_base(b.max_wid))
        .cloned();
    let base_wid = base.as_ref().map_or(WriteId(0), |b| b.max_wid);

    let mut obsolete: Vec<AcidDir> = bases
        .iter()
        .filter(|b| b.max_wid < base_wid)
        .cloned()
        .collect();

    let visible_range = |d: &AcidDir| {
        // A delta is interesting when its range reaches above the base
        // and at least one id in the range could be visible.
        d.max_wid > base_wid && (d.min_wid <= wlist.high_watermark || wlist.own == Some(d.min_wid))
    };
    // Select live deltas, preferring the *widest* range when ranges
    // overlap: a compacted delta_1_5 subsumes delta_1_1..delta_5_5 that
    // the cleaner has not removed yet (Hive's getAcidState rule).
    let select = |mut candidates: Vec<AcidDir>, obsolete: &mut Vec<AcidDir>| {
        candidates.sort_by(|a, b| a.min_wid.cmp(&b.min_wid).then(b.max_wid.cmp(&a.max_wid)));
        let mut out: Vec<AcidDir> = Vec::new();
        for d in candidates {
            if d.max_wid <= base_wid {
                obsolete.push(d);
                continue;
            }
            if let Some(last) = out.last() {
                if d.min_wid >= last.min_wid && d.max_wid <= last.max_wid {
                    obsolete.push(d); // subsumed by a wider delta
                    continue;
                }
            }
            if visible_range(&d) {
                out.push(d);
            }
        }
        out
    };
    let insert_deltas = select(deltas, &mut obsolete);
    let live_deletes = select(delete_deltas, &mut obsolete);
    AcidSnapshot {
        base,
        insert_deltas,
        delete_deltas: live_deletes,
        obsolete,
    }
}

/// The set of deleted record identities visible under a snapshot, kept
/// sorted so a row group probes only the tombstones inside its own
/// identity range ([`crate::visibility`]).
///
/// "Since delta files with deleted records are usually small, they can
/// be kept in-memory most times, accelerating the merging phase" (§3.2).
#[derive(Debug, Clone, Default)]
pub struct DeleteSet {
    /// Sorted, no duplicates.
    ids: Vec<RecordId>,
}

impl DeleteSet {
    /// Build from the snapshot's delete deltas; tombstones written by
    /// invisible (open/aborted/future) transactions are ignored.
    pub fn load(fs: &DistFs, snapshot: &AcidSnapshot, wlist: &ValidWriteIdList) -> Result<Self> {
        Self::load_each(fs, snapshot, wlist, |_, read| read())
    }

    /// [`DeleteSet::load`] with each delete-delta file's read handed to
    /// `each` as `(path, read)`. `each` may run `read` more than once, so
    /// a transient fault costs a retry of one file, not of the whole set.
    pub fn load_each(
        fs: &DistFs,
        snapshot: &AcidSnapshot,
        wlist: &ValidWriteIdList,
        mut each: impl FnMut(
            &DfsPath,
            &mut dyn FnMut() -> Result<Vec<RecordId>>,
        ) -> Result<Vec<RecordId>>,
    ) -> Result<Self> {
        let vis = Visibility::of_tombstones(wlist);
        let id_proj: Vec<usize> = (0..ACID_COLS).collect();
        let read_file = |path: &DfsPath| -> Result<Vec<RecordId>> {
            let f = CorcFile::open(fs, path)?;
            let mut parts = Vec::new();
            vis.read_parts(&f, 0..f.row_group_count(), &id_proj, &mut parts)?;
            let mut ids = Vec::new();
            for part in &parts {
                let cols = std::array::from_fn(|c| Some(part.batch.column(c)));
                let col = |c| id_slice(&cols, c, part.batch.num_rows());
                let (wids, buckets, rowids) = (col(0)?, col(1)?, col(2)?);
                ids.extend(part.sel.iter().map(|i| record_id(wids, buckets, rowids, i)));
            }
            Ok(ids)
        };
        let mut ids = Vec::new();
        for d in &snapshot.delete_deltas {
            for (path, _) in fs.list_files_recursive(&d.path) {
                ids.extend(each(&path, &mut || read_file(&path))?);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Ok(DeleteSet { ids })
    }

    /// Is this record deleted?
    pub fn contains(&self, id: &RecordId) -> bool {
        self.ids.binary_search(id).is_ok()
    }

    /// Number of tombstones.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no tombstones apply.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert directly (used by compaction when carrying tombstones
    /// forward).
    pub fn insert(&mut self, id: RecordId) {
        if let Err(at) = self.ids.binary_search(&id) {
            self.ids.insert(at, id);
        }
    }

    /// Iterate over tombstoned identities, in `RecordId` order.
    pub fn iter(&self) -> impl Iterator<Item = &RecordId> {
        self.ids.iter()
    }

    /// The tombstones as a sorted slice.
    pub(crate) fn as_sorted(&self) -> &[RecordId] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::AcidWriter;
    use hive_common::{DataType, Field, Row, Schema, Value, VectorBatch};
    use std::collections::BTreeSet;

    fn wlist(hwm: u64, open: &[u64], aborted: &[u64]) -> ValidWriteIdList {
        ValidWriteIdList {
            table: "db.t".into(),
            high_watermark: WriteId(hwm),
            open: open.iter().map(|&w| WriteId(w)).collect::<BTreeSet<_>>(),
            aborted: aborted.iter().map(|&w| WriteId(w)).collect::<BTreeSet<_>>(),
            own: None,
        }
    }

    fn setup() -> (DistFs, AcidWriter, DfsPath) {
        let fs = DistFs::new();
        let dir = DfsPath::new("/wh/t");
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let w = AcidWriter::new(&fs, &dir, schema);
        (fs, w, dir)
    }

    fn one_row(a: i32) -> VectorBatch {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        VectorBatch::from_rows(&schema, &[Row::new(vec![Value::Int(a)])]).unwrap()
    }

    #[test]
    fn resolves_deltas_without_base() {
        let (fs, w, dir) = setup();
        w.write_insert_delta(WriteId(1), &one_row(1)).unwrap();
        w.write_insert_delta(WriteId(2), &one_row(2)).unwrap();
        let snap = resolve_snapshot(&fs, &dir, &wlist(2, &[], &[]));
        assert!(snap.base.is_none());
        assert_eq!(snap.insert_deltas.len(), 2);
        assert!(snap.obsolete.is_empty());
    }

    #[test]
    fn base_hides_covered_deltas() {
        let (fs, w, dir) = setup();
        w.write_insert_delta(WriteId(1), &one_row(1)).unwrap();
        w.write_insert_delta(WriteId(2), &one_row(2)).unwrap();
        // Simulate a compaction product.
        fs.create(&dir.child("base_2/bucket_0"), {
            let cw = hive_corc::CorcWriter::new(
                crate::writer::acid_file_schema(&Schema::new(vec![Field::new("a", DataType::Int)])),
                Default::default(),
            )
            .unwrap();
            cw.finish().unwrap()
        })
        .unwrap();
        w.write_insert_delta(WriteId(3), &one_row(3)).unwrap();
        let snap = resolve_snapshot(&fs, &dir, &wlist(3, &[], &[]));
        assert_eq!(snap.base.as_ref().unwrap().max_wid, WriteId(2));
        assert_eq!(snap.insert_deltas.len(), 1);
        assert_eq!(snap.insert_deltas[0].min_wid, WriteId(3));
        assert_eq!(snap.obsolete.len(), 2, "two covered deltas");
    }

    #[test]
    fn base_invalid_when_open_txn_below() {
        let (fs, w, dir) = setup();
        w.write_insert_delta(WriteId(1), &one_row(1)).unwrap();
        fs.mkdirs(&dir.child("base_2"));
        fs.create(&dir.child("base_2/bucket_0"), bytes_of_empty_base())
            .unwrap();
        // WriteId 2 is still open in this snapshot: the base is unusable.
        let snap = resolve_snapshot(&fs, &dir, &wlist(2, &[2], &[]));
        assert!(snap.base.is_none());
        assert_eq!(snap.insert_deltas.len(), 1);
    }

    fn bytes_of_empty_base() -> bytes::Bytes {
        let schema =
            crate::writer::acid_file_schema(&Schema::new(vec![Field::new("a", DataType::Int)]));
        hive_corc::CorcWriter::new(schema, Default::default())
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn future_deltas_excluded() {
        let (fs, w, dir) = setup();
        w.write_insert_delta(WriteId(1), &one_row(1)).unwrap();
        w.write_insert_delta(WriteId(5), &one_row(5)).unwrap();
        let snap = resolve_snapshot(&fs, &dir, &wlist(3, &[], &[]));
        assert_eq!(snap.insert_deltas.len(), 1);
        assert_eq!(snap.insert_deltas[0].min_wid, WriteId(1));
    }

    #[test]
    fn delete_set_respects_visibility() {
        let (fs, w, dir) = setup();
        w.write_insert_delta(WriteId(1), &one_row(1)).unwrap();
        let victim = RecordId::new(WriteId(1), hive_common::BucketId(0), hive_common::RowId(0));
        w.write_delete_delta(WriteId(2), &[victim]).unwrap();
        // Visible delete.
        let snap = resolve_snapshot(&fs, &dir, &wlist(2, &[], &[]));
        let ds = DeleteSet::load(&fs, &snap, &wlist(2, &[], &[])).unwrap();
        assert!(ds.contains(&victim));
        // Snapshot where the deleting txn is still open: tombstone hidden.
        let snap_open = resolve_snapshot(&fs, &dir, &wlist(2, &[2], &[]));
        let ds_open = DeleteSet::load(&fs, &snap_open, &wlist(2, &[2], &[])).unwrap();
        assert!(!ds_open.contains(&victim));
        // Aborted deleting txn: tombstone ignored.
        let ds_ab = DeleteSet::load(&fs, &snap, &wlist(2, &[], &[2])).unwrap();
        assert!(!ds_ab.contains(&victim));
    }
}
