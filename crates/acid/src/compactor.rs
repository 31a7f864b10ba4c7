//! Minor and major compaction (paper §3.2).
//!
//! * **Minor** merges delta directories with other delta directories.
//! * **Major** merges deltas into the base, applying tombstones and
//!   dropping aborted history.
//!
//! Compaction only merges *decided* history: the merge ceiling is one
//! below the smallest open WriteId. Results are written to a temporary
//! directory and published with an atomic rename; the **cleaning** of
//! obsolete directories is a separate phase so in-flight queries finish
//! before their files disappear (the paper's cleaner separation).

use crate::layout::{AcidDir, DirKind};
use crate::snapshot::{resolve_snapshot, DeleteSet};
use crate::visibility::Visibility;
use crate::writer::{acid_file_schema, delete_file_schema, AcidWriter};
use hive_common::{Result, Schema, VectorBatch, WriteId};
use hive_corc::{CorcFile, CorcWriter};
use hive_dfs::{DfsPath, DistFs};
use hive_metastore::ValidWriteIdList;

/// What a compaction produced and what it made obsolete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Newly published store directories.
    pub produced: Vec<DfsPath>,
    /// Directories fully covered by the new stores; the cleaner removes
    /// them once old readers drain.
    pub obsolete: Vec<DfsPath>,
    /// For major compaction, the new base WriteId (history below this is
    /// deleted — the TxnManager's aborted set can be truncated to it).
    pub new_base_wid: Option<WriteId>,
}

/// Compactor for one store directory.
#[derive(Debug, Clone)]
pub struct Compactor {
    fs: DistFs,
    dir: DfsPath,
    data_schema: Schema,
}

impl Compactor {
    /// Create a compactor over a table/partition directory.
    pub fn new(fs: &DistFs, dir: &DfsPath, data_schema: Schema) -> Self {
        Compactor {
            fs: fs.clone(),
            dir: dir.clone(),
            data_schema,
        }
    }

    /// The merge ceiling: nothing at or above the smallest open WriteId
    /// is touched.
    fn ceiling(wlist: &ValidWriteIdList) -> WriteId {
        match wlist.min_open() {
            Some(w) => WriteId(w.raw().saturating_sub(1).min(wlist.high_watermark.raw())),
            None => wlist.high_watermark,
        }
    }

    /// Minor compaction: merge qualifying insert deltas into one
    /// `delta_min_max` and delete deltas into one `delete_delta_min_max`.
    /// Returns `None` when there is nothing worth merging.
    pub fn minor(&self, wlist: &ValidWriteIdList) -> Result<Option<CompactionOutcome>> {
        let ceiling = Self::ceiling(wlist);
        let snap = resolve_snapshot(&self.fs, &self.dir, wlist);
        let mergeable = |d: &AcidDir| d.max_wid <= ceiling;
        let ins: Vec<AcidDir> = snap
            .insert_deltas
            .iter()
            .filter(|d| mergeable(d))
            .cloned()
            .collect();
        let dels: Vec<AcidDir> = snap
            .delete_deltas
            .iter()
            .filter(|d| mergeable(d))
            .cloned()
            .collect();
        if ins.len() < 2 && dels.len() < 2 {
            return Ok(None);
        }
        let tmp = self.dir.child(".tmp_compact_minor");
        let mut produced = Vec::new();
        let mut obsolete = Vec::new();

        if ins.len() >= 2 {
            // invariant: guarded by `ins.len() >= 2`, so min/max exist.
            let min = ins.iter().map(|d| d.min_wid).min().expect("ins nonempty");
            let max = ins.iter().map(|d| d.max_wid).max().expect("ins nonempty");
            // Aborted history is dropped; tombstones stay in their own
            // deltas, so nothing is deleted here.
            let merged = self.read_stores(
                &ins,
                Visibility::new(wlist, &DeleteSet::default()),
                &acid_file_schema(&self.data_schema),
            )?;
            let w = AcidWriter::new(&self.fs, &self.dir, self.data_schema.clone());
            self.fs.mkdirs(&tmp);
            let dir = w.write_store_with_ids(DirKind::Delta, min, max, &merged, Some(&tmp))?;
            let target = self.dir.child(AcidDir::dir_name(DirKind::Delta, min, max));
            self.fs.rename_dir(&dir, &target)?;
            produced.push(target);
            obsolete.extend(ins.iter().map(|d| d.path.clone()));
        }
        if dels.len() >= 2 {
            // invariant: guarded by `dels.len() >= 2`, so min/max exist.
            let min = dels.iter().map(|d| d.min_wid).min().expect("dels nonempty");
            let max = dels.iter().map(|d| d.max_wid).max().expect("dels nonempty");
            let merged = self.read_stores(
                &dels,
                Visibility::of_tombstones(wlist),
                &delete_file_schema(),
            )?;
            self.fs.mkdirs(&tmp);
            let dir_name = AcidDir::dir_name(DirKind::DeleteDelta, min, max);
            let tmp_dir = tmp.child(&dir_name);
            let mut cw = CorcWriter::new(delete_file_schema(), Default::default())?;
            cw.write_batch(&merged)?;
            self.fs.create(&tmp_dir.child("bucket_0"), cw.finish()?)?;
            let target = self.dir.child(dir_name);
            self.fs.rename_dir(&tmp_dir, &target)?;
            produced.push(target);
            obsolete.extend(dels.iter().map(|d| d.path.clone()));
        }
        if self.fs.exists(&tmp) {
            self.fs.delete_dir(&tmp)?;
        }
        Ok(Some(CompactionOutcome {
            produced,
            obsolete,
            new_base_wid: None,
        }))
    }

    /// Major compaction: produce `base_N` with every record visible at
    /// the ceiling, tombstones applied and aborted history dropped.
    pub fn major(&self, wlist: &ValidWriteIdList) -> Result<Option<CompactionOutcome>> {
        let ceiling = Self::ceiling(wlist);
        if ceiling == WriteId(0) {
            return Ok(None);
        }
        let snap = resolve_snapshot(&self.fs, &self.dir, wlist);
        let nothing_new = snap.insert_deltas.iter().all(|d| d.min_wid > ceiling)
            && snap.delete_deltas.iter().all(|d| d.min_wid > ceiling);
        if nothing_new && snap.base.is_some() {
            return Ok(None);
        }
        // Read everything visible up to the ceiling, tombstones applied.
        let mut sources: Vec<AcidDir> = Vec::new();
        if let Some(b) = &snap.base {
            sources.push(b.clone());
        }
        sources.extend(
            snap.insert_deltas
                .iter()
                .filter(|d| d.min_wid <= ceiling)
                .cloned(),
        );
        let compact_wlist = ValidWriteIdList {
            high_watermark: ceiling,
            ..wlist.clone()
        };
        let deletes = DeleteSet::load(&self.fs, &snap, &compact_wlist)?;
        let merged = self.read_stores(
            &sources,
            Visibility::new(&compact_wlist, &deletes),
            &acid_file_schema(&self.data_schema),
        )?;

        let tmp = self.dir.child(".tmp_compact_major");
        self.fs.mkdirs(&tmp);
        let w = AcidWriter::new(&self.fs, &self.dir, self.data_schema.clone());
        let tmp_base =
            w.write_store_with_ids(DirKind::Base, ceiling, ceiling, &merged, Some(&tmp))?;
        let target = self
            .dir
            .child(AcidDir::dir_name(DirKind::Base, ceiling, ceiling));
        self.fs.rename_dir(&tmp_base, &target)?;
        self.fs.delete_dir(&tmp)?;

        let mut obsolete: Vec<DfsPath> = Vec::new();
        if let Some(b) = &snap.base {
            obsolete.push(b.path.clone());
        }
        for d in snap
            .insert_deltas
            .iter()
            .chain(snap.delete_deltas.iter())
            .filter(|d| d.max_wid <= ceiling)
        {
            obsolete.push(d.path.clone());
        }
        obsolete.extend(snap.obsolete.iter().map(|d| d.path.clone()));
        Ok(Some(CompactionOutcome {
            produced: vec![target],
            obsolete,
            new_base_wid: Some(ceiling),
        }))
    }

    /// The cleaner: physically remove obsolete directories. Run after
    /// in-flight readers of the old snapshot have finished.
    pub fn clean(&self, outcome: &CompactionOutcome) -> Result<()> {
        for d in &outcome.obsolete {
            if self.fs.exists(d) {
                self.fs.delete_dir(d)?;
            }
        }
        Ok(())
    }

    /// Every record of `dirs`' files that `vis` sees, all file columns,
    /// in directory then file then row order. Row groups are decided
    /// from their footers ([`crate::visibility`]) and the survivors
    /// gathered once.
    fn read_stores(
        &self,
        dirs: &[AcidDir],
        vis: Visibility,
        file_schema: &Schema,
    ) -> Result<VectorBatch> {
        let all_cols: Vec<usize> = (0..file_schema.len()).collect();
        let mut parts = Vec::new();
        for d in dirs {
            for (path, _) in self.fs.list_files_recursive(&d.path) {
                let f = CorcFile::open(&self.fs, &path)?;
                vis.read_parts(&f, 0..f.row_group_count(), &all_cols, &mut parts)?;
            }
        }
        VectorBatch::concat_selected(file_schema, &parts)
    }
}
