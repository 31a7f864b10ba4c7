//! Merge-on-read: scanning the visible records of an ACID store.

use crate::snapshot::{resolve_snapshot, AcidSnapshot, DeleteSet};
use crate::visibility::Visibility;
use crate::writer::{acid_file_schema, record_id_at, ACID_COLS};
use hive_common::{Result, Schema, Value, VectorBatch, WriteId};
use hive_corc::{CorcFile, SearchArgument};
use hive_dfs::{DfsPath, DistFs};
use hive_metastore::ValidWriteIdList;

/// A resolved, ready-to-read view of one ACID store directory under one
/// snapshot. The scan exposes its file list so execution engines (and
/// the LLAP cache path) can drive the reads themselves; [`AcidScan::read`]
/// is the straightforward in-line path.
#[derive(Debug)]
pub struct AcidScan {
    fs: DistFs,
    data_schema: Schema,
    wlist: ValidWriteIdList,
    snapshot: AcidSnapshot,
    deletes: DeleteSet,
}

impl AcidScan {
    /// Resolve a snapshot over `dir` and preload the delete set.
    pub fn new(
        fs: &DistFs,
        dir: &DfsPath,
        data_schema: Schema,
        wlist: ValidWriteIdList,
    ) -> Result<Self> {
        let snapshot = resolve_snapshot(fs, dir, &wlist);
        let deletes = DeleteSet::load(fs, &snapshot, &wlist)?;
        Ok(AcidScan {
            fs: fs.clone(),
            data_schema,
            wlist,
            snapshot,
            deletes,
        })
    }

    /// The resolved directory snapshot.
    pub fn snapshot(&self) -> &AcidSnapshot {
        &self.snapshot
    }

    /// The delete set for this snapshot.
    pub fn deletes(&self) -> &DeleteSet {
        &self.deletes
    }

    /// Data files to scan (base first, then insert deltas in WriteId
    /// order).
    pub fn data_files(&self) -> Vec<DfsPath> {
        let mut out = Vec::new();
        if let Some(b) = &self.snapshot.base {
            for (p, _) in self.fs.list_files_recursive(&b.path) {
                out.push(p);
            }
        }
        for d in &self.snapshot.insert_deltas {
            for (p, _) in self.fs.list_files_recursive(&d.path) {
                out.push(p);
            }
        }
        out
    }

    /// Shift a data-column sarg to the on-disk schema (past the identity
    /// columns).
    pub fn shift_sarg(sarg: &SearchArgument) -> SearchArgument {
        SearchArgument::with(
            sarg.predicates
                .iter()
                .map(|p| p.with_column(p.column() + ACID_COLS))
                .collect(),
        )
    }

    /// Visibility test for one record of a file batch carrying identity
    /// columns: WriteId valid under the snapshot and not tombstoned.
    pub fn is_record_visible(&self, file_batch: &VectorBatch, i: usize) -> bool {
        let wid = match file_batch.column(0).get(i) {
            Value::BigInt(v) => WriteId(v as u64),
            _ => return false,
        };
        if !self.wlist.is_visible(wid) {
            return false;
        }
        self.deletes.is_empty() || !self.deletes.contains(&record_id_at(file_batch, i))
    }

    /// Read all visible records, visibility decided per row group from
    /// the footer ([`crate::visibility`]): a wholly visible row group
    /// costs no identity chunk, a wholly invisible one costs nothing.
    /// Same arguments and same rows as [`AcidScan::read`]; string
    /// columns stay dictionary-encoded where the file has them so.
    pub fn read_row_groups(
        &self,
        projection: &[usize],
        sarg: &SearchArgument,
        include_row_ids: bool,
    ) -> Result<VectorBatch> {
        let file_sarg = Self::shift_sarg(sarg);
        let mut file_proj: Vec<usize> = match include_row_ids {
            true => (0..ACID_COLS).collect(),
            false => Vec::new(),
        };
        file_proj.extend(projection.iter().map(|&c| c + ACID_COLS));
        let out_schema = acid_file_schema(&self.data_schema).project(&file_proj);
        let vis = Visibility::new(&self.wlist, &self.deletes);
        let mut parts = Vec::new();
        for path in self.data_files() {
            let f = CorcFile::open(&self.fs, &path)?;
            vis.read_parts(
                &f,
                f.selected_row_groups(&file_sarg),
                &file_proj,
                &mut parts,
            )?;
        }
        VectorBatch::concat_selected(&out_schema, &parts)
    }

    /// [`AcidScan::read_row_groups`] one record at a time: every
    /// identity column of every row group fetched, every record asked
    /// [`AcidScan::is_record_visible`]. Kept as the reference the
    /// columnar readers are tested against. `projection` indexes the
    /// *data* schema; when `include_row_ids` is set the identity columns
    /// are prepended to the output (the UPDATE/DELETE path needs them).
    pub fn read(
        &self,
        projection: &[usize],
        sarg: &SearchArgument,
        include_row_ids: bool,
    ) -> Result<VectorBatch> {
        let file_sarg = Self::shift_sarg(sarg);
        // Read identity columns plus the projected data columns.
        let mut file_proj: Vec<usize> = (0..ACID_COLS).collect();
        file_proj.extend(projection.iter().map(|&c| c + ACID_COLS));

        let out_schema = if include_row_ids {
            let mut fields = crate::writer::acid_id_fields();
            fields.extend(
                projection
                    .iter()
                    .map(|&c| self.data_schema.field(c).clone()),
            );
            Schema::new(fields)
        } else {
            self.data_schema.project(projection)
        };
        let mut out = VectorBatch::empty(&out_schema)?;
        for path in self.data_files() {
            let f = CorcFile::open(&self.fs, &path)?;
            for rg in f.selected_row_groups(&file_sarg) {
                let batch = f.read_row_group(rg, &file_proj)?;
                let keep: Vec<u32> = (0..batch.num_rows())
                    .filter(|&i| self.is_record_visible(&batch, i))
                    .map(|i| i as u32)
                    .collect();
                if keep.is_empty() {
                    continue;
                }
                let visible = batch.take(&keep);
                let final_batch = if include_row_ids {
                    visible
                } else {
                    let data_cols: Vec<usize> = (ACID_COLS..ACID_COLS + projection.len()).collect();
                    visible.project(&data_cols)
                };
                // Align schemas (projection of file schema has same types).
                out.append(&final_batch)?;
            }
        }
        Ok(out)
    }
}

/// Read a non-ACID (external) table: every corc file under `dir`,
/// without identity columns or snapshot filtering.
pub fn read_external_table(
    fs: &DistFs,
    dir: &DfsPath,
    schema: &Schema,
    projection: &[usize],
    sarg: &SearchArgument,
) -> Result<VectorBatch> {
    let mut out = VectorBatch::empty(&schema.project(projection))?;
    for (path, _) in fs.list_files_recursive(dir) {
        let f = CorcFile::open(fs, &path)?;
        for rg in f.selected_row_groups(sarg) {
            out.append(&f.read_row_group(rg, projection)?)?;
        }
    }
    Ok(out)
}
