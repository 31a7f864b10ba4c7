//! Row-group visibility: one decision, made once per row group, from
//! the footer.
//!
//! A record is visible when its WriteId is valid under the snapshot and
//! no visible tombstone names its identity. Every row group's footer
//! carries min/max statistics for `(__writeid, __bucket, __rowid)`, so
//! that per-record rule collapses to one of three answers before any
//! chunk is read ([`Visibility::classify`]):
//!
//! * [`RowGroupClass::All`] — every WriteId in the footer's range is
//!   valid and no tombstone falls in the group's identity range: a
//!   reader fetches **no identity column** and hands the data columns
//!   on as they are. This is every row group of a compacted or
//!   freshly inserted table, which is what makes an ACID read cost what
//!   a non-ACID read costs (paper §3.2/§8).
//! * [`RowGroupClass::None`] — no WriteId in the range is valid (an
//!   aborted delta, history at or below an incremental rebuild's
//!   floor): nothing is read.
//! * [`RowGroupClass::PerRow`] — the range mixes valid and invalid ids,
//!   a tombstone may reach the group, or the footer cannot be trusted:
//!   `__writeid` is fetched and checked per row
//!   ([`Visibility::visible_rows`]); `__bucket`/`__rowid` only when a
//!   tombstone can reach the group.
//!
//! The footer is trusted exactly as far as sarg row-group skipping
//! already trusts it: statistics the writer computed from the chunk it
//! wrote. Statistics that cannot have come from an identity column (a
//! NULL, a row count that is not the row group's, an end that is not a
//! non-negative `BIGINT`) are not used, and the row group takes the
//! per-row path.
//!
//! The engine scan (`hive_exec::scan`, through the LLAP cache), the
//! compactor, [`crate::DeleteSet::load`] and ANALYZE's reader
//! ([`crate::AcidScan::read_row_groups`]) all decide here;
//! [`crate::AcidScan::read`] stays row-at-a-time as the reference the
//! tests compare them with.

use crate::snapshot::DeleteSet;
use crate::writer::ACID_COLS;
use hive_common::{
    BucketId, ColumnVector, HiveError, RecordId, Result, RowId, SelBatch, SelVec, Value,
    VectorBatch, WriteId,
};
use hive_corc::{ColumnStatistics, CorcFile};
use hive_metastore::ValidWriteIdList;
use std::sync::Arc;

/// File column of the WriteId that decides a delete-delta record: the
/// deleting transaction's `__cur_writeid`.
const DELETER_WID_COL: usize = ACID_COLS;

/// The tombstones that can reach one row group: a range of the
/// snapshot's sorted delete set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TombstoneRange {
    start: usize,
    end: usize,
}

impl TombstoneRange {
    /// True when no tombstone can reach the row group.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// What a snapshot sees of one row group, decided from its footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowGroupClass {
    /// Every row is visible; no identity column is needed to know it.
    All,
    /// No row is visible; the row group need not be read.
    None,
    /// Rows are checked one by one against `__writeid` and, when
    /// `tombstones` is not empty, against those tombstones (which needs
    /// `__bucket`/`__rowid`).
    PerRow { tombstones: TombstoneRange },
}

impl RowGroupClass {
    /// Which identity columns a reader must fetch to apply this class.
    pub fn needs(self) -> [bool; ACID_COLS] {
        match self {
            RowGroupClass::All | RowGroupClass::None => [false; ACID_COLS],
            RowGroupClass::PerRow { tombstones } => {
                let probe = !tombstones.is_empty();
                [true, probe, probe]
            }
        }
    }
}

/// The `[min, max]` of an identity column, when the footer's statistics
/// can be trusted to describe all `rows` rows of one.
fn trusted_range(stats: &ColumnStatistics, rows: u64) -> Option<(u64, u64)> {
    if stats.null_count != 0 || stats.num_rows != rows {
        return None;
    }
    match (&stats.min, &stats.max) {
        (Some(Value::BigInt(lo)), Some(Value::BigInt(hi))) if 0 <= *lo && lo <= hi => {
            Some((*lo as u64, *hi as u64))
        }
        _ => None,
    }
}

/// A fetched identity column as `rows` non-null `BIGINT`s; a typed error
/// when it was not fetched or is anything else (not an ACID file).
pub(crate) fn id_slice<'c>(
    ids: &[Option<&'c ColumnVector>; ACID_COLS],
    c: usize,
    rows: usize,
) -> Result<&'c [i64]> {
    match ids[c] {
        Some(ColumnVector::BigInt(v, None)) if v.len() == rows => Ok(v),
        Some(other) => Err(HiveError::Execution(format!(
            "ACID identity column {c} is {} with {} rows, not {rows} non-null BIGINTs",
            other.data_type(),
            other.len()
        ))),
        None => Err(HiveError::Execution(format!(
            "ACID identity column {c} was not fetched for a row group that needs it"
        ))),
    }
}

/// The identity at row `i` of three identity-column slices.
pub(crate) fn record_id(wids: &[i64], buckets: &[i64], rowids: &[i64], i: usize) -> RecordId {
    RecordId::new(
        WriteId(wids[i] as u64),
        BucketId(buckets[i] as u64),
        RowId(rowids[i] as u64),
    )
}

/// A snapshot's view of the records of one store directory.
#[derive(Debug, Clone, Copy)]
pub struct Visibility<'a> {
    wlist: &'a ValidWriteIdList,
    /// Sorted identities of the visible tombstones.
    tombstones: &'a [RecordId],
    /// File column holding the WriteId that decides a record.
    wid_col: usize,
}

impl<'a> Visibility<'a> {
    /// Visibility of base and insert-delta records: valid `__writeid`
    /// and not in `deletes`.
    pub fn new(wlist: &'a ValidWriteIdList, deletes: &'a DeleteSet) -> Self {
        Visibility {
            wlist,
            tombstones: deletes.as_sorted(),
            wid_col: 0,
        }
    }

    /// Visibility of delete-delta records: a tombstone counts when the
    /// *deleting* transaction's `__cur_writeid` is valid; nothing
    /// deletes a tombstone.
    pub fn of_tombstones(wlist: &'a ValidWriteIdList) -> Self {
        Visibility {
            wlist,
            tombstones: &[],
            wid_col: DELETER_WID_COL,
        }
    }

    /// Classify row group `rg` of `file` from its footer.
    pub fn classify_row_group(&self, file: &CorcFile, rg: usize) -> RowGroupClass {
        self.classify(
            file.row_group_rows(rg),
            file.column_stats(rg, self.wid_col),
            file.column_stats(rg, 1),
            file.column_stats(rg, 2),
        )
    }

    /// Classify a row group of `rows` rows from the footer statistics of
    /// its WriteId, `__bucket` and `__rowid` columns. Never answers
    /// `All`/`None` where [`Visibility::visible_rows`] would keep some
    /// rows and drop others.
    pub fn classify(
        &self,
        rows: u64,
        wid: &ColumnStatistics,
        bucket: &ColumnStatistics,
        rowid: &ColumnStatistics,
    ) -> RowGroupClass {
        let Some((lo, hi)) = trusted_range(wid, rows) else {
            return RowGroupClass::PerRow {
                tombstones: TombstoneRange {
                    start: 0,
                    end: self.tombstones.len(),
                },
            };
        };
        let (lo, hi) = (WriteId(lo), WriteId(hi));
        if self.wlist.none_visible(lo, hi) {
            return RowGroupClass::None;
        }
        // Every identity in the group lies, in `RecordId` order, between
        // the corner built from the three minima and the one built from
        // the three maxima; untrusted bucket/row bounds widen to all.
        let (blo, bhi) = trusted_range(bucket, rows).unwrap_or((0, u64::MAX));
        let (rlo, rhi) = trusted_range(rowid, rows).unwrap_or((0, u64::MAX));
        let first = RecordId::new(lo, BucketId(blo), RowId(rlo));
        let last = RecordId::new(hi, BucketId(bhi), RowId(rhi));
        let start = self.tombstones.partition_point(|t| *t < first);
        let end = start + self.tombstones[start..].partition_point(|t| *t <= last);
        let tombstones = TombstoneRange { start, end };
        if tombstones.is_empty() && self.wlist.all_visible(lo, hi) {
            RowGroupClass::All
        } else {
            RowGroupClass::PerRow { tombstones }
        }
    }

    /// The per-row decision for a `PerRow` row group of `rows` rows: the
    /// positions the snapshot sees, `None` when it sees all of them.
    /// `ids` are the fetched identity columns — the deciding WriteId
    /// column in slot 0; slots 1 and 2 are read only when `tombstones`
    /// is not empty, and then each row probes only that range of the
    /// delete set.
    pub fn visible_rows(
        &self,
        rows: usize,
        tombstones: TombstoneRange,
        ids: [Option<&ColumnVector>; ACID_COLS],
    ) -> Result<Option<Vec<u32>>> {
        let wids = id_slice(&ids, 0, rows)?;
        let visible = |i: &usize| self.wlist.is_visible(WriteId(wids[*i] as u64));
        let keep: Vec<u32> = if tombstones.is_empty() {
            (0..rows).filter(visible).map(|i| i as u32).collect()
        } else {
            let (buckets, rowids) = (id_slice(&ids, 1, rows)?, id_slice(&ids, 2, rows)?);
            let near = &self.tombstones[tombstones.start..tombstones.end];
            let deleted = |i: &usize| {
                near.binary_search(&record_id(wids, buckets, rowids, *i))
                    .is_ok()
            };
            (0..rows)
                .filter(|i| visible(i) && !deleted(i))
                .map(|i| i as u32)
                .collect()
        };
        Ok((keep.len() < rows).then_some(keep))
    }

    /// Read the visible rows of `file`'s row groups `rgs` as one part
    /// per row group that has any, appended to `parts`: the file columns
    /// `file_proj` (identity columns only if listed), each part carrying
    /// its keep-list as its selection. Only the chunks the row group's
    /// class needs are fetched, each once, dictionary-encoded strings
    /// kept encoded.
    pub fn read_parts(
        &self,
        file: &CorcFile,
        rgs: impl IntoIterator<Item = usize>,
        file_proj: &[usize],
        parts: &mut Vec<SelBatch>,
    ) -> Result<()> {
        let schema = file.schema().project(file_proj);
        for rg in rgs {
            let class = self.classify_row_group(file, rg);
            let rows = file.row_group_rows(rg) as usize;
            let mut fetched: Vec<Option<Arc<ColumnVector>>> = vec![None; file.schema().len()];
            let mut fetch = |c: usize| -> Result<Arc<ColumnVector>> {
                if let Some(col) = &fetched[c] {
                    return Ok(col.clone());
                }
                let col = Arc::new(file.read_column_chunk_encoded(rg, c)?);
                fetched[c] = Some(col.clone());
                Ok(col)
            };
            let keep = match class {
                RowGroupClass::None => continue,
                RowGroupClass::All => None,
                RowGroupClass::PerRow { tombstones } => {
                    let wids = fetch(self.wid_col)?;
                    let probe = match tombstones.is_empty() {
                        true => None,
                        false => Some((fetch(1)?, fetch(2)?)),
                    };
                    let (bucket, rowid) = probe.as_ref().map(|(b, r)| (&**b, &**r)).unzip();
                    self.visible_rows(rows, tombstones, [Some(&*wids), bucket, rowid])?
                }
            };
            if keep.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            let cols = file_proj
                .iter()
                .map(|&c| fetch(c))
                .collect::<Result<Vec<_>>>()?;
            parts.push(SelBatch {
                batch: VectorBatch::from_arcs(schema.clone(), cols, rows)?,
                sel: keep.map_or(SelVec::All(rows), SelVec::Idx),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::BitSet;

    fn wlist(hwm: u64, aborted: &[u64]) -> ValidWriteIdList {
        ValidWriteIdList {
            aborted: aborted.iter().map(|&w| WriteId(w)).collect(),
            ..ValidWriteIdList::wide_open("db.t", WriteId(hwm))
        }
    }

    fn stats(min: Value, max: Value, rows: u64) -> ColumnStatistics {
        ColumnStatistics {
            min: Some(min),
            max: Some(max),
            null_count: 0,
            num_rows: rows,
            ..Default::default()
        }
    }

    fn big(lo: i64, hi: i64, rows: u64) -> ColumnStatistics {
        stats(Value::BigInt(lo), Value::BigInt(hi), rows)
    }

    fn tombstones(ids: &[(u64, u64, u64)]) -> DeleteSet {
        let mut set = DeleteSet::default();
        for &(w, b, r) in ids {
            set.insert(RecordId::new(WriteId(w), BucketId(b), RowId(r)));
        }
        set
    }

    #[test]
    fn trusted_footers_decide_whole_row_groups() {
        let none = DeleteSet::default();
        let w = wlist(10, &[4, 5]);
        let vis = Visibility::new(&w, &none);
        let class = |lo, hi| vis.classify(8, &big(lo, hi, 8), &big(0, 0, 8), &big(0, 7, 8));
        assert_eq!(class(1, 3), RowGroupClass::All);
        assert_eq!(class(6, 10), RowGroupClass::All);
        assert_eq!(class(4, 5), RowGroupClass::None);
        assert_eq!(class(11, 20), RowGroupClass::None, "above the watermark");
        assert_eq!(class(3, 4).needs(), [true, false, false], "mixed ids");
        assert_eq!(class(9, 11).needs(), [true, false, false]);
    }

    #[test]
    fn a_tombstone_reaches_only_the_row_groups_whose_identity_range_holds_it() {
        let deletes = tombstones(&[(2, 0, 5), (7, 1, 0)]);
        let w = wlist(10, &[]);
        let vis = Visibility::new(&w, &deletes);
        let class = |wid: (i64, i64), bucket: (i64, i64), row: (i64, i64)| {
            vis.classify(
                4,
                &big(wid.0, wid.1, 4),
                &big(bucket.0, bucket.1, 4),
                &big(row.0, row.1, 4),
            )
        };
        // delta_2_2, bucket 0: rows 0..4 are out of reach, rows 4..8 not.
        assert_eq!(class((2, 2), (0, 0), (0, 3)), RowGroupClass::All);
        assert_eq!(class((2, 2), (0, 0), (4, 7)).needs(), [true; ACID_COLS]);
        assert_eq!(class((2, 2), (0, 0), (8, 11)), RowGroupClass::All);
        // Another bucket of the same transaction.
        assert_eq!(class((2, 2), (1, 1), (4, 7)), RowGroupClass::All);
        // A compacted group spanning ids 1..=9 holds both.
        let RowGroupClass::PerRow { tombstones } = class((1, 9), (0, 1), (0, 40)) else {
            panic!("a spanned tombstone must force the per-row path");
        };
        assert_eq!((tombstones.start, tombstones.end), (0, 2));
        // A wholly invisible group is not read, whatever is deleted in it.
        let aborted = wlist(10, &[2]);
        let vis = Visibility::new(&aborted, &deletes);
        let class = vis.classify(4, &big(2, 2, 4), &big(0, 0, 4), &big(4, 7, 4));
        assert_eq!(class, RowGroupClass::None);
    }

    #[test]
    fn statistics_that_cannot_describe_an_identity_column_are_not_used() {
        let deletes = tombstones(&[(2, 0, 5)]);
        let w = wlist(10, &[]);
        let vis = Visibility::new(&w, &deletes);
        let fine = big(1, 3, 8);
        let with_nulls = ColumnStatistics {
            null_count: 1,
            ..big(1, 3, 8)
        };
        let untrusted = [
            ("NULLs", with_nulls),
            ("a row count that is not the group's", big(1, 3, 7)),
            ("a negative end", big(-1, 3, 8)),
            ("min above max", big(3, 1, 8)),
            ("INT ends", stats(Value::Int(1), Value::Int(3), 8)),
            (
                "no ends",
                ColumnStatistics {
                    min: None,
                    max: None,
                    ..big(1, 3, 8)
                },
            ),
        ];
        for (what, bad) in &untrusted {
            // As the WriteId column: per row, against every tombstone.
            let class = vis.classify(8, bad, &fine, &fine);
            let RowGroupClass::PerRow { tombstones } = class else {
                panic!("{what}: {class:?}");
            };
            assert_eq!((tombstones.start, tombstones.end), (0, 1), "{what}");
            assert_eq!(class.needs(), [true; ACID_COLS], "{what}");
            // As a bucket / row column: the range widens to every bucket
            // / row of the WriteId range, so the tombstone is in reach —
            let reach = |c: RowGroupClass| c.needs()[1];
            assert!(
                reach(vis.classify(8, &big(2, 2, 8), bad, &big(4, 7, 8))),
                "{what}"
            );
            assert!(
                reach(vis.classify(8, &big(2, 2, 8), &big(0, 0, 8), bad)),
                "{what}"
            );
            // — but only of that WriteId range.
            assert_eq!(
                vis.classify(8, &big(3, 3, 8), bad, bad),
                RowGroupClass::All,
                "{what}"
            );
        }
    }

    #[test]
    fn per_row_checks_the_columns_it_is_given_and_rejects_malformed_ones() {
        let deletes = tombstones(&[(2, 0, 1)]);
        let w = wlist(10, &[3]);
        let vis = Visibility::new(&w, &deletes);
        let col = |v: &[i64]| ColumnVector::BigInt(v.to_vec(), None);
        let (wids, buckets, rowids) = (col(&[2, 2, 3, 11]), col(&[0; 4]), col(&[0, 1, 0, 0]));
        let all = TombstoneRange { start: 0, end: 1 };
        let none = TombstoneRange { start: 0, end: 0 };
        let ids = [Some(&wids), Some(&buckets), Some(&rowids)];
        assert_eq!(vis.visible_rows(4, all, ids).unwrap(), Some(vec![0]));
        // No tombstone in reach: only the WriteId column is looked at.
        assert_eq!(
            vis.visible_rows(4, none, [Some(&wids), None, None])
                .unwrap(),
            Some(vec![0, 1])
        );
        let ok = col(&[1, 2]);
        assert_eq!(
            vis.visible_rows(2, none, [Some(&ok), None, None]).unwrap(),
            None
        );

        let mut nulls = BitSet::new(4);
        nulls.set(2);
        let malformed = [
            ColumnVector::BigInt(vec![2, 2, 3, 11], Some(nulls)),
            ColumnVector::Int(vec![2, 2, 3, 11], None),
            col(&[2, 2, 3]),
        ];
        for bad in &malformed {
            for ids in [
                [Some(bad), Some(&buckets), Some(&rowids)],
                [Some(&wids), Some(bad), Some(&rowids)],
                [Some(&wids), Some(&buckets), Some(bad)],
                [Some(&wids), None, Some(&rowids)],
            ] {
                let err = vis.visible_rows(4, all, ids).unwrap_err();
                assert!(matches!(err, HiveError::Execution(_)), "{err}");
            }
        }
    }
}
