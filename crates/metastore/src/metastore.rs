//! The [`Metastore`] facade: one thread-safe object combining catalog,
//! statistics, transactions, locks, and the compaction queue — the role
//! HMS plays for HiveServer2 in the paper's architecture (Figure 1).

use crate::catalog::{Catalog, MaterializedViewInfo, PartitionInfo, Table};
use crate::compaction::{CompactionKind, CompactionQueue, CompactionRequest, CompactionState};
use crate::locks::{LockKey, LockManager, LockMode};
use crate::stats::TableStats;
use crate::txn::{TxnManager, TxnState, ValidTxnList, ValidWriteIdList};
use hive_common::{Result, TxnId, Value, WriteId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a snapshot of a table's *data* is valid against: which creation
/// of the name it was taken from, and that creation's WriteId high
/// watermark. Two equal versions of one name mean nothing was written,
/// and nothing dropped and re-created, in between — what the results
/// cache and materialized-view freshness both ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableVersion {
    /// [`Table::incarnation`]; 0 when the table does not exist.
    pub incarnation: u64,
    /// [`Metastore::table_write_hwm`].
    pub hwm: WriteId,
}

/// The Hive Metastore service object. Cheap to clone; all clones share
/// state.
#[derive(Debug, Clone, Default)]
pub struct Metastore {
    inner: Arc<MetastoreInner>,
}

#[derive(Debug, Default)]
struct MetastoreInner {
    catalog: RwLock<Catalog>,
    /// Bumped by every successful DDL on a database or table definition
    /// (not by partition registration, which INSERT does).
    ddl_generation: AtomicU64,
    txns: Mutex<TxnManager>,
    locks: Mutex<LockManager>,
    /// Published statistics snapshots. Readers take the `Arc`; writers
    /// mutate copy-on-write, so a snapshot a planner holds never changes
    /// under it.
    stats: RwLock<HashMap<String, Arc<TableStats>>>,
    compactions: Mutex<CompactionQueue>,
    /// Runtime operator statistics persisted for reoptimization feedback
    /// (§4.2/§9), keyed by plan fingerprint.
    runtime_stats: RwLock<HashMap<String, Vec<(String, u64)>>>,
}

impl Metastore {
    /// A fresh metastore with an empty catalog (plus `default` DB).
    pub fn new() -> Self {
        Self::default()
    }

    // ---- catalog -------------------------------------------------------

    /// A counter that changes whenever a database or table definition
    /// does (create, drop, alter): anything derived from analyzing SQL
    /// against the catalog is valid for the generation it was built
    /// under. Registering or dropping partitions and refreshing a
    /// materialized view's snapshot metadata do not count — neither
    /// changes what a name binds to.
    pub fn ddl_generation(&self) -> u64 {
        self.inner.ddl_generation.load(Ordering::SeqCst)
    }

    fn bump_ddl_generation(&self) {
        self.inner.ddl_generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Create a database.
    pub fn create_database(&self, name: &str) -> Result<()> {
        self.inner.catalog.write().create_database(name)?;
        self.bump_ddl_generation();
        Ok(())
    }

    /// Drop an empty database.
    pub fn drop_database(&self, name: &str) -> Result<()> {
        self.inner.catalog.write().drop_database(name)?;
        self.bump_ddl_generation();
        Ok(())
    }

    /// Register a table; also initializes its stats entry.
    pub fn create_table(&self, table: Table) -> Result<()> {
        let qname = table.qualified_name();
        let ncols = table.schema.len();
        self.inner.catalog.write().create_table(table)?;
        self.bump_ddl_generation();
        self.inner
            .stats
            .write()
            .insert(qname, Arc::new(TableStats::new(ncols)));
        Ok(())
    }

    /// Drop a table and its stats.
    pub fn drop_table(&self, db: &str, name: &str) -> Result<Arc<Table>> {
        let t = self.inner.catalog.write().drop_table(db, name)?;
        self.bump_ddl_generation();
        self.inner.stats.write().remove(&t.qualified_name());
        Ok(t)
    }

    /// A table's published metadata snapshot: a refcount bump, never a
    /// copy of the partition map. Immutable — later DDL and partition
    /// registration publish a new state and leave this one as it was.
    pub fn get_table(&self, db: &str, name: &str) -> Result<Arc<Table>> {
        self.inner.catalog.read().table(db, name).cloned()
    }

    /// [`Metastore::get_table`] by qualified `db.table` name; `None` when
    /// the name has no such form or no such table.
    pub fn get_table_qualified(&self, qualified: &str) -> Option<Arc<Table>> {
        let (db, name) = qualified.split_once('.')?;
        self.get_table(db, name).ok()
    }

    /// True if a table exists.
    pub fn table_exists(&self, db: &str, name: &str) -> bool {
        self.inner.catalog.read().table(db, name).is_ok()
    }

    /// All tables of a database.
    pub fn list_tables(&self, db: &str) -> Result<Vec<String>> {
        Ok(self
            .inner
            .catalog
            .read()
            .tables_in(db)?
            .iter()
            .map(|t| t.name.clone())
            .collect())
    }

    /// Rewrite-enabled materialized views (published snapshots).
    pub fn rewrite_enabled_views(&self) -> Vec<Arc<Table>> {
        self.inner
            .catalog
            .read()
            .rewrite_enabled_views()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Register a partition on a table, creating its location entry.
    pub fn add_partition(&self, db: &str, name: &str, values: Vec<Value>) -> Result<PartitionInfo> {
        let mut cat = self.inner.catalog.write();
        // Look before taking the table mutably: re-registering a known
        // partition (every INSERT into it) must not copy the snapshot.
        let published = cat.table(db, name)?;
        let dir = published.partition_dir_name(&values);
        if let Some(existing) = published.partitions.get(&dir) {
            return Ok(existing.clone());
        }
        let t = cat.table_mut(db, name)?;
        let info = PartitionInfo {
            values,
            location: format!("{}/{}", t.location, dir),
        };
        t.partitions.insert(dir, info.clone());
        Ok(info)
    }

    /// Drop a partition.
    pub fn drop_partition(&self, db: &str, name: &str, dir: &str) -> Result<PartitionInfo> {
        let mut cat = self.inner.catalog.write();
        let t = cat.table_mut(db, name)?;
        t.partitions.remove(dir).ok_or_else(|| {
            hive_common::HiveError::Catalog(format!("partition not found: {db}.{name}/{dir}"))
        })
    }

    /// Update a materialized view's metadata after a (re)build.
    pub fn update_mv_info(&self, db: &str, name: &str, info: MaterializedViewInfo) -> Result<()> {
        let mut cat = self.inner.catalog.write();
        let t = cat.table_mut(db, name)?;
        t.mv_info = Some(info);
        Ok(())
    }

    // ---- statistics ----------------------------------------------------

    /// The published statistics snapshot of a table (empty default when
    /// never written): a refcount bump, never a copy. The snapshot is
    /// immutable — later merges publish a new state and leave it as it
    /// was — and the column summaries readers derive on it are shared by
    /// everyone holding it.
    pub fn table_stats(&self, qualified: &str) -> Arc<TableStats> {
        self.inner
            .stats
            .read()
            .get(qualified)
            .map(Arc::clone)
            .unwrap_or_default()
    }

    /// Additively merge new statistics (the INSERT path of §4.1).
    /// Copy-on-write: in place when no reader holds the current
    /// snapshot, on a private copy (whose summaries start empty)
    /// otherwise.
    pub fn merge_table_stats(&self, qualified: &str, delta: &TableStats) {
        let mut g = self.inner.stats.write();
        let published = g
            .entry(qualified.to_string())
            .or_insert_with(|| Arc::new(TableStats::new(delta.columns.len())));
        Arc::make_mut(published).merge(delta);
    }

    /// Replace statistics outright (ANALYZE TABLE / major compaction).
    pub fn set_table_stats(&self, qualified: &str, stats: TableStats) {
        self.inner
            .stats
            .write()
            .insert(qualified.to_string(), Arc::new(stats));
    }

    // ---- transactions --------------------------------------------------

    /// Begin a transaction.
    pub fn open_txn(&self) -> TxnId {
        self.inner.txns.lock().open()
    }

    /// Allocate the per-table WriteId for a transaction.
    pub fn allocate_write_id(&self, txn: TxnId, table: &str) -> Result<WriteId> {
        self.inner.txns.lock().allocate_write_id(txn, table)
    }

    /// Record an update/delete write-set entry for conflict detection.
    pub fn add_write_set(&self, txn: TxnId, table: &str, partition: Option<String>) -> Result<()> {
        self.inner.txns.lock().add_write_set(txn, table, partition)
    }

    /// Commit; releases all locks whatever the outcome.
    pub fn commit_txn(&self, txn: TxnId) -> Result<()> {
        let result = self.inner.txns.lock().commit(txn);
        self.inner.locks.lock().release_all(txn);
        result
    }

    /// Abort; releases all locks.
    pub fn abort_txn(&self, txn: TxnId) -> Result<()> {
        let result = self.inner.txns.lock().abort(txn);
        self.inner.locks.lock().release_all(txn);
        result
    }

    /// `SHOW TRANSACTIONS`: every known transaction with state and
    /// written tables.
    pub fn show_transactions(&self) -> Vec<(TxnId, TxnState, Vec<String>)> {
        self.inner.txns.lock().show_transactions()
    }

    /// Global snapshot.
    pub fn valid_txn_list(&self) -> ValidTxnList {
        self.inner.txns.lock().valid_txn_list()
    }

    /// Per-table snapshot narrowing.
    pub fn valid_write_ids(
        &self,
        table: &str,
        snapshot: &ValidTxnList,
        reader: Option<TxnId>,
    ) -> ValidWriteIdList {
        self.inner
            .txns
            .lock()
            .valid_write_ids(table, snapshot, reader)
    }

    /// Current WriteId high watermark for a table (used to stamp MV
    /// snapshots).
    pub fn table_write_hwm(&self, table: &str) -> WriteId {
        self.inner.txns.lock().table_write_hwm(table)
    }

    /// The table's current [`TableVersion`], by qualified `db.table` name.
    pub fn table_version(&self, qualified: &str) -> TableVersion {
        let table = self.get_table_qualified(qualified);
        TableVersion {
            incarnation: table.map_or(0, |t| t.incarnation),
            hwm: self.table_write_hwm(qualified),
        }
    }

    /// Major-compaction history truncation.
    pub fn truncate_aborted_history(&self, table: &str, below: WriteId) {
        self.inner
            .txns
            .lock()
            .truncate_aborted_history(table, below)
    }

    // ---- locks ---------------------------------------------------------

    /// Try to acquire a lock.
    pub fn acquire_lock(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<()> {
        self.inner.locks.lock().acquire(txn, key, mode)
    }

    // ---- compaction queue ----------------------------------------------

    /// Enqueue a compaction request (deduplicated).
    pub fn submit_compaction(
        &self,
        table: &str,
        partition: Option<String>,
        kind: CompactionKind,
    ) -> Option<u64> {
        self.inner.compactions.lock().submit(table, partition, kind)
    }

    /// Claim the next initiated compaction request.
    pub fn next_compaction(&self) -> Option<CompactionRequest> {
        self.inner.compactions.lock().next_initiated()
    }

    /// Advance a compaction request's state.
    pub fn set_compaction_state(&self, id: u64, state: CompactionState) -> bool {
        self.inner.compactions.lock().set_state(id, state)
    }

    /// Snapshot of the whole compaction queue (SHOW COMPACTIONS).
    pub fn show_compactions(&self) -> Vec<CompactionRequest> {
        self.inner.compactions.lock().all()
    }

    // ---- runtime stats (reoptimization feedback) -------------------------

    /// Persist per-operator runtime row counts for a plan fingerprint.
    pub fn save_runtime_stats(&self, fingerprint: &str, operator_rows: Vec<(String, u64)>) {
        self.inner
            .runtime_stats
            .write()
            .insert(fingerprint.to_string(), operator_rows);
    }

    /// Fetch persisted runtime stats for a plan fingerprint.
    pub fn runtime_stats(&self, fingerprint: &str) -> Option<Vec<(String, u64)>> {
        self.inner.runtime_stats.read().get(fingerprint).cloned()
    }

    /// Forget every plan's runtime stats: the next planning of any
    /// statement uses its own estimates again.
    pub fn clear_runtime_stats(&self) {
        self.inner.runtime_stats.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableBuilder;
    use hive_common::{DataType, Field, Schema};

    fn ms_with_table() -> Metastore {
        let ms = Metastore::new();
        ms.create_table(
            TableBuilder::new(
                "default",
                "t",
                Schema::new(vec![Field::new("a", DataType::Int)]),
            )
            .partitioned_by(vec![Field::new("d", DataType::Int)])
            .build(),
        )
        .unwrap();
        ms
    }

    #[test]
    fn catalog_round_trip() {
        let ms = ms_with_table();
        let t = ms.get_table("default", "t").unwrap();
        assert_eq!(t.qualified_name(), "default.t");
        assert!(ms.table_exists("default", "t"));
        assert_eq!(ms.list_tables("default").unwrap(), vec!["t"]);
    }

    #[test]
    fn partitions() {
        let ms = ms_with_table();
        let p = ms
            .add_partition("default", "t", vec![Value::Int(7)])
            .unwrap();
        assert_eq!(p.location, "/warehouse/default/t/d=7");
        // Idempotent.
        let p2 = ms
            .add_partition("default", "t", vec![Value::Int(7)])
            .unwrap();
        assert_eq!(p, p2);
        assert_eq!(ms.get_table("default", "t").unwrap().partitions.len(), 1);
        ms.drop_partition("default", "t", "d=7").unwrap();
        assert!(ms.get_table("default", "t").unwrap().partitions.is_empty());
    }

    #[test]
    fn txn_lifecycle_through_facade() {
        let ms = ms_with_table();
        let txn = ms.open_txn();
        let wid = ms.allocate_write_id(txn, "default.t").unwrap();
        assert_eq!(wid, WriteId(1));
        ms.acquire_lock(txn, LockKey::table("default.t"), LockMode::Shared)
            .unwrap();
        ms.commit_txn(txn).unwrap();
        // Locks were released on commit.
        let txn2 = ms.open_txn();
        ms.acquire_lock(txn2, LockKey::table("default.t"), LockMode::Exclusive)
            .unwrap();
        ms.abort_txn(txn2).unwrap();
    }

    #[test]
    fn stats_merge_via_facade() {
        let ms = ms_with_table();
        let mut delta = TableStats::new(1);
        delta.row_count = 10;
        ms.merge_table_stats("default.t", &delta);
        ms.merge_table_stats("default.t", &delta);
        assert_eq!(ms.table_stats("default.t").row_count, 20);
    }

    #[test]
    fn runtime_stats_round_trip() {
        let ms = Metastore::new();
        ms.save_runtime_stats("plan-x", vec![("join-1".into(), 1000)]);
        assert_eq!(
            ms.runtime_stats("plan-x").unwrap(),
            vec![("join-1".to_string(), 1000)]
        );
        assert!(ms.runtime_stats("plan-y").is_none());
        ms.clear_runtime_stats();
        assert!(ms.runtime_stats("plan-x").is_none());
    }
}
