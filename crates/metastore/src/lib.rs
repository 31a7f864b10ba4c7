//! # hive-metastore
//!
//! The Hive Metastore (HMS): "a catalog for all data queryable by Hive"
//! (paper Section 2) plus the transaction and lock manager built on top
//! of it (Section 3.2).
//!
//! This crate keeps all state in-process behind [`Metastore`]. In the
//! paper HMS persists to an RDBMS through DataNucleus; that backend is
//! an implementation detail invisible to the rest of the system, so the
//! substitution does not change any behaviour the evaluation exercises
//! (see DESIGN.md).
//!
//! Subsystems:
//! * [`catalog`] — databases, tables, partitions, constraints, MV metadata.
//! * [`stats`] — additive table/column statistics; NDV uses a
//!   HyperLogLog++ sketch ([`hll::HyperLogLog`]) that merges without
//!   losing accuracy, exactly as §4.1 describes. [`Metastore`] publishes
//!   them as immutable `Arc` snapshots; the query-ready summary of a
//!   column is derived lazily, once per published state.
//! * [`txn`] — TxnId/WriteId allocation, snapshot generation
//!   ([`txn::ValidTxnList`], [`txn::ValidWriteIdList`]), write-set
//!   conflict detection (first-commit-wins).
//! * [`locks`] — shared/exclusive locks at table or partition granularity.
//! * [`compaction`] — the compaction request queue and its state machine.

pub mod catalog;
pub mod compaction;
mod derived;
pub mod histogram;
pub mod hll;
pub mod locks;
pub mod metastore;
pub mod stats;
#[cfg(test)]
mod summary_tests;
pub mod txn;

pub use catalog::{
    Catalog, Constraint, Database, MaterializedViewInfo, PartitionInfo, Table, TableBuilder,
    TableType,
};
pub use compaction::{CompactionKind, CompactionRequest, CompactionState};
pub use histogram::{join_selectivity, Bucket, ColumnHistogram};
pub use hll::HyperLogLog;
pub use locks::{LockKey, LockManager, LockMode};
pub use metastore::{Metastore, TableVersion};
pub use stats::{ColumnStatsMeta, TableStats};
pub use txn::{TxnManager, TxnState, ValidTxnList, ValidWriteIdList};
