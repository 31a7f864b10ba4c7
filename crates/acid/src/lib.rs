//! # hive-acid
//!
//! The ACID storage layer (paper §3.2): row-level INSERT / UPDATE /
//! DELETE / MERGE over an append-only file system.
//!
//! Data for each table (or partition) lives in *stores* under its
//! directory:
//!
//! ```text
//! store_sales/sold_date_sk=1/
//!   base_100/bucket_0          all valid records up to WriteId 100
//!   delta_101_105/bucket_0     inserts in the WriteId range [101,105]
//!   delete_delta_103_103/...   tombstones pointing at deleted RecordIds
//! ```
//!
//! Every record carries its identity triple `(WriteId, BucketId, RowId)`
//! as three leading synthetic columns. A delete is an insert of a
//! labeled record pointing at the identity of the deleted record; an
//! update splits into delete + insert. Readers resolve a
//! [`hive_metastore::ValidWriteIdList`] snapshot against the directory
//! listing ([`snapshot::resolve_snapshot`]), anti-join delete deltas
//! ([`snapshot::DeleteSet`]), and filter records per WriteId — decided
//! once per row group from the footer wherever it can be
//! ([`visibility`]).
//!
//! [`compactor`] implements minor/major compaction with the separated
//! cleaning phase.

pub mod compactor;
pub mod layout;
pub mod reader;
pub mod snapshot;
pub mod visibility;
pub mod writer;

pub use compactor::Compactor;
pub use layout::{AcidDir, DirKind};
pub use reader::{read_external_table, AcidScan};
pub use snapshot::{resolve_snapshot, AcidSnapshot, DeleteSet};
pub use visibility::{RowGroupClass, Visibility};
pub use writer::{AcidWriter, ACID_COLS};
