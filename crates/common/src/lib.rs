//! # hive-common
//!
//! Shared substrate for the hive-rs warehouse: the SQL type system
//! ([`DataType`]), scalar values ([`Value`]), schemas ([`Schema`]),
//! columnar vectorized batches ([`VectorBatch`]), engine configuration
//! ([`HiveConf`]), identifier newtypes, and error types.
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies of its own beyond `serde`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bitset;
pub mod conf;
pub mod dates;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod kernel;
pub mod like;
pub mod row;
pub mod schema;
pub mod selvec;
pub mod types;
pub mod value;
pub mod vector;

pub use bitset::BitSet;
pub use conf::{EngineVersion, HiveConf, RuntimeKind};
pub use error::{HiveError, Result};
pub use fault::{FaultInjector, FaultPlan, FaultSite, FaultStats};
pub use ids::{BucketId, FileId, RecordId, RowId, TxnId, WriteId};
pub use kernel::KernelType;
pub use row::Row;
pub use schema::{Field, Schema};
pub use selvec::{SelBatch, SelVec};
pub use types::DataType;
pub use value::Value;
pub use vector::ColumnBuilder;
pub use vector::{ColumnVector, DecUnit, DecVals, VectorBatch, NULL_INDEX};
