//! # hive-exec
//!
//! The execution engine (paper §5): vectorized physical operators over
//! [`hive_common::VectorBatch`]es, ACID-snapshot table scans routed
//! through the LLAP cache, dynamic semijoin reduction at runtime, a
//! shared-work result cache, and the simulated cluster time model that
//! reprojects measured per-operator work onto the paper's 10-node
//! cluster (see DESIGN.md).
//!
//! Queries execute for real — results are exact; only the reported
//! *response time* comes from [`simtime`]. The engine runs in two
//! modes selected by [`hive_common::HiveConf`]: the vectorized Hive-3.1
//! path and a row-interpreter Hive-1.2 emulation used as the Figure 7
//! baseline.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod engine;
pub mod join;
pub mod kernels;
pub mod keys;
pub mod membroker;
pub mod par;
pub mod pir;
pub mod rawtable;
pub mod recovery;
pub mod runtime_filter;
pub mod scan;
pub mod simtime;
pub mod spill;
pub mod window;

pub use engine::{
    execute, execute_sel, CardGuard, ExecContext, ExternalScanResult, ExternalScanner,
    FaultCharges, NodeTrace, SnapshotProvider, SpillConfig, WideOpenSnapshots,
};
pub use membroker::{scaled_budget, MemGrant, MemoryBroker};
pub use rawtable::RawTable;
pub use simtime::{simulate_ms, summarize, SimCostModel, SimSummary};
pub use spill::{SpillCtx, SpillFile, SpillStats};
