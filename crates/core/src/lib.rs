//! # hive-core
//!
//! HiveServer2 (paper §2, Figure 2): the query server tying every
//! subsystem together. A [`HiveServer`] owns the simulated DFS, the
//! Metastore, the LLAP daemons, the federation registry, the workload
//! manager, and the query results cache; [`Session`]s execute SQL
//! through the driver pipeline:
//!
//! ```text
//! SQL → parser → (feature gate) → analyzer → results-cache probe →
//!   MV rewriting → optimizer → federation pushdown → DAG execution →
//!   (reoptimization on retryable failure) → results
//! ```

#[cfg(test)]
mod cache_position_tests;
pub mod driver;
pub mod mv;
pub mod results_cache;
pub mod server;
pub mod serving;
pub mod session;

pub use results_cache::{CacheOutcome, CachedResult, QueryResultsCache};
pub use server::HiveServer;
pub use serving::{
    run_streams, QueryOutcome, QueryStream, QueryVerdict, ServingOptions, ServingReport,
};
pub use session::{QueryResult, Session};

/// The paper's §5.2 `daytime` resource-plan example (bi/etl pools, the
/// downgrade trigger, and the application mapping).
pub fn resource_plan_example() -> hive_llap::ResourcePlan {
    hive_llap::ResourcePlan::paper_example()
}
