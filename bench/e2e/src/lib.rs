//! # hive-e2e-bench
//!
//! The repo's wall-clock benchmark: four workloads, each run in its own
//! process, timed parse → result through the public session surface,
//! checked against an oracle, and — in a separate traced run — broken
//! down by layer. See `README.md` next to this package for the metric
//! glossary and the layer → end-to-end prediction table.
//!
//! Module map:
//!
//! * [`workload`] generates the operation lists from a seed.
//! * [`harness`] measures them. It uses **only** the session surface
//!   (`HiveServer::new`, `session()`, `Session::execute`,
//!   `Session::bulk_insert`, `QueryResult`, `tpcds::load`), plus
//!   `HiveServer::fs()` to size table directories, so refactors of inner
//!   APIs cannot move the end-to-end numbers' meaning.
//! * [`layers`] replays a pass through the layer crates' public
//!   functions with spans around each call. It is the only module that
//!   may need touching when those signatures move.

pub mod cli;
pub mod harness;
pub mod hygiene;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
