//! Physical IR: compiled, fused, type-specialized execution pipelines.
//!
//! `hive.exec.pir.enabled` (env `HIVE_PIR_ENABLED`, default on) lowers
//! optimizer `Filter`/`Project` chains — and the residual predicates of
//! scans — into pipelines that are compiled **once per query**:
//!
//! - [`lower`] folds constants, eliminates common subexpressions, and
//!   orders predicate conjuncts by cost tier and estimated selectivity;
//! - [`kernel`] resolves each comparison to a type-specialized kernel
//!   over its [`hive_common::KernelType`] domain (dictionary columns
//!   evaluate per distinct entry, null-free columns skip the bitmap
//!   branch);
//! - [`fuse`] executes the chain over one shared base batch and a
//!   narrowing selection vector, with no intermediate materialization
//!   between stages.
//!
//! The per-batch interpreter ([`crate::kernels`]) stays as the
//! differential oracle: with the toggle off, every operator takes the
//! pre-PIR path. `tests/differential.rs` holds that path to the row
//! interpreter's results, and `tests/pir_differential.rs` pins the two
//! to identical rows and fault schedules.

pub(crate) mod agg;
pub(crate) mod fuse;
pub(crate) mod kernel;
pub(crate) mod lower;

pub(crate) use fuse::{execute_chain, execute_chain_parts};
pub(crate) use kernel::SelRef;
pub(crate) use lower::PredPipeline;

/// Per-operator accounting of where the compiled paths actually ran —
/// surfaced on `NodeTrace`/`QueryResult` so differential sweeps can
/// assert the toggle exercised compiled code instead of silently
/// falling back to the interpreter.
#[derive(Debug, Default, Clone, Copy)]
pub struct PirCounters {
    /// Stages (filter/project pipelines, aggregate accumulator banks,
    /// join residual conjunctions) that executed fully compiled.
    pub compiled_stages: u64,
    /// Rows (or candidate pairs, for residuals) that went through the
    /// interpreter instead — non-compilable expression shapes, spilled
    /// aggregates, grace joins.
    pub fallback_rows: u64,
}

/// PIR applies only to the vectorized engine — row-mode execution
/// (`hive.vectorized.execution.enabled=false`) keeps its interpreter.
pub(crate) fn enabled(conf: &hive_common::HiveConf) -> bool {
    conf.effective_pir_enabled() && conf.vectorized
}
