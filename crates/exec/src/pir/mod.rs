//! Physical IR: compiled, fused, type-specialized execution pipelines.
//!
//! The vectorized engine (`vectorized = true`) evaluates every predicate
//! here: optimizer `Filter`/`Project` chains, the residual predicates of
//! scans (shared-work scans included), join residuals and DML
//! conditions lower into pipelines that are compiled **once per
//! query**:
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
//! A predicate has two evaluators: these kernels, and the row
//! interpreter (`eval_scalar`), which is the Hive 1.2 engine
//! (`vectorized = false`) and the reference. `tests/differential.rs`
//! and `tests/pir_differential.rs` hold the compiled paths to the row
//! interpreter's rows and to an exact fault-schedule replay.

pub(crate) mod agg;
pub(crate) mod fuse;
pub(crate) mod kernel;
pub(crate) mod lower;

pub(crate) use fuse::execute_chain;
pub(crate) use kernel::SelRef;
pub(crate) use lower::PredPipeline;

use hive_common::{Result, VectorBatch};
use hive_optimizer::ScalarExpr;

/// Per-operator accounting of where the compiled paths actually ran —
/// surfaced on `NodeTrace`/`QueryResult` so differential sweeps can
/// assert that compiled code ran instead of silently falling back to
/// the row interpreter.
#[derive(Debug, Default, Clone, Copy)]
pub struct PirCounters {
    /// Stages (filter/project pipelines, scan predicates, aggregate
    /// accumulator banks, join residual conjunctions) that executed
    /// fully compiled.
    pub compiled_stages: u64,
    /// Rows (or candidate pairs, for residuals) that went through the
    /// row interpreter instead — non-compilable expression shapes,
    /// grace joins.
    pub fallback_rows: u64,
}

/// The entries of `rows` (row indexes into `batch`) at which `pred` is
/// TRUE, in their order in `rows`: `pred` compiled once and run over
/// `rows` as a selection. A row where it is FALSE or NULL is dropped.
pub fn select_rows(pred: &ScalarExpr, batch: &VectorBatch, rows: &[u32]) -> Result<Vec<u32>> {
    let pipe = PredPipeline::compile(pred, batch.schema(), None, false);
    Ok(pipe
        .select(batch, SelRef::Idx(rows))?
        .unwrap_or_else(|| rows.to_vec()))
}
