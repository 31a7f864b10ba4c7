//! Operator fusion: execute a `Filter`/`Project` chain as one compiled
//! pipeline over a single selection vector.
//!
//! Evaluated one operator at a time, a chain materializes between
//! stages: `Filter` compacts its child before evaluating (a full gather
//! of every column), `Project` compacts again before evaluating. Fusion
//! peels the maximal chain
//! of `Filter`/`Project` nodes off the plan, executes the shared
//! source once, and then runs each stage **against the same base
//! batch**, only narrowing the selection (filters) or evaluating at
//! selected rows (projections). No intermediate `Arc<ColumnVector>`
//! materialization happens between fused stages; the one gather left
//! is the projection's own output.
//!
//! The source arrives as the engine's walker yields it: a scan's
//! morsels, a join's probe parts, or one part. Stages evaluate
//! batch-locally, so every stage runs part by part, the parts in
//! parallel over leased workers, and the parts' selected rows end to
//! end are the rows the chain yields over the assembled source.
//!
//! ## What fusion must preserve
//!
//! - **Results**: each stage's pass-set/outputs are exactly the row
//!   interpreter's (see [`super::kernel`]'s pass-set contract; fused
//!   projections evaluate through `eval_vector`, over a gather of only
//!   the *referenced* columns).
//! - **Traces**: one `NodeTrace` per peeled stage, same labels and row
//!   counts, so runtime re-optimization feedback and the simulated
//!   clock see an identical tree.
//! - **Fault schedule**: `apply_fragment_faults` rolls per executed
//!   plan vertex, keyed by label, bottom-up. Fused stages roll in plan
//!   order — every stage here except the topmost (whose roll happens in
//!   the engine's walker, `execute_parts`, as for any node).
//! - **Pipeline breakers**: fusion stops at any non-Filter/Project
//!   node and at shared subtrees (their results materialize once via
//!   `compact()` and are reused by fingerprint — fusing across that
//!   boundary would re-execute the shared work).

use super::kernel::SelRef;
use super::lower::{PredPipeline, ProjPlan};
use crate::engine::{align_column, execute_parts, type_aligned, ExecContext, NodeTrace};
use crate::kernels::eval_vector;
use hive_common::{
    ColumnVector, DataType, HiveError, Result, Schema, SelBatch, SelVec, VectorBatch,
};
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::ScalarExpr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

enum Stage<'a> {
    Filter(&'a ScalarExpr),
    Project {
        exprs: &'a [ScalarExpr],
        schema: Schema,
    },
}

/// Execute a plan rooted at a `Filter` or `Project` by fusing the
/// maximal chain below it: peel the chain off `plan`, walk its source
/// into parts (at least one), and run each stage over every part. A
/// stage is compiled once, from the first part's schema; its one
/// `NodeTrace` sums the parts' rows. Called from the engine's walker,
/// so the shared-work wrapper and the topmost fault roll sit above us.
pub(crate) fn execute_chain(
    plan: &LogicalPlan,
    ctx: &ExecContext,
) -> Result<(Vec<SelBatch>, NodeTrace)> {
    // Peel top-down.
    let mut stages: Vec<Stage<'_>> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            LogicalPlan::Filter { input, predicate } => {
                stages.push(Stage::Filter(predicate));
                cur = input;
            }
            LogicalPlan::Project { input, exprs, .. } => {
                stages.push(Stage::Project {
                    exprs,
                    schema: cur.schema(),
                });
                cur = input;
            }
            _ => break,
        }
        // A shared subtree is a fusion boundary: its result must
        // materialize once (and be found again by fingerprint).
        if ctx.is_shared_subtree(cur) {
            break;
        }
    }
    let (mut parts, mut trace) = execute_parts(cur, ctx)?;
    // Stages run part by part, the parts in parallel.
    let rows: usize = parts.iter().map(SelBatch::num_rows).sum();
    let (workers, _lease) = match parts.len() {
        0 | 1 => (1, None),
        _ => ctx.lease_workers(crate::par::row_morsels(rows)),
    };
    for (i, stage) in stages.iter().enumerate().rev() {
        let Some(first) = parts.first().map(|p| p.batch.clone()) else {
            return Err(HiveError::Execution("fused chain over no parts".into()));
        };
        let in_schema = first.schema();
        let rows_in: u64 = parts.iter().map(|p| p.num_rows() as u64).sum();
        let mut st = match stage {
            Stage::Filter(pred) => {
                // Engine-level filters order conjuncts by cost tier and
                // default selectivity estimates; scans (which hold table
                // stats) compile their own pipelines in `read_scan`.
                let pipe = PredPipeline::compile(pred, in_schema, None, false);
                parts = map_parts(parts, workers, |sb| run_filter(&pipe, sb))?;
                let mut t = NodeTrace::leaf("Filter");
                t.pir_compiled_stages = pipe.fully_compiled() as u64;
                // A row kernel interprets every input row; a compiled
                // pipeline only those a kernel gave up on at run time.
                t.pir_fallback_rows = if pipe.fully_compiled() {
                    pipe.interpreted_rows()
                } else {
                    rows_in
                };
                t
            }
            Stage::Project { exprs, schema } => {
                // All-trivial projection: re-share column handles, the
                // selection passes through untouched (zero copies).
                let trivial = exprs.iter().enumerate().all(|(i, e)| {
                    matches!(e, ScalarExpr::Column(c)
                        if type_aligned(&first.column(*c).data_type(), &schema.field(i).data_type))
                });
                let compiled = if trivial {
                    None
                } else {
                    Some(ProjPlan::compile(exprs, in_schema)?)
                };
                parts = map_parts(parts, workers, |sb| {
                    run_project(exprs, compiled.as_ref(), schema, sb)
                })?;
                let mut t = NodeTrace::leaf("Project");
                t.pir_compiled_stages = 1;
                t
            }
        };
        st.rows_in = rows_in;
        st.rows_out = parts.iter().map(|p| p.num_rows() as u64).sum();
        st.children = vec![trace];
        if i > 0 {
            // Interior stage: roll its fault schedule here, exactly
            // where the walker would for a node of its own.
            // The topmost stage's roll happens in our caller.
            crate::recovery::apply_fragment_faults(ctx, &mut st)?;
        }
        trace = st;
    }
    Ok((parts, trace))
}

/// `f` over every part, in parallel across `workers`, the results in
/// part order (the lowest part's error wins, as in the serial loop).
fn map_parts(
    parts: Vec<SelBatch>,
    workers: usize,
    f: impl Fn(SelBatch) -> Result<SelBatch> + Sync,
) -> Result<Vec<SelBatch>> {
    if workers <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<SelBatch>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    crate::par::parallel_map(workers, slots.len(), |i| {
        let part = slots[i].lock().take();
        f(part.ok_or_else(|| HiveError::Execution("a part was taken twice".into()))?)
    })
}

fn run_filter(pipe: &PredPipeline, sb: SelBatch) -> Result<SelBatch> {
    let kept = pipe.select(&sb.batch, SelRef::of(&sb.sel))?;
    let SelBatch { batch, sel } = sb;
    let sel = match kept {
        // Every selected row passed: the selection is already right.
        None => sel,
        // Kernels return underlying row ids, so this *is* the new
        // selection — no compose step.
        Some(rows) => SelVec::Idx(rows),
    };
    SelBatch::new(batch, sel)
}

/// One part through a projection: `plan` is `None` for the all-trivial
/// projection (bare column refs already in their declared types).
fn run_project(
    exprs: &[ScalarExpr],
    plan: Option<&ProjPlan>,
    out_schema: &Schema,
    sb: SelBatch,
) -> Result<SelBatch> {
    let Some(plan) = plan else {
        let cols = exprs
            .iter()
            .map(|e| match e {
                ScalarExpr::Column(c) => Ok(sb.batch.column_arc(*c).clone()),
                other => Err(HiveError::Execution(format!(
                    "trivial projection over a non-column expression {other}"
                ))),
            })
            .collect::<Result<_>>()?;
        let out = VectorBatch::from_arcs(out_schema.clone(), cols, sb.batch.num_rows())?;
        return SelBatch::new(out, sb.sel);
    };
    let n = sb.num_rows();
    // The evaluation base: at an identity selection the child's columns
    // are shared as-is; otherwise gather *only referenced* columns
    // (a compact() gathers every column) and pad the
    // rest with typed all-NULL columns so positional references line
    // up. Expressions never read the padding.
    let base = if sb.sel.is_all() {
        sb.batch.clone()
    } else {
        let idx = sb.sel.to_indices();
        let referenced: Vec<bool> = {
            let mut v = vec![false; sb.batch.num_columns()];
            for &c in &plan.referenced {
                v[c] = true;
            }
            v
        };
        let mut pads: HashMap<DataType, Arc<ColumnVector>> = HashMap::new();
        let mut cols: Vec<Arc<ColumnVector>> = Vec::with_capacity(sb.batch.num_columns());
        for (c, field) in sb.batch.schema().fields().iter().enumerate() {
            if referenced[c] {
                cols.push(Arc::new(sb.batch.column(c).take(&idx)));
            } else {
                let pad = match pads.get(&field.data_type) {
                    Some(p) => p.clone(),
                    None => {
                        let p = Arc::new(ColumnVector::all_null(&field.data_type, n)?);
                        pads.insert(field.data_type.clone(), p.clone());
                        p
                    }
                };
                cols.push(pad);
            }
        }
        VectorBatch::from_arcs(sb.batch.schema().clone(), cols, n)?
    };
    // Hoisted common subexpressions evaluate once into temp columns
    // (they reference base columns only), then the distinct outputs
    // evaluate over the extended batch through `eval_vector`.
    let mut cols: Vec<Arc<ColumnVector>> = (0..base.num_columns())
        .map(|c| base.column_arc(c).clone())
        .collect();
    for t in &plan.temps {
        cols.push(eval_vector(t, &base)?);
    }
    let ext = VectorBatch::from_arcs(plan.eval_schema.clone(), cols, n)?;
    let mut unique_cols = Vec::with_capacity(plan.unique.len());
    for e in &plan.unique {
        unique_cols.push(eval_vector(e, &ext)?);
    }
    let mut out_cols = Vec::with_capacity(exprs.len());
    for (i, slot) in plan.slots.iter().enumerate() {
        out_cols.push(align_column(
            unique_cols[*slot].clone(),
            &out_schema.field(i).data_type,
        )?);
    }
    let out = VectorBatch::from_arcs(out_schema.clone(), out_cols, n)?;
    Ok(SelBatch::from_batch(out))
}
