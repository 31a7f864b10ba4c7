//! Hash joins: inner/left/right/full/semi/anti (+cross), with residual
//! predicates, NULL-safe key semantics, and the memory-budget check that
//! feeds query re-optimization (§4.2).
//!
//! Both join phases are morsel-parallel with byte-identical output at
//! any worker count: the build side is hash-partitioned (each partition
//! inserts its rows in ascending order, so per-bucket candidate lists
//! match the serial build exactly), and the probe side is probed part by
//! part when it arrives as parts ([`execute_join_parts`]) or split into
//! contiguous row ranges otherwise — either way the outputs follow in
//! part or range order, the serial probe order.

use crate::engine::{compact_for, reads_through};
use crate::kernels::eval_vector;
use crate::keys::{column_refs, partitions_for, IndexKind, JoinIndex, KeySide};
use crate::pir::{PredPipeline, SelRef};
use crate::spill::SpillCtx;
use hive_common::{
    ColumnVector, HiveError, Result, Schema, SelBatch, SelVec, Value, VectorBatch, NULL_INDEX,
};
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::plan::JoinType;
use hive_optimizer::ScalarExpr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execute a join over compact batches (serial path; identical results
/// to [`execute_join_parts`] at any worker count).
pub fn execute_join(
    left: &VectorBatch,
    right: &VectorBatch,
    join_type: JoinType,
    equi: &[(ScalarExpr, ScalarExpr)],
    residual: &Option<ScalarExpr>,
    out_schema: &Schema,
    build_row_budget: usize,
) -> Result<VectorBatch> {
    let (parts, _) = execute_join_parts(
        std::slice::from_ref(&SelBatch::from_batch(left.clone())),
        &SelBatch::from_batch(right.clone()),
        join_type,
        equi,
        residual,
        out_schema,
        build_row_budget,
        1,
        None,
        None,
    )?;
    Ok(crate::engine::assemble(parts)?.compact())
}

/// How a join ran and where its wall-clock time went — what a `Join`
/// [`crate::engine::NodeTrace`] carries for profiles. The times are
/// wall-clock: nothing that decides a result, a simulated time or a
/// fault roll reads them.
#[derive(Debug, Clone, Default)]
pub struct JoinProfile {
    /// The build index's kind; `None` for a grace join, whose leaves
    /// each index their own partition.
    pub index: Option<IndexKind>,
    /// The probe side was probed part by part (else as one assembled
    /// batch).
    pub by_parts: bool,
    /// Hash partitions the build index was built in.
    pub partitions: usize,
    /// Key evaluation and the build index.
    pub build_ns: u64,
    /// The probe walk.
    pub probe_ns: u64,
    /// Output assembly.
    pub assemble_ns: u64,
}

impl JoinProfile {
    /// The route column: index kind, parts or assembled, and partition
    /// count, e.g. `dense/parts/1`.
    pub fn route(&self) -> String {
        format!(
            "{}/{}/{}",
            self.index.map_or("grace", IndexKind::name),
            if self.by_parts { "parts" } else { "assembled" },
            self.partitions
        )
    }
}

/// Wall nanoseconds since `t`, restarting it.
pub(crate) fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Execute a join with a hash-partitioned parallel build across up to
/// `workers` threads, over a probe (left) side that arrives as an
/// ordered sequence of parts — a scan's morsels, a fused chain over
/// them, another such join's output, or one part — returning the output
/// as parts in part order, whose selected rows end to end are the
/// join's rows over the parts' concatenation, beside the join's route
/// and wall-clock split. `equi` pairs are (left expr, right expr);
/// `residual` is evaluated over the concatenated (left ++ right) row.
///
/// Inputs arrive as `(batch, selection)` pairs; the join works in
/// *position* space (0..selected rows) — key columns are gathered
/// compact, while residual evaluation and output assembly map positions
/// back through the selections, so unselected rows are never touched.
///
/// The build side is the right input; exceeding `build_row_budget`
/// raises a retryable error so the driver can re-optimize with runtime
/// statistics.
///
/// `pir` is `Some` when the physical IR is enabled: residual predicates
/// then lower to compiled kernels and evaluate vectorized over gathered
/// candidate pair-batches ([`ResidualPlan`]), with the row closure kept
/// as the fallback for non-compilable expressions and the grace path.
///
/// The output is columnar end to end: one typed gather per column
/// ([`assemble`]), dictionary columns staying encoded over their shared
/// dictionary. Semi and anti joins copy nothing — they return the probe
/// batch's columns under a narrowed selection.
///
/// The build runs once. Each probe part is then probed on its own,
/// the parts in parallel across `workers`, and assembles its own output,
/// so the probe side is never concatenated. Two things are decided once
/// for the whole join, as one output would: a plain string build column
/// the whole join fans out ([`ColumnVector::fanout_encoded`]) is encoded
/// once, and every part gathers codes over that one dictionary; and a
/// plain string *probe* column that would fan out in the whole join or
/// in a part sends the join down the assembled path.
///
/// The assembled path — the probe parts assembled into one
/// ([`crate::engine::assemble`]), probed in row ranges — is taken for a
/// single part, a probe side under two morsels, `Right`/`Full` joins
/// (their unmatched build rows are a property of every part), computed
/// probe keys, probe key columns whose representations differ between
/// parts (one build index serves one classification), and a denied
/// memory grant (the grace join).
#[allow(clippy::too_many_arguments)]
pub fn execute_join_parts(
    lefts: &[SelBatch],
    right_in: &SelBatch,
    join_type: JoinType,
    equi: &[(ScalarExpr, ScalarExpr)],
    residual: &Option<ScalarExpr>,
    out_schema: &Schema,
    build_row_budget: usize,
    workers: usize,
    spill: Option<&SpillCtx<'_>>,
    pir: Option<&mut crate::pir::PirCounters>,
) -> Result<(Vec<SelBatch>, JoinProfile)> {
    let mut clock = Instant::now();
    let mut profile = JoinProfile::default();
    // Memory admission. With a broker present the build's modeled bytes
    // must win a grant (held for the whole join); a denial — or the
    // legacy row budget, kept as a planner-misprediction signal —
    // degrades to the grace hash join when spill is enabled, and
    // otherwise downgrades the typed memory error to `Retryable` so the
    // §4.2 re-optimization ladder still applies.
    let over_rows = right_in.num_rows() > build_row_budget;
    let mut grace: Option<&SpillCtx<'_>> = None;
    let _grant = match spill {
        Some(sp) => {
            let est = crate::spill::estimate_table_bytes(right_in.num_rows(), equi.len().max(1));
            let g = sp.broker.try_reserve("hash-join-build", est);
            if g.is_none() || over_rows {
                if !sp.enabled {
                    let err = HiveError::MemoryExceeded {
                        operator: "hash-join-build".into(),
                        requested: est,
                        granted: sp.broker.available(),
                    };
                    return Err(HiveError::Retryable(err.to_string()));
                }
                grace = Some(sp);
                None // grace partitions charge their own working sets
            } else {
                g
            }
        }
        None => {
            if over_rows {
                let err = HiveError::MemoryExceeded {
                    operator: "hash-join-build".into(),
                    requested: right_in.num_rows() as u64,
                    granted: build_row_budget as u64,
                };
                return Err(HiveError::Retryable(err.to_string()));
            }
            None
        }
    };

    // Computed key expressions evaluate over whole batches, so a side
    // with a stacked selection and computed keys compacts up front;
    // bare column keys gather through the selection instead (one column
    // copy, not one per surviving column).
    let probe_exprs = || equi.iter().map(|(l, _)| l);
    let probe_trivial = reads_through(probe_exprs());
    let right = compact_for(right_in.clone(), equi.iter().map(|(_, r)| r));

    // Evaluate key columns, compact (length = selected row count).
    let sel_key = |sb: &SelBatch, e: &ScalarExpr| -> Result<Arc<ColumnVector>> {
        let col = eval_vector(e, &sb.batch)?; // a bare column is an `Arc` clone
        Ok(match &sb.sel {
            SelVec::All(_) => col,
            SelVec::Idx(idx) => Arc::new(col.take(idx)),
        })
    };
    let probe_keys = |sb: &SelBatch| -> Result<Vec<Arc<ColumnVector>>> {
        equi.iter().map(|(l, _)| sel_key(sb, l)).collect()
    };
    let rkeys = equi
        .iter()
        .map(|(_, r)| sel_key(&right, r))
        .collect::<Result<Vec<_>>>()?;

    // One build index serves every part only if every part's key
    // columns pair with the build's alike: the pairing reads the columns'
    // representations (a dictionary pair keys by code, anything else with
    // a string by bytes), and for bare columns those are the batches'.
    let key_reps = |sb: &SelBatch| -> Vec<std::mem::Discriminant<ColumnVector>> {
        (equi.iter())
            .filter_map(|(l, _)| match l {
                ScalarExpr::Column(c) => Some(std::mem::discriminant(sb.batch.column(*c))),
                _ => None,
            })
            .collect()
    };
    let probe_rows: usize = lefts.iter().map(SelBatch::num_rows).sum();
    let by_parts = lefts.len() > 1
        && grace.is_none()
        && probe_trivial
        && !matches!(join_type, JoinType::Right | JoinType::Full)
        && probe_rows >= 2 * crate::par::ROWS_PER_MORSEL
        && lefts.iter().all(|p| key_reps(p) == key_reps(&lefts[0]));

    let lw = lefts.first().map_or(0, |l| l.batch.num_columns());
    let resid = Residual::new(residual.as_ref(), lw, right.batch.num_columns());

    if !by_parts {
        let left = compact_for(crate::engine::assemble(lefts.to_vec())?, probe_exprs());
        let lkeys = probe_keys(&left)?;
        let (probe_side, build_side) =
            KeySide::join_pair(&column_refs(&lkeys), &column_refs(&rkeys));
        if let Some(sp) = grace {
            let result = grace_join(
                &left,
                &right,
                join_type,
                &probe_side,
                &build_side,
                &|li, ri| resid.ok(&left, &right, li, ri),
                out_schema,
                sp,
                workers,
            )?;
            // Grace joins interpret their residual (each leaf probes its
            // candidates pair by pair) — pure fallback, no compiled
            // stage.
            if let Some(pc) = pir {
                pc.fallback_rows += resid.pairs.load(Ordering::Relaxed);
            }
            profile.build_ns = lap(&mut clock);
            return Ok((vec![result], profile));
        }
        let build = Build::new(
            &right,
            &build_side,
            join_type,
            resid,
            &left,
            pir.is_some(),
            workers,
        )?;
        build.describe(&mut profile, false);
        let probe_side = build.index.probe_side(probe_side);
        profile.build_ns = lap(&mut clock);
        // Contiguous left-row ranges probed in parallel; range outputs
        // concatenate in range order, reproducing the serial probe order.
        let n = left.num_rows() as u32;
        let ranges: Vec<ProbeOut> = if workers <= 1 {
            vec![build.probe(&left, &probe_side, 0, n)?]
        } else {
            let chunk = (n.div_ceil(workers as u32)).max(crate::par::ROWS_PER_MORSEL as u32 / 4);
            let nranges = n.div_ceil(chunk) as usize;
            crate::par::parallel_map(workers, nranges, |r| {
                let lo = r as u32 * chunk;
                build.probe(&left, &probe_side, lo, (lo + chunk).min(n))
            })?
        };
        profile.probe_ns = lap(&mut clock);
        let result = assemble(
            &left,
            &right,
            join_type,
            ProbeOut::concat(ranges),
            out_schema,
            workers,
        )?;
        profile.assemble_ns = lap(&mut clock);
        build.count(pir);
        return Ok((vec![result], profile));
    }

    // By parts: the build side pairs with the first part's key columns
    // as the batch holds them (every part's pair alike).
    let first_keys = (equi.iter())
        .map(|(l, _)| eval_vector(l, &lefts[0].batch))
        .collect::<Result<Vec<_>>>()?;
    let (_, build_side) = KeySide::join_pair(&column_refs(&first_keys), &column_refs(&rkeys));
    let build = Build::new(
        &right,
        &build_side,
        join_type,
        resid,
        &lefts[0],
        pir.is_some(),
        workers,
    )?;
    build.describe(&mut profile, true);
    profile.build_ns = lap(&mut clock);
    let outs = crate::par::parallel_map(workers, lefts.len(), |p| {
        let left = &lefts[p];
        let lkeys = probe_keys(left)?;
        let (probe_side, _) = KeySide::join_pair(&column_refs(&lkeys), &column_refs(&rkeys));
        let probe_side = build.index.probe_side(probe_side);
        build.probe(left, &probe_side, 0, left.num_rows() as u32)
    })?;
    profile.probe_ns = lap(&mut clock);
    build.count(pir);

    // The fan-out rule, decided on the whole join's output.
    let total: usize = outs.iter().map(|o| o.left.len()).sum();
    let whole_fans_out = hive_common::vector::is_fanout(probe_rows, total);
    let probe_fans_out = join_type.keeps_right()
        && lefts.iter().zip(&outs).any(|(l, o)| {
            let n = o.left.len();
            (l.batch.columns().iter()).any(|c| {
                matches!(**c, ColumnVector::Str(..)) && (whole_fans_out || n > 0 && c.fans_out(n))
            })
        });
    if probe_fans_out {
        // Assemble as one output, over the concatenated probe side.
        let left = crate::engine::assemble(lefts.to_vec())?;
        let mut at = 0u32;
        let shifted = (lefts.iter().zip(outs)).map(|(l, mut o)| {
            o.left.iter_mut().for_each(|li| *li += at);
            at += l.num_rows() as u32;
            o
        });
        let merged = ProbeOut::concat(shifted.collect());
        let out = assemble(&left, &right, join_type, merged, out_schema, workers)?;
        profile.assemble_ns = lap(&mut clock);
        return Ok((vec![out], profile));
    }
    let right = if join_type.keeps_right() {
        let encoded: Vec<Arc<ColumnVector>> = (right.batch.columns().iter())
            .map(|c| c.fanout_encoded(total).map_or_else(|| c.clone(), Arc::new))
            .collect();
        let (schema, rows) = (right.batch.schema().clone(), right.batch.num_rows());
        SelBatch {
            batch: VectorBatch::from_arcs(schema, encoded, rows)?,
            sel: right.sel.clone(),
        }
    } else {
        right.clone()
    };
    let outs: Vec<parking_lot::Mutex<Option<ProbeOut>>> = outs
        .into_iter()
        .map(|o| parking_lot::Mutex::new(Some(o)))
        .collect();
    let parts = crate::par::parallel_map(workers, lefts.len(), |p| {
        let out = outs[p].lock().take().unwrap_or_default();
        assemble(&lefts[p], &right, join_type, out, out_schema, 1)
    })?;
    profile.assemble_ns = lap(&mut clock);
    Ok((parts, profile))
}

/// A join's residual predicate as the row interpreter evaluates it, the
/// compiled plan when it has one, and the candidate pairs the
/// interpreter saw (counted only when a residual exists — `ok` is also
/// the no-residual "always true" answer, which is not a fallback).
struct Residual<'a> {
    pred: Option<&'a ScalarExpr>,
    /// The columns the predicate references: the interpreted row reads
    /// only these; the rest stay NULL, as `flush_pairs` pads them.
    cols: Vec<usize>,
    /// Probe-side width, and the width of the pair row.
    lw: usize,
    width: usize,
    pairs: AtomicU64,
}

impl<'a> Residual<'a> {
    fn new(pred: Option<&'a ScalarExpr>, lw: usize, rw: usize) -> Residual<'a> {
        let width = lw + rw;
        let mut cols = pred.map_or(Vec::new(), ScalarExpr::columns);
        cols.retain(|&c| c < width); // an unbound column fails in `eval_scalar`
        Residual {
            pred,
            cols,
            lw,
            width,
            pairs: AtomicU64::new(0),
        }
    }

    /// Does the pair (probe position `li`, build position `ri`) pass?
    fn ok(&self, left: &SelBatch, right: &SelBatch, li: u32, ri: u32) -> Result<bool> {
        let Some(pred) = self.pred else {
            return Ok(true);
        };
        self.pairs.fetch_add(1, Ordering::Relaxed);
        let (lrow, rrow) = (left.sel.index(li as usize), right.sel.index(ri as usize));
        let mut vals = vec![Value::Null; self.width];
        for &c in &self.cols {
            vals[c] = if c < self.lw {
                left.batch.column(c).get(lrow)
            } else {
                right.batch.column(c - self.lw).get(rrow)
            };
        }
        Ok(eval_scalar(pred, &vals)? == Value::Boolean(true))
    }
}

/// A join's build side, ready to probe: the indexed build keys and the
/// residual, shared by every probe range or part.
struct Build<'a> {
    right: &'a SelBatch,
    join_type: JoinType,
    index: JoinIndex,
    resid: Residual<'a>,
    /// The residual lowered to kernels: probe rows gather their
    /// candidate (probe, build) pairs into pair-batches and run the
    /// compiled conjunction vectorized. `None` (non-compilable shape, or
    /// row mode) keeps the row closure.
    plan: Option<ResidualPlan>,
}

impl<'a> Build<'a> {
    /// Partitioned build over the right side: a key's rows all land in
    /// one partition (routed by the key's slot or hash), and each partition
    /// inserts its rows in ascending order, so every key's candidate list
    /// is exactly what the serial single-table build produces. The
    /// partition count follows the build's size ([`partitions_for`]); a
    /// single worker builds one table.
    fn new(
        right: &'a SelBatch,
        build_side: &KeySide<'_>,
        join_type: JoinType,
        resid: Residual<'a>,
        left: &SelBatch,
        pir: bool,
        workers: usize,
    ) -> Result<Build<'a>> {
        let plan = match (resid.pred, pir) {
            (Some(pred), true) => ResidualPlan::compile(pred, left, right),
            _ => None,
        };
        let nparts = if workers <= 1 {
            1
        } else {
            partitions_for(right.num_rows())
        };
        let all = SelVec::all(right.num_rows());
        Ok(Build {
            right,
            join_type,
            index: JoinIndex::build(build_side, &all, nparts, workers)?,
            resid,
            plan,
        })
    }

    /// Probe positions `lo..hi` of `left`. Each chunk of probe keys is
    /// prepared column-wise, then walked against the index. Without a
    /// residual the walk writes the output rows itself
    /// ([`JoinIndex::probe_into`]); with one, each probe row's candidate
    /// list, borrowed from the build, goes through the residual first —
    /// no per-row allocation either way.
    fn probe(
        &self,
        left: &SelBatch,
        probe_side: &KeySide<'_>,
        lo: u32,
        hi: u32,
    ) -> Result<ProbeOut> {
        let (right, join_type) = (self.right, self.join_type);
        let mut out = ProbeOut::default();
        out.left.reserve((hi - lo) as usize);
        out.right.reserve((hi - lo) as usize);
        let all_left = SelVec::all(left.num_rows());
        let (lo, hi) = (lo as usize, hi as usize);
        if self.resid.pred.is_none() {
            probe_side.key_chunks(&all_left, lo, hi, |at, keys| {
                (self.index).probe_into(keys, at as u32, join_type, &mut out)
            })?;
            return Ok(out);
        }
        let mut kept: Vec<u32> = Vec::new();
        // Compiled-residual buffers, held with their plan: candidate
        // pairs accumulate across probe rows (`pr` = build positions,
        // `spans` = per-probe-row slices of it) and flush through the
        // kernels in batches.
        let mut pairs = self
            .plan
            .as_ref()
            .map(|plan| (plan, Vec::<u32>::new(), Vec::<(u32, u32, u32)>::new()));
        // Probe row `li` met build rows `cands` (none for a NULL key).
        let mut matched = |li: u32, cands: &[u32]| -> Result<()> {
            match &mut pairs {
                Some((plan, pr, spans)) => {
                    let start = pr.len() as u32;
                    pr.extend_from_slice(cands);
                    spans.push((li, start, pr.len() as u32));
                    if pr.len() >= RESID_FLUSH {
                        flush_pairs(plan, left, right, join_type, pr, spans, &mut kept, &mut out)?;
                        pr.clear();
                        spans.clear();
                    }
                }
                None => {
                    kept.clear();
                    for &ri in cands {
                        if self.resid.ok(left, right, li, ri)? {
                            kept.push(ri);
                        }
                    }
                    emit_rows(join_type, li, 1, &mut out, |_| kept.as_slice());
                }
            }
            Ok(())
        };
        probe_side.key_chunks(&all_left, lo, hi, |at, keys| {
            self.index
                .probe(keys, |r, cands| matched((at + r) as u32, cands))
        })?;
        if let Some((plan, pr, spans)) = pairs.as_ref().filter(|(_, _, spans)| !spans.is_empty()) {
            flush_pairs(plan, left, right, join_type, pr, spans, &mut kept, &mut out)?;
        }
        Ok(out)
    }

    /// Record the route this build serves: its index and whether the
    /// probe goes `by_parts`.
    fn describe(&self, profile: &mut JoinProfile, by_parts: bool) {
        profile.index = Some(self.index.kind());
        profile.partitions = self.index.partitions();
        profile.by_parts = by_parts;
    }

    /// Report the residual's compiled stage and interpreted pairs.
    fn count(&self, pir: Option<&mut crate::pir::PirCounters>) {
        let Some(pc) = pir else { return };
        if self.resid.pred.is_some() {
            if let Some(plan) = &self.plan {
                pc.compiled_stages += 1;
                pc.fallback_rows += plan.pipe.interpreted_rows();
            }
            pc.fallback_rows += self.resid.pairs.load(Ordering::Relaxed);
        }
    }
}

/// One probe range's output rows and the build rows it matched.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct ProbeOut {
    pub(crate) left: Vec<u32>,
    /// Build position per output row; [`NULL_INDEX`] where the probe
    /// row found no match.
    pub(crate) right: Vec<u32>,
    pub(crate) matched_right: Vec<u32>,
}

impl ProbeOut {
    /// Consecutive ranges' outputs as one, in range order (the
    /// matched-right lists become an order-insensitive set in
    /// `assemble`): each vector reserved once, a single range moved.
    fn concat(ranges: Vec<ProbeOut>) -> ProbeOut {
        if ranges.len() <= 1 {
            return ranges.into_iter().next().unwrap_or_default();
        }
        let sum = |f: fn(&ProbeOut) -> usize| ranges.iter().map(f).sum::<usize>();
        let mut merged = ProbeOut {
            left: Vec::with_capacity(sum(|r| r.left.len())),
            right: Vec::with_capacity(sum(|r| r.right.len())),
            matched_right: Vec::with_capacity(sum(|r| r.matched_right.len())),
        };
        for r in ranges {
            merged.left.extend(r.left);
            merged.right.extend(r.right);
            merged.matched_right.extend(r.matched_right);
        }
        merged
    }
}

/// Append the output rows of probe positions `at..at + n`, position
/// `at + r` having met build rows `cands(r)`, by `join_type`'s rule —
/// the single source of truth for per-join-type emission. A join
/// without a residual runs it over a whole chunk of probe keys, one
/// loop per join type ([`JoinIndex::probe_into`]); the residual probe
/// and the grace join's leaves run it one probe row at a time over the
/// residual-surviving candidates. That sharing is what makes the three
/// byte-identical.
#[inline]
pub(crate) fn emit_rows<'c>(
    join_type: JoinType,
    at: u32,
    n: usize,
    out: &mut ProbeOut,
    cands: impl Fn(usize) -> &'c [u32],
) {
    let ProbeOut {
        left,
        right,
        matched_right,
    } = out;
    let rows = (0..n).map(|r| (at + r as u32, cands(r)));
    match join_type {
        JoinType::Inner | JoinType::Cross => {
            for (li, c) in rows {
                for &ri in c {
                    left.push(li);
                    right.push(ri);
                }
            }
        }
        JoinType::Left => {
            for (li, c) in rows {
                if c.is_empty() {
                    left.push(li);
                    right.push(NULL_INDEX);
                } else {
                    for &ri in c {
                        left.push(li);
                        right.push(ri);
                    }
                }
            }
        }
        JoinType::Right | JoinType::Full => {
            for (li, c) in rows {
                for &ri in c {
                    matched_right.push(ri);
                    left.push(li);
                    right.push(ri);
                }
                if join_type == JoinType::Full && c.is_empty() {
                    left.push(li);
                    right.push(NULL_INDEX);
                }
            }
        }
        JoinType::Semi => {
            for (li, c) in rows {
                if !c.is_empty() {
                    left.push(li);
                    right.push(NULL_INDEX);
                }
            }
        }
        JoinType::Anti => {
            for (li, c) in rows {
                if c.is_empty() {
                    left.push(li);
                    right.push(NULL_INDEX);
                }
            }
        }
    }
}

/// Flush the compiled-residual pair buffer once it holds this many
/// candidate pairs (plus whatever the current probe row contributed).
/// Sized so gathered pair-batches stay cache-resident without giving up
/// the vectorization win on high-fanout keys.
const RESID_FLUSH: usize = 4096;

/// A join residual lowered to the compiled kernel pipeline, evaluated
/// over gathered candidate pair-batches instead of per-pair row
/// interpretation.
///
/// The plan compiles against the concatenated `left ++ right` schema —
/// the same row layout `residual_ok` feeds `eval_scalar` — and is used
/// only when every conjunct lowered to a kernel
/// ([`PredPipeline::fully_compiled`]); a partial lowering would run
/// non-compiled conjuncts through `select_row` per pair, which is the
/// interpreter with extra gather cost.
///
/// Byte-identity: kernels share `sql_cmp`/`Value` semantics with the
/// interpreter (the pass-set contract in [`crate::pir::kernel`]), and
/// flush boundaries cannot change results because every kernel is
/// elementwise per pair. Error-order latitude: the pipeline evaluates
/// conjunct-by-conjunct over the whole pair batch where the interpreter
/// walks pair-by-pair, so *which* error surfaces from a failing batch
/// may differ — both paths still fail the query (see DESIGN.md §4).
struct ResidualPlan {
    pipe: PredPipeline,
    /// `left.schema().join(right.schema())`.
    schema: Schema,
    /// Which pair-batch columns the predicate actually reads; the rest
    /// are padded with typed all-NULL columns instead of gathered.
    referenced: Vec<bool>,
}

impl ResidualPlan {
    fn compile(pred: &ScalarExpr, left: &SelBatch, right: &SelBatch) -> Option<ResidualPlan> {
        let schema = left.batch.schema().join(right.batch.schema());
        let pipe = PredPipeline::compile(pred, &schema, None, false);
        if !pipe.fully_compiled() {
            return None;
        }
        let mut referenced = vec![false; schema.fields().len()];
        for c in pred.columns() {
            referenced[c] = true;
        }
        Some(ResidualPlan {
            pipe,
            schema,
            referenced,
        })
    }
}

/// Evaluate the compiled residual over the buffered candidate pairs and
/// emit each probe row's surviving matches.
///
/// `pr` holds build-side positions; `spans` slices it per probe row as
/// `(li, start, end)`. The pair-batch gathers referenced columns by
/// *underlying row id* (positions mapped through each side's selection,
/// exactly like `residual_ok`), pads the rest with typed NULL columns,
/// and runs the pipeline once over all pairs. Kernels return pass-set
/// indices in ascending order, so a single forward walk splits them
/// back into per-probe-row `kept` lists for [`emit_rows`].
#[allow(clippy::too_many_arguments)]
fn flush_pairs(
    plan: &ResidualPlan,
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    pr: &[u32],
    spans: &[(u32, u32, u32)],
    kept: &mut Vec<u32>,
    out: &mut ProbeOut,
) -> Result<()> {
    let npairs = pr.len();
    let lw = left.batch.num_columns();
    let mut lidx: Vec<u32> = Vec::with_capacity(npairs);
    for &(li, s, e) in spans {
        let row = left.sel.index(li as usize) as u32;
        lidx.extend(std::iter::repeat_n(row, (e - s) as usize));
    }
    let ridx: Vec<u32> = pr
        .iter()
        .map(|&ri| right.sel.index(ri as usize) as u32)
        .collect();
    let mut cols: Vec<Arc<ColumnVector>> = Vec::with_capacity(plan.schema.fields().len());
    for (ci, f) in plan.schema.fields().iter().enumerate() {
        let col = if !plan.referenced[ci] {
            ColumnVector::all_null(&f.data_type, npairs)?
        } else if ci < lw {
            left.batch.column(ci).take(&lidx)
        } else {
            right.batch.column(ci - lw).take(&ridx)
        };
        cols.push(Arc::new(col));
    }
    let batch = VectorBatch::from_arcs(plan.schema.clone(), cols, npairs)?;
    let pass = plan.pipe.select(&batch, SelRef::All(npairs))?;
    match pass {
        // Every pair passed: each span keeps its full candidate list.
        None => {
            for &(li, s, e) in spans {
                emit_rows(join_type, li, 1, out, |_| &pr[s as usize..e as usize]);
            }
        }
        Some(p) => {
            let mut pi = 0usize;
            for &(li, s, e) in spans {
                kept.clear();
                while pi < p.len() && p[pi] < e {
                    debug_assert!(p[pi] >= s);
                    kept.push(pr[p[pi] as usize]);
                    pi += 1;
                }
                emit_rows(join_type, li, 1, out, |_| kept.as_slice());
            }
        }
    }
    Ok(())
}

/// The grace (recursive partitioned) hash join: both sides' positions
/// are partitioned through spill files by their key hash
/// ([`crate::spill::solve`]; the build side sizes a partition) until a
/// partition's build fits the working budget. A leaf indexes its build
/// positions' keys in a [`JoinIndex`] and probes it with its probe
/// positions' keys — both re-derived from the resident key columns by
/// the join's own [`KeySide`]s, whatever shape they chose — emitting
/// through [`emit_rows`], as the in-memory probe does. A probe row the
/// join excludes (a NULL key part) routes to partition 0 and finds no
/// candidates there. Payload columns never spill: assembly gathers from
/// the resident input batches at the end, exactly like the in-memory
/// path.
///
/// Determinism: the whole grace pipeline is serial (hashing, routing,
/// partition order, leaf probes), so its output — and its spill I/O
/// schedule, which seeded fault injection keys on file paths — is a
/// pure function of the input, independent of the worker count.
///
/// Output order: leaves emit `(left, right)` position pairs in
/// leaf-local probe order; a final stable sort by left position
/// restores global probe order. Within one left row all matches live in
/// one leaf (same key ⇒ same hash ⇒ same route) and a leaf's candidates
/// ascend by build position, so the sorted pair list is byte-identical
/// to the in-memory probe's emission order.
#[allow(clippy::too_many_arguments)]
fn grace_join(
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    probe_side: &KeySide<'_>,
    build_side: &KeySide<'_>,
    residual_ok: &dyn Fn(u32, u32) -> Result<bool>,
    out_schema: &Schema,
    sp: &SpillCtx<'_>,
    workers: usize,
) -> Result<SelBatch> {
    let (nl, nr) = (left.num_rows(), right.num_rows());
    let (all_l, all_r) = (SelVec::all(nl), SelVec::all(nr));
    let mut out = ProbeOut::default();
    let mut kept: Vec<u32> = Vec::new();
    crate::spill::solve(
        sp,
        "join-partition",
        [
            (build_side, &all_r, "-build.grace"),
            (probe_side, &all_l, "-probe.grace"),
        ],
        |rows| crate::spill::estimate_table_bytes(rows, build_side.cols().len().max(1)),
        [(0..nr as u32).collect(), (0..nl as u32).collect()],
        |[build, probe]| {
            let (build, probe) = (SelVec::Idx(build), SelVec::Idx(probe));
            let index = JoinIndex::build(build_side, &build, 1, 1)?;
            let probe_side = index.probe_side(probe_side.clone());
            probe_side.key_chunks(&probe, 0, probe.len(), |at, keys| {
                index.probe(keys, |r, cands| {
                    let li = probe.index(at + r) as u32;
                    kept.clear();
                    for &c in cands {
                        let ri = build.index(c as usize) as u32;
                        if residual_ok(li, ri)? {
                            kept.push(ri);
                        }
                    }
                    emit_rows(join_type, li, 1, &mut out, |_| kept.as_slice());
                    Ok(())
                })
            })
        },
    )?;

    // Restore global probe order (stable: within a left row, leaf
    // emission order is ascending right position already).
    let mut order: Vec<u32> = (0..out.left.len() as u32).collect();
    order.sort_by_key(|&i| out.left[i as usize]);
    out.left = order.iter().map(|&i| out.left[i as usize]).collect();
    out.right = order.iter().map(|&i| out.right[i as usize]).collect();
    assemble(left, right, join_type, out, out_schema, workers)
}

/// Below this many output cells the column gathers run on the calling
/// thread: spawning workers would cost more than the copies.
const PAR_GATHER_MIN_CELLS: usize = 64 * 1024;

/// Build the join's output from the probe's position pairs.
///
/// `out.left`/`out.right` hold *positions* into each side's selection.
/// Each side composes them with `sel.index` once into one index vector
/// of underlying batch rows — [`NULL_INDEX`] where the side is
/// NULL-extended, and the build rows no probe row matched appended for
/// right/full joins — and then every output column is one typed gather
/// of its source column: [`ColumnVector::take`] where the side cannot
/// be NULL-extended, [`ColumnVector::take_or_null`] where it can.
/// `Dict` columns stay `Dict` over the same `Arc` dictionary; a null
/// bitmap exists only where a gathered row is NULL. A side whose index
/// vector is `0..n` over an unselected batch is not gathered at all: the
/// output shares its columns.
///
/// Columns are independent, so they gather in parallel over the join's
/// `workers` with output identical at any count. Semi and anti joins
/// gather nothing: their output is the probe batch's own columns under
/// `left.sel` narrowed to the surviving positions.
fn assemble(
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    out: ProbeOut,
    out_schema: &Schema,
    workers: usize,
) -> Result<SelBatch> {
    if !join_type.keeps_right() {
        let batch = VectorBatch::from_arcs(
            out_schema.clone(),
            left.batch.columns().to_vec(),
            left.batch.num_rows(),
        )?;
        // Positions the probe emitted are in range by construction.
        let sel = left.sel.compose(&out.left);
        return Ok(SelBatch { batch, sel });
    }
    // Unmatched build rows for right/full joins, in build order.
    let mut extra_right: Vec<u32> = Vec::new();
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        let mut matched = vec![false; right.num_rows()];
        for ri in out.matched_right {
            matched[ri as usize] = true;
        }
        extra_right.extend((0..matched.len() as u32).filter(|&ri| !matched[ri as usize]));
    }
    let left_extended = !extra_right.is_empty();
    // Positions → underlying rows, in place (`All` selections are the
    // identity already).
    let compose = |sel: &SelVec, mut pos: Vec<u32>| -> Vec<u32> {
        if let SelVec::Idx(rows) = sel {
            for p in pos.iter_mut().filter(|p| **p != NULL_INDEX) {
                *p = rows[*p as usize];
            }
        }
        pos
    };
    let mut ridx = out.right;
    ridx.extend(extra_right);
    let ridx = compose(&right.sel, ridx);
    let n = ridx.len();
    let mut lidx = compose(&left.sel, out.left);
    lidx.resize(n, NULL_INDEX);

    let right_extended = matches!(join_type, JoinType::Left | JoinType::Full);
    // A join that neither drops, repeats nor reorders a probe row (FK→PK
    // after semijoin reduction): its left output *is* its left input.
    // Read off the positions, so it holds for whatever produced them.
    let left_shared = !left_extended
        && left.sel.is_all()
        && n == left.batch.num_rows()
        && lidx.iter().enumerate().all(|(o, &i)| i as usize == o);
    let lw = left.batch.num_columns();
    let ncols = lw + right.batch.num_columns();
    let gather = |ci: usize| -> Result<Arc<ColumnVector>> {
        if ci < lw && left_shared {
            return Ok(left.batch.column_arc(ci).clone());
        }
        let (src, idx, extended) = if ci < lw {
            (left.batch.column(ci), &lidx, left_extended)
        } else {
            (right.batch.column(ci - lw), &ridx, right_extended)
        };
        Ok(Arc::new(if extended {
            src.take_or_null(idx)
        } else {
            src.take(idx)
        }))
    };
    let workers = if n.saturating_mul(ncols) < PAR_GATHER_MIN_CELLS {
        1
    } else {
        workers
    };
    let cols = crate::par::parallel_map(workers, ncols, gather)?;
    Ok(SelBatch::from_batch(VectorBatch::from_arcs(
        out_schema.clone(),
        cols,
        n,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{BitSet, DataType, Field, Row};
    use std::collections::{HashMap, HashSet};

    /// [`execute_join_parts`] over one probe part, assembled.
    #[allow(clippy::too_many_arguments)]
    fn join_one(
        left: &SelBatch,
        right: &SelBatch,
        join_type: JoinType,
        equi: &[(ScalarExpr, ScalarExpr)],
        residual: &Option<ScalarExpr>,
        out_schema: &Schema,
        build_row_budget: usize,
        workers: usize,
        spill: Option<&SpillCtx<'_>>,
        pir: Option<&mut crate::pir::PirCounters>,
    ) -> Result<SelBatch> {
        let (parts, _) = execute_join_parts(
            std::slice::from_ref(left),
            right,
            join_type,
            equi,
            residual,
            out_schema,
            build_row_budget,
            workers,
            spill,
            pir,
        )?;
        crate::engine::assemble(parts)
    }

    fn batch(name: &str, rows: &[(Option<i32>, &str)]) -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new(format!("{name}_k"), DataType::Int),
            Field::new(format!("{name}_v"), DataType::String),
        ]);
        let rows: Vec<Row> = rows
            .iter()
            .map(|(k, v)| {
                Row::new(vec![
                    k.map(Value::Int).unwrap_or(Value::Null),
                    Value::String((*v).into()),
                ])
            })
            .collect();
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    fn join(l: &VectorBatch, r: &VectorBatch, jt: JoinType) -> Vec<String> {
        let out_schema = if jt.keeps_right() {
            l.schema().join(r.schema())
        } else {
            l.schema().clone()
        };
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let out = execute_join(l, r, jt, &equi, &None, &out_schema, 1_000_000).unwrap();
        let mut rows: Vec<String> = out.to_rows().iter().map(|r| r.to_string()).collect();
        rows.sort();
        rows
    }

    /// The route column of a join's profile: a unique dense key is
    /// addressed directly, keys scattered over `i32` hash, and a join
    /// without keys indexes nothing. Every route joins the same rows.
    #[test]
    fn profile_records_the_route() {
        let route = |build_keys: &[i32], equi: Vec<(ScalarExpr, ScalarExpr)>| {
            let rows: Vec<(Option<i32>, &str)> =
                build_keys.iter().map(|&k| (Some(k), "r")).collect();
            let r = batch("r", &rows);
            let l = batch(
                "l",
                &[(Some(build_keys[0]), "a"), (Some(3), "b"), (None, "n")],
            );
            let schema = l.schema().join(r.schema());
            let (out, profile) = execute_join_parts(
                &[SelBatch::from_batch(l)],
                &SelBatch::from_batch(r),
                JoinType::Inner,
                &equi,
                &None,
                &schema,
                1_000_000,
                1,
                None,
                None,
            )
            .unwrap();
            (profile.route(), out[0].num_rows())
        };
        let on_key = || vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        assert_eq!(route(&[5, 3, 4], on_key()), ("dense/assembled/1".into(), 2));
        // Duplicate keys, and a key of two INT columns, are dense too.
        assert_eq!(route(&[5, 3, 5], on_key()), ("dense/assembled/1".into(), 3));
        let two_cols = || [on_key(), on_key()].concat();
        assert_eq!(
            route(&[5, 3, 4], two_cols()),
            ("dense/assembled/1".into(), 2)
        );
        let scattered = [i32::MIN + 7, 3, i32::MAX - 1];
        assert_eq!(
            route(&scattered, on_key()),
            ("hashed/assembled/1".into(), 2)
        );
        assert_eq!(route(&[5, 3, 4], vec![]), ("keyless/assembled/1".into(), 9));
    }

    #[test]
    fn inner_join() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b"), (None, "n")]);
        let r = batch(
            "r",
            &[(Some(2), "x"), (Some(2), "y"), (Some(3), "z"), (None, "rn")],
        );
        assert_eq!(
            join(&l, &r, JoinType::Inner),
            vec!["2\tb\t2\tx", "2\tb\t2\ty"]
        );
    }

    #[test]
    fn left_join_null_extends() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b")]);
        let r = batch("r", &[(Some(2), "x")]);
        assert_eq!(
            join(&l, &r, JoinType::Left),
            vec!["1\ta\tNULL\tNULL", "2\tb\t2\tx"]
        );
    }

    #[test]
    fn right_and_full_joins() {
        let l = batch("l", &[(Some(1), "a")]);
        let r = batch("r", &[(Some(1), "x"), (Some(9), "y")]);
        assert_eq!(
            join(&l, &r, JoinType::Right),
            vec!["1\ta\t1\tx", "NULL\tNULL\t9\ty"]
        );
        let l2 = batch("l", &[(Some(1), "a"), (Some(5), "only-left")]);
        assert_eq!(
            join(&l2, &r, JoinType::Full),
            vec!["1\ta\t1\tx", "5\tonly-left\tNULL\tNULL", "NULL\tNULL\t9\ty"]
        );
    }

    #[test]
    fn semi_and_anti() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b"), (None, "n")]);
        let r = batch("r", &[(Some(2), "x"), (Some(2), "x2")]);
        assert_eq!(join(&l, &r, JoinType::Semi), vec!["2\tb"]);
        // NULL keys never match: the NULL row lands in anti output
        // (Hive's NOT IN caveat documented in DESIGN.md).
        assert_eq!(join(&l, &r, JoinType::Anti), vec!["1\ta", "NULL\tn"]);
    }

    #[test]
    fn residual_predicate() {
        let l = batch("l", &[(Some(1), "keep"), (Some(1), "drop")]);
        let r = batch("r", &[(Some(1), "keep")]);
        let out_schema = l.schema().join(r.schema());
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        // residual: l_v = r_v (cols 1 and 3 of the combined row).
        let residual = Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(3)));
        let out = execute_join(
            &l,
            &r,
            JoinType::Inner,
            &equi,
            &residual,
            &out_schema,
            1_000_000,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0).get(1), &Value::String("keep".into()));
    }

    #[test]
    fn budget_exceeded_is_retryable() {
        let l = batch("l", &[(Some(1), "a")]);
        let r = batch("r", &[(Some(1), "x"), (Some(2), "y"), (Some(3), "z")]);
        let out_schema = l.schema().join(r.schema());
        let err = execute_join(
            &l,
            &r,
            JoinType::Inner,
            &[(ScalarExpr::Column(0), ScalarExpr::Column(0))],
            &None,
            &out_schema,
            2,
        )
        .unwrap_err();
        // No spill context: the typed memory error downgrades to the
        // retryable form that feeds re-optimization, carrying the
        // broker diagnosis in its message.
        assert!(err.is_retryable());
        assert!(
            err.to_string().contains("MEMORY_EXCEEDED"),
            "expected the typed memory diagnosis, got: {err}"
        );
    }

    #[test]
    fn spill_disabled_with_budget_downgrades_to_retryable() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        let l = big_batch("l", 2_000, 100);
        let r = big_batch("r", 2_000, 100);
        let out_schema = l.schema().join(r.schema());
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let fs = DistFs::new();
        let broker = MemoryBroker::with_budget(8 * 1024);
        let ops = AtomicU64::new(0);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, false, &ops);
        let err = join_one(
            &SelBatch::from_batch(l),
            &SelBatch::from_batch(r),
            JoinType::Inner,
            &equi,
            &None,
            &out_schema,
            usize::MAX,
            1,
            Some(&sp),
            None,
        )
        .unwrap_err();
        assert!(err.is_retryable());
        assert!(err.to_string().contains("MEMORY_EXCEEDED"), "{err}");
    }

    #[test]
    fn grace_join_is_byte_identical_and_spills() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        let l = big_batch("l", 9_000, 500);
        let r = big_batch("r", 3_000, 500);
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        for jt in ALL_JOIN_TYPES {
            let out_schema = schema_of(&l, &r, jt);
            let lsb = SelBatch::from_batch(l.clone());
            let rsb = SelBatch::from_batch(r.clone());
            let (want, _) = reference_join(&lsb, &rsb, jt, None, &out_schema);
            let fs = DistFs::new();
            // A few KB: far below the build estimate, so the grace
            // path must engage and recurse at least one level.
            let broker = MemoryBroker::with_budget(16 * 1024);
            let ops = AtomicU64::new(0);
            let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
            let out = join_one(
                &lsb,
                &rsb,
                jt,
                &equi,
                &None,
                &out_schema,
                1_000_000,
                1,
                Some(&sp),
                None,
            )
            .unwrap();
            assert_eq!(out.compact(), want, "{jt:?} grace diverged");
            assert!(
                sp.stats.bytes_written() > 0,
                "{jt:?} grace run never spilled"
            );
            assert!(sp.stats.bytes_read() > 0, "partitions were read back");
            assert!(
                fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                    .is_empty(),
                "spill files all deleted after the join"
            );
            assert!(broker.denials() > 0);
            assert_eq!(broker.reserved(), 0, "all grants released");
        }
    }

    #[test]
    fn cross_join_without_keys() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b")]);
        let r = batch("r", &[(Some(9), "x")]);
        let out_schema = l.schema().join(r.schema());
        let out =
            execute_join(&l, &r, JoinType::Cross, &[], &None, &out_schema, 1_000_000).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    fn big_batch(name: &str, n: usize, key_mod: i32) -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new(format!("{name}_k"), DataType::Int),
            Field::new(format!("{name}_v"), DataType::String),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let k = if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Int((i as i32).wrapping_mul(31).wrapping_add(7) % key_mod)
                };
                Row::new(vec![k, Value::String(format!("v{i}"))])
            })
            .collect();
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    #[test]
    fn parallel_join_is_byte_identical_for_every_join_type() {
        let l = big_batch("l", 9_000, 500);
        let r = big_batch("r", 3_000, 500);
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        for jt in ALL_JOIN_TYPES {
            let out_schema = schema_of(&l, &r, jt);
            let lsb = SelBatch::from_batch(l.clone());
            let rsb = SelBatch::from_batch(r.clone());
            // Every worker count must reproduce the `Value` reference
            // byte for byte.
            let (want, _) = reference_join(&lsb, &rsb, jt, None, &out_schema);
            assert!(want.num_rows() > 0, "{jt:?} produced no rows");
            for workers in [1, 2, 8] {
                let out = join_one(
                    &lsb,
                    &rsb,
                    jt,
                    &equi,
                    &None,
                    &out_schema,
                    1_000_000,
                    workers,
                    None,
                    None,
                )
                .unwrap();
                assert_eq!(
                    out.compact(),
                    want,
                    "{jt:?} with {workers} workers diverged"
                );
            }
        }
    }

    #[test]
    fn dict_join_keys_miss_entries_absent_from_the_build_dictionary() {
        // dict×dict joins key on right-side codes; dict-only-left
        // entries must miss. Columns are built as real dictionary
        // vectors so the `Codes` codec engages.
        let mk = |codes: Vec<u32>, dict: &[&str]| {
            let schema = Schema::new(vec![Field::new("k", DataType::String)]);
            let dict = Arc::new(dict.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            let col = ColumnVector::dict_from_codes(codes, dict, None).unwrap();
            let n = col.len();
            VectorBatch::new_with_rows(schema, vec![col], n).unwrap()
        };
        // l: a b c a zz — "c"/"zz" absent from the right dictionary.
        let l = mk(vec![0, 1, 2, 0, 3], &["a", "b", "c", "zz"]);
        let r = mk(vec![0, 1, 0], &["b", "a"]);
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let out_schema = l.schema().join(r.schema());
        let lsb = SelBatch::from_batch(l);
        let rsb = SelBatch::from_batch(r);
        let out = join_one(
            &lsb,
            &rsb,
            JoinType::Left,
            &equi,
            &None,
            &out_schema,
            1_000_000,
            1,
            None,
            None,
        )
        .unwrap()
        .compact();
        let (want, _) = reference_join(&lsb, &rsb, JoinType::Left, None, &out_schema);
        assert_eq!(out, want);
        let rows: Vec<String> = out.to_rows().iter().map(|row| row.to_string()).collect();
        assert!(rows.contains(&"zz\tNULL".to_string()), "{rows:?}");
    }

    // --- columnar output vs the per-cell path it replaced ------------------

    fn strings(entries: &[&str]) -> Arc<Vec<String>> {
        Arc::new(entries.iter().map(|s| s.to_string()).collect())
    }

    /// A batch with one column of every type behind an `Int` key (NULL
    /// every 17th row), each payload with its own NULL cadence. With
    /// `dict` the string payload is dictionary-encoded over that `Arc`.
    fn typed_batch(
        name: &str,
        n: usize,
        key: impl Fn(i32) -> i32,
        dict: Option<&Arc<Vec<String>>>,
    ) -> VectorBatch {
        let f = |c: &str, dt: DataType| Field::new(format!("{name}_{c}"), dt);
        let schema = Schema::new(vec![
            f("k", DataType::Int),
            f("s", DataType::String),
            f("b", DataType::Boolean),
            f("i", DataType::Int),
            f("l", DataType::BigInt),
            f("d", DataType::Double),
            f("m", DataType::Decimal(9, 2)),
            f("dt", DataType::Date),
            f("ts", DataType::Timestamp),
        ]);
        let words = strings(&["red", "green", "blue", "green", "teal"]);
        let words = dict.unwrap_or(&words);
        let code = |i: usize| (i * 7 + 3) % words.len();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let x = i as i64;
                let or_null = |every: usize, v: Value| if i % every == 0 { Value::Null } else { v };
                Row::new(vec![
                    or_null(17, Value::Int(key(i as i32))),
                    or_null(11, Value::String(words[code(i)].clone())),
                    or_null(5, Value::Boolean(i % 3 == 0)),
                    or_null(7, Value::Int(i as i32 * 3 - 40)),
                    or_null(13, Value::BigInt(x * 1_000_003)),
                    or_null(19, Value::Double(x as f64 / 7.0)),
                    or_null(23, Value::Decimal(x as i128 * 101 - 5_000, 2)),
                    or_null(29, Value::Date(18_000 + i as i32 % 400)),
                    or_null(31, Value::Timestamp(x * 86_400_000_123)),
                ])
            })
            .collect();
        let plain = VectorBatch::from_rows(&schema, &rows).unwrap();
        let Some(dict) = dict else { return plain };
        let mut nulls = BitSet::new(n);
        let codes: Vec<u32> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    nulls.set(i);
                    0
                } else {
                    code(i) as u32
                }
            })
            .collect();
        let encoded = ColumnVector::dict_from_codes(codes, dict.clone(), Some(nulls)).unwrap();
        let mut cols: Vec<Arc<ColumnVector>> = plain.columns().to_vec();
        cols[1] = Arc::new(encoded);
        VectorBatch::from_arcs(schema, cols, n).unwrap()
    }

    /// The oracle: the join computed one `Value` at a time over the
    /// selected rows, equi key in column 0 of both sides. Returns the
    /// output batch and the number of candidate pairs the residual saw.
    fn reference_join(
        l: &SelBatch,
        r: &SelBatch,
        jt: JoinType,
        residual: Option<&ScalarExpr>,
        out_schema: &Schema,
    ) -> (VectorBatch, u64) {
        let lrows: Vec<Row> = l.sel.iter().map(|i| l.batch.row(i)).collect();
        let rrows: Vec<Row> = r.sel.iter().map(|i| r.batch.row(i)).collect();
        let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
        for (ri, row) in rrows.iter().enumerate() {
            if !row.get(0).is_null() {
                table.entry(row.get(0).clone()).or_default().push(ri);
            }
        }
        let nulls = |w: usize| vec![Value::Null; w];
        let (lw, rw) = (l.batch.num_columns(), r.batch.num_columns());
        let mut pairs = 0u64;
        let mut matched = vec![false; rrows.len()];
        let mut out: Vec<Row> = Vec::new();
        for lrow in &lrows {
            let mut kept: Vec<usize> = Vec::new();
            for &ri in table.get(lrow.get(0)).map_or(&[][..], |c| c.as_slice()) {
                let mut both = lrow.values().to_vec();
                both.extend_from_slice(rrows[ri].values());
                let ok = match residual {
                    None => true,
                    Some(pred) => {
                        pairs += 1;
                        eval_scalar(pred, &both).unwrap() == Value::Boolean(true)
                    }
                };
                if ok {
                    kept.push(ri);
                }
            }
            let joined = |ri: usize| {
                let mut both = lrow.values().to_vec();
                both.extend_from_slice(rrows[ri].values());
                Row::new(both)
            };
            let unmatched = || {
                let mut both = lrow.values().to_vec();
                both.extend(nulls(rw));
                Row::new(both)
            };
            match jt {
                JoinType::Semi if !kept.is_empty() => out.push(lrow.clone()),
                JoinType::Anti if kept.is_empty() => out.push(lrow.clone()),
                JoinType::Semi | JoinType::Anti => {}
                _ => {
                    for &ri in &kept {
                        matched[ri] = true;
                        out.push(joined(ri));
                    }
                    if kept.is_empty() && matches!(jt, JoinType::Left | JoinType::Full) {
                        out.push(unmatched());
                    }
                }
            }
        }
        if matches!(jt, JoinType::Right | JoinType::Full) {
            for (row, _) in rrows.iter().zip(&matched).filter(|(_, m)| !**m) {
                let mut both = nulls(lw);
                both.extend_from_slice(row.values());
                out.push(Row::new(both));
            }
        }
        (VectorBatch::from_rows(out_schema, &out).unwrap(), pairs)
    }

    const ALL_JOIN_TYPES: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
        JoinType::Semi,
        JoinType::Anti,
    ];

    fn schema_of(l: &VectorBatch, r: &VectorBatch, jt: JoinType) -> Schema {
        if jt.keeps_right() {
            l.schema().join(r.schema())
        } else {
            l.schema().clone()
        }
    }

    /// Every other row, back to front: a stacked, non-ascending `Idx`.
    fn stacked(b: &VectorBatch) -> SelBatch {
        let idx: Vec<u32> = (0..b.num_rows() as u32).rev().step_by(2).collect();
        SelBatch::new(b.clone(), SelVec::Idx(idx)).unwrap()
    }

    #[test]
    fn columnar_output_equals_the_value_reference() {
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        for encoded in [false, true] {
            // Different dictionaries per side, as two tables have.
            let ldict = strings(&["ash", "birch", "cedar", "birch", "elm", "fir"]);
            let rdict = strings(&["xenon", "argon", "neon"]);
            let (ld, rd) = (encoded.then_some(&ldict), encoded.then_some(&rdict));
            // Keys overlap on 100..500 only, so both sides have
            // unmatched rows for the outer joins to NULL-extend.
            let l = typed_batch("l", 5_000, |i| (i * 31 + 7) % 500, ld);
            let r = typed_batch("r", 1_500, |i| 100 + (i * 13) % 450, rd);
            let empty_l = typed_batch("l", 0, |i| i, ld);
            let empty_r = typed_batch("r", 0, |i| i, rd);
            let inputs = [
                (
                    "full",
                    SelBatch::from_batch(l.clone()),
                    SelBatch::from_batch(r.clone()),
                ),
                (
                    "empty build",
                    SelBatch::from_batch(l.clone()),
                    SelBatch::from_batch(empty_r),
                ),
                (
                    "empty probe",
                    SelBatch::from_batch(empty_l),
                    SelBatch::from_batch(r.clone()),
                ),
                ("stacked selections", stacked(&l), stacked(&r)),
            ];
            for (what, lsb, rsb) in &inputs {
                for jt in ALL_JOIN_TYPES {
                    let out_schema = schema_of(&lsb.batch, &rsb.batch, jt);
                    let (want, _) = reference_join(lsb, rsb, jt, None, &out_schema);
                    for workers in [1, 2, 8] {
                        let out = join_one(
                            lsb,
                            rsb,
                            jt,
                            &equi,
                            &None,
                            &out_schema,
                            usize::MAX,
                            workers,
                            None,
                            None,
                        )
                        .unwrap();
                        let ctx = format!("{jt:?} / {what} / {workers} workers / dict={encoded}");
                        assert_eq!(out.num_rows(), want.num_rows(), "{ctx}");
                        if jt.keeps_right() {
                            assert!(out.is_compact(), "{ctx}");
                            for (c, src) in lsb
                                .batch
                                .columns()
                                .iter()
                                .chain(rsb.batch.columns())
                                .enumerate()
                            {
                                let got = out.batch.column(c);
                                // Same representation as the source —
                                // an encoded payload keeps its dictionary
                                // by handle — except a plain string column
                                // the join fans out (two cells a row, or
                                // more), which leaves encoded.
                                let fanned = matches!(**src, ColumnVector::Str(..))
                                    && out.num_rows() >= 2 * src.len()
                                    && src.null_count() < src.len();
                                match (src.dict_parts(), got.dict_parts()) {
                                    (Some((_, d0, _)), Some((_, d1, _))) => {
                                        assert!(Arc::ptr_eq(d0, d1), "{ctx}: column {c}")
                                    }
                                    (None, got) => {
                                        assert_eq!(got.is_some(), fanned, "{ctx}: column {c}")
                                    }
                                    _ => panic!("{ctx}: column {c} changed representation"),
                                }
                            }
                        } else {
                            // Semi/anti: the probe batch's own columns
                            // under a narrowed selection, no copies.
                            for (c, src) in lsb.batch.columns().iter().enumerate() {
                                assert!(Arc::ptr_eq(src, out.batch.column_arc(c)), "{ctx}");
                            }
                        }
                        assert_eq!(out.compact(), want, "{ctx}");
                    }
                }
            }
            // The fixture does exercise NULL-extension on both sides.
            let out_schema = schema_of(&l, &r, JoinType::Full);
            let (full, _) = reference_join(
                &SelBatch::from_batch(l.clone()),
                &SelBatch::from_batch(r.clone()),
                JoinType::Full,
                None,
                &out_schema,
            );
            let all_null = |row: &Row, cols: std::ops::Range<usize>| {
                cols.into_iter().all(|c| row.get(c).is_null())
            };
            let rows = full.to_rows();
            assert!(rows.iter().any(|row| all_null(row, 0..9)));
            assert!(rows.iter().any(|row| all_null(row, 9..18)));
        }
    }

    // --- replicated strings: a star chain over 3-row dimensions -------------

    /// 300 fact rows: two dimension keys, a unique id, a DECIMAL and a
    /// plain string payload. `ragged` leaves some rows without a
    /// dimension row to match (a NULL key, a key no dimension has).
    fn star_fact(ragged: bool) -> VectorBatch {
        let n = 300usize;
        let keys = |salt: usize| {
            let mut nulls = BitSet::new(n);
            let vals = (0..n)
                .map(|i| {
                    if ragged && i % 17 == 0 {
                        nulls.set(i);
                        0
                    } else if ragged && i % 5 == 0 {
                        3
                    } else {
                        ((i + salt) % 3) as i32
                    }
                })
                .collect();
            ColumnVector::Int(vals, ragged.then_some(nulls))
        };
        VectorBatch::new(
            Schema::new(vec![
                Field::new("f_k1", DataType::Int),
                Field::new("f_k2", DataType::Int),
                Field::new("f_i", DataType::Int),
                Field::new("f_m", DataType::Decimal(9, 2)),
                Field::new("f_s", DataType::String),
            ]),
            vec![
                keys(0),
                keys(1),
                ColumnVector::Int((0..n as i32).collect(), None),
                ColumnVector::Decimal((0..n as i128).map(|i| i * 101 - 5_000).collect(), 2, None),
                ColumnVector::Str((0..n).map(|i| format!("ticket {i}")).collect(), None),
            ],
        )
        .unwrap()
    }

    /// A dimension keyed `0..names.len()` whose plain string column
    /// holds `names` (`None` = NULL).
    fn star_dim(name: &str, names: &[Option<&str>]) -> VectorBatch {
        let rows: Vec<Row> = names
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let name = s.map_or(Value::Null, |s| Value::String(s.into()));
                Row::new(vec![Value::Int(k as i32), name])
            })
            .collect();
        let schema = Schema::new(vec![
            Field::new(format!("{name}_k"), DataType::Int),
            Field::new(format!("{name}_name"), DataType::String),
        ]);
        let dim = VectorBatch::from_rows(&schema, &rows).unwrap();
        assert!(!dim.column(1).is_dict());
        dim
    }

    /// `l ⋈ r` on column 0 = column 0 (no key for a cross join), in
    /// memory or — under a broker that cannot hold the build — grace.
    fn star_join(
        l: &SelBatch,
        r: &SelBatch,
        jt: JoinType,
        residual: &Option<ScalarExpr>,
        workers: usize,
        grace: bool,
    ) -> SelBatch {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        let equi = match jt {
            JoinType::Cross => vec![],
            _ => vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))],
        };
        let out_schema = l.batch.schema().join(r.batch.schema());
        let fs = DistFs::new();
        let broker = MemoryBroker::with_budget(64);
        let ops = AtomicU64::new(0);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
        join_one(
            l,
            r,
            jt,
            &equi,
            residual,
            &out_schema,
            usize::MAX,
            workers,
            grace.then_some(&sp),
            None,
        )
        .unwrap()
    }

    /// [`reference_join`], and the nested loop for a cross join.
    fn star_reference(
        l: &SelBatch,
        r: &SelBatch,
        jt: JoinType,
        residual: Option<&ScalarExpr>,
    ) -> VectorBatch {
        let out_schema = l.batch.schema().join(r.batch.schema());
        if jt != JoinType::Cross {
            return reference_join(l, r, jt, residual, &out_schema).0;
        }
        let mut out: Vec<Row> = Vec::new();
        for li in l.sel.iter() {
            for ri in r.sel.iter() {
                let mut both = l.batch.row(li).values().to_vec();
                both.extend_from_slice(r.batch.row(ri).values());
                if residual.is_none_or(|p| eval_scalar(p, &both).unwrap() == Value::Boolean(true)) {
                    out.push(Row::new(both));
                }
            }
        }
        VectorBatch::from_rows(&out_schema, &out).unwrap()
    }

    /// True when `out`'s first columns are `input`'s very allocations.
    fn shares_left(out: &SelBatch, input: &VectorBatch) -> bool {
        (input.columns().iter().enumerate())
            .all(|(c, src)| Arc::ptr_eq(src, out.batch.column_arc(c)))
    }

    fn assert_well_formed_dict(col: &ColumnVector, ctx: &str) {
        let (codes, dict, _) = col
            .dict_parts()
            .unwrap_or_else(|| panic!("{ctx}: a replicated string column left plain"));
        let distinct: HashSet<&String> = dict.iter().collect();
        assert_eq!(distinct.len(), dict.len(), "{ctx}: duplicate entries");
        assert!(codes.iter().all(|&c| (c as usize) < dict.len()), "{ctx}");
    }

    #[test]
    fn star_chain_keeps_dimension_strings_encoded_and_shares_a_one_to_one_probe() {
        // Equal names on purpose: the dictionary has one entry for both.
        let stores = star_dim("s", &[Some("ese"), Some("able"), Some("ese")]);
        let channels = star_dim("c", &[Some("web"), None, Some("")]);
        let residual = Some(ScalarExpr::Binary {
            op: hive_sql::BinaryOp::Gt,
            left: Box::new(ScalarExpr::Column(2)), // f_i, in both links
            right: Box::new(ScalarExpr::Literal(Value::Int(40))),
        });
        let join_types = [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Cross,
        ];
        let mut shared_links = 0;
        for ragged in [false, true] {
            let fact = star_fact(ragged);
            for jt in join_types {
                for residual in [&None, &residual] {
                    for (grace, workers) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
                        let ctx = format!(
                            "{jt:?} / ragged={ragged} / residual={} / grace={grace} / {workers} workers",
                            residual.is_some()
                        );
                        // Link 1: fact ⋈ stores on f_k1.
                        let l1 = SelBatch::from_batch(fact.clone());
                        let r1 = SelBatch::from_batch(stores.clone());
                        let out1 = star_join(&l1, &r1, jt, residual, workers, grace);
                        let want1 = star_reference(&l1, &r1, jt, residual.as_ref());
                        assert_eq!(out1.clone().compact(), want1, "{ctx}: link 1");
                        assert!(out1.num_rows() >= 2 * stores.num_rows(), "{ctx}");
                        assert_well_formed_dict(out1.batch.column(6), &ctx);

                        // The probe side is shared exactly when the join
                        // returned it row for row.
                        let lw = fact.num_columns();
                        let row_for_row = want1.num_rows() == fact.num_rows()
                            && want1.project(&(0..lw).collect::<Vec<_>>()).to_rows()
                                == fact.to_rows();
                        assert_eq!(shares_left(&out1, &fact), row_for_row, "{ctx}: link 1");
                        shared_links += row_for_row as usize;

                        // Link 2: that output, keyed by f_k2, ⋈ channels.
                        let mut order: Vec<usize> = (0..out1.batch.num_columns()).collect();
                        order.swap(0, 1);
                        let l2 = SelBatch::from_batch(out1.compact().project(&order));
                        let r2 = SelBatch::from_batch(channels.clone());
                        let out2 = star_join(&l2, &r2, jt, residual, workers, grace);
                        let want2 = star_reference(&l2, &r2, jt, residual.as_ref());
                        assert_eq!(out2.clone().compact(), want2, "{ctx}: link 2");
                        assert_well_formed_dict(out2.batch.column(8), &ctx);
                        // The store name rides through by handle: the
                        // column itself, or new codes over its dictionary.
                        let (_, d1, _) = l2.batch.column(6).dict_parts().unwrap();
                        let (_, d2, _) = out2.batch.column(6).dict_parts().unwrap();
                        assert!(Arc::ptr_eq(d1, d2), "{ctx}: store names re-encoded");
                    }
                }
            }
        }
        assert!(shared_links > 0);

        // By name: FK→PK inner and left joins share; one probe row
        // dropped or matched twice, or a selection on the probe, copy.
        let fact = star_fact(false);
        let (l, r) = (
            SelBatch::from_batch(fact.clone()),
            SelBatch::from_batch(stores.clone()),
        );
        for jt in [JoinType::Inner, JoinType::Left] {
            assert!(
                shares_left(&star_join(&l, &r, jt, &None, 2, false), &fact),
                "{jt:?}"
            );
        }
        let left_ragged = star_fact(true);
        let lr = SelBatch::from_batch(left_ragged.clone());
        let out = star_join(&lr, &r, JoinType::Left, &None, 1, false);
        assert!(shares_left(&out, &left_ragged)); // unmatched rows NULL-extend in place
        assert!(!shares_left(
            &star_join(&lr, &r, JoinType::Inner, &None, 1, false),
            &left_ragged
        ));

        let with_key = |row: usize, k: i32| {
            let mut cols = fact.columns().to_vec();
            let ColumnVector::Int(mut keys, nulls) = (*cols[0]).clone() else {
                unreachable!()
            };
            keys[row] = k;
            cols[0] = Arc::new(ColumnVector::Int(keys, nulls));
            VectorBatch::from_arcs(fact.schema().clone(), cols, fact.num_rows()).unwrap()
        };
        let drops_one = with_key(150, 7);
        let out = star_join(
            &SelBatch::from_batch(drops_one.clone()),
            &r,
            JoinType::Inner,
            &None,
            1,
            false,
        );
        assert_eq!(out.num_rows(), 299);
        assert!(!shares_left(&out, &drops_one));
        // Store 3 is listed twice; exactly one fact row asks for it.
        let twice = star_dim("s", &[Some("ese"), Some("able"), Some("ese"), Some("anti")])
            .take(&[0, 1, 2, 3, 3]);
        let repeats_one = with_key(150, 3);
        let out = star_join(
            &SelBatch::from_batch(repeats_one.clone()),
            &SelBatch::from_batch(twice),
            JoinType::Inner,
            &None,
            1,
            false,
        );
        assert_eq!(out.num_rows(), 301);
        assert!(!shares_left(&out, &repeats_one));
        let all_but_last: Vec<u32> = (0..299).collect();
        let narrowed = SelBatch::new(fact.clone(), SelVec::Idx(all_but_last)).unwrap();
        assert!(!shares_left(
            &star_join(&narrowed, &r, JoinType::Inner, &None, 1, false),
            &fact
        ));
    }

    #[test]
    fn grace_join_output_equals_the_value_reference() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let ldict = strings(&["ash", "birch", "cedar"]);
        let rdict = strings(&["xenon", "argon"]);
        for encoded in [false, true] {
            let (ld, rd) = (encoded.then_some(&ldict), encoded.then_some(&rdict));
            let l = typed_batch("l", 5_000, |i| (i * 31 + 7) % 500, ld);
            // Even the halved (stacked) build side models past the budget.
            let r = typed_batch("r", 3_000, |i| 100 + (i * 13) % 450, rd);
            for (lsb, rsb) in [
                (
                    SelBatch::from_batch(l.clone()),
                    SelBatch::from_batch(r.clone()),
                ),
                (stacked(&l), stacked(&r)),
            ] {
                for jt in ALL_JOIN_TYPES {
                    let out_schema = schema_of(&l, &r, jt);
                    let (want, _) = reference_join(&lsb, &rsb, jt, None, &out_schema);
                    for workers in [1, 8] {
                        let fs = DistFs::new();
                        let broker = MemoryBroker::with_budget(32 * 1024);
                        let ops = AtomicU64::new(0);
                        let sp =
                            SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
                        let out = join_one(
                            &lsb,
                            &rsb,
                            jt,
                            &equi,
                            &None,
                            &out_schema,
                            usize::MAX,
                            workers,
                            Some(&sp),
                            None,
                        )
                        .unwrap();
                        assert!(sp.stats.bytes_written() > 0, "{jt:?} never spilled");
                        assert_eq!(
                            out.compact(),
                            want,
                            "{jt:?} grace / {workers} workers / dict={encoded}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interpreted_residual_reads_only_referenced_columns() {
        // `l_i + r_i > 40` has no compiled kernel (arithmetic under the
        // comparison), so every candidate pair takes the row fallback —
        // over a 12-column pair of which it needs two.
        let six: Vec<usize> = (0..6).collect();
        let l = typed_batch("l", 3_000, |i| (i * 31 + 7) % 300, None).project(&six);
        let r = typed_batch("r", 900, |i| (i * 13) % 300, None).project(&six);
        let residual = ScalarExpr::Binary {
            op: hive_sql::BinaryOp::Gt,
            left: Box::new(ScalarExpr::Binary {
                op: hive_sql::BinaryOp::Plus,
                left: Box::new(ScalarExpr::Column(3)),
                right: Box::new(ScalarExpr::Column(6 + 3)),
            }),
            right: Box::new(ScalarExpr::Literal(Value::Int(40))),
        };
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let (lsb, rsb) = (SelBatch::from_batch(l.clone()), stacked(&r));
        for jt in ALL_JOIN_TYPES {
            let out_schema = schema_of(&l, &r, jt);
            let (want, pairs) = reference_join(&lsb, &rsb, jt, Some(&residual), &out_schema);
            assert!(pairs > 0);
            for workers in [1, 8] {
                let mut pc = crate::pir::PirCounters::default();
                let out = join_one(
                    &lsb,
                    &rsb,
                    jt,
                    &equi,
                    &Some(residual.clone()),
                    &out_schema,
                    usize::MAX,
                    workers,
                    None,
                    Some(&mut pc),
                )
                .unwrap();
                assert_eq!(out.compact(), want, "{jt:?} / {workers} workers");
                assert_eq!((pc.compiled_stages, pc.fallback_rows), (0, pairs), "{jt:?}");
            }
        }
    }
}
