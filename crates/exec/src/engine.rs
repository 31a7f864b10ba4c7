//! The execution engine: materializing operator evaluation over the
//! optimized logical plan, with per-node tracing feeding the simulated
//! cluster time model.

use crate::aggregate::execute_aggregate_parts;
use crate::join::execute_join_parts;
use crate::kernels::{eval_rowmode, eval_vector, filter_indices_rowmode};
use crate::keys::{column_refs, Grouper, KeySide};
use crate::membroker::MemoryBroker;
use crate::scan::execute_scan;
use crate::spill::SpillCtx;
use crate::window::execute_window;
use hive_common::{
    ColumnVector, HiveConf, HiveError, Result, Row, SelBatch, SelVec, Value, VectorBatch,
};
use hive_dfs::{DfsPath, DistFs};
use hive_metastore::{Metastore, ValidWriteIdList};
use hive_optimizer::fingerprint::fingerprint;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{ScalarExpr, SortKey};
use hive_sql::SetOperator;
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-table snapshot provider (the driver owns transaction state).
pub trait SnapshotProvider: Sync {
    /// The ValidWriteIdList a scan of `table` must honor.
    fn write_ids(&self, table: &str) -> ValidWriteIdList;
}

/// Wide-open snapshots (tests, compaction, external-only queries).
pub struct WideOpenSnapshots<'a>(pub &'a Metastore);

impl SnapshotProvider for WideOpenSnapshots<'_> {
    fn write_ids(&self, table: &str) -> ValidWriteIdList {
        ValidWriteIdList::wide_open(table, self.0.table_write_hwm(table))
    }
}

/// Result of a federated scan: the rows plus the external system's own
/// simulated latency contribution.
pub struct ExternalScanResult {
    pub batch: VectorBatch,
    pub external_ms: f64,
    /// Whether a pushed-down query answered the scan (vs full export).
    pub pushed: bool,
}

/// Federation hook (implemented by `hive-federation`, wired by the
/// driver) — exec stays independent of concrete storage handlers.
pub trait ExternalScanner: Sync {
    /// Scan an external (storage-handler) table.
    fn scan(
        &self,
        table: &hive_optimizer::ScanTable,
        projection: &[usize],
        filters: &[ScalarExpr],
    ) -> Result<ExternalScanResult>;
}

/// Everything execution needs from its environment.
pub struct ExecContext<'a> {
    pub fs: &'a DistFs,
    pub ms: &'a Metastore,
    pub conf: &'a HiveConf,
    pub llap: Option<&'a hive_llap::LlapDaemons>,
    pub snapshots: &'a dyn SnapshotProvider,
    pub external: Option<&'a dyn ExternalScanner>,
    /// Shared-work result cache (§4.5): fingerprints of subplans that
    /// occur more than once, filled as they first execute, each with the
    /// batches its other sites read.
    shared: Mutex<HashMap<u64, Arc<[VectorBatch]>>>,
    shared_counts: HashMap<u64, usize>,
    /// Per-query fault-recovery charges (transient-read retries happen
    /// deep in the scan path where no trace node is at hand; scans
    /// snapshot this before/after their reads). Atomic so parallel
    /// morsel workers can charge retries without serializing on a lock;
    /// the backoff total is fixed-point microseconds because integer
    /// addition is associative — the sum is identical under any thread
    /// interleaving, which keeps `HIVE_FAULT_SEED` replay exact.
    charges_retries: AtomicU64,
    charges_backoff_micros: AtomicU64,
    /// Spill environment (`hive.exec.spill.enabled` + the per-query
    /// memory budget scaled by the admission pool fraction). `None`
    /// when the budget is unlimited — blocking operators then take the
    /// legacy in-memory path byte-for-byte, with zero broker traffic.
    spill: Option<SpillConfig>,
    /// Query-wide spill file sequence. Blocking operators execute
    /// sequentially (children materialize before parents), so the
    /// sequence — and with it every spill path — is deterministic and
    /// independent of the morsel worker count.
    spill_ops: AtomicU64,
    /// §4.2 cardinality guard: optimizer estimates for every Join
    /// subtree, armed by the driver on the first (guarded) execution
    /// attempt. `None` on retries and non-guarded paths.
    card_guard: Option<CardGuard>,
}

/// The driver's armed cardinality estimates: join-subtree fingerprint →
/// (estimated output rows, the sorted base-table feedback key). Joins
/// materialize bottom-up and sequentially, so the first operator whose
/// observed output exceeds 10× its estimate raises
/// [`HiveError::CardinalityMisestimate`] — at most once per query
/// (`tripped` latches), and only for outputs large enough that a
/// re-plan can pay for itself.
pub struct CardGuard {
    /// fingerprint(join subtree) → (estimated rows, feedback table key).
    pub estimates: HashMap<u64, (u64, String)>,
    tripped: AtomicBool,
}

/// Observed must exceed 10× the estimate (§4.2 "significantly
/// different statistics")...
const CARD_GUARD_FACTOR: u64 = 10;
/// ...and be at least this large: re-planning a query whose worst join
/// produced a few thousand rows costs more than it saves.
const CARD_GUARD_MIN_ROWS: u64 = 10_000;

impl CardGuard {
    /// Build a guard over the driver's per-join estimates.
    pub fn new(estimates: HashMap<u64, (u64, String)>) -> Self {
        CardGuard {
            estimates,
            tripped: AtomicBool::new(false),
        }
    }

    /// Check one join's observed output; returns the typed misestimate
    /// error if this guard fires (first trip only).
    fn check(&self, plan_fp: u64, observed: u64) -> Option<HiveError> {
        let (est, tables) = self.estimates.get(&plan_fp)?;
        if observed < CARD_GUARD_MIN_ROWS || observed <= est.saturating_mul(CARD_GUARD_FACTOR) {
            return None;
        }
        if self.tripped.swap(true, Ordering::Relaxed) {
            return None; // one re-plan per query (bounded ladder)
        }
        Some(HiveError::CardinalityMisestimate {
            operator: "join".to_string(),
            tables: tables.clone(),
            observed,
            estimated: *est,
        })
    }
}

/// The per-query spill environment the driver installs when
/// `hive.exec.memory.per.query.bytes` caps the query.
pub struct SpillConfig {
    /// Scratch directory for this query's spill files (unique per
    /// query so concurrent queries and replays never collide).
    pub dir: DfsPath,
    /// The broker dividing the query budget among live operators.
    pub broker: MemoryBroker,
    /// `hive.exec.spill.enabled` — when false, denied operators keep
    /// their pre-spill degradation (join: retryable error feeding
    /// re-optimization; aggregate/sort: proceed over budget).
    pub enabled: bool,
}

/// Accumulated fault-recovery work for one query: how many transient
/// reads were retried and how much simulated backoff wait they cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCharges {
    pub transient_retries: u64,
    pub backoff_wait_ms: f64,
}

impl ExecContext<'_> {
    /// Is the filter-stripped form of this scan shared by multiple plan
    /// sites?
    pub(crate) fn scan_share_key(&self, plan: &LogicalPlan) -> Option<u64> {
        let key = scan_base_key(plan)?;
        self.shared_counts.contains_key(&key).then_some(key)
    }

    /// Is this subtree a shared-work site (its result materializes
    /// once and is reused by fingerprint)? PIR fusion must not peel
    /// across such a node: it is a pipeline breaker.
    pub(crate) fn is_shared_subtree(&self, plan: &LogicalPlan) -> bool {
        self.shared_site(plan).is_some()
    }

    /// The fingerprint of a shared-work site; `None` for any other
    /// subtree, and without fingerprinting when nothing is shared.
    fn shared_site(&self, plan: &LogicalPlan) -> Option<u64> {
        if self.shared_counts.is_empty() {
            return None;
        }
        let fp = fingerprint(plan);
        self.shared_counts.contains_key(&fp).then_some(fp)
    }

    /// The batches published under a shared-work key, if its first
    /// site already ran: a shared scan's raw morsels, or an exact
    /// subtree's one compacted result.
    pub(crate) fn shared_get(&self, key: u64) -> Option<Arc<[VectorBatch]>> {
        self.shared.lock().get(&key).cloned()
    }

    /// Publish a shared-work site's batches under `key`.
    pub(crate) fn shared_put(&self, key: u64, batches: Arc<[VectorBatch]>) {
        self.shared.lock().insert(key, batches);
    }

    /// Record one transient-read retry and its backoff wait.
    pub(crate) fn charge_retry(&self, backoff_ms: f64) {
        self.charges_retries.fetch_add(1, Ordering::Relaxed);
        self.charges_backoff_micros
            .fetch_add((backoff_ms * 1000.0) as u64, Ordering::Relaxed);
    }

    /// Install the spill environment (driver, when the per-query
    /// memory budget is finite).
    pub fn enable_spill(&mut self, cfg: SpillConfig) {
        self.spill = Some(cfg);
    }

    /// Arm the §4.2 cardinality guard with the driver's per-join
    /// estimates. Retries run with the guard disarmed.
    pub fn arm_card_guard(&mut self, guard: CardGuard) {
        self.card_guard = Some(guard);
    }

    /// A fresh per-operator spill handle (stats start at zero; the
    /// operator's trace folds them in when it finishes). `None` when
    /// the query is unbudgeted.
    pub(crate) fn spill_ctx(&self) -> Option<SpillCtx<'_>> {
        self.spill.as_ref().map(|s| {
            SpillCtx::new(
                self.fs,
                s.dir.clone(),
                &s.broker,
                s.enabled,
                &self.spill_ops,
            )
        })
    }

    /// High-water mark of broker-tracked memory (0 when unbudgeted).
    pub fn spill_peak_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.broker.peak_bytes())
    }

    /// Snapshot of the per-query recovery charges so far.
    pub fn fault_charges(&self) -> FaultCharges {
        FaultCharges {
            transient_retries: self.charges_retries.load(Ordering::Relaxed),
            backoff_wait_ms: self.charges_backoff_micros.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }

    /// Size a morsel worker pool for `items` units of work and (when
    /// LLAP is up) lease matching executor slots so host-thread
    /// parallelism is gated by the live fleet's admission accounting:
    /// a shrunken fleet grants fewer slots, so fewer workers run.
    /// Always returns at least one worker — the query must make
    /// progress even when every slot is busy (fragments queue). The
    /// returned lease (if any) must be held for the parallel section.
    pub(crate) fn lease_workers(&self, items: usize) -> (usize, Option<hive_llap::ExecutorLease>) {
        let want = self.conf.effective_parallel_threads().min(items.max(1));
        if want <= 1 {
            return (1, None);
        }
        match self.llap {
            Some(llap) => {
                let lease = llap.lease_executors(want);
                (lease.granted().max(1), Some(lease))
            }
            None => (want, None),
        }
    }
}

impl<'a> ExecContext<'a> {
    /// Build a context for one query execution.
    pub fn new(
        fs: &'a DistFs,
        ms: &'a Metastore,
        conf: &'a HiveConf,
        llap: Option<&'a hive_llap::LlapDaemons>,
        snapshots: &'a dyn SnapshotProvider,
        external: Option<&'a dyn ExternalScanner>,
    ) -> Self {
        ExecContext {
            fs,
            ms,
            conf,
            llap,
            snapshots,
            external,
            shared: Mutex::new(HashMap::new()),
            shared_counts: HashMap::new(),
            charges_retries: AtomicU64::new(0),
            charges_backoff_micros: AtomicU64::new(0),
            spill: None,
            spill_ops: AtomicU64::new(0),
            card_guard: None,
        }
    }

    /// Pre-scan the plan for repeated subtrees (the shared-work
    /// optimizer's detection pass, §4.5). Call before `execute`.
    pub fn prepare_shared_work(&mut self, plan: &LogicalPlan) {
        if !self.conf.shared_work {
            return;
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        count_subtrees(plan, true, &mut counts);
        if self.conf.effective_histograms_enabled() {
            // The histogram path plans semijoin reducers through
            // intermediate joins, so a reducer's source subplan always
            // re-evaluates a dimension subtree the join's build side
            // reads again. Count those sources too: the duplicate
            // evaluation then shares instead of paying a second scan
            // plus vertex dispatch. Only exact subtree fingerprints are
            // counted — not filter-stripped scan base keys, which would
            // force the dimension scan onto the sarg-forfeiting raw
            // read even though the exact-match share already serves the
            // reducer from the filtered result. (Off-path plans are
            // left uncounted so the constant-selectivity oracle's
            // simulated cost is unchanged.)
            plan.visit(&mut |p| {
                if let LogicalPlan::Scan {
                    semijoin_filters, ..
                } = p
                {
                    for spec in semijoin_filters {
                        count_subtrees(&spec.source, false, &mut counts);
                    }
                }
            });
        }
        counts.retain(|_, c| *c > 1);
        self.shared_counts = counts;
    }
}

/// Count the subtrees worth sharing by fingerprint: every one with at
/// least one operator above a scan, and a scan with filters. With
/// `base_keys`, count each scan's filter-stripped shape too: Hive's
/// shared-work optimizer "starts merging scan operations over the same
/// tables, then continues merging plan operators until a difference is
/// found" (§4.5), so scans of one table that differ only in their pushed
/// filters share the underlying read. A semijoin reducer's source counts
/// without them: an exact match against the join's build side is the
/// sharing that pays there, and a base-key match would only forfeit the
/// scan's sarg skipping.
fn count_subtrees(plan: &LogicalPlan, base_keys: bool, counts: &mut HashMap<u64, usize>) {
    if !plan.children().is_empty()
        || matches!(plan, LogicalPlan::Scan { filters, .. } if !filters.is_empty())
    {
        *counts.entry(fingerprint(plan)).or_insert(0) += 1;
    }
    if let Some(base) = scan_base_key(plan).filter(|_| base_keys) {
        *counts.entry(base).or_insert(0) += 1;
    }
    for c in plan.children() {
        count_subtrees(c, base_keys, counts);
    }
}

/// The share key of a scan ignoring its pushed filters; `None` for
/// non-scans and for scans whose reducers do dynamic partition pruning
/// (their directory set is not known statically).
pub(crate) fn scan_base_key(plan: &LogicalPlan) -> Option<u64> {
    let LogicalPlan::Scan {
        table,
        projection,
        partitions,
        semijoin_filters,
        ..
    } = plan
    else {
        return None;
    };
    if semijoin_filters.iter().any(|s| s.is_partition_col) {
        return None;
    }
    let stripped = LogicalPlan::Scan {
        table: table.clone(),
        projection: projection.clone(),
        filters: vec![],
        partitions: partitions.clone(),
        semijoin_filters: vec![],
    };
    Some(fingerprint(&stripped) ^ 0x5ca4_ba5e)
}

/// Per-node execution trace (rows, I/O, reuse), consumed by
/// [`crate::simtime`].
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes_disk: u64,
    pub bytes_cache: u64,
    /// Bytes this operator wrote to spill files when the memory broker
    /// denied its working set (the read-back and the write both also
    /// count into `bytes_disk` — spill I/O is disk I/O to sim-time).
    pub bytes_spilled: u64,
    /// File-system operations (opens/ranged reads) — deltas make these
    /// grow, which is what compaction fights (§3.2).
    pub io_ops: u64,
    /// Rows that crossed a shuffle boundary into this node.
    pub shuffle_rows: u64,
    /// True for shuffle-boundary operators (join/agg/sort/setop).
    pub is_boundary: bool,
    /// Federated-scan latency contribution.
    pub external_ms: f64,
    /// Result served from the shared-work cache.
    pub shared_reuse: bool,
    /// Fragment/task attempts retried after injected faults (fragment
    /// failures, daemon deaths, transient-read exhaustion retries).
    pub fragment_retries: u64,
    /// Fragments re-dispatched onto a surviving daemon after their node
    /// died (§5.1 stateless-daemon failover).
    pub failovers: u64,
    /// Simulated wait spent in retry backoff (ms).
    pub backoff_wait_ms: f64,
    /// Injected gray-failure (slow I/O) latency attributed here (ms).
    pub injected_delay_ms: f64,
    /// Host worker threads this operator fanned morsels across (0 for
    /// operators with no parallel section, 1 for the serial fallback).
    pub parallel_workers: u64,
    /// Stages of this operator that executed fully compiled under the
    /// physical IR (filter/project pipelines, a scan's predicate,
    /// aggregate accumulator banks, join residual conjunctions). Zero
    /// in row mode.
    pub pir_compiled_stages: u64,
    /// Rows (candidate pairs, for join residuals) the vectorized engine
    /// ran through the row interpreter here — non-compilable expression
    /// shapes, grace joins.
    pub pir_fallback_rows: u64,
    /// A join's route and wall-clock split; `None` on other operators.
    /// Wall-clock feeds no simulated time, fault roll or byte-compared
    /// output.
    pub join: Option<crate::join::JoinProfile>,
    /// An aggregate's routes, index kinds and wall-clock split, per
    /// grouping set; `None` on other operators. Wall-clock, like `join`.
    pub aggregate: Option<crate::aggregate::AggregateProfile>,
    /// A set operation's key index kind and wall-clock keying; `None`
    /// on other operators.
    pub setop: Option<SetOpProfile>,
    pub children: Vec<NodeTrace>,
}

impl NodeTrace {
    pub(crate) fn leaf(label: &str) -> NodeTrace {
        NodeTrace {
            label: label.to_string(),
            ..Default::default()
        }
    }

    /// Sum of `f` over this node and all descendants.
    pub fn total<F: Fn(&NodeTrace) -> u64 + Copy>(&self, f: F) -> u64 {
        f(self) + self.children.iter().map(|c| c.total(f)).sum::<u64>()
    }

    /// Visit all nodes.
    pub fn visit(&self, f: &mut impl FnMut(&NodeTrace)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// The widest stage of the traced plan in scheduler tasks: per node,
    /// `ceil((rows_in + rows_out) / rows_per_task)` capped at `cap`
    /// (cluster slots), maximized over the tree. Shared-reuse nodes cost
    /// nothing — their work ran once elsewhere. This mirrors the task
    /// fan-out `simtime` assumes, so it is the query's slot demand while
    /// it runs concurrently with others.
    pub fn max_parallel_tasks(&self, rows_per_task: u64, cap: u64) -> u64 {
        let own = if self.shared_reuse {
            0
        } else {
            (self.rows_in + self.rows_out)
                .div_ceil(rows_per_task.max(1))
                .min(cap)
        };
        self.children
            .iter()
            .map(|c| c.max_parallel_tasks(rows_per_task, cap))
            .fold(own, u64::max)
    }

    /// Flatten operator labels and output rows (runtime statistics for
    /// re-optimization feedback, §4.2).
    pub fn operator_rows(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.visit(&mut |n| out.push((n.label.clone(), n.rows_out)));
        out
    }
}

/// Execute a plan, returning the materialized result batch and the
/// trace tree (the compatibility entry point: reducers, MV rebuilds and
/// tests want compact rows).
pub fn execute(plan: &LogicalPlan, ctx: &ExecContext) -> Result<(VectorBatch, NodeTrace)> {
    let (sb, trace) = execute_sel(plan, ctx)?;
    Ok((sb.compact(), trace))
}

/// Execute a plan, returning a `(batch, selection)` pair: the walk of
/// [`execute_parts`], then its parts [`assemble`]d. Operators narrow
/// selections and share `Arc`'d columns instead of copying survivors;
/// the caller compacts at its pipeline breaker (the driver's output
/// choke point, a reducer).
pub fn execute_sel(plan: &LogicalPlan, ctx: &ExecContext) -> Result<(SelBatch, NodeTrace)> {
    let (parts, trace) = execute_parts(plan, ctx)?;
    Ok((assemble(parts)?, trace))
}

/// The one assembly rule, for a consumer that needs one batch: one part
/// as it is, several in one [`VectorBatch::concat_selected`] (each
/// survivor copied exactly once).
pub(crate) fn assemble(mut parts: Vec<SelBatch>) -> Result<SelBatch> {
    match parts.len() {
        1 => Ok(parts.swap_remove(0)),
        _ => {
            let first = (parts.first())
                .ok_or_else(|| HiveError::Execution("assembling no parts".into()))?;
            let batch = VectorBatch::concat_selected(first.batch.schema(), &parts)?;
            Ok(SelBatch::from_batch(batch))
        }
    }
}

/// The plan walker. Every node yields its output as an ordered sequence
/// of at least one part, whose selected rows end to end are the node's
/// rows: a stored-table scan yields one part per morsel in enumeration
/// order (a shared scan's other sites one per batch it published), a
/// fused Filter/Project chain runs each stage part by part, a join other
/// than `Right`/`Full` probes its parts one by one
/// ([`crate::join::execute_join_parts`]), a LIMIT yields the parts it
/// keeps, and every other operator yields one part. An operator that
/// needs one batch [`assemble`]s its input.
///
/// A shared-work subtree (§4.5) publishes its assembled, compacted rows
/// once and is answered from them at its other sites. Every node rolls
/// its fragment faults after it ran, children first.
pub(crate) fn execute_parts(
    plan: &LogicalPlan,
    ctx: &ExecContext,
) -> Result<(Vec<SelBatch>, NodeTrace)> {
    let share = ctx.shared_site(plan);
    if let Some(cached) = share.and_then(|fp| ctx.shared_get(fp)) {
        let mut t = NodeTrace::leaf("SharedWorkReuse");
        t.rows_out = cached.iter().map(|b| b.num_rows() as u64).sum();
        t.shared_reuse = true;
        return Ok((
            cached.iter().cloned().map(SelBatch::from_batch).collect(),
            t,
        ));
    }
    let (parts, mut trace) = execute_node(plan, ctx)?;
    // Per-vertex fault injection + fragment recovery (retries, node
    // failover); no-op when no fault plan is active.
    crate::recovery::apply_fragment_faults(ctx, &mut trace)?;
    let Some(fp) = share else {
        return Ok((parts, trace));
    };
    // Shared results are consumed at several plan sites: store them
    // compacted once rather than re-gathering per consumer.
    let b = assemble(parts)?.compact();
    ctx.shared_put(fp, Arc::from([b.clone()]));
    Ok((vec![SelBatch::from_batch(b)], trace))
}

/// A `Join` node: its probe side as the walker yields it, its build
/// side assembled; the output as [`crate::join::execute_join_parts`]
/// gives it.
fn execute_join_node(plan: &LogicalPlan, ctx: &ExecContext) -> Result<(Vec<SelBatch>, NodeTrace)> {
    let LogicalPlan::Join {
        left,
        right,
        join_type,
        equi,
        residual,
    } = plan
    else {
        return Err(HiveError::Execution(
            "execute_join_node on a non-join".into(),
        ));
    };
    let (lparts, lt) = execute_parts(left, ctx)?;
    let (rb, rt) = execute_sel(right, ctx)?;
    let lrows: usize = lparts.iter().map(SelBatch::num_rows).sum();
    let morsels = crate::par::row_morsels(lrows.max(rb.num_rows()));
    let (workers, _lease) = ctx.lease_workers(morsels);
    let rows_in = (lrows + rb.num_rows()) as u64;
    let sp = ctx.spill_ctx();
    let mut pc = crate::pir::PirCounters::default();
    let pir = ctx.conf.vectorized.then_some(&mut pc);
    let (out, profile) = execute_join_parts(
        &lparts,
        &rb,
        *join_type,
        equi,
        residual,
        &plan.schema(),
        ctx.conf.hash_join_row_budget,
        workers,
        sp.as_ref(),
        pir,
    )?;
    let rows_out: usize = out.iter().map(SelBatch::num_rows).sum();
    if let Some(g) = &ctx.card_guard {
        if let Some(e) = g.check(fingerprint(plan), rows_out as u64) {
            return Err(e);
        }
    }
    let mut t = NodeTrace::leaf(&format!("Join({join_type:?})"));
    t.parallel_workers = workers as u64;
    t.rows_in = rows_in;
    t.rows_out = rows_out as u64;
    t.is_boundary = true;
    t.shuffle_rows = t.rows_in;
    t.pir_compiled_stages = pc.compiled_stages;
    t.pir_fallback_rows = pc.fallback_rows;
    t.join = Some(profile);
    t.children = vec![lt, rt];
    if let Some(sp) = &sp {
        fold_spill(&mut t, sp);
    }
    Ok((out, t))
}

/// True when `col_dt` already satisfies the declared output type (the
/// condition under which `align_column` passes a column through).
pub(crate) fn type_aligned(col_dt: &hive_common::DataType, want: &hive_common::DataType) -> bool {
    col_dt == want
        || matches!(
            (col_dt, want),
            (hive_common::DataType::Decimal(_, a), hive_common::DataType::Decimal(_, b)) if a == b
        )
}

/// One node, before its fault roll and shared-work publication.
fn execute_node(plan: &LogicalPlan, ctx: &ExecContext) -> Result<(Vec<SelBatch>, NodeTrace)> {
    let schema = plan.schema();
    match plan {
        LogicalPlan::Scan { .. } => execute_scan(plan, ctx),
        LogicalPlan::Values { schema, rows } => {
            let rows: Vec<Row> = rows.iter().map(|r| Row::new(r.clone())).collect();
            let b = VectorBatch::from_rows(schema, &rows)?;
            let mut t = NodeTrace::leaf("Values");
            t.rows_out = b.num_rows() as u64;
            Ok((vec![SelBatch::from_batch(b)], t))
        }
        // The vectorized engine fuses the maximal Filter/Project chain
        // into one compiled pipeline over a shared base batch (DESIGN.md
        // §4). The arms below are the row interpreter (Hive 1.2).
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } if ctx.conf.vectorized => {
            crate::pir::execute_chain(plan, ctx)
        }
        LogicalPlan::Filter { input, predicate } => {
            let (child, ct) = execute_sel(input, ctx)?;
            let rows_in = child.num_rows() as u64;
            let base = child.compact();
            let idx = filter_indices_rowmode(predicate, &base)?;
            let mut t = NodeTrace::leaf("Filter");
            t.rows_in = rows_in;
            t.rows_out = idx.len() as u64;
            t.children = vec![ct];
            Ok((vec![SelBatch::new(base, SelVec::Idx(idx))?], t))
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let (child, ct) = execute_sel(input, ctx)?;
            let rows_in = child.num_rows() as u64;
            let base = child.compact();
            // Results build the declared output column directly (no
            // whole-column `Vec<Value>` detour).
            let cols = exprs
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    eval_rowmode(e, &base, &schema.field(i).data_type).map(std::sync::Arc::new)
                })
                .collect::<Result<Vec<_>>>()?;
            let out = VectorBatch::from_arcs(schema.clone(), cols, base.num_rows())?;
            let mut t = NodeTrace::leaf("Project");
            t.rows_in = rows_in;
            t.rows_out = out.num_rows() as u64;
            t.children = vec![ct];
            Ok((vec![SelBatch::from_batch(out)], t))
        }
        LogicalPlan::Join { .. } => execute_join_node(plan, ctx),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            grouping_sets,
            aggs,
        } => {
            let (child, ct) = execute_parts(input, ctx)?;
            let child_rows: usize = child.iter().map(SelBatch::num_rows).sum();
            let (workers, _lease) = ctx.lease_workers(crate::par::row_morsels(child_rows));
            let rows_in = child_rows as u64;
            let sp = ctx.spill_ctx();
            let mut pc = crate::pir::PirCounters::default();
            let pir = ctx.conf.vectorized.then_some(&mut pc);
            let (out, profile) = execute_aggregate_parts(
                &child,
                group_exprs,
                grouping_sets,
                aggs,
                &schema,
                workers,
                sp.as_ref(),
                pir,
            )?;
            let mut t = NodeTrace::leaf("Aggregate");
            t.parallel_workers = workers as u64;
            t.rows_in = rows_in;
            t.rows_out = out.num_rows() as u64;
            t.is_boundary = !group_exprs.is_empty() || grouping_sets.is_some();
            t.shuffle_rows = t.rows_in;
            t.pir_compiled_stages = pc.compiled_stages;
            t.pir_fallback_rows = pc.fallback_rows;
            t.aggregate = Some(profile);
            t.children = vec![ct];
            if let Some(sp) = &sp {
                fold_spill(&mut t, sp);
            }
            Ok((vec![SelBatch::from_batch(out)], t))
        }
        LogicalPlan::Window { input, windows } => {
            let (child, ct) = execute_sel(input, ctx)?;
            let rows_in = child.num_rows() as u64;
            let out = execute_window(&child, windows, &schema)?;
            let mut t = NodeTrace::leaf("Window");
            t.rows_in = rows_in;
            t.rows_out = out.num_rows() as u64;
            t.is_boundary = true;
            t.shuffle_rows = t.rows_in;
            t.children = vec![ct];
            Ok((vec![SelBatch::from_batch(out)], t))
        }
        LogicalPlan::Sort { input, keys } => {
            let (child, ct) = execute_sel(input, ctx)?;
            let child = compact_for(child, keys.iter().map(|k| &k.expr));
            let key_cols = keys
                .iter()
                .map(|k| eval_vector(&k.expr, &child.batch))
                .collect::<Result<Vec<_>>>()?;
            // One comparator for the in-memory stable sort and the
            // external merge, so both order rows identically.
            let order = SortOrder::new(&key_cols, keys);
            let n = child.num_rows();
            let cmp = |a: u32, b: u32| {
                order.cmp(child.sel.index(a as usize), child.sel.index(b as usize))
            };
            let sp = ctx.spill_ctx();
            let est = crate::spill::estimate_sort_bytes(n, keys.len().max(1));
            // Grant held for the whole sort; a denial degrades to
            // bounded runs + k-way merge (or, with spill disabled,
            // proceeds over budget — visible in the broker peak).
            let grant = sp.as_ref().map(|s| s.broker.try_reserve("sort", est));
            let pos: Vec<u32> = match (&sp, &grant) {
                (Some(sp), Some(None)) if sp.enabled => external_sort(
                    n,
                    crate::spill::estimate_sort_bytes(1, keys.len().max(1)),
                    cmp,
                    sp,
                )?,
                _ => {
                    let _forced = match (&sp, &grant) {
                        (Some(s), Some(None)) => Some(s.broker.force_reserve("sort", est)),
                        _ => None,
                    };
                    let mut pos: Vec<u32> = (0..n as u32).collect();
                    pos.sort_by(|&a, &b| cmp(a, b));
                    pos
                }
            };
            // The output permutation rides out as a selection —
            // sorting moves no column data at all.
            let sel = child.sel.compose(&pos);
            let mut t = NodeTrace::leaf("Sort");
            t.rows_in = n as u64;
            t.rows_out = sel.len() as u64;
            t.is_boundary = true;
            t.shuffle_rows = t.rows_in;
            t.children = vec![ct];
            if let Some(sp) = &sp {
                fold_spill(&mut t, sp);
            }
            Ok((vec![SelBatch::new(child.batch, sel)?], t))
        }
        LogicalPlan::Limit { input, n } => {
            // The parts in order, up to the one that reaches `n`,
            // truncated there: nothing is assembled.
            let (child, ct) = execute_parts(input, ctx)?;
            let mut t = NodeTrace::leaf("Limit");
            t.rows_in = child.iter().map(SelBatch::num_rows).sum::<usize>() as u64;
            let mut kept = Vec::new();
            for part in child {
                let room = *n as usize - t.rows_out as usize;
                if room == 0 && !kept.is_empty() {
                    break;
                }
                let sel = part.sel.truncate(room);
                t.rows_out += sel.len() as u64;
                kept.push(SelBatch::new(part.batch, sel)?);
            }
            t.children = vec![ct];
            Ok((kept, t))
        }
        LogicalPlan::Union { inputs } => {
            // Union buffers all inputs into one batch: a breaker.
            let mut out = VectorBatch::empty(&schema)?;
            let mut t = NodeTrace::leaf("UnionAll");
            for i in inputs {
                let (b, ct) = execute(i, ctx)?;
                t.rows_in += b.num_rows() as u64;
                out.append(&b)?;
                t.children.push(ct);
            }
            t.rows_out = out.num_rows() as u64;
            Ok((vec![SelBatch::from_batch(out)], t))
        }
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let (lb, lt) = execute(left, ctx)?;
            let (rb, rt) = execute(right, ctx)?;
            let (out, profile) = execute_setop(*op, *all, &lb, &rb, &schema)?;
            let mut t = NodeTrace::leaf(&format!("SetOp({op:?})"));
            t.setop = Some(profile);
            t.rows_in = (lb.num_rows() + rb.num_rows()) as u64;
            t.rows_out = out.num_rows() as u64;
            t.is_boundary = true;
            t.shuffle_rows = t.rows_in;
            t.children = vec![lt, rt];
            Ok((vec![SelBatch::from_batch(out)], t))
        }
    }
}

/// Fold one operator's spill I/O into its trace node. Spill bytes
/// count into `bytes_disk` (the sim-time model meters them like any
/// other disk traffic) and retry backoff into `backoff_wait_ms` —
/// deliberately NOT into `fragment_retries`, which sim-time treats as
/// whole-task re-execution; a retried spill write re-does one I/O, not
/// the operator.
fn fold_spill(t: &mut NodeTrace, sp: &SpillCtx<'_>) {
    let (w, r) = (sp.stats.bytes_written(), sp.stats.bytes_read());
    t.bytes_spilled += w;
    t.bytes_disk += w + r;
    t.io_ops += sp.stats.files() + sp.stats.reads();
    t.backoff_wait_ms += sp.stats.backoff_ms();
}

/// External-merge sort: bounded runs + k-way merge. Positions are
/// split into consecutive chunks sized to the broker's working budget,
/// each chunk stable-sorted in memory and spilled as a position run
/// ([`crate::spill`]'s one format), then merged. On ties the merge
/// prefers the lowest-index run; runs cover consecutive position
/// ranges, so for equal keys the earlier run holds the earlier original
/// positions — the merge output is exactly the in-memory stable sort's
/// order, which is what makes the tiny-budget arm byte-identical.
fn external_sort(
    n: usize,
    per_row: u64,
    cmp: impl Fn(u32, u32) -> CmpOrdering,
    sp: &SpillCtx<'_>,
) -> Result<Vec<u32>> {
    let op = sp.next_op();
    let run_len = (sp.broker.chunk_budget() / per_row.max(1))
        .max(1024)
        .min(n.max(1) as u64) as usize;
    let mut files = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + run_len).min(n);
        // Run state is charged (forced: the denial already happened;
        // runs are how the sort lives within its means).
        let _g = sp
            .broker
            .force_reserve("sort-run", (hi - lo) as u64 * per_row);
        let mut run: Vec<u32> = (lo as u32..hi as u32).collect();
        run.sort_by(|&a, &b| cmp(a, b));
        files.push(sp.write_run(&format!("op{op}-run{}.sort", files.len()), &run)?);
        lo = hi;
    }
    // Merge state is the position arrays alone — 4 bytes/row versus
    // the full comparator working set the broker denied.
    let _merge = sp.broker.force_reserve("sort-merge", n as u64 * 4);
    let runs = (files.iter())
        .map(|f| sp.read_run(f, n))
        .collect::<Result<Vec<_>>>()?;
    drop(files); // runs are merged from memory; delete the spill files
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(n);
    loop {
        let mut best: Option<usize> = None;
        for (i, r) in runs.iter().enumerate() {
            if heads[i] >= r.len() {
                continue;
            }
            best = Some(match best {
                Some(b) if cmp(r[heads[i]], runs[b][heads[b]]) == CmpOrdering::Less => i,
                Some(b) => b,
                None => i,
            });
        }
        let Some(i) = best else { break };
        out.push(runs[i][heads[i]]);
        heads[i] += 1;
    }
    Ok(out)
}

/// One ORDER BY over its evaluated key columns: the row order of Sort
/// (in memory and external) and of a window's partitions, and the
/// window's peer test. Rows are the key columns' physical rows.
///
/// A dictionary-encoded string key compares through a rank table built
/// by sorting the distinct dictionary entries once (equal entries share
/// a rank, so ties match the value comparator exactly); every other
/// column compares via `sql_cmp`, with NaN above every number.
pub(crate) struct SortOrder<'a> {
    keys: Vec<(KeyOrder<'a>, &'a SortKey)>,
}

enum KeyOrder<'a> {
    Ranked {
        codes: &'a [u32],
        nulls: Option<&'a hive_common::BitSet>,
        rank: Vec<u32>,
    },
    Plain(&'a ColumnVector),
}

impl<'a> SortOrder<'a> {
    pub(crate) fn new(cols: &'a [Arc<ColumnVector>], keys: &'a [SortKey]) -> SortOrder<'a> {
        let keys = (cols.iter().zip(keys))
            .map(|(col, key)| {
                let Some((codes, dict, nulls)) = col.dict_parts() else {
                    return (KeyOrder::Plain(col), key);
                };
                let mut order: Vec<u32> = (0..dict.len() as u32).collect();
                order.sort_by(|&x, &y| dict[x as usize].cmp(&dict[y as usize]));
                let mut rank = vec![0u32; dict.len()];
                for (pos, &c) in order.iter().enumerate() {
                    rank[c as usize] =
                        if pos > 0 && dict[c as usize] == dict[order[pos - 1] as usize] {
                            rank[order[pos - 1] as usize]
                        } else {
                            pos as u32
                        };
                }
                (KeyOrder::Ranked { codes, nulls, rank }, key)
            })
            .collect();
        SortOrder { keys }
    }

    /// Rows `a` and `b` in ORDER BY order: per key, two values in the
    /// key's order (reversed for DESC), and NULLs first in the output
    /// when `nulls_first` holds, last otherwise.
    pub(crate) fn cmp(&self, a: usize, b: usize) -> CmpOrdering {
        for (order, key) in &self.keys {
            let ord = match order.cmp(a, b) {
                (false, false, ord) if key.asc => ord,
                (false, false, ord) => ord.reverse(),
                (na, nb, _) if key.nulls_first => nb.cmp(&na),
                (na, nb, _) => na.cmp(&nb),
            };
            if ord != CmpOrdering::Equal {
                return ord;
            }
        }
        CmpOrdering::Equal
    }

    /// Whether rows `a` and `b` are peers: on every key both NULL, or
    /// equal ranks, or `sql_cmp`-equal values (so NaN is no row's peer).
    pub(crate) fn peers(&self, a: usize, b: usize) -> bool {
        self.keys.iter().all(|(order, _)| match order {
            KeyOrder::Plain(col) => col.get(a).group_eq(&col.get(b)),
            ranked => matches!(ranked.cmp(a, b), (na, nb, CmpOrdering::Equal) if na == nb),
        })
    }
}

impl KeyOrder<'_> {
    /// Whether rows `a` and `b` are NULL, and their order when neither is.
    fn cmp(&self, a: usize, b: usize) -> (bool, bool, CmpOrdering) {
        match self {
            KeyOrder::Ranked { codes, nulls, rank } => {
                let null = |i: usize| nulls.is_some_and(|n| n.get(i));
                let (na, nb) = (null(a), null(b));
                let ord = if na || nb {
                    CmpOrdering::Equal
                } else {
                    rank[codes[a] as usize].cmp(&rank[codes[b] as usize])
                };
                (na, nb, ord)
            }
            KeyOrder::Plain(col) => {
                let (va, vb) = (col.get(a), col.get(b));
                let nan = |v: &Value| v.as_f64().is_some_and(f64::is_nan);
                let ord = (va.sql_cmp(&vb)).unwrap_or_else(|| nan(&va).cmp(&nan(&vb)));
                (va.is_null(), vb.is_null(), ord)
            }
        }
    }
}

/// Whether `exprs` evaluate through a stacked selection: bare columns
/// and literals do; a computed expression evaluates over the whole
/// batch, which must then hold the selected rows only.
pub(crate) fn reads_through<'e>(mut exprs: impl Iterator<Item = &'e ScalarExpr>) -> bool {
    exprs.all(|e| matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_)))
}

/// `sb` ready for `exprs` to evaluate over: as it is where they read
/// through its selection ([`reads_through`]), compacted otherwise.
pub(crate) fn compact_for<'e>(
    sb: SelBatch,
    exprs: impl Iterator<Item = &'e ScalarExpr>,
) -> SelBatch {
    if sb.sel.is_all() || reads_through(exprs) {
        sb
    } else {
        SelBatch::from_batch(sb.compact())
    }
}

/// Coerce a column produced by a kernel to the declared output type
/// (kernels keep natural types; e.g. `Int + Int` stays Int even when
/// the planner widened the projection type). Aligned columns pass
/// through by handle; the rest take one typed cast
/// ([`hive_common::ColumnVector::cast_to`]).
pub fn align_column(
    col: std::sync::Arc<hive_common::ColumnVector>,
    want: &hive_common::DataType,
) -> Result<std::sync::Arc<hive_common::ColumnVector>> {
    if type_aligned(&col.data_type(), want) {
        return Ok(col);
    }
    Ok(std::sync::Arc::new(col.cast_to(want)?))
}

/// A set operation's key index and the wall nanoseconds its keying took
/// (classification, spans, keys and the index walk of both inputs) —
/// what a `SetOp` [`NodeTrace`] carries. Wall-clock, like
/// [`crate::join::JoinProfile`].
#[derive(Debug, Clone, Default)]
pub struct SetOpProfile {
    pub index: crate::keys::IndexKind,
    pub keys_ns: u64,
}

/// INTERSECT / EXCEPT via row-count maps (ALL keeps multiplicity).
///
/// Whole rows are keyed through the key layer ([`crate::keys`]) — both
/// inputs into one table, dense slots or packed words where the columns
/// allow it — and the output is the kept *left positions* gathered
/// column by column and aligned to the output schema; no `Row` is built.
/// Returned beside the keying's profile.
pub fn execute_setop(
    op: SetOperator,
    all: bool,
    left: &VectorBatch,
    right: &VectorBatch,
    schema: &hive_common::Schema,
) -> Result<(VectorBatch, SetOpProfile)> {
    // Shared emit decision: `in_right` is the row's right-side
    // multiplicity, `already` how many left occurrences preceded this
    // one. For EXCEPT ALL this is the multiset difference — emit
    // occurrences beyond those matched by right-side copies.
    let decide: fn(i64, i64) -> bool = match (op, all) {
        (SetOperator::Intersect, false) => |in_right, already| in_right > 0 && already == 0,
        (SetOperator::Intersect, true) => |in_right, already| in_right > already,
        (SetOperator::Except, false) => |in_right, already| in_right == 0 && already == 0,
        (SetOperator::Except, true) => |in_right, already| already + 1 > in_right,
        (SetOperator::Union, _) => {
            // The planner lowers UNION to LogicalPlan::Union nodes;
            // reaching here means a plan-construction bug, which
            // should fail the query, not the process.
            return Err(HiveError::Plan(
                "UNION reached SetOp execution (unions lower to Union nodes)".into(),
            ));
        }
    };
    let mut clock = std::time::Instant::now();
    let (lcols, rcols) = (column_refs(left.columns()), column_refs(right.columns()));
    let (lside, rside) = KeySide::group_pair(&lcols, &rcols);
    let mut groups = Grouper::new(&lside, 1);
    // Per group: right-side multiplicity / left rows seen.
    let mut right_count: Vec<i64> = Vec::new();
    let mut seen: Vec<i64> = Vec::new();
    let (nr, nl) = (right.num_rows(), left.num_rows());
    rside.key_chunks(&SelVec::all(nr), 0, nr, |_, keys| {
        groups.assign(keys, None, |_, g, new| {
            if new {
                right_count.push(0);
            }
            right_count[g as usize] += 1;
        })
    })?;
    seen.resize(right_count.len(), 0);
    let mut kept: Vec<u32> = Vec::new();
    lside.key_chunks(&SelVec::all(nl), 0, nl, |at, keys| {
        groups.assign(keys, None, |r, g, new| {
            if new {
                right_count.push(0);
                seen.push(0);
            }
            let g = g as usize;
            if decide(right_count[g], seen[g]) {
                kept.push((at + r) as u32);
            }
            seen[g] += 1;
        })
    })?;
    let profile = SetOpProfile {
        index: lside.kind(),
        keys_ns: crate::join::lap(&mut clock),
    };
    let cols = (left.columns().iter().zip(schema.fields()))
        .map(|(col, f)| align_column(std::sync::Arc::new(col.take(&kept)), &f.data_type))
        .collect::<Result<Vec<_>>>()?;
    Ok((
        VectorBatch::from_arcs(schema.clone(), cols, kept.len())?,
        profile,
    ))
}

/// Map a retryable error to a fresh "overlay" configuration for the
/// re-execution (§4.2's overlay strategy): the hash join's build-row
/// budget lifted, so a build the planner underestimated runs to the end.
pub fn overlay_conf(conf: &HiveConf) -> HiveConf {
    let mut c = conf.clone();
    c.hash_join_row_budget = usize::MAX; // force sort-merge-like robustness
    c
}

const _: () = {
    // Compile-time guard: HiveError::Retryable drives reoptimization.
    fn _assert(e: &HiveError) -> bool {
        e.is_retryable()
    }
    // Compile-time guard: morsel workers share the context by reference,
    // so it must stay Sync (atomic charges, lock-protected caches).
    fn _assert_sync<T: Sync>() {}
    fn _ctx_is_sync() {
        _assert_sync::<ExecContext<'_>>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::IndexKind;
    use hive_common::{BitSet, ColumnVector, DataType, Field, Schema, Value};
    use std::sync::Arc;

    /// The reference: whole rows compared value by value — `group_eq`
    /// (NULL equals NULL, 0.0 equals -0.0) or both NaN — with no hashing
    /// and no key layer. A left row's occurrence `i` (counting earlier
    /// equal left rows) against `r` equal right rows is kept by
    /// INTERSECT ALL when `i < r`, by EXCEPT ALL when `i >= r`, and by
    /// the distinct forms only as the first occurrence.
    fn reference_setop(
        op: SetOperator,
        all: bool,
        left: &VectorBatch,
        right: &VectorBatch,
    ) -> Vec<String> {
        let same = |a: &Row, b: &Row| {
            a.values().iter().zip(b.values()).all(|(x, y)| {
                x.group_eq(y)
                    || matches!((x, y), (Value::Double(p), Value::Double(q)) if p.is_nan() && q.is_nan())
            })
        };
        let rights = right.to_rows();
        let lefts = left.to_rows();
        let mut out = Vec::new();
        for (at, row) in lefts.iter().enumerate() {
            let r = rights.iter().filter(|o| same(o, row)).count();
            let i = lefts[..at].iter().filter(|o| same(o, row)).count();
            let keep = match (op, all) {
                (SetOperator::Intersect, true) => i < r,
                (SetOperator::Intersect, false) => i == 0 && r > 0,
                (SetOperator::Except, true) => i >= r,
                (SetOperator::Except, false) => i == 0 && r == 0,
                (SetOperator::Union, _) => unreachable!(),
            };
            if keep {
                out.push(row.to_string());
            }
        }
        out
    }

    /// A small deterministic generator: each seed is one fixed case.
    struct Lcg(u64);
    impl Lcg {
        fn pick(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    const STRS: [&str; 3] = ["a", "b", "c"];
    const DOUBLES: [Option<f64>; 6] = [
        None,
        Some(f64::NAN),
        Some(0.0),
        Some(-0.0),
        Some(1.5),
        Some(2.0),
    ];

    /// `n` rows of `(k INT, s STRING, d DOUBLE)` over small domains with
    /// NULLs in every column, so most rows repeat. `s` is dictionary
    /// encoded when `dict` holds, over a dictionary whose order depends on
    /// the seed (so two sides' code spaces differ); plain otherwise.
    fn side(seed: u64, n: usize, dict: bool, width: usize) -> VectorBatch {
        let mut g = Lcg(seed);
        let ks: Vec<Value> = (0..n)
            .map(|_| match g.pick(4) {
                0 => Value::Null,
                k => Value::Int(k as i32),
            })
            .collect();
        let ss: Vec<Option<usize>> = (0..n)
            .map(|_| Some(g.pick(4)).filter(|&s| s < STRS.len()))
            .collect();
        let ds: Vec<Value> = (0..n)
            .map(|_| DOUBLES[g.pick(DOUBLES.len())].map_or(Value::Null, Value::Double))
            .collect();
        let s_col = if dict {
            let rot = seed as usize % STRS.len();
            let entries: Vec<String> = (0..STRS.len())
                .map(|i| STRS[(i + rot) % STRS.len()].into())
                .collect();
            let mut nulls = BitSet::new(n);
            let codes = (ss.iter().enumerate())
                .map(|(row, s)| match s {
                    Some(s) => ((s + STRS.len() - rot) % STRS.len()) as u32,
                    None => {
                        nulls.set(row);
                        0
                    }
                })
                .collect();
            ColumnVector::dict_from_codes(codes, Arc::new(entries), Some(nulls)).unwrap()
        } else {
            let vals: Vec<Value> = (ss.iter())
                .map(|s| s.map_or(Value::Null, |s| Value::String(STRS[s].into())))
                .collect();
            ColumnVector::from_values(&vals, &DataType::String).unwrap()
        };
        let cols = [
            (
                Field::new("k", DataType::Int),
                ColumnVector::from_values(&ks, &DataType::Int).unwrap(),
            ),
            (Field::new("s", DataType::String), s_col),
            (
                Field::new("d", DataType::Double),
                ColumnVector::from_values(&ds, &DataType::Double).unwrap(),
            ),
        ];
        let (fields, cols): (Vec<_>, Vec<_>) = cols.into_iter().take(width).unzip();
        VectorBatch::new(Schema::new(fields), cols).unwrap()
    }

    /// INTERSECT / EXCEPT × ALL / distinct over one INT column (a packed
    /// word key), INT + STRING and INT + STRING + DOUBLE (byte keys),
    /// with the string dictionary encoded on neither, one or both sides.
    #[test]
    fn set_operations_equal_the_row_reference() {
        let mut checked = 0;
        for seed in 1..=8u64 {
            for width in 1..=3 {
                for (ldict, rdict) in [(false, false), (true, false), (false, true), (true, true)] {
                    let left = side(seed, 80, ldict, width);
                    let right = side(seed * 31 + 7, 50, rdict, width);
                    for op in [SetOperator::Intersect, SetOperator::Except] {
                        for all in [true, false] {
                            let (got, _) =
                                execute_setop(op, all, &left, &right, left.schema()).unwrap();
                            let got: Vec<String> =
                                got.to_rows().iter().map(|r| r.to_string()).collect();
                            let want = reference_setop(op, all, &left, &right);
                            assert_eq!(
                                got, want,
                                "{op:?} all={all} seed={seed} width={width} dict={ldict}/{rdict}"
                            );
                            checked += want.len();
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "the cases must keep rows: {checked}");
    }

    /// The dense kind's spans cover both inputs: an input far wider than
    /// the other — on the left, then on the right — keys into one slot
    /// array, and a span past the size rule stays hashed; either way the
    /// rows are the reference's.
    #[test]
    fn set_operation_spans_cover_both_inputs() {
        let ints = |vals: Vec<i32>| {
            let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
            let mut nulls = BitSet::new(vals.len());
            (0..vals.len()).step_by(9).for_each(|i| nulls.set(i));
            let col = ColumnVector::Int(vals, Some(nulls));
            VectorBatch::new(schema, vec![col]).unwrap()
        };
        let right = ints((0..90).map(|i| i % 11).collect());
        let narrow = ints((0..700).map(|i| i * 37 % 601 - 300).collect());
        let wide = ints(
            (0..700)
                .map(|i| {
                    if i % 2 == 0 {
                        i32::MIN + i
                    } else {
                        i32::MAX - i
                    }
                })
                .collect(),
        );
        // The wider input on the left, then on the right.
        let cases = [
            (&narrow, &right, IndexKind::Dense),
            (&right, &narrow, IndexKind::Dense),
            (&wide, &right, IndexKind::Hashed),
        ];
        for (left, right, kind) in cases {
            for op in [SetOperator::Intersect, SetOperator::Except] {
                for all in [true, false] {
                    let (got, profile) =
                        execute_setop(op, all, left, right, left.schema()).unwrap();
                    let got: Vec<String> = got.to_rows().iter().map(|r| r.to_string()).collect();
                    assert_eq!(
                        got,
                        reference_setop(op, all, left, right),
                        "{op:?} all={all}"
                    );
                    assert_eq!(profile.index, kind);
                }
            }
        }
    }

    /// NaN meets NaN, -0.0 meets 0.0 and NULL meets NULL; a NaN with no
    /// partner stays in EXCEPT.
    #[test]
    fn double_and_null_rows_meet_their_equals() {
        let batch = |ds: &[Value]| {
            let schema = Schema::new(vec![Field::new("d", DataType::Double)]);
            let col = ColumnVector::from_values(ds, &DataType::Double).unwrap();
            VectorBatch::new(schema, vec![col]).unwrap()
        };
        let nan = Value::Double(f64::NAN);
        let left = batch(&[
            nan.clone(),
            nan.clone(),
            Value::Double(-0.0),
            Value::Null,
            Value::Double(1.5),
        ]);
        let right = batch(&[nan.clone(), Value::Double(0.0), Value::Null, Value::Null]);
        let run = |op, all| {
            let (out, _) = execute_setop(op, all, &left, &right, left.schema()).unwrap();
            (
                out.to_rows()
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>(),
                reference_setop(op, all, &left, &right),
            )
        };
        let (got, want) = run(SetOperator::Intersect, true);
        assert_eq!(got, want);
        assert_eq!(got.len(), 3, "{got:?}"); // one NaN, -0.0, NULL
        let (got, want) = run(SetOperator::Except, true);
        assert_eq!(got, want);
        assert_eq!(got.len(), 2, "{got:?}"); // the second NaN, 1.5
        let (got, want) = run(SetOperator::Except, false);
        assert_eq!(got, want);
        assert_eq!(got.len(), 1, "{got:?}"); // 1.5
    }
}
