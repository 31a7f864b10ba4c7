//! Table scans: ACID snapshot reads, partition handling, sarg pushdown,
//! dynamic semijoin reduction, LLAP cache routing, and federation
//! dispatch. [`execute_scan`] yields a stored table's morsels as parts;
//! the consumer that needs one batch assembles them
//! ([`crate::engine::assemble`]).

use crate::engine::{assemble, execute, ExecContext, NodeTrace};
use crate::kernels::filter_indices_rowmode;
use crate::pir::{PredPipeline, SelRef};
use crate::runtime_filter::RuntimeFilter;
use hive_acid::{resolve_snapshot, DeleteSet, RowGroupClass, Visibility, ACID_COLS};
use hive_common::{ColumnVector, HiveError, Result, Schema, SelBatch, SelVec, Value, VectorBatch};
use hive_corc::{ColumnPredicate, CorcFile, SearchArgument};
use hive_dfs::DfsPath;
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use std::collections::HashSet;
use std::sync::Arc;

/// Execute a Scan node as parts: a stored table's read yields one part
/// per morsel, in morsel enumeration order, each carrying the rows that
/// passed the scan's residual filters and reducers as its selection
/// (§3.3's late filtering); a federated scan or an empty reducer yields
/// one finished part.
///
/// A shared scan (§4.5) reads raw rows: they are [`assemble`]d once and
/// published for the other sites, and this site's own row work then
/// applies to them, as one part.
pub fn execute_scan(plan: &LogicalPlan, ctx: &ExecContext) -> Result<(Vec<SelBatch>, NodeTrace)> {
    let ScanRead {
        mut parts,
        mut trace,
        publish,
    } = read_scan(plan, ctx)?;
    if let Some((key, work)) = publish {
        let raw = assemble(parts)?.batch;
        ctx.shared_put(key, raw.clone());
        parts = vec![work.apply(raw)?];
        let rows_in = trace.rows_in;
        work.account(&mut trace, rows_in);
    }
    trace.rows_out = parts.iter().map(|p| p.num_rows() as u64).sum();
    Ok((parts, trace))
}

/// A scan's rows before assembly.
struct ScanRead<'p> {
    /// At least one part. A storage read gives one per morsel in
    /// enumeration order, each carrying the rows that passed its
    /// [`RowWork`] as its selection; a federated scan, a shared-work
    /// reuse and an empty reducer give a single finished part.
    parts: Vec<SelBatch>,
    /// Everything but `rows_out`.
    trace: NodeTrace,
    /// A shared scan's parts are raw rows: the share key to publish them
    /// under, assembled, and the row work they still owe.
    publish: Option<(u64, RowWork<'p>)>,
}

/// A scan's row-level work: its pushed filters — compiled (`fused`) in
/// the vectorized engine, interpreted in row mode — then its semijoin
/// reducers' row checks (a reducer's sarg skips whole row groups only).
/// Batch-local: a storage read does it to each part inside the morsel
/// workers, a shared scan to the rows it published or reuses.
struct RowWork<'p> {
    filters: &'p [ScalarExpr],
    fused: Option<PredPipeline>,
    /// (output column, key set) pairs.
    reducers: Vec<(usize, Arc<RuntimeFilter>)>,
}

impl<'p> RowWork<'p> {
    /// The row work of a scan's pushed `filters`: compiled once — the
    /// conjuncts ordered by the table's column statistics — when the
    /// engine is vectorized and there is a filter.
    fn new(
        filters: &'p [ScalarExpr],
        reducers: Vec<(usize, Arc<RuntimeFilter>)>,
        plan: &LogicalPlan,
        ctx: &ExecContext,
    ) -> RowWork<'p> {
        let fused = match plan {
            LogicalPlan::Scan {
                table, projection, ..
            } if ctx.conf.vectorized => ScalarExpr::conjunction(filters.to_vec()).map(|pred| {
                let tstats = ctx.ms.table_stats(&table.qualified_name);
                PredPipeline::compile(
                    &pred,
                    &plan.schema(),
                    Some((&*tstats, projection)),
                    ctx.conf.effective_histograms_enabled(),
                )
            }),
            _ => None,
        };
        RowWork {
            filters,
            fused,
            reducers,
        }
    }

    fn apply(&self, batch: VectorBatch) -> Result<SelBatch> {
        let n = batch.num_rows();
        let sel = match &self.fused {
            Some(p) => p
                .select(&batch, SelRef::All(n))?
                .map_or(SelVec::All(n), SelVec::Idx),
            None => apply_row_filters(&batch, self.filters)?,
        };
        let sel = self
            .reducers
            .iter()
            .fold(sel, |sel, (col, f)| f.retain(batch.column(*col), sel));
        Ok(SelBatch { batch, sel })
    }

    /// Fold the fused predicate's accounting into the scan's trace, as a
    /// Filter stage reports its own: one compiled stage when no conjunct
    /// is a row kernel, and the rows the row interpreter evaluated
    /// (`rows_in`, the raw rows the filter saw, for a row kernel).
    fn account(&self, trace: &mut NodeTrace, rows_in: u64) {
        if let Some(p) = &self.fused {
            trace.pir_compiled_stages += p.fully_compiled() as u64;
            trace.pir_fallback_rows += if p.fully_compiled() {
                p.interpreted_rows()
            } else {
                rows_in
            };
        }
    }
}

/// Everything a scan does short of assembling its rows: reducers,
/// partition and snapshot resolution, morsel enumeration, and the
/// morsel-parallel read with the fused residual predicate.
fn read_scan<'p>(plan: &'p LogicalPlan, ctx: &ExecContext) -> Result<ScanRead<'p>> {
    let LogicalPlan::Scan {
        table,
        projection,
        filters,
        partitions,
        semijoin_filters,
    } = plan
    else {
        return Err(HiveError::Execution("execute_scan on non-scan".into()));
    };
    let out_schema = plan.schema();
    let mut trace = NodeTrace {
        label: format!("Scan({})", table.qualified_name),
        ..Default::default()
    };
    let finished = |part: SelBatch, trace: NodeTrace| ScanRead {
        parts: vec![part],
        trace,
        publish: None,
    };

    // Federated tables go through the storage-handler hook.
    if table.handler.is_some() {
        let scanner = ctx.external.ok_or_else(|| {
            HiveError::External(format!(
                "no storage handler registered for {}",
                table.qualified_name
            ))
        })?;
        let result = scanner.scan(table, projection, filters)?;
        trace.external_ms = result.external_ms;
        // Residual filters still apply (the handler may have pushed
        // only part of them).
        let work = RowWork::new(filters, Vec::new(), plan, ctx);
        let filtered = work.apply(result.batch)?;
        work.account(&mut trace, filtered.batch.num_rows() as u64);
        return Ok(finished(filtered, trace));
    }

    // --- dynamic semijoin reduction (§4.6) -------------------------------
    let mut reducers: Vec<(usize, Arc<RuntimeFilter>)> = Vec::new();
    let mut partition_value_allowlist: Option<(usize, HashSet<Value>)> = None;
    // A build with no key: nothing can match.
    let nothing = |trace| -> Result<ScanRead<'p>> {
        let empty = SelBatch::from_batch(VectorBatch::empty(&out_schema)?);
        Ok(finished(empty, trace))
    };
    for spec in semijoin_filters {
        let (batch, sub_trace) = execute(&spec.source, ctx)?;
        trace.children.push(sub_trace);
        let keys = batch.column(spec.source_key);
        if spec.is_partition_col {
            // Dynamic partition pruning: collect the exact value set.
            let values: Vec<Value> = (0..keys.len())
                .map(|i| keys.get(i))
                .filter(|v| !v.is_null())
                .collect();
            if values.is_empty() {
                return nothing(trace);
            }
            let entry =
                partition_value_allowlist.get_or_insert_with(|| (spec.target_col, HashSet::new()));
            if entry.0 == spec.target_col {
                entry.1.extend(values);
            }
        } else {
            let Some(filter) = RuntimeFilter::build(keys) else {
                return nothing(trace);
            };
            reducers.push((spec.target_col, Arc::new(filter)));
        }
    }

    // --- partition directory resolution ----------------------------------
    let cat_table = ctx.ms.get_table(&table.db, &table.name)?;
    let data_cols = cat_table.schema.len();
    // Schema columns past the partition keys are a `row_ids` scan's
    // virtual identity columns.
    let part_end = data_cols + cat_table.partition_keys.len();
    // (directory, partition values) pairs to read.
    let mut dirs: Vec<(DfsPath, Vec<Value>)> = Vec::new();
    if cat_table.is_partitioned() {
        let selected: Vec<(&String, &hive_metastore::PartitionInfo)> = match partitions {
            Some(list) => list
                .iter()
                .filter_map(|d| cat_table.partitions.get_key_value(d))
                .collect(),
            None => cat_table.partitions.iter().collect(),
        };
        for (_, info) in selected {
            // Dynamic partition pruning by reducer value set.
            if let Some((target, allow)) = &partition_value_allowlist {
                let schema_col = projection[*target];
                let key_idx = schema_col - data_cols;
                if let Some(v) = info.values.get(key_idx) {
                    if !allow.iter().any(|a| a.group_eq(v)) {
                        continue;
                    }
                }
            }
            // Partition-only filter conjuncts evaluated per directory.
            if !partition_dir_matches(filters, projection, data_cols, &info.values) {
                continue;
            }
            dirs.push((DfsPath::new(&info.location), info.values.clone()));
        }
    } else {
        dirs.push((DfsPath::new(&cat_table.location), Vec::new()));
    }

    // --- sarg construction -------------------------------------------------
    // File-level sarg over *data* columns only (partition columns are
    // constant per directory and were handled above).
    let mut sarg_preds: Vec<ColumnPredicate> = Vec::new();
    for f in filters {
        for part in f.split_conjunction() {
            if let Some(p) = to_column_predicate(part, projection, data_cols) {
                sarg_preds.push(p);
            }
        }
    }
    for (target, filter) in &reducers {
        // Reducer target col → data column index.
        let col = projection[*target];
        if col < data_cols {
            sarg_preds.push(filter.predicate(col));
        }
    }
    let acid = table.acid;
    let id_shift = if acid { ACID_COLS } else { 0 };
    let file_sarg = SearchArgument::with(
        sarg_preds
            .iter()
            .map(|p| p.with_column(p.column() + id_shift))
            .collect(),
    );

    // --- shared-work scan reuse (§4.5) -----------------------------------
    // When several plan sites scan the same table shape with different
    // filters, the raw read happens once; each consumer applies its own
    // filters below. (The sarg skip is forfeited on the shared read.)
    let share_key = ctx.scan_share_key(plan);
    // The pushed filters are row work on either path: a shared scan
    // publishes its raw rows and applies its own filters to them.
    let work = RowWork::new(filters, reducers, plan, ctx);
    if let Some(key) = share_key {
        if let Some(raw) = ctx.shared_get(key) {
            let mut reuse = NodeTrace {
                label: format!("SharedScanReuse({})", table.qualified_name),
                rows_out: raw.num_rows() as u64,
                shared_reuse: true,
                ..Default::default()
            };
            std::mem::swap(&mut reuse.children, &mut trace.children);
            trace.children.push(reuse);
            trace.rows_in = raw.num_rows() as u64;
            let filtered = work.apply(raw)?;
            let rows_in = trace.rows_in;
            work.account(&mut trace, rows_in);
            return Ok(finished(filtered, trace));
        }
    }
    // A shared scan reads without sargs so every consumer's rows are
    // present in the published batch.
    let file_sarg = if share_key.is_some() {
        SearchArgument::new()
    } else {
        file_sarg
    };

    // --- read --------------------------------------------------------------
    let io_before = ctx.fs.stats().snapshot();
    let charges_before = ctx.fault_charges();
    let slow_before = ctx.fs.fault().slow_penalty_ms();
    let cache_bytes_served = || {
        ctx.llap.map_or(0, |l| {
            l.cache()
                .stats()
                .bytes_served_from_cache
                .load(std::sync::atomic::Ordering::Relaxed)
        })
    };
    let cache_bytes_before = cache_bytes_served();

    // Data-column projection (schema col indexes < data_cols).
    let proj_data: Vec<(usize, usize)> = projection
        .iter()
        .enumerate()
        .filter(|(_, &sc)| sc < data_cols)
        .map(|(out_i, &sc)| (out_i, sc))
        .collect();
    let proj_part: Vec<(usize, usize)> = projection
        .iter()
        .enumerate()
        .filter(|(_, &sc)| (data_cols..part_end).contains(&sc))
        .map(|(out_i, &sc)| (out_i, sc - data_cols))
        .collect();
    // (output slot, identity column) pairs: a `row_ids` scan surfaces
    // the record identities, so its row groups fetch these whatever
    // their visibility class.
    let proj_ids: Vec<(usize, usize)> = projection
        .iter()
        .enumerate()
        .filter(|(_, &sc)| sc >= part_end)
        .map(|(out_i, &sc)| (out_i, sc - part_end))
        .collect();
    if !proj_ids.is_empty() && !acid {
        return Err(HiveError::Execution(format!(
            "{} is not an ACID table: it has no row identities to scan",
            table.qualified_name
        )));
    }

    // --- morsel enumeration (serial) ---------------------------------------
    // Directory listing, ACID snapshot resolution, delete-delta loads,
    // and footer opens stay on this thread in deterministic order; the
    // work list is one morsel per selected row group (the stripe-sized
    // unit morsel-driven schedulers dispatch). `CorcFile` carries only
    // the DFS handle and an `Arc<Footer>`, so cloning it into each
    // morsel is cheap and shares the decoded footer.
    //
    // An ACID row group's visibility is decided here, from the footer:
    // one the snapshot sees nothing of gets no morsel, one it sees all
    // of is read like a non-ACID row group (`hive_acid::visibility`).
    // One write-id list serves every directory of the scan.
    let wlist = acid.then(|| ctx.snapshots.write_ids(&table.qualified_name));
    let mut delete_sets: Vec<DeleteSet> = Vec::new();
    let mut morsels: Vec<Morsel> = Vec::new();
    for (dir_idx, (dir, _)) in dirs.iter().enumerate() {
        let files: Vec<DfsPath> = match &wlist {
            Some(wlist) => {
                let snap = resolve_snapshot(ctx.fs, dir, wlist);
                delete_sets.push(DeleteSet::load_each(ctx.fs, &snap, wlist, |path, read| {
                    let what = || format!("load delete delta {path}");
                    crate::recovery::retry_transient(ctx, what, read)
                })?);
                snap.base
                    .iter()
                    .chain(&snap.insert_deltas)
                    .flat_map(|d| ctx.fs.list_files_recursive(&d.path))
                    .map(|(p, _)| p)
                    .collect()
            }
            None => ctx
                .fs
                .list_files_recursive(dir)
                .into_iter()
                .map(|(p, _)| p)
                .collect(),
        };
        let vis = wlist
            .as_ref()
            .map(|w| Visibility::new(w, &delete_sets[dir_idx]));
        for path in files {
            let file = open_file(ctx, &path)?;
            for rg in file.selected_row_groups(&file_sarg) {
                let class = vis.map_or(RowGroupClass::All, |v| v.classify_row_group(&file, rg));
                if class != RowGroupClass::None {
                    morsels.push(Morsel {
                        file: file.clone(),
                        rg,
                        dir_idx,
                        class,
                    });
                }
            }
        }
    }

    // --- morsel execution --------------------------------------------------
    // Workers claim morsels from a shared counter; the count is gated by
    // live LLAP executor leases. Parts land indexed by morsel, so their
    // order — and with it the assembled result — is byte-identical to
    // the serial loop at any worker count.
    let (workers, _lease) = ctx.lease_workers(morsels.len());
    trace.parallel_workers = workers as u64;
    // Each worker does its part's row work, so assembly gathers only
    // survivors; a shared scan's parts stay raw for publishing.
    let mut parts = crate::par::parallel_map(workers, morsels.len(), |i| {
        let m = &morsels[i];
        let b = read_row_group(
            ctx,
            &m.file,
            m.rg,
            &proj_data,
            &proj_part,
            &proj_ids,
            &dirs[m.dir_idx].1,
            id_shift,
            m.class,
            wlist
                .as_ref()
                .map(|w| Visibility::new(w, &delete_sets[m.dir_idx])),
            &out_schema,
        )?;
        match share_key {
            Some(_) => Ok(SelBatch::from_batch(b)),
            None => work.apply(b),
        }
    })?;
    // The scan's input cardinality is the raw morsel rows, before any
    // filter.
    trace.rows_in = parts.iter().map(|p| p.batch.num_rows() as u64).sum();
    if share_key.is_none() {
        let rows_in = trace.rows_in;
        work.account(&mut trace, rows_in);
    }
    if parts.is_empty() {
        parts.push(SelBatch::from_batch(VectorBatch::empty(&out_schema)?));
    }

    let io_after = ctx.fs.stats().snapshot().since(&io_before);
    trace.bytes_disk = io_after.bytes_read;
    trace.io_ops = io_after.reads + io_after.lists;
    // Fault-recovery work done inside this scan's reads: transient-read
    // retries (with their backoff waits) and injected slow-I/O latency.
    let charges = ctx.fault_charges();
    trace.fragment_retries += charges.transient_retries - charges_before.transient_retries;
    trace.backoff_wait_ms += charges.backoff_wait_ms - charges_before.backoff_wait_ms;
    trace.injected_delay_ms += ctx.fs.fault().slow_penalty_ms() - slow_before;
    trace.bytes_cache = cache_bytes_served().saturating_sub(cache_bytes_before);

    Ok(ScanRead {
        parts,
        trace,
        publish: share_key.map(|key| (key, work)),
    })
}

fn open_file(ctx: &ExecContext, path: &DfsPath) -> Result<CorcFile> {
    crate::recovery::retry_transient(
        ctx,
        || format!("open {path}"),
        || match ctx.llap {
            Some(l) if ctx.conf.llap_enabled => l.metadata().open(ctx.fs, path),
            _ => CorcFile::open(ctx.fs, path),
        },
    )
}

/// One unit of parallel scan work: a single selected row group of one
/// file (the ORC-stripe/row-group granularity the tentpole targets).
struct Morsel {
    file: CorcFile,
    rg: usize,
    /// Index into the scan's `(dir, partition values)` list.
    dir_idx: usize,
    /// What the snapshot sees of the row group (`All` off ACID tables).
    class: RowGroupClass,
}

/// Read one row group into a standalone batch (runs on a morsel worker).
/// Identity columns are fetched only as far as `class` needs them to
/// decide visibility, or `proj_ids` surfaces them.
#[allow(clippy::too_many_arguments)]
fn read_row_group(
    ctx: &ExecContext,
    file: &CorcFile,
    rg: usize,
    proj_data: &[(usize, usize)],
    proj_part: &[(usize, usize)],
    proj_ids: &[(usize, usize)],
    part_values: &[Value],
    id_shift: usize,
    class: RowGroupClass,
    vis: Option<Visibility>,
    out_schema: &Schema,
) -> Result<VectorBatch> {
    let rows = file.row_group_rows(rg) as usize;
    let needs = class.needs();
    let mut ids: [Option<Arc<ColumnVector>>; ACID_COLS] = Default::default();
    for (c, slot) in ids.iter_mut().enumerate().take(id_shift) {
        if needs[c] || proj_ids.iter().any(|&(_, id)| id == c) {
            *slot = Some(fetch_chunk(ctx, file, rg, c)?);
        }
    }
    let data: Vec<Arc<ColumnVector>> = proj_data
        .iter()
        .map(|(_, sc)| fetch_chunk(ctx, file, rg, sc + id_shift))
        .collect::<Result<_>>()?;
    let keep: Option<Vec<u32>> = match (class, vis) {
        (RowGroupClass::PerRow { tombstones }, Some(vis)) => {
            vis.visible_rows(rows, tombstones, std::array::from_fn(|c| ids[c].as_deref()))?
        }
        _ => None,
    };
    let kept_rows = keep.as_ref().map_or(rows, Vec::len);
    // Assemble the output-ordered batch. When visibility kept every row
    // (non-ACID files, ACID row groups the snapshot sees whole) the
    // fetched `Arc`s are shared as-is — no bytes move between the cache
    // and the batch.
    let mut cols: Vec<Option<Arc<ColumnVector>>> = vec![None; out_schema.len()];
    let placed = proj_data
        .iter()
        .zip(&data)
        .map(|((out_i, _), col)| (*out_i, Some(col)))
        .chain(
            proj_ids
                .iter()
                .map(|&(out_i, id)| (out_i, ids[id].as_ref())),
        );
    for (out_i, col) in placed {
        cols[out_i] = col.map(|col| match &keep {
            None => col.clone(),
            Some(keep) => Arc::new(col.take(keep)),
        });
    }
    for (out_i, key_idx) in proj_part {
        let v = part_values.get(*key_idx).unwrap_or(&Value::Null);
        let dt = &out_schema.field(*out_i).data_type;
        cols[*out_i] = Some(Arc::new(ColumnVector::constant(v, dt, kept_rows)?));
    }
    let cols: Vec<Arc<ColumnVector>> = cols
        .into_iter()
        .map(|c| c.ok_or_else(|| HiveError::Execution("unfilled scan column".into())))
        .collect::<Result<Vec<_>>>()?;
    VectorBatch::from_arcs(out_schema.clone(), cols, kept_rows)
}

/// Fetch one column chunk, through the LLAP cache when enabled
/// (the I/O elevator path, §5.1). DFS loads retry transient injected
/// errors; cached chunks detected as corrupt degrade back to the DFS
/// load path. The cache's `Arc` is handed out directly (zero-copy), and
/// a miss decodes into the cache's spare buffers.
///
/// Late materialization: dictionary-encoded string chunks stay codes +
/// shared dictionary all the way through the cache and the operators
/// (§3.1/§3.3 — LLAP caches data "in its encoded format").
fn fetch_chunk(
    ctx: &ExecContext,
    file: &CorcFile,
    rg: usize,
    col: usize,
) -> Result<Arc<ColumnVector>> {
    let what = || format!("chunk rg={rg} col={col} of file {:?}", file.file_id());
    let read = |spares| file.read_column_chunk_encoded_with(rg, col, spares);
    match ctx.llap {
        Some(l) if ctx.conf.llap_enabled => {
            let key = hive_llap::cache::ChunkKey {
                file: file.file_id(),
                column: col,
                row_group: rg,
            };
            let fault = ctx.fs.fault();
            let fault = fault.is_active().then(|| fault.as_ref());
            let cache = l.cache();
            cache.get_or_load_with_fault(key, fault, || {
                crate::recovery::retry_transient(ctx, what, || read(Some(cache.spares())))
            })
        }
        _ => Ok(Arc::new(crate::recovery::retry_transient(
            ctx,
            what,
            || read(None),
        )?)),
    }
}

/// Residual row-level filters as a selection over `batch`, row by row
/// (the row-mode engine) — no row movement; compaction is deferred to
/// the next pipeline breaker.
fn apply_row_filters(batch: &VectorBatch, filters: &[ScalarExpr]) -> Result<SelVec> {
    let Some(pred) = ScalarExpr::conjunction(filters.to_vec()) else {
        return Ok(SelVec::All(batch.num_rows()));
    };
    Ok(SelVec::Idx(filter_indices_rowmode(&pred, batch)?))
}

/// Evaluate partition-column-only conjuncts against a directory's
/// partition values; false ⇒ skip the directory.
fn partition_dir_matches(
    filters: &[ScalarExpr],
    projection: &[usize],
    data_cols: usize,
    part_values: &[Value],
) -> bool {
    // Build a pseudo-row over the scan output: partition columns carry
    // the directory's values, everything else NULL.
    let mut row = vec![Value::Null; projection.len()];
    let mut has_part_col = false;
    let part_cols = data_cols..data_cols + part_values.len();
    for (out_i, &sc) in projection.iter().enumerate() {
        if part_cols.contains(&sc) {
            row[out_i] = part_values[sc - data_cols].clone();
            has_part_col = true;
        }
    }
    if !has_part_col {
        return true;
    }
    for f in filters {
        for part in f.split_conjunction() {
            // Only conjuncts entirely over partition columns are
            // decisive per-directory.
            let cols = part.columns();
            if cols.is_empty()
                || !cols
                    .iter()
                    .all(|&c| projection.get(c).is_some_and(|sc| part_cols.contains(sc)))
            {
                continue;
            }
            if eval_scalar(part, &row) != Ok(Value::Boolean(true)) {
                return false;
            }
        }
    }
    true
}

/// Convert a supported conjunct to a sargable [`ColumnPredicate`] over
/// *data-column* indexes. Returns `None` for unsupported shapes.
fn to_column_predicate(
    e: &ScalarExpr,
    projection: &[usize],
    data_cols: usize,
) -> Option<ColumnPredicate> {
    let data_col = |c: usize| -> Option<usize> {
        let sc = *projection.get(c)?;
        (sc < data_cols).then_some(sc)
    };
    match e {
        ScalarExpr::Binary { op, left, right } => {
            let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column(c), ScalarExpr::Literal(v)) if !v.is_null() => {
                    (*c, v.clone(), *op)
                }
                (ScalarExpr::Literal(v), ScalarExpr::Column(c)) if !v.is_null() => {
                    let flipped = match op {
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::LtEq => BinaryOp::GtEq,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::GtEq => BinaryOp::LtEq,
                        o => *o,
                    };
                    (*c, v.clone(), flipped)
                }
                _ => return None,
            };
            let dc = data_col(col)?;
            Some(match op {
                BinaryOp::Eq => ColumnPredicate::Eq(dc, lit),
                BinaryOp::Lt => ColumnPredicate::Lt(dc, lit),
                BinaryOp::LtEq => ColumnPredicate::Le(dc, lit),
                BinaryOp::Gt => ColumnPredicate::Gt(dc, lit),
                BinaryOp::GtEq => ColumnPredicate::Ge(dc, lit),
                _ => return None,
            })
        }
        ScalarExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let ScalarExpr::Column(c) = expr.as_ref() {
                let dc = data_col(*c)?;
                let vals: Option<Vec<Value>> = list
                    .iter()
                    .map(|i| match i {
                        ScalarExpr::Literal(v) if !v.is_null() => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                Some(ColumnPredicate::In(dc, vals?))
            } else {
                None
            }
        }
        ScalarExpr::IsNull { expr, negated } => {
            if let ScalarExpr::Column(c) = expr.as_ref() {
                let dc = data_col(*c)?;
                Some(if *negated {
                    ColumnPredicate::IsNotNull(dc)
                } else {
                    ColumnPredicate::IsNull(dc)
                })
            } else {
                None
            }
        }
        _ => None,
    }
}
