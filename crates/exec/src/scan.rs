//! Table scans: ACID snapshot reads, partition handling, sarg pushdown,
//! dynamic semijoin reduction, LLAP cache routing, and federation
//! dispatch.

use crate::engine::{ExecContext, NodeTrace};
use crate::kernels::{filter_indices, filter_indices_rowmode};
use hive_acid::{resolve_snapshot, DeleteSet, RowGroupClass, Visibility, ACID_COLS};
use hive_common::{ColumnVector, HiveError, Result, Schema, SelBatch, SelVec, Value, VectorBatch};
use hive_corc::{ColumnPredicate, CorcFile, SearchArgument};
use hive_dfs::DfsPath;
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::plan::{LogicalPlan, SemiJoinFilterSpec};
use hive_optimizer::ScalarExpr;
use hive_sql::BinaryOp;
use std::collections::HashSet;
use std::sync::Arc;

type ExecFn<'f> = &'f dyn Fn(&LogicalPlan, &ExecContext) -> Result<(VectorBatch, NodeTrace)>;

/// Execute a Scan node. The result carries residual row-level filters as
/// a selection over the read batch — downstream operators consume the
/// `(batch, selection)` pair without compacting (§3.3's late filtering).
///
/// This is [`read_scan`] plus assembly: a single part keeps the row
/// group's `Arc` columns as they are, several parts take one
/// [`VectorBatch::concat_selected`] (each survivor copied exactly once).
pub fn execute_scan(
    plan: &LogicalPlan,
    ctx: &ExecContext,
    exec: ExecFn,
) -> Result<(SelBatch, NodeTrace)> {
    let mut read = read_scan(plan, ctx, exec)?;
    let out = match read.parts.len() {
        1 => read.parts.swap_remove(0),
        _ => SelBatch::from_batch(VectorBatch::concat_selected(&plan.schema(), &read.parts)?),
    };
    if let Some(key) = read.publish {
        // A shared scan runs unfused: `out` is every raw row.
        ctx.shared_put(key, out.batch.clone());
    }
    let filtered = read.residual.apply(out, ctx)?;
    read.trace.rows_out = filtered.num_rows() as u64;
    Ok((filtered, read.trace))
}

/// Execute a Scan node without assembling it: one filtered part per
/// morsel, in morsel enumeration order, for a consumer that folds parts
/// (the aggregate). Concatenating the parts' selected rows gives
/// exactly [`execute_scan`]'s rows; the trace is the same trace. The
/// caller has checked that the scan is not a shared-work site — a
/// shared scan must publish its assembled rows.
pub(crate) fn execute_scan_parts(
    plan: &LogicalPlan,
    ctx: &ExecContext,
    exec: ExecFn,
) -> Result<(Vec<SelBatch>, NodeTrace)> {
    let ScanRead {
        parts,
        residual,
        mut trace,
        ..
    } = read_scan(plan, ctx, exec)?;
    let parts = parts
        .into_iter()
        .map(|p| residual.apply(p, ctx))
        .collect::<Result<Vec<_>>>()?;
    trace.rows_out = parts.iter().map(|p| p.num_rows() as u64).sum();
    Ok((parts, trace))
}

/// A scan's rows before assembly.
struct ScanRead<'p> {
    /// At least one part. A storage read gives one per morsel in
    /// enumeration order, each carrying its fused keep-list as its
    /// selection; a federated scan, a shared-work reuse and an empty
    /// reducer give a single finished part.
    parts: Vec<SelBatch>,
    /// What the rows still owe; batch-local, so it applies to one part
    /// or to the assembled batch alike.
    residual: Residual<'p>,
    /// Everything but `rows_out`.
    trace: NodeTrace,
    /// Share key to publish the assembled raw rows under.
    publish: Option<u64>,
}

/// Row-level work left after the read: the pushed filters, unless the
/// fused pipeline already ran them inside the morsel workers, and the
/// semijoin reducers' row checks (the Bloom filter may let some row
/// groups through).
#[derive(Default)]
struct Residual<'p> {
    filters: &'p [ScalarExpr],
    reducer_preds: Vec<ColumnPredicate>,
}

impl Residual<'_> {
    fn apply(&self, sb: SelBatch, ctx: &ExecContext) -> Result<SelBatch> {
        let sb = if self.filters.is_empty() {
            sb
        } else {
            // Unfused parts carry the identity selection.
            apply_row_filters(sb.batch, self.filters, ctx)?
        };
        Ok(apply_reducer_row_checks(sb, &self.reducer_preds))
    }
}

/// Everything a scan does short of assembling its rows: reducers,
/// partition and snapshot resolution, morsel enumeration, and the
/// morsel-parallel read with the fused residual predicate.
fn read_scan<'p>(plan: &'p LogicalPlan, ctx: &ExecContext, exec: ExecFn) -> Result<ScanRead<'p>> {
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
        residual: Residual::default(),
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
        let filtered = apply_row_filters(result.batch, filters, ctx)?;
        return Ok(finished(filtered, trace));
    }

    // --- dynamic semijoin reduction (§4.6) -------------------------------
    let mut extra_preds: Vec<ColumnPredicate> = Vec::new();
    let mut partition_value_allowlist: Option<(usize, HashSet<Value>)> = None;
    for spec in semijoin_filters {
        let reducer = run_reducer(spec, ctx, exec, &mut trace)?;
        let Some((min, max, bloom, values)) = reducer else {
            // Empty build side: nothing can match.
            let empty = SelBatch::from_batch(VectorBatch::empty(&out_schema)?);
            return Ok(finished(empty, trace));
        };
        if spec.is_partition_col {
            // Dynamic partition pruning: collect the exact value set.
            let entry =
                partition_value_allowlist.get_or_insert_with(|| (spec.target_col, HashSet::new()));
            if entry.0 == spec.target_col {
                entry.1.extend(values);
            }
        } else {
            extra_preds.push(ColumnPredicate::BloomRange {
                column: spec.target_col,
                min,
                max,
                bloom,
            });
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
    for p in &extra_preds {
        // Reducer target col → data column index.
        let col = projection[p.column()];
        if col < data_cols {
            sarg_preds.push(retarget(p, col));
        }
    }
    let acid = table.acid;
    let id_shift = if acid { ACID_COLS } else { 0 };
    let file_sarg = SearchArgument::with(
        sarg_preds
            .iter()
            .map(|p| retarget(p, p.column() + id_shift))
            .collect(),
    );

    // --- shared-work scan reuse (§4.5) -----------------------------------
    // When several plan sites scan the same table shape with different
    // filters, the raw read happens once; each consumer applies its own
    // filters below. (The sarg skip is forfeited on the shared read.)
    let share_key = ctx.scan_share_key(plan);
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
            let residual = Residual {
                filters,
                reducer_preds: extra_preds,
            };
            let filtered = residual.apply(SelBatch::from_batch(raw), ctx)?;
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
                delete_sets.push(crate::recovery::retry_transient(
                    ctx,
                    || "load delete deltas".into(),
                    || DeleteSet::load(ctx.fs, &snap, wlist),
                )?);
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
    // Fused residual predicate (PIR): compile the pushed filters once —
    // conjuncts ordered by the table's column statistics — and evaluate
    // them inside each morsel worker, so assembly gathers only
    // survivors instead of concatenating full morsels and filtering the
    // result. Shared scans must publish raw rows (other plan sites
    // apply different filters), so they keep the eager path.
    let fused: Option<crate::pir::PredPipeline> =
        if crate::pir::enabled(ctx.conf) && share_key.is_none() && !filters.is_empty() {
            let tstats = ctx.ms.table_stats(&table.qualified_name);
            ScalarExpr::conjunction(filters.to_vec()).map(|pred| {
                crate::pir::PredPipeline::compile(
                    &pred,
                    &out_schema,
                    Some((&*tstats, projection)),
                    ctx.conf.effective_histograms_enabled(),
                )
            })
        } else {
            None
        };
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
        // No keep-list = every row passed: the identity selection.
        let sel = match &fused {
            Some(p) => p.select(&b, crate::pir::SelRef::All(b.num_rows()))?,
            None => None,
        };
        let sel = sel.map_or(SelVec::All(b.num_rows()), SelVec::Idx);
        Ok(SelBatch { batch: b, sel })
    })?;
    // The scan's input cardinality is the raw morsel rows, before any
    // filter.
    trace.rows_in = parts.iter().map(|p| p.batch.num_rows() as u64).sum();
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
        // The fused path already applied `filters` per morsel; only the
        // reducers' row checks remain.
        residual: Residual {
            filters: if fused.is_some() { &[] } else { filters },
            reducer_preds: extra_preds,
        },
        trace,
        publish: share_key,
    })
}

/// Run one semijoin reducer's source subplan; `None` when the build side
/// is empty.
#[allow(clippy::type_complexity)]
fn run_reducer(
    spec: &SemiJoinFilterSpec,
    ctx: &ExecContext,
    exec: ExecFn,
    trace: &mut NodeTrace,
) -> Result<Option<(Value, Value, hive_corc::BloomFilter, Vec<Value>)>> {
    let (batch, sub_trace) = exec(&spec.source, ctx)?;
    trace.children.push(sub_trace);
    if batch.num_rows() == 0 {
        return Ok(None);
    }
    // Bloom sizing: with histograms on, size the bit array from the
    // optimizer's NDV estimate for the build key and stream values in
    // without materializing the distinct set. The hint only moves the
    // false-positive rate — the reducer is a pre-filter, so results
    // are identical either way.
    let ndv_hint = if ctx.conf.effective_histograms_enabled() {
        hive_optimizer::stats::estimate_key_ndv(
            &spec.source,
            spec.source_key,
            &hive_optimizer::stats::GatedStats {
                inner: ctx.ms,
                use_histograms: true,
                feedback: Default::default(),
            },
        )
        .map(|n| n as usize)
    } else {
        None
    };
    let Some((min, max, bloom)) =
        crate::join::build_runtime_filter_sized(&batch, spec.source_key, ndv_hint)
    else {
        return Ok(None);
    };
    // The exact value list feeds dynamic partition pruning only; the
    // Bloom path never reads it.
    let values: Vec<Value> = if spec.is_partition_col {
        let col = batch.column(spec.source_key);
        (0..col.len())
            .map(|i| col.get(i))
            .filter(|v| !v.is_null())
            .collect()
    } else {
        Vec::new()
    };
    Ok(Some((min, max, bloom, values)))
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
/// load path.
///
/// With `hive.exec.selvec.enabled` the cache's `Arc` is handed out
/// directly (zero-copy); the legacy flow deep-copies the chunk into a
/// private column and charges `bytes_copied_out`.
fn fetch_chunk(
    ctx: &ExecContext,
    file: &CorcFile,
    rg: usize,
    col: usize,
) -> Result<Arc<ColumnVector>> {
    let what = || format!("chunk rg={rg} col={col} of file {:?}", file.file_id());
    // Late materialization: keep dictionary-encoded string chunks as
    // codes + shared dictionary all the way through the cache and the
    // operators (§3.1/§3.3 — LLAP caches data "in its encoded format").
    let encoded = ctx.conf.effective_dictionary_enabled();
    let read = || {
        if encoded {
            file.read_column_chunk_encoded(rg, col)
        } else {
            file.read_column_chunk(rg, col)
        }
    };
    match ctx.llap {
        Some(l) if ctx.conf.llap_enabled => {
            let key = hive_llap::cache::ChunkKey {
                file: file.file_id(),
                column: col,
                row_group: rg,
            };
            let fault = ctx.fs.fault();
            let fault = fault.is_active().then(|| fault.as_ref());
            let arc = l.cache().get_or_load_with_fault(key, fault, || {
                crate::recovery::retry_transient(ctx, what, read)
            })?;
            if ctx.conf.effective_selvec_enabled() {
                Ok(arc)
            } else {
                l.cache().stats().bytes_copied_out.fetch_add(
                    arc.approx_bytes() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                Ok(Arc::new((*arc).clone()))
            }
        }
        _ => Ok(Arc::new(crate::recovery::retry_transient(ctx, what, read)?)),
    }
}

/// Apply residual row-level filters as a selection over `batch` — no
/// row movement; compaction is deferred to the next pipeline breaker.
fn apply_row_filters(
    batch: VectorBatch,
    filters: &[ScalarExpr],
    ctx: &ExecContext,
) -> Result<SelBatch> {
    let Some(pred) = ScalarExpr::conjunction(filters.to_vec()) else {
        return Ok(SelBatch::from_batch(batch));
    };
    let idx = if ctx.conf.vectorized {
        filter_indices(&pred, &batch)?
    } else {
        filter_indices_rowmode(&pred, &batch)?
    };
    SelBatch::new(batch, SelVec::Idx(idx))
}

/// Row-level check of non-partition semijoin reducers (the Bloom filter
/// may let some row groups through); narrows the selection in place.
fn apply_reducer_row_checks(sb: SelBatch, extra_preds: &[ColumnPredicate]) -> SelBatch {
    if extra_preds.is_empty() {
        return sb;
    }
    let mut positions: Vec<u32> = (0..sb.num_rows() as u32).collect();
    for pr in extra_preds {
        pr.retain_matching(sb.batch.column(pr.column()), &mut positions, |p| {
            sb.sel.index(p as usize)
        });
    }
    let sel = sb.sel.compose(&positions);
    SelBatch {
        batch: sb.batch,
        sel,
    }
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

/// Rebuild a predicate with a different column index.
fn retarget(p: &ColumnPredicate, col: usize) -> ColumnPredicate {
    match p {
        ColumnPredicate::Eq(_, v) => ColumnPredicate::Eq(col, v.clone()),
        ColumnPredicate::Lt(_, v) => ColumnPredicate::Lt(col, v.clone()),
        ColumnPredicate::Le(_, v) => ColumnPredicate::Le(col, v.clone()),
        ColumnPredicate::Gt(_, v) => ColumnPredicate::Gt(col, v.clone()),
        ColumnPredicate::Ge(_, v) => ColumnPredicate::Ge(col, v.clone()),
        ColumnPredicate::Between(_, a, b) => ColumnPredicate::Between(col, a.clone(), b.clone()),
        ColumnPredicate::In(_, vs) => ColumnPredicate::In(col, vs.clone()),
        ColumnPredicate::IsNull(_) => ColumnPredicate::IsNull(col),
        ColumnPredicate::IsNotNull(_) => ColumnPredicate::IsNotNull(col),
        ColumnPredicate::BloomRange {
            min, max, bloom, ..
        } => ColumnPredicate::BloomRange {
            column: col,
            min: min.clone(),
            max: max.clone(),
            bloom: bloom.clone(),
        },
    }
}
