//! The driver pipeline (paper Figure 2): statement dispatch, the SELECT
//! path with results cache / MV rewriting / federation pushdown /
//! re-optimization, and the DML/DDL implementations.

use crate::mv;
use crate::results_cache::{CacheOutcome, CachedResult, QueryResultsCache};
use crate::session::{QueryResult, Session};
use hive_acid::writer::record_id_at;
use hive_acid::{resolve_snapshot, AcidScan, AcidWriter, Compactor};
use hive_common::{
    EngineVersion, HiveConf, HiveError, RecordId, Result, Row, Schema, TxnId, Value, VectorBatch,
    WriteId,
};
use hive_corc::SearchArgument;
use hive_dfs::DfsPath;
use hive_exec::{execute_sel as exec_plan_sel, ExecContext, NodeTrace, SnapshotProvider};
use hive_llap::TriggerVerdict;
use hive_metastore::{
    CompactionKind, CompactionState, LockKey, LockMode, Metastore, Table, TableBuilder, TableStats,
    TableType, TableVersion, ValidTxnList, ValidWriteIdList,
};
use hive_optimizer::fingerprint::fingerprint;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::rules::node_exprs;
use hive_optimizer::{
    Analyzer, DmlKind, DmlPlan, MetastoreCatalog, Optimizer, OptimizerContext, ScalarExpr,
};
use hive_sql as ast;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[cfg(test)]
thread_local! {
    /// How often this thread entered [`Session::optimize_analyzed`]: what
    /// lets a test say "a results-cache hit does not plan" without a clock.
    pub(crate) static OPTIMIZE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-query snapshot provider: one ValidTxnList captured at query
/// start, narrowed per table on demand and memoized (the paper's
/// "each scan operation in the plan is bound to a WriteId list during
/// compilation").
pub(crate) struct QuerySnapshots<'a> {
    ms: &'a Metastore,
    txn_list: ValidTxnList,
    reader: Option<TxnId>,
    cache: Mutex<HashMap<String, ValidWriteIdList>>,
}

impl<'a> QuerySnapshots<'a> {
    pub(crate) fn new(ms: &'a Metastore, reader: Option<TxnId>) -> Self {
        QuerySnapshots {
            ms,
            txn_list: ms.valid_txn_list(),
            reader,
            cache: Mutex::new(HashMap::new()),
        }
    }
}

impl SnapshotProvider for QuerySnapshots<'_> {
    fn write_ids(&self, table: &str) -> ValidWriteIdList {
        let mut g = self.cache.lock();
        g.entry(table.to_string())
            .or_insert_with(|| self.ms.valid_write_ids(table, &self.txn_list, self.reader))
            .clone()
    }
}

/// A planned query plus the feedback context it was planned under —
/// what the §4.2 misestimate ladder needs to persist an observation and
/// re-plan the same query with it substituted.
pub(crate) struct Planned {
    pub plan: LogicalPlan,
    pub used_mv: bool,
    /// Fingerprint of the *analyzed* (pre-optimization) plan: the
    /// runtime-stats key for feedback, stable across plan choices.
    pub analyzed_fp: String,
    /// Feedback the optimizer saw (persisted + in-flight), so the
    /// cardinality guard's estimates match the planner's.
    pub feedback: HashMap<String, u64>,
}

/// What one run through the re-optimization ladder produced.
struct Executed {
    batch: VectorBatch,
    trace: NodeTrace,
    reexecuted: bool,
    peak_memory_bytes: u64,
}

/// A results-cache claim that is given back when dropped unfilled, so no
/// error path out of a SELECT leaves identical queries waiting on it.
struct Claim<'a> {
    cache: &'a QueryResultsCache,
    key: u64,
}

impl Claim<'_> {
    fn fill(self, result: CachedResult, snapshot: Vec<(String, TableVersion)>) {
        self.cache.fill(self.key, result, snapshot);
        // Filled is settled: the key may already be someone else's claim.
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.abandon(self.key);
    }
}

/// An open transaction that aborts when dropped uncommitted, so no
/// error path out of a write statement leaves it pinning `min_open` and
/// holding its locks.
struct TxnGuard<'a> {
    ms: &'a Metastore,
    id: TxnId,
    open: bool,
}

impl<'a> TxnGuard<'a> {
    fn begin(ms: &'a Metastore) -> Self {
        TxnGuard {
            ms,
            id: ms.open_txn(),
            open: true,
        }
    }

    /// Commit. A commit that fails has nothing left to abort: the
    /// metastore rolls back the loser of first-commit-wins itself.
    fn commit(mut self) -> Result<()> {
        self.open = false;
        self.ms.commit_txn(self.id)
    }
}

impl Drop for TxnGuard<'_> {
    fn drop(&mut self) {
        if self.open {
            let _ = self.ms.abort_txn(self.id);
        }
    }
}

impl Session {
    pub(crate) fn execute_statement(&self, stmt: ast::Statement) -> Result<QueryResult> {
        // Engine-version SQL surface gate (the Figure 7 "could not be
        // executed in Hive 1.2" mechanism).
        let conf = self.server.conf();
        if conf.version == EngineVersion::V1_2 {
            let missing: Vec<_> = ast::required_features(&stmt)
                .into_iter()
                .filter(|f| !f.available_in_v1_2())
                .collect();
            if !missing.is_empty() {
                return Err(HiveError::Unsupported(format!(
                    "Hive 1.2 does not support {missing:?}"
                )));
            }
        }
        match stmt {
            ast::Statement::Query(q) => self.run_select(&q, &conf),
            ast::Statement::Explain(inner) => self.run_explain(*inner, &conf),
            ast::Statement::Use(db) => {
                if self.server.metastore().list_tables(&db).is_err() {
                    return Err(HiveError::Catalog(format!("database not found: {db}")));
                }
                *self.db.write() = db.clone();
                Ok(QueryResult::message(format!("using {db}")))
            }
            ast::Statement::CreateDatabase {
                name,
                if_not_exists,
            } => {
                match self.server.metastore().create_database(&name) {
                    Ok(()) => {}
                    Err(_) if if_not_exists => {}
                    Err(e) => return Err(e),
                }
                Ok(QueryResult::message(format!("created database {name}")))
            }
            ast::Statement::DropDatabase { name, if_exists } => {
                match self.server.metastore().drop_database(&name) {
                    Ok(()) => {}
                    Err(_) if if_exists => {}
                    Err(e) => return Err(e),
                }
                Ok(QueryResult::message(format!("dropped database {name}")))
            }
            ast::Statement::CreateTable(ct) => self.run_create_table(ct),
            ast::Statement::DropTable { name, if_exists }
            | ast::Statement::DropMaterializedView { name, if_exists } => {
                self.run_drop_table(name, if_exists)
            }
            ast::Statement::CreateMaterializedView(cmv) => mv::create_view(self, cmv),
            ast::Statement::AlterMaterializedViewRebuild { name } => mv::rebuild(self, &name),
            ast::Statement::Insert(ins) => self.run_insert(ins),
            ast::Statement::MultiInsert(mi) => self.run_multi_insert(mi),
            stmt @ (ast::Statement::Update(_)
            | ast::Statement::Delete(_)
            | ast::Statement::Merge(_)) => self.run_dml(&stmt, &conf),
            ast::Statement::AnalyzeTable { name } => self.run_analyze(name),
            ast::Statement::AlterTableCompact { name, major } => {
                let (db, tname) = self.resolve(&name);
                let qname = format!("{db}.{tname}");
                self.server.metastore().submit_compaction(
                    &qname,
                    None,
                    if major {
                        CompactionKind::Major
                    } else {
                        CompactionKind::Minor
                    },
                );
                let done = self.run_maintenance()?;
                Ok(QueryResult::message(format!(
                    "compaction requested for {qname}; {done} request(s) processed"
                )))
            }
            ast::Statement::ShowTables => {
                let tables = self.server.metastore().list_tables(&self.current_db())?;
                let schema = Schema::new(vec![hive_common::Field::new(
                    "tab_name",
                    hive_common::DataType::String,
                )]);
                let rows: Vec<Row> = tables
                    .into_iter()
                    .map(|t| Row::new(vec![Value::String(t)]))
                    .collect();
                Ok(QueryResult {
                    batch: VectorBatch::from_rows(&schema, &rows)?,
                    ..QueryResult::empty()
                })
            }
            ast::Statement::ShowPartitions { name } => {
                let (db, tname) = self.resolve(&name);
                let table = self.server.metastore().get_table(&db, &tname)?;
                let schema = Schema::new(vec![hive_common::Field::new(
                    "partition",
                    hive_common::DataType::String,
                )]);
                let rows: Vec<Row> = table
                    .partitions
                    .keys()
                    .map(|p| Row::new(vec![Value::String(p.clone())]))
                    .collect();
                Ok(QueryResult {
                    batch: VectorBatch::from_rows(&schema, &rows)?,
                    ..QueryResult::empty()
                })
            }
            ast::Statement::Describe { name, extended } => {
                let (db, tname) = self.resolve(&name);
                let table = self.server.metastore().get_table(&db, &tname)?;
                let schema = Schema::new(vec![
                    hive_common::Field::new("col_name", hive_common::DataType::String),
                    hive_common::Field::new("data_type", hive_common::DataType::String),
                    hive_common::Field::new("comment", hive_common::DataType::String),
                ]);
                let mut rows: Vec<Row> = Vec::new();
                for f in table.schema.fields() {
                    rows.push(Row::new(vec![
                        Value::String(f.name.clone()),
                        Value::String(f.data_type.to_string()),
                        Value::String(if f.nullable { "" } else { "NOT NULL" }.into()),
                    ]));
                }
                for f in &table.partition_keys {
                    rows.push(Row::new(vec![
                        Value::String(f.name.clone()),
                        Value::String(f.data_type.to_string()),
                        Value::String("partition column".into()),
                    ]));
                }
                if extended {
                    rows.push(Row::new(vec![
                        Value::String("#type".into()),
                        Value::String(format!("{:?}", table.table_type)),
                        Value::String(table.storage_handler.clone().unwrap_or_default()),
                    ]));
                    rows.push(Row::new(vec![
                        Value::String("#location".into()),
                        Value::String(table.location.clone()),
                        Value::String(format!("{} partitions", table.partitions.len())),
                    ]));
                    let stats = self.server.metastore().table_stats(&table.qualified_name());
                    rows.push(Row::new(vec![
                        Value::String("#rows".into()),
                        Value::String(stats.row_count.to_string()),
                        Value::String(String::new()),
                    ]));
                }
                Ok(QueryResult {
                    batch: VectorBatch::from_rows(&schema, &rows)?,
                    ..QueryResult::empty()
                })
            }
            ast::Statement::ShowCompactions => {
                let schema = Schema::new(vec![
                    hive_common::Field::new("table", hive_common::DataType::String),
                    hive_common::Field::new("partition", hive_common::DataType::String),
                    hive_common::Field::new("kind", hive_common::DataType::String),
                    hive_common::Field::new("state", hive_common::DataType::String),
                ]);
                let rows: Vec<Row> = self
                    .server
                    .metastore()
                    .show_compactions()
                    .into_iter()
                    .map(|r| {
                        Row::new(vec![
                            Value::String(r.table),
                            r.partition.map(Value::String).unwrap_or(Value::Null),
                            Value::String(format!("{:?}", r.kind)),
                            Value::String(format!("{:?}", r.state)),
                        ])
                    })
                    .collect();
                Ok(QueryResult {
                    batch: VectorBatch::from_rows(&schema, &rows)?,
                    ..QueryResult::empty()
                })
            }
            ast::Statement::ShowTransactions => {
                let schema = Schema::new(vec![
                    hive_common::Field::new("txn_id", hive_common::DataType::BigInt),
                    hive_common::Field::new("state", hive_common::DataType::String),
                    hive_common::Field::new("tables", hive_common::DataType::String),
                ]);
                let rows: Vec<Row> = self
                    .server
                    .metastore()
                    .show_transactions()
                    .into_iter()
                    .map(|(id, state, tables)| {
                        Row::new(vec![
                            Value::BigInt(id.0 as i64),
                            Value::String(format!("{state:?}")),
                            Value::String(tables.join(",")),
                        ])
                    })
                    .collect();
                Ok(QueryResult {
                    batch: VectorBatch::from_rows(&schema, &rows)?,
                    ..QueryResult::empty()
                })
            }
        }
    }

    fn resolve(&self, name: &ast::ObjectName) -> (String, String) {
        (
            name.db.clone().unwrap_or_else(|| self.current_db()),
            name.name.clone(),
        )
    }

    // ---- SELECT ------------------------------------------------------------

    /// Analyze + optimize a query under the session catalog.
    pub(crate) fn plan_query(
        &self,
        q: &ast::Query,
        conf: &HiveConf,
    ) -> Result<(LogicalPlan, bool)> {
        let p = self.plan_query_fb(q, conf, &HashMap::new())?;
        Ok((p.plan, p.used_mv))
    }

    /// Like [`Session::plan_query`], but carrying the cardinality-
    /// feedback context: persisted `tables:`-keyed observations for this
    /// query (keyed by the *analyzed* plan fingerprint, which is stable
    /// across optimizer decisions) merged with `extra` — the in-flight
    /// observation a misestimate re-plan substitutes (§4.2).
    pub(crate) fn plan_query_fb(
        &self,
        q: &ast::Query,
        conf: &HiveConf,
        extra: &HashMap<String, u64>,
    ) -> Result<Planned> {
        let analyzed = self.analyze_query(q)?;
        let fp = fingerprint(&analyzed);
        self.optimize_analyzed(analyzed, fp, conf, extra)
    }

    /// Resolve a query against the session catalog: the plan the results
    /// cache is keyed on and the optimizer starts from.
    pub(crate) fn analyze_query(&self, q: &ast::Query) -> Result<LogicalPlan> {
        let cat = MetastoreCatalog::new(self.server.metastore().clone(), self.current_db());
        Analyzer::new(&cat).analyze_query(q)
    }

    /// Optimize an analyzed plan — a query's or a DML statement's, whose
    /// fingerprint is `before_fp` — under the feedback context described
    /// at [`Session::plan_query_fb`].
    fn optimize_analyzed(
        &self,
        analyzed: LogicalPlan,
        before_fp: u64,
        conf: &HiveConf,
        extra: &HashMap<String, u64>,
    ) -> Result<Planned> {
        #[cfg(test)]
        OPTIMIZE_CALLS.with(|n| n.set(n.get() + 1));
        let usable_views = if conf.mv_rewriting {
            mv::usable_views(self)?
        } else {
            vec![]
        };
        let analyzed_fp = format!("{before_fp:016x}");
        let mut feedback: HashMap<String, u64> = self
            .server
            .metastore()
            .runtime_stats(&analyzed_fp)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("tables:")?.to_string(), v)))
            .collect();
        feedback.extend(extra.iter().map(|(k, v)| (k.clone(), *v)));
        let ctx = OptimizerContext {
            metastore: self.server.metastore(),
            conf,
            usable_views,
            feedback: feedback.clone(),
        };
        let mut plan = Optimizer::optimize(analyzed, &ctx)?;
        let used_mv = plan
            .referenced_tables()
            .iter()
            .any(|t| is_mv_table(self.server.metastore(), t))
            && fingerprint(&plan) != before_fp;
        // Federation pushdown when external tables participate.
        let has_external = {
            let mut found = false;
            plan.visit(&mut |p| {
                if let LogicalPlan::Scan { table, .. } = p {
                    if table.handler.is_some() {
                        found = true;
                    }
                }
            });
            found
        };
        if has_external {
            plan = hive_federation::pushdown::push_to_external(&plan);
        }
        Ok(Planned {
            plan,
            used_mv,
            analyzed_fp,
            feedback,
        })
    }

    fn run_select(&self, q: &ast::Query, conf: &HiveConf) -> Result<QueryResult> {
        // Workload-manager admission (§5.2). The slot is RAII: every
        // path out of this function — success, error, trigger kill —
        // releases exactly this query's accounting when `slot` drops.
        let slot = self
            .server
            .workload(|w| w.admit(&self.user, self.application.as_deref(), &self.groups))?;

        let result = self.run_select_admitted(q, conf, slot.guaranteed_fraction());

        // Walk the trigger timeline over the recorded (simulated)
        // runtime: moves transfer the slot at their threshold
        // (capacity-validated), a kill ends the query *at* its
        // threshold rather than after the fact.
        match result {
            Ok(r) => match slot.resolve_triggers(r.sim_ms as u64) {
                TriggerVerdict::Completed { .. } => Ok(r),
                TriggerVerdict::Killed { at_ms, trigger } => Err(HiveError::Workload(format!(
                    "query killed by trigger {trigger} in pool {} after {at_ms} ms",
                    slot.pool()
                ))),
            },
            Err(e) => Err(e),
        }
    }

    /// The post-admission SELECT path (analyze → results cache → optimize
    /// → execute with re-optimization). `pool_fraction` scales the
    /// per-query memory budget; the serving layer calls this directly
    /// with a slot it manages on its own timeline.
    pub(crate) fn run_select_admitted(
        &self,
        q: &ast::Query,
        conf: &HiveConf,
        pool_fraction: f64,
    ) -> Result<QueryResult> {
        let analyzed = self.analyze_query(q)?;
        let ms = self.server.metastore();
        let cache = self.server.results_cache();
        // Results cache probe (§4.3), in front of the planner: keyed on
        // the analyzed query, so a hit costs parse + analyze + one
        // fetch. Deterministic queries only.
        let analyzed_fp = fingerprint(&analyzed);
        let key = results_cache_key(analyzed_fp, conf);
        let mut claim = None;
        if conf.results_cache && plan_is_deterministic(&analyzed) {
            match cache.probe(key, |t| ms.table_version(t)) {
                CacheOutcome::Hit(hit) => {
                    return Ok(QueryResult {
                        batch: hit.batch,
                        sim_ms: 2.0, // single fetch task (§4.3)
                        from_cache: true,
                        used_mv: hit.used_mv,
                        ..QueryResult::empty()
                    });
                }
                CacheOutcome::MissClaimed => claim = Some(Claim { cache, key }),
            }
        }
        // What the entry will be valid against, first half: every table
        // the query names, as it is *before* planning looks at anything.
        // A write that commits from here on leaves the entry stale,
        // never wrong — and one that committed earlier is in front of
        // the planner's own view-freshness checks, below.
        let versions = |tables: &[String]| -> Vec<(String, TableVersion)> {
            let of = |t: &String| (t.clone(), ms.table_version(t));
            tables.iter().map(of).collect()
        };
        let named = analyzed.referenced_tables();
        let mut snapshot = claim.as_ref().map_or_else(Vec::new, |_| versions(&named));
        let planned = self.optimize_analyzed(analyzed, analyzed_fp, conf, &HashMap::new())?;
        // A result read from a view that is behind its sources is good
        // for the view's staleness window, not for as long as nothing
        // changes: it is not cached. (Read after the snapshot: a source
        // write this misses is one the snapshot predates.)
        if planned.used_mv && mv::reads_stale_view(ms, &planned.plan) {
            claim = None;
        }
        // Second half: the tables only the plan reads (a view the
        // rewriter chose, so a rebuild invalidates), before the read.
        let claim = claim.map(|claim| {
            let mut chosen = planned.plan.referenced_tables();
            chosen.retain(|t| !named.contains(t));
            snapshot.extend(versions(&chosen));
            (claim, snapshot)
        });
        let replan = |extra: &HashMap<String, u64>| self.plan_query_fb(q, conf, extra);
        let executed =
            self.execute_plan_with_retry(&replan, &planned, conf, pool_fraction, None)?;
        let used_mv = planned.used_mv;
        if let Some((claim, snapshot)) = claim {
            let result = CachedResult {
                batch: executed.batch.clone(),
                used_mv,
            };
            claim.fill(result, snapshot);
        }
        Ok(QueryResult {
            used_mv,
            ..self.traced_result(executed, conf)
        })
    }

    /// The result of an executed plan, its counters summed out of the
    /// trace.
    fn traced_result(&self, executed: Executed, conf: &HiveConf) -> QueryResult {
        let trace = &executed.trace;
        QueryResult {
            batch: executed.batch,
            sim_ms: hive_exec::simulate_ms(trace, conf, &self.server.inner.sim_model),
            reexecuted: executed.reexecuted,
            bytes_disk: trace.total(|n| n.bytes_disk),
            bytes_cache: trace.total(|n| n.bytes_cache),
            fragment_retries: trace.total(|n| n.fragment_retries),
            failovers: trace.total(|n| n.failovers),
            bytes_spilled: trace.total(|n| n.bytes_spilled),
            peak_memory_bytes: executed.peak_memory_bytes,
            parallel_width: trace
                .max_parallel_tasks(conf.rows_per_task as u64, conf.total_slots() as u64)
                .max(1),
            pir_compiled_stages: trace.total(|n| n.pir_compiled_stages),
            pir_fallback_rows: trace.total(|n| n.pir_fallback_rows),
            ..QueryResult::empty()
        }
    }

    /// Execute with the §4.2 re-optimization ladder. Two rungs, each
    /// used at most once per query:
    ///
    /// 1. **Cardinality misestimate** — the armed guard observed a join
    ///    producing >10× its estimate. Persist the observation under
    ///    the analyzed-plan fingerprint (so future plannings of this
    ///    query start from it), re-optimize with it substituted for the
    ///    estimate, and re-execute the new plan with the guard
    ///    disarmed. Results are identical; only the plan changes.
    /// 2. **Other retryable failures** — persist a marker and retry the
    ///    same plan under the overlay configuration.
    ///
    /// `replan` re-optimizes the statement under extra feedback; `reader`
    /// is the transaction a DML statement reads its snapshot under.
    fn execute_plan_with_retry(
        &self,
        replan: &dyn Fn(&HashMap<String, u64>) -> Result<Planned>,
        planned: &Planned,
        conf: &HiveConf,
        pool_fraction: f64,
        reader: Option<TxnId>,
    ) -> Result<Executed> {
        let run = |plan: &LogicalPlan, conf: &HiveConf, guard, reexecuted| {
            let (batch, trace, peak_memory_bytes) =
                self.execute_plan_budgeted(plan, conf, pool_fraction, guard, reader)?;
            Ok(Executed {
                batch,
                trace,
                reexecuted,
                peak_memory_bytes,
            })
        };
        match run(&planned.plan, conf, Some(planned), false) {
            Ok(done) => Ok(done),
            Err(HiveError::CardinalityMisestimate {
                tables, observed, ..
            }) if conf.reoptimization => {
                let key = format!("tables:{tables}");
                let mut entries = self
                    .server
                    .metastore()
                    .runtime_stats(&planned.analyzed_fp)
                    .unwrap_or_default();
                entries.retain(|(k, _)| k != &key);
                entries.push((key, observed));
                self.server
                    .metastore()
                    .save_runtime_stats(&planned.analyzed_fp, entries);
                let mut extra = planned.feedback.clone();
                extra.insert(tables, observed);
                run(&replan(&extra)?.plan, conf, None, true)
            }
            Err(e) if e.is_retryable() && conf.reoptimization => {
                // Persist what we know for future planning, then retry
                // under the overlay configuration.
                self.server.metastore().save_runtime_stats(
                    &hive_optimizer::fingerprint::fingerprint_hex(&planned.plan),
                    vec![("retryable_failure".to_string(), 1)],
                );
                let overlay = hive_exec::engine::overlay_conf(conf);
                run(&planned.plan, &overlay, None, true)
            }
            Err(e) => Err(e),
        }
    }

    pub(crate) fn execute_plan(
        &self,
        plan: &LogicalPlan,
        conf: &HiveConf,
    ) -> Result<(VectorBatch, NodeTrace)> {
        // Non-admitted paths (DML sources, MV rebuilds) run under the
        // full per-query budget: they hold no workload-manager slot.
        let (b, t, _) = self.execute_plan_budgeted(plan, conf, 1.0, None, None)?;
        Ok((b, t))
    }

    /// `guard`: when `Some`, arm the executor's cardinality guard with
    /// per-join estimates computed under the same feedback the planner
    /// saw — the first execution attempt of a retry-capable path.
    fn execute_plan_budgeted(
        &self,
        plan: &LogicalPlan,
        conf: &HiveConf,
        pool_fraction: f64,
        guard: Option<&Planned>,
        reader: Option<TxnId>,
    ) -> Result<(VectorBatch, NodeTrace, u64)> {
        let snaps = QuerySnapshots::new(self.server.metastore(), reader);
        let scanner = self.server.federation_scanner();
        let mut ctx = ExecContext::new(
            self.server.fs(),
            self.server.metastore(),
            conf,
            Some(self.server.llap()),
            &snaps,
            Some(&scanner),
        );
        // Per-query memory broker: the configured budget scaled by the
        // admission pool's guaranteed fraction (§5.2). Budget 0 keeps
        // the legacy unbudgeted path byte-for-byte.
        let budget =
            hive_exec::scaled_budget(conf.effective_memory_per_query_bytes(), pool_fraction);
        if budget > 0 {
            let q = self.server.next_spill_seq();
            ctx.enable_spill(hive_exec::SpillConfig {
                dir: DfsPath::new(format!("/tmp/hive/spill/q{q}")),
                broker: hive_exec::MemoryBroker::with_budget(budget),
                enabled: conf.effective_spill_enabled(),
            });
        }
        if let Some(planned) = guard {
            if conf.reoptimization && conf.effective_histograms_enabled() {
                let gated = hive_optimizer::stats::GatedStats {
                    inner: self.server.metastore(),
                    use_histograms: true,
                    feedback: planned.feedback.clone(),
                };
                // One estimator for the whole plan: a join's estimate is
                // also its parent's input, computed once.
                let mut est = hive_optimizer::stats::Estimator::new(&gated);
                let mut estimates: HashMap<u64, (u64, String)> = HashMap::new();
                plan.visit(&mut |p| {
                    if matches!(p, LogicalPlan::Join { .. }) {
                        let rows = est.rows(p).max(0.0) as u64;
                        let key = hive_optimizer::stats::join_feedback_key(p);
                        estimates.insert(fingerprint(p), (rows, key));
                    }
                });
                if !estimates.is_empty() {
                    ctx.arm_card_guard(hive_exec::CardGuard::new(estimates));
                }
            }
        }
        ctx.prepare_shared_work(plan);
        let (sel_batch, trace) = exec_plan_sel(plan, &ctx)?;
        // Output boundary — the plan's final pipeline breaker: gather
        // the surviving selection into a compact batch and materialize
        // any dictionary-encoded columns that rode through the
        // operators. Everything downstream (final results, the results
        // cache, INSERT..SELECT sources) sees plain, compact columns.
        let batch = sel_batch.compact().decode();
        // Persist runtime operator statistics (§4.2/§9), carrying any
        // `tables:` feedback entries forward — the store overwrites per
        // fingerprint, and for plans the optimizer left unchanged the
        // analyzed and optimized fingerprints coincide.
        let fp_hex = hive_optimizer::fingerprint::fingerprint_hex(plan);
        let mut entries: Vec<(String, u64)> = self
            .server
            .metastore()
            .runtime_stats(&fp_hex)
            .unwrap_or_default()
            .into_iter()
            .filter(|(k, _)| k.starts_with("tables:"))
            .collect();
        entries.extend(trace.operator_rows());
        self.server.metastore().save_runtime_stats(&fp_hex, entries);
        Ok((batch, trace, ctx.spill_peak_bytes()))
    }

    fn run_explain(&self, stmt: ast::Statement, conf: &HiveConf) -> Result<QueryResult> {
        let text = match stmt {
            ast::Statement::Query(q) => {
                let (plan, used_mv) = self.plan_query(&q, conf)?;
                let mut t = plan.explain();
                if used_mv {
                    t.push_str("(query rewritten over materialized view)\n");
                }
                t
            }
            dml @ (ast::Statement::Update(_)
            | ast::Statement::Delete(_)
            | ast::Statement::Merge(_)) => {
                let dml = self.compile_dml(&dml)?;
                let fp = fingerprint(&dml.plan);
                let planned =
                    self.optimize_analyzed(dml.plan.clone(), fp, conf, &HashMap::new())?;
                let arms = [
                    dml.update.as_ref().map(|_| "update"),
                    dml.delete.as_ref().map(|_| "delete"),
                    dml.insert.as_ref().map(|_| "insert"),
                ];
                let mut t = format!(
                    "{:?}[{}] arms={}\n",
                    dml.kind,
                    dml.target.qualified_name(),
                    arms.into_iter().flatten().collect::<Vec<_>>().join(",")
                );
                for line in planned.plan.explain().lines() {
                    t.push_str(&format!("  {line}\n"));
                }
                t
            }
            other => format!("{other:#?}"),
        };
        let schema = Schema::new(vec![hive_common::Field::new(
            "plan",
            hive_common::DataType::String,
        )]);
        let rows: Vec<Row> = text
            .lines()
            .map(|l| Row::new(vec![Value::String(l.to_string())]))
            .collect();
        Ok(QueryResult {
            batch: VectorBatch::from_rows(&schema, &rows)?,
            message: Some(text),
            ..QueryResult::empty()
        })
    }

    // ---- DDL ---------------------------------------------------------------

    fn run_create_table(&self, ct: ast::CreateTable) -> Result<QueryResult> {
        let (db, name) = self.resolve(&ct.name);
        if self.server.metastore().table_exists(&db, &name) {
            if ct.if_not_exists {
                return Ok(QueryResult::message(format!("{db}.{name} exists")));
            }
            return Err(HiveError::Catalog(format!("table exists: {db}.{name}")));
        }
        let data_fields: Vec<hive_common::Field> = if ct.columns.is_empty() {
            // CTAS without a column list: derive the schema from the
            // query. (Handler-backed tables with `()` infer via the
            // metastore hook below instead.)
            match &ct.as_query {
                Some(q) => {
                    let conf = self.server.conf();
                    let (plan, _) = self.plan_query(q, &conf)?;
                    plan.schema().fields().to_vec()
                }
                None => Vec::new(),
            }
        } else {
            ct.columns
                .iter()
                .map(|c| {
                    if c.not_null {
                        hive_common::Field::not_null(c.name.clone(), c.data_type.clone())
                    } else {
                        hive_common::Field::new(c.name.clone(), c.data_type.clone())
                    }
                })
                .collect()
        };
        let part_fields: Vec<hive_common::Field> = ct
            .partitioned_by
            .iter()
            .map(|c| hive_common::Field::new(c.name.clone(), c.data_type.clone()))
            .collect();
        let mut builder =
            TableBuilder::new(&db, &name, Schema::new(data_fields)).partitioned_by(part_fields);
        for c in &ct.constraints {
            builder = builder.constraint(convert_constraint(c));
        }
        for (k, v) in &ct.properties {
            builder = builder.property(k, v);
        }
        if let Some(h) = &ct.stored_by {
            builder = builder.stored_by(h);
        } else if ct.external {
            builder = builder.table_type(TableType::External);
        }
        let mut table = builder.build();
        // Metastore hook for storage handlers (§6.1): may infer schema.
        if let Some(h) = &ct.stored_by {
            let handler = self.server.inner.registry.get(h)?;
            handler.on_table_created(&mut table)?;
        }
        let qname = table.qualified_name();
        self.server.metastore().create_table(table)?;
        self.server
            .fs()
            .mkdirs(&DfsPath::new(format!("/warehouse/{db}/{name}")));
        // CTAS.
        if let Some(q) = ct.as_query {
            let insert = ast::Insert {
                table: ct.name.clone(),
                columns: None,
                source: ast::InsertSource::Query(q),
                overwrite: false,
            };
            let r = self.run_insert(insert)?;
            return Ok(QueryResult {
                message: Some(format!("created {qname} as select")),
                ..r
            });
        }
        Ok(QueryResult::message(format!("created table {qname}")))
    }

    fn run_drop_table(&self, name: ast::ObjectName, if_exists: bool) -> Result<QueryResult> {
        let (db, tname) = self.resolve(&name);
        if !self.server.metastore().table_exists(&db, &tname) {
            if if_exists {
                return Ok(QueryResult::message("nothing to drop"));
            }
            return Err(HiveError::Catalog(format!("table not found: {db}.{tname}")));
        }
        let qname = format!("{db}.{tname}");
        // DROP takes an exclusive lock (§3.2).
        let txn = self.server.metastore().open_txn();
        self.server
            .metastore()
            .acquire_lock(txn, LockKey::table(&qname), LockMode::Exclusive)?;
        let table = self.server.metastore().drop_table(&db, &tname)?;
        self.server.inner.mv_plans.lock().remove(&qname);
        let _ = self.server.fs().delete_dir(&DfsPath::new(&table.location));
        if let Some(h) = &table.storage_handler {
            if let Ok(handler) = self.server.inner.registry.get(h) {
                let _ = handler.on_table_dropped(&table);
            }
        }
        self.server.metastore().commit_txn(txn)?;
        Ok(QueryResult::message(format!("dropped {qname}")))
    }

    // ---- DML ---------------------------------------------------------------

    pub(crate) fn run_insert(&self, ins: ast::Insert) -> Result<QueryResult> {
        let (db, name) = self.resolve(&ins.table);
        let table = self.server.metastore().get_table(&db, &name)?;
        let conf = self.server.conf();

        // Evaluate the source into rows over the full insert schema
        // (data columns then partition columns).
        let full = table.full_schema();
        let rows: Vec<Row> = match &ins.source {
            ast::InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut vals = Vec::with_capacity(r.len());
                    for e in r {
                        vals.push(eval_const_ast(e)?);
                    }
                    out.push(Row::new(vals));
                }
                out
            }
            ast::InsertSource::Query(q) => {
                let planned = self.plan_query_fb(q, &conf, &HashMap::new())?;
                let replan = |extra: &HashMap<String, u64>| self.plan_query_fb(q, &conf, extra);
                self.execute_plan_with_retry(&replan, &planned, &conf, 1.0, None)?
                    .batch
                    .to_rows()
            }
        };
        // Column mapping.
        let targets: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| full.index_of_required(c))
                .collect::<Result<Vec<_>>>()?,
            None => (0..full.len()).collect(),
        };
        let mut full_rows: Vec<Row> = Vec::with_capacity(rows.len());
        for r in rows {
            if r.len() != targets.len() {
                return Err(HiveError::Analysis(format!(
                    "INSERT arity mismatch: {} values for {} columns",
                    r.len(),
                    targets.len()
                )));
            }
            let mut vals = vec![Value::Null; full.len()];
            for (v, &t) in r.into_values().into_iter().zip(&targets) {
                vals[t] = v.cast_to(&full.field(t).data_type)?;
            }
            // NOT NULL enforcement.
            for (i, f) in full.fields().iter().enumerate() {
                if !f.nullable && vals[i].is_null() {
                    return Err(HiveError::Execution(format!(
                        "NULL for NOT NULL column {}",
                        f.name
                    )));
                }
            }
            full_rows.push(Row::new(vals));
        }
        self.insert_full_rows_txn(&table, full_rows, None)
    }

    /// Bulk-load pre-built rows into a table (the benchmark loaders'
    /// fast path; equivalent to one big INSERT...VALUES transaction).
    /// Rows use the full schema: data columns then partition columns.
    pub fn bulk_insert(&self, table_name: &str, rows: Vec<Row>) -> Result<QueryResult> {
        let (db, name) = match table_name.split_once('.') {
            Some((d, n)) => (d.to_string(), n.to_string()),
            None => (self.current_db(), table_name.to_string()),
        };
        let table = self.server.metastore().get_table(&db, &name)?;
        let full = table.full_schema();
        for r in &rows {
            if r.len() != full.len() {
                return Err(HiveError::Analysis(format!(
                    "bulk_insert arity mismatch: {} values for {} columns",
                    r.len(),
                    full.len()
                )));
            }
        }
        self.insert_full_rows_txn(&table, rows, None)
    }

    /// Insert rows, either inside `in_txn` (multi-insert: several tables
    /// share one transaction, §3.2) or in a fresh auto-committed one.
    fn insert_full_rows_txn(
        &self,
        table: &Table,
        full_rows: Vec<Row>,
        in_txn: Option<TxnId>,
    ) -> Result<QueryResult> {
        let conf = self.server.conf();
        let affected = full_rows.len() as u64;

        if table.storage_handler.is_some() {
            // Federated write through the output format (§6.1).
            let handler = self
                .server
                .inner
                .registry
                .get(table.storage_handler.as_deref().unwrap())?;
            let batch = VectorBatch::from_rows(&table.schema, &full_rows)?;
            handler.write(table, &batch)?;
            return Ok(QueryResult {
                affected_rows: affected,
                message: Some(format!("wrote {affected} rows via storage handler")),
                ..QueryResult::empty()
            });
        }

        let ms = self.server.metastore();
        let qname = table.qualified_name();
        let own_txn = in_txn.is_none().then(|| TxnGuard::begin(ms));
        let txn = in_txn
            .or(own_txn.as_ref().map(|t| t.id))
            .expect("the caller's transaction or our own");
        let wid = ms.allocate_write_id(txn, &qname)?;
        let batch = VectorBatch::from_rows(&table.full_schema(), &full_rows)?;
        let stats_delta = self.write_insert_deltas(txn, wid, table, &batch)?;
        let auto_commit = own_txn.is_some();
        if let Some(t) = own_txn {
            t.commit()?;
        }
        ms.merge_table_stats(&qname, &stats_delta);
        let maintenance = if auto_commit && conf.auto_compaction {
            self.auto_compact_check(table)?
        } else {
            0
        };
        Ok(QueryResult {
            affected_rows: affected,
            message: Some(format!(
                "inserted {affected} rows{}",
                if maintenance > 0 {
                    format!(" ({maintenance} compaction(s) ran)")
                } else {
                    String::new()
                }
            )),
            ..QueryResult::empty()
        })
    }

    /// `FROM src INSERT INTO t1 ... INSERT INTO t2 ...` — every leg
    /// evaluates against the shared source and commits atomically in
    /// ONE transaction (§3.2: multi-insert is the way to write several
    /// tables transactionally).
    fn run_multi_insert(&self, mi: ast::MultiInsert) -> Result<QueryResult> {
        let conf = self.server.conf();
        let txn = TxnGuard::begin(self.server.metastore());
        let mut total = 0u64;
        let mut tables: Vec<Arc<Table>> = Vec::new();
        for leg in &mi.inserts {
            // Each leg is SELECT <projection> FROM <source> WHERE <filter>.
            let q = ast::Query::simple(ast::QueryBody::Select(Box::new(ast::Select {
                distinct: false,
                projection: leg.projection.clone(),
                from: vec![mi.source.clone()],
                selection: leg.filter.clone(),
                group_by: vec![],
                grouping_sets: None,
                having: None,
            })));
            let (plan, _) = self.plan_query(&q, &conf)?;
            let (batch, _) = self.execute_plan(&plan, &conf)?;
            let (db, name) = self.resolve(&leg.table);
            let table = self.server.metastore().get_table(&db, &name)?;
            let full = table.full_schema();
            let targets: Vec<usize> = match &leg.columns {
                Some(cols) => cols
                    .iter()
                    .map(|c| full.index_of_required(c))
                    .collect::<Result<Vec<_>>>()?,
                None => (0..full.len()).collect(),
            };
            let mut full_rows = Vec::with_capacity(batch.num_rows());
            for r in batch.to_rows() {
                if r.len() != targets.len() {
                    return Err(HiveError::Analysis(format!(
                        "multi-insert arity mismatch for {}: {} values for {} columns",
                        table.qualified_name(),
                        r.len(),
                        targets.len()
                    )));
                }
                let mut vals = vec![Value::Null; full.len()];
                for (v, &t) in r.into_values().into_iter().zip(&targets) {
                    vals[t] = v.cast_to(&full.field(t).data_type)?;
                }
                full_rows.push(Row::new(vals));
            }
            let r = self.insert_full_rows_txn(&table, full_rows, Some(txn.id))?;
            total += r.affected_rows;
            tables.push(table);
        }
        txn.commit()?;
        if conf.auto_compaction {
            for t in &tables {
                self.auto_compact_check(t)?;
            }
        }
        Ok(QueryResult {
            affected_rows: total,
            message: Some(format!(
                "multi-insert wrote {total} rows across {} tables in one transaction",
                mi.inserts.len()
            )),
            ..QueryResult::empty()
        })
    }

    /// Route full-schema rows to their partitions (dynamic partitioning)
    /// and write one insert delta per partition under `wid`. Returns the
    /// statistics of the rows written, for the caller to fold into the
    /// table's once the transaction commits.
    fn write_insert_deltas(
        &self,
        txn: TxnId,
        wid: WriteId,
        table: &Table,
        full: &VectorBatch,
    ) -> Result<TableStats> {
        let ms = self.server.metastore();
        let qname = table.qualified_name();
        let data_cols: Vec<usize> = (0..table.schema.len()).collect();
        let mut stats = TableStats::new(data_cols.len());
        for (part_name, part_values, rows) in rows_by_partition(table, full, data_cols.len()) {
            let dir = if table.is_partitioned() {
                let info = ms.add_partition(&table.db, &table.name, part_values)?;
                // Shared lock at partition granularity (§3.2).
                ms.acquire_lock(txn, LockKey::partition(&qname, part_name), LockMode::Shared)?;
                DfsPath::new(&info.location)
            } else {
                ms.acquire_lock(txn, LockKey::table(&qname), LockMode::Shared)?;
                DfsPath::new(&table.location)
            };
            let batch = take_batch(full, &rows).project(&data_cols);
            AcidWriter::new(self.server.fs(), &dir, table.schema.clone())
                .write_insert_delta(wid, &batch)?;
            stats.update_batch(&batch);
        }
        Ok(stats)
    }

    fn compile_dml(&self, stmt: &ast::Statement) -> Result<DmlPlan> {
        let cat = MetastoreCatalog::new(self.server.metastore().clone(), self.current_db());
        Analyzer::new(&cat).analyze_dml(stmt)
    }

    /// UPDATE / DELETE / MERGE (§3.2): the statement compiles to a plan
    /// over the target's row ids, runs through the optimizer and the
    /// executor like a query, and its result rows are written as delete
    /// and insert deltas under the statement's own transaction, with
    /// first-commit-wins conflict detection at commit.
    fn run_dml(&self, stmt: &ast::Statement, conf: &HiveConf) -> Result<QueryResult> {
        let ms = self.server.metastore();
        let dml = self.compile_dml(stmt)?;
        let fp = fingerprint(&dml.plan);
        let replan = |extra: &HashMap<String, u64>| {
            self.optimize_analyzed(dml.plan.clone(), fp, conf, extra)
        };
        let planned = replan(&HashMap::new())?;
        let qname = dml.target.qualified_name();

        let txn = TxnGuard::begin(ms);
        let executed = self.execute_plan_with_retry(&replan, &planned, conf, 1.0, Some(txn.id))?;
        let wid = ms.allocate_write_id(txn.id, &qname)?;
        let (affected, inserted) = self.write_dml_deltas(&dml, &executed.batch, txn.id, wid)?;
        txn.commit()?;
        if let Some(stats) = inserted {
            ms.merge_table_stats(&qname, &stats);
        }
        if conf.auto_compaction {
            self.auto_compact_check(&dml.target)?;
        }
        let message = match dml.kind {
            DmlKind::Merge => format!("MERGE affected {affected} rows"),
            DmlKind::Update | DmlKind::Delete => format!("{affected} rows affected"),
        };
        Ok(QueryResult {
            batch: VectorBatch::empty(&Schema::empty())?,
            affected_rows: affected,
            message: Some(message),
            ..self.traced_result(executed, conf)
        })
    }

    /// The DML sink: turn a compiled statement's result rows into deltas.
    /// Per touched partition (in directory order) one delete delta
    /// tombstones the victims and one insert delta holds the rewritten
    /// rows, both in record-id order; then the rows of the insert arm go
    /// out in the order the join produced them. Nothing here depends on
    /// how many threads ran the plan, so neither do the bytes written.
    /// Returns the affected row count and the inserted rows' statistics.
    fn write_dml_deltas(
        &self,
        dml: &DmlPlan,
        result: &VectorBatch,
        txn: TxnId,
        wid: WriteId,
    ) -> Result<(u64, Option<TableStats>)> {
        let ms = self.server.metastore();
        let table = &dml.target;
        let qname = table.qualified_name();
        let id0 = dml.row_id_start();

        // A row the join padded for an unmatched source row has no
        // record id.
        let (matched, unmatched): (Vec<u32>, Vec<u32>) =
            (0..result.num_rows() as u32).partition(|&i| !result.column(id0).is_null(i as usize));
        let matched_rows = take_batch(result, &matched);
        let id_cols = matched_rows.project(&[id0, id0 + 1, id0 + 2]);
        let ids: Vec<RecordId> = (0..matched.len())
            .map(|i| record_id_at(&id_cols, i))
            .collect();

        // WHEN MATCHED arms, in statement order: UPDATE, then DELETE
        // over the rows UPDATE's condition passed up.
        let all: Vec<u32> = (0..matched.len() as u32).collect();
        let (updated, rest) = match &dml.update {
            Some(arm) => rows_where(arm.condition.as_ref(), &matched_rows, all)?,
            None => (vec![], all),
        };
        let deleted = match &dml.delete {
            Some(cond) => rows_where(cond.as_ref(), &matched_rows, rest)?.0,
            None => vec![],
        };
        let rewritten = match &dml.update {
            Some(arm) => eval_columns(
                &arm.values,
                &table.schema,
                &take_batch(&matched_rows, &updated),
            )?,
            None => VectorBatch::empty(&table.schema)?,
        };
        let mut action = vec![RowAction::Keep; matched.len()];
        for &i in &deleted {
            action[i as usize] = RowAction::Delete;
        }
        for (r, &i) in updated.iter().enumerate() {
            action[i as usize] = RowAction::Rewrite(r as u32);
        }

        let mut partitions = rows_by_partition(table, &matched_rows, table.schema.len());
        for (_, _, rows) in &mut partitions {
            rows.sort_unstable_by_key(|&i| ids[i as usize]);
            // Hive's cardinality check, before anything is written: which
            // source row rewrites a target row matched twice is undefined.
            if dml.update.is_some() || dml.delete.is_some() {
                let twice = |w: &&[u32]| ids[w[0] as usize] == ids[w[1] as usize];
                if let Some(w) = rows.windows(2).find(twice) {
                    return Err(HiveError::CardinalityViolation(format!(
                        "record {} of {qname} matched more than one source row",
                        ids[w[0] as usize]
                    )));
                }
            }
            rows.retain(|&i| action[i as usize] != RowAction::Keep);
        }

        let mut affected = 0u64;
        for (part_name, _, rows) in partitions {
            if rows.is_empty() {
                continue;
            }
            let (dir, part) = if table.is_partitioned() {
                let info = table.partitions.get(&part_name).ok_or_else(|| {
                    HiveError::Catalog(format!("partition not found: {qname}/{part_name}"))
                })?;
                (DfsPath::new(&info.location), Some(part_name))
            } else {
                (DfsPath::new(&table.location), None)
            };
            // Optimistic conflict tracking at partition granularity.
            ms.add_write_set(txn, &qname, part)?;
            let writer = AcidWriter::new(self.server.fs(), &dir, table.schema.clone());
            let victims: Vec<RecordId> = rows.iter().map(|&i| ids[i as usize]).collect();
            writer.write_delete_delta(wid, &victims)?;
            let replacements: Vec<u32> = rows
                .iter()
                .filter_map(|&i| match action[i as usize] {
                    RowAction::Rewrite(r) => Some(r),
                    _ => None,
                })
                .collect();
            if !replacements.is_empty() {
                writer.write_insert_delta(wid, &rewritten.take(&replacements))?;
            }
            affected += rows.len() as u64;
        }

        // WHEN NOT MATCHED THEN INSERT.
        let inserted = match &dml.insert {
            Some(values) if !unmatched.is_empty() => {
                let full = eval_columns(
                    values,
                    &table.full_schema(),
                    &take_batch(result, &unmatched),
                )?;
                affected += unmatched.len() as u64;
                Some(self.write_insert_deltas(txn, wid, table, &full)?)
            }
            _ => None,
        };
        Ok((affected, inserted))
    }

    fn run_analyze(&self, name: ast::ObjectName) -> Result<QueryResult> {
        let (db, tname) = self.resolve(&name);
        let table = self.server.metastore().get_table(&db, &tname)?;
        let qname = table.qualified_name();
        let snaps = QuerySnapshots::new(self.server.metastore(), None);
        let wlist = snaps.write_ids(&qname);
        let mut stats = TableStats::new(table.schema.len());
        let dirs: Vec<DfsPath> = if table.is_partitioned() {
            table
                .partitions
                .values()
                .map(|i| DfsPath::new(&i.location))
                .collect()
        } else {
            vec![DfsPath::new(&table.location)]
        };
        let proj: Vec<usize> = (0..table.schema.len()).collect();
        for dir in dirs {
            let scan = AcidScan::new(self.server.fs(), &dir, table.schema.clone(), wlist.clone())?;
            let batch = scan.read_row_groups(&proj, &SearchArgument::new(), false)?;
            stats.update_batch(&batch);
        }
        let rows = stats.row_count;
        self.server.metastore().set_table_stats(&qname, stats);
        Ok(QueryResult::message(format!(
            "computed statistics for {qname}: {rows} rows"
        )))
    }

    // ---- compaction service -------------------------------------------------

    /// Check thresholds (§3.2: "compaction is triggered automatically by
    /// HS2 when certain thresholds are surpassed") and run any queued
    /// work.
    pub(crate) fn auto_compact_check(&self, table: &Table) -> Result<usize> {
        let conf = self.server.conf();
        let qname = table.qualified_name();
        let snaps = QuerySnapshots::new(self.server.metastore(), None);
        let wlist = snaps.write_ids(&qname);
        let dirs: Vec<(Option<String>, DfsPath)> = if table.is_partitioned() {
            table
                .partitions
                .iter()
                .map(|(d, i)| (Some(d.clone()), DfsPath::new(&i.location)))
                .collect()
        } else {
            vec![(None, DfsPath::new(&table.location))]
        };
        for (part, dir) in dirs {
            let snap = resolve_snapshot(self.server.fs(), &dir, &wlist);
            if snap.delta_count() >= conf.compaction_delta_threshold {
                let kind = if snap.base.is_none()
                    || snap.delta_count() >= 2 * conf.compaction_delta_threshold
                {
                    CompactionKind::Major
                } else {
                    CompactionKind::Minor
                };
                self.server
                    .metastore()
                    .submit_compaction(&qname, part, kind);
            }
        }
        self.run_maintenance()
    }

    /// Drain the compaction queue (the HS2 background workers' role).
    pub(crate) fn run_maintenance(&self) -> Result<usize> {
        let mut done = 0;
        while let Some(req) = self.server.metastore().next_compaction() {
            let Some((db, tname)) = req.table.split_once('.') else {
                self.server
                    .metastore()
                    .set_compaction_state(req.id, CompactionState::Failed);
                continue;
            };
            let Ok(table) = self.server.metastore().get_table(db, tname) else {
                self.server
                    .metastore()
                    .set_compaction_state(req.id, CompactionState::Failed);
                continue;
            };
            let dir = match &req.partition {
                Some(p) => match table.partitions.get(p) {
                    Some(i) => DfsPath::new(&i.location),
                    None => {
                        self.server
                            .metastore()
                            .set_compaction_state(req.id, CompactionState::Failed);
                        continue;
                    }
                },
                None => DfsPath::new(&table.location),
            };
            let snaps = QuerySnapshots::new(self.server.metastore(), None);
            let wlist = snaps.write_ids(&req.table);
            let compactor = Compactor::new(self.server.fs(), &dir, table.schema.clone());
            let outcome = match req.kind {
                CompactionKind::Minor => compactor.minor(&wlist),
                CompactionKind::Major => compactor.major(&wlist),
            };
            match outcome {
                Ok(Some(o)) => {
                    self.server
                        .metastore()
                        .set_compaction_state(req.id, CompactionState::ReadyForCleaning);
                    // The cleaner runs once in-flight readers drain; our
                    // queries are synchronous, so immediately.
                    compactor.clean(&o)?;
                    if let Some(base) = o.new_base_wid {
                        self.server
                            .metastore()
                            .truncate_aborted_history(&req.table, base);
                    }
                    self.server
                        .metastore()
                        .set_compaction_state(req.id, CompactionState::Succeeded);
                    done += 1;
                }
                Ok(None) => {
                    self.server
                        .metastore()
                        .set_compaction_state(req.id, CompactionState::Succeeded);
                }
                Err(_) => {
                    self.server
                        .metastore()
                        .set_compaction_state(req.id, CompactionState::Failed);
                }
            }
        }
        Ok(done)
    }
}

/// What the WHEN MATCHED arms decided for one matched target row.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RowAction {
    /// No arm applied: the row stays as it is.
    Keep,
    Delete,
    /// Tombstoned and rewritten as this row of the rewritten batch.
    Rewrite(u32),
}

/// `batch` restricted to `rows`; shares the columns when that is all of
/// them.
fn take_batch(batch: &VectorBatch, rows: &[u32]) -> VectorBatch {
    if rows.len() == batch.num_rows() {
        batch.clone()
    } else {
        batch.take(rows)
    }
}

/// Split `rows` of `batch` into those where `cond` is TRUE (all of them
/// without a condition) and the rest, both in input order.
fn rows_where(
    cond: Option<&ScalarExpr>,
    batch: &VectorBatch,
    rows: Vec<u32>,
) -> Result<(Vec<u32>, Vec<u32>)> {
    let Some(cond) = cond else {
        return Ok((rows, vec![]));
    };
    // The passing rows are a subsequence of `rows`.
    let mut pass = hive_exec::pir::select_rows(cond, batch, &rows)?
        .into_iter()
        .peekable();
    Ok(rows
        .into_iter()
        .partition(|&r| pass.next_if_eq(&r).is_some()))
}

/// Evaluate one expression per column of `schema` over `input`,
/// vectorized, casting each result to its column's declared type.
fn eval_columns(exprs: &[ScalarExpr], schema: &Schema, input: &VectorBatch) -> Result<VectorBatch> {
    let cols = exprs
        .iter()
        .zip(schema.fields())
        .map(|(e, f)| {
            let col = hive_exec::kernels::eval_vector(e, input)?;
            hive_exec::engine::align_column(col, &f.data_type)
        })
        .collect::<Result<Vec<_>>>()?;
    VectorBatch::from_arcs(schema.clone(), cols, input.num_rows())
}

/// The rows of `batch` grouped by partition — directory name, partition
/// values, row indexes in batch order — sorted by directory name. The
/// partition columns start at `part0`; an unpartitioned table is one
/// group.
fn rows_by_partition(
    table: &Table,
    batch: &VectorBatch,
    part0: usize,
) -> Vec<(String, Vec<Value>, Vec<u32>)> {
    let n = batch.num_rows() as u32;
    if !table.is_partitioned() {
        return if n == 0 {
            vec![]
        } else {
            vec![(String::new(), vec![], (0..n).collect())]
        };
    }
    let mut groups: Vec<(String, Vec<Value>, Vec<u32>)> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    let mut current: Option<usize> = None;
    for i in 0..n {
        let values: Vec<Value> = (0..table.partition_keys.len())
            .map(|k| batch.column(part0 + k).get(i as usize))
            .collect();
        // Scans emit a partition at a time: most rows repeat the last.
        let g = match current {
            Some(g) if groups[g].1 == values => g,
            _ => {
                let name = table.partition_dir_name(&values);
                *by_name.entry(name.clone()).or_insert_with(|| {
                    groups.push((name, values, Vec::new()));
                    groups.len() - 1
                })
            }
        };
        groups[g].2.push(i);
        current = Some(g);
    }
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    groups
}

fn is_mv_table(ms: &Metastore, qualified: &str) -> bool {
    ms.get_table_qualified(qualified)
        .is_some_and(|t| t.table_type == TableType::MaterializedView)
}

fn convert_constraint(c: &ast::TableConstraintDef) -> hive_metastore::Constraint {
    match c {
        ast::TableConstraintDef::PrimaryKey(cols) => {
            hive_metastore::Constraint::PrimaryKey(cols.clone())
        }
        ast::TableConstraintDef::ForeignKey {
            columns,
            ref_table,
            ref_columns,
        } => hive_metastore::Constraint::ForeignKey {
            columns: columns.clone(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_columns.clone(),
        },
        ast::TableConstraintDef::Unique(cols) => hive_metastore::Constraint::Unique(cols.clone()),
    }
}

/// The results-cache key of an analyzed query: its fingerprint `fp` —
/// table references resolved, so one text under two current databases
/// is two keys — mixed with the one switch that changes which stored
/// data may answer it.
fn results_cache_key(fp: u64, conf: &HiveConf) -> u64 {
    if conf.mv_rewriting {
        fp.rotate_left(1) ^ 0x9E37_79B9_7F4A_7C15
    } else {
        fp
    }
}

/// Is every expression in the plan deterministic (cacheable)?
fn plan_is_deterministic(plan: &LogicalPlan) -> bool {
    let mut det = true;
    plan.visit(&mut |p| node_exprs(p, &mut |e| det = det && e.is_deterministic()));
    det
}

/// Evaluate a constant AST expression (INSERT VALUES payloads).
fn eval_const_ast(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(v) => Ok(v.clone()),
        ast::Expr::Negate(inner) => eval_const_ast(inner)?.neg(),
        ast::Expr::Cast { expr, to } => eval_const_ast(expr)?.cast_to(to),
        ast::Expr::BinaryOp { left, op, right } => {
            hive_optimizer::eval::eval_binary(*op, &eval_const_ast(left)?, &eval_const_ast(right)?)
        }
        other => Err(HiveError::Unsupported(format!(
            "INSERT VALUES requires constant expressions, got {other}"
        ))),
    }
}
