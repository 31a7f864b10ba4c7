//! The traced run: per-layer metrics of one workload.
//!
//! Tracing lives here, in the benchmark, not in the library crates. An
//! alternation is a pass through the session — untraced, the public
//! counters read before and after — and then the same operations once
//! more, each under a root span `op` with a child span around every call
//! into a layer crate's public function:
//!
//! ```text
//! op ─┬─ sql.parse            hive_sql::parse_sql
//!     ├─ optimizer.analyze    Analyzer::analyze_query
//!     ├─ optimizer.optimize   Optimizer::optimize
//!     ├─ exec.execute         ExecContext::new + prepare_shared_work + execute_sel
//!     └─ exec.decode          compact().decode()
//! ```
//!
//! What the session does around those calls — admission, view matching,
//! cardinality feedback, the results cache, the cardinality guard, saving
//! runtime statistics, the simulated clock — is the driver's business and
//! is not made again here. It is measured as a remainder:
//! `core.driver_self_us_per_op` is the untraced time minus the five spans.
//! So the traced optimizer sees no view candidates and no persisted
//! feedback, and an operation the session answered from the results cache
//! is traced up to `optimizer.optimize` only, which is what a hit pays
//! for. `core.compile_us_per_op` (`EXPLAIN` through the session) is the
//! compile time with the driver's part in it.
//!
//! A write cannot be taken apart from outside, so it is the session call
//! under one span named after its kind (`acid.update`, …). Root spans
//! carry counter deltas taken at their boundaries; a write whose
//! `compactions` delta is not 0 ran an automatic compaction inside it.
//!
//! Timing metrics are medians over the alternations; counts come from the
//! first one, so that they repeat exactly for a seed. When a library
//! signature moves, this is the module to fix.

use crate::harness::{digest_outcome, execute_op, outcome_digest, stamp, Bench, RunConfig, Sample};
use crate::hygiene;
use crate::report::{quote, Report, PER_LAYER};
use crate::stats::{mean, median, ms, quantile, ratio, us};
use crate::workload::{Op, OpKind, Spec};
use hive_acid::resolve_snapshot;
use hive_common::{FileId, HiveError, Result, VectorBatch};
use hive_corc::{writer::write_batch_to_bytes, CorcFile, WriterOptions};
use hive_core::QueryResult;
use hive_dfs::{DfsPath, IoStatsSnapshot};
use hive_exec::{aggregate::execute_aggregate, join::execute_join};
use hive_exec::{ExecContext, NodeTrace, WideOpenSnapshots};
use hive_llap::{ChunkKey, LlapCache};
use hive_metastore::{CompactionKind, CompactionState, TableStats, ValidWriteIdList};
use hive_optimizer::fingerprint::fingerprint_hex;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{Analyzer, MetastoreCatalog, Optimizer, OptimizerContext};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// `{name, op, pass, start_ns, end_ns, parent}`: one timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// `Op::id` of the operation this span belongs to.
    pub op: String,
    pub pass: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an operation's root.
    pub parent: Option<usize>,
    /// Counter deltas over the span (roots only).
    pub counters: Option<Counters>,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// DFS, LLAP and compaction-queue counters read at span boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub dfs: IoStatsSnapshot,
    /// Partition-level compaction requests completed (`show_compactions`).
    pub compactions: u64,
    pub llap_hits: u64,
    pub llap_misses: u64,
    pub llap_evictions: u64,
    pub llap_bytes_loaded: u64,
    pub llap_bytes_served: u64,
}

impl Counters {
    fn read(bench: &Bench) -> Counters {
        let s = bench.server.llap().cache().stats();
        let done = |r: &hive_metastore::CompactionRequest| {
            r.partition.is_some() && r.state == CompactionState::Succeeded
        };
        let compactions = bench.server.metastore().show_compactions();
        Counters {
            dfs: bench.server.fs().stats().snapshot(),
            compactions: compactions.iter().filter(|r| done(r)).count() as u64,
            llap_hits: s.hits.load(Ordering::Relaxed),
            llap_misses: s.misses.load(Ordering::Relaxed),
            llap_evictions: s.evictions.load(Ordering::Relaxed),
            llap_bytes_loaded: s.bytes_loaded.load(Ordering::Relaxed),
            llap_bytes_served: s.bytes_served_from_cache.load(Ordering::Relaxed),
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            dfs: self.dfs.since(&earlier.dfs),
            compactions: self.compactions - earlier.compactions,
            llap_hits: self.llap_hits - earlier.llap_hits,
            llap_misses: self.llap_misses - earlier.llap_misses,
            llap_evictions: self.llap_evictions - earlier.llap_evictions,
            llap_bytes_loaded: self.llap_bytes_loaded - earlier.llap_bytes_loaded,
            llap_bytes_served: self.llap_bytes_served - earlier.llap_bytes_served,
        }
    }
}

/// The in-memory span log, written out once at exit.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: &str, pass: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: op.to_string(),
            pass,
            start_ns,
            end_ns: start_ns,
            parent,
            counters: None,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Time `f` as a child of `root`.
    fn child<T>(&mut self, name: &'static str, root: usize, f: impl FnOnce() -> T) -> T {
        let (op, pass) = (self.spans[root].op.clone(), self.spans[root].pass);
        let span = self.open(name, &op, pass, Some(root));
        let out = f();
        self.close(span);
        out
    }

    /// [`Tracer::child`] when there is a root, just `f` otherwise.
    fn under<T>(&mut self, name: &'static str, root: Option<usize>, f: impl FnOnce() -> T) -> T {
        match root {
            Some(root) => self.child(name, root, f),
            None => f(),
        }
    }

    fn write(&self, path: &Path, spec: &Spec) -> std::io::Result<()> {
        let mut s = format!(
            "{{\"workload\": {}, \"seed\": {}, \"spans\": [\n",
            quote(spec.workload.name()),
            spec.seed
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": {}, \"op\": {}, \"pass\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}",
                quote(sp.name),
                quote(&sp.op),
                sp.pass,
                sp.start_ns,
                sp.end_ns
            );
            if let Some(c) = &sp.counters {
                let _ = write!(
                    s,
                    ", \"counters\": {{\"dfs_reads\": {}, \"dfs_bytes_read\": {}, \"dfs_lists\": {}, \
                     \"dfs_writes\": {}, \"dfs_bytes_written\": {}, \"llap_hits\": {}, \
                     \"llap_misses\": {}, \"compactions\": {}}}",
                    c.dfs.reads,
                    c.dfs.bytes_read,
                    c.dfs.lists,
                    c.dfs.writes,
                    c.dfs.bytes_written,
                    c.llap_hits,
                    c.llap_misses,
                    c.compactions
                );
            }
            s.push_str(if i + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// One untraced pass and the traced pass that followed it.
#[derive(Default)]
struct Alternation {
    /// Timing metrics (medians are taken across alternations).
    times: BTreeMap<&'static str, f64>,
    /// Counts (the first alternation's are reported).
    counts: BTreeMap<&'static str, f64>,
}

impl Alternation {
    fn time(&mut self, name: &'static str, value: f64) {
        self.times.insert(name, value);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }
}

/// What the untraced pass's results said, summed.
#[derive(Default)]
struct Flags {
    used_mv: u64,
    reexecuted: u64,
    from_cache_nanos: Vec<f64>,
    sim_ms: f64,
    bytes_spilled: u64,
    peak_memory_bytes: u64,
    fragment_retries: u64,
    pir_compiled_stages: u64,
}

/// The operator class of a trace node, by its label.
fn node_class(label: &str) -> Option<&'static str> {
    [
        ("Scan", "exec.rows_in.scan"),
        ("SharedScanReuse", "exec.rows_in.scan"),
        ("Filter", "exec.rows_in.filter"),
        ("Project", "exec.rows_in.project"),
        ("Join", "exec.rows_in.join"),
        ("Aggregate", "exec.rows_in.aggregate"),
        ("Sort", "exec.rows_in.sort"),
        ("Window", "exec.rows_in.window"),
        ("SetOp", "exec.rows_in.setop"),
        ("UnionAll", "exec.rows_in.setop"),
    ]
    .into_iter()
    .find(|(prefix, _)| label.split('(').next() == Some(prefix))
    .map(|(_, class)| class)
}

/// The first node of `plan`, in visit order, that `wanted` accepts.
fn first_node(plan: &LogicalPlan, wanted: impl Fn(&LogicalPlan) -> bool) -> Option<LogicalPlan> {
    let mut found = None;
    plan.visit(&mut |p| {
        if found.is_none() && wanted(p) {
            found = Some(p.clone());
        }
    });
    found
}

/// What a traced operation produced.
enum Traced {
    Read(Box<TracedRead>),
    /// The outcome digest of a write or DDL statement.
    Write(u64),
}

struct TracedRead {
    plan: LogicalPlan,
    /// `None` when the session had answered from the results cache, so
    /// nothing was executed.
    executed: Option<(VectorBatch, NodeTrace)>,
}

/// The spans a read is taken apart into.
const LAYER_SPANS: [&str; 5] = [
    "sql.parse",
    "optimizer.analyze",
    "optimizer.optimize",
    "exec.execute",
    "exec.decode",
];

struct Layers<'a> {
    bench: &'a Bench,
    tracer: Tracer,
    /// Latency of every untraced operation of the run, for the pooled
    /// percentile.
    untraced_ms: Vec<f64>,
    /// Optimized plans of the traced passes for which the metastore holds
    /// runtime statistics.
    runtime_stats_keys: BTreeSet<String>,
    failed: u64,
    attempted: u64,
}

impl Layers<'_> {
    /// parse → analyze → optimize, each under its span when `root` is
    /// given (a probe plans outside any operation).
    fn plan(&mut self, root: Option<usize>, sql: &str) -> Result<LogicalPlan> {
        let ms = self.bench.server.metastore();
        let conf = self.bench.server.conf();
        let stmt = self
            .tracer
            .under("sql.parse", root, || hive_sql::parse_sql(sql))?;
        let hive_sql::Statement::Query(q) = stmt else {
            return Err(HiveError::Execution(format!("not a query: {sql}")));
        };
        let cat = MetastoreCatalog::new(ms.clone(), "default");
        let analyzed = self.tracer.under("optimizer.analyze", root, || {
            Analyzer::new(&cat).analyze_query(&q)
        })?;
        let ctx = OptimizerContext {
            metastore: ms,
            conf: &conf,
            usable_views: vec![],
            feedback: HashMap::new(),
        };
        self.tracer.under("optimizer.optimize", root, || {
            Optimizer::optimize(analyzed, &ctx)
        })
    }

    /// Replay one read through the layers. `from_cache`: the session
    /// answered this operation from the results cache, so stop where it
    /// stopped.
    fn traced_read(&mut self, root: usize, sql: &str, from_cache: bool) -> Result<Traced> {
        let bench = self.bench;
        let plan = self.plan(Some(root), sql)?;
        if from_cache {
            return Ok(Traced::Read(Box::new(TracedRead {
                plan,
                executed: None,
            })));
        }
        let conf = bench.server.conf();
        let ms = bench.server.metastore();
        let snaps = WideOpenSnapshots(ms);
        let (sel, trace) = self.tracer.child("exec.execute", root, || {
            let mut ctx = ExecContext::new(
                bench.server.fs(),
                ms,
                &conf,
                Some(bench.server.llap()),
                &snaps,
                None,
            );
            ctx.prepare_shared_work(&plan);
            hive_exec::execute_sel(&plan, &ctx)
        })?;
        let batch = self
            .tracer
            .child("exec.decode", root, || sel.compact().decode());
        Ok(Traced::Read(Box::new(TracedRead {
            plan,
            executed: Some((batch, trace)),
        })))
    }

    /// The most delta directories any partition of `table` has now.
    fn delta_dirs(&self, table: &str) -> Result<usize> {
        let ms = self.bench.server.metastore();
        let t = ms.get_table("default", table)?;
        let qname = t.qualified_name();
        let wlist = ValidWriteIdList::wide_open(&qname, ms.table_write_hwm(&qname));
        let deltas = t.partitions.values().map(|info| {
            let dir = DfsPath::new(&info.location);
            resolve_snapshot(self.bench.server.fs(), &dir, &wlist).delta_count()
        });
        Ok(deltas.max().unwrap_or(0))
    }

    /// One untraced pass, then the same operations traced.
    fn alternate(&mut self, pass: usize) -> Result<Alternation> {
        let mut alt = Alternation::default();
        let untraced = self.untraced_pass(pass, &mut alt);
        self.traced_pass(pass, &untraced, &mut alt)?;
        Ok(alt)
    }

    /// A pass through the session, as the untraced run makes it, with the
    /// public counters read before and after.
    fn untraced_pass(&mut self, pass: usize, alt: &mut Alternation) -> Vec<Sample> {
        let bench = self.bench;
        let spec = &bench.spec;
        let indexes = spec.pass(pass);
        let mut flags = Flags::default();
        let hits_before = bench.server.results_cache().stats();
        let meta_before = bench.server.llap().metadata().hit_miss();
        let before = Counters::read(bench);
        let tracer = &mut self.tracer;
        let samples = bench.run_pass(&indexes, |i, nanos, r: &QueryResult| {
            // The untraced operation, in the span file for comparison.
            let span = tracer.open("session.execute", &spec.ops[i].id, pass, None);
            tracer.spans[span].start_ns -= nanos;
            if r.from_cache {
                flags.from_cache_nanos.push(nanos as f64);
            }
            flags.used_mv += r.used_mv as u64;
            flags.reexecuted += r.reexecuted as u64;
            flags.sim_ms += r.sim_ms;
            flags.bytes_spilled += r.bytes_spilled;
            flags.peak_memory_bytes = flags.peak_memory_bytes.max(r.peak_memory_bytes);
            flags.fragment_retries += r.fragment_retries;
            flags.pir_compiled_stages += r.pir_compiled_stages;
        });
        let delta = Counters::read(bench).since(&before);
        let hits_after = bench.server.results_cache().stats();
        let meta_after = bench.server.llap().metadata().hit_miss();
        self.check(&samples);
        self.untraced_ms.extend(samples.iter().map(Sample::ms));
        let n_ops = samples.len() as f64;

        alt.count("optimizer.mv_rewrites", flags.used_mv as f64);
        alt.count("core.reexecutions", flags.reexecuted as f64);
        let (h, m) = (hits_after.0 - hits_before.0, hits_after.1 - hits_before.1);
        alt.count(
            "core.results_cache_hit_rate",
            ratio(h as f64, (h + m) as f64),
        );
        alt.time(
            "core.results_cache_hit_us",
            us(median(&flags.from_cache_nanos)),
        );
        alt.count("exec.sim_ms_sum", flags.sim_ms);
        alt.count("exec.bytes_spilled", flags.bytes_spilled as f64);
        alt.count("exec.peak_memory_bytes", flags.peak_memory_bytes as f64);
        alt.count("exec.fragment_retries", flags.fragment_retries as f64);
        alt.count("exec.pir_compiled_stages", flags.pir_compiled_stages as f64);
        let (lh, lm) = (delta.llap_hits as f64, delta.llap_misses as f64);
        alt.count("llap.hit_rate", ratio(lh, lh + lm));
        alt.count("llap.evictions", delta.llap_evictions as f64);
        alt.count("llap.bytes_loaded", delta.llap_bytes_loaded as f64);
        alt.count("llap.bytes_served", delta.llap_bytes_served as f64);
        let resident = bench.server.llap().cache().resident_bytes();
        alt.count("llap.resident_mb", resident as f64 / (1 << 20) as f64);
        let (mh, mm) = (meta_after.0 - meta_before.0, meta_after.1 - meta_before.1);
        alt.count("llap.metadata_hit_rate", ratio(mh as f64, (mh + mm) as f64));
        alt.count("dfs.reads_per_op", delta.dfs.reads as f64 / n_ops);
        alt.count("dfs.bytes_read_per_op", delta.dfs.bytes_read as f64 / n_ops);
        alt.count("dfs.lists_per_op", delta.dfs.lists as f64 / n_ops);
        alt.count("dfs.writes_per_op", delta.dfs.writes as f64 / n_ops);
        alt.count(
            "dfs.bytes_written_per_op",
            delta.dfs.bytes_written as f64 / n_ops,
        );
        alt.count("dfs.renames", delta.dfs.renames as f64);
        alt.count("dfs.deletes", delta.dfs.deletes as f64);
        alt.count("acid.compactions", delta.compactions as f64);
        let of_kind = |keep: &dyn Fn(OpKind) -> bool| -> Vec<&Sample> {
            samples
                .iter()
                .filter(|s| keep(spec.ops[s.op].kind))
                .collect()
        };
        if spec.writes() {
            // The three costs a storage layer trades against each other:
            // reads over delta-laden partitions, rows written per second
            // of write statements (space is `space_amplification`).
            let reads: Vec<f64> = of_kind(&|k| k == OpKind::Read)
                .iter()
                .map(|s| s.ms())
                .collect();
            alt.time("acid.read_ms_p50", median(&reads));
            let (rows, nanos) = of_kind(&OpKind::is_dml)
                .iter()
                .fold((0u64, 0u64), |a, s| (a.0 + s.affected, a.1 + s.nanos));
            alt.time(
                "acid.write_rows_per_s",
                ratio(rows as f64, nanos as f64 / 1e9),
            );
        }
        for (kind, name) in [
            (OpKind::Insert, "acid.insert_ms_p50"),
            (OpKind::Update, "acid.update_ms_p50"),
            (OpKind::Delete, "acid.delete_ms_p50"),
            (OpKind::Merge, "acid.merge_ms_p50"),
        ] {
            let v: Vec<f64> = of_kind(&|k| k == kind).iter().map(|s| s.ms()).collect();
            alt.time(name, median(&v));
        }
        // Bytes the DFS took per byte the user wrote.
        let writes_rows = |k: OpKind| matches!(k, OpKind::Insert | OpKind::Update | OpKind::Merge);
        let user_bytes: f64 = of_kind(&writes_rows)
            .iter()
            .map(|s| s.affected as f64 * spec.row_bytes)
            .sum();
        alt.count(
            "acid.write_amplification",
            ratio(delta.dfs.bytes_written as f64, user_bytes),
        );
        samples
    }

    /// The operations of the untraced pass just made, once more under
    /// spans: reads through the layers, writes through the session.
    fn traced_pass(
        &mut self,
        pass: usize,
        untraced: &[Sample],
        alt: &mut Alternation,
    ) -> Result<()> {
        let bench = self.bench;
        let spec = &bench.spec;
        let first_span = self.tracer.spans.len();
        let mut rows_in: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut plan_nodes, mut reads) = (0u64, 0u64);
        let (mut fallback_rows, mut workers_max, mut max_deltas) = (0u64, 0u64, 0usize);
        for session_saw in untraced {
            let i = session_saw.op;
            let op: &Op = &spec.ops[i];
            let before = Counters::read(bench);
            let root = self.tracer.open("op", &op.id, pass, None);
            let traced = match (op.kind, op.text()) {
                (OpKind::Read, Some(sql)) => self.traced_read(root, sql, session_saw.from_cache),
                (kind, _) => {
                    let name = match kind {
                        OpKind::Insert => "acid.insert",
                        OpKind::Update => "acid.update",
                        OpKind::Delete => "acid.delete",
                        OpKind::Merge => "acid.merge",
                        _ => "core.ddl",
                    };
                    let (_, r) = self
                        .tracer
                        .child(name, root, || execute_op(&bench.session, op));
                    r.map(|r| Traced::Write(outcome_digest(kind, &r)))
                }
            };
            self.tracer.close(root);
            self.tracer.spans[root].counters = Some(Counters::read(bench).since(&before));
            // Outside the span: what the operation says about the layers.
            let digest = match traced {
                Ok(Traced::Read(read)) => {
                    let TracedRead { plan, executed } = *read;
                    reads += 1;
                    plan.visit(&mut |_| plan_nodes += 1);
                    let fp = fingerprint_hex(&plan);
                    if bench.server.metastore().runtime_stats(&fp).is_some() {
                        self.runtime_stats_keys.insert(fp);
                    }
                    match executed {
                        Some((batch, trace)) => {
                            trace.visit(&mut |n| {
                                if let Some(class) = node_class(&n.label) {
                                    *rows_in.entry(class).or_default() += n.rows_in;
                                }
                                fallback_rows += n.pir_fallback_rows;
                                workers_max = workers_max.max(n.parallel_workers);
                            });
                            let rows = batch.to_rows().iter().map(|r| r.to_string()).collect();
                            Some(digest_outcome(OpKind::Read, rows, 0))
                        }
                        // The session answered from the cache and its
                        // answer was checked there.
                        None => bench.warm_digests[i],
                    }
                }
                Ok(Traced::Write(digest)) => {
                    if op.kind.is_dml() {
                        max_deltas = max_deltas.max(self.delta_dirs(spec.main_table)?);
                    }
                    Some(digest)
                }
                Err(e) => {
                    eprintln!("{}: traced {} failed: {e}", spec.workload.name(), op.id);
                    None
                }
            };
            self.attempted += 1;
            if digest.is_none() || digest != bench.warm_digests[i] {
                eprintln!(
                    "{}: wrong traced result for {}",
                    spec.workload.name(),
                    op.id
                );
                self.failed += 1;
            }
        }

        let spans = &self.tracer.spans[first_span..];
        let sum = |keep: &dyn Fn(&Span) -> bool| -> f64 {
            spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.nanos() as f64)
                .sum()
        };
        let named = |name: &'static str| sum(&|s| s.name == name);
        let n_reads = reads.max(1) as f64;
        let untraced_nanos: f64 = untraced.iter().map(|s| s.nanos as f64).sum();
        let untraced_read_nanos: f64 = untraced
            .iter()
            .filter(|s| spec.ops[s.op].kind == OpKind::Read)
            .map(|s| s.nanos as f64)
            .sum();
        alt.time("sql.parse_us_per_op", us(named("sql.parse")) / n_reads);
        alt.time(
            "optimizer.analyze_us_per_op",
            us(named("optimizer.analyze")) / n_reads,
        );
        alt.time(
            "optimizer.optimize_us_per_op",
            us(named("optimizer.optimize")) / n_reads,
        );
        alt.count("optimizer.plan_nodes", plan_nodes as f64 / n_reads);
        // What the session spends around the layer calls; only reads have
        // layer spans.
        let layers = sum(&|s| LAYER_SPANS.contains(&s.name));
        alt.time(
            "core.driver_self_us_per_op",
            us(untraced_read_nanos - layers).max(0.0) / n_reads,
        );
        alt.time(
            "exec.execute_ms_per_op",
            ms(named("exec.execute")) / n_reads,
        );
        alt.time(
            "exec.result_decode_us_per_op",
            us(named("exec.decode")) / n_reads,
        );
        let total_rows_in: u64 = rows_in.values().sum();
        alt.time(
            "exec.ns_per_row",
            ratio(named("exec.execute"), total_rows_in as f64),
        );
        for (class, rows) in rows_in {
            alt.count(class, rows as f64);
        }
        alt.count(
            "exec.pir_fallback_share",
            ratio(fallback_rows as f64, total_rows_in as f64),
        );
        alt.count("exec.parallel_workers_max", workers_max as f64);
        alt.count("acid.delta_dirs_max", max_deltas as f64);
        let (traced, children) = (named("op"), sum(&|s| s.parent.is_some()));
        alt.time(
            "trace.overhead_pct",
            100.0 * (traced - untraced_nanos) / untraced_nanos,
        );
        alt.time("trace.coverage_pct", 100.0 * children / untraced_nanos);
        Ok(())
    }

    /// Count untraced samples whose result is not the warm-up's.
    fn check(&mut self, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        self.failed += samples
            .iter()
            .filter(|s| s.digest.is_none() || s.digest != self.bench.warm_digests[s.op])
            .count() as u64;
    }

    /// `EXPLAIN <q>` through the session: everything before execution,
    /// view matching included, and robust to inner API drift.
    fn compile_us_per_op(&self) -> f64 {
        let spec = &self.bench.spec;
        let nanos: Vec<f64> = spec
            .pass(1)
            .into_iter()
            .filter_map(|i| {
                spec.ops[i]
                    .text()
                    .filter(|_| spec.ops[i].kind == OpKind::Read)
            })
            .filter_map(|sql| {
                let t = Instant::now();
                let r = self.bench.session.execute(&format!("EXPLAIN {sql}"));
                r.is_ok().then(|| t.elapsed().as_nanos() as f64)
            })
            .collect();
        us(mean(&nanos))
    }

    /// A major compaction of every partition through the session, timed
    /// (`acid.major_compaction_ms`), and the last round's reads before ÷
    /// after it (`acid.read_slowdown_vs_compacted`).
    fn compact_and_compare(&self, out: &mut BTreeMap<&'static str, f64>) -> Result<()> {
        let bench = self.bench;
        let spec = &bench.spec;
        let reads: Vec<&Op> = spec
            .ops
            .iter()
            .rev()
            .filter(|o| o.kind == OpKind::Read)
            .take(2)
            .collect();
        let time_reads = || -> f64 {
            let v: Vec<f64> = (0..9)
                .map(|_| {
                    reads
                        .iter()
                        .map(|op| execute_op(&bench.session, op).0 as f64)
                        .sum()
                })
                .collect();
            median(&v)
        };
        // Repeating a read would otherwise be a results-cache fetch.
        bench.server.set_conf(|c| c.results_cache = false);
        let before = time_reads();
        let metastore = bench.server.metastore();
        let table = metastore.get_table("default", spec.main_table)?;
        for part in table.partitions.keys() {
            metastore.submit_compaction(
                &table.qualified_name(),
                Some(part.clone()),
                CompactionKind::Major,
            );
        }
        // Any COMPACT statement drains the whole queue.
        let t = Instant::now();
        bench
            .session
            .execute(&format!("ALTER TABLE {} COMPACT 'major'", spec.main_table))?;
        out.insert(
            "acid.major_compaction_ms",
            ms(t.elapsed().as_nanos() as f64),
        );
        let after = time_reads();
        let on = spec.conf.results_cache;
        bench.server.set_conf(|c| c.results_cache = on);
        out.insert("acid.read_slowdown_vs_compacted", ratio(before, after));
        Ok(())
    }

    /// Kernel and codec probes on data captured from the warehouse.
    fn probes(&mut self, out: &mut BTreeMap<&'static str, f64>) -> Result<()> {
        let bench = self.bench;
        let spec = &bench.spec;
        let fs = bench.server.fs();
        let ms = bench.server.metastore();
        let conf = bench.server.conf();
        let reps = 5;
        let timed = |f: &mut dyn FnMut()| -> f64 {
            let v: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            median(&v)
        };

        // exec kernels: plan a join / a GROUP BY over the main table,
        // materialize the operator's inputs, time the operator alone.
        let snaps = WideOpenSnapshots(ms);
        let ctx = ExecContext::new(fs, ms, &conf, Some(bench.server.llap()), &snaps, None);
        let join_plan = self.plan(None, &spec.probe_join_sql)?;
        let agg_plan = self.plan(None, &spec.probe_agg_sql)?;
        let join_node = first_node(&join_plan, |p| matches!(p, LogicalPlan::Join { .. }));
        if let Some(LogicalPlan::Join {
            left,
            right,
            join_type,
            equi,
            residual,
        }) = &join_node
        {
            let schema = join_node.as_ref().expect("matched above").schema();
            let (l, _) = hive_exec::execute(left, &ctx)?;
            let (r, _) = hive_exec::execute(right, &ctx)?;
            let nanos = timed(&mut || {
                let joined = execute_join(
                    &l,
                    &r,
                    *join_type,
                    equi,
                    residual,
                    &schema,
                    conf.hash_join_row_budget,
                );
                std::hint::black_box(joined.map(|b| b.num_rows()).unwrap_or(0));
            });
            out.insert(
                "exec.join_ns_per_probe_row",
                ratio(nanos, l.num_rows() as f64),
            );
        }
        let agg_node = first_node(&agg_plan, |p| matches!(p, LogicalPlan::Aggregate { .. }));
        if let Some(LogicalPlan::Aggregate {
            input,
            group_exprs,
            grouping_sets,
            aggs,
        }) = &agg_node
        {
            let schema = agg_node.as_ref().expect("matched above").schema();
            let (batch, _) = hive_exec::execute(input, &ctx)?;
            let nanos = timed(&mut || {
                let grouped = execute_aggregate(&batch, group_exprs, grouping_sets, aggs, &schema);
                std::hint::black_box(grouped.map(|b| b.num_rows()).unwrap_or(0));
            });
            out.insert(
                "exec.aggregate_ns_per_row",
                ratio(nanos, batch.num_rows() as f64),
            );
        }

        // corc: decode every file of the main table, re-encode the
        // largest one.
        let dir = DfsPath::new(format!("/warehouse/default/{}", spec.main_table));
        let (mut decode_nanos, mut decoded_bytes, mut values) = (0f64, 0f64, 0f64);
        let (mut file_bytes, mut rows) = (0f64, 0f64);
        let mut largest: Option<VectorBatch> = None;
        for (path, meta) in fs.list_files_recursive(&dir) {
            let t = Instant::now();
            let Ok(batch) = CorcFile::open(fs, &path).and_then(|f| f.read_all_encoded()) else {
                continue;
            };
            decode_nanos += t.elapsed().as_nanos() as f64;
            decoded_bytes += batch.approx_bytes() as f64;
            values += (batch.num_rows() * batch.num_columns()) as f64;
            file_bytes += meta.len as f64;
            rows += batch.num_rows() as f64;
            if largest
                .as_ref()
                .is_none_or(|b| batch.num_rows() > b.num_rows())
            {
                largest = Some(batch);
            }
        }
        let mb = |bytes: f64| bytes / (1 << 20) as f64;
        out.insert(
            "corc.decode_mb_per_s",
            ratio(mb(decoded_bytes), decode_nanos / 1e9),
        );
        out.insert("corc.decode_ns_per_value", ratio(decode_nanos, values));
        out.insert("corc.bytes_per_row", ratio(file_bytes, rows));
        if let Some(batch) = largest.map(VectorBatch::decode) {
            let nanos = timed(&mut || {
                let bytes = write_batch_to_bytes(&batch, WriterOptions::default());
                std::hint::black_box(bytes.map(|b| b.len()).unwrap_or(0));
            });
            out.insert(
                "corc.encode_mb_per_s",
                ratio(mb(batch.approx_bytes() as f64), nanos / 1e9),
            );
            // metastore: the histogram fold an INSERT pays per batch.
            let nanos = timed(&mut || {
                let mut stats = TableStats::new(batch.num_columns());
                stats.update_batch(&batch);
                std::hint::black_box(stats.row_count);
            });
            out.insert(
                "metastore.stats_update_us_per_krow",
                ratio(us(nanos), batch.num_rows() as f64 / 1e3),
            );
            // llap: a hit on a resident chunk, in a cache of its own so
            // the server's counters stay the workload's.
            let cache = LlapCache::new(64 << 20, conf.lrfu_lambda);
            let key = ChunkKey {
                file: FileId(1),
                column: 0,
                row_group: 0,
            };
            let chunk = batch.column(0).clone();
            cache.get_or_load(key, || Ok(chunk))?;
            let fetches = 100_000;
            let t = Instant::now();
            for _ in 0..fetches {
                let hit = cache.get_or_load(key, || Err(HiveError::Execution("evicted".into())));
                std::hint::black_box(hit.map(|c| c.len()).unwrap_or(0));
            }
            out.insert(
                "llap.hit_fetch_ns",
                t.elapsed().as_nanos() as f64 / fetches as f64,
            );
        }

        // metastore: an empty transaction.
        let txns = 2000;
        let t = Instant::now();
        for _ in 0..txns {
            let txn = ms.open_txn();
            ms.commit_txn(txn)?;
        }
        out.insert(
            "metastore.txn_open_commit_us",
            us(t.elapsed().as_nanos() as f64) / txns as f64,
        );
        Ok(())
    }
}

/// The whole traced run on one workload. `trace_file`, when given,
/// receives every span.
pub fn run(cfg: &RunConfig, trace_file: Option<&Path>) -> Result<Report> {
    let spec = Spec::build(cfg.workload, cfg.seed, cfg.scale);
    let mut report = Report::new(cfg.workload.name(), PER_LAYER);
    stamp(&mut report, cfg, &spec);
    let bench = Bench::set_up(&spec)?;
    let mut layers = Layers {
        bench: &bench,
        tracer: Tracer::new(),
        untraced_ms: Vec::new(),
        runtime_stats_keys: BTreeSet::new(),
        failed: 0,
        attempted: 0,
    };

    let mut alternations = Vec::new();
    let t = Instant::now();
    loop {
        alternations.push(layers.alternate(alternations.len() + 1)?);
        if t.elapsed().as_secs_f64() >= cfg.seconds || cfg.max_passes == Some(alternations.len()) {
            break;
        }
    }
    let mut values: BTreeMap<&'static str, f64> = alternations[0].counts.clone();
    for name in alternations[0].times.keys() {
        let v: Vec<f64> = alternations
            .iter()
            .filter_map(|a| a.times.get(name).copied())
            .collect();
        values.insert(name, median(&v));
    }
    // Before the probes below allocate anything of their own.
    values.insert("core.peak_rss_mb", hygiene::peak_rss_mb());
    // A 95th percentile needs samples beyond it: reported from 200 up.
    if layers.untraced_ms.len() >= 200 {
        values.insert("core.op_ms_p95", quantile(&layers.untraced_ms, 0.95));
    }
    values.insert("core.compile_us_per_op", layers.compile_us_per_op());
    values.insert(
        "metastore.runtime_stats_keys",
        layers.runtime_stats_keys.len() as f64,
    );
    if spec.writes() {
        layers.compact_and_compare(&mut values)?;
    }
    layers.probes(&mut values)?;
    for (name, v) in values {
        report.set(name, v);
    }

    // The same oracle as the untraced run: the warm-up results, which
    // every pass above was compared with, against the reference.
    let wrong = bench.wrong_in_warm_up(&bench.reference_digests());
    for &i in &wrong {
        eprintln!(
            "{}: wrong result for {}",
            cfg.workload.name(),
            spec.ops[i].id
        );
    }
    report.attempted = layers.attempted;
    report.failed = layers.failed;
    report.correct = layers.failed == 0 && wrong.is_empty();
    report.passes = alternations.len();
    report.samples = layers.attempted as usize;
    if let Some(path) = trace_file {
        layers
            .tracer
            .write(path, &spec)
            .map_err(|e| HiveError::Execution(format!("cannot write {}: {e}", path.display())))?;
    }
    Ok(report)
}
