//! The untraced measurement: set-up, warm-up, timed passes, the oracle,
//! and the end-to-end metrics.
//!
//! Everything here goes through the session surface — `HiveServer::new`,
//! `session()`, `Session::execute`, `Session::bulk_insert`, `QueryResult`
//! and the TPC-DS loader — so the numbers keep their meaning when inner
//! APIs are refactored. The one extra is `HiveServer::fs()`, used to add
//! up the bytes under a table directory.

use crate::hygiene;
use crate::report::{Report, END_TO_END};
use crate::stats::{geomean, median, ms, ratio};
use crate::workload::{affected_line, digest_lines, Action, Op, OpKind, Scale, Spec, Workload};
use hive_common::{HiveConf, Result};
use hive_core::{HiveServer, QueryResult, Session};
use hive_dfs::DfsPath;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose digests are checked in under `expected/`.
pub const BLESSED_SEED: u64 = 2019;

/// Set-ups per run. `setup_s` is their median; the last one is measured
/// on. More than one because the benchmark contract gates set-up time and
/// one sample of it is too noisy to gate.
pub const SETUPS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Keep starting timed passes until this much time has been measured.
    pub seconds: f64,
    pub scale: Scale,
    /// Stop after this many timed passes (the smoke test runs one).
    pub max_passes: Option<usize>,
    /// Write the warm-up digests to `<dir>/<workload>-<seed>.txt` instead
    /// of checking against them.
    pub bless: Option<PathBuf>,
}

impl RunConfig {
    pub fn new(workload: Workload) -> RunConfig {
        RunConfig {
            workload,
            seed: BLESSED_SEED,
            seconds: 20.0,
            scale: Scale::Full,
            max_passes: None,
            bless: None,
        }
    }
}

/// A warehouse built and warmed for one workload.
pub struct Bench {
    pub spec: Spec,
    pub server: HiveServer,
    pub session: Session,
    /// Build plus warm-up pass.
    pub setup_seconds: f64,
    /// Outcome digest of every distinct operation in the warm-up pass
    /// (`None`: it failed).
    pub warm_digests: Vec<Option<u64>>,
}

/// One timed execution.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into `Spec::ops`.
    pub op: usize,
    pub nanos: u64,
    /// `None` when the statement returned an error.
    pub digest: Option<u64>,
    pub affected: u64,
    /// The results cache answered.
    pub from_cache: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        ms(self.nanos as f64)
    }
}

/// Seconds a pass spent inside the session: the sum of its latencies.
fn pass_seconds(pass: &[Sample]) -> f64 {
    pass.iter().map(|s| s.nanos as f64 / 1e9).sum()
}

/// Geometric mean, over distinct operations, of the operation's median
/// latency: a 15 ms and a 400 ms query weigh the same.
fn op_ms_geomean(samples: &[&Sample]) -> f64 {
    let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_op.entry(s.op).or_default().push(s.ms());
    }
    let op_medians: Vec<f64> = by_op.values().map(|v| median(v)).collect();
    geomean(&op_medians)
}

/// Digest of what the client saw: the rows, order-insensitive, and for a
/// write the affected-row count.
pub fn outcome_digest(kind: OpKind, r: &QueryResult) -> u64 {
    digest_outcome(kind, r.display_rows(), r.affected_rows)
}

/// [`outcome_digest`] from the rendered rows.
pub fn digest_outcome(kind: OpKind, mut lines: Vec<String>, affected: u64) -> u64 {
    lines.sort();
    if kind != OpKind::Read {
        lines.push(affected_line(affected));
    }
    digest_lines(&lines)
}

/// Run one operation; the clock covers the session call only.
pub fn execute_op(session: &Session, op: &Op) -> (u64, Result<QueryResult>) {
    match &op.action {
        Action::Sql(sql) => {
            let t = Instant::now();
            let r = session.execute(sql);
            (t.elapsed().as_nanos() as u64, r)
        }
        Action::BulkInsert { table, rows } => {
            let rows = rows.clone();
            let t = Instant::now();
            let r = session.bulk_insert(table, rows);
            (t.elapsed().as_nanos() as u64, r)
        }
    }
}

impl Bench {
    /// Fresh server, warehouse, warm-up pass.
    pub fn set_up(spec: &Spec) -> Result<Bench> {
        let t = Instant::now();
        let server = HiveServer::new(spec.conf.clone());
        spec.prepare(&server)?;
        let mut bench = Bench {
            spec: spec.clone(),
            session: server.session(),
            server,
            setup_seconds: 0.0,
            warm_digests: Vec::new(),
        };
        let warm: Vec<usize> = (0..spec.ops.len()).collect();
        bench.warm_digests = bench
            .run_pass(&warm, |_, _, _| {})
            .iter()
            .map(|s| s.digest)
            .collect();
        bench.setup_seconds = t.elapsed().as_secs_f64();
        Ok(bench)
    }

    /// Run the operations at `indexes`, one after another. `observe`
    /// sees each successful result — operation index, latency in
    /// nanoseconds, result — after its clock has stopped.
    pub fn run_pass(
        &self,
        indexes: &[usize],
        mut observe: impl FnMut(usize, u64, &QueryResult),
    ) -> Vec<Sample> {
        indexes
            .iter()
            .map(|&i| {
                let op = &self.spec.ops[i];
                let (nanos, result) = execute_op(&self.session, op);
                match result {
                    Ok(r) => {
                        observe(i, nanos, &r);
                        Sample {
                            op: i,
                            nanos,
                            digest: Some(outcome_digest(op.kind, &r)),
                            affected: r.affected_rows,
                            from_cache: r.from_cache,
                        }
                    }
                    Err(e) => {
                        eprintln!("{}: {} failed: {e}", self.spec.workload.name(), op.id);
                        Sample {
                            op: i,
                            nanos,
                            digest: None,
                            affected: 0,
                            from_cache: false,
                        }
                    }
                }
            })
            .collect()
    }

    /// Timed passes until `seconds` have been measured (or `max_passes`
    /// reached); always at least one.
    pub fn timed_passes(&self, seconds: f64, max_passes: Option<usize>) -> Vec<Vec<Sample>> {
        let mut passes = Vec::new();
        let t = Instant::now();
        loop {
            let indexes = self.spec.pass(passes.len() + 1);
            passes.push(self.run_pass(&indexes, |_, _, _| {}));
            if t.elapsed().as_secs_f64() >= seconds || max_passes == Some(passes.len()) {
                return passes;
            }
        }
    }

    /// The digest every execution of each distinct operation must have.
    ///
    /// * the blessed seed at full scale uses the checked-in file;
    /// * otherwise an operation with a model prediction uses that (all
    ///   of `acid_churn`);
    /// * anything else is re-run on the row interpreter — one thread, no
    ///   results cache, no view rewriting — over the same stored data.
    ///   The time cap on a run rules out loading a second server.
    ///
    /// Where there is a model prediction it must agree with the file too.
    /// Changes the server's configuration: call after measuring.
    pub fn reference_digests(&self) -> Vec<Option<u64>> {
        let blessed = (self.spec.seed == BLESSED_SEED && self.spec.scale == Scale::Full)
            .then(|| parse_expected(expected_file(self.spec.workload)));
        let mut interpreter_ready = false;
        self.spec
            .ops
            .iter()
            .map(|op| {
                if let Some(expected) = &blessed {
                    let digest = expected.get(op.id.as_str()).copied();
                    return digest.filter(|d| op.model_digest.is_none_or(|m| m == *d));
                }
                if op.model_digest.is_some() {
                    return op.model_digest;
                }
                if !interpreter_ready {
                    self.server.set_conf(row_interpreter);
                    interpreter_ready = true;
                }
                let (_, r) = execute_op(&self.session, op);
                r.ok().map(|r| outcome_digest(op.kind, &r))
            })
            .collect()
    }

    /// Indexes of the distinct operations whose warm-up result is not the
    /// reference's (or that failed).
    pub fn wrong_in_warm_up(&self, reference: &[Option<u64>]) -> BTreeSet<usize> {
        (0..self.spec.ops.len())
            .filter(|&i| self.warm_digests[i].is_none() || self.warm_digests[i] != reference[i])
            .collect()
    }

    /// DFS bytes under the main table's directory ÷ bytes of live user
    /// data in it.
    pub fn space_amplification(&self) -> Result<f64> {
        let dir = DfsPath::new(format!("/warehouse/default/{}", self.spec.main_table));
        let stored: u64 = self
            .server
            .fs()
            .list_files_recursive(&dir)
            .iter()
            .map(|(_, meta)| meta.len)
            .sum();
        let logical = self.spec.logical_bytes(&self.session)?;
        Ok(ratio(stored as f64, logical))
    }
}

/// The reference executor's configuration.
fn row_interpreter(c: &mut HiveConf) {
    c.vectorized = false;
    c.parallel_threads = 1;
    c.results_cache = false;
    c.mv_rewriting = false;
}

fn expected_file(w: Workload) -> &'static str {
    match w {
        Workload::TpcdsWarm => include_str!("../expected/tpcds_warm-2019.txt"),
        Workload::ScanCold => include_str!("../expected/scan_cold-2019.txt"),
        Workload::BiShort => include_str!("../expected/bi_short-2019.txt"),
        Workload::AcidChurn => include_str!("../expected/acid_churn-2019.txt"),
    }
}

/// `op_id<TAB>digest-in-hex` per line.
fn parse_expected(text: &str) -> BTreeMap<&str, u64> {
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .filter_map(|(id, hex)| Some((id, u64::from_str_radix(hex.trim(), 16).ok()?)))
        .collect()
}

fn bless(bench: &Bench, dir: &std::path::Path) -> std::io::Result<()> {
    let mut text = String::new();
    for (op, d) in bench.spec.ops.iter().zip(&bench.warm_digests) {
        let d = d.unwrap_or_else(|| panic!("cannot bless: {} failed in the warm-up pass", op.id));
        text.push_str(&format!("{}\t{d:016x}\n", op.id));
    }
    let path = dir.join(format!(
        "{}-{}.txt",
        bench.spec.workload.name(),
        bench.spec.seed
    ));
    std::fs::write(&path, text)?;
    eprintln!("blessed {}", path.display());
    Ok(())
}

/// Facts about the run that belong next to its numbers.
pub fn stamp(report: &mut Report, cfg: &RunConfig, spec: &Spec) {
    report.stamp = vec![
        ("seed", cfg.seed.to_string()),
        ("scale", format!("{:?} {:?}", cfg.scale, cfg.scale.tpcds())),
        ("host_cores", hygiene::host_cores().to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("distinct_ops", spec.ops.len().to_string()),
        ("conf", format!("{:?}", spec.conf)),
    ];
}

/// The whole untraced run on one workload.
pub fn run(cfg: &RunConfig) -> Result<Report> {
    let spec = Spec::build(cfg.workload, cfg.seed, cfg.scale);
    let mut report = Report::new(cfg.workload.name(), END_TO_END);
    stamp(&mut report, cfg, &spec);

    // Each set-up gets a fresh server; the previous one is dropped first
    // so that two warehouses are never resident together.
    let mut bench = Bench::set_up(&spec)?;
    let mut setup_s = vec![bench.setup_seconds];
    for _ in 1..SETUPS {
        drop(bench);
        bench = Bench::set_up(&spec)?;
        setup_s.push(bench.setup_seconds);
    }
    if let Some(dir) = &cfg.bless {
        bless(&bench, dir).map_err(|e| hive_common::HiveError::Execution(e.to_string()))?;
    }

    let passes = bench.timed_passes(cfg.seconds, cfg.max_passes);
    let space_amplification = bench.space_amplification()?;

    // The oracle. In a blessing run the warm-up digests stand in for the
    // file being written.
    let reference = if cfg.bless.is_some() {
        bench.warm_digests.clone()
    } else {
        bench.reference_digests()
    };
    let all: Vec<&Sample> = passes.iter().flatten().collect();
    let failed: Vec<&&Sample> = all
        .iter()
        .filter(|s| s.digest.is_none() || s.digest != reference[s.op])
        .collect();
    let mut wrong_ops = bench.wrong_in_warm_up(&reference);
    wrong_ops.extend(failed.iter().map(|s| s.op));
    for &i in &wrong_ops {
        eprintln!(
            "{}: wrong result for {}",
            cfg.workload.name(),
            spec.ops[i].id
        );
    }
    report.attempted = all.len() as u64;
    report.failed = failed.len() as u64;
    report.correct = wrong_ops.is_empty();
    report.passes = passes.len();
    report.samples = all.len();

    let pooled: Vec<f64> = all.iter().map(|s| s.ms()).collect();
    let pass_seconds: Vec<f64> = passes.iter().map(|p| pass_seconds(p)).collect();
    let pass_ops_per_s: Vec<f64> = passes
        .iter()
        .zip(&pass_seconds)
        .map(|(p, &secs)| ratio(p.len() as f64, secs))
        .collect();
    let pass_seconds: Vec<String> = pass_seconds.iter().map(|s| format!("{s:.3}")).collect();
    report.stamp.push(("pass_seconds", pass_seconds.join(" ")));
    report.set("setup_s", median(&setup_s));
    report.set("ops_per_s", median(&pass_ops_per_s));
    report.set("op_ms_p50", median(&pooled));
    report.set("op_ms_geomean", op_ms_geomean(&all));
    report.set("space_amplification", space_amplification);
    Ok(report)
}
