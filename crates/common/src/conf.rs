//! Engine configuration.
//!
//! [`HiveConf`] gathers the feature switches that the paper's evaluation
//! toggles: engine version emulation (Figure 7), LLAP on/off (Table 1),
//! and individual optimizations (shared work, semijoin reduction, results
//! cache, CBO, vectorization).

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which release of the system to emulate.
///
/// `V1_2` reproduces Hive 1.2 (September 2015): MapReduce-style execution,
/// row-at-a-time interpretation, no LLAP, no CBO join reordering, no
/// shared-work or semijoin optimizations, and a reduced SQL surface.
/// `V3_1` is the full system described by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineVersion {
    /// Hive 1.2 emulation (the Figure 7 baseline).
    V1_2,
    /// Hive 3.1, the system this repository reproduces.
    V3_1,
}

impl EngineVersion {
    /// Human-readable version string.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVersion::V1_2 => "1.2",
            EngineVersion::V3_1 => "3.1",
        }
    }
}

/// Execution runtime selection (Section 2: "exchangeable data processing
/// runtime").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// MapReduce emulation: every shuffle boundary materializes to the DFS
    /// and pays per-job startup cost.
    MapReduce,
    /// Tez emulation: a DAG of vertices with pipelined shuffle edges.
    Tez,
}

/// Engine configuration. Construct with [`HiveConf::v3_1`] /
/// [`HiveConf::v1_2`] and adjust fields, builder-style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HiveConf {
    /// Emulated release.
    pub version: EngineVersion,
    /// Execution runtime.
    pub runtime: RuntimeKind,
    /// Use LLAP daemons (persistent executors + data cache) instead of
    /// per-query containers (Section 5.1).
    pub llap_enabled: bool,
    /// Vectorized execution (row interpreter when false). Vectorized,
    /// every predicate compiles to a physical-IR pipeline (`pir` in
    /// `hive-exec`); the row interpreter is the Hive 1.2 engine and the
    /// differential reference.
    pub vectorized: bool,
    /// Cost-based optimization: join reordering etc. (Section 4.1).
    pub cbo_enabled: bool,
    /// Shared-work optimizer (Section 4.5).
    pub shared_work: bool,
    /// Dynamic semijoin reduction (Section 4.6).
    pub semijoin_reduction: bool,
    /// Query results cache (Section 4.3).
    pub results_cache: bool,
    /// Materialized view based rewriting (Section 4.4).
    pub mv_rewriting: bool,
    /// Query reoptimization on retryable failures (Section 4.2).
    pub reoptimization: bool,
    /// Automatic compaction triggering (Section 3.2).
    pub auto_compaction: bool,
    /// Number of delta directories that triggers a minor compaction.
    pub compaction_delta_threshold: usize,
    /// Ratio of delta rows to base rows that triggers a major compaction.
    pub compaction_ratio_threshold: f64,
    /// Rows per vectorized batch.
    pub batch_size: usize,
    /// Target rows per task (controls scan parallelism).
    pub rows_per_task: usize,
    /// Number of worker nodes in the simulated cluster.
    pub cluster_nodes: usize,
    /// Executor slots per node.
    pub slots_per_node: usize,
    /// LLAP cache capacity in bytes (per cluster).
    pub llap_cache_bytes: usize,
    /// LRFU decay parameter λ in [0,1]: 0 ≈ LFU, 1 ≈ LRU.
    pub lrfu_lambda: f64,
    /// Results-cache capacity in entries.
    pub results_cache_entries: usize,
    /// Memory budget per hash join build side, in rows; exceeding it raises
    /// a retryable error that triggers reoptimization.
    pub hash_join_row_budget: usize,
    /// `hive.exec.parallel.threads`: host threads used for morsel-driven
    /// operator parallelism (scan, hash-aggregate build, hash-join
    /// build/probe). `0` means auto (one per available core); `1` forces
    /// the serial path. Results are byte-identical at every setting; only
    /// wall-clock time changes. Overridable via `HIVE_PARALLEL_THREADS`.
    pub parallel_threads: usize,
    /// `hive.optimizer.histograms.enabled`: drive optimizer
    /// cardinality estimates from the seeded equi-depth histograms in
    /// HMS column statistics — equality via bucket-local NDV, ranges
    /// via bucket interpolation, join output via histogram overlap —
    /// and allow observed-cardinality feedback (runtime stats keyed by
    /// plan fingerprint) to trigger the §4.2 mid-query re-plan ladder
    /// on >10× misestimates. When off, the System-R constant
    /// selectivities and bare `max(ndv)` containment path runs — the
    /// differential oracle. Results are byte-identical either way;
    /// only plan choice (and with it sim-time) changes. Overridable
    /// via `HIVE_HISTOGRAMS_ENABLED` (`0`/`false`/`off` disables,
    /// anything else enables).
    pub histograms_enabled: bool,
    /// `hive.exec.spill.enabled`: allow blocking operators (hash join
    /// build, GROUP BY / DISTINCT, ORDER BY) to degrade to disk when the
    /// per-query memory broker denies them memory. When off, an
    /// over-budget operator raises a retryable error instead (the
    /// pre-spill behavior, kept as the differential oracle). Results are
    /// byte-identical either way; only spill I/O (charged to sim-time)
    /// changes. Overridable via `HIVE_SPILL_ENABLED`
    /// (`0`/`false`/`off` disables, anything else enables).
    pub spill_enabled: bool,
    /// `hive.exec.memory.per.query.bytes`: operator working-memory
    /// budget per query in bytes, divided among concurrently-live
    /// operators by the memory broker (`hive_exec::membroker`). The
    /// workload manager scales it by the admitted pool's guaranteed
    /// fraction. `0` means unlimited (nothing ever spills). Overridable
    /// via `HIVE_MEMORY_BUDGET`.
    pub memory_per_query_bytes: usize,
    /// Fault-injection plan (see [`crate::fault`]); `FaultPlan::none()`
    /// injects nothing.
    pub fault: crate::fault::FaultPlan,
}

impl HiveConf {
    /// Full-featured Hive 3.1 configuration (the paper's system).
    pub fn v3_1() -> Self {
        HiveConf {
            version: EngineVersion::V3_1,
            runtime: RuntimeKind::Tez,
            llap_enabled: true,
            vectorized: true,
            cbo_enabled: true,
            shared_work: true,
            semijoin_reduction: true,
            results_cache: true,
            mv_rewriting: true,
            reoptimization: true,
            auto_compaction: true,
            compaction_delta_threshold: 10,
            compaction_ratio_threshold: 0.1,
            batch_size: 1024,
            rows_per_task: 100_000,
            cluster_nodes: 10,
            slots_per_node: 8,
            llap_cache_bytes: 256 << 20,
            lrfu_lambda: 0.5,
            results_cache_entries: 64,
            hash_join_row_budget: 4_000_000,
            parallel_threads: 0,
            histograms_enabled: true,
            spill_enabled: true,
            memory_per_query_bytes: 0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Hive 1.2 emulation (the Figure 7 baseline).
    pub fn v1_2() -> Self {
        HiveConf {
            version: EngineVersion::V1_2,
            runtime: RuntimeKind::MapReduce,
            llap_enabled: false,
            vectorized: false,
            cbo_enabled: false,
            shared_work: false,
            semijoin_reduction: false,
            results_cache: false,
            mv_rewriting: false,
            reoptimization: false,
            ..HiveConf::v3_1()
        }
    }

    /// Builder-style field update.
    pub fn with(mut self, f: impl FnOnce(&mut Self)) -> Self {
        f(&mut self);
        self
    }

    /// Total executor slots in the simulated cluster.
    pub fn total_slots(&self) -> usize {
        self.cluster_nodes * self.slots_per_node
    }

    /// Resolve [`HiveConf::parallel_threads`] to a concrete worker
    /// count: the `HIVE_PARALLEL_THREADS` environment variable wins,
    /// then the conf field, then (for `0` = auto) the host's available
    /// parallelism. Always ≥ 1.
    pub fn effective_parallel_threads(&self) -> usize {
        let requested = std::env::var("HIVE_PARALLEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(self.parallel_threads);
        if requested > 0 {
            return requested;
        }
        // Asked once per process: the answer reads cgroup files (tens of
        // microseconds) and every scan, join and aggregate asks.
        static HOST_CORES: OnceLock<usize> = OnceLock::new();
        *HOST_CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Resolve [`HiveConf::histograms_enabled`]: the
    /// `HIVE_HISTOGRAMS_ENABLED` environment variable wins (for
    /// process-level differential sweeps), then the conf field.
    pub fn effective_histograms_enabled(&self) -> bool {
        env_flag("HIVE_HISTOGRAMS_ENABLED", self.histograms_enabled)
    }

    /// Resolve [`HiveConf::spill_enabled`]: the `HIVE_SPILL_ENABLED`
    /// environment variable wins (for process-level differential
    /// sweeps), then the conf field.
    pub fn effective_spill_enabled(&self) -> bool {
        env_flag("HIVE_SPILL_ENABLED", self.spill_enabled)
    }

    /// Resolve [`HiveConf::memory_per_query_bytes`]: the
    /// `HIVE_MEMORY_BUDGET` environment variable wins (for the
    /// forced-tiny-budget sweep), then the conf field. `0` means
    /// unlimited.
    pub fn effective_memory_per_query_bytes(&self) -> usize {
        std::env::var("HIVE_MEMORY_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(self.memory_per_query_bytes)
    }
}

/// A boolean switch's environment override: when `name` is set, `0`,
/// `false`, `off` and the empty string disable and anything else
/// enables; when it is unset, `field` stands.
fn env_flag(name: &str, field: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | ""),
        Err(_) => field,
    }
}

impl Default for HiveConf {
    fn default() -> Self {
        HiveConf::v3_1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let new = HiveConf::v3_1();
        let old = HiveConf::v1_2();
        assert!(new.llap_enabled && !old.llap_enabled);
        assert!(new.vectorized && !old.vectorized);
        assert_eq!(old.runtime, RuntimeKind::MapReduce);
        assert_eq!(new.runtime, RuntimeKind::Tez);
        assert_eq!(new.total_slots(), 80);
    }

    #[test]
    fn with_builder() {
        let c = HiveConf::v3_1().with(|c| c.llap_enabled = false);
        assert!(!c.llap_enabled);
        assert!(c.cbo_enabled);
    }

    #[test]
    fn spill_knob_defaults() {
        let c = HiveConf::v3_1();
        assert!(c.spill_enabled);
        assert_eq!(c.memory_per_query_bytes, 0, "default budget is unlimited");
        if std::env::var("HIVE_MEMORY_BUDGET").is_err() {
            let tiny = HiveConf::v3_1().with(|c| c.memory_per_query_bytes = 4096);
            assert_eq!(tiny.effective_memory_per_query_bytes(), 4096);
        }
        if std::env::var("HIVE_SPILL_ENABLED").is_err() {
            let off = HiveConf::v3_1().with(|c| c.spill_enabled = false);
            assert!(!off.effective_spill_enabled());
        }
    }

    #[test]
    fn parallel_threads_resolution() {
        // Auto (0) resolves to ≥ 1; an explicit conf setting is honored
        // unless the env override is present (HIVE_PAR_SWEEP sets it for
        // the whole test process, so only assert the conf path when the
        // environment is clean).
        let auto = HiveConf::v3_1();
        assert_eq!(auto.parallel_threads, 0);
        assert!(auto.effective_parallel_threads() >= 1);
        if std::env::var("HIVE_PARALLEL_THREADS").is_err() {
            let c = HiveConf::v3_1().with(|c| c.parallel_threads = 4);
            assert_eq!(c.effective_parallel_threads(), 4);
        }
    }
}
