//! Metric names and units, and the result record a run prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (the smoke test holds them equal): a run with
//! `--trace 0` reports every [`END_TO_END`] metric, a run with
//! `--trace 1` every [`PER_LAYER`] metric, on every workload. An
//! end-to-end metric is never 0 and means the same on every workload; a
//! layer metric that does not apply to a workload (`acid.*` on a
//! read-only one) reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the warehouse would see.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_geomean", "ms"),
    ("space_amplification", "ratio"),
];

/// One layer each, named `<crate>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    ("sql.parse_us_per_op", "us"),
    ("optimizer.analyze_us_per_op", "us"),
    ("optimizer.optimize_us_per_op", "us"),
    ("optimizer.plan_nodes", "count"),
    ("optimizer.mv_rewrites", "count"),
    ("core.compile_us_per_op", "us"),
    ("core.driver_self_us_per_op", "us"),
    ("core.results_cache_hit_rate", "ratio"),
    ("core.results_cache_hit_us", "us"),
    ("core.reexecutions", "count"),
    ("core.op_ms_p95", "ms"),
    ("core.peak_rss_mb", "MB"),
    ("exec.execute_ms_per_op", "ms"),
    ("exec.result_decode_us_per_op", "us"),
    ("exec.ns_per_row", "ns"),
    ("exec.rows_in.scan", "count"),
    ("exec.rows_in.filter", "count"),
    ("exec.rows_in.project", "count"),
    ("exec.rows_in.join", "count"),
    ("exec.rows_in.aggregate", "count"),
    ("exec.rows_in.sort", "count"),
    ("exec.rows_in.window", "count"),
    ("exec.rows_in.setop", "count"),
    ("exec.pir_compiled_stages", "count"),
    ("exec.pir_fallback_share", "ratio"),
    ("exec.bytes_spilled", "bytes"),
    ("exec.peak_memory_bytes", "bytes"),
    ("exec.fragment_retries", "count"),
    ("exec.parallel_workers_max", "count"),
    ("exec.sim_ms_sum", "ms"),
    ("exec.join_ns_per_probe_row", "ns"),
    ("exec.aggregate_ns_per_row", "ns"),
    ("llap.hit_rate", "ratio"),
    ("llap.evictions", "count"),
    ("llap.bytes_loaded", "bytes"),
    ("llap.bytes_served", "bytes"),
    ("llap.resident_mb", "MB"),
    ("llap.metadata_hit_rate", "ratio"),
    ("llap.hit_fetch_ns", "ns"),
    ("corc.decode_mb_per_s", "MB/s"),
    ("corc.decode_ns_per_value", "ns"),
    ("corc.encode_mb_per_s", "MB/s"),
    ("corc.bytes_per_row", "bytes"),
    ("dfs.reads_per_op", "count"),
    ("dfs.bytes_read_per_op", "bytes"),
    ("dfs.lists_per_op", "count"),
    ("dfs.writes_per_op", "count"),
    ("dfs.bytes_written_per_op", "bytes"),
    ("dfs.renames", "count"),
    ("dfs.deletes", "count"),
    ("acid.insert_ms_p50", "ms"),
    ("acid.update_ms_p50", "ms"),
    ("acid.delete_ms_p50", "ms"),
    ("acid.merge_ms_p50", "ms"),
    ("acid.compactions", "count"),
    ("acid.major_compaction_ms", "ms"),
    ("acid.delta_dirs_max", "count"),
    ("acid.write_amplification", "ratio"),
    ("acid.read_slowdown_vs_compacted", "ratio"),
    ("acid.read_ms_p50", "ms"),
    ("acid.write_rows_per_s", "rows/s"),
    ("metastore.txn_open_commit_us", "us"),
    ("metastore.stats_update_us_per_krow", "us"),
    ("metastore.runtime_stats_keys", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// The outcome of one run on one workload.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Every operation produced the reference result.
    pub correct: bool,
    /// Timed operations.
    pub attempted: u64,
    /// Timed operations that failed or returned a wrong result.
    pub failed: u64,
    /// Timed passes and pooled latency samples behind the medians.
    pub passes: usize,
    pub samples: usize,
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
    /// Free-form `key = value` facts stamped into the result file
    /// (seed, scale, effective conf, …).
    pub stamp: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(workload: &'static str, defs: &'static [MetricDef]) -> Report {
        Report {
            workload,
            correct: true,
            attempted: 0,
            failed: 0,
            passes: 0,
            samples: 0,
            defs,
            values: BTreeMap::new(),
            stamp: Vec::new(),
        }
    }

    /// Record a metric; the name must be one of this report's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .defs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the report's table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(key, value);
    }

    /// Every metric of the table in table order; unset ones read 0.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.defs
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
    }

    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The lines a person reads: `workload.metric value unit`.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.stamp {
            let _ = writeln!(s, "# {}.{k} = {v}", self.workload);
        }
        let _ = writeln!(
            s,
            "# {}: {} passes, {} samples, {} attempted, {} failed",
            self.workload, self.passes, self.samples, self.attempted, self.failed
        );
        for (n, v, u) in self.metrics() {
            let _ = writeln!(s, "{}.{n} {v} {u}", self.workload);
        }
        let _ = writeln!(
            s,
            "{}.error_rate {} ratio",
            self.workload,
            self.error_rate()
        );
        s
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .map(|(n, v, u)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The fuller record `run.sh` collects into `result.json`.
    pub fn stamped_json_line(&self, trace: bool) -> String {
        let stamp: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"passes\": {}, \"samples\": {}, \"stamp\": {{{}}}, \"result\": {}}}",
            quote(self.workload),
            trace as u8,
            self.passes,
            self.samples,
            stamp.join(", "),
            self.json_line()
        )
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("w", END_TO_END);
        r.attempted = 3;
        r.set("setup_s", 1.25);
        let line = r.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*n), "duplicate metric {n}");
            assert!(n.len() <= 64 && u.len() <= 16);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
