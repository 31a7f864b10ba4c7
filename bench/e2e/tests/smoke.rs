//! Every workload, one pass at tiny scale: the benchmark emits what
//! `BENCHMARK.json` promises, and a seed determines what it runs.

use e2e_bench::harness::{self, RunConfig};
use e2e_bench::layers;
use e2e_bench::report::{Report, END_TO_END, PER_LAYER};
use e2e_bench::workload::{Scale, Spec, Workload};

fn tiny(workload: Workload, seed: u64) -> RunConfig {
    RunConfig {
        seed,
        scale: Scale::Tiny,
        max_passes: Some(1),
        seconds: 0.0,
        ..RunConfig::new(workload)
    }
}

/// The `(name, unit)` pairs of one array of `BENCHMARK.json`. The file is
/// flat enough — no array nests inside these three — to be read without
/// a JSON parser, which the offline toolchain does not have.
fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, name: &str| -> Option<String> {
        let rest = &entry[entry.find(&format!("\"{name}\""))?..];
        let rest = &rest[rest.find(':')? + 1..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

fn assert_emits(report: &Report, promised: &[(String, Option<String>)]) {
    let emitted: Vec<(String, Option<String>)> = report
        .metrics()
        .map(|(n, _, u)| (n.to_string(), Some(u.to_string())))
        .collect();
    assert_eq!(emitted, promised, "{}", report.workload);
    for (name, value, _) in report.metrics() {
        assert!(value.is_finite(), "{}.{name} = {value}", report.workload);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
}

#[test]
fn every_workload_emits_what_benchmark_json_promises() {
    let json = benchmark_json();
    let workloads: Vec<String> = section(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, all);
    let (end_to_end, per_layer) = (section(&json, "end_to_end"), section(&json, "per_layer"));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    assert_eq!(per_layer.len(), PER_LAYER.len());

    for w in Workload::ALL {
        let report = harness::run(&tiny(w, 7)).unwrap();
        assert!(report.correct, "{}: {} failed", w.name(), report.failed);
        assert!(report.attempted >= 1);
        assert_emits(&report, &end_to_end);
        for (name, value, _) in report.metrics() {
            assert!(value > 0.0, "{}.{name} must never be 0", w.name());
        }
        let report = layers::run(&tiny(w, 7), None).unwrap();
        assert!(
            report.correct,
            "{} traced: {} failed",
            w.name(),
            report.failed
        );
        assert_emits(&report, &per_layer);
    }
}

#[test]
fn a_seed_fixes_the_operations_and_the_exact_counters() {
    // Not the DFS read counters: where the cache thrashes (`scan_cold`),
    // which of two scan workers finds a chunk resident depends on how the
    // threads were scheduled.
    let exact = |r: &Report| -> Vec<(&'static str, f64)> {
        r.metrics()
            .filter(|(n, _, _)| {
                n.starts_with("exec.rows_in.")
                    || (n.starts_with("dfs.") && n.ends_with("_per_op") && !n.contains("read"))
                    || *n == "space_amplification"
            })
            .map(|(n, v, _)| (n, v))
            .collect()
    };
    for w in Workload::ALL {
        let ops = |seed| format!("{:?}", Spec::build(w, seed, Scale::Tiny).ops);
        assert_eq!(ops(7), ops(7));
        if w != Workload::TpcdsWarm {
            assert_ne!(
                ops(7),
                ops(8),
                "{}: the seed must move the operations",
                w.name()
            );
        }
        let (a, b) = (
            harness::run(&tiny(w, 7)).unwrap(),
            harness::run(&tiny(w, 7)).unwrap(),
        );
        assert_eq!(exact(&a), exact(&b), "{}", w.name());
        let (a, b) = (
            layers::run(&tiny(w, 7), None).unwrap(),
            layers::run(&tiny(w, 7), None).unwrap(),
        );
        assert!(!exact(&a).is_empty());
        assert_eq!(exact(&a), exact(&b), "{} traced", w.name());
        // Another seed is another warehouse.
        let c = harness::run(&tiny(w, 8)).unwrap();
        assert!(c.correct);
    }
}
