//! Statistics differential suite: `hive.optimizer.histograms.enabled`
//! may only change *estimates* — join order, build-side choice, Bloom
//! sizing, conjunct order — never results. The curated TPC-DS suite
//! with histograms off runs in `tests/differential.rs`. Here the
//! adaptive rung is exercised end to end: a join whose LIKE-defaulted
//! filter estimate undershoots reality by more than 10x must trip the
//! cardinality guard exactly once, re-plan with the observed count
//! substituted, and return the same rows; the persisted feedback must
//! keep a second execution of the same query from ever tripping again.

use hive_warehouse::{HiveConf, HiveServer};

/// Env knobs override the conf fields; this binary manages both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_HISTOGRAMS_ENABLED");
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// A fact table whose every row survives two LIKE filters (estimated
/// at the 0.25 default each, so the planner expects 1/16th of reality)
/// joined to a one-row dimension: observed join cardinality lands 16x
/// over the estimate, past the 10x guard.
fn load_skewed(histograms: bool) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.histograms_enabled = histograms;
    // The second execution must actually plan and run, not replay a
    // cached result.
    conf.results_cache = false;
    let server = HiveServer::new(conf);
    let s = server.session();
    s.execute("CREATE TABLE dim (k INT, tag STRING)").unwrap();
    s.execute("INSERT INTO dim VALUES (1, 'hot')").unwrap();
    s.execute("CREATE TABLE fact (k INT, note STRING)").unwrap();
    for chunk in 0..12 {
        let values: Vec<String> = (0..1000)
            .map(|i| format!("(1, 'xy{}')", chunk * 1000 + i))
            .collect();
        s.execute(&format!("INSERT INTO fact VALUES {}", values.join(", ")))
            .unwrap();
    }
    server
}

const SKEWED_SQL: &str = "SELECT d.tag, COUNT(*) AS c FROM fact f JOIN dim d ON f.k = d.k \
     WHERE f.note LIKE 'x%' AND f.note LIKE '%y%' GROUP BY d.tag";

/// The adaptive rung end to end: the first execution trips the
/// cardinality guard (observed 12000 vs ~750 estimated), re-plans once
/// with the observed count as feedback, and still returns the rows the
/// constant-selectivity path produces. The trip persists the observed
/// cardinality under the analyzed-plan fingerprint, so a second
/// execution of the same query plans with feedback preloaded and never
/// trips — one re-plan per misestimate, not one per run.
#[test]
fn misestimate_trips_guard_once_then_feedback_holds() {
    let baseline = load_skewed(false)
        .session()
        .execute(SKEWED_SQL)
        .unwrap()
        .display_rows();
    assert_eq!(baseline, vec!["hot\t12000"]);

    let server = load_skewed(true);
    let first = server.session().execute(SKEWED_SQL).unwrap();
    assert!(
        first.reexecuted,
        "16x misestimate must trip the cardinality guard and re-plan"
    );
    assert_eq!(first.display_rows(), baseline, "re-planned rows diverged");

    let second = server.session().execute(SKEWED_SQL).unwrap();
    assert!(
        !second.reexecuted,
        "persisted feedback must keep the second run from tripping"
    );
    assert_eq!(second.display_rows(), baseline);
}

/// With histograms off the guard never arms: the same skewed query runs
/// clean on the constant-selectivity path — the differential oracle the
/// toggle preserves.
#[test]
fn guard_stays_dormant_with_histograms_off() {
    let server = load_skewed(false);
    let first = server.session().execute(SKEWED_SQL).unwrap();
    assert!(!first.reexecuted, "guard must not arm with histograms off");
    let second = server.session().execute(SKEWED_SQL).unwrap();
    assert!(!second.reexecuted);
}
