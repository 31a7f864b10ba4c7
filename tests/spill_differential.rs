//! Spill edge cases: the per-query memory budget
//! (`hive.exec.memory.per.query.bytes`) may only change *where*
//! blocking operators keep their working state — never results. The
//! curated TPC-DS suite under a budget that forces grace joins, spilled
//! group-bys and external sorts, with and without spill-targeted
//! faults, runs in `tests/differential.rs`. Here, the adversarial case
//! the recursive partition planner must survive — a build side that is
//! one giant key and therefore can never be split — end to end and as
//! a property of the planner.

use hive_exec::spill::{plan_partition, MAX_DEPTH, MAX_FANOUT};
use hive_warehouse::{HiveConf, HiveServer};
use proptest::prelude::*;

/// Env knobs override the conf fields; this binary manages both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_SPILL_ENABLED");
        std::env::remove_var("HIVE_MEMORY_BUDGET");
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// The adversarial skew case, end to end: a build side that is a single
/// repeated key can never be split by hashing. The planner's
/// no-progress guard must stop recursing and process it in memory
/// (overshooting the budget) instead of looping forever.
#[test]
fn single_key_build_side_terminates_and_matches() {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.memory_per_query_bytes = 4096;
    let server = HiveServer::new(conf);
    let session = server.session();
    session
        .execute("CREATE TABLE skew_build (k INT, v INT)")
        .unwrap();
    session
        .execute("CREATE TABLE skew_probe (k INT, p INT)")
        .unwrap();
    // 3000 identical build keys: every partition pass routes all rows
    // to one child.
    for chunk in 0..10 {
        let values: Vec<String> = (0..300)
            .map(|i| format!("(7, {})", chunk * 300 + i))
            .collect();
        session
            .execute(&format!(
                "INSERT INTO skew_build VALUES {}",
                values.join(", ")
            ))
            .unwrap();
    }
    session
        .execute("INSERT INTO skew_probe VALUES (7, 1), (8, 2), (7, 3)")
        .unwrap();
    let r = session
        .execute(
            "SELECT COUNT(*), SUM(v), SUM(p) FROM skew_probe \
             JOIN skew_build ON skew_probe.k = skew_build.k",
        )
        .unwrap();
    // 2 probe rows × 3000 build rows; sum(v) over two full copies of
    // 0..3000, sum(p) = (1+3) × 3000.
    assert_eq!(r.display_rows(), vec!["6000\t8997000\t12000".to_string()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simulated recursion over the partition planner: even when no
    /// pass makes progress (single-key skew: every child inherits all
    /// parent rows), the plan must reach `process_in_memory` within
    /// `MAX_DEPTH` steps, and every emitted fanout stays in bounds.
    #[test]
    fn recursive_partitioning_terminates_on_single_key_skew(
        rows in 1usize..5_000_000,
        bytes_per_row in 1u64..4096,
        budget in 1u64..1_048_576,
    ) {
        let mut parent: Option<usize> = None;
        let mut depth = 0u32;
        loop {
            let plan = plan_partition(rows as u64 * bytes_per_row, budget, depth, rows, parent);
            if plan.process_in_memory {
                break;
            }
            prop_assert!(
                (2..=MAX_FANOUT).contains(&plan.fanout),
                "fanout {} out of bounds at depth {depth}", plan.fanout
            );
            prop_assert!(depth < MAX_DEPTH, "recursed past MAX_DEPTH");
            // Worst case: the single giant key funnels every row into
            // one child partition.
            parent = Some(rows);
            depth += 1;
        }
        prop_assert!(depth <= MAX_DEPTH);
    }

    /// With even two distinct hash values the no-progress guard must
    /// not fire early: a child strictly smaller than its parent keeps
    /// partitioning until it fits the budget or hits the depth cap.
    #[test]
    fn shrinking_partitions_keep_splitting_until_they_fit(
        rows in 2usize..1_000_000,
        budget in 4096u64..1_048_576,
    ) {
        let bytes_per_row = 64u64;
        let mut rows = rows;
        let mut parent: Option<usize> = None;
        let mut depth = 0u32;
        loop {
            let est = rows as u64 * bytes_per_row;
            let plan = plan_partition(est, budget, depth, rows, parent);
            if plan.process_in_memory {
                // Legitimate stops only: it fits, we hit the depth cap,
                // or the partition is down to a single row.
                prop_assert!(
                    est <= budget || depth >= MAX_DEPTH || rows <= 1,
                    "gave up early: est={est} budget={budget} depth={depth} rows={rows}"
                );
                break;
            }
            parent = Some(rows);
            // Each pass halves the partition (two distinct keys).
            rows = rows.div_ceil(2);
            depth += 1;
        }
    }
}
