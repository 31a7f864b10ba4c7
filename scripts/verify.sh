#!/usr/bin/env bash
# Tier-1 verification: build + full test suite, then the chaos
# fault-injection job.
#
# The chaos job replays seeded fault plans through tests/chaos.rs.
# Beyond the fixed-seed tests that always run, HIVE_CHAOS_SEEDS sweeps
# extra seeds through the env-gated replay test, e.g.:
#
#   HIVE_CHAOS_SEEDS="1 2 3" scripts/verify.sh
#
# A failing seed reproduces directly with:
#
#   HIVE_FAULT_SEED=<seed> cargo test --test chaos env_seeded_chaos_replay
#
# HIVE_PAR_SWEEP=1 additionally re-runs the test suite with the
# morsel-parallelism knob forced to 1, 2, and 8 host threads
# (HIVE_PARALLEL_THREADS overrides hive.exec.parallel.threads), then
# runs the parallel benchmark, which refreshes BENCH_parallel.json at
# the repo root.
#
# HIVE_DICT_SWEEP=1 re-runs the test suite with dictionary-encoded late
# materialization forced off and then on (HIVE_DICT_ENABLED overrides
# hive.exec.dictionary.enabled) — results must be identical either way —
# then runs the dictionary benchmark, which refreshes BENCH_dict.json.
#
# HIVE_SELVEC_SWEEP=1 re-runs the test suite with selection-vector
# execution forced off and then on (HIVE_SELVEC_ENABLED overrides
# hive.exec.selvec.enabled) — results must be identical either way —
# then runs the selvec benchmark, which refreshes BENCH_selvec.json.
#
# HIVE_RAWTABLE_SWEEP=1 re-runs the test suite with the flat hash
# table forced off and then on (HIVE_RAWTABLE_ENABLED overrides
# hive.exec.rawtable.enabled) — results must be identical either way —
# then runs the hashtable benchmark, which refreshes BENCH_hash.json.
#
# HIVE_SPILL_SWEEP=1 re-runs the test suite under a forced tiny
# per-query memory budget (HIVE_MEMORY_BUDGET overrides
# hive.exec.memory.per.query.bytes), pushing every blocking operator
# through the grace-join / spilled-aggregation / external-sort paths —
# results must be identical to the unbudgeted runs — then runs the
# spill benchmark, which refreshes BENCH_spill.json.
#
# HIVE_PIR_SWEEP=1 re-runs the test suite with the compiled physical
# IR forced off and then on (HIVE_PIR_ENABLED overrides
# hive.exec.pir.enabled) — results must be identical either way — then
# runs the pir benchmark, which refreshes BENCH_pir.json.
#
# HIVE_STATS_SWEEP=1 re-runs the test suite with histogram-driven
# cardinality estimation forced off and then on (HIVE_HISTOGRAMS_ENABLED
# overrides hive.optimizer.histograms.enabled) — results must be
# identical either way; the off setting is the constant-selectivity
# differential oracle — then runs the optstats benchmark, which
# refreshes BENCH_optstats.json.
#
# HIVE_WM_SWEEP=1 runs the multi-stream serving determinism suite at
# 1/4/16 streams × 1/2/8 morsel threads under a fixed HIVE_FAULT_SEED
# (HIVE_WM_STREAMS gates tests/serving_determinism.rs::env_wm_sweep;
# the single-query serial path is the differential oracle), then runs
# the throughput benchmark, which refreshes BENCH_throughput.json.
#
# HIVE_SWEEP_ALL=1 turns on every per-PR sweep above in one knob (the
# individual flags keep working, and an explicitly-set flag wins).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "${HIVE_SWEEP_ALL:-}" ]]; then
    : "${HIVE_PAR_SWEEP:=1}"
    : "${HIVE_DICT_SWEEP:=1}"
    : "${HIVE_SELVEC_SWEEP:=1}"
    : "${HIVE_RAWTABLE_SWEEP:=1}"
    : "${HIVE_SPILL_SWEEP:=1}"
    : "${HIVE_PIR_SWEEP:=1}"
    : "${HIVE_STATS_SWEEP:=1}"
    : "${HIVE_WM_SWEEP:=1}"
fi

echo "== format =="
cargo fmt --check

echo "== clippy =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --offline

echo "== gates: threads start in one place, unsafe in one block =="
# Operators get threads from exec::par's pool and nowhere else: outside
# test modules, crates/exec/src may name a thread-starting API only where
# the pool starts a helper.
starts="$(find crates/exec/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /thread::(scope|spawn|Builder)/ { print f ":" FNR }' "$f"
done)"
if [[ "$(echo "$starts" | grep -c .)" != 1 || "$starts" != crates/exec/src/par.rs:* ]]; then
    echo "thread start-up outside the executor pool's helper start-up:" >&2
    echo "$starts" >&2
    exit 1
fi
# One `unsafe` block in the workspace: where a pool helper follows the
# raw address of a caller's claim loop. What it needs declared (the
# `unsafe fn` it calls, `Send` for the address) lives beside it.
sites="$(grep -rnE 'unsafe[[:space:]]*(\{|impl|fn)' crates src --include='*.rs' | grep -vE ':[0-9]+:[[:space:]]*//' || true)"
if echo "$sites" | grep -qv '^crates/exec/src/par.rs:' ||
    [[ "$(echo "$sites" | grep -cE 'unsafe[[:space:]]*\{')" != 1 ]]; then
    echo "expected unsafe only in crates/exec/src/par.rs, and one block of it:" >&2
    echo "$sites" >&2
    exit 1
fi

echo "== tests =="
# Named first so a failure says which promise broke: a planner change
# that moves a plan or an estimate, or one that goes back to fetching
# statistics or deriving summaries more than once per planning.
echo "-- plans do not move: EXPLAIN + estimate bits vs tests/golden/plan_stability.txt --"
cargo test -q --offline --test plan_stability plans_and_estimates_match_the_golden_file
echo "-- planning in O(plan): the counting-StatsSource gate --"
cargo test -q --offline --test plan_stability one_optimize_fetches_each_table_once_and_derives_each_summary_once
# The cold read path's three promises (DESIGN.md §4 "parts", §LLAP):
# folding a scan part by part changes no byte, LRFU evicts what the
# linear chooser would have, and the chunk decoder ends typed. The first
# also pins compiled = interpreted (DESIGN.md §4 "Aggregate states stay
# columns"): state columns from fold to output and DISTINCT as a
# first-occurrence filter return the accumulator rows' bytes — DISTINCT
# of every function included — at 1/2/8 workers and under a spill budget.
echo "-- parts equal the whole, compiled equals interpreted: any cut, any worker count, same bytes --"
cargo test -q --offline -p hive-exec --test aggregate_parts
echo "-- LRFU: the ordered set picks the O(n) chooser's victims --"
cargo test -q --offline -p hive-llap --lib ordered_set_picks_the_linear_choosers_victims
echo "-- corc: truncated and mutated chunks and footers decode to Ok or Format --"
cargo test -q --offline -p hive-corc --lib decode_fuzz_truncations_and_mutations_end_typed
cargo test -q --offline -p hive-corc --test prop_tests footer_truncations_and_mutations_end_typed
# The hash-key layer's two promises (DESIGN.md §4 "Hash keys"): packed
# words group and join exactly as the canonical bytes they replaced, and
# a DISTINCT set has one answer whatever the table toggle says.
echo "-- key layer: word shapes = bytes shape = the replaced encode-and-FNV code --"
cargo test -q --offline -p hive-exec --test keys
echo "-- COUNT/SUM/AVG(DISTINCT double): NaN counts once, one answer under every configuration --"
cargo test -q --offline --test hash_keys count_distinct_over_doubles_is_one_answer_under_every_configuration
# The persistent executors (DESIGN.md §5 "Executors are persistent"): the
# ticket protocol under nesting, many clients, panics and a borrowed
# stack freed right after the call — then the engine on top of it, at
# each width the sweeps use (the variable overrides every conf).
for threads in 1 2 8; do
    echo "-- executor pool: stress tests and engine at HIVE_PARALLEL_THREADS=$threads --"
    HIVE_PARALLEL_THREADS="$threads" cargo test -q --offline -p hive-exec --lib par::tests
    HIVE_PARALLEL_THREADS="$threads" cargo test -q --offline --test hash_keys --test scan_parts
    # ACID visibility decided per row group from the footer (DESIGN.md
    # §4 "ACID reads"): generated stores x write-id lists against the row-at-a-time
    # reader, which fetches every identity column and asks every record.
    HIVE_PARALLEL_THREADS="$threads" cargo test -q --offline -p hive-exec --test acid_visibility
done
echo "-- ACID at par, by counter: a visible row group costs a plain one's DFS reads --"
cargo test -q --offline -p hive-core --test acid_at_par
echo "-- compaction: the bytes of the replaced Value-per-row reads --"
cargo test -q --offline -p hive-acid --test prop_tests compacted_files_are_byte_identical_to_the_replaced_reads
cargo test -q --offline --test parallel_determinism concurrent_sessions_share_the_executors_and_agree_with_serial
# chaos_recovery's scans span several row groups, so it starts helpers;
# its `main` then returns with them parked.
echo "-- the process exits under parked helpers --"
HIVE_PARALLEL_THREADS=8 timeout 300 cargo run -q --offline --example chaos_recovery > /dev/null
echo "-- reducers: a dropped row has no join partner; dense arm exact, hashed arm <= 2 % false positives; parts route = assembled route --"
cargo test -q --offline -p hive-exec --test reducers
echo "-- results cache: right across DROP/re-CREATE, and in front of the planner --"
cargo test -q --offline -p hive-core --test table_incarnation
cargo test -q --offline -p hive-core --lib cache_position_tests
# Replicated strings (DESIGN.md §4 "Replicated strings"): a gather may
# hand a string column on encoded, so nothing may read the representation.
echo "-- gather: plain and encoded results equal the Value-per-cell gather, either side of the fan-out threshold --"
cargo test -q --offline -p hive-common --test gather_cast_props
echo "-- above a join: consumers of dictionary and replicated plain strings = the row interpreter --"
cargo test -q --offline --test join_output
cargo test -q --offline --workspace

# bench/e2e is a workspace of its own, so the line above never builds it:
# this is what catches a session/driver API change that breaks it.
echo "== e2e smoke =="
cargo test -q --offline --manifest-path bench/e2e/Cargo.toml

echo "== chaos: fixed-seed fault-injection suite =="
cargo test -q --offline --test chaos

for seed in ${HIVE_CHAOS_SEEDS:-}; do
    echo "== chaos: replaying seed $seed =="
    HIVE_FAULT_SEED="$seed" \
        cargo test -q --offline --test chaos env_seeded_chaos_replay -- --nocapture
done

if [[ -n "${HIVE_PAR_SWEEP:-}" ]]; then
    for threads in 1 2 8; do
        echo "== parallel sweep: tests at HIVE_PARALLEL_THREADS=$threads =="
        HIVE_PARALLEL_THREADS="$threads" cargo test -q --offline --workspace
    done
    echo "== parallel sweep: benchmark (writes BENCH_parallel.json) =="
    cargo bench -q --offline -p hive-bench --bench parallel
fi

if [[ -n "${HIVE_DICT_SWEEP:-}" ]]; then
    for dict in 0 1; do
        echo "== dictionary sweep: tests at HIVE_DICT_ENABLED=$dict =="
        HIVE_DICT_ENABLED="$dict" cargo test -q --offline --workspace
    done
    echo "== dictionary sweep: benchmark (writes BENCH_dict.json) =="
    cargo bench -q --offline -p hive-bench --bench dictionary
fi

if [[ -n "${HIVE_SELVEC_SWEEP:-}" ]]; then
    for selvec in 0 1; do
        echo "== selvec sweep: tests at HIVE_SELVEC_ENABLED=$selvec =="
        HIVE_SELVEC_ENABLED="$selvec" cargo test -q --offline --workspace
    done
    echo "== selvec sweep: benchmark (writes BENCH_selvec.json) =="
    cargo bench -q --offline -p hive-bench --bench selvec
fi

if [[ -n "${HIVE_RAWTABLE_SWEEP:-}" ]]; then
    for raw in 0 1; do
        echo "== rawtable sweep: tests at HIVE_RAWTABLE_ENABLED=$raw =="
        HIVE_RAWTABLE_ENABLED="$raw" cargo test -q --offline --workspace
    done
    echo "== rawtable sweep: benchmark (writes BENCH_hash.json) =="
    cargo bench -q --offline -p hive-bench --bench hashtable
fi

if [[ -n "${HIVE_SPILL_SWEEP:-}" ]]; then
    for budget in 32768 1048576; do
        echo "== spill sweep: tests at HIVE_MEMORY_BUDGET=$budget =="
        HIVE_MEMORY_BUDGET="$budget" cargo test -q --offline --workspace
    done
    echo "== spill sweep: benchmark (writes BENCH_spill.json) =="
    cargo bench -q --offline -p hive-bench --bench spill
fi

if [[ -n "${HIVE_PIR_SWEEP:-}" ]]; then
    for pir in 0 1; do
        echo "== pir sweep: tests at HIVE_PIR_ENABLED=$pir =="
        HIVE_PIR_ENABLED="$pir" cargo test -q --offline --workspace
    done
    echo "== pir sweep: benchmark (writes BENCH_pir.json) =="
    cargo bench -q --offline -p hive-bench --bench pir
    echo "== pir sweep: aggregate/residual benchmark (writes BENCH_pir_agg.json) =="
    cargo bench -q --offline -p hive-bench --bench pir_agg
fi

if [[ -n "${HIVE_STATS_SWEEP:-}" ]]; then
    for hist in 0 1; do
        echo "== stats sweep: tests at HIVE_HISTOGRAMS_ENABLED=$hist =="
        HIVE_HISTOGRAMS_ENABLED="$hist" cargo test -q --offline --workspace
    done
    echo "== stats sweep: benchmark (writes BENCH_optstats.json) =="
    cargo bench -q --offline -p hive-bench --bench optstats
fi

if [[ -n "${HIVE_WM_SWEEP:-}" ]]; then
    for streams in 1 4 16; do
        for threads in 1 2 8; do
            echo "== wm sweep: $streams streams at HIVE_PARALLEL_THREADS=$threads =="
            HIVE_WM_STREAMS="$streams" \
                HIVE_PARALLEL_THREADS="$threads" \
                HIVE_FAULT_SEED="${HIVE_WM_SEED:-3112019}" \
                HIVE_FAULT_DAEMON_KILL_PROB=0.3 \
                HIVE_FAULT_DFS_SLOW_PROB=0.1 \
                cargo test -q --offline --test serving_determinism env_wm_sweep -- --nocapture
        done
    done
    echo "== wm sweep: benchmark (writes BENCH_throughput.json) =="
    cargo bench -q --offline -p hive-bench --bench throughput
fi

# The paper's §8 claim as a gate: a major-compacted ACID table reads in
# the simulated time of the same rows as plain files. Sim time repeats
# exactly; 1.00 is the ratio recorded in EXPERIMENTS.md ("ACID reads at
# par").
echo "== paper gate: compacted-ACID reads at par with non-ACID (ablation_acid) =="
ratio="$(cargo bench -q --offline -p hive-bench --bench ablation_acid |
    sed -n 's/^compacted-ACID vs non-ACID ratio: \([0-9.]*\)x.*/\1/p')"
if ! awk -v r="$ratio" 'BEGIN { exit !(r != "" && r + 0 <= 1.00 + 0.02) }'; then
    echo "compacted-ACID / non-ACID sim time is '${ratio}', above 1.00 + 0.02" >&2
    exit 1
fi
echo "ratio ${ratio}x"

echo "== bench gates =="
python3 scripts/bench_check.py

echo "verify: OK"
