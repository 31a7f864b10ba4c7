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
# HIVE_<NAME>_SWEEP=1 runs one row of the `sweeps` table below: the
# workspace tests once per value of its variable (each overrides a
# HiveConf field for the whole process; results must not change). PAR
# sweeps the morsel threads, SPILL a per-query memory budget that forces
# grace joins, spilled aggregation and external sorts, STATS
# histogram-driven estimation (off is the constant-selectivity planner).
#
# HIVE_WM_SWEEP=1 runs the multi-stream serving determinism suite at
# 1/4/16 streams × 1/2/8 morsel threads under a fixed HIVE_FAULT_SEED
# (HIVE_WM_STREAMS gates tests/serving_determinism.rs::env_wm_sweep;
# the single-query serial path is the differential oracle), then runs
# the throughput benchmark, which refreshes BENCH_throughput.json.
#
# HIVE_SWEEP_ALL=1 turns on every sweep in one knob (the individual
# flags keep working, and an explicitly-set flag wins).
set -euo pipefail
cd "$(dirname "$0")/.."

# One row per sweep: HIVE_<NAME>_SWEEP's NAME, variable, values.
sweeps=(
    "PAR HIVE_PARALLEL_THREADS 1,2,8"
    "SPILL HIVE_MEMORY_BUDGET 32768,1048576"
    "STATS HIVE_HISTOGRAMS_ENABLED 0,1"
)

if [[ -n "${HIVE_SWEEP_ALL:-}" ]]; then
    for row in "${sweeps[@]}" WM; do
        flag="HIVE_${row%% *}_SWEEP"
        [[ -n "${!flag:-}" ]] || printf -v "$flag" 1
    done
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
echo "-- build side: q43's and q65's inner joins build on the dimension, never on store_sales --"
cargo test -q --offline --test plan_stability fact_joins_build_on_the_dimension_side
# The cold read path's three promises (DESIGN.md §4 "parts", §LLAP):
# folding a scan part by part changes no byte, LRFU evicts what the
# linear chooser would have, and the chunk decoder ends typed. The first
# also pins compiled = interpreted (DESIGN.md §4 "Aggregate states stay
# columns"): state columns from fold to output and DISTINCT as a
# first-occurrence filter return the accumulator rows' bytes — DISTINCT
# of every function included — at 1/2/8 workers and under a spill budget.
echo "-- parts equal the whole, compiled equals interpreted: any cut, any worker count, same bytes --"
cargo test -q --offline -p hive-exec --test aggregate_parts
echo "-- a join probed part by part = the join over the concatenation; one dictionary per fan-out --"
cargo test -q --offline -p hive-exec --test join_parts
# One spill format (DESIGN.md §4 "Memory broker & spill format"): a
# spilled partition is a position run rebuilt by the in-memory build.
echo "-- spilled builds two levels deep = the unbudgeted builds, byte for byte --"
cargo test -q --offline -p hive-exec --test spill_builds
cargo test -q --offline -p hive-exec --lib spill::tests
echo "-- LRFU: the ordered set picks the O(n) chooser's victims --"
cargo test -q --offline -p hive-llap --lib ordered_set_picks_the_linear_choosers_victims
echo "-- corc: truncated and mutated chunks and footers decode to Ok or Format --"
cargo test -q --offline -p hive-corc --lib decode_fuzz_truncations_and_mutations_end_typed
cargo test -q --offline -p hive-corc --test prop_tests footer_truncations_and_mutations_end_typed
echo "-- corc: packed runs round-trip at every width; a bad width, a short body, a v1 file are Format --"
cargo test -q --offline -p hive-corc --lib packed_runs_round_trip_at_every_width
cargo test -q --offline -p hive-corc --lib malformed_packed_runs_and_v1_files_are_format_errors
# Cold misses at memory speed (DESIGN.md §4 "corc decodes from a slice",
# "LLAP: exact LRFU"): the width-specialized unpack kernel, and misses
# that decode into the buffers the cache's own evictions left.
echo "-- corc: the group kernel = a bit-by-bit decode at every width and tail; INT/DATE past i32 are Format --"
cargo test -q --offline -p hive-corc --lib packed_runs_equal_a_bit_by_bit_decode_at_every_width_and_tail
cargo test -q --offline -p hive-corc --lib int_and_date_values_past_i32_are_format_errors
echo "-- spares: a dirty spare decodes to a fresh decode's bytes; a held chunk is never recycled; a quarter of the capacity at most --"
cargo test -q --offline -p hive-corc --lib decoding_into_dirty_spares_equals_a_fresh_decode
cargo test -q --offline -p hive-corc --lib spares::tests
cargo test -q --offline -p hive-llap --lib a_held_chunk_keeps_its_values_through_misses_that_take_spares
cargo test -q --offline -p hive-llap --lib spares_never_pass_a_quarter_of_the_capacity
cargo test -q --offline -p hive-llap --lib kill_drops_cache_share
# One predicate engine (DESIGN.md §4 "Physical IR"): every vectorized
# predicate compiles through PredPipeline, and the row interpreter is the
# reference for all of them — scan residuals (shared-work scans too), DML
# conditions that evaluate to NULL, and the typed comparison edges.
echo "-- predicates: compiled = the row interpreter on NaN, wide, NULL and decimal literals; the fallback reads only what it uses --"
cargo test -q --offline -p hive-exec --lib kernels::tests
echo "-- predicates: col [NOT] IN (literals) compiles, and keeps the row interpreter's rows --"
cargo test -q --offline -p hive-exec --lib pir::lower::tests
echo "-- predicates: a shared scan's residuals = the row interpreter, and they count as compiled stages --"
cargo test -q --offline --test pir_differential random_predicates_on_a_shared_scan_agree_with_the_row_interpreter
cargo test -q --offline --test pir_differential counters_prove_compiled_paths_ran
echo "-- predicates: UPDATE / DELETE / MERGE conditions that are NULL on some rows = row mode = the pinned rows --"
cargo test -q --offline -p hive-core --test dml null_producing_conditions_match_row_mode_and_the_pinned_rows
echo "-- key-less kernels = the pairs route, every compilable (function, type) pair --"
cargo test -q --offline -p hive-exec --lib pir::agg::tests
# Decimals in 64 bits (DESIGN.md §4 "Decimals in 64 bits"): a width by
# content that no result, hash or file can tell apart from i128.
echo "-- decimals: packed chunks at the i64 edges, the raw fallback past them, COR2 and impossible types are Format --"
cargo test -q --offline -p hive-corc --lib decimal_chunks_pack_at_the_i64_edges_and_fall_back_past_them
cargo test -q --offline -p hive-corc --lib impossible_decimal_types_in_a_footer_are_format_errors
echo "-- decimals: i64 and i128 columns are equal, gather, cast, hash, concatenate and fold alike --"
cargo test -q --offline -p hive-common --test gather_cast_props decimal_widths_are_invisible
cargo test -q --offline -p hive-exec --lib narrow_decimal_folds_equal_the_wide_reference
cargo test -q --offline -p hive-exec --lib decimal_columns_against_literals_compare_as_sql_cmp_does
echo "-- decimals: DECIMAL types are validated, a product past i128 is a typed error --"
cargo test -q --offline -p hive-sql --test parser_tests decimal_types_are_validated
cargo test -q --offline -p hive-core --test server_tests decimal_products_past_i128_fail_typed
# The hash-key layer's two promises (DESIGN.md §4 "Hash keys"): packed
# words group and join exactly as the canonical bytes they replaced, and
# a DOUBLE key (NaN, signed zeros) has one answer under every
# configuration.
echo "-- key layer: word shapes = bytes shape = the replaced encode-and-FNV code --"
cargo test -q --offline -p hive-exec --test keys
# One key index (DESIGN.md §4 "One index, chosen by content"): a join's
# build partition is the grouper, dense by the grouping's rule; which
# kind a build took is invisible in every join's output, and a join's
# profile names the route it took.
echo "-- join index: one dense rule; picked = the hashed index over the undensified build on candidates and every join type's rows at 1/2/4/16 partitions (dense_and_hashed_indexes_agree, dense_index_edges, dense_dictionary_joins); duplicate and two-column keys route dense (profile_records_the_route) --"
cargo test -q --offline -p hive-exec --lib keys::tests
cargo test -q --offline -p hive-exec --lib join::tests::profile_records_the_route
# Dense keys for grouping (DESIGN.md §4 "Hash keys", "The dense kind"):
# GROUP BY, DISTINCT and set operations index narrow keys by slot, held
# to a reference that shares no key code; the aggregate's profile names
# the route and index kinds it took.
echo "-- dense kind: group ids, routing, size rule, set-op spans, DISTINCT = a linear search over Values --"
cargo test -q --offline -p hive-exec --test dense_keys
cargo test -q --offline -p hive-exec --lib engine::tests::set_operation_spans_cover_both_inputs
cargo test -q --offline -p hive-exec --lib aggregate::tests::profile_records_the_route
echo "-- LIMIT keeps parts: the multi-morsel LIMIT 200 copies at most 200 rows --"
cargo test -q --offline --test scan_parts limit_copies_at_most_its_rows
# One ordering, one accumulator (DESIGN.md §4 "Kernels", "Who still
# takes `Acc` rows"): the window sorts and finds peers through the
# Sort's comparator and folds frames with the GROUP BY's `Acc`.
echo "-- window: every function, key type, selection and frame = the brute-force Value reference --"
cargo test -q --offline -p hive-exec --lib window::tests::every_window_function_matches_the_value_reference
echo "-- window: STDDEV_SAMP OVER (PARTITION BY g) = the GROUP BY's, vectorized and in row mode --"
cargo test -q --offline --test integration window_stddev_samp_equals_the_group_by_stddev_samp_in_both_modes
# One walker (DESIGN.md §4 "Execution over parts"): every operator yields
# parts, and a consumer that needs one batch assembles them by one rule.
# The statements include a filtered multi-morsel scan under a Sort, a
# Window, a LIMIT, a build side and a RIGHT / FULL join's probe side, and
# a q88-shaped shared scan whose reducers check published morsels; an
# explicit NULLS clause holds under DESC (DESIGN.md §1).
echo "-- one walker: every scan_parts statement = the row interpreter at 1/2/8 threads, llap/shared work off, a tiny budget --"
cargo test -q --offline --test scan_parts statements_match_the_row_interpreter_under_every_configuration
echo "-- one walker: the same statements recover and replay exactly under a seeded fault plan --"
cargo test -q --offline --test scan_parts faulted_statements_recover_to_the_same_rows_and_replay_exactly
echo "-- one walker: a Sort, a Window and a LIMIT over a multi-morsel scan keep every morsel (counted against the aggregate) --"
cargo test -q --offline --test scan_parts assembling_consumers_keep_every_morsel
echo "-- shared scan: one read of the table; both sites (publishing and reusing) filter their parts on 2 workers --"
cargo test -q --offline --test scan_parts branches_sharing_a_scan_still_read_the_table_once
echo "-- NULL order: NULLS FIRST / LAST under ASC and DESC, and the no-clause default, Sort and window, both modes --"
cargo test -q --offline --test integration nulls_clauses_place_nulls_under_asc_and_desc_in_both_modes
echo "-- DISTINCT and JOIN over doubles: NaN is one value, one answer under every configuration --"
cargo test -q --offline --test hash_keys double_keys_are_one_answer_under_every_configuration
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

for row in "${sweeps[@]}"; do
    read -r name var values <<< "$row"
    flag="HIVE_${name}_SWEEP"
    [[ -n "${!flag:-}" ]] || continue
    for value in ${values//,/ }; do
        echo "== ${name,,} sweep: tests at $var=$value =="
        env "$var=$value" cargo test -q --offline --workspace
    done
done

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

echo "verify: OK"
