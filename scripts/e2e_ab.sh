#!/usr/bin/env bash
# A/B the end-to-end benchmark: this working tree against a parent commit,
# by the protocol of the choosing-metrics guide (section 8) — alternating
# pairs of runs, each side's median and quartiles, pairs won.
#
#   scripts/e2e_ab.sh <parent-ref> [--workload W] [--pairs N] [--seed S] [--dir D]
#                     [--cores N]
#
# The parent is checked out (git archive) into D/parent; each side's own,
# unmodified bench/e2e is built once into its own CARGO_TARGET_DIR
# (D/target-parent, D/target-change) and run through its own
# bench/e2e/run.sh — so a change that edits the benchmark is compared
# against the parent's benchmark, not its own. Pair i runs the parent first
# when i is odd, the change first when even. Then one traced run per side
# feeds bench/e2e/compare.py, which checks the bounds, prints the per-layer
# metrics and compares the counters that must repeat exactly.
#
# --cores N runs every run of both sides under `taskset -c 0-(N-1)`: the
# way to compare core counts, since the benchmark clears every HIVE_*
# variable (a 1- versus 2-core table is two calls, --cores 1 and 2).
#
# Every run also records the benchmark process's CPU seconds (user +
# system) and minor page faults, from the rusage of run.sh and its
# children less that of run.sh's own up-to-date build check, timed alone
# just before. The summary adds ops per CPU-second (operations over the
# whole process's CPU: set-up, timed passes and the correctness check)
# and minor faults per operation beside the wall-clock metrics, with the
# same quartiles and pairs won, and prints the core count.
#
# Defaults: every workload, 10 pairs, seed 2019, every core, D = a temp
# dir removed on exit (pass --dir to keep the checkout and both builds
# for the next call).
# Exits non-zero if any run reports `"correct": false`, or compare.py does.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -ge 1 ] || { sed -n '2,20p' "${BASH_SOURCE[0]}" >&2; exit 2; }
parent_ref="$1"; shift
workloads="" pairs=10 seed=2019 dir="" cores=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="$workloads $2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    --cores) cores="$2"; shift 2 ;;
    *) echo "e2e_ab.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
workloads="${workloads:-tpcds_warm scan_cold bi_short acid_churn}"

if [ -z "$dir" ]; then
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

sha="$(git -C "$repo" rev-parse --verify "$parent_ref^{commit}")"
if [ "$(cat "$dir/parent.sha" 2>/dev/null)" != "$sha" ]; then
  rm -rf "$dir/parent"
  mkdir -p "$dir/parent"
  # -m: stamp the files now. Archived files carry the commit's time, and
  # an older parent's sources would look older than the previous parent's
  # build in D/target-parent, which cargo would then reuse.
  git -C "$repo" archive "$sha" | tar -x -m -C "$dir/parent"
  echo "$sha" > "$dir/parent.sha"
fi

pin=()
if [ -n "$cores" ]; then
  [ "$cores" -ge 1 ] 2>/dev/null || { echo "e2e_ab.sh: --cores needs a count" >&2; exit 2; }
  pin=(taskset -c "0-$((cores - 1))")
fi

# rusage <file> <command...>: run the command; write "<cpu seconds>
# <minor faults>" of it and every child it waited for to <file>.
rusage() {
  python3 -c '
import resource, subprocess, sys
code = subprocess.run(sys.argv[2:]).returncode
r = resource.getrusage(resource.RUSAGE_CHILDREN)
open(sys.argv[1], "w").write(f"{r.ru_utime + r.ru_stime:.3f} {r.ru_minflt}\n")
sys.exit(code)' "$@"
}

# run <side> <workload> <trace> [extra run.sh arguments]: the run's JSON
# line; its CPU seconds and minor faults, build check excluded, go to
# $dir/usage as "<cpu seconds> <minor faults>".
run() {
  local side="$1" w="$2" trace="$3" root; shift 3
  case "$side" in parent) root="$dir/parent" ;; *) root="$repo" ;; esac
  local target="$dir/target-$side"
  CARGO_TARGET_DIR="$target" rusage "$dir/usage.build" cargo build --release --offline \
    --quiet --manifest-path "$root/bench/e2e/Cargo.toml"
  CARGO_TARGET_DIR="$target" rusage "$dir/usage.run" "${pin[@]}" bash "$root/bench/e2e/run.sh" \
    --workload "$w" --seed "$seed" --trace "$trace" "$@" | tail -n 1
  read -r run_cpu run_flt < "$dir/usage.run"
  read -r build_cpu build_flt < "$dir/usage.build"
  python3 -c 'import sys; r, rf, b, bf = map(float, sys.argv[1:])
print(f"{max(r - b, 0):.3f} {max(rf - bf, 0):.0f}")' \
    "$run_cpu" "$run_flt" "$build_cpu" "$build_flt" > "$dir/usage"
}

first_workload="$(set -- $workloads; echo "$1")"
for side in parent change; do
  echo "# building $side" >&2
  (pin=(); run "$side" "$first_workload" 0 --seconds 0 > /dev/null) # builds on every core
done

: > "$dir/parent.jsonl"; : > "$dir/change.jsonl"
record() { # record <side> <workload> <trace>
  local result cpu_s minflt
  result="$(run "$1" "$2" "$3")"
  read -r cpu_s minflt < "$dir/usage"
  printf '{"workload": "%s", "trace": %s, "cpu_s": %s, "minflt": %s, "result": %s}\n' \
    "$2" "$3" "$cpu_s" "$minflt" "$result" >> "$dir/$1.jsonl"
}
for w in $workloads; do
  for i in $(seq "$pairs"); do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do record "$side" "$w" 0; done
    echo "# $w pair $i/$pairs" >&2
  done
  for side in parent change; do record "$side" "$w" 1; done
done

for side in parent change; do
  {
    if [ "$side" = parent ]; then
      side_sha="$sha" dirty=0
    else
      side_sha="$(git -C "$repo" rev-parse HEAD)"
      dirty="$(git -C "$repo" status --porcelain | grep -c . || true)"
    fi
    printf '{"git_sha": "%s", "dirty_files": %s, "host_cores": %s, "seed": %s, "runs": [\n' \
      "$side_sha" "$dirty" "${cores:-$(nproc)}" "$seed"
    sed '$!s/$/,/' "$dir/$side.jsonl"
    printf ']}\n'
  } > "$dir/$side.json"
done

status=0
python3 - "$repo/BENCHMARK.json" "$dir/parent.json" "$dir/change.json" <<'PY' || status=1
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
sides = [json.load(open(p))["runs"] for p in sys.argv[2:4]]
wrong = [r["workload"] for runs in sides for r in runs if not r["result"]["correct"]]

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

# Per run: the end-to-end metrics, then the process's use of the host.
def per_run(r):
    out = {m: v["value"] for m, v in r["result"]["metrics"].items()}
    ops = r["result"]["attempted"]
    out["ops_per_cpu_s"] = ops / r["cpu_s"] if r["cpu_s"] > 0 else 0.0
    out["minflt_per_op"] = r["minflt"] / ops if ops else 0.0
    return out

metrics = bench["end_to_end"] + [
    {"name": "ops_per_cpu_s", "better": "higher"},
    {"name": "minflt_per_op", "better": "lower"},
]
cores = {json.load(open(p))["host_cores"] for p in sys.argv[2:4]}
print(f"cores: {' / '.join(map(str, sorted(cores)))} (of {__import__('os').cpu_count()} on the host)")
print(f"{'workload':12s} {'metric':20s} {'parent q1':>11s} {'median':>11s} {'q3':>11s} "
      f"{'change q1':>11s} {'median':>11s} {'q3':>11s} {'pairs won':>9s}")
for w in [x["name"] for x in bench["workloads"]]:
    for m in metrics:
        a, b = ([per_run(r)[m["name"]] for r in runs
                 if r["workload"] == w and not r["trace"]] for runs in sides)
        if not a or not b:
            continue
        better = (lambda x, y: x < y) if m["better"] == "lower" else (lambda x, y: x > y)
        won = sum(better(y, x) for x, y in zip(a, b))  # a tie counts for neither side
        cells = " ".join(f"{q:11.4f}" for q in quartiles(a) + quartiles(b))
        print(f"{w:12s} {m['name']:20s} {cells} {won:>4d} of {len(a):<2d}")
if wrong:
    print("WRONG RESULTS: " + " ".join(sorted(set(wrong))))
    sys.exit(1)
PY
python3 "$repo/bench/e2e/compare.py" "$dir/parent.json" "$dir/change.json" \
  --benchmark "$repo/BENCHMARK.json" --layers || status=1
exit $status
