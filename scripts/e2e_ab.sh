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
# A pair is contaminated — a neighbour took CPU from one of its runs —
# when either run's wall/CPU ratio (wall seconds over CPU seconds, build
# check excluded from both) falls outside its side's Tukey fences for
# the workload: the interquartile range widened by 1.5 times its width
# on either side. (The bare interquartile range would flag half of all
# runs by construction.) Each contaminated pair is re-run once, in the
# same order, and the re-run counts instead; the summary lists the
# contaminated pairs per workload.
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
# <minor faults> <wall seconds>" of it and every child it waited for to
# <file>.
rusage() {
  python3 -c '
import resource, subprocess, sys, time
start = time.monotonic()
code = subprocess.run(sys.argv[2:]).returncode
wall = time.monotonic() - start
r = resource.getrusage(resource.RUSAGE_CHILDREN)
open(sys.argv[1], "w").write(f"{r.ru_utime + r.ru_stime:.3f} {r.ru_minflt} {wall:.3f}\n")
sys.exit(code)' "$@"
}

# run <side> <workload> <trace> [extra run.sh arguments]: the run's JSON
# line; its CPU seconds, minor faults and wall seconds, build check
# excluded, go to $dir/usage as "<cpu seconds> <minor faults> <wall>".
run() {
  local side="$1" w="$2" trace="$3" root; shift 3
  case "$side" in parent) root="$dir/parent" ;; *) root="$repo" ;; esac
  local target="$dir/target-$side"
  CARGO_TARGET_DIR="$target" rusage "$dir/usage.build" cargo build --release --offline \
    --quiet --manifest-path "$root/bench/e2e/Cargo.toml"
  CARGO_TARGET_DIR="$target" rusage "$dir/usage.run" "${pin[@]}" bash "$root/bench/e2e/run.sh" \
    --workload "$w" --seed "$seed" --trace "$trace" "$@" | tail -n 1
  read -r run_cpu run_flt run_wall < "$dir/usage.run"
  read -r build_cpu build_flt build_wall < "$dir/usage.build"
  python3 -c 'import sys; r, rf, rw, b, bf, bw = map(float, sys.argv[1:])
print(f"{max(r - b, 0):.3f} {max(rf - bf, 0):.0f} {max(rw - bw, 0):.3f}")' \
    "$run_cpu" "$run_flt" "$run_wall" "$build_cpu" "$build_flt" "$build_wall" > "$dir/usage"
}

first_workload="$(set -- $workloads; echo "$1")"
for side in parent change; do
  echo "# building $side" >&2
  (pin=(); run "$side" "$first_workload" 0 --seconds 0 > /dev/null) # builds on every core
done

: > "$dir/parent.jsonl"; : > "$dir/change.jsonl"
record() { # record <side> <workload> <trace> <pair> <rerun>
  local result cpu_s minflt wall_s
  result="$(run "$1" "$2" "$3")"
  read -r cpu_s minflt wall_s < "$dir/usage"
  printf '{"workload": "%s", "trace": %s, "pair": %s, "rerun": %s, "cpu_s": %s, "minflt": %s, "wall_s": %s, "result": %s}\n' \
    "$2" "$3" "$4" "$5" "$cpu_s" "$minflt" "$wall_s" "$result" >> "$dir/$1.jsonl"
}
run_pair() { # run_pair <workload> <pair> <rerun>
  local order
  if [ $(($2 % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do record "$side" "$1" 0 "$2" "$3"; done
}
# contaminated <workload>: the pairs where either run's wall/CPU ratio
# lies outside its side's Tukey fences.
contaminated() {
  python3 - "$1" "$dir/parent.jsonl" "$dir/change.jsonl" <<'PY'
import json, statistics, sys
w, bad = sys.argv[1], set()
for path in sys.argv[2:]:
    runs = [r for r in map(json.loads, open(path))
            if r["workload"] == w and not r["trace"] and not r["rerun"] and r["cpu_s"] > 0]
    if len(runs) < 4:
        continue
    ratio = {r["pair"]: r["wall_s"] / r["cpu_s"] for r in runs}
    q1, _, q3 = statistics.quantiles(ratio.values(), n=4)
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    bad |= {p for p, x in ratio.items() if not lo <= x <= hi}
print(" ".join(map(str, sorted(bad))))
PY
}
for w in $workloads; do
  for i in $(seq "$pairs"); do
    run_pair "$w" "$i" 0
    echo "# $w pair $i/$pairs" >&2
  done
  for i in $(contaminated "$w"); do
    echo "# $w pair $i contaminated: re-run" >&2
    run_pair "$w" "$i" 1
  done
  for side in parent change; do record "$side" "$w" 1 0 0; done
done

# <side>.json: the counted runs (a contaminated pair's re-run in place
# of the pair), and the runs they replaced under "contaminated_runs".
for side in parent change; do
  if [ "$side" = parent ]; then
    side_sha="$sha" dirty=0
  else
    side_sha="$(git -C "$repo" rev-parse HEAD)"
    dirty="$(git -C "$repo" status --porcelain | grep -c . || true)"
  fi
  python3 - "$dir/$side.jsonl" "$side_sha" "$dirty" "${cores:-$(nproc)}" "$seed" \
    > "$dir/$side.json" <<'PY'
import json, sys
path, sha, dirty, cores, seed = sys.argv[1:]
runs = [json.loads(line) for line in open(path)]
redone = {(r["workload"], r["pair"]) for r in runs if r["rerun"]}
replaced = [r for r in runs if not r["trace"] and not r["rerun"] and (r["workload"], r["pair"]) in redone]
json.dump({"git_sha": sha, "dirty_files": int(dirty), "host_cores": int(cores), "seed": int(seed),
           "runs": [r for r in runs if not any(r is x for x in replaced)],
           "contaminated_runs": replaced}, sys.stdout, indent=0)
PY
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
for w in [x["name"] for x in bench["workloads"]]:
    redone = sorted({r["pair"] for p in sys.argv[2:4]
                     for r in json.load(open(p))["contaminated_runs"] if r["workload"] == w})
    if any(r["workload"] == w for r in sides[0]):
        print(f"{w}: contaminated pairs (re-run once): {' '.join(map(str, redone)) or 'none'}")
print(f"{'workload':12s} {'metric':20s} {'parent q1':>11s} {'median':>11s} {'q3':>11s} "
      f"{'change q1':>11s} {'median':>11s} {'q3':>11s} {'pairs won':>9s}")
for w in [x["name"] for x in bench["workloads"]]:
    for m in metrics:
        pa, pb = ({r["pair"]: r for r in runs if r["workload"] == w and not r["trace"]}
                  for runs in sides)
        pairs = sorted(set(pa) & set(pb))
        a = [per_run(pa[p])[m["name"]] for p in pairs]
        b = [per_run(pb[p])[m["name"]] for p in pairs]
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
