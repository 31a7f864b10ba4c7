#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/e2e/run.sh                         every workload, untraced then traced;
#                                            prints `workload.metric value unit`
#                                            and writes <target>/e2e/result.json
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                            one run of one workload; the last
#                                            line printed is its JSON result
#   bench/e2e/run.sh --repeat K              K untraced runs per workload
#                                            (what compare.py wants for spreads)
#   bench/e2e/run.sh --bless                 rewrite expected/<workload>-2019.txt
#
# Builds the release binaries first (offline; into $CARGO_TARGET_DIR, default
# <repo>/target). Each run is its own process, so set-up time and peak
# memory are per workload. Exits non-zero if the build fails or any
# operation returns a wrong result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$repo/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

workload="" seed=2019 seconds=20 trace="" repeat=1 bless=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --bless) bless=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build() {
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
}
build
bin="$target/release"
out="$target/e2e"
mkdir -p "$out"

# One run, one process: `run_one <binary> <workload> [extra args]`.
run_one() {
  local binary="$1" w="$2"; shift 2
  "$bin/$binary" --workload "$w" --seed "$seed" --seconds "$seconds" "$@"
}

if [ "$bless" = 1 ]; then
  for w in ${workload:-tpcds_warm scan_cold bi_short acid_churn}; do
    run_one e2e "$w" --seconds 0 --bless "$here/expected" > /dev/null
  done
  # The digests are compiled in: rebuild so the next run checks the new ones.
  build
  exit 0
fi

# The driver's form: one workload, one run, JSON on the last line.
if [ -n "$workload" ] && [ -n "$trace" ]; then
  if [ "$trace" = 1 ]; then
    run_one trace "$workload" --trace-file "$out/trace-$workload.json"
  else
    run_one e2e "$workload"
  fi
  exit $?
fi

# The person's form: whole sets, collected into result.json.
records="$out/records.jsonl"
: > "$records"
status=0
for w in ${workload:-tpcds_warm scan_cold bi_short acid_churn}; do
  for _ in $(seq "$repeat"); do
    run_one e2e "$w" --stamp-file "$records" | grep -v '^{' || status=1
  done
  if [ "${trace:-1}" = 1 ]; then
    run_one trace "$w" --stamp-file "$records" --trace-file "$out/trace-$w.json" \
      | grep -v '^{' || status=1
  fi
done
sha="$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"
dirty="$(git -C "$repo" status --porcelain 2>/dev/null | grep -c . || true)"
{
  printf '{"git_sha": "%s", "dirty_files": %s, "host_cores": %s, "seed": %s, "seconds": %s, "runs": [\n' \
    "$sha" "${dirty:-0}" "$(nproc)" "$seed" "$seconds"
  sed '$!s/$/,/' "$records"
  printf ']}\n'
} > "$out/result.json"
rm -f "$records"
echo "# wrote $out/result.json" >&2
exit $status
