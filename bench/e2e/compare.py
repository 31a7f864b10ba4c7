#!/usr/bin/env python3
"""Compare two result files written by bench/e2e/run.sh.

    bench/e2e/compare.py A.json B.json [--benchmark BENCHMARK.json] [--layers]

A is the baseline (the parent commit, or the first of two sets of the same
commit), B the candidate. For every workload x end-to-end metric the table
shows both medians, B's change in the metric's *worse* direction, each
side's run-to-run spread, the bound from BENCHMARK.json, and a verdict:

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  a side's spread is wider than the bound, so the runs
                cannot tell (this is not "unchanged")

The spread is the interquartile range over the median when a side has at
least four runs (run.sh --repeat), the full range over the median with two
or three, and unknown with one. Counters that must repeat exactly for a
seed are compared for equality. With --layers the per-layer metrics are
listed too; they have no bounds and get no verdict.

Exits 1 if any verdict is `worse` or an exact counter differs.
"""
import argparse
import json
import os
import statistics
import sys

# Deterministic for a seed with one client: compared for equality.
EXACT = [
    "space_amplification",
    "exec.rows_in.scan", "exec.rows_in.filter", "exec.rows_in.project",
    "exec.rows_in.join", "exec.rows_in.aggregate", "exec.rows_in.sort",
    "exec.rows_in.window", "exec.rows_in.setop", "exec.sim_ms_sum",
    "dfs.lists_per_op", "dfs.writes_per_op", "dfs.bytes_written_per_op",
    "optimizer.plan_nodes", "optimizer.mv_rewrites", "acid.compactions",
]


# ...except where two scan workers race for a thrashing cache: which chunks
# come from disk, and with it the modelled time, varies a little.
NOT_EXACT = {("scan_cold", "exec.sim_ms_sum")}


def load(path):
    """{(workload, trace): {metric: [values]}} plus the file's header."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for run in doc["runs"]:
        key = (run["workload"], run["trace"])
        result = run["result"]
        if not result["correct"]:
            print(f"{path}: {run['workload']} has wrong results "
                  f"({result['failed']} of {result['attempted']})", file=sys.stderr)
        for name, m in result["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return doc, out


def spread(values):
    """Run-to-run spread as a share of the median; None with one run."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(med)
    return (max(values) - min(values)) / abs(med)


def pct(x):
    return "   n/a" if x is None else f"{100 * x:6.2f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a")
    ap.add_argument("b")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--layers", action="store_true", help="also list per-layer metrics")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    doc_a, a = load(args.a)
    doc_b, b = load(args.b)
    for name, doc in (("A", doc_a), ("B", doc_b)):
        print(f"# {name}: git {doc.get('git_sha')} (+{doc.get('dirty_files')} dirty), "
              f"seed {doc.get('seed')}, {doc.get('host_cores')} cores, {len(doc['runs'])} runs")
    if doc_a.get("seed") != doc_b.get("seed"):
        print("# seeds differ: exact counters are not compared")

    failed = False
    print(f"{'workload':12s} {'metric':22s} {'A median':>14s} {'B median':>14s} "
          f"{'B worse by':>10s} {'spread A':>8s} {'spread B':>8s} {'bound':>7s}  verdict")
    for w in [x["name"] for x in bench["workloads"]]:
        ma, mb = a.get((w, 0)), b.get((w, 0))
        if not ma or not mb:
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in ma or name not in mb:
                continue
            med_a, med_b = statistics.median(ma[name]), statistics.median(mb[name])
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            worse_by = change if m["better"] == "lower" else -change
            sa, sb = spread(ma[name]), spread(mb[name])
            if any(s is not None and s > bound for s in (sa, sb)):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict, failed = "worse", True
            else:
                verdict = "ok"
            print(f"{w:12s} {name:22s} {med_a:14.4f} {med_b:14.4f} {pct(worse_by):>10s} "
                  f"{pct(sa):>8s} {pct(sb):>8s} {pct(bound):>7s}  {verdict}")

    if doc_a.get("seed") == doc_b.get("seed"):
        for (w, trace) in sorted(set(a) & set(b)):
            for name in EXACT:
                va, vb = a[(w, trace)].get(name), b[(w, trace)].get(name)
                if va is None or vb is None or (w, name) in NOT_EXACT:
                    continue
                if len(set(va + vb)) != 1:
                    failed = True
                    print(f"exact counter differs: {w} {name}: A {sorted(set(va))} B {sorted(set(vb))}")
        print("# exact counters compared")

    if args.layers:
        print(f"\n{'workload':12s} {'layer metric':36s} {'A median':>16s} {'B median':>16s} {'change':>8s}")
        for w in [x["name"] for x in bench["workloads"]]:
            ma, mb = a.get((w, 1)), b.get((w, 1))
            if not ma or not mb:
                continue
            for m in bench["per_layer"]:
                name = m["name"]
                if name not in ma or name not in mb:
                    continue
                med_a, med_b = statistics.median(ma[name]), statistics.median(mb[name])
                change = (med_b - med_a) / abs(med_a) if med_a else None
                print(f"{w:12s} {name:36s} {med_a:16.4f} {med_b:16.4f} {pct(change):>8s}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
