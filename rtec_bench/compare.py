#!/usr/bin/env python3
"""Compare two sets of rtec_bench runs against the bounds in BENCHMARK.json.

    python3 rtec_bench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds BENCH_rtec_*.json files written by rtec_bench --out.
Runs are paired in file-name order within a workload, so give the i-th
parent run and the i-th change run labels that sort together (alternate
which side runs first). For every (metric, workload) the script prints each
side's median and quartiles and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side), there are at least 10 pairs, and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

Per-layer metrics (from --trace 1 runs) have no bound: they are listed
with "identical" when every run on both sides reads the same value (the
deterministic counters), else "differs". Exit code 1 when any end-to-end
metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): [meta, ...]} in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_rtec_*.json"))):
        with open(path) as f:
            meta = json.load(f)["meta"]
        if meta.get("smoke"):
            continue
        runs.setdefault((meta["workload"], int(meta["trace"])), []).append(meta)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and sign * (cm - pm) > q3 - q1:
        return "improved"
    if pm != 0 and sign * (pm - cm) / abs(pm) > bound:
        return "regressed"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm != 0 and (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(v):
    q1, q3 = quartiles(v)
    return f"{statistics.median(v):.6g} [{q1:.6g}, {q3:.6g}] n={len(v)}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    regressed = False
    print(f"{'metric':34s} {'workload':15s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} verdict")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for m in metrics:
            for w in spec["workloads"]:
                key = (w["name"], trace)
                if key not in parent or key not in change:
                    continue
                p = [r[f"metric.{m['name']}"] for r in parent[key]]
                c = [r[f"metric.{m['name']}"] for r in change[key]]
                if trace == 0:
                    v = verdict(p, c, m["better"], m["bound"])
                    regressed = regressed or v == "regressed"
                else:
                    v = "identical" if len(set(p + c)) == 1 else "differs"
                print(f"{m['name']:34s} {w['name']:15s} {fmt(p):34s} {fmt(c):34s} {v}")
    # A change that only speeds the simulator up leaves every digest alone.
    for w in spec["workloads"]:
        by_seed = {}
        for side in (parent, change):
            for r in side.get((w["name"], 0), []):
                by_seed.setdefault(int(r["seed"]), set()).add(r["sim_digest"])
        for seed, digests in sorted(by_seed.items()):
            if len(digests) > 1:
                print(f"sim_digest differs on {w['name']} seed {seed}: {sorted(digests)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
