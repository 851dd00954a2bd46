#!/usr/bin/env python3
"""Compares paired benchmark runs of a parent and a changed checkout.

    python3 e2ebench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one result file per run, named <workload>-<pair>.json,
whose last line is the JSON object ppc_bench prints (run_pairs.sh writes
them). Files with the same name in both directories form a pair.

For every workload and metric it prints each side's median and quartiles,
the change's win share (ties count for neither side) and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (q3 - q1)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json times the parent's
              median, or by more than the metric's absolute floor below
              when that is larger
  unresolved  the parent's spread exceeds the bound, unless every change
              run beats every parent run
  unchanged   otherwise

Per-layer metrics (traced runs) have no bound; they get improved, worse or
unresolved by the same 9-of-10 rule. Exits 1 if any metric regressed or a
run failed its correctness checks, else 0. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        runs[name[:-len(".json")]] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


# Absolute floors under the relative bounds, in the metric's unit: the pool
# workloads set up in ~1.5 ms, where a relative bound alone would call
# scheduler jitter of a fraction of a millisecond a regression.
ABS_FLOOR = {"setup_s": 0.02}


def verdict(parent, change, direction, bound, floor=0.0):
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    win_share = wins / len(pairs)
    if win_share >= 0.9 and abs(cm - pm) > spread:
        return "improved", win_share
    if bound is not None:
        allowed = max(bound * abs(pm), floor)
        worse_by = (cm - pm) if direction == "lower" else (pm - cm)
        if worse_by > allowed:
            return "regressed", win_share
        all_better = all(better(c, p, direction) for c in change for p in parent)
        if spread > allowed and not all_better:
            return "unresolved", win_share
        return "unchanged", win_share
    losses = sum(better(p, c, direction) for p, c in pairs)
    if losses / len(pairs) >= 0.9 and abs(cm - pm) > spread:
        return "worse", win_share
    return "unresolved", win_share


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"), m["unit"])
            for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    names = sorted(set(parent) & set(change))
    if not names:
        sys.exit("compare.py: no pairs (same file name in both directories)")

    status = 0
    by_workload = {}
    for name in names:
        workload = name.rsplit("-", 1)[0]
        by_workload.setdefault(workload, []).append(name)
        for side, runs in (("parent", parent), ("change", change)):
            if not runs[name].get("correct", False):
                print(f"{side} run {name} failed its correctness checks")
                status = 1

    header = (f"{'workload':<20} {'metric':<42} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>5}  verdict")
    print(header)
    print("-" * len(header))
    for workload, pair_names in sorted(by_workload.items()):
        if len(pair_names) < 10:
            print(f"{workload}: only {len(pair_names)} pairs; the 9-of-10 rule "
                  "needs at least 10")
        p_failed = sum(parent[n].get("failed", 0) for n in pair_names)
        c_failed = sum(change[n].get("failed", 0) for n in pair_names)
        if c_failed > p_failed:
            print(f"{workload}: change failed {c_failed} operations, parent "
                  f"{p_failed}; a gain does not count")
        metrics = [m for m in spec if m in parent[pair_names[0]]["metrics"]]
        for metric in metrics:
            direction, bound, unit = spec[metric]
            pv = [parent[n]["metrics"][metric]["value"] for n in pair_names]
            cv = [change[n]["metrics"][metric]["value"] for n in pair_names]
            floor = ABS_FLOOR.get(metric, 0.0)
            v, share = verdict(pv, cv, direction, bound, floor)
            if v == "regressed":
                status = 1
            pq, cq = quartiles(pv), quartiles(cv)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:<20} {metric:<42} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{share:>5.2f}  {v} ({unit}, {direction} is better"
                  + (f", bound {bound:g}" if bound is not None else "")
                  + (f", floor {floor:g} {unit})" if floor else ")"))
    return status


if __name__ == "__main__":
    sys.exit(main())
