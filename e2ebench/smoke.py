#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (ctest label `bench`).

Runs every workload of BENCHMARK.json untraced and traced at a short
length and checks that each run passes its correctness checks and prints
every metric it owes, by name and unit, exactly once — in the human-readable
lines and in the final JSON object. Then runs pool_bulk with an oracle built
from a different hash count, which must report mismatches and exit 1: the
proof that the oracle comparison is not vacuous.
"""
import argparse
import json
import subprocess
import sys


def run(bench, args, expect_rc):
    proc = subprocess.run([bench] + args, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != expect_rc:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}, "
                         f"expected {expect_rc}")
    return proc


def check_output(label, stdout, owed):
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise SystemExit(f"{label}: run not correct or nothing attempted")
    if set(result["metrics"]) != set(owed):
        raise SystemExit(f"{label}: metrics {sorted(set(result['metrics']) ^ set(owed))} "
                         "missing or unexpected")
    for name, unit in owed.items():
        if result["metrics"][name]["unit"] != unit:
            raise SystemExit(f"{label}: {name} has unit "
                             f"{result['metrics'][name]['unit']}, want {unit}")
        printed = [l for l in lines[:-1]
                   if l.split()[:2] == ["metric", name]]
        if len(printed) != 1 or printed[0].split()[-1] != unit:
            raise SystemExit(f"{label}: {name} printed {len(printed)} times")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--ppcd", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", default="2")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    owed = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    common = [f"--ppcd={args.ppcd}", f"--workdir={args.workdir}", "--seed=1"]
    for w in bench["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            proc = run(args.bench, common + [f"--workload={w['name']}",
                                             f"--seconds={args.seconds}",
                                             f"--trace={trace}"], 0)
            check_output(label, proc.stdout, owed[trace])
            print(f"ok {label}")

    proc = run(args.bench, common + ["--workload=pool_bulk", "--seconds=1",
                                     "--trace=0", "--oracle-hashes=3"], 1)
    last = json.loads(proc.stdout.splitlines()[-1])
    if last["correct"] or "differ from the in-process oracle" not in proc.stderr:
        raise SystemExit("oracle built with other hashes was not caught")
    print("ok oracle with --oracle-hashes=3 reports mismatches")


if __name__ == "__main__":
    main()
