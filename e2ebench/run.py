#!/usr/bin/env python3
"""Builds ppcd and the ppc_bench client from this checkout, then runs one
benchmark workload.

    python3 e2ebench/run.py --workload pool_bulk --seed 1 --trace 0

--seconds defaults to run_seconds of BENCHMARK.json, the run length the
metric bounds were measured at. The build lives in .bench_build/ at the
repository root (configured on the first run, brought up to date on every
run); build output goes to stderr so the last line of stdout stays
ppc_bench's JSON result. Exits nonzero, with no result, when the repository
sources are missing or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "ppcd", "ppc_bench"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="pool_bulk | pool_smallbatch | tiered_millionads | "
                         "enforce_replicated | all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {os.path.join(ROOT, needed)} is missing; "
                     "the benchmark builds ppcd from the repository sources")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "ppc_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--ppcd={os.path.join(BUILD, 'ppc', 'tools', 'ppcd')}",
           f"--workdir={workdir}"]
    # One workload must finish well inside three minutes; `all` runs four.
    timeout = None if args.workload == "all" else 170
    try:
        result = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: ppc_bench did not finish in 170 s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
