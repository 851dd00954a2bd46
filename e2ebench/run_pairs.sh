#!/usr/bin/env bash
# Paired benchmark runs of two checkouts (a parent and a change), with the
# side that runs first alternating from pair to pair so slow drift of the
# host hits both sides alike.
#
#   e2ebench/run_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUTDIR [PAIRS]
#
# PAIRS defaults to 10 (the 9-of-10 rule needs at least 10). Environment:
#   WORKLOADS    workloads to run (default: all four)
#   SEEDS        seeds cycled over the pairs (default "2 3", the held-out ones)
#   TRACE        0 for end-to-end metrics (default), 1 for per-layer metrics
# Each run's last stdout line lands in OUTDIR/{parent,change}/<workload>-<pair>.json;
# then compare them with
#   python3 e2ebench/compare.py OUTDIR/parent OUTDIR/change
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
pairs=${4:-10}
here=$(cd "$(dirname "$0")" && pwd)
workloads=${WORKLOADS:-"pool_bulk pool_smallbatch tiered_millionads enforce_replicated"}
seeds=(${SEEDS:-2 3})
trace=${TRACE:-0}
mkdir -p "$out/parent" "$out/change"

run() {  # side checkout workload seed pair
  (cd "$2" && python3 e2ebench/run.py --workload "$3" --seed "$4" \
      --trace "$trace") 2>"$out/$1/$3-$5.err" \
    | tail -n 1 >"$out/$1/$3-$5.json"
}

for ((i = 1; i <= pairs; i++)); do
  seed=${seeds[$(((i - 1) % ${#seeds[@]}))]}
  for w in $workloads; do
    if ((i % 2 == 1)); then
      run parent "$parent" "$w" "$seed" "$i"
      run change "$change" "$w" "$seed" "$i"
    else
      run change "$change" "$w" "$seed" "$i"
      run parent "$parent" "$w" "$seed" "$i"
    fi
    echo "pair $i/$pairs $w seed $seed done" >&2
  done
done
python3 "$here/compare.py" "$out/parent" "$out/change" --benchmark "$here/../BENCHMARK.json"
