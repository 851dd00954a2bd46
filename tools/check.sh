#!/usr/bin/env bash
# Tier-1 verification plus the threading race gate.
#
#   1. regular build + full ctest suite (the ROADMAP tier-1 command);
#   2. the same build + suite re-run with PPC_ENGINE_DEFAULT=ON, which
#      flips every EngineMode::kAuto ShardedDetector onto the lock-free
#      owner-pinned SPSC engine — the whole suite must pass in BOTH
#      synchronization designs;
#   3. a ThreadSanitizer build (PPC_SANITIZE=thread) of the concurrency
#      tests — sharded_test, runtime_test, parallel_batch_test,
#      batch_times_test, spsc_ring_test, engine_equivalence_test, the
#      network ingest pair wire_fuzz_test / server_e2e_test (event loop
#      thread vs client threads), durability_test (snapshot save/restore
#      quiesces engine owner threads and drives full daemon restarts),
#      adnet_extra_test (DetectorPool evict racing offer_batch),
#      tiered_pool_test (the mutex-serialized tiered pool),
#      enforce_test (the EnforcingSink loopback e2e: event loop vs
#      client thread with the reputation ledger in the offer path), and
#      replication_test (the warm-standby fault-injection harness:
#      primary event loop vs replication source session threads vs the
#      follower pump, reconnecting through chaos-proxy faults) — so
#      every PR touching the parallel ingestion paths gets a race check;
#      the engine-sensitive ones run under TSan in both engine defaults
#      (the e2e and durability binaries include the multi-loop fixtures,
#      so the SO_REUSEPORT cross-loop paths are raced in both designs);
#   4. CLI validation: ppcd must reject --loops=0 and --loops beyond the
#      hardware threads (without --oversubscribe-loops) with clear errors.
#
# Usage: tools/check.sh [--tsan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)
TSAN_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1

TSAN_TESTS=(sharded_test runtime_test parallel_batch_test batch_times_test
            spsc_ring_test engine_equivalence_test wire_fuzz_test
            server_e2e_test durability_test apbf_test conformance_test
            adnet_extra_test tiered_pool_test enforce_test replication_test)
# Tests whose ShardedDetectors default to kAuto and therefore change
# behaviour under PPC_ENGINE_DEFAULT=ON (the rest construct their mode
# explicitly or don't touch ShardedDetector at all).
ENGINE_SENSITIVE_TESTS=(sharded_test parallel_batch_test batch_times_test
                        server_e2e_test durability_test conformance_test
                        replication_test)

if [[ "$TSAN_ONLY" == 0 ]]; then
  echo "== tier-1: build + ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== tier-1 (engine): same build, PPC_ENGINE_DEFAULT=ON ctest =="
  (cd build && PPC_ENGINE_DEFAULT=ON ctest --output-on-failure -j "$JOBS")

  echo "== cli gate: ppcd rejects bad --loops values =="
  # `|| true` inside $(...): ppcd exiting nonzero is the EXPECTED outcome
  # here and must not trip set -e / pipefail — the assertions below are on
  # the exit status (checked via if) and the error text.
  if ./build/tools/ppcd --loops=0 --listen=127.0.0.1:0 2>/dev/null; then
    echo "FAIL: ppcd accepted --loops=0"; exit 1
  fi
  OUT=$(./build/tools/ppcd --loops=0 --listen=127.0.0.1:0 2>&1 || true)
  echo "$OUT" | grep -q "loops=0 is invalid" \
    || { echo "FAIL: --loops=0 error message missing"; exit 1; }
  OVER=$(( $(nproc) + 1 ))
  if ./build/tools/ppcd --loops="$OVER" --listen=127.0.0.1:0 2>/dev/null; then
    echo "FAIL: ppcd accepted --loops=$OVER without --oversubscribe-loops"
    exit 1
  fi
  OUT=$(./build/tools/ppcd --loops="$OVER" --listen=127.0.0.1:0 2>&1 || true)
  echo "$OUT" | grep -q "exceeds the .* hardware thread" \
    || { echo "FAIL: oversubscription error message missing"; exit 1; }
fi

echo "== race gate: TSan build of the concurrency tests =="
cmake -B build-tsan -S . -DPPC_SANITIZE=thread \
  -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  echo "-- $t (tsan)"
  ./build-tsan/tests/"$t"
done
for t in "${ENGINE_SENSITIVE_TESTS[@]}"; do
  echo "-- $t (tsan, PPC_ENGINE_DEFAULT=ON)"
  PPC_ENGINE_DEFAULT=ON ./build-tsan/tests/"$t"
done
echo "check.sh: all gates passed"
