#!/usr/bin/env bash
# Tier-1 verification plus the memory and threading sanitizer gates.
#
#   1. regular build + full ctest suite (the ROADMAP tier-1 command);
#   2. CLI validation: ppcd must reject --loops=0, --loops beyond the
#      hardware threads (without --oversubscribe-loops), and any flag its
#      usage does not list, each with a clear error;
#   3. an AddressSanitizer build (PPC_SANITIZE=address, in build-asan/) of
#      the tests that move click bytes: server_e2e_test and enforce_test
#      (receive buffer -> pending columns -> verdict frames),
#      wire_fuzz_test (frame decoders on mutated input), durability_test
#      (snapshot sections) and replication_test (the replication ring and
#      snapshot catch-up), plus the suites that forge and restore every
#      snapshot format — snapshot_test, apbf_test and tiered_pool_test —
#      so an out-of-bounds read or a use after free on the ingest or
#      snapshot path fails the check instead of passing by luck;
#   4. a ThreadSanitizer build (PPC_SANITIZE=thread) of the concurrency
#      tests — sharded_test, runtime_test, parallel_batch_test (concurrent
#      offer_batch callers on the ThreadPool fan-out path),
#      batch_times_test, apbf_test and conformance_test (sharded backends
#      through the fan-out path); the network ingest pair wire_fuzz_test /
#      server_e2e_test (event loop threads vs client threads, including
#      the SO_REUSEPORT multi-loop fixtures); durability_test (snapshot
#      save/restore and full daemon restarts); adnet_extra_test
#      (DetectorPool evict racing offer_batch); tiered_pool_test (the
#      mutex-serialized tiered pool); enforce_test (the EnforcingSink
#      loopback e2e: event loop vs client thread with the reputation
#      ledger in the offer path); and replication_test (the warm-standby
#      fault-injection harness: primary event loop vs replication source
#      session threads vs the follower pump, reconnecting through
#      chaos-proxy faults) — so every change touching the parallel
#      ingestion paths gets a race check.
#
# Usage: tools/check.sh [--tsan-only]    (--tsan-only runs gate 4 alone)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)
TSAN_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1

ASAN_TESTS=(server_e2e_test wire_fuzz_test durability_test enforce_test
            replication_test snapshot_test apbf_test tiered_pool_test)
TSAN_TESTS=(sharded_test runtime_test parallel_batch_test batch_times_test
            wire_fuzz_test server_e2e_test durability_test apbf_test
            conformance_test adnet_extra_test tiered_pool_test enforce_test
            replication_test)

if [[ "$TSAN_ONLY" == 0 ]]; then
  echo "== tier-1: build + ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== cli gate: ppcd rejects bad --loops values and unknown flags =="
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
  STATUS=0
  OUT=$(./build/tools/ppcd --engine=on --listen=127.0.0.1:0 2>&1) || STATUS=$?
  [[ "$STATUS" == 2 ]] \
    || { echo "FAIL: ppcd --engine=on exited $STATUS, want 2"; exit 1; }
  echo "$OUT" | grep -q "ppcd: unknown flag --engine" \
    || { echo "FAIL: unknown-flag error message missing"; exit 1; }

  echo "== memory gate: ASan build of the ingest and snapshot tests =="
  cmake -B build-asan -S . -DPPC_SANITIZE=address \
    -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$JOBS" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    echo "-- $t (asan)"
    ./build-asan/tests/"$t"
  done
fi

echo "== race gate: TSan build of the concurrency tests =="
cmake -B build-tsan -S . -DPPC_SANITIZE=thread \
  -DPPC_BUILD_BENCH=OFF -DPPC_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  echo "-- $t (tsan)"
  ./build-tsan/tests/"$t"
done
echo "check.sh: all gates passed"
