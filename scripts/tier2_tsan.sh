#!/usr/bin/env bash
# Tier-2 race gate: build the concurrency-bearing subsystems under
# ThreadSanitizer and run the tests that exercise threads — the thread pool,
# the planner, the serving runtime's queueing machinery,
# the obs telemetry layer (metric registry + trace ring hammered from many
# threads, and the end-to-end runtime timeline that records from every
# stream worker), and the lane executor (stackless coroutines, so TSan
# needs no context-switch annotations). The ASan+UBSan sibling is
# scripts/tier2_asan.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target regla_tests

# halt_on_error keeps the first report close to its cause; second_deadlock_stack
# makes lock-order reports actionable.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

# ThreadPool.* include concurrent parallel_for callers on one pool, and
# FleetSharedPool.* two streams' launches interleaving on the shared host
# pool every Device simulates on. RuntimeQueue.* drive the runtime through
# the solve_override hook (pure queueing, no kernels), including submitters
# on many signatures racing size, deadline (cut by idle stream workers) and
# manual flushes, and batches queued behind a busy worker;
# RuntimeSolve.* add real kernel launches;
# RuntimeFault*/EngineFault* exercise the fault-injection and resilience
# paths (retry/backoff, deadline failure, shedding, CPU fallback — all of
# which cross threads); Obs* cover the metric registry, the trace ring, and
# the cross-layer timeline (ObsRuntimeTrace exercises the trace buffer from
# every stream worker at once); Fleet* include streams added under load
# running at once; Arena*/RuntimeArena*/
# RuntimeRagged* hammer the payload arena's lease/release free lists and the
# one staged assembly path from concurrent submitters.
PATTERNS=(
  'ThreadPool*' 'Planner*' 'RuntimeQueue*' 'RuntimeSolve*' 'RuntimeFault*'
  'EngineFault*' 'Lane*' 'Obs*' 'OpsRegistry*' 'OpsZoo*'
  'Fleet*' 'ReplayVerify*' 'Arena*' 'RuntimeArena*' 'RuntimeRagged*'
)

# A renamed or deleted suite must fail the gate, not silently shrink it:
# every pattern has to match at least one test.
for p in "${PATTERNS[@]}"; do
  listed=$(./build-tsan/tests/regla_tests --gtest_list_tests --gtest_filter="$p")
  if ! grep -q '^  ' <<<"$listed"; then
    echo "tier2 tsan: --gtest_filter pattern '$p' matches no test" >&2
    exit 1
  fi
done

# `timeout` backstops the raw gtest run: ctest's per-test TIMEOUT does not
# apply here, and a sanitizer-found deadlock must fail, not hang the gate.
filter=$(IFS=:; echo "${PATTERNS[*]}")
timeout 1800 ./build-tsan/tests/regla_tests --gtest_filter="$filter"

echo "tier2 tsan: clean"
