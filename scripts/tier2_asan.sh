#!/usr/bin/env bash
# Tier-2 memory/UB gate: the ASan+UBSan sibling of the race gate in
# scripts/tier2_tsan.sh. Builds the full test suite with
# -fsanitize=address,undefined and runs it end to end — this is the gate
# that would have caught the old trace.cc comparator, whose
# strict-weak-ordering violation was UB inside std::stable_sort.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)" --target regla_tests

# detect_leaks exercises the deliberate leaks policy: the obs registry and
# trace ring are intentionally leaked (cached references and late spans must
# survive static destruction), so suppress them rather than disable leak
# checking wholesale.
export ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}"
export LSAN_OPTIONS="suppressions=$(pwd)/scripts/lsan.supp ${LSAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}"

# `timeout` backstops the raw gtest run: ctest's per-test TIMEOUT does not
# apply here, and a hang must fail the gate, not stall it.
timeout 1800 ./build-asan/tests/regla_tests

echo "tier2 asan: clean"
