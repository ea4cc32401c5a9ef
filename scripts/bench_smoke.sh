#!/usr/bin/env bash
# Bench smoke gate: build every bench binary and run each with --smoke — the
# same code paths and CSV schemas as the full runs, shrunk to seconds. This
# catches bit-rot in the bench mains (which tier-1 tests never execute) and
# exercises bench_runtime's resilience sweep (10% injected launch failures;
# fails if any future hangs or the accounting does not reconcile). The ten
# simulator-only fig/table benches then run once more at full fidelity and
# must reproduce their committed CSVs byte for byte.
#
# Smoke CSVs land in <build>/bench_results/smoke/; afterwards
# scripts/check_bench_regression.py compares the smoke runtime/fleet/ragged
# rows against the committed baselines. The saturation tiers (runtime rates
# 96000/16000/8000 and the fleet scale act) run at full request counts in
# smoke and gate strictly — their batch depth is size-triggered, so device
# pr/s is stable across runners; the deadline-triggered low-rate tiers stay
# warn-only. scripts/check_alloc_budget.py then enforces the committed
# steady-state allocation budget over the alloc-audit act's CSV.
#
# Last, the serving benchmark (hostbench/, its own CMake project over src/)
# is built and its unit tests run (`python3 hostbench/run.py --test`, build
# tree under .bench_build/hostbench). No other gate compiles it, so a change
# to a header it includes that breaks its build fails here. Three one-second
# serving runs follow, qr32_closed, mixed_open and qr8_closed: the oracle
# pass over replay hits (DESIGN.md §13), per-block ones in replay groups and
# per-thread ones, each with its memoized fold. The REGLA_REPLAY_VERIFY=1
# pass above re-simulates every hit, so it never runs replay groups or
# copies a memo; these runs do, at serving scale, and hostbench checks every
# result against the cpu oracle (exit status 1 on a wrong, non-finite,
# not_solved or hung result).
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET="${PRESET:-tier1}"

# Keep in sync with REGLA_FIG_BENCHES in bench/CMakeLists.txt (an explicit
# list, not a build-dir glob, so stale binaries from removed targets can't
# sneak into the gate).
BENCHES=(
  bench_table1_chip bench_table2_bandwidth bench_table3_latency
  bench_table4_params bench_table5_phases bench_table7_stap
  bench_fig1_global_latency bench_fig2_sync_latency bench_fig4_per_thread
  bench_fig7_layouts bench_fig8_panels bench_fig9_per_block
  bench_fig10_approaches bench_fig11_mkl_magma bench_fig12_solvers
  bench_fastmath_ablation bench_ext_solvers bench_planner bench_runtime
  bench_fleet bench_cpu_kernels
)

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "$(nproc)" --target "${BENCHES[@]}"

# The build dir follows the preset naming in CMakePresets.json.
case "$PRESET" in
  tier1) dir=build ;;
  *) dir="build-$PRESET" ;;
esac

cd "$dir/bench"
# Registry introspection: must list every op the binary registered (a
# dead-stripped registration TU would show up as a missing row here).
echo "== bench_fig12_solvers --list-ops"
timeout 60 ./bench_fig12_solvers --list-ops
for b in "${BENCHES[@]}"; do
  echo "== $b --smoke"
  # `timeout` turns a hung bench into a failure instead of a stuck gate.
  timeout 600 "./$b" --smoke
done

# Paper-reproduction identity gate: the ten simulator-only benches, at full
# fidelity, must regenerate their committed CSVs byte for byte. Simulated
# numbers are deterministic outputs of the model (no wall clock, independent
# of host worker count), so any difference is a model or engine change; a
# deliberate one re-commits the CSVs in the same change. Each `==` line ends
# with the bench's wall seconds, so every log shows what full simulation
# costs; the time is informational only, the cmp is the gate.
IDENTITY=(
  bench_fig1_global_latency:fig1 bench_fig2_sync_latency:fig2
  bench_fig4_per_thread:fig4 bench_fig7_layouts:fig7 bench_fig8_panels:fig8
  bench_fig9_per_block:fig9 bench_table2_bandwidth:table2
  bench_table3_latency:table3 bench_table4_params:table4
  bench_table5_phases:table5
)
for entry in "${IDENTITY[@]}"; do
  b="${entry%%:*}" id="${entry##*:}"
  printf '== %s (full fidelity) vs bench_results/%s.csv' "$b" "$id"
  t0=$(date +%s%N)
  timeout 600 "./$b" > /dev/null
  ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  printf ': %d.%03d s\n' $(( ms / 1000 )) $(( ms % 1000 ))
  cmp "bench_results/$id.csv" "../../bench_results/$id.csv"
done

# Replay soundness gate (DESIGN.md §13): one more smoke pass with every
# replay-cache hit re-simulated and cross-checked block by block. A
# replay/full-simulation accounting mismatch aborts the run, so a model
# change that silently breaks replay's uniformity assumption fails here
# instead of skewing throughput numbers.
echo "== bench_runtime --smoke (REGLA_REPLAY_VERIFY=1)"
REGLA_REPLAY_VERIFY=1 timeout 600 ./bench_runtime --smoke

cd ../..
# Runtime rows: low-rate tiers warn-only, saturation tiers strict (their
# smoke cells run at full request counts with size-triggered flushes, so
# device pr/s is deterministic enough to gate on).
python3 scripts/check_bench_regression.py \
  --fresh "$dir/bench/bench_results/smoke/runtime.csv" \
  --baseline bench_results/runtime.csv \
  --strict-rows "rate req/s=96000,16000,8000" \
  "$@"
# Fleet scaling rows: aggregate device pr/s keyed on (act, devices, rate) —
# catches router-balance regressions, since the aggregate is bounded by the
# busiest device. The scale act runs at full fidelity in smoke, so it gates
# strictly.
python3 scripts/check_bench_regression.py \
  --fresh "$dir/bench/bench_results/smoke/fleet.csv" \
  --baseline bench_results/fleet.csv \
  --key-cols "act,devices,rate req/s" \
  --value-col "agg device pr/s" \
  --strict-rows "act=scale" \
  "$@"
# Ragged bucketing rows: warn-only (the smoke cells are deadline-flushed, so
# batch depth tracks arrival timing); the in-binary gate that ragged beats
# pure on batch size and device pr/s runs at full fidelity only.
python3 scripts/check_bench_regression.py \
  --fresh "$dir/bench/bench_results/smoke/ragged.csv" \
  --baseline bench_results/ragged.csv \
  --key-cols "mode,rate req/s" \
  "$@"
# The allocation-budget gate: steady-state arena slab allocs per request
# from the alloc-audit act, against the committed budget. Strict — the
# counter is deterministic, there is no runner noise to absorb.
python3 scripts/check_alloc_budget.py \
  --csv "$dir/bench/bench_results/smoke/alloc_audit.csv" \
  --budget bench_results/alloc_budget.txt

# The serving benchmark builds against the current src/ and its tests pass.
echo "== hostbench build + unit tests"
python3 hostbench/run.py --test
for w in qr32_closed mixed_open qr8_closed; do
  echo "== hostbench $w (1 s oracle pass over replay hits)"
  python3 hostbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0
done

echo "bench smoke: all binaries ran clean"
