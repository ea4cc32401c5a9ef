// regla::SolveReport — the one result struct every dispatch path returns.
//
// Split out of solver.h so the op registry (src/ops/) and the Solver facade
// can share it without the registry pulling in the whole planner facade.
#pragma once

#include <vector>

#include "planner/plan.h"
#include "simt/engine.h"

namespace regla {

/// Everything a batched solve reports: what ran (the plan and the model's
/// reasoning behind it), how long it took, what the instrumentation counted,
/// and which problems failed. Replaces LaunchResult + GpuBatchResult for
/// callers of the Solver API.
struct SolveReport {
  /// What ran: approach, threads, layout, and the model's verdict.
  planner::Plan plan;
  double seconds = 0;          ///< simulated wall time on the device
  double chip_cycles = 0;
  double nominal_flops = 0;    ///< textbook operation count (paper §III)
  simt::LaunchCounters counters;  ///< instrumented totals (zero: tiled path)
  int blocks_per_sm = 0;
  int waves = 0;               ///< launch waves (tiled: chain steps)
  /// One flag per problem, nonzero where the kernel could not solve (zero
  /// pivot / non-SPD input). Empty when the operation has no failure mode
  /// (QR, LS).
  std::vector<int> not_solved;

  core::Approach approach() const { return plan.approach; }
  double gflops() const {
    return seconds > 0 ? nominal_flops / seconds / 1e9 : 0;
  }
  bool all_solved() const {
    for (int f : not_solved)
      if (f) return false;
    return true;
  }
};

}  // namespace regla
