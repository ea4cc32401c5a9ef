// What one Device::launch reports: the launch's timing on the simulated chip
// and its folded accounting. Its own header because the replay cache
// (simt/replay.h) memoizes it per entry.
#pragma once

#include <cstddef>
#include <vector>

#include "simt/occupancy.h"
#include "simt/stats.h"

namespace regla::simt {

/// Cycle attribution bucket for the Table V / Fig. 8 breakdowns.
struct TaggedCycles {
  int panel = -1;
  OpTag tag = OpTag::other;
  double cycles = 0;  ///< per-block average

  friend bool operator==(const TaggedCycles&, const TaggedCycles&) = default;
};

struct LaunchResult {
  double chip_cycles = 0;     ///< whole-launch time on the simulated chip
  double seconds = 0;         ///< chip_cycles / clock
  double block_cycles_avg = 0;
  int blocks_per_sm = 0;
  Occupancy::Limiter occupancy_limiter = Occupancy::Limiter::none;
  int waves = 0;
  std::size_t shared_bytes_per_block = 0;
  LaunchCounters totals;
  std::vector<TaggedCycles> breakdown;

  /// Report throughput against a nominal FLOP count (the paper reports
  /// GFLOP/s from the textbook operation counts, not instrumented FLOPs).
  double gflops(double nominal_flops) const {
    return seconds > 0 ? nominal_flops / seconds / 1e9 : 0;
  }
  /// Effective DRAM bandwidth of the launch.
  double dram_gbs() const {
    return seconds > 0 ? static_cast<double>(totals.gl_bytes) / seconds / 1e9 : 0;
  }
  double cycles_for(OpTag tag) const {
    double c = 0;
    for (const auto& b : breakdown)
      if (b.tag == tag) c += b.cycles;
    return c;
  }

  /// Exact equality of every field, doubles included (as PhaseRecord's):
  /// the verify check of a replay entry's memoized fold.
  friend bool operator==(const LaunchResult&, const LaunchResult&) = default;
};

}  // namespace regla::simt
