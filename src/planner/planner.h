// The model-guided launch planner (the paper's predictive model, §II/§IV-V,
// promoted from validation artifact to the actual dispatcher).
//
// For a problem signature the planner enumerates every candidate mapping the
// kernels admit — approach x threads-per-block — scores each with the
// analytical models in src/model/, and returns the cheapest as a Plan,
// without running any of them. The models are closed form, so every call
// plans afresh (about a microsecond) and the planner keeps no plans.
//
// Scoring = the paper's models plus one planner-level extension: a register
// SPILL term. The paper's Eq. 1 and Table VI models deliberately ignore
// spilling, which is exactly where Figs. 4 and 9 show them diverging from
// the hardware — a dispatcher cannot afford to be fooled there, so the
// planner charges spilled tile words for their L1 traffic (issue-cost for
// the latency-hidden per-thread kernels, exposed-latency for the
// sync-bounded per-block kernels). With that term the model itself
// reproduces the paper's dispatch policy: per-thread for tiny problems, the
// 64 -> 256 thread switch at n = 80 (Fig. 9), tiled beyond one block.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "planner/plan.h"
#include "simt/device_config.h"

namespace regla::planner {

/// Cumulative planner counters. Planner::stats() is their one source.
struct PlannerStats {
  /// Retired: always 0, since the planner keeps no plans to hit or miss.
  /// Kept, with hit_rate(), so existing readers of them build unchanged.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t plans_built = 0;  ///< plan() calls (each enumerates and scores)

  double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? cache_hits / total : 0;
  }
};

class Planner {
 public:
  /// The plan for this signature on this device: the cheapest candidate,
  /// enumerated and scored on every call. Thread-safe.
  /// REGLA_CHECKs if no kernel can run the problem at all.
  Plan plan(const regla::simt::DeviceConfig& cfg, const ProblemDesc& desc);

  /// All admissible candidates, scored, cheapest first.
  std::vector<Plan> candidates(const regla::simt::DeviceConfig& cfg,
                               const ProblemDesc& desc) const;

  PlannerStats stats() const;
  void clear();  ///< reset the counters

  /// Hash of every DeviceConfig field the plans depend on. Replay keys mix
  /// it in (ops/registry.cc), so reconfiguring a device never replays
  /// accounting recorded under the old configuration.
  static std::uint64_t config_fingerprint(const regla::simt::DeviceConfig& cfg);

 private:
  std::atomic<std::uint64_t> plans_built_{0};
};

}  // namespace regla::planner
