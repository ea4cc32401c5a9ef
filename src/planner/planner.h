// The model-guided launch planner (the paper's predictive model, §II/§IV-V,
// promoted from validation artifact to the actual dispatcher).
//
// For a problem signature the planner enumerates every candidate mapping the
// kernels admit — approach x threads-per-block — scores each with the
// analytical models in src/model/, and returns the cheapest as a Plan,
// without running any of them. Results are memoized in an LRU cache keyed
// by (signature, device fingerprint), so repeated solves of the same shape
// skip enumeration and scoring entirely and dispatch in O(1).
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
#include <cstddef>
#include <cstdint>
#include <vector>

#include "planner/plan.h"
#include "planner/plan_cache.h"
#include "simt/device_config.h"

namespace regla::planner {

/// Cumulative planner health counters. Planner::stats() is their one source
/// (the cache counters come from the PlanCache).
struct PlannerStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t plans_built = 0;     ///< candidate enumerations performed
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? cache_hits / total : 0;
  }
};

class Planner {
 public:
  /// `cache_capacity` = plan-cache LRU entries before eviction.
  explicit Planner(std::size_t cache_capacity = 512);

  /// The plan for this signature on this device: cached if seen before,
  /// otherwise enumerated, scored, and inserted (the cheapest candidate).
  /// Thread-safe (the cache is a PlanCache; two threads missing the same
  /// signature at once both build it and the later insert wins — plans for a
  /// signature are deterministic, so the duplicate work is harmless).
  /// REGLA_CHECKs if no kernel can run the problem at all.
  Plan plan(const regla::simt::DeviceConfig& cfg, const ProblemDesc& desc);

  /// All admissible candidates, scored, cheapest first (no cache involved).
  std::vector<Plan> candidates(const regla::simt::DeviceConfig& cfg,
                               const ProblemDesc& desc) const;

  PlannerStats stats() const;
  void clear();  ///< drop the cache and reset counters

  /// Hash of every DeviceConfig field the plans depend on; part of the cache
  /// key, so reconfiguring the device invalidates (by never matching) all
  /// plans made for the old configuration.
  static std::uint64_t config_fingerprint(const regla::simt::DeviceConfig& cfg);

 private:
  PlanCache cache_;
  std::atomic<std::uint64_t> plans_built_{0};
};

}  // namespace regla::planner
