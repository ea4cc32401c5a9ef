// The model-guided launch planner (the paper's predictive model, §II/§IV-V,
// promoted from validation artifact to the actual dispatcher).
//
// For a problem signature the planner enumerates every candidate mapping the
// kernels admit — approach x threads-per-block x layout x fast-math — scores
// each with the analytical models in src/model/, and returns the cheapest as
// a Plan. Results are memoized in an LRU cache keyed by (signature, device
// fingerprint), so repeated solves of the same shape skip enumeration and
// scoring entirely and dispatch in O(1).
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
//
// Optional autotune mode runs the top-k model candidates on the simulated
// device once per signature, keeps the measured winner, and records the
// model-vs-measured cycle error on the plan (Plan::model_rel_error) and in
// PlannerStats — the paper's predicted-vs-measured validation (Tables IV/V),
// live in production.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
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
  std::uint64_t autotune_runs = 0;   ///< candidates actually measured
  std::uint64_t evictions = 0;
  double model_error_sum = 0;        ///< sum of per-plan relative errors
  std::uint64_t model_error_count = 0;

  double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? cache_hits / total : 0;
  }
  double mean_model_error() const {
    return model_error_count > 0 ? model_error_sum / model_error_count : 0;
  }
};

struct PlannerOptions {
  std::size_t cache_capacity = 512;  ///< LRU entries before eviction
  bool autotune = false;             ///< measure top-k candidates once
  int autotune_top_k = 3;
  /// Problems per measured sample launch (enough for full chip residency).
  int autotune_sample_batch = 112;
};

class Planner {
 public:
  using Options = PlannerOptions;

  /// Measured chip cycles for running `candidate` on `sample` (a reduced-
  /// batch copy of the original signature), or < 0 if the candidate cannot
  /// be measured. Supplied by the execution layer (regla::Solver) so the
  /// planner itself stays free of kernel dependencies.
  using MeasureFn = std::function<double(const ProblemDesc& sample,
                                         const Plan& candidate)>;

  explicit Planner(Options opt = {});

  /// The plan for this signature on this device: cached if seen before,
  /// otherwise enumerated, scored, optionally autotuned, and inserted.
  /// Thread-safe (the cache is a PlanCache; two threads missing the same
  /// signature at once both build it and the later insert wins — plans for a
  /// signature are deterministic, so the duplicate work is harmless).
  /// REGLA_CHECKs if no kernel can run the problem at all.
  Plan plan(const regla::simt::DeviceConfig& cfg, const ProblemDesc& desc);

  /// All admissible candidates, scored, cheapest first (no cache involved).
  std::vector<Plan> candidates(const regla::simt::DeviceConfig& cfg,
                               const ProblemDesc& desc) const;

  void set_measure_fn(MeasureFn fn);

  PlannerStats stats() const;
  void clear();  ///< drop the cache and reset counters

  Options options() const { return opt_; }

  /// The underlying memo (thread-safe; shared by every caller of plan()).
  PlanCache& cache() { return cache_; }
  const PlanCache& cache() const { return cache_; }

  /// Hash of every DeviceConfig field the plans depend on; part of the cache
  /// key, so reconfiguring the device invalidates (by never matching) all
  /// plans made for the old configuration.
  static std::uint64_t config_fingerprint(const regla::simt::DeviceConfig& cfg);

 private:
  Plan build_plan(const regla::simt::DeviceConfig& cfg,
                  const ProblemDesc& desc);

  Options opt_;
  MeasureFn measure_;

  PlanCache cache_;
  mutable std::mutex mutex_;  ///< guards measure_ and stats_
  PlannerStats stats_;        ///< the non-cache counters (built/autotune/error)
};

}  // namespace regla::planner
