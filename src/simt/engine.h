// The launch engine: runs kernels functionally (one stackless lane per device
// thread, simt/lane.h) and produces timing (cycles on the configured chip)
// plus instrumentation breakdowns.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simt/block_ctx.h"
#include "simt/device_config.h"
#include "simt/fault.h"
#include "simt/occupancy.h"
#include "simt/stats.h"

namespace regla::simt {

class ReplayCache;

/// A kernel: called once per device thread, it returns that thread's lane
/// (a coroutine, simt/lane.h). Lifetime rule: a lane's frame may refer to
/// the KernelFn's captures — kernel functions take their arguments by
/// reference to the launch lambda's copy — and Device::launch keeps the
/// KernelFn alive until every lane of the launch is destroyed. Anything else
/// a lane refers to must outlive the launch() call.
using KernelFn = std::function<Lane(BlockCtx&)>;

struct LaunchSpec {
  int blocks = 1;
  int threads = 32;
  /// Register demand per thread, for the occupancy calculator (clamped to the
  /// HW max; tiles that exceed the budget additionally spill — see RegTile).
  int regs_per_thread = 32;
  std::string name;
};

/// Cycle attribution bucket for the Table V / Fig. 8 breakdowns.
struct TaggedCycles {
  int panel = -1;
  OpTag tag = OpTag::other;
  double cycles = 0;  ///< per-block average
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
};

/// A simulated GPU. Thread-compatible: one launch at a time per Device, but
/// independent blocks within a launch run on the process-wide host pool
/// (cpu::ThreadPool::global()), which every Device shares: concurrent
/// launches on different Devices split its threads between them as they
/// free up.
class Device {
 public:
  explicit Device(DeviceConfig cfg = DeviceConfig::quadro6000());
  ~Device();
  Device(Device&&) noexcept;
  Device& operator=(Device&&) noexcept;

  const DeviceConfig& config() const { return cfg_; }
  DeviceConfig& mutable_config() { return cfg_; }

  /// Run `body` for every thread of every block; returns full timing and
  /// instrumentation. Functionally exact: all side effects on host memory
  /// wrapped by ctx.global() have happened when this returns.
  ///
  /// An exception escaping a lane aborts its block and is rethrown here;
  /// every lane of that block is destroyed first, unwinding the locals of
  /// the lanes still suspended at a barrier.
  ///
  /// Fault hooks (config().faults, simt/fault.h): may throw
  /// TransientLaunchFailure *before any block runs* (payload untouched,
  /// retry-safe), stretch the reported timing, or silently skip one block
  /// (poisoned result). Decisions are deterministic in (seed, launch
  /// ordinal); the ordinal advances on every launch() call, thrown or not.
  LaunchResult launch(const LaunchSpec& spec, const KernelFn& body);

  /// What the fault hooks have injected on this device so far.
  const FaultStats& fault_stats() const { return fault_stats_; }
  void reset_fault_stats() { fault_stats_ = {}; }

  /// Cap on the host threads (the caller plus shared-pool helpers) that run
  /// one launch's blocks; 0, the default, allows the whole pool. A cap, not a
  /// reservation: the threads come from the shared pool as they free up. It
  /// stays for callers that need a fixed width — 1 keeps every block on the
  /// calling thread, and a benchmark that times one layer in isolation pins
  /// the width so its numbers do not depend on what else is running.
  void set_host_workers(int workers);

  /// Replay memoization (simt/replay.h, DESIGN.md §13). Off by default so
  /// direct Device users (the paper-figure benches) always fully simulate;
  /// the serving runtime opts its stream devices in. Honors the
  /// REGLA_REPLAY=0 kill switch; turning replay off drops the cache.
  /// REGLA_REPLAY_VERIFY=1 (read at Device construction) makes every cache
  /// hit re-simulate all blocks and assert the cached accounting matches.
  void set_replay(bool on);
  bool replay_enabled() const { return replay_on_; }

  /// RAII declaration that the launches inside it have data-independent
  /// accounting (planner::OpTraits::data_independent): same kernel +
  /// geometry + salt implies the same folded phases for every block. `salt`
  /// must cover everything geometry alone does not — problem dims, dtype,
  /// plan knobs, DeviceConfig fingerprint, payload base-address alignment
  /// classes. Scopes nest; the previous scope is restored on destruction.
  class ReplayScope {
   public:
    ReplayScope(Device& dev, bool data_independent, std::uint64_t salt);
    ~ReplayScope();
    ReplayScope(const ReplayScope&) = delete;
    ReplayScope& operator=(const ReplayScope&) = delete;

   private:
    Device& dev_;
    bool prev_di_;
    std::uint64_t prev_salt_;
  };

 private:
  DeviceConfig cfg_;
  int host_workers_ = 0;  // per-launch cap; 0 = the whole shared pool
  bool replay_on_ = false;
  bool replay_verify_ = false;          ///< REGLA_REPLAY_VERIFY at construction
  bool scope_data_independent_ = false; ///< set by ReplayScope
  std::uint64_t scope_salt_ = 0;
  std::unique_ptr<ReplayCache> replay_cache_;
  std::uint64_t launch_ordinal_ = 0;  ///< fault-stream position (one launch at a time)
  FaultStats fault_stats_;
};

}  // namespace regla::simt
