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
#include "simt/group_ctx.h"
#include "simt/launch_result.h"
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

/// A kernel's replay-group form (simt/group_ctx.h): called once per device
/// thread of a group, it returns the lane that computes that thread for
/// kGroupWidth blocks at once. It must compute, for each member, bitwise
/// what the KernelFn computes for that block; the same lifetime rule holds.
using GroupKernelFn = std::function<Lane(GroupCtx&)>;

struct LaunchSpec {
  int blocks = 1;
  int threads = 32;
  /// Register demand per thread, for the occupancy calculator (clamped to the
  /// HW max; tiles that exceed the budget additionally spill — see RegTile).
  int regs_per_thread = 32;
  std::string name;
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
  ///
  /// With a `group` body, the uninstrumented blocks of a replayed launch
  /// (every block of a cache hit, the non-representative blocks of a
  /// uniform miss) run kGroupWidth at a time on it; the tail of fewer than
  /// kGroupWidth, and every instrumented block, run on `body`
  /// (DESIGN.md §13, "Replay groups").
  LaunchResult launch(const LaunchSpec& spec, const KernelFn& body,
                      const GroupKernelFn& group = {});

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
  /// classes. `alignment_period` is the number of blocks after which the
  /// blocks' payload alignment classes repeat (simt/replay.h): a miss
  /// instruments that many leading blocks, at least two, plus the last.
  /// Scopes nest; the previous scope is restored on destruction.
  class ReplayScope {
   public:
    ReplayScope(Device& dev, bool data_independent, std::uint64_t salt,
                int alignment_period = 1);
    ~ReplayScope();
    ReplayScope(const ReplayScope&) = delete;
    ReplayScope& operator=(const ReplayScope&) = delete;

   private:
    Device& dev_;
    bool prev_di_;
    std::uint64_t prev_salt_;
    int prev_period_;
  };

 private:
  DeviceConfig cfg_;
  int host_workers_ = 0;  // per-launch cap; 0 = the whole shared pool
  bool replay_on_ = false;
  bool replay_verify_ = false;          ///< REGLA_REPLAY_VERIFY at construction
  bool scope_data_independent_ = false; ///< set by ReplayScope
  std::uint64_t scope_salt_ = 0;
  int scope_period_ = 1;                ///< set by ReplayScope
  std::unique_ptr<ReplayCache> replay_cache_;
  std::uint64_t launch_ordinal_ = 0;  ///< fault-stream position (one launch at a time)
  FaultStats fault_stats_;
};

}  // namespace regla::simt
