// regla::fleet — a routed fleet of simulated GPUs.
//
// The paper saturates ONE device's registers; the serving tier needs N of
// them. A Fleet owns N devices (heterogeneous simt::DeviceConfigs allowed —
// a quadro6000 next to a degraded or hostile one), each with one or more
// worker streams (a simt::Device + Solver pair; a stream executes one
// coalesced batch at a time). Placement goes through the router policy in
// fleet/router.h: per-device queue depth first, plan-cache affinity second
// (a device whose config fingerprint already holds a plan for the signature
// skips planning — see PlanCache::warm), circuit-breaker state as a veto,
// round-robin on ties.
//
// Lifecycle is live: devices can be drained (stop receiving batches,
// in-flight work completes), removed (drain + wait, then the streams are
// destroyed), added under load (starts receiving batches on the next
// placement), and killed (deterministic stand-in for a device dying
// mid-traffic: every subsequent launch attempt on it throws
// TransientLaunchFailure, so the serving layer's retry / re-route /
// circuit-breaker machinery absorbs the loss without dropping a request —
// simt/fault.h supplies the seeded per-launch hostility, kill() the
// guaranteed one).
//
// Every device exports labeled obs instruments (device=<name>): queue-depth
// / inflight gauges, batch/problem/reroute counters, circuit state, and the
// fleet-wide fleet.devices / fleet.streams topology gauges.
// publish_metrics() re-stamps the topology after an obs::reset_all(), the
// same contract as ops::publish_metrics().
//
// Locking: one fleet mutex guards membership, stream free-lists, breaker
// state, and stats; acquire() blocks on the fleet cv while every eligible
// device is busy and returns nullopt when none is eligible at all (all
// drained/removed/excluded). The plan cache's own mutex nests inside the
// fleet mutex (fleet -> cache, never the reverse).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "planner/solver.h"

namespace regla::fleet {

using Clock = std::chrono::steady_clock;

/// One worker stream: its own simulated Device + Solver over the fleet's
/// shared planner (so a signature planned on any stream is a plan-cache hit
/// on all of them). A stream is leased to exactly one executor at a time,
/// so nothing here needs locking. Its Device simulates blocks on the
/// process-wide host pool (cpu::ThreadPool::global()) that every stream
/// shares, so a stream with a full launch wave uses the threads an idle
/// sibling leaves free.
class Stream {
 public:
  Stream(const simt::DeviceConfig& cfg, std::shared_ptr<planner::Planner> p,
         bool replay = true)
      : dev_(cfg), solver_(dev_, std::move(p)) {
    // Serving streams run data-independent ops over coalesced batches — the
    // replay cache's home turf. Direct Device users (paper-figure benches)
    // stay on full simulation; REGLA_REPLAY=0 force-disables it here too.
    dev_.set_replay(replay);
  }

  simt::Device& device() { return dev_; }
  Solver& solver() { return solver_; }

 private:
  simt::Device dev_;
  Solver solver_;
};

/// How a device joins the fleet.
struct DeviceSpec {
  /// Metric label and log name; empty picks "dev<id>".
  std::string name;
  simt::DeviceConfig config = simt::DeviceConfig::quadro6000();
  /// Worker streams (Device + Solver pairs) this member runs. More streams =
  /// more concurrent batches on the member (each stream simulates
  /// independently).
  int streams = 1;
};

enum class DeviceState : std::uint8_t { active, draining, removed };

inline const char* to_string(DeviceState s) {
  switch (s) {
    case DeviceState::active: return "active";
    case DeviceState::draining: return "draining";
    case DeviceState::removed: return "removed";
  }
  return "?";
}

/// Router-visible and accounting state of one member, snapshotted.
struct DeviceStats {
  int id = -1;
  std::string name;
  DeviceState state = DeviceState::active;
  bool circuit_open = false;
  bool killed = false;
  int streams = 0;
  int inflight = 0;  ///< leased streams (the router's queue depth numerator)
  std::uint64_t batches = 0;   ///< coalesced batches completed here
  std::uint64_t problems = 0;  ///< problems through those batches
  std::uint64_t reroutes_away = 0;  ///< batches this device failed to a sibling
  std::uint64_t circuit_opens = 0;
  double device_seconds = 0;   ///< simulated seconds this device was busy
  std::uint64_t fingerprint = 0;  ///< planner config fingerprint (affinity key)

  /// The paper's throughput metric for this device alone.
  double device_pps() const {
    return device_seconds > 0
               ? static_cast<double>(problems) / device_seconds
               : 0;
  }
};

/// Fleet-wide counters.
struct FleetStats {
  std::uint64_t routed = 0;        ///< leases granted
  std::uint64_t reroutes = 0;      ///< batches moved to a sibling after failure
  std::uint64_t circuit_opens = 0; ///< breaker trips across all devices
  std::uint64_t no_device = 0;     ///< acquire() found no eligible device
};

class Fleet;

/// A leased stream (RAII: destruction returns the stream to its device's
/// free list and wakes blocked acquirers). Move-only.
class Lease {
 public:
  Lease() = default;
  Lease(Lease&& o) noexcept { *this = std::move(o); }
  Lease& operator=(Lease&& o) noexcept;
  ~Lease() { release(); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  explicit operator bool() const { return stream_ != nullptr; }
  Stream& stream() const { return *stream_; }
  int device_id() const { return device_; }
  const std::string& device_name() const { return name_; }
  /// The lease was granted on a circuit-open device because every eligible
  /// device's breaker was open (the degrade-or-probe case).
  bool circuit_open() const { return circuit_open_; }
  /// The device was killed; any launch attempt must fail (the executor
  /// throws TransientLaunchFailure instead of running the solver).
  bool killed() const;
  /// Early return to the pool (also what the destructor does).
  void release();

 private:
  friend class Fleet;
  Fleet* fleet_ = nullptr;
  Stream* stream_ = nullptr;
  int device_ = -1;
  std::string name_;
  bool circuit_open_ = false;
  const std::atomic<bool>* killed_flag_ = nullptr;
};

struct FleetOptions {
  /// At least one. Every member's streams simulate on the one shared host
  /// pool (see Stream), so the fleet has no host-thread knob.
  std::vector<DeviceSpec> devices;
  /// Placement policy knobs (fleet/router.h).
  RouterOptions router;
  /// Exhausted-retry episodes that open a device's circuit breaker (0
  /// disables the breaker), and how long it stays open.
  int circuit_break_after = 2;
  std::chrono::milliseconds circuit_cooldown{50};
  /// The shared planner (and plan cache) every stream solves through;
  /// created fresh when null.
  std::shared_ptr<planner::Planner> planner;
  /// Replay memoization on every stream device (simt/replay.h): simulate
  /// representative blocks per launch shape, replay the cycle accounting
  /// for the rest. Timing-exact for the data-independent ops the runtime
  /// serves; set false to force full simulation of every block.
  bool replay = true;
};

/// The fleet: N devices, a router, live membership. Thread-safe throughout.
class Fleet {
 public:
  using Options = FleetOptions;

  explicit Fleet(Options opt);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- routing -----------------------------------------------------------
  /// Lease a stream on the best eligible device for `desc` (router policy:
  /// queue depth, plan-cache affinity, circuit state, round-robin).
  /// `exclude` is a bitmask of device ids to skip — the re-route path's
  /// "anywhere but where it just failed" (devices past id 63 are never
  /// excludable; the mask is a re-route aid, not a partition). Blocks while
  /// every eligible device is busy; returns nullopt when no device is
  /// eligible at all (all draining/removed/excluded).
  std::optional<Lease> acquire(const planner::ProblemDesc& desc,
                               std::uint64_t exclude = 0);

  /// Execution feedback: a batch of `problems` completed on the leased
  /// device in `device_seconds` of simulated time. Closes the device's
  /// circuit (success proves it healthy) and resets its failure streak.
  void record_success(const Lease& lease, int problems, double device_seconds);

  /// Execution feedback: retries were exhausted on the leased device (the
  /// caller is about to re-route or degrade). Advances the failure streak
  /// and returns true when this trip opened the circuit breaker.
  bool record_exhausted(const Lease& lease);

  /// A batch left device `device_id` for a sibling after failing there (by
  /// id, not lease: the failed lease is released before re-routing so the
  /// waiter holds no stream).
  void record_reroute_away(int device_id);

  // --- lifecycle ---------------------------------------------------------
  /// Add a device under load; it starts receiving batches on the next
  /// placement. Returns its id (ids are dense and never reused).
  int add_device(DeviceSpec spec);

  /// Stop routing new batches to `id`; in-flight work completes normally.
  void drain(int id);

  /// Drain `id` and block until its in-flight batches finish, then destroy
  /// its streams. Idempotent; throws on an unknown id.
  void remove(int id);

  /// Deterministically kill a device mid-traffic: every subsequent launch
  /// attempt on it fails with TransientLaunchFailure (the executor checks
  /// Lease::killed before running). The device keeps receiving routed
  /// batches until its circuit breaker learns better — exactly how a real
  /// dead device looks to a router.
  void kill(int id);

  // --- introspection -----------------------------------------------------
  int size() const;             ///< members ever added (any state)
  int active_devices() const;   ///< members in state active
  int total_streams() const;    ///< streams across non-removed members
  DeviceStats device_stats(int id) const;
  std::vector<DeviceStats> devices() const;
  FleetStats stats() const;
  /// The first non-removed member's config (the runtime's batch-targeting
  /// reference); by value — membership can change under the caller.
  simt::DeviceConfig primary_config() const;
  std::shared_ptr<planner::Planner> planner() const { return planner_; }

  /// Re-stamp the fleet topology gauges (fleet.devices, fleet.streams, and
  /// per-device fleet.state / fleet.circuit_open / fleet.inflight /
  /// fleet.queue_depth) after an obs::reset_all(), mirroring
  /// ops::publish_metrics().
  void publish_metrics() const;

 private:
  struct Member;

  /// Requires mu_ held. Builds the router snapshot and leases on success.
  std::optional<Lease> try_route(const planner::ProblemDesc& desc,
                                 std::uint64_t exclude, bool* any_eligible);
  void release(Stream* stream, int device);  ///< Lease's return path
  Member& member_checked(int id);
  const Member& member_checked(int id) const;
  DeviceStats stats_of(const Member& m) const;  ///< requires mu_ held
  void stamp_member_gauges(const Member& m) const;  ///< requires mu_ held
  void stamp_topology_gauges() const;               ///< requires mu_ held

  Options opt_;
  std::shared_ptr<planner::Planner> planner_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::unique_ptr<Member>> members_;
  std::uint64_t route_stamp_ = 0;  ///< monotonic, for round-robin ties
  FleetStats stats_;

  friend class Lease;
};

}  // namespace regla::fleet
