// The fleet's placement policy, as a pure function.
//
// Given the router-visible snapshot of every device (load, circuit-breaker
// state, last routing stamp), pick() returns the index of the device a
// coalesced batch should run on. Keeping the policy free of locks and clocks
// makes it unit-testable in isolation (tests/test_fleet.cc drives it with
// hand-built candidate lists) and keeps fleet.cc's locking honest: the Fleet
// snapshots its members under its mutex and asks this function. The policy
// reads no planner state: the model picks the plan, load picks the device.
//
// Policy, in order of force:
//   1. circuit state  — a device whose breaker is open is only chosen when
//      every candidate's breaker is open (the cpu-fallback path needs a
//      lease to degrade from, and probing a cooled-down breaker is how a
//      recovered device rejoins).
//   2. queue depth    — fewer inflight batches per stream wins; this is what
//      keeps every device's batch pipeline full instead of hot-spotting one.
//   3. round-robin    — exact ties break toward the least-recently-routed
//      device, so a cold homogeneous fleet interleaves deterministically.
#pragma once

#include <cstdint>
#include <vector>

namespace regla::fleet {

/// What the router sees of one routable device (snapshot, not live state).
struct RouteCandidate {
  int device = -1;          ///< fleet device id
  double load = 0;          ///< inflight batches / streams (queue depth)
  bool circuit_open = false;
  std::uint64_t last_routed = 0;  ///< routing stamp (smaller = longer idle)
};

/// Index into `candidates` of the device to place on, or -1 when the list is
/// empty. Never returns a circuit-open candidate while a closed one exists.
int pick(const std::vector<RouteCandidate>& candidates);

}  // namespace regla::fleet
