// Replay memoization for Device::launch (DESIGN.md §13).
//
// The wave-invariance argument extended to whole blocks: in a batch of
// identical-signature problems, a block's *accounting* — its folded
// PhaseRecords — is a function of (kernel, geometry, device config, payload
// addressing) alone whenever the kernel's control flow and memory indexing
// do not depend on the matrix values. The op declares that property
// (planner::OpTraits::data_independent); the engine then fully simulates K
// representative blocks, checks they folded identically, and replays that
// accounting for every other block of every later launch with the same key,
// running the remaining blocks through the uninstrumented fast path (the
// numerics still execute — results are exact; only the cycle bookkeeping is
// memoized).
//
// Representatives are one alignment period of leading blocks (at least
// {0, 1}) plus the last. For the linear addressing these kernels do
// (base + block·stride), the per-block DRAM segment pattern is a function
// of the alignment class (base + block·stride) mod segment, which repeats
// every segment / gcd(segment, stride) blocks — the period the op layer
// passes in Device::ReplayScope. So blocks 0..period-1 show every class any
// block has, and their agreement is sound; the last block covers ragged
// tails (per-thread kernels with count % threads != 0). (Agreement of
// blocks 0 and 1 alone is not enough: two classes can give the same segment
// count, e.g. a 96-byte stride cycles through four classes of which some
// span one segment and some two.) Anything that still folds differently
// per block falls back to full instrumentation and is cached as an exact
// per-block vector instead.
//
// The launch's folded accounting (its LaunchResult: occupancy, per-block
// timing, chip time, totals, breakdown) is a function of those runs and
// the device config alone, so each entry memoizes it too: the miss that
// creates the entry stores its fold before any latency spike, and every
// unpoisoned hit copies it instead of re-pricing every phase of every
// block. REGLA_REPLAY_VERIFY=1 re-simulates every block, asserts the
// replayed accounting matches phase by phase, and asserts the re-folded
// result matches the memo ("engine.replay.verify_mismatches" stays 0).
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "simt/launch_result.h"
#include "simt/stats.h"

namespace regla::simt {

/// Everything produced by functionally executing one block instrumented.
struct BlockRun {
  std::vector<PhaseRecord> phases;
  std::size_t shared_bytes = 0;
  std::uint64_t syncs = 0;

  friend bool operator==(const BlockRun& a, const BlockRun& b) {
    return a.shared_bytes == b.shared_bytes && a.syncs == b.syncs &&
           a.phases == b.phases;
  }
};

/// Cache key: everything a block's accounting can depend on. `salt` is the
/// launcher-supplied discriminator covering what geometry alone does not —
/// problem dims, dtype, plan knobs, DeviceConfig fingerprint, and the
/// payload base-address alignment classes that steer DRAM coalescing.
struct ReplayKey {
  std::string kernel;
  int blocks = 0;
  int threads = 0;
  int regs_per_thread = 0;
  std::uint64_t salt = 0;

  friend bool operator==(const ReplayKey& a, const ReplayKey& b) {
    return a.blocks == b.blocks && a.threads == b.threads &&
           a.regs_per_thread == b.regs_per_thread && a.salt == b.salt &&
           a.kernel == b.kernel;
  }
};

struct ReplayKeyHash {
  std::size_t operator()(const ReplayKey& k) const {
    std::size_t h = std::hash<std::string>()(k.kernel);
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.blocks));
    mix(static_cast<std::uint64_t>(k.threads));
    mix(static_cast<std::uint64_t>(k.regs_per_thread));
    mix(k.salt);
    return h;
  }
};

/// One memoized launch shape. `uniform` entries hold a single representative
/// BlockRun every block replays; non-uniform entries hold the exact
/// per-block vector (the conservative fallback when representatives
/// disagreed). `fold` is what Device::launch folds from those runs, before
/// any latency spike; it is valid exactly as long as the runs are.
struct ReplayEntry {
  bool uniform = false;
  BlockRun rep;                      ///< valid when uniform
  std::vector<BlockRun> per_block;   ///< valid when !uniform
  LaunchResult fold;

  const BlockRun& run_for(int block) const {
    return uniform ? rep : per_block[static_cast<std::size_t>(block)];
  }
  /// Rough footprint in PhaseRecords, for the cache's size budget.
  std::size_t phase_records() const {
    if (uniform) return rep.phases.size();
    std::size_t n = 0;
    for (const BlockRun& r : per_block) n += r.phases.size();
    return n;
  }
};

/// LRU map of ReplayKey -> ReplayEntry, bounded by total cached PhaseRecords
/// (non-uniform entries for big launches dominate memory; uniform ones are a
/// few KB). Not thread-safe: owned by a Device, which runs one launch at a
/// time.
class ReplayCache {
 public:
  explicit ReplayCache(std::size_t max_phase_records = 1u << 19)
      : budget_(max_phase_records) {}

  /// Entry for `key`, or nullptr. Refreshes LRU order. The pointer is valid
  /// until the next put().
  const ReplayEntry* find(const ReplayKey& key);

  /// Insert (or replace) and evict least-recently-used entries past budget.
  void put(const ReplayKey& key, ReplayEntry entry);

  std::size_t size() const { return map_.size(); }
  std::size_t phase_records() const { return records_; }

 private:
  struct Node {
    ReplayKey key;
    ReplayEntry entry;
  };
  using Lru = std::list<Node>;

  std::size_t budget_;
  std::size_t records_ = 0;
  Lru lru_;  // front = most recent
  std::unordered_map<ReplayKey, Lru::iterator, ReplayKeyHash> map_;
};

}  // namespace regla::simt
