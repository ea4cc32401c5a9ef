// The planner's memo: a thread-safe LRU map from (problem signature, device
// fingerprint) to the Plan the model chose.
//
// Extracted from Planner so the serving runtime's worker streams can share
// one planner (and therefore one cache) without caring about the planner's
// other mutable state: every operation here takes the cache's own mutex, so
// any number of threads may find/insert/clear concurrently. Lookups move the
// entry to the LRU front; inserts past capacity evict from the back.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "planner/plan.h"

namespace regla::planner {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? hits / total : 0;
  }
};

class PlanCache {
 public:
  /// The full cache key: what is being solved plus the device configuration
  /// it was planned for (reconfiguring the device re-keys every plan).
  struct Key {
    ProblemDesc desc;
    std::uint64_t fingerprint = 0;
    bool operator==(const Key&) const = default;
  };

  explicit PlanCache(std::size_t capacity = 512);

  /// The cached plan (marked from_cache) or nullopt; counts a hit or miss
  /// and refreshes the entry's LRU position.
  std::optional<Plan> find(const Key& key);

  /// Insert or overwrite; evicts least-recently-used entries past capacity.
  void insert(const Key& key, const Plan& plan);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

  /// Drop every entry and reset the counters.
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    Plan plan;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  PlanCacheStats stats_;
};

}  // namespace regla::planner
