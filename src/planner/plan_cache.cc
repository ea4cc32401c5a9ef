#include "planner/plan_cache.h"

#include <algorithm>

namespace regla::planner {

PlanCache::PlanCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

std::size_t PlanCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.desc.op));
  mix(static_cast<std::uint64_t>(k.desc.dtype));
  mix(static_cast<std::uint64_t>(k.desc.m));
  mix(static_cast<std::uint64_t>(k.desc.n));
  mix(static_cast<std::uint64_t>(k.desc.batch));
  return static_cast<std::size_t>(h);
}

std::optional<Plan> PlanCache::find(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  Plan p = it->second->plan;
  p.from_cache = true;
  return p;
}

void PlanCache::insert(const Key& key, const Plan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.inserts;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = plan;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, plan});
  index_[key] = lru_.begin();
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_ = PlanCacheStats{};
}

}  // namespace regla::planner
