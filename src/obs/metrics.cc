#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.h"

namespace regla::obs {

// --- Histogram --------------------------------------------------------------

int Histogram::bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // <= 1 and NaN land in bucket 0
  const int i = static_cast<int>(std::lround(2.0 * std::log2(v)));
  return std::clamp(i, 0, kBuckets - 1);
}

double Histogram::bucket_upper(int i) { return std::pow(2.0, i / 2.0); }

void Histogram::record(double v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0;
}

double Histogram::percentile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(seen) > rank) return bucket_upper(i);
  }
  return bucket_upper(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t { counter, gauge, histogram };

const char* to_string(Kind k) {
  switch (k) {
    case Kind::counter: return "counter";
    case Kind::gauge: return "gauge";
    case Kind::histogram: return "histogram";
  }
  return "?";
}

struct Instrument {
  Kind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

struct Registry {
  std::mutex mu;
  // node-based so references into it are stable across inserts.
  std::map<std::string, std::unique_ptr<Instrument>> by_key;
};

Registry& registry() {
  // Leaked on purpose: instruments must outlive any static destructor that
  // still records into a cached reference.
  static Registry* r = new Registry();
  return *r;
}

std::string make_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

Instrument& get_or_create(std::string_view name, std::string_view labels,
                          Kind kind) {
  Registry& r = registry();
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_key.find(key);
  if (it == r.by_key.end()) {
    it = r.by_key.emplace(key, std::make_unique<Instrument>()).first;
    it->second->kind = kind;
  }
  REGLA_CHECK_MSG(it->second->kind == kind,
                  "metric '" << key << "' is a " << to_string(it->second->kind)
                             << ", requested as " << to_string(kind));
  return *it->second;
}

}  // namespace

Counter& counter(std::string_view name, std::string_view labels) {
  return get_or_create(name, labels, Kind::counter).counter;
}

Gauge& gauge(std::string_view name, std::string_view labels) {
  return get_or_create(name, labels, Kind::gauge).gauge;
}

Histogram& histogram(std::string_view name, std::string_view labels) {
  return get_or_create(name, labels, Kind::histogram).histogram;
}

double gauge_value(std::string_view name, std::string_view labels) {
  Registry& r = registry();
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.by_key.find(key);
  if (it == r.by_key.end() || it->second->kind != Kind::gauge) return 0;
  return it->second->gauge.value();
}

std::uint64_t counter_value(std::string_view name, std::string_view labels) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!labels.empty()) {
    const auto it = r.by_key.find(make_key(name, labels));
    if (it == r.by_key.end() || it->second->kind != Kind::counter) return 0;
    return it->second->counter.value();
  }
  // Keys are sorted, so `name` and every `name{...}` sit in one run of keys
  // sharing the prefix (interleaved with longer names like `name_x`).
  std::uint64_t total = 0;
  for (auto it = r.by_key.lower_bound(std::string(name));
       it != r.by_key.end() && it->first.starts_with(name); ++it) {
    const bool same_name =
        it->first.size() == name.size() || it->first[name.size()] == '{';
    if (same_name && it->second->kind == Kind::counter)
      total += it->second->counter.value();
  }
  return total;
}

void reset_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [key, instr] : r.by_key) {
    instr->counter.reset();
    instr->gauge.reset();
    instr->histogram.reset();
  }
}

void dump(std::ostream& os) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& [key, instr] : r.by_key) {
    switch (instr->kind) {
      case Kind::counter:
        os << "counter " << key << " " << instr->counter.value() << "\n";
        break;
      case Kind::gauge:
        os << "gauge " << key << " " << instr->gauge.value() << "\n";
        break;
      case Kind::histogram: {
        const Histogram& h = instr->histogram;
        os << "histogram " << key << " count=" << h.count()
           << " mean=" << h.mean() << " p50=" << h.percentile(0.50)
           << " p99=" << h.percentile(0.99) << "\n";
        break;
      }
    }
  }
}

void dump_csv(std::ostream& os) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  os << "type,name,field,value\n";
  for (const auto& [key, instr] : r.by_key) {
    switch (instr->kind) {
      case Kind::counter:
        os << "counter," << key << ",value," << instr->counter.value() << "\n";
        break;
      case Kind::gauge:
        os << "gauge," << key << ",value," << instr->gauge.value() << "\n";
        break;
      case Kind::histogram: {
        const Histogram& h = instr->histogram;
        os << "histogram," << key << ",count," << h.count() << "\n";
        os << "histogram," << key << ",mean," << h.mean() << "\n";
        os << "histogram," << key << ",p50," << h.percentile(0.50) << "\n";
        os << "histogram," << key << ",p99," << h.percentile(0.99) << "\n";
        break;
      }
    }
  }
}

}  // namespace regla::obs
