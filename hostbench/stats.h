// The benchmark's own statistics: exact percentiles, in-memory spans and
// their self time, open-loop lateness, and the runtime-overhead subtraction.
// Header-only so test_stats.cc checks exactly what main.cc reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hostbench {

/// Exact percentile of `sorted` (ascending) by linear interpolation between
/// closest ranks (numpy's default), q in [0, 1]. 0 for an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// A timing reported as median and 99th percentile with its sample count.
struct Quantiles {
  double p50 = 0;
  double p99 = 0;
  std::size_t count = 0;
};

template <typename T>
Quantiles quantiles(const std::vector<T>& samples) {
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  return {percentile_sorted(v, 0.50), percentile_sorted(v, 0.99), v.size()};
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// The most frequent value of a value -> count histogram (the smallest on
/// ties); 0 for an empty one.
inline int mode(const std::map<int, long>& freq) {
  int best = 0;
  long best_n = 0;
  for (const auto& [x, n] : freq)
    if (n > best_n) best = x, best_n = n;
  return best;
}

/// How late a generator sent a request due at `due` and sent at `sent`, in
/// ms; 0 when it went out on time (a request is never early).
template <typename TimePoint>
double lateness_ms(TimePoint due, TimePoint sent) {
  return std::max(0.0, std::chrono::duration<double, std::milli>(sent - due).count());
}

/// runtime.overhead_us_per_problem: the stream time per problem the serving
/// path spends beyond the solve itself. `streams` streams complete
/// `wall_pps` problems per second between them, so each problem costs
/// streams * 1e6 / wall_pps stream-microseconds, of which the isolated
/// Solver::run accounts for `solve_us_per_problem`.
inline double overhead_us_per_problem(int streams, double wall_pps,
                                      double solve_us_per_problem) {
  if (wall_pps <= 0) return 0;
  return streams * 1e6 / wall_pps - solve_us_per_problem;
}

/// One recorded span. `id` is unique in its log; `parent` is the id of the
/// span that caused it (0 = none); `req` is the request it belongs to
/// (0 = none); `items` is how many calls the span covers (timed as a group
/// when one call is too short for the clock).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int items = 1;
};

/// In-memory span recorder. Not thread-safe: the benchmark records from its
/// one generator thread. Disabled logs, and logs holding `capacity` spans,
/// record nothing and return id 0 (counted in dropped()).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled, std::size_t capacity = 1'000'000)
      : enabled_(enabled), capacity_(capacity), t0_(Clock::now()) {}

  std::uint64_t open(const char* name, std::uint64_t parent = 0,
                     std::uint64_t req = 0, int items = 1) {
    if (!enabled_) return 0;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.req = req;
    s.items = items;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }

  void close(std::uint64_t id) {
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// One JSON object per line.
  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"req\":" << s.req
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"items\":" << s.items << "}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool enabled_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Total self time per span name: a span's duration minus the part of its
/// interval covered by its children (overlapping children count once,
/// children reaching outside the parent are clipped to it).
struct SelfTime {
  double total_us = 0;
  std::size_t count = 0;
};

inline std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    SelfTime& t = out[s.name];
    t.total_us += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3;
    ++t.count;
  }
  return out;
}

}  // namespace hostbench
