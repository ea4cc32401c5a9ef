// Typed, labeled, process-wide metric instruments — the library's telemetry
// store. Each usage pattern has its own instrument type:
//
//   obs::counter("engine.addr_truncations").add();       // event counts
//   obs::gauge("fleet.inflight", "device=dev0").set(n);  // last values
//   obs::histogram("runtime.latency_us", "rt=0").record(us);  // distributions
//
// Instruments are created on first lookup and live for the process lifetime
// (references returned by counter()/gauge()/histogram() never dangle —
// reset_all() zeroes values but never removes instruments). Lookup takes a
// registry mutex; updates on an obtained reference are lock-free atomics, so
// hot paths should cache the reference. An optional label string
// ("op=qr,n=32") distinguishes instruments sharing a name. Per-instance
// owners label their instruments with their identity (each Runtime registers
// its set under "rt=<n>"); counter_value(name) without labels then reads the
// process total across every instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace regla::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value instrument (queue depth, device state), or a non-integer
/// accumulator via add() (simulated device seconds).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket log-spaced distribution: bucket i covers values up to
/// 2^(i/2) (sqrt(2)-spaced, ~±19% quantile resolution), bucket 0 is
/// everything <= 1. Unit-agnostic — callers pick one (microseconds,
/// problems) and say so in the instrument name.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double v);
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper bound of the bucket holding quantile q (q clamped to [0, 1]);
  /// 0 when the histogram is empty.
  double percentile(double q) const;
  void reset();

  static int bucket_of(double v);
  static double bucket_upper(int i);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0};
};

/// Registry lookup: get-or-create the named instrument. The same
/// (name, labels) pair always returns the same object; a name used with one
/// type must not be reused with another (REGLA_CHECKs).
Counter& counter(std::string_view name, std::string_view labels = {});
Gauge& gauge(std::string_view name, std::string_view labels = {});
Histogram& histogram(std::string_view name, std::string_view labels = {});

/// Lookup without creating: the gauge's value, or 0 if absent.
double gauge_value(std::string_view name, std::string_view labels = {});

/// Lookup without creating: the counter's value, or 0 if absent. Lets tests
/// and benches reconcile event counts without registering instruments the
/// code under test never touched. Empty `labels` sums every counter named
/// `name`, whatever its labels: `x` + `x{a=1}` + `x{a=2}` — the process
/// total over per-instance counters.
std::uint64_t counter_value(std::string_view name,
                            std::string_view labels = {});

/// Zero every instrument's value (instruments themselves stay registered, so
/// cached references remain valid). For tests only: it also zeroes the
/// instruments live objects read back, so a running Runtime's stats() restart
/// from zero too.
void reset_all();

/// Human-readable exposition: one line per instrument, histograms with
/// count/mean/p50/p99. Sorted by key.
void dump(std::ostream& os);

/// Machine-readable exposition: `type,key,field,value` CSV rows.
void dump_csv(std::ostream& os);

}  // namespace regla::obs
