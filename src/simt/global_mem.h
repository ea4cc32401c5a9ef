// Simulated global memory (DRAM) accessors with coalescing tracking and a
// structured latency model for dependent (pointer-chasing) loads.
#pragma once

#include <complex>
#include <cstdint>
#include <unordered_set>

#include "common/error.h"
#include "simt/device_config.h"
#include "simt/shared_mem.h"  // detail::DeviceValue / to_storage_value
#include "simt/stats.h"

namespace regla::simt {

/// Latency of one *dependent* global access, as a function of the access
/// pattern so far. Reproduces the Fig. 1 staircase:
///  - small strides reuse 128 B lines and 4 KB DRAM rows (discounts),
///  - page-sized strides over large footprints thrash the TLB (penalty),
///  - tiny working sets become L2-resident (flat, low latency).
class GlobalLatencyModel {
 public:
  explicit GlobalLatencyModel(const DeviceConfig& cfg) : cfg_(&cfg) {}

  double access(std::uint64_t byte_addr) {
    double stride = last_valid_ ? std::abs(static_cast<double>(byte_addr) -
                                           static_cast<double>(last_addr_))
                                : static_cast<double>(cfg_->dram_row_bytes);
    last_addr_ = byte_addr;
    last_valid_ = true;

    // L2 hit: the line was touched before and the working set still fits.
    // (No LRU modeling — once the footprint exceeds L2, everything misses.)
    const std::uint64_t line = byte_addr / cfg_->l2_line_bytes;
    bool revisit = false;
    if (distinct_lines_.size() < kDistinctCap) {
      revisit = !distinct_lines_.insert(line).second;
    }
    const double footprint =
        static_cast<double>(distinct_lines_.size()) * cfg_->l2_line_bytes;
    if (revisit && footprint <= cfg_->l2_bytes) {
      return cfg_->l2_hit_latency_cycles;
    }

    const double base = cfg_->global_latency_cycles - cfg_->tlb_miss_penalty_cycles;
    double lat = base;
    if (stride < cfg_->l2_line_bytes)
      lat -= cfg_->line_hit_discount_cycles * (1.0 - stride / cfg_->l2_line_bytes);
    if (stride < cfg_->dram_row_bytes)
      lat -= cfg_->row_hit_discount_cycles * (1.0 - stride / cfg_->dram_row_bytes);
    const bool tlb_thrash =
        stride >= cfg_->tlb_page_bytes &&
        distinct_lines_.size() >= static_cast<std::size_t>(cfg_->tlb_entries);
    if (tlb_thrash) lat += cfg_->tlb_miss_penalty_cycles;
    return lat;
  }

 private:
  static constexpr std::size_t kDistinctCap = 1 << 16;
  const DeviceConfig* cfg_;
  std::uint64_t last_addr_ = 0;
  bool last_valid_ = false;
  std::unordered_set<std::uint64_t> distinct_lines_;
};

/// Typed accessor over host memory standing in for device global memory.
/// Loads/stores log byte addresses so the phase fold can count distinct
/// 128-byte segments per warp (the GF100 coalescing rule).
template <typename T>
class Global {
 public:
  using value_type = typename detail::DeviceValue<std::remove_const_t<T>>::type;

  Global() = default;
  Global(T* ptr, const DeviceConfig& cfg, GlobalLatencyModel* chase)
      : ptr_(ptr), cfg_(&cfg), chase_(chase) {}

  [[gnu::always_inline]] value_type ld(std::ptrdiff_t i) const {
    log(i, true);
    return value_type(ptr_[i]);
  }

  [[gnu::always_inline]] void st(std::ptrdiff_t i, value_type v) const
    requires(!std::is_const_v<T>)
  {
    log(i, false);
    ptr_[i] = detail::to_storage_value<std::remove_const_t<T>>(v);
  }

  /// Dependent load: full structured DRAM latency lands on the thread's
  /// dependency chain (pointer chasing, Fig. 1 / Table III).
  value_type ld_dep(std::ptrdiff_t i) const {
    log(i, true);
    auto* s = current_stats();
    if (s && chase_ != nullptr)
      s->dep_latency_cycles += chase_->access(addr(i));
    return value_type(ptr_[i]);
  }

  /// Address-only dependent access: charges exactly what ld_dep would for
  /// address ptr + i without dereferencing. Lets the stride-sweep
  /// microbenchmark walk a 64M-word address pattern (Fig. 1) without
  /// materializing a multi-hundred-MB chase array.
  void touch_dep(std::ptrdiff_t i) const {
    log(i, true);
    auto* s = current_stats();
    if (s && chase_ != nullptr)
      s->dep_latency_cycles += chase_->access(addr(i));
  }

  T* raw() const { return ptr_; }

 private:
  std::uint64_t addr(std::ptrdiff_t i) const {
    return reinterpret_cast<std::uint64_t>(ptr_ + i);
  }
  [[gnu::always_inline]] void log(std::ptrdiff_t i, bool is_load) const {
    if (auto* s = current_stats()) record(s, i, is_load);
  }

  /// The instrumented half of log(), out of line like SharedArray's.
  [[gnu::noinline]] void record(ThreadStats* s, std::ptrdiff_t i,
                                bool is_load) const {
    s->record_global(addr(i), sizeof(T), is_load,
                     static_cast<std::uint32_t>(cfg_->dram_segment_bytes));
  }

  T* ptr_ = nullptr;
  const DeviceConfig* cfg_ = nullptr;
  GlobalLatencyModel* chase_ = nullptr;
};

}  // namespace regla::simt
