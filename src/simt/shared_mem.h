// Simulated shared memory ("scratchpad") with bank-access tracking.
//
// A SharedArray<T> is a typed view of a block-level arena. Loads and stores
// log the word index of every access; the phase fold turns those into warp
// transactions with bank-conflict multipliers (32 banks, 4-byte words,
// same-address broadcast is free — see timing.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.h"
#include "simt/gfloat.h"
#include "simt/stats.h"

namespace regla::simt {

namespace detail {

/// Maps storage types to the device value type kernels compute with.
template <typename T> struct DeviceValue { using type = T; };
template <> struct DeviceValue<float> { using type = gfloat; };
template <> struct DeviceValue<std::complex<float>> { using type = gcomplex; };

template <typename T, typename V>
T to_storage_value(V v) {
  if constexpr (std::is_same_v<T, float>) return v.value();
  else if constexpr (std::is_same_v<T, std::complex<float>>) return v.to_std();
  else return v;
}

template <typename T>
inline constexpr std::uint32_t kWordsPerElem = (sizeof(T) + 3) / 4;

}  // namespace detail

/// Block-level shared-memory space: a list of typed arenas created on first
/// allocation. All threads of a block must perform their shared allocations
/// in the same order (the CUDA analogue: __shared__ declarations are
/// lexically identical for every thread).
class SharedSpace {
 public:
  struct Arena {
    std::vector<std::byte> bytes;
    std::uint32_t base_word = 0;
  };

  /// Thread-side allocation: `call_index` is the per-thread allocation
  /// counter; the first thread to reach an index creates the arena.
  Arena& get_or_create(int call_index, std::size_t bytes) {
    if (call_index < static_cast<int>(arenas_.size())) {
      Arena& a = arenas_[call_index];
      REGLA_CHECK_MSG(a.bytes.size() == bytes,
                      "shared allocation size mismatch across threads");
      return a;
    }
    REGLA_CHECK_MSG(call_index == static_cast<int>(arenas_.size()),
                    "shared allocations must happen in the same order in all threads");
    Arena a;
    a.bytes.resize(bytes);
    a.base_word = next_word_;
    next_word_ += static_cast<std::uint32_t>((bytes + 3) / 4);
    arenas_.push_back(std::move(a));
    return arenas_.back();
  }

  /// Total allocated bytes (for the occupancy calculator).
  std::size_t total_bytes() const {
    return static_cast<std::size_t>(next_word_) * 4;
  }

 private:
  // deque: handed-out Arena pointers must survive later allocations.
  std::deque<Arena> arenas_;
  std::uint32_t next_word_ = 0;
};

/// Typed accessor over a shared arena. Copyable; all copies alias.
template <typename T>
class SharedArray {
 public:
  using value_type = typename detail::DeviceValue<T>::type;

  SharedArray() = default;
  SharedArray(SharedSpace::Arena* arena, int elems, double latency_cycles)
      : arena_(arena), elems_(elems), latency_(latency_cycles) {}

  int size() const { return elems_; }

  [[gnu::always_inline]] value_type ld(int i) const {
    log(i);
    return value_type(raw(i));
  }

  [[gnu::always_inline]] void st(int i, value_type v) {
    log(i);
    raw(i) = to_storage(v);
  }

  /// Dependent load for pointer-chasing microbenchmarks: charges the full
  /// shared latency to the thread's dependency chain.
  value_type ld_dep(int i) const {
    log(i);
    auto* s = current_stats();
    if (s) s->dep_latency_cycles += latency_;
    return value_type(raw(i));
  }

 private:
  [[gnu::always_inline]] T& raw(int i) const {
    REGLA_CHECK_MSG(i >= 0 && i < elems_, "shared access out of bounds: " << i);
    return reinterpret_cast<T*>(arena_->bytes.data())[i];
  }

  [[gnu::always_inline]] void log(int i) const {
    if (auto* s = current_stats()) record(s, i);
  }

  /// The instrumented half of log(), out of line so every inlined ld/st
  /// stays a null test, a bounds check and a raw access on the replay fast
  /// path.
  [[gnu::noinline]] void record(ThreadStats* s, int i) const {
    const std::uint32_t w0 =
        arena_->base_word + static_cast<std::uint32_t>(i) * detail::kWordsPerElem<T>;
    for (std::uint32_t k = 0; k < detail::kWordsPerElem<T>; ++k)
      s->record_shared(w0 + k);
  }

  static T to_storage(value_type v) { return detail::to_storage_value<T>(v); }

  SharedSpace::Arena* arena_ = nullptr;
  int elems_ = 0;
  double latency_ = 0;
};

}  // namespace regla::simt
