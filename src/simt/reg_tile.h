// RegTile: a per-thread register-allocated sub-matrix.
//
// The paper's kernels keep each thread's piece of the matrix in the register
// file ("register array indices must be known at compile time, so we unroll
// loops"). The simulator models the consequence that matters: a thread has a
// 64-register budget, and tiles that exceed it spill to L1/DRAM. Elements are
// laid out column-major; the first `fit_elems` live in registers (free
// accesses), the rest count as spill traffic — deterministic, so Fig. 4's
// cliff at n = 8 and Fig. 9's dips at 64 and past 112 reproduce exactly.
#pragma once

#include <array>

#include "common/error.h"
#include "simt/gfloat.h"
#include "simt/stats.h"

namespace regla::simt {

/// Maximum tile extent per dimension (per-thread kernels go to 16 plus an
/// augmented column; 2D-cyclic per-block tiles reach ceil(144 / 8) = 18).
inline constexpr int kMaxTileDim = 24;

/// Maximum tile *elements*: 1D-layout kernels hold whole (augmented) rows or
/// columns, so a tile can be long and skinny (e.g. 2 x 97).
inline constexpr int kMaxTileElems = 1024;

template <typename V>  // V = gfloat or gcomplex
class RegTile {
 public:
  RegTile(int h, int w, int fit_elems)
      : h_(h), w_(w), fit_(fit_elems) {
    REGLA_CHECK_MSG(h >= 0 && w >= 0 && h * w <= kMaxTileElems,
                    "RegTile " << h << "x" << w << " exceeds kMaxTileElems");
  }

  int rows() const { return h_; }
  int cols() const { return w_; }
  int words() const { return h_ * w_ * words_per_elem(); }
  int spilled_words() const {
    return std::max(0, (h_ * w_ - fit_) * words_per_elem());
  }

  [[gnu::always_inline]] V get(int i, int j) const {
    touch(i, j);
    return a_[idx(i, j)];
  }
  [[gnu::always_inline]] void set(int i, int j, V v) {
    touch(i, j);
    a_[idx(i, j)] = v;
  }

  /// In-place update helpers avoid double-charging spill traffic for the
  /// read-modify-write idiom in trailing updates.
  [[gnu::always_inline]] void sub(int i, int j, V v) {
    touch(i, j);
    a_[idx(i, j)] = a_[idx(i, j)] - v;
  }
  [[gnu::always_inline]] void scale(int i, int j, V s) {
    touch(i, j);
    a_[idx(i, j)] = a_[idx(i, j)] * s;
  }

 private:
  static constexpr int words_per_elem() {
    return static_cast<int>(sizeof(V) / 4);
  }
  [[gnu::always_inline]] int idx(int i, int j) const {
    REGLA_CHECK_MSG(i >= 0 && i < h_ && j >= 0 && j < w_,
                    "RegTile access (" << i << "," << j << ") out of " << h_
                                       << "x" << w_);
    return i + j * h_;
  }
  [[gnu::always_inline]] void touch(int i, int j) const {
    // Column-major linear position decides residence: the first fit_ elements
    // live in registers, everything past them is spilled.
    if (i + j * h_ < fit_) return;
    auto* s = current_stats();
    if (s) {
      ++s->spill_accesses;
      s->spill_bytes += static_cast<std::uint64_t>(words_per_elem()) * 4;
    }
  }

  int h_, w_, fit_;
  std::array<V, kMaxTileElems> a_{};
};

}  // namespace regla::simt
