// GroupCtx: BlockCtx's counterpart for a replay group — one device thread of
// kGroupWidth blocks at once, on 8-wide values (simt/wide.h).
//
// Every block of a replayed, data-independent launch runs the same schedule
// on different values (DESIGN.md §13), so a kernel written against both
// contexts can run kGroupWidth blocks in one lane: member g of a group is
// element g of every value. The views below keep every bounds and
// allocation-order check BlockCtx's types make; they count nothing, since
// the engine runs groups for uninstrumented blocks only.
//
// Per-group state holds the wide storage: shared arrays interleave their
// members (element i of member g at i * kGroupWidth + g, so one load serves
// the group), and each thread's register tile is h x w wide values there,
// not in the lane frame.
#pragma once

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "simt/lane.h"
#include "simt/reg_tile.h"
#include "simt/shared_mem.h"
#include "simt/wide.h"

namespace regla::simt {

/// State shared by all threads of one group (owned by the engine).
struct GroupState {
  SharedSpace shared;
  std::vector<std::unique_ptr<gfloat8[]>> tiles;
};

/// SharedArray over a group: element i holds every member's value.
template <typename T>
class GroupShared {
  static_assert(std::is_same_v<T, float>, "replay groups run real kernels");

 public:
  using value_type = gfloat8;

  GroupShared(SharedSpace::Arena* arena, int elems)
      : arena_(arena), elems_(elems) {}

  [[gnu::always_inline]] gfloat8 ld(int i) const {
    gfloat8 v;
    std::memcpy(&v, slot(i), sizeof(v));
    return v;
  }
  [[gnu::always_inline]] void st(int i, gfloat8 v) {
    std::memcpy(slot(i), &v, sizeof(v));
  }

 private:
  [[gnu::always_inline]] std::byte* slot(int i) const {
    REGLA_CHECK_MSG(i >= 0 && i < elems_, "shared access out of bounds: " << i);
    return arena_->bytes.data() + static_cast<std::size_t>(i) * sizeof(gfloat8);
  }

  SharedSpace::Arena* arena_;
  int elems_;
};

/// Global over a group: member g addresses its own block's problem.
template <typename T>
class GroupGlobal {
  static_assert(std::is_same_v<std::remove_const_t<T>, float>,
                "replay groups run real kernels");

 public:
  using value_type = gfloat8;

  /// Member g's view starts at ptr + blocks[g] * per_block.
  GroupGlobal(T* ptr, const int* blocks, std::ptrdiff_t per_block)
      : ptr_(ptr), blocks_(blocks), per_block_(per_block) {}

  [[gnu::always_inline]] gfloat8 ld(std::ptrdiff_t i) const {
    gfloat8 v;
    for (int g = 0; g < kGroupWidth; ++g) v[g] = ptr_[at(g, i)];
    return v;
  }
  [[gnu::always_inline]] void st(std::ptrdiff_t i, gfloat8 v) const
    requires(!std::is_const_v<T>)
  {
    for (int g = 0; g < kGroupWidth; ++g) ptr_[at(g, i)] = v[g];
  }

 private:
  std::ptrdiff_t at(int g, std::ptrdiff_t i) const {
    return blocks_[g] * per_block_ + i;
  }

  T* ptr_;
  const int* blocks_;
  std::ptrdiff_t per_block_;
};

/// RegTile over a group: a view of h x w wide values in GroupState.
class GroupTile {
 public:
  GroupTile(gfloat8* a, int h, int w) : a_(a), h_(h), w_(w) {}

  [[gnu::always_inline]] gfloat8 get(int i, int j) const { return a_[idx(i, j)]; }
  [[gnu::always_inline]] void set(int i, int j, gfloat8 v) { a_[idx(i, j)] = v; }
  [[gnu::always_inline]] void sub(int i, int j, gfloat8 v) {
    gfloat8& e = a_[idx(i, j)];
    e = e - v;
  }

 private:
  [[gnu::always_inline]] int idx(int i, int j) const {
    REGLA_CHECK_MSG(i >= 0 && i < h_ && j >= 0 && j < w_,
                    "RegTile access (" << i << "," << j << ") out of " << h_
                                       << "x" << w_);
    return i + j * h_;
  }

  gfloat8* a_;
  int h_, w_;
};

class GroupCtx {
 public:
  /// `blocks` lists the group's kGroupWidth member blocks; it must outlive
  /// the group's lanes.
  GroupCtx(GroupState& state, const int* blocks, int nblocks, int tid,
           int nthreads)
      : state_(&state), blocks_(blocks), nblocks_(nblocks), tid_(tid),
        nthreads_(nthreads) {}

  // --- identity (uniform across the group's members) ----------------------
  int tid() const { return tid_; }
  int nthreads() const { return nthreads_; }
  int nblocks() const { return nblocks_; }

  [[nodiscard]] Barrier sync() const noexcept { return {}; }

  // --- memory --------------------------------------------------------------
  /// The group's shared array: same allocation-order and size checks as
  /// BlockCtx::shared, kGroupWidth values per element.
  template <typename T>
  GroupShared<T> shared(int elems) {
    auto& arena = state_->shared.get_or_create(
        alloc_cursor_++, static_cast<std::size_t>(elems) * sizeof(gfloat8));
    return GroupShared<T>(&arena, elems);
  }

  /// Each member's problem in a problem-major batch: BlockCtx::global(ptr,
  /// per_block) for every member block.
  template <typename T>
  GroupGlobal<T> global(T* ptr, std::ptrdiff_t per_block) const {
    return GroupGlobal<T>(ptr, blocks_, per_block);
  }

  /// This thread's register tile, h x w wide values in the group's state.
  template <typename V>
  GroupTile reg_tile(int h, int w) {
    static_assert(std::is_same_v<V, gfloat8>, "group tiles hold gfloat8");
    REGLA_CHECK_MSG(h >= 0 && w >= 0 && h * w <= kMaxTileElems,
                    "RegTile " << h << "x" << w << " exceeds kMaxTileElems");
    state_->tiles.push_back(
        std::make_unique<gfloat8[]>(static_cast<std::size_t>(h) * w));
    return GroupTile(state_->tiles.back().get(), h, w);
  }

  // --- instrumentation tags: nothing to attribute in a group --------------
  void tag(OpTag) {}
  void set_panel(int) {}

 private:
  GroupState* state_;
  const int* blocks_;
  int nblocks_;
  int tid_;
  int nthreads_;
  int alloc_cursor_ = 0;
};

}  // namespace regla::simt
