// BlockCtx: the device-side view a kernel thread gets — CUDA's threadIdx /
// blockIdx / __syncthreads() / __shared__ equivalents, instrumented.
//
// A kernel is a coroutine `Lane(BlockCtx&)` (simt/lane.h); the engine runs
// it once per device thread. __syncthreads() is `co_await ctx.sync()`, and a
// kernel with no barrier still ends in `co_return;` so that it is a
// coroutine. Shared allocations must be performed by every thread in the
// same order, mirroring lexical __shared__ declarations.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "simt/device_config.h"
#include "simt/global_mem.h"
#include "simt/lane.h"
#include "simt/reg_tile.h"
#include "simt/shared_mem.h"

namespace regla::simt {

/// State shared by all threads of one simulated block (owned by the engine).
struct BlockState {
  SharedSpace shared;
  OpTag current_tag = OpTag::other;
  int current_panel = -1;
  std::unique_ptr<GlobalLatencyModel> chase;  // lazily created
};

class BlockCtx {
 public:
  BlockCtx(const DeviceConfig& cfg, BlockState& state, int block, int nblocks,
           int tid, int nthreads)
      : cfg_(&cfg), state_(&state), block_(block), nblocks_(nblocks),
        tid_(tid), nthreads_(nthreads) {}

  // --- identity ----------------------------------------------------------
  int tid() const { return tid_; }
  int nthreads() const { return nthreads_; }
  int block() const { return block_; }
  int nblocks() const { return nblocks_; }
  const DeviceConfig& config() const { return *cfg_; }

  // --- barrier -----------------------------------------------------------
  /// __syncthreads(), as `co_await ctx.sync()`: suspends the lane back to
  /// the block's stepping loop, which folds the phase once every live lane
  /// has arrived.
  [[nodiscard]] Barrier sync() const noexcept { return {}; }

  // --- memory ------------------------------------------------------------
  /// Allocate (or attach to) a block-level shared array of `elems` elements.
  template <typename T>
  SharedArray<T> shared(int elems) {
    auto& arena = state_->shared.get_or_create(alloc_cursor_++,
                                               static_cast<std::size_t>(elems) * sizeof(T));
    return SharedArray<T>(&arena, elems, cfg_->shared_latency_cycles);
  }

  /// Wrap a host pointer as device global memory.
  template <typename T>
  Global<T> global(T* ptr) {
    if (!state_->chase) state_->chase = std::make_unique<GlobalLatencyModel>(*cfg_);
    return Global<T>(ptr, *cfg_, state_->chase.get());
  }

  /// This block's problem in a problem-major batch of `per_block` elements
  /// per problem: global(ptr + block() * per_block). Null stays null.
  template <typename T>
  Global<T> global(T* ptr, std::ptrdiff_t per_block) {
    return global(ptr != nullptr ? ptr + block_ * per_block : ptr);
  }

  /// Per-thread register tile; spill accounting uses the machine's register
  /// budget minus the bookkeeping registers every kernel needs.
  template <typename V>
  RegTile<V> reg_tile(int h, int w) const {
    const int words_per_elem = static_cast<int>(sizeof(V) / 4);
    const int budget_words =
        cfg_->max_regs_per_thread - cfg_->reg_overhead_per_thread;
    return RegTile<V>(h, w, std::max(0, budget_words) / words_per_elem);
  }

  // --- instrumentation tags (Table V / Fig. 8 breakdowns) ------------------
  void tag(OpTag t) { state_->current_tag = t; }
  void set_panel(int p) { state_->current_panel = p; }

 private:
  const DeviceConfig* cfg_;
  BlockState* state_;
  int block_;
  int nblocks_;
  int tid_;
  int nthreads_;
  int alloc_cursor_ = 0;
};

}  // namespace regla::simt
