#include "runtime/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace regla::runtime {

namespace {

/// Lowest-address-first heap: popping the minimum keeps consecutive leases
/// of one size class adjacent whenever their blocks are.
using AddrHeap = std::priority_queue<std::uintptr_t, std::vector<std::uintptr_t>,
                                     std::greater<std::uintptr_t>>;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

struct Arena::State {
  Options opt;
  mutable std::mutex mu;
  Stats stats;
  /// Backing slabs, freed only when the last lease and the Arena are gone.
  std::vector<std::byte*> slabs;
  /// Free blocks per exact (rounded) size class.
  std::map<std::size_t, AddrHeap> free;

  ~State() {
    for (std::byte* s : slabs) std::free(s);
  }
};

Arena::Arena(Options opt) : state_(std::make_shared<State>()) {
  REGLA_CHECK(opt.alignment > 0 &&
              (opt.alignment & (opt.alignment - 1)) == 0);
  state_->opt = opt;
  state_->opt.min_slab_bytes =
      std::max(opt.min_slab_bytes, opt.alignment);
}

Arena::Lease Arena::lease(std::size_t bytes) {
  State& st = *state_;
  const std::size_t sz = round_up(std::max<std::size_t>(bytes, 1),
                                  st.opt.alignment);
  std::byte* p = nullptr;
  bool fresh_slab = false;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    AddrHeap& heap = st.free[sz];
    if (!heap.empty()) {
      p = reinterpret_cast<std::byte*>(heap.top());
      heap.pop();
      ++st.stats.reuses;
    } else {
      const std::size_t blocks =
          std::max<std::size_t>(1, st.opt.min_slab_bytes / sz);
      const std::size_t slab_bytes = blocks * sz;
      // aligned_alloc needs the size to be a multiple of the alignment;
      // sz already is, so slab_bytes is too.
      std::byte* slab = static_cast<std::byte*>(
          std::aligned_alloc(st.opt.alignment, slab_bytes));
      REGLA_CHECK_MSG(slab != nullptr, "arena slab allocation failed ("
                                           << slab_bytes << " bytes)");
      st.slabs.push_back(slab);
      ++st.stats.slab_allocs;
      st.stats.bytes_reserved += slab_bytes;
      fresh_slab = true;
      // Carve: hand out the lowest block, free-list the rest in address
      // order (the heap keeps them that way on release too).
      for (std::size_t b = 1; b < blocks; ++b)
        heap.push(reinterpret_cast<std::uintptr_t>(slab + b * sz));
      p = slab;
    }
    ++st.stats.leases;
    st.stats.bytes_leased += sz;
  }
  obs::counter(fresh_slab ? "runtime.payload_allocs"
                          : "runtime.payload_reuses")
      .add();

  Lease l;
  l.size_ = sz;
  // The deleter shares the State, so a lease outliving the Arena (a Report
  // holding a result view, say) still returns its block to a live free list.
  std::shared_ptr<State> state = state_;
  l.block_ = std::shared_ptr<std::byte>(p, [state, sz](std::byte* q) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->free[sz].push(reinterpret_cast<std::uintptr_t>(q));
    state->stats.bytes_leased -= sz;
  });
  return l;
}

BatchF Arena::batch_f32(int count, int rows, int cols) {
  REGLA_CHECK(count >= 0 && rows >= 0 && cols >= 0);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * rows * cols * sizeof(float);
  if (bytes == 0) return BatchF();
  Lease l = lease(bytes);
  std::memset(l.data(), 0, bytes);
  return BatchF::borrow(reinterpret_cast<float*>(l.data()), count, rows, cols,
                        l.owner());
}

BatchC Arena::batch_c64(int count, int rows, int cols) {
  REGLA_CHECK(count >= 0 && rows >= 0 && cols >= 0);
  const std::size_t bytes = static_cast<std::size_t>(count) * rows * cols *
                            sizeof(std::complex<float>);
  if (bytes == 0) return BatchC();
  Lease l = lease(bytes);
  std::memset(l.data(), 0, bytes);
  return BatchC::borrow(reinterpret_cast<std::complex<float>*>(l.data()),
                        count, rows, cols, l.owner());
}

Arena::Stats Arena::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace regla::runtime
