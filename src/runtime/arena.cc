#include "runtime/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace regla::runtime {

namespace {

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
  /// Free blocks per exact (rounded) size class, each list a LIFO stack.
  std::map<std::size_t, std::vector<std::byte*>> free;

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
  // Looked up once per process: obs::counter builds a key and takes the
  // registry mutex on every call, and every batch leases through here.
  static obs::Counter& allocs = obs::counter("runtime.payload_allocs");
  static obs::Counter& reuses = obs::counter("runtime.payload_reuses");
  State& st = *state_;
  const std::size_t sz = round_up(std::max<std::size_t>(bytes, 1),
                                  st.opt.alignment);
  std::byte* p = nullptr;
  bool fresh_slab = false;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    std::vector<std::byte*>& list = st.free[sz];
    fresh_slab = list.empty();
    if (fresh_slab) {
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
      for (std::size_t b = 0; b < blocks; ++b) list.push_back(slab + b * sz);
    } else {
      ++st.stats.reuses;
    }
    p = list.back();
    list.pop_back();
    ++st.stats.leases;
    st.stats.bytes_leased += sz;
  }
  (fresh_slab ? allocs : reuses).add();

  Lease l;
  l.size_ = sz;
  // The deleter shares the State, so a lease outliving the Arena (a Report
  // holding a leased result batch, say) still returns its block to a live
  // free list.
  std::shared_ptr<State> state = state_;
  l.block_ = std::shared_ptr<std::byte>(p, [state, sz](std::byte* q) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->free[sz].push_back(q);
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
