#include "simt/lane.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace regla::simt {

namespace {

std::atomic<std::size_t> g_arena_bytes{0};

/// Bump allocator behind one running block's lane frames. Allocation walks
/// a cursor through a list of chunks; freeing only counts live frames, and
/// the cursor rewinds to the first chunk when the count reaches zero. The
/// instrumented and replayed block paths share it, so an arena holds one
/// block's worth of frames, not one per path.
class LaneArena {
 public:
  void* allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    while (chunk_ < chunks_.size() && used_ + bytes > chunks_[chunk_].size) {
      ++chunk_;
      used_ = 0;
    }
    if (chunk_ == chunks_.size()) {
      const std::size_t size = std::max(bytes, kChunkBytes);
      chunks_.push_back(
          Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size});
      g_arena_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    void* p = chunks_[chunk_].mem.get() + used_;
    used_ += bytes;
    ++live_;
    return p;
  }

  /// Returns true when the last live frame is gone (the arena rewound).
  bool release() noexcept {
    if (--live_ != 0) return false;
    chunk_ = used_ = 0;
    return true;
  }

  LaneArena* next_idle = nullptr;  ///< ArenaPool's free list link

 private:
  static constexpr std::size_t kAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  // A 64-lane block of 32x32 QR frames (~4.5 KB each, most of it the
  // register tile) fits in two chunks; pages a block never reaches are
  // never touched.
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size;
  };
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  // chunk the cursor is in
  std::size_t used_ = 0;   // bytes handed out from chunks_[chunk_]
  std::size_t live_ = 0;
};

/// Arenas no running block holds, most recently returned first (its pages
/// are the warmest). Every host thread that runs blocks — a launch's caller
/// or any helper of the shared host pool — takes an arena when its block
/// creates its first lane and returns it when the block's last lane is
/// freed. Leaked like the shared host pool, so a block that runs during
/// static destruction still finds it.
class ArenaPool {
 public:
  LaneArena* take() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (LaneArena* a = idle_) {
        idle_ = a->next_idle;
        return a;
      }
    }
    return new LaneArena;  // owned by the pool from here on; never freed
  }

  void give(LaneArena* a) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    a->next_idle = idle_;
    idle_ = a;
  }

 private:
  std::mutex mu_;
  LaneArena* idle_ = nullptr;
};

ArenaPool& arena_pool() {
  static ArenaPool* pool = new ArenaPool;
  return *pool;
}

thread_local LaneArena* t_arena = nullptr;  // held while a block runs here

}  // namespace

namespace detail {
void* lane_frame_alloc(std::size_t bytes) {
  if (t_arena == nullptr) t_arena = arena_pool().take();
  return t_arena->allocate(bytes);
}
void lane_frame_free() noexcept {
  if (t_arena->release()) {
    arena_pool().give(t_arena);
    t_arena = nullptr;
  }
}
}  // namespace detail

std::size_t lane_arena_bytes() {
  return g_arena_bytes.load(std::memory_order_relaxed);
}

}  // namespace regla::simt
