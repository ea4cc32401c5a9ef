#include "simt/lane.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace regla::simt {

namespace {

/// Bump allocator behind one host thread's lane frames. Allocation walks a
/// cursor through a list of chunks; freeing only counts live frames, and
/// the cursor rewinds to the first chunk when the count reaches zero. The
/// instrumented and replayed block paths share it, so the thread holds one
/// block's worth of frames, not one per path.
class LaneArena {
 public:
  void* allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    while (chunk_ < chunks_.size() && used_ + bytes > chunks_[chunk_].size) {
      ++chunk_;
      used_ = 0;
    }
    if (chunk_ == chunks_.size())
      chunks_.push_back(Chunk{std::make_unique_for_overwrite<std::byte[]>(
                                  std::max(bytes, kChunkBytes)),
                              std::max(bytes, kChunkBytes)});
    void* p = chunks_[chunk_].mem.get() + used_;
    used_ += bytes;
    ++live_;
    return p;
  }

  void release() noexcept {
    if (--live_ == 0) chunk_ = used_ = 0;
  }

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

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

thread_local LaneArena t_arena;

}  // namespace

namespace detail {
void* lane_frame_alloc(std::size_t bytes) { return t_arena.allocate(bytes); }
void lane_frame_free() noexcept { t_arena.release(); }
}  // namespace detail

std::size_t lane_arena_bytes() { return t_arena.bytes(); }

}  // namespace regla::simt
