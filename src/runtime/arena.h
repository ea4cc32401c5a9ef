// regla::runtime::Arena — the slab buffer manager behind staged payloads.
//
// The serving path used to heap-allocate every coalesced batch (and every
// retry snapshot) per flush; for the small problems this project serves,
// those allocations and copies dominate the host-side cost the paper says
// small problems cannot afford. The arena replaces them with leased,
// reference-counted blocks carved from long-lived slabs:
//
//   - lease(bytes) hands out a block from an exact-size free list, growing a
//     slab only when the list is empty. Steady state never allocates: the
//     obs counter "runtime.payload_allocs" counts slab mallocs and is the
//     number the CI alloc-budget gate holds at ~0 per request.
//   - Free lists are LIFO stacks: a lease takes the block of its size class
//     released most recently, the one likeliest to still be in cache.
//   - A Lease is a refcounted handle (copyable); the block returns to its
//     free list when the last handle drops. The backing State is shared, so
//     leases — and the Reports that carry leased result batches — safely
//     outlive the Arena and the Runtime that created them.
//   - Every block is aligned to Options::alignment (the simulated DRAM
//     segment, 128 bytes), so arena payloads occupy whole coalescing
//     segments and replay-salt alignment classes are stable across reuse.
//
// Thread-safe: lease and release may race from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/matrix.h"

namespace regla::runtime {

class Arena {
 public:
  struct Options {
    /// Block alignment and size granularity. Matches the simulated DRAM
    /// segment so a leased payload starts on a coalescing boundary.
    std::size_t alignment = 128;
    /// Minimum bytes per backing malloc: small size classes are carved into
    /// many blocks per slab so warm-up costs one allocation, not one per
    /// lease.
    std::size_t min_slab_bytes = std::size_t{1} << 18;
  };

  struct Stats {
    std::uint64_t slab_allocs = 0;    ///< backing mallocs (the budget number)
    std::uint64_t leases = 0;         ///< lease() calls served
    std::uint64_t reuses = 0;         ///< leases served from a free list
    std::uint64_t bytes_reserved = 0; ///< total slab bytes held
    std::uint64_t bytes_leased = 0;   ///< bytes currently out on lease
  };

  /// Refcounted handle to one leased block. Copies share the block; the
  /// block returns to its free list when the last handle (including any
  /// owner() handles embedded in borrowed batches) is destroyed.
  class Lease {
   public:
    Lease() = default;
    std::byte* data() const { return block_.get(); }
    std::size_t size() const { return size_; }
    explicit operator bool() const { return block_ != nullptr; }
    /// Type-erased refcount share, for BatchedMatrix::borrow(..., owner).
    std::shared_ptr<void> owner() const { return block_; }
    void reset() {
      block_.reset();
      size_ = 0;
    }

   private:
    friend class Arena;
    std::shared_ptr<std::byte> block_;
    std::size_t size_ = 0;
  };

  Arena() : Arena(Options()) {}
  explicit Arena(Options opt);

  /// Lease a block of at least `bytes` (rounded up to the alignment
  /// granularity; the free list is keyed on the rounded size, so equal-size
  /// leases recycle each other's blocks). Never returns null for bytes > 0.
  Lease lease(std::size_t bytes);

  /// A zero-filled batch borrowing arena memory; the lease handle rides
  /// inside the batch as its owner, so the block lives exactly as long as
  /// the batch (and whatever the batch is moved into, e.g. a Report).
  BatchF batch_f32(int count, int rows, int cols);
  BatchC batch_c64(int count, int rows, int cols);

  Stats stats() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace regla::runtime
