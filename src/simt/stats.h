// Per-thread event counters for the SIMT timing model.
//
// Device code does not carry a context through every arithmetic expression;
// instead the block executor points `current_stats()` at the running lane's
// ThreadStats, and the instrumented device types (gfloat, Shared<T>,
// Global<T>, RegTile) record events through it. At each __syncthreads() the
// executor folds all threads' counters into a PhaseRecord and resets them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace regla::simt {

/// Tags attributing phases to logical operations, for the Table V / Fig. 8
/// breakdowns. `other` is the default.
enum class OpTag : std::uint8_t {
  other = 0,
  load,        // DRAM -> register file
  store,       // register file -> DRAM
  form_hh,     // forming the Householder vector / column operation
  matvec,      // matrix-vector multiply (+ its reduction)
  rank1,       // rank-1 trailing update
  kNumTags
};

inline const char* to_string(OpTag t) {
  switch (t) {
    case OpTag::load: return "load";
    case OpTag::store: return "store";
    case OpTag::form_hh: return "form_hh";
    case OpTag::matvec: return "matvec";
    case OpTag::rank1: return "rank1";
    default: return "other";
  }
}

/// Counters accumulated by one device thread between two sync points.
struct ThreadStats {
  // Arithmetic.
  std::uint64_t flops = 0;       ///< nominal FLOPs (FMA = 2)
  std::uint64_t fp_instrs = 0;   ///< issued FP instructions (FMA = 1)
  std::uint64_t divs = 0;
  std::uint64_t sqrts = 0;

  // Shared memory: word accesses, with addresses for bank analysis.
  std::uint64_t sh_accesses = 0;
  std::vector<std::uint32_t> sh_addrs;  ///< word indices (capped)

  // Global memory: 4-byte accesses with byte addresses for coalescing.
  std::uint64_t gl_loads = 0;
  std::uint64_t gl_stores = 0;
  std::uint64_t gl_bytes = 0;
  std::vector<std::uint64_t> gl_segments;  ///< addr / segment_bytes (capped)

  // Register spills (accesses beyond the 64-register budget).
  std::uint64_t spill_accesses = 0;
  std::uint64_t spill_bytes = 0;

  // Latency accumulated by *dependent* accesses (pointer chasing):
  // each ld_dep charges its full model latency to this thread.
  double dep_latency_cycles = 0;

  /// Address-log bound per thread per phase: bank-conflict and coalescing
  /// analysis sample at most this many shared words / global segments.
  /// Past the cap, accesses are still *counted* (sh_accesses, gl_loads/
  /// stores, gl_bytes stay exact) but their addresses are not recorded; the
  /// fold extrapolates transactions from the sampled prefix (timing.cc) and
  /// `addrs_truncated` flags that the estimate is sampled, surfaced per
  /// launch as LaunchCounters::addr_truncations and the process-wide
  /// "engine.addr_truncations" obs counter — no silent skew.
  static constexpr std::size_t kAddrCap = 1 << 15;

  /// True once either address log hit kAddrCap this phase.
  bool addrs_truncated = false;

  void record_shared(std::uint32_t word_index) {
    ++sh_accesses;
    if (sh_addrs.size() < kAddrCap)
      sh_addrs.push_back(word_index);
    else
      addrs_truncated = true;
  }
  void record_global(std::uint64_t byte_addr, std::uint32_t bytes, bool is_load,
                     std::uint32_t segment_bytes) {
    if (is_load) ++gl_loads; else ++gl_stores;
    gl_bytes += bytes;
    if (gl_segments.size() < kAddrCap)
      gl_segments.push_back(byte_addr / segment_bytes);
    else
      addrs_truncated = true;
  }

  void reset() {
    flops = fp_instrs = divs = sqrts = 0;
    sh_accesses = 0;
    sh_addrs.clear();
    gl_loads = gl_stores = gl_bytes = 0;
    gl_segments.clear();
    spill_accesses = spill_bytes = 0;
    dep_latency_cycles = 0;
    addrs_truncated = false;
  }

  bool empty() const {
    return flops == 0 && fp_instrs == 0 && divs == 0 && sqrts == 0 &&
           sh_accesses == 0 && gl_loads == 0 && gl_stores == 0 &&
           spill_accesses == 0 && dep_latency_cycles == 0;
  }
};

namespace detail {
/// Storage behind current_stats(). Header-inline so the accessor compiles to
/// a TLS load in the device types' hot paths: gfloat records a counter bump
/// per arithmetic op, and an out-of-line call per op dominated uninstrumented
/// kernel time. Not part of the API — go through current_stats().
inline thread_local ThreadStats* t_current_stats = nullptr;
}  // namespace detail

/// The executor's per-host-thread pointer at the running lane's counters.
/// Null while no instrumented block is executing: every instrumented device
/// type (gfloat, SharedArray, Global, RegTile) null-checks it, so the same
/// kernels also run uninstrumented — the engine's replay fast path.
inline ThreadStats*& current_stats() { return detail::t_current_stats; }

/// Aggregated per-phase result for one block (after the warp-level fold).
struct PhaseRecord {
  OpTag tag = OpTag::other;
  int panel = -1;              ///< panel index for the Fig. 8 breakdown
  bool ended_with_sync = false;

  // Issue work summed over warps (see timing.cc for the cost model).
  double fp_issue = 0;         ///< cycles of FP issue (max-lane per warp)
  double sfu_cycles = 0;       ///< divide/sqrt issue cycles
  double sfu_latency = 0;      ///< one-off pipeline exposure for div/sqrt
  double sh_transactions = 0;  ///< conflict-adjusted warp transactions
  double gl_transactions = 0;  ///< distinct DRAM segments
  double spill_accesses = 0;
  double dep_latency = 0;      ///< max over threads (chase chains)

  std::uint64_t flops = 0;
  std::uint64_t divs = 0;
  std::uint64_t sqrts = 0;
  std::uint64_t gl_bytes = 0;
  std::uint64_t spill_bytes = 0;
  bool any_shared = false;
  bool any_global = false;
  bool any_spill = false;
  /// Any thread's address log hit ThreadStats::kAddrCap this phase — the
  /// transaction estimates above are extrapolated from a sampled prefix.
  bool addrs_truncated = false;

  /// Exact (bitwise for the doubles) equality — the replay cache's
  /// uniformity and verify checks compare folded phases field by field; any
  /// divergence at all disqualifies a block from being replayed.
  friend bool operator==(const PhaseRecord& a, const PhaseRecord& b) {
    return a.tag == b.tag && a.panel == b.panel &&
           a.ended_with_sync == b.ended_with_sync && a.fp_issue == b.fp_issue &&
           a.sfu_cycles == b.sfu_cycles && a.sfu_latency == b.sfu_latency &&
           a.sh_transactions == b.sh_transactions &&
           a.gl_transactions == b.gl_transactions &&
           a.spill_accesses == b.spill_accesses &&
           a.dep_latency == b.dep_latency && a.flops == b.flops &&
           a.divs == b.divs && a.sqrts == b.sqrts && a.gl_bytes == b.gl_bytes &&
           a.spill_bytes == b.spill_bytes && a.any_shared == b.any_shared &&
           a.any_global == b.any_global && a.any_spill == b.any_spill &&
           a.addrs_truncated == b.addrs_truncated;
  }
};

/// Whole-launch totals (all blocks).
struct LaunchCounters {
  std::uint64_t flops = 0;
  std::uint64_t divs = 0;
  std::uint64_t sqrts = 0;
  std::uint64_t sh_accesses = 0;
  std::uint64_t gl_bytes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t syncs = 0;
  /// Phases whose address logs overflowed ThreadStats::kAddrCap (their
  /// bank-conflict / coalescing estimates are sampled, not exhaustive).
  std::uint64_t addr_truncations = 0;

  friend bool operator==(const LaunchCounters&, const LaunchCounters&) = default;
};

}  // namespace regla::simt
