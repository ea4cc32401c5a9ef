// The simulator's cycle-cost model ("measured" performance in every figure).
//
// This is deliberately a *mechanism-level* model — issue throughput per port,
// bank-conflict-adjusted shared transactions, coalesced DRAM segments,
// occupancy contention, latency exposure — where the paper's analytical model
// (src/model) is an *operation-count* model. The two are implemented
// independently and compared in the Fig. 4/8/9 benches.
#pragma once

#include <vector>

#include "simt/device_config.h"
#include "simt/stats.h"

namespace regla::simt {

/// Reusable state for fold_phase's per-warp address analysis. A block
/// executor folds hundreds of phases through one scratch, so the fold stays
/// out of the allocator; no result depends on what an earlier fold left.
struct FoldScratch {
  /// Shared word index -> the warp fold (`epoch`) that last counted it, so
  /// a warp counts each distinct word once without sorting its log. Grows
  /// to the largest logged word (at most the block's shared space, one
  /// entry per 4-byte word) and is zeroed when `epoch` wraps.
  std::vector<std::uint32_t> sh_stamp;
  /// Stamp of the current warp fold; advanced before every shared count.
  std::uint32_t epoch = 0;
  /// One warp's global segment log, with back-to-back repeats skipped.
  std::vector<std::uint64_t> gl_segs;
};

/// Fold one phase's per-thread counters into a PhaseRecord (warp-level SIMT
/// fold: issue counts are max-over-lanes; shared transactions account for
/// bank conflicts; global transactions are distinct 128-byte segments).
/// Shared words are counted through the scratch's stamp table, so a fold
/// costs time linear in the logged shared accesses; global segments are
/// sorted after each lane's back-to-back repeats are dropped.
/// `scratch` may be null; passing one reuses its buffers (identical result).
PhaseRecord fold_phase(const DeviceConfig& cfg,
                       const std::vector<ThreadStats>& threads, OpTag tag,
                       int panel, bool ended_with_sync,
                       FoldScratch* scratch = nullptr);

/// Cycle cost of one phase for a block, with `k_blocks` blocks of the same
/// kernel resident per SM (they contend for every issue port and for the
/// SM's share of DRAM bandwidth).
double phase_cycles(const DeviceConfig& cfg, const PhaseRecord& p, int k_blocks,
                    int threads_per_block);

/// Sum of phase_cycles over a block's phases.
double block_cycles(const DeviceConfig& cfg, const std::vector<PhaseRecord>& phases,
                    int k_blocks, int threads_per_block);

/// Whole-chip time: wave-packed block times with a hard DRAM-bandwidth floor.
/// `block_times` has one entry per launched block.
double chip_cycles(const DeviceConfig& cfg, const std::vector<double>& block_times,
                   int k_blocks, std::uint64_t total_dram_bytes);

}  // namespace regla::simt
