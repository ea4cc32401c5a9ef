#include "simt/timing.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

namespace regla::simt {

namespace {

/// Warp-level shared-memory transactions for one phase: the LSU replays a
/// warp access once per extra distinct address in the most-contended bank;
/// same-address lanes broadcast. With whole-phase aggregation the faithful
/// equivalent is max(per-lane access count, distinct addresses in the
/// hottest bank). A word counts toward its bank the first time this warp
/// fold meets it: its stamp in `sc.sh_stamp` is not yet this fold's epoch.
double warp_shared_transactions(const DeviceConfig& cfg,
                                const std::vector<ThreadStats>& threads,
                                int lane_begin, int lane_end, FoldScratch& sc) {
  std::uint64_t max_lane = 0;
  std::uint64_t total = 0;
  std::uint64_t recorded = 0;
  for (int t = lane_begin; t < lane_end; ++t) {
    const ThreadStats& s = threads[t];
    max_lane = std::max(max_lane, s.sh_accesses);
    total += s.sh_accesses;
    recorded += s.sh_addrs.size();
  }
  if (total == 0) return 0;
  if (++sc.epoch == 0) {  // wrapped: a stale stamp could equal a new epoch
    std::fill(sc.sh_stamp.begin(), sc.sh_stamp.end(), 0u);
    sc.epoch = 1;
  }
  const std::uint32_t epoch = sc.epoch;
  std::array<std::uint32_t, 64> bank_count{};  // 64 covers any bank config
  const int banks = std::min(cfg.shared_banks, 64);
  for (int t = lane_begin; t < lane_end; ++t) {
    for (std::uint32_t a : threads[t].sh_addrs) {
      if (a >= sc.sh_stamp.size()) sc.sh_stamp.resize(std::size_t{a} + 1);
      std::uint32_t& stamp = sc.sh_stamp[a];
      if (stamp == epoch) continue;
      stamp = epoch;
      ++bank_count[a % banks];
    }
  }
  double hottest = 0;
  for (int b = 0; b < banks; ++b) hottest = std::max(hottest, double(bank_count[b]));
  double trans = std::max(static_cast<double>(max_lane), hottest);
  // If the address log was capped, scale the conflict estimate up.
  if (recorded > 0 && total > recorded)
    trans *= static_cast<double>(total) / static_cast<double>(recorded);
  return trans;
}

/// Distinct DRAM segments touched by a warp in one phase (the coalescing
/// rule: one transaction per 128-byte segment per access instruction; over a
/// phase, distinct segments is the faithful aggregate for streaming code).
/// A lane's consecutive accesses mostly stay in one segment, so each lane's
/// back-to-back repeats are dropped before the sort.
double warp_global_transactions(const std::vector<ThreadStats>& threads,
                                int lane_begin, int lane_end,
                                std::vector<std::uint64_t>& segs) {
  std::uint64_t total = 0, recorded = 0;
  segs.clear();
  for (int t = lane_begin; t < lane_end; ++t) {
    const ThreadStats& s = threads[t];
    total += s.gl_loads + s.gl_stores;
    recorded += s.gl_segments.size();
    std::unique_copy(s.gl_segments.begin(), s.gl_segments.end(),
                     std::back_inserter(segs));
  }
  if (total == 0) return 0;
  std::sort(segs.begin(), segs.end());
  segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
  double trans = static_cast<double>(segs.size());
  if (recorded > 0 && total > recorded)
    trans *= static_cast<double>(total) / static_cast<double>(recorded);
  return trans;
}

}  // namespace

PhaseRecord fold_phase(const DeviceConfig& cfg,
                       const std::vector<ThreadStats>& threads, OpTag tag,
                       int panel, bool ended_with_sync, FoldScratch* scratch) {
  FoldScratch local;
  FoldScratch& sc = scratch != nullptr ? *scratch : local;
  PhaseRecord p;
  p.tag = tag;
  p.panel = panel;
  p.ended_with_sync = ended_with_sync;

  const int n = static_cast<int>(threads.size());
  for (int w0 = 0; w0 < n; w0 += cfg.warp_size) {
    const int w1 = std::min(n, w0 + cfg.warp_size);
    std::uint64_t fp = 0, divs = 0, sqrts = 0, spills = 0;
    double dep = 0;
    for (int t = w0; t < w1; ++t) {
      const ThreadStats& s = threads[t];
      fp = std::max(fp, s.fp_instrs);
      divs = std::max(divs, s.divs);
      sqrts = std::max(sqrts, s.sqrts);
      spills = std::max(spills, s.spill_accesses);
      dep = std::max(dep, s.dep_latency_cycles);
    }
    p.fp_issue += static_cast<double>(fp);
    if (cfg.fast_math) {
      p.sfu_cycles +=
          static_cast<double>(divs + sqrts) * cfg.sfu_issue_cycles_per_op;
    } else {
      // Software divide/sqrt run on the FP pipeline itself.
      p.fp_issue += static_cast<double>(divs) * cfg.full_div_issue_instrs +
                    static_cast<double>(sqrts) * cfg.full_sqrt_issue_instrs;
    }
    if (divs > 0) p.sfu_latency = std::max(p.sfu_latency, cfg.div_cycles());
    if (sqrts > 0) p.sfu_latency = std::max(p.sfu_latency, cfg.sqrt_cycles());
    p.spill_accesses += static_cast<double>(spills);
    p.dep_latency = std::max(p.dep_latency, dep);
    p.sh_transactions += warp_shared_transactions(cfg, threads, w0, w1, sc);
    p.gl_transactions += warp_global_transactions(threads, w0, w1, sc.gl_segs);
  }

  for (const ThreadStats& s : threads) {
    p.flops += s.flops;
    p.divs += s.divs;
    p.sqrts += s.sqrts;
    p.spill_bytes += s.spill_bytes;
    p.gl_bytes += s.gl_bytes + s.spill_bytes;
    p.any_shared = p.any_shared || s.sh_accesses > 0;
    p.any_global = p.any_global || (s.gl_loads + s.gl_stores) > 0;
    p.any_spill = p.any_spill || s.spill_accesses > 0;
    // The warp folds above already extrapolate transactions from the
    // sampled address prefix when a log hit kAddrCap; the flag records that
    // this phase's estimates are sampled (see engine.addr_truncations).
    p.addrs_truncated = p.addrs_truncated || s.addrs_truncated;
  }
  return p;
}

double phase_cycles(const DeviceConfig& cfg, const PhaseRecord& p, int k_blocks,
                    int threads_per_block) {
  const double k = std::max(1, k_blocks);

  // Issue-throughput terms. FP and LD/ST dual-issue on separate ports
  // (GF100's two warp schedulers); SFU is its own pipe.
  const double c_sh = cfg.shared_cycles_per_transaction / cfg.shared_efficiency;
  const double mem_issue = p.sh_transactions * c_sh +
                           p.spill_accesses * cfg.l1_cycles_per_access +
                           p.gl_transactions * 2.0;
  const double tp = k * std::max({p.fp_issue, mem_issue, p.sfu_cycles});

  // DRAM service for this block's traffic, sharing the SM's slice of chip
  // bandwidth with the other resident blocks; the warp scheduler overlaps a
  // fraction of it with other blocks' compute (Table V discussion).
  const double per_sm_bytes_per_cycle = cfg.dram_bytes_per_cycle() / cfg.num_sm;
  const double dram = k * static_cast<double>(p.gl_bytes) /
                      per_sm_bytes_per_cycle * cfg.dram_overlap_factor;

  // Latency exposure: one dependency drain per phase plus any chase chains.
  double lat = p.dep_latency + p.sfu_latency;
  if (p.fp_issue > 0) lat += cfg.fp_pipeline_cycles;
  if (p.any_shared) lat += cfg.shared_latency_cycles;
  if (p.any_global) lat += cfg.global_latency_cycles;
  if (p.any_spill) lat += cfg.l1_latency_cycles;

  double t = std::max({tp, dram, lat});
  if (p.ended_with_sync) t += cfg.sync_cycles(threads_per_block);
  return t;
}

double block_cycles(const DeviceConfig& cfg, const std::vector<PhaseRecord>& phases,
                    int k_blocks, int threads_per_block) {
  double total = 0;
  for (const PhaseRecord& p : phases)
    total += phase_cycles(cfg, p, k_blocks, threads_per_block);
  return total;
}

double chip_cycles(const DeviceConfig& cfg, const std::vector<double>& block_times,
                   int k_blocks, std::uint64_t total_dram_bytes) {
  if (block_times.empty()) return 0;
  const double capacity = static_cast<double>(k_blocks) * cfg.num_sm;
  double sum = 0, longest = 0;
  for (double t : block_times) {
    sum += t;
    longest = std::max(longest, t);
  }
  const double packed = sum / capacity;
  const double dram_floor = static_cast<double>(total_dram_bytes) /
                                cfg.dram_bytes_per_cycle() +
                            cfg.global_latency_cycles;
  return std::max({packed, longest, dram_floor});
}

}  // namespace regla::simt
