// Tests for the warp-level fold and the cycle cost model: bank conflicts,
// coalescing, contention scaling, DRAM floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "common/error.h"
#include "simt/device_config.h"
#include "simt/occupancy.h"
#include "simt/stats.h"
#include "simt/timing.h"

namespace regla::simt {
namespace {

DeviceConfig cfg() { return DeviceConfig::quadro6000(); }

std::vector<ThreadStats> warp_of(int lanes) {
  return std::vector<ThreadStats>(lanes);
}

// --- The sort-based fold, kept as the reference ----------------------------
//
// fold_phase counts distinct shared words per bank with a stamp table and
// drops each lane's repeated global segments before sorting; these are the
// plain sort + unique folds it replaced. Every PhaseRecord field must agree
// bit for bit, since the committed fig/table CSVs, device pr/s and the
// replay memos are all computed from these records.
namespace reference {

double warp_shared_transactions(const DeviceConfig& cfg,
                                const std::vector<ThreadStats>& threads,
                                int lane_begin, int lane_end) {
  std::uint64_t max_lane = 0, total = 0, recorded = 0;
  std::vector<std::uint32_t> addrs;
  for (int t = lane_begin; t < lane_end; ++t) {
    const ThreadStats& s = threads[t];
    max_lane = std::max(max_lane, s.sh_accesses);
    total += s.sh_accesses;
    recorded += s.sh_addrs.size();
    addrs.insert(addrs.end(), s.sh_addrs.begin(), s.sh_addrs.end());
  }
  if (total == 0) return 0;
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  std::array<std::uint32_t, 64> bank_count{};
  const int banks = std::min(cfg.shared_banks, 64);
  for (std::uint32_t a : addrs) ++bank_count[a % banks];
  double hottest = 0;
  for (int b = 0; b < banks; ++b) hottest = std::max(hottest, double(bank_count[b]));
  double trans = std::max(static_cast<double>(max_lane), hottest);
  if (recorded > 0 && total > recorded)
    trans *= static_cast<double>(total) / static_cast<double>(recorded);
  return trans;
}

double warp_global_transactions(const std::vector<ThreadStats>& threads,
                                int lane_begin, int lane_end) {
  std::uint64_t total = 0, recorded = 0;
  std::vector<std::uint64_t> segs;
  for (int t = lane_begin; t < lane_end; ++t) {
    const ThreadStats& s = threads[t];
    total += s.gl_loads + s.gl_stores;
    recorded += s.gl_segments.size();
    segs.insert(segs.end(), s.gl_segments.begin(), s.gl_segments.end());
  }
  if (total == 0) return 0;
  std::sort(segs.begin(), segs.end());
  segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
  double trans = static_cast<double>(segs.size());
  if (recorded > 0 && total > recorded)
    trans *= static_cast<double>(total) / static_cast<double>(recorded);
  return trans;
}

PhaseRecord fold_phase(const DeviceConfig& cfg,
                       const std::vector<ThreadStats>& threads) {
  PhaseRecord p;
  p.tag = OpTag::matvec;
  p.panel = 3;
  p.ended_with_sync = true;
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
      p.fp_issue += static_cast<double>(divs) * cfg.full_div_issue_instrs +
                    static_cast<double>(sqrts) * cfg.full_sqrt_issue_instrs;
    }
    if (divs > 0) p.sfu_latency = std::max(p.sfu_latency, cfg.div_cycles());
    if (sqrts > 0) p.sfu_latency = std::max(p.sfu_latency, cfg.sqrt_cycles());
    p.spill_accesses += static_cast<double>(spills);
    p.dep_latency = std::max(p.dep_latency, dep);
    p.sh_transactions += warp_shared_transactions(cfg, threads, w0, w1);
    p.gl_transactions += warp_global_transactions(threads, w0, w1);
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
    p.addrs_truncated = p.addrs_truncated || s.addrs_truncated;
  }
  return p;
}

}  // namespace reference

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Every PhaseRecord field of `got` equals `want`'s, doubles bit for bit.
void expect_same_record(const PhaseRecord& got, const PhaseRecord& want) {
  const std::pair<const char*, std::array<double, 2>> doubles[] = {
      {"fp_issue", {got.fp_issue, want.fp_issue}},
      {"sfu_cycles", {got.sfu_cycles, want.sfu_cycles}},
      {"sfu_latency", {got.sfu_latency, want.sfu_latency}},
      {"sh_transactions", {got.sh_transactions, want.sh_transactions}},
      {"gl_transactions", {got.gl_transactions, want.gl_transactions}},
      {"spill_accesses", {got.spill_accesses, want.spill_accesses}},
      {"dep_latency", {got.dep_latency, want.dep_latency}},
  };
  for (const auto& [name, v] : doubles)
    EXPECT_EQ(bits(v[0]), bits(v[1])) << name << ": " << v[0] << " vs " << v[1];
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.panel, want.panel);
  EXPECT_EQ(got.ended_with_sync, want.ended_with_sync);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.divs, want.divs);
  EXPECT_EQ(got.sqrts, want.sqrts);
  EXPECT_EQ(got.gl_bytes, want.gl_bytes);
  EXPECT_EQ(got.spill_bytes, want.spill_bytes);
  EXPECT_EQ(got.any_shared, want.any_shared);
  EXPECT_EQ(got.any_global, want.any_global);
  EXPECT_EQ(got.any_spill, want.any_spill);
  EXPECT_EQ(got.addrs_truncated, want.addrs_truncated);
}

/// Fold `threads` through `sc` and check it against the reference fold.
void expect_fold_matches_reference(const DeviceConfig& c,
                                   const std::vector<ThreadStats>& threads,
                                   FoldScratch& sc) {
  expect_same_record(fold_phase(c, threads, OpTag::matvec, 3, true, &sc),
                     reference::fold_phase(c, threads));
}

void record_segment(ThreadStats& s, std::uint64_t segment, std::uint64_t word) {
  s.record_global(segment * 128 + (word % 32) * 4, 4, word % 3 != 0, 128);
}

/// A phase of `lanes` threads whose logs mix every pattern the warp folds
/// must count exactly. Shared: a lane's own column, repeats of its last
/// word, a broadcast word, single-bank conflicts (multiples of 32 are bank 0
/// at 32 and at 16 banks), other lanes' words, and any word up to 2^16.
/// Global: runs of one segment, a few segments that recur after others,
/// and segments interleaved across lanes. Some lanes stay empty.
std::vector<ThreadStats> random_phase(std::mt19937_64& rng, int lanes) {
  auto pick = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  constexpr std::uint32_t kMaxWord = 1u << 16;
  const auto base = static_cast<std::uint32_t>(pick(kMaxWord / 2));
  const auto broadcast = static_cast<std::uint32_t>(pick(kMaxWord + 1));
  const std::uint64_t seg_base = pick(1u << 20);
  std::vector<ThreadStats> threads(lanes);
  for (int t = 0; t < lanes; ++t) {
    ThreadStats& s = threads[t];
    s.fp_instrs = pick(200);
    s.flops = 2 * s.fp_instrs;
    s.divs = pick(3);
    s.sqrts = pick(2);
    s.spill_accesses = pick(4);
    s.spill_bytes = 4 * s.spill_accesses;
    s.dep_latency_cycles = static_cast<double>(pick(3)) * 50.5;
    if (pick(6) == 0) continue;  // an empty lane: no memory traffic
    const auto words = static_cast<int>(pick(48));
    for (int i = 0; i < words; ++i) {
      std::uint32_t w = 0;
      switch (pick(6)) {
        case 0: w = base + static_cast<std::uint32_t>(t + i * lanes); break;
        case 1: w = s.sh_addrs.empty() ? base : s.sh_addrs.back(); break;
        case 2: w = broadcast; break;
        case 3: w = static_cast<std::uint32_t>(32 * pick(kMaxWord / 32)); break;
        case 4: w = base + static_cast<std::uint32_t>(pick(lanes)); break;
        default: w = static_cast<std::uint32_t>(pick(kMaxWord + 1)); break;
      }
      s.record_shared(w);
    }
    const auto accesses = static_cast<int>(pick(24));
    for (int i = 0; i < accesses;) {
      const auto run = static_cast<int>(1 + pick(6));
      std::uint64_t seg = 0;
      switch (pick(3)) {
        case 0: seg = seg_base + pick(3); break;                // recurs
        case 1: seg = seg_base + 8 + (t + i) % 5; break;        // interleaved
        default: seg = seg_base + 16 + pick(1u << 12); break;   // scattered
      }
      for (int r = 0; r < run && i < accesses; ++r, ++i)
        record_segment(s, seg, pick(32));
    }
  }
  return threads;
}

TEST(FoldReference, RandomPhasesMatchSortFold) {
  std::mt19937_64 rng(20121);
  FoldScratch sc;  // one scratch for every phase: no stamp may leak
  for (const int banks : {32, 16}) {
    for (const bool fast_math : {true, false}) {
      DeviceConfig c = cfg();
      c.shared_banks = banks;
      c.fast_math = fast_math;
      for (int lanes = 1; lanes <= 64; ++lanes) {
        for (int rep = 0; rep < 4; ++rep) {
          SCOPED_TRACE("banks " + std::to_string(banks) + ", fast_math " +
                       std::to_string(fast_math) + ", lanes " +
                       std::to_string(lanes) + ", rep " + std::to_string(rep));
          expect_fold_matches_reference(c, random_phase(rng, lanes), sc);
        }
      }
    }
  }
}

TEST(FoldReference, TruncatedLogsExtrapolateLikeSortFold) {
  std::mt19937_64 rng(77);
  FoldScratch sc;
  for (const int banks : {32, 16}) {
    DeviceConfig c = cfg();
    c.shared_banks = banks;
    for (const int lanes : {1, 33, 64}) {
      SCOPED_TRACE("banks " + std::to_string(banks) + ", lanes " +
                   std::to_string(lanes));
      auto threads = random_phase(rng, lanes);
      // One lane runs past kAddrCap in both logs, so both warp folds scale
      // their counts by logged / total accesses.
      ThreadStats& hot = threads[static_cast<std::size_t>(lanes - 1)];
      for (std::size_t i = 0; i < ThreadStats::kAddrCap + 5; ++i) {
        hot.record_shared(static_cast<std::uint32_t>((i * 37) % 5000));
        record_segment(hot, 1000 + i / 40, i);
      }
      ASSERT_TRUE(hot.addrs_truncated);
      expect_fold_matches_reference(c, threads, sc);
    }
  }
}

/// `lanes` threads; lane t reads word 32 x (t mod 32) + first_bank + t / 32,
/// so each warp makes a 32-way conflict on its own bank.
std::vector<ThreadStats> conflict_phase(int lanes, std::uint32_t first_bank) {
  std::vector<ThreadStats> threads(lanes);
  for (int t = 0; t < lanes; ++t)
    threads[t].record_shared(static_cast<std::uint32_t>(32 * (t % 32) + t / 32) +
                             first_bank);
  return threads;
}

TEST(FoldReference, EpochWrapClearsStaleStamps) {
  const DeviceConfig c = cfg();
  FoldScratch sc;
  expect_fold_matches_reference(c, conflict_phase(32, 1), sc);
  ASSERT_EQ(sc.epoch, 1u);  // bank 1's words now carry stamp 1
  // The next phase's first warp takes the last epoch; its second warp wraps
  // to epoch 1 and reads bank 1's words, which must count again.
  sc.epoch = std::numeric_limits<std::uint32_t>::max() - 1;
  const auto two_warps = conflict_phase(64, 0);
  expect_fold_matches_reference(c, two_warps, sc);
  EXPECT_EQ(sc.epoch, 1u);
  EXPECT_DOUBLE_EQ(
      fold_phase(c, two_warps, OpTag::other, -1, true, &sc).sh_transactions,
      64.0);  // two warps, a 32-way conflict each
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("fold " + std::to_string(i) + " after the wrap");
    expect_fold_matches_reference(c, conflict_phase(32, 1), sc);
    expect_fold_matches_reference(c, two_warps, sc);
  }
}

TEST(FoldReference, LaterPhaseBeyondTableSize) {
  const DeviceConfig c = cfg();
  std::vector<ThreadStats> low(32), high(32);
  for (int t = 0; t < 32; ++t) {
    low[t].record_shared(static_cast<std::uint32_t>(t));
    low[t].record_shared(static_cast<std::uint32_t>(32 * t % 64));
    high[t].record_shared(static_cast<std::uint32_t>(t));  // inside the table
    high[t].record_shared((1u << 16) - 32 * static_cast<std::uint32_t>(t));
  }
  FoldScratch sc;
  expect_fold_matches_reference(c, low, sc);
  const std::size_t grown = sc.sh_stamp.size();
  EXPECT_LE(grown, 64u);
  expect_fold_matches_reference(c, high, sc);
  EXPECT_GT(sc.sh_stamp.size(), grown);
  expect_fold_matches_reference(c, low, sc);
}

/// One warp reading a 32 x 32 tile stored column-major with leading
/// dimension `ld` at word `base`: column j (lane = row) if `by_column`,
/// else row j (lane = column).
std::vector<ThreadStats> tile_read(std::uint32_t base, std::uint32_t ld,
                                   std::uint32_t j, bool by_column) {
  std::vector<ThreadStats> threads(32);
  for (std::uint32_t t = 0; t < 32; ++t)
    threads[t].record_shared(by_column ? base + j * ld + t : base + t * ld + j);
  return threads;
}

TEST(FoldReference, ScratchReusedAcrossSharedLayouts) {
  // Layout A: a padded 32 x 33 tile at word 0 (rows conflict-free).
  // Layout B: a 40-word vector, then an unpadded 32 x 32 tile (rows 32-way).
  // The same words mean different elements in each; one scratch folds both.
  const DeviceConfig c = cfg();
  FoldScratch sc;
  for (const auto& [base, ld] : {std::pair<std::uint32_t, std::uint32_t>{0, 33},
                                 {40, 32}, {0, 33}}) {
    for (std::uint32_t j = 0; j < 32; j += 7) {
      for (const bool by_column : {true, false}) {
        SCOPED_TRACE("ld " + std::to_string(ld) + ", j " + std::to_string(j) +
                     (by_column ? ", column" : ", row"));
        expect_fold_matches_reference(c, tile_read(base, ld, j, by_column), sc);
      }
    }
  }
  EXPECT_DOUBLE_EQ(
      fold_phase(c, tile_read(40, 32, 5, false), OpTag::other, -1, true, &sc)
          .sh_transactions,
      32.0);
  EXPECT_DOUBLE_EQ(
      fold_phase(c, tile_read(0, 33, 5, false), OpTag::other, -1, true, &sc)
          .sh_transactions,
      1.0);
}

TEST(Fold, ConflictFreeSharedAccessesAreOneTransactionPerInstr) {
  auto threads = warp_of(32);
  for (int t = 0; t < 32; ++t)
    for (int i = 0; i < 4; ++i)
      threads[t].record_shared(static_cast<std::uint32_t>(t + i * 32));
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.sh_transactions, 4.0);  // max-lane = 4, no conflicts
}

TEST(Fold, BankConflictsInflateTransactions) {
  // All 32 lanes hit bank 0 with distinct addresses: 32-way conflict.
  auto threads = warp_of(32);
  for (int t = 0; t < 32; ++t)
    threads[t].record_shared(static_cast<std::uint32_t>(t * 32));
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.sh_transactions, 32.0);
}

TEST(Fold, BroadcastIsFree) {
  // All lanes read the same word: hardware broadcasts in one transaction.
  auto threads = warp_of(32);
  for (int t = 0; t < 32; ++t) threads[t].record_shared(17);
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.sh_transactions, 1.0);
}

TEST(Fold, CoalescedGlobalAccessIsOneSegment) {
  auto threads = warp_of(32);
  for (int t = 0; t < 32; ++t)
    threads[t].record_global(static_cast<std::uint64_t>(t) * 4, 4, true, 128);
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.gl_transactions, 1.0);
  EXPECT_EQ(p.gl_bytes, 32u * 4u);
}

TEST(Fold, ScatteredGlobalAccessesAreManySegments) {
  auto threads = warp_of(32);
  for (int t = 0; t < 32; ++t)
    threads[t].record_global(static_cast<std::uint64_t>(t) * 4096, 4, true, 128);
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.gl_transactions, 32.0);
}

TEST(Fold, FpIssueIsMaxOverLanes) {
  auto threads = warp_of(32);
  threads[3].fp_instrs = 100;  // divergent hot lane
  threads[7].fp_instrs = 40;
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.fp_issue, 100.0);
}

TEST(Fold, MultipleWarpsSumIssue) {
  auto threads = warp_of(64);
  for (int t = 0; t < 64; ++t) threads[t].fp_instrs = 10;
  auto p = fold_phase(cfg(), threads, OpTag::other, -1, true);
  EXPECT_DOUBLE_EQ(p.fp_issue, 20.0);  // two warps
}

TEST(PhaseCycles, ScalesWithResidentBlocks) {
  PhaseRecord p;
  p.fp_issue = 1000;
  const double t1 = phase_cycles(cfg(), p, 1, 64);
  const double t8 = phase_cycles(cfg(), p, 8, 64);
  EXPECT_NEAR(t8 / t1, 8.0, 0.5);
}

TEST(PhaseCycles, LatencyFloorsSmallPhases) {
  PhaseRecord p;
  p.fp_issue = 1;
  p.any_global = true;
  p.gl_transactions = 1;
  p.gl_bytes = 128;
  const double t = phase_cycles(cfg(), p, 1, 64);
  EXPECT_GE(t, cfg().global_latency_cycles);
}

TEST(PhaseCycles, SyncAddsBarrierCost) {
  PhaseRecord p;
  p.fp_issue = 100;
  PhaseRecord q = p;
  q.ended_with_sync = true;
  const double diff =
      phase_cycles(cfg(), q, 1, 64) - phase_cycles(cfg(), p, 1, 64);
  EXPECT_NEAR(diff, cfg().sync_cycles(64), 1e-9);
}

TEST(PhaseCycles, DependentChainDominates) {
  PhaseRecord p;
  p.dep_latency = 50000;
  p.fp_issue = 10;
  EXPECT_GE(phase_cycles(cfg(), p, 8, 64), 50000.0);
}

TEST(ChipCycles, DramFloorApplies) {
  // One tiny block but a huge amount of DRAM traffic: the floor binds.
  const double t = chip_cycles(cfg(), {100.0}, 1, 100'000'000);
  EXPECT_GE(t, 100'000'000 / cfg().dram_bytes_per_cycle());
}

TEST(ChipCycles, PacksWaves) {
  // 224 identical blocks at K=8 on 14 SMs = 2 waves.
  std::vector<double> blocks(224, 1000.0);
  const double t = chip_cycles(cfg(), blocks, 8, 0);
  EXPECT_NEAR(t, 2000.0, 1.0);
}

TEST(ChipCycles, SingleBlockRunsAtItsOwnTime) {
  EXPECT_NEAR(chip_cycles(cfg(), {1234.0}, 8, 0), 1234.0, 1e-9);
}

TEST(Occupancy, Gf100KnownConfigs) {
  const auto c = cfg();
  // The paper's 56x56 case: 64 threads, <= 64 regs -> 8 blocks (max-blocks).
  EXPECT_EQ(occupancy(c, 64, 64, 1024).blocks_per_sm, 8);
  // The Fig. 9 cliff: 256 threads at 64 regs -> register-limited 2 blocks.
  auto o = occupancy(c, 256, 64, 1024);
  EXPECT_EQ(o.blocks_per_sm, 2);
  EXPECT_EQ(o.limiter, Occupancy::Limiter::registers);
  // Thread-limited: 1024-thread blocks at low regs.
  EXPECT_EQ(occupancy(c, 1024, 16, 0).blocks_per_sm, 1);
  // Shared-limited.
  auto osh = occupancy(c, 64, 16, 20000);
  EXPECT_EQ(osh.blocks_per_sm, 2);
  EXPECT_EQ(osh.limiter, Occupancy::Limiter::shared_memory);
  // Impossible shape throws.
  EXPECT_THROW(occupancy(c, 64, 16, 100000), Error);
}

}  // namespace
}  // namespace regla::simt
