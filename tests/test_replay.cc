// Replay memoization (simt/replay.h, DESIGN.md §13): a replay-enabled
// device must report bit-identical accounting to a fully-simulated one —
// numerics, timing, counters — for every data-independent op, with and
// without injected faults, and REGLA_REPLAY_VERIFY must observe zero
// mismatches when it re-simulates what the cache replays. Replayed blocks
// of the real per-block QR family run eight to a lane step (replay groups,
// simt/group_ctx.h); those results must be bitwise what scalar lanes give.
// A replay hit copies its entry's memoized LaunchResult instead of folding
// the blocks' accounting; that copy must be bitwise what full simulation
// folds, in every field.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/generators.h"
#include "core/per_block.h"
#include "core/per_thread.h"
#include "obs/metrics.h"
#include "planner/solver.h"
#include "simt/engine.h"
#include "simt/replay.h"

namespace regla {
namespace {

// Every SolveReport field the device model produces, compared exactly: a
// replayed launch that drifts by one cycle or one byte is a bug.
void expect_reports_identical(const SolveReport& a, const SolveReport& b) {
  EXPECT_EQ(a.plan.approach, b.plan.approach);
  EXPECT_EQ(a.plan.threads, b.plan.threads);
  EXPECT_EQ(a.seconds, b.seconds);  // bitwise: no tolerance
  EXPECT_EQ(a.chip_cycles, b.chip_cycles);
  EXPECT_EQ(a.nominal_flops, b.nominal_flops);
  EXPECT_EQ(a.blocks_per_sm, b.blocks_per_sm);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.counters.flops, b.counters.flops);
  EXPECT_EQ(a.counters.divs, b.counters.divs);
  EXPECT_EQ(a.counters.sqrts, b.counters.sqrts);
  EXPECT_EQ(a.counters.sh_accesses, b.counters.sh_accesses);
  EXPECT_EQ(a.counters.gl_bytes, b.counters.gl_bytes);
  EXPECT_EQ(a.counters.spill_bytes, b.counters.spill_bytes);
  EXPECT_EQ(a.counters.syncs, b.counters.syncs);
  EXPECT_EQ(a.counters.addr_truncations, b.counters.addr_truncations);
  EXPECT_EQ(a.not_solved, b.not_solved);
}

void expect_batches_identical(const BatchF& a, const BatchF& b) {
  ASSERT_EQ(a.count(), b.count());
  for (int k = 0; k < a.count(); ++k)
    for (int j = 0; j < a.cols(); ++j)
      for (int i = 0; i < a.rows(); ++i)
        ASSERT_EQ(a.at(k, i, j), b.at(k, i, j))
            << "k=" << k << " i=" << i << " j=" << j;
}

std::uint64_t grouped_blocks() {
  return obs::counter_value("engine.replay.grouped_blocks");
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Every LaunchResult field, the doubles by bit pattern. SolveReport has no
// breakdown, so expect_reports_identical cannot see a wrong memo there.
void expect_launches_identical(const simt::LaunchResult& a,
                               const simt::LaunchResult& b) {
  EXPECT_EQ(bits(a.chip_cycles), bits(b.chip_cycles));
  EXPECT_EQ(bits(a.seconds), bits(b.seconds));
  EXPECT_EQ(bits(a.block_cycles_avg), bits(b.block_cycles_avg));
  EXPECT_EQ(a.blocks_per_sm, b.blocks_per_sm);
  EXPECT_EQ(a.occupancy_limiter, b.occupancy_limiter);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.shared_bytes_per_block, b.shared_bytes_per_block);
  EXPECT_EQ(a.totals.flops, b.totals.flops);
  EXPECT_EQ(a.totals.divs, b.totals.divs);
  EXPECT_EQ(a.totals.sqrts, b.totals.sqrts);
  EXPECT_EQ(a.totals.sh_accesses, b.totals.sh_accesses);
  EXPECT_EQ(a.totals.gl_bytes, b.totals.gl_bytes);
  EXPECT_EQ(a.totals.spill_bytes, b.totals.spill_bytes);
  EXPECT_EQ(a.totals.syncs, b.totals.syncs);
  EXPECT_EQ(a.totals.addr_truncations, b.totals.addr_truncations);
  ASSERT_EQ(a.breakdown.size(), b.breakdown.size());
  for (std::size_t i = 0; i < a.breakdown.size(); ++i) {
    EXPECT_EQ(a.breakdown[i].panel, b.breakdown[i].panel) << i;
    EXPECT_EQ(a.breakdown[i].tag, b.breakdown[i].tag) << i;
    EXPECT_EQ(bits(a.breakdown[i].cycles), bits(b.breakdown[i].cycles)) << i;
  }
}

// Run the paper's op set through two Solvers — one on a replay-enabled
// device, one fully simulated — twice each (the second replay-device pass
// hits the cache) and demand bitwise agreement everywhere. Counts include
// a ragged tail for the per-thread family (37 % threads != 0) and
// multi-block per-block launches. The grouped launchers' cases hit with at
// least two full replay groups plus a tail.
void run_op_sweep(simt::Device& replay_dev, simt::Device& full_dev) {
  Solver sr(replay_dev);
  Solver sf(full_dev);

  struct Case {
    planner::Op op;
    int m, n;
    int count;
    bool per_block = false;  ///< the plan must be per-block (grouped)
  };
  const Case cases[] = {
      {planner::Op::qr, 8, 8, 37},                     // per-thread, ragged
      {planner::Op::qr, 32, 32, 9},                    // per-block, ragged vs SMs
      {planner::Op::qr, 32, 32, 19, true},             // 2 groups + 3
      {planner::Op::least_squares, 32, 16, 17, true},  // 2 groups + 1
      {planner::Op::solve_qr, 24, 24, 19, true},       // 2 groups + 3
      {planner::Op::lu, 32, 32, 8},
      {planner::Op::cholesky, 24, 24, 8},
      {planner::Op::trsm, 48, 48, 6},
  };
  for (const Case& c : cases) {
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t seed = 100 * c.n + c.count + pass;
      BatchF ar(c.count, c.m, c.n), af(c.count, c.m, c.n);
      BatchF br(c.count, c.m, 1), bf(c.count, c.m, 1);
      if (c.op == planner::Op::cholesky || c.op == planner::Op::trsm) {
        fill_spd(ar, seed);
        fill_spd(af, seed);
      } else {
        fill_uniform(ar, seed);
        fill_uniform(af, seed);
      }
      fill_uniform(br, seed + 1);
      fill_uniform(bf, seed + 1);

      SolveReport rr, rf;
      switch (c.op) {
        case planner::Op::qr:
          rr = sr.qr(ar);
          rf = sf.qr(af);
          break;
        case planner::Op::least_squares:
          rr = sr.least_squares(ar, br);
          rf = sf.least_squares(af, bf);
          break;
        case planner::Op::solve_qr:
          rr = sr.solve(ar, br);
          rf = sf.solve(af, bf);
          break;
        case planner::Op::lu:
          rr = sr.lu(ar);
          rf = sf.lu(af);
          break;
        case planner::Op::cholesky:
          rr = sr.cholesky(ar);
          rf = sf.cholesky(af);
          break;
        case planner::Op::trsm:
          rr = sr.cholesky(ar);
          rf = sf.cholesky(af);
          rr = sr.trsm(ar, br);
          rf = sf.trsm(af, bf);
          break;
        default:
          FAIL();
      }
      if (c.per_block) {
        EXPECT_EQ(rr.plan.approach, core::Approach::per_block);
      }
      expect_reports_identical(rr, rf);
      expect_batches_identical(ar, af);
      expect_batches_identical(br, bf);
    }
  }
}

TEST(ReplayVerify, ReplayedAccountingBitwiseEqualsFullSim) {
  // Verify mode (read at Device construction) never runs replay groups, so
  // an inherited REGLA_REPLAY_VERIFY=1 would leave grouped_blocks flat.
  ::unsetenv("REGLA_REPLAY_VERIFY");
  const std::uint64_t hits0 = obs::counter_value("engine.replay.hits");
  const std::uint64_t grouped0 = grouped_blocks();
  simt::Device replay_dev;
  replay_dev.set_replay(true);
  simt::Device full_dev;
  ASSERT_FALSE(full_dev.replay_enabled());
  if (!replay_dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";

  run_op_sweep(replay_dev, full_dev);

  // The second pass of every case repeats (kernel, geometry, salt): the
  // cache must actually be replaying, not silently missing — and the
  // grouped launchers' replayed blocks must have run as groups.
  EXPECT_GT(obs::counter_value("engine.replay.hits"), hits0);
  EXPECT_GT(grouped_blocks(), grouped0);
}

// REGLA_REPLAY_VERIFY=1 (read at Device construction) re-simulates every
// block a cache hit would replay and cross-checks the accounting. Zero
// mismatches across the op sweep is the tentpole's soundness gate.
TEST(ReplayVerify, VerifyModeObservesZeroMismatches) {
  ::setenv("REGLA_REPLAY_VERIFY", "1", 1);
  const std::uint64_t blocks0 = obs::counter_value("engine.replay.verify_blocks");
  const std::uint64_t mism0 =
      obs::counter_value("engine.replay.verify_mismatches");
  {
    simt::Device replay_dev;
    replay_dev.set_replay(true);
    simt::Device full_dev;
    if (!replay_dev.replay_enabled()) {
      ::unsetenv("REGLA_REPLAY_VERIFY");
      GTEST_SKIP() << "REGLA_REPLAY=0 set";
    }
    run_op_sweep(replay_dev, full_dev);
  }
  ::unsetenv("REGLA_REPLAY_VERIFY");
  EXPECT_GT(obs::counter_value("engine.replay.verify_blocks"), blocks0);
  EXPECT_EQ(obs::counter_value("engine.replay.verify_mismatches"), mism0);
}

// Fault decisions key on the launch ordinal, never on whether blocks were
// simulated or replayed: a faulty device must produce the same fault
// sequence, the same accounting, and the same results either way. The sweep
// runs twice: with replay groups (a poisoned block drops out of the group
// it would have joined), then under verify mode, which runs none.
TEST(ReplayVerify, FaultDecisionsIdenticalUnderReplay) {
  const std::uint64_t mism0 =
      obs::counter_value("engine.replay.verify_mismatches");
  simt::DeviceConfig cfg;
  cfg.faults.seed = 42;
  cfg.faults.poisoned_result_rate = 0.5;   // every other launch skips a block
  cfg.faults.latency_spike_rate = 0.25;
  cfg.faults.latency_spike_multiplier = 4.0;
  for (const bool verify : {false, true}) {
    if (verify)
      ::setenv("REGLA_REPLAY_VERIFY", "1", 1);
    else
      ::unsetenv("REGLA_REPLAY_VERIFY");  // not inherited from the caller
    const std::uint64_t grouped0 = grouped_blocks();
    {
      simt::Device replay_dev(cfg);
      replay_dev.set_replay(true);
      simt::Device full_dev(cfg);
      if (!replay_dev.replay_enabled()) {
        ::unsetenv("REGLA_REPLAY_VERIFY");
        GTEST_SKIP() << "REGLA_REPLAY=0 set";
      }
      run_op_sweep(replay_dev, full_dev);
      EXPECT_GT(replay_dev.fault_stats().poisoned_launches, 0u);
      EXPECT_EQ(replay_dev.fault_stats().poisoned_launches,
                full_dev.fault_stats().poisoned_launches);
      EXPECT_EQ(replay_dev.fault_stats().latency_spikes,
                full_dev.fault_stats().latency_spikes);
    }
    ::unsetenv("REGLA_REPLAY_VERIFY");
    if (verify)
      EXPECT_EQ(grouped_blocks(), grouped0);
    else
      EXPECT_GT(grouped_blocks(), grouped0);
  }
  EXPECT_EQ(obs::counter_value("engine.replay.verify_mismatches"), mism0);
}

// A payload whose per-problem stride is not a multiple of the DRAM segment
// puts blocks in several alignment classes: 24x24 QR solves keep their
// right-hand sides 96 B apart, which cycles through four classes of a
// 128-byte segment. With the right-hand sides based at every 16-byte class,
// a replay miss must instrument a block of each class it replays, so
// verify mode sees no block diverge from the representatives and no hit
// diverge from the cache.
TEST(ReplayVerify, RepresentativesCoverEveryAlignmentClass) {
  ::setenv("REGLA_REPLAY_VERIFY", "1", 1);
  const std::uint64_t mism0 =
      obs::counter_value("engine.replay.verify_mismatches");
  {
    simt::Device replay_dev;
    replay_dev.set_replay(true);
    if (!replay_dev.replay_enabled()) {
      ::unsetenv("REGLA_REPLAY_VERIFY");
      GTEST_SKIP() << "REGLA_REPLAY=0 set";
    }
    Solver sr(replay_dev);
    constexpr int kCount = 19, kN = 24;
    const std::uintptr_t seg = replay_dev.config().dram_segment_bytes;
    std::vector<float> storage(kCount * kN + seg);
    for (std::uintptr_t cls = 0; cls < seg; cls += 16) {
      float* rhs = storage.data();
      while (reinterpret_cast<std::uintptr_t>(rhs) % seg != cls) ++rhs;
      for (int pass = 0; pass < 2; ++pass) {
        BatchF a(kCount, kN, kN);
        fill_uniform(a, 900 + cls + pass);
        BatchF b = BatchF::borrow(rhs, kCount, kN, 1);
        fill_uniform(b, 950 + cls + pass);
        EXPECT_NO_THROW(sr.solve(a, b)) << "rhs class " << cls;
      }
    }
  }
  ::unsetenv("REGLA_REPLAY_VERIFY");
  EXPECT_EQ(obs::counter_value("engine.replay.verify_mismatches"), mism0);
}

// A replay group runs one schedule for eight problems, but the reflector's
// skip branch (a column already zero below the diagonal) depends on each
// problem's values: every member must take its own branch. Problems 5 and
// 11 skip column 0; both land in a group on the hit pass (0-7, 8-15) and 5
// on the miss pass (2-9). Numerics only: the skip branch counts fewer
// operations, which replay's uniform accounting does not see (DESIGN.md
// §13, "Known limitation").
TEST(ReplayVerify, GroupMembersTakeTheirOwnReflectorBranch) {
  simt::Device replay_dev;
  replay_dev.set_replay(true);
  simt::Device full_dev;
  if (!replay_dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  Solver sr(replay_dev);
  Solver sf(full_dev);
  const std::uint64_t grouped0 = grouped_blocks();
  for (int pass = 0; pass < 2; ++pass) {
    BatchF ar(16, 32, 32);
    fill_uniform(ar, 500 + pass);
    for (int k : {5, 11})
      for (int i = 1; i < 32; ++i) ar.at(k, i, 0) = 0.0f;
    BatchF af = ar;
    BatchF tr, tf;
    const SolveReport rr = sr.qr(ar, &tr);
    sf.qr(af, &tf);
    ASSERT_EQ(rr.plan.approach, core::Approach::per_block);
    expect_batches_identical(ar, af);
    expect_batches_identical(tr, tf);
    for (int k : {5, 11}) EXPECT_EQ(tr.at(k, 0, 0), 0.0f) << k;  // skipped
    EXPECT_NE(tr.at(4, 0, 0), 0.0f);
  }
  EXPECT_GT(grouped_blocks(), grouped0);
}

// Two Devices launch grouped replays from two threads at once, on the one
// host pool every Device shares: results stay bitwise what full simulation
// gives.
TEST(ReplayVerify, ConcurrentGroupedLaunchesMatchFullSim) {
  // Verify mode never runs replay groups: clear an inherited
  // REGLA_REPLAY_VERIFY=1, or grouped_blocks stays flat.
  ::unsetenv("REGLA_REPLAY_VERIFY");
  constexpr int kThreads = 2;
  constexpr int kPasses = 3;
  const auto input = [](int t, int pass) {
    BatchF a(24, 32, 32);
    fill_uniform(a, static_cast<std::uint64_t>(700 + 10 * t + pass));
    return a;
  };
  std::vector<BatchF> want;
  {
    simt::Device full_dev;
    Solver sf(full_dev);
    for (int t = 0; t < kThreads; ++t)
      for (int pass = 0; pass < kPasses; ++pass) {
        want.push_back(input(t, pass));
        sf.qr(want.back());
      }
  }
  const std::uint64_t grouped0 = grouped_blocks();
  std::vector<BatchF> got(want.size());
  std::vector<int> enabled(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      simt::Device dev;
      dev.set_replay(true);
      enabled[t] = dev.replay_enabled() ? 1 : 0;
      Solver s(dev);
      for (int pass = 0; pass < kPasses; ++pass) {
        BatchF a = input(t, pass);
        s.qr(a);
        got[static_cast<std::size_t>(t * kPasses + pass)] = std::move(a);
      }
    });
  for (std::thread& th : threads) th.join();
  if (enabled[0] == 0) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_batches_identical(got[i], want[i]);
  EXPECT_GT(grouped_blocks(), grouped0);
}

// A count x m x n batch borrowed from `storage` at the start of a DRAM
// segment. The tests below key replay by a fixed salt, which does not
// cover the payload's alignment class (ops::run_device mixes it in), so
// their payloads must not land wherever the heap puts them.
BatchF segment_aligned(std::vector<float>& storage, int count, int m, int n) {
  const std::size_t seg = simt::DeviceConfig{}.dram_segment_bytes;
  storage.assign(static_cast<std::size_t>(count) * m * n + seg, 0.0f);
  float* p = storage.data();
  while (reinterpret_cast<std::uintptr_t>(p) % seg != 0) ++p;
  return BatchF::borrow(p, count, m, n);
}

// One Device::launch of each device per pass, both inside a
// data-independent ReplayScope keyed by `salt`, compared field by field: on
// the replay device pass 0 misses and passes 1 and 2 hit. `launch` runs a
// core driver on inputs seeded by the pass. Returns how far
// engine.addr_truncations advanced on {replay_dev, full_dev}.
template <typename Launch>
std::pair<std::uint64_t, std::uint64_t> expect_memo_matches_full_sim(
    simt::Device& replay_dev, simt::Device& full_dev, std::uint64_t salt,
    int period, const Launch& launch) {
  const auto truncations = [] {
    return obs::counter_value("engine.addr_truncations");
  };
  std::uint64_t replay_trunc = 0, full_trunc = 0;
  for (int pass = 0; pass < 3; ++pass) {
    simt::LaunchResult r, f;
    std::uint64_t t0 = truncations();
    {
      simt::Device::ReplayScope scope(replay_dev, true, salt, period);
      r = launch(replay_dev, pass);
    }
    replay_trunc += truncations() - t0;
    t0 = truncations();
    {
      simt::Device::ReplayScope scope(full_dev, true, salt, period);
      f = launch(full_dev, pass);
    }
    full_trunc += truncations() - t0;
    SCOPED_TRACE(testing::Message() << "salt " << salt << " pass " << pass);
    expect_launches_identical(r, f);
  }
  return {replay_trunc, full_trunc};
}

// A miss stores its folded LaunchResult in the replay entry and later hits
// copy it. Per key, a miss and two hits must report every field bit for bit
// what a fully simulated device folds: grouped per-block QR, ragged
// per-thread QR, 24x24 QR solves with the right-hand sides in each 16-byte
// alignment class (96 B apart, so the representatives disagree and the
// entry is non-uniform), and a kernel whose address logs overflow, so a
// memo hit must still count the truncations the fold used to count.
TEST(ReplayVerify, MemoizedFoldBitwiseEqualsFullSim) {
  // Verify mode re-folds every hit and never runs a group: clear an
  // inherited REGLA_REPLAY_VERIFY=1, or folds_reused and grouped_blocks
  // stay flat.
  ::unsetenv("REGLA_REPLAY_VERIFY");
  simt::Device replay_dev;
  replay_dev.set_replay(true);
  simt::Device full_dev;
  if (!replay_dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  const std::uint64_t reused0 =
      obs::counter_value("engine.replay.folds_reused");
  const std::uint64_t nonuniform0 =
      obs::counter_value("engine.replay.nonuniform");
  const std::uint64_t grouped0 = grouped_blocks();
  int keys = 0;

  expect_memo_matches_full_sim(
      replay_dev, full_dev, 0x3232, 1, [](simt::Device& dev, int pass) {
        std::vector<float> storage;
        BatchF a = segment_aligned(storage, 19, 32, 32);  // 2 groups + 3
        fill_uniform(a, 300 + pass);
        return core::qr_per_block(dev, a).launch;
      });
  ++keys;
  expect_memo_matches_full_sim(
      replay_dev, full_dev, 0x0808, 1, [](simt::Device& dev, int pass) {
        std::vector<float> storage;
        BatchF a = segment_aligned(storage, 37, 8, 8);
        fill_uniform(a, 800 + pass);
        return core::qr_per_thread(dev, a).launch;
      });
  ++keys;

  constexpr int kCount = 19, kN = 24;
  const std::uintptr_t seg = replay_dev.config().dram_segment_bytes;
  std::vector<float> storage(kCount * kN + seg);
  for (std::uintptr_t cls = 0; cls < seg; cls += 16) {
    float* rhs = storage.data();
    while (reinterpret_cast<std::uintptr_t>(rhs) % seg != cls) ++rhs;
    // b's 96-byte stride repeats its classes every four blocks.
    expect_memo_matches_full_sim(
        replay_dev, full_dev, 0x2424 + cls, 4,
        [&](simt::Device& dev, int pass) {
          std::vector<float> a_storage;
          BatchF a = segment_aligned(a_storage, kCount, kN, kN);
          fill_uniform(a, 900 + cls + pass);
          BatchF b = BatchF::borrow(rhs, kCount, kN, 1);
          fill_uniform(b, 950 + cls + pass);
          return core::qr_solve_per_block(dev, a, b).launch;
        });
    ++keys;
  }

  const auto [replay_trunc, full_trunc] = expect_memo_matches_full_sim(
      replay_dev, full_dev, 0x7a7a, 1, [](simt::Device& dev, int) {
        simt::LaunchSpec spec;
        spec.blocks = 3;
        spec.threads = 1;
        spec.name = "truncating";
        const int over = static_cast<int>(simt::ThreadStats::kAddrCap) + 100;
        return dev.launch(spec, [=](simt::BlockCtx& ctx) -> simt::Lane {
          auto sh = ctx.shared<int>(4);
          for (int i = 0; i < over; ++i) sh.st(i % 4, i);
          co_return;
        });
      });
  ++keys;
  EXPECT_GT(full_trunc, 0u);
  EXPECT_EQ(replay_trunc, full_trunc);

  EXPECT_EQ(obs::counter_value("engine.replay.folds_reused") - reused0,
            static_cast<std::uint64_t>(2 * keys));
  EXPECT_GT(obs::counter_value("engine.replay.nonuniform"), nonuniform0);
  EXPECT_GT(grouped_blocks(), grouped0);
}

// Latency spikes and poisoned blocks are decided per launch, outside the
// key, so the memo holds the fold before any spike: a spiked hit copies it
// and stretches its own copy, and a poisoned hit folds its hole as full
// simulation does. Under FaultDecisionsIdenticalUnderReplay's fault config,
// every launch of a few keys must match a fully simulated device bit for
// bit, with the memo used exactly on the unpoisoned hits.
TEST(ReplayVerify, SpikedHitsUseTheMemoPoisonedHitsBypassIt) {
  // Verify mode re-folds every hit: clear an inherited
  // REGLA_REPLAY_VERIFY=1, or folds_reused stays flat.
  ::unsetenv("REGLA_REPLAY_VERIFY");
  simt::DeviceConfig cfg;
  cfg.faults.seed = 42;
  cfg.faults.poisoned_result_rate = 0.5;
  cfg.faults.latency_spike_rate = 0.25;
  cfg.faults.latency_spike_multiplier = 4.0;
  simt::Device replay_dev(cfg);
  replay_dev.set_replay(true);
  simt::Device full_dev(cfg);
  if (!replay_dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  int spiked_misses = 0, spiked_hits = 0, poisoned_hits = 0;
  for (std::uint64_t key = 0; key < 4; ++key) {
    for (int pass = 0; pass < 4; ++pass) {
      const simt::FaultStats before = replay_dev.fault_stats();
      const std::uint64_t hits0 = obs::counter_value("engine.replay.hits");
      const std::uint64_t reused0 =
          obs::counter_value("engine.replay.folds_reused");
      const auto launch = [&](simt::Device& dev) {
        simt::Device::ReplayScope scope(dev, true, 0xfa17 + key);
        std::vector<float> storage;
        BatchF a = segment_aligned(storage, 19, 32, 32);
        fill_uniform(a, 40 * key + pass);
        return core::qr_per_block(dev, a).launch;
      };
      const simt::LaunchResult r = launch(replay_dev);
      const simt::LaunchResult f = launch(full_dev);
      SCOPED_TRACE(testing::Message() << "key " << key << " pass " << pass);
      expect_launches_identical(r, f);

      const simt::FaultStats& after = replay_dev.fault_stats();
      const bool hit = obs::counter_value("engine.replay.hits") > hits0;
      const bool poisoned = after.poisoned_launches > before.poisoned_launches;
      const bool spiked = after.latency_spikes > before.latency_spikes;
      EXPECT_EQ(obs::counter_value("engine.replay.folds_reused") - reused0,
                hit && !poisoned ? 1u : 0u);
      if (!hit && !poisoned && spiked) ++spiked_misses;  // stores a memo
      if (hit && !poisoned && spiked) ++spiked_hits;
      if (hit && poisoned) ++poisoned_hits;
    }
  }
  EXPECT_GT(spiked_misses, 0);
  EXPECT_GT(spiked_hits, 0);
  EXPECT_GT(poisoned_hits, 0);
}

// Under REGLA_REPLAY_VERIFY=1 an unpoisoned hit re-folds its re-simulated
// blocks and must reproduce the memo bit for bit. A clock change behind an
// unchanged salt leaves every block's phases as they were but changes the
// fold (DRAM bytes per cycle, seconds), so the next hit must abort as a
// verify mismatch.
TEST(ReplayVerify, VerifyModeCatchesAStaleMemo) {
  ::setenv("REGLA_REPLAY_VERIFY", "1", 1);
  simt::Device dev;
  ::unsetenv("REGLA_REPLAY_VERIFY");
  dev.set_replay(true);
  if (!dev.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  const std::uint64_t mism0 =
      obs::counter_value("engine.replay.verify_mismatches");
  const auto launch = [&dev] {
    simt::Device::ReplayScope scope(dev, true, 0x57a1e);
    std::vector<float> storage;
    BatchF a = segment_aligned(storage, 3, 16, 16);
    fill_uniform(a, 61);
    return core::qr_per_block(dev, a).launch;
  };
  launch();                     // miss: stores the memo
  EXPECT_NO_THROW(launch());    // hit: the re-fold matches it
  EXPECT_EQ(obs::counter_value("engine.replay.verify_mismatches"), mism0);
  dev.mutable_config().clock_ghz *= 2;
  EXPECT_THROW(launch(), regla::Error);
  EXPECT_EQ(obs::counter_value("engine.replay.verify_mismatches"), mism0 + 1);
}

// The REGLA_REPLAY=0 kill switch wins over any opt-in.
TEST(ReplayVerify, KillSwitchDisablesOptIn) {
  ::setenv("REGLA_REPLAY", "0", 1);
  simt::Device dev;
  dev.set_replay(true);
  EXPECT_FALSE(dev.replay_enabled());
  ::unsetenv("REGLA_REPLAY");
  dev.set_replay(true);
  EXPECT_TRUE(dev.replay_enabled());
  dev.set_replay(false);
  EXPECT_FALSE(dev.replay_enabled());
}

// The cache itself: bounded by total cached phase records, LRU eviction,
// exact-key lookup.
TEST(ReplayVerify, CacheEvictsLeastRecentlyUsed) {
  simt::ReplayCache cache(/*max_phase_records=*/8);
  auto entry_with = [](int phases) {
    simt::ReplayEntry e;
    e.uniform = true;
    e.rep.phases.resize(phases);
    return e;
  };
  simt::ReplayKey a{"k", 1, 32, 16, 1};
  simt::ReplayKey b{"k", 1, 32, 16, 2};
  simt::ReplayKey c{"k", 1, 32, 16, 3};
  cache.put(a, entry_with(4));
  cache.put(b, entry_with(4));
  ASSERT_NE(cache.find(a), nullptr);  // touch a: b becomes coldest
  cache.put(c, entry_with(4));        // over budget: evict b
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

}  // namespace
}  // namespace regla
