// Tests for the SIMT launch engine: barrier semantics, shared memory,
// instrumentation, occupancy plumbing, determinism.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.h"
#include "simt/simt.h"

namespace regla::simt {
namespace {

TEST(Engine, EveryThreadOfEveryBlockRuns) {
  Device dev;
  std::vector<int> hits(4 * 32, 0);
  int* h = hits.data();
  LaunchSpec spec;
  spec.blocks = 4;
  spec.threads = 32;
  dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto g = ctx.global(h);
    g.st(ctx.block() * 32 + ctx.tid(), 1);
    co_return;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4 * 32);
}

TEST(Engine, BarrierOrdersPhases) {
  // Classic neighbor exchange: without a working barrier, thread t would
  // read its neighbor's stale value.
  Device dev;
  LaunchSpec spec;
  spec.blocks = 2;
  spec.threads = 64;
  std::vector<int> out(2 * 64, -1);
  int* op = out.data();
  dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto sh = ctx.shared<int>(64);
    sh.st(ctx.tid(), ctx.tid() * 10);
    co_await ctx.sync();
    const int neighbor = sh.ld((ctx.tid() + 1) % 64);
    auto g = ctx.global(op);
    g.st(ctx.block() * 64 + ctx.tid(), neighbor);
  });
  for (int b = 0; b < 2; ++b)
    for (int t = 0; t < 64; ++t) EXPECT_EQ(out[b * 64 + t], ((t + 1) % 64) * 10);
}

TEST(Engine, ManyBarriersAllArrive) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 96;
  std::vector<int> final_val(1, 0);
  int* fv = final_val.data();
  auto res = dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto sh = ctx.shared<int>(1);
    if (ctx.tid() == 0) sh.st(0, 0);
    co_await ctx.sync();
    for (int i = 0; i < 10; ++i) {
      if (ctx.tid() == i % ctx.nthreads()) sh.st(0, sh.ld(0) + 1);
      co_await ctx.sync();
    }
    if (ctx.tid() == 0) ctx.global(fv).st(0, sh.ld(0));
  });
  EXPECT_EQ(final_val[0], 10);
  EXPECT_EQ(res.totals.syncs, 11u);
}

TEST(Engine, EarlyExitThreadsDoNotBlockBarriers) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 64;
  std::vector<int> count(1, 0);
  int* cp = count.data();
  dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    if (ctx.tid() >= 32) co_return;  // half the block leaves immediately
    auto sh = ctx.shared<int>(32);
    sh.st(ctx.tid(), 1);
    co_await ctx.sync();
    if (ctx.tid() == 0) {
      int total = 0;
      for (int i = 0; i < 32; ++i) total += sh.ld(i);
      ctx.global(cp).st(0, total);
    }
  });
  EXPECT_EQ(count[0], 32);
}

TEST(Engine, SharedAllocationSizeMismatchThrows) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 2;
  EXPECT_THROW(dev.launch(spec,
                          [](BlockCtx& ctx) -> Lane {
                            // Thread-dependent allocation size: illegal.
                            ctx.shared<float>(ctx.tid() == 0 ? 8 : 16);
                            co_return;
                          }),
               Error);
}

TEST(Engine, FlopCountsMatchKernelArithmetic) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 3;
  spec.threads = 16;
  auto res = dev.launch(spec, [](BlockCtx& ctx) -> Lane {
    (void)ctx;
    gfloat acc(0.0f);
    for (int i = 0; i < 10; ++i) acc = gfma(acc, gfloat(1.5f), gfloat(0.5f));
    gfloat d = acc / gfloat(2.0f);
    gfloat s = gsqrt(d);
    (void)s;
    co_return;
  });
  // 3 blocks * 16 threads * (10 FMA = 20 flops + 1 div + 1 sqrt).
  EXPECT_EQ(res.totals.flops, 3u * 16u * 22u);
  EXPECT_EQ(res.totals.divs, 3u * 16u);
  EXPECT_EQ(res.totals.sqrts, 3u * 16u);
}

TEST(Engine, GlobalBytesCounted) {
  Device dev;
  std::vector<float> x(1024, 1.0f);
  float* xp = x.data();
  LaunchSpec spec;
  spec.threads = 128;
  auto res = dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto g = ctx.global(xp);
    gfloat v = g.ld(ctx.tid());
    g.st(512 + ctx.tid(), v);
    co_return;
  });
  EXPECT_EQ(res.totals.gl_bytes, 128u * 2u * 4u);
}

TEST(Engine, TagBreakdownCoversAllCycles) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 32;
  auto res = dev.launch(spec, [](BlockCtx& ctx) -> Lane {
    ctx.tag(OpTag::form_hh);
    gfloat a = gfloat(1.0f) + gfloat(2.0f);
    co_await ctx.sync();
    ctx.tag(OpTag::rank1);
    gfloat b = a * a;
    (void)b;
  });
  double tagged = 0;
  for (const auto& t : res.breakdown) tagged += t.cycles;
  EXPECT_NEAR(tagged, res.block_cycles_avg, 1e-6);
  EXPECT_GT(res.cycles_for(OpTag::form_hh), 0.0);
  EXPECT_GT(res.cycles_for(OpTag::rank1), 0.0);
}

TEST(Engine, OccupancyLimitsReported) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 200;
  spec.threads = 64;
  spec.regs_per_thread = 64;
  auto res = dev.launch(spec, [](BlockCtx&) -> Lane { co_return; });
  EXPECT_EQ(res.blocks_per_sm, 8);  // max-blocks limited on GF100
  EXPECT_EQ(res.waves, 2);          // ceil(200 / 112)
}

TEST(Engine, RegisterLimitedOccupancy) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 64;
  spec.threads = 256;
  spec.regs_per_thread = 64;  // 256 * 64 * K <= 32768 => K = 2
  auto res = dev.launch(spec, [](BlockCtx&) -> Lane { co_return; });
  EXPECT_EQ(res.blocks_per_sm, 2);
  EXPECT_EQ(res.occupancy_limiter, Occupancy::Limiter::registers);
}

TEST(Engine, DeterministicAcrossHostWorkerCounts) {
  std::vector<float> data1(256), data2(256);
  for (int workers : {1, 4}) {
    Device dev;
    dev.set_host_workers(workers);
    std::vector<float>& data = workers == 1 ? data1 : data2;
    float* dp = data.data();
    LaunchSpec spec;
    spec.blocks = 8;
    spec.threads = 32;
    dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
      auto g = ctx.global(dp);
      const int i = ctx.block() * 32 + ctx.tid();
      g.st(i, (gfloat(static_cast<float>(i)) / gfloat(7.0f)).value());
      co_return;
    });
  }
  EXPECT_EQ(data1, data2);
}

TEST(Engine, TimingDeterministicAcrossRuns) {
  auto run = [] {
    Device dev;
    LaunchSpec spec;
    spec.blocks = 4;
    spec.threads = 64;
    return dev
        .launch(spec,
                [](BlockCtx& ctx) -> Lane {
                  auto sh = ctx.shared<float>(64);
                  sh.st(ctx.tid(), gfloat(1.0f) * gfloat(2.0f));
                  co_await ctx.sync();
                  gfloat v = sh.ld((ctx.tid() * 7) % 64);
                  (void)v;
                })
        .chip_cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, SpillChargedBeyondRegisterBudget) {
  Device dev;
  LaunchSpec spec;
  spec.threads = 1;
  auto res_small = dev.launch(spec, [](BlockCtx& ctx) -> Lane {
    auto t = ctx.reg_tile<gfloat>(7, 7);  // 49 words: fits 64 - 15
    for (int i = 0; i < 7; ++i)
      for (int j = 0; j < 7; ++j) t.set(i, j, gfloat(1.0f));
    co_return;
  });
  auto res_big = dev.launch(spec, [](BlockCtx& ctx) -> Lane {
    auto t = ctx.reg_tile<gfloat>(10, 10);  // 100 words: 51 spill
    for (int i = 0; i < 10; ++i)
      for (int j = 0; j < 10; ++j) t.set(i, j, gfloat(1.0f));
    co_return;
  });
  EXPECT_EQ(res_small.totals.spill_bytes, 0u);
  EXPECT_EQ(res_big.totals.spill_bytes, 51u * 4u);
}

TEST(Engine, InvalidLaunchShapesRejected) {
  Device dev;
  LaunchSpec spec;
  spec.blocks = 0;
  EXPECT_THROW(dev.launch(spec, [](BlockCtx&) -> Lane { co_return; }), Error);
  spec.blocks = 1;
  spec.threads = 2048;
  EXPECT_THROW(dev.launch(spec, [](BlockCtx&) -> Lane { co_return; }), Error);
}

TEST(Engine, DramFloorBoundsBandwidth) {
  // A pure copy can never beat achievable DRAM bandwidth.
  Device dev;
  const std::size_t words = 1 << 20;
  std::vector<float> x(words, 1.0f), y(words);
  float* xp = x.data();
  float* yp = y.data();
  LaunchSpec spec;
  spec.blocks = 112;
  spec.threads = 256;
  const std::size_t per_thread = words / (112 * 256);
  auto res = dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto gx = ctx.global(xp);
    auto gy = ctx.global(yp);
    const std::size_t lane =
        static_cast<std::size_t>(ctx.block()) * 256 + ctx.tid();
    for (std::size_t i = 0; i < per_thread; ++i)
      gy.st(lane + i * 112 * 256, gx.ld(lane + i * 112 * 256));
    co_return;
  });
  EXPECT_LE(res.dram_gbs(), dev.config().dram_achievable_gbs * 1.01);
  EXPECT_GT(res.dram_gbs(), dev.config().dram_achievable_gbs * 0.8);
}

}  // namespace
}  // namespace regla::simt
