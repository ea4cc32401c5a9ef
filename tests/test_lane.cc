// Tests for the stackless lanes that carry simulated device threads, both
// driven directly and through Device::launch's warp-order stepping.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "simt/simt.h"

namespace regla::simt {
namespace {

Lane set_to_42(int& x) {
  x = 42;
  co_return;
}

TEST(Lane, RunsToCompletionWithoutBarrier) {
  int x = 0;
  Lane lane = set_to_42(x);
  EXPECT_EQ(x, 0);  // lanes start suspended: creation runs no kernel code
  EXPECT_FALSE(lane.resume());
  EXPECT_TRUE(lane.done());
  EXPECT_EQ(x, 42);
}

Lane two_barriers(std::vector<int>& trace) {
  trace.push_back(1);
  co_await Barrier{};
  trace.push_back(2);
  co_await Barrier{};
  trace.push_back(3);
}

TEST(Lane, BarrierSuspendsAndResumes) {
  std::vector<int> trace;
  Lane lane = two_barriers(trace);
  EXPECT_TRUE(lane.resume());
  trace.push_back(10);
  EXPECT_TRUE(lane.resume());
  trace.push_back(20);
  EXPECT_FALSE(lane.resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Lane, ResumeAfterDoneThrows) {
  int x = 0;
  Lane lane = set_to_42(x);
  lane.resume();
  EXPECT_THROW(lane.resume(), Error);
}

Lane factorial_across_barriers(double& result) {
  // Frame locals must survive every suspension.
  double acc = 1.0;
  for (int i = 1; i <= 10; ++i) {
    acc *= i;
    co_await Barrier{};
  }
  result = acc;
}

TEST(Lane, LocalStateSurvivesBarriers) {
  double result = 0;
  Lane lane = factorial_across_barriers(result);
  while (lane.resume()) {
  }
  EXPECT_DOUBLE_EQ(result, 3628800.0);
}

TEST(Lane, DeepCallsBetweenBarriers) {
  // Plain calls made by a lane run on the host thread's stack.
  int depth_reached = 0;
  std::function<void(int)> recurse = [&](int d) {
    volatile char pad[512];
    pad[0] = static_cast<char>(d);
    (void)pad;
    depth_reached = std::max(depth_reached, d);
    if (d < 150) recurse(d + 1);
  };
  auto deep = [&]() -> Lane {
    co_await Barrier{};
    recurse(0);
  };
  Lane lane = deep();
  EXPECT_TRUE(lane.resume());
  EXPECT_FALSE(lane.resume());
  EXPECT_EQ(depth_reached, 150);
}

Lane add_to(long& sum, int i) {
  sum += i;
  co_return;
}

TEST(Lane, ThousandsOfLanes) {
  constexpr int kN = 2000;
  std::vector<Lane> lanes;
  long sum = 0;
  for (int i = 0; i < kN; ++i) lanes.push_back(add_to(sum, i));
  for (Lane& lane : lanes) EXPECT_FALSE(lane.resume());
  EXPECT_EQ(sum, static_cast<long>(kN) * (kN - 1) / 2);
}

TEST(Lane, InterleaveInWarpOrder) {
  // Every phase steps the live lanes in ascending thread order, warp by
  // warp; a lane that finishes drops out of the later phases.
  Device dev;
  dev.set_host_workers(1);
  LaunchSpec spec;
  spec.threads = 64;
  std::vector<int> order;
  std::vector<int>* out = &order;
  dev.launch(spec, [out](BlockCtx& ctx) -> Lane {
    out->push_back(ctx.tid());
    co_await ctx.sync();
    if (ctx.tid() % 3 == 0) co_return;
    out->push_back(100 + ctx.tid());
    co_await ctx.sync();
    out->push_back(200 + ctx.tid());
  });
  std::vector<int> expected;
  for (int t = 0; t < 64; ++t) expected.push_back(t);
  for (int phase : {100, 200})
    for (int t = 0; t < 64; ++t)
      if (t % 3 != 0) expected.push_back(phase + t);
  EXPECT_EQ(order, expected);
}

/// Counts constructions and destructions of lane-local objects.
struct Tally {
  int constructed = 0;
  int destroyed = 0;
};
struct Tracked {
  explicit Tracked(Tally* t) : tally(t) { ++tally->constructed; }
  ~Tracked() { ++tally->destroyed; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tally* tally;
};

TEST(Lane, ThrowMidBlockUnwindsEveryLane) {
  // Lane 37 throws in the second phase. By then lanes 0-36 hold two locals
  // at the second barrier and lanes 38-63 one at the first; launch() must
  // rethrow and destroy all of them.
  Device dev;
  dev.set_host_workers(1);
  LaunchSpec spec;
  spec.threads = 64;
  Tally tally;
  Tally* tp = &tally;
  EXPECT_THROW(dev.launch(spec,
                          [tp](BlockCtx& ctx) -> Lane {
                            Tracked first(tp);
                            co_await ctx.sync();
                            Tracked second(tp);
                            if (ctx.tid() == 37)
                              throw std::runtime_error("lane 37");
                            co_await ctx.sync();
                          }),
               std::runtime_error);
  EXPECT_EQ(tally.constructed, 64 + 38);
  EXPECT_EQ(tally.destroyed, tally.constructed);

  // The arena rewound with the aborted block: the next launch runs clean.
  std::vector<int> hits(64, 0);
  int* h = hits.data();
  dev.launch(spec, [h](BlockCtx& ctx) -> Lane {
    co_await ctx.sync();
    ctx.global(h).st(ctx.tid(), 1);
  });
  EXPECT_EQ(hits, std::vector<int>(64, 1));
}

TEST(Lane, RepeatLaunchGrowsArenaByZeroBytes) {
  Device dev;
  dev.set_host_workers(1);  // blocks run on this thread, on its arena
  LaunchSpec spec;
  spec.blocks = 3;
  spec.threads = 64;
  std::vector<float> data(64, 1.0f);
  float* dp = data.data();
  const auto kernel = [dp](BlockCtx& ctx) -> Lane {
    auto tile = ctx.reg_tile<gfloat>(8, 8);
    auto sh = ctx.shared<float>(64);
    tile.set(0, 0, ctx.global(dp).ld(ctx.tid()));
    co_await ctx.sync();
    sh.st(ctx.tid(), tile.get(0, 0) * gfloat(2.0f));
    co_await ctx.sync();
    ctx.global(dp).st(ctx.tid(), sh.ld((ctx.tid() + 1) % 64));
  };
  dev.launch(spec, kernel);
  const std::size_t after_first = lane_arena_bytes();
  EXPECT_GT(after_first, 0u);
  dev.launch(spec, kernel);
  EXPECT_EQ(lane_arena_bytes(), after_first);
}

}  // namespace
}  // namespace regla::simt
