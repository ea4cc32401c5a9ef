// Tests for the benchmark's own statistics (stats.h).
#include <gtest/gtest.h>

#include "stats.h"

namespace hostbench {
namespace {

TEST(Percentiles, ExactWithSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Quantiles q = quantiles(v);
  EXPECT_EQ(q.count, 100u);
  EXPECT_DOUBLE_EQ(q.p50, 50.5);
  EXPECT_DOUBLE_EQ(q.p99, 99.01);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  const Quantiles f = quantiles(std::vector<float>{2.0f, 1.0f});  // float samples
  EXPECT_DOUBLE_EQ(f.p50, 1.5);
  EXPECT_EQ(f.count, 2u);
}

TEST(Percentiles, SmallAndEmptySamples) {
  EXPECT_EQ(quantiles(std::vector<double>{}).count, 0u);
  EXPECT_DOUBLE_EQ(quantiles(std::vector<double>{}).p99, 0);
  const Quantiles one = quantiles(std::vector<double>{7.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50, 7.5);
  EXPECT_DOUBLE_EQ(one.p99, 7.5);
  EXPECT_DOUBLE_EQ(percentile_sorted({1, 2}, 2.0), 2);  // q clamps to 1
}

TEST(Mode, MostFrequentSmallestOnTies) {
  EXPECT_EQ(mode({{8, 1}, {252, 2}, {256, 2}}), 252);
  EXPECT_EQ(mode({{4, 2}, {128, 1}}), 4);
  EXPECT_EQ(mode({}), 0);
}

Span span(const char* name, std::uint64_t id, std::uint64_t parent, std::int64_t lo,
          std::int64_t hi) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = lo;
  s.end_ns = hi;
  return s;
}

TEST(SelfTime, NestedOverlappingAndClippedChildren) {
  // parent [0, 100us]; children [10, 30] and [20, 50] overlap (40 covered),
  // [90, 120] reaches past the parent's end (10 covered): self = 50us.
  const std::vector<Span> spans = {
      span("req", 1, 0, 0, 100'000),         span("submit", 2, 1, 10'000, 30'000),
      span("get", 3, 1, 20'000, 50'000),     span("get", 4, 1, 90'000, 120'000),
      span("inner", 5, 3, 25'000, 35'000),   // grandchild: only reduces "get"
  };
  const auto t = self_times(spans);
  EXPECT_DOUBLE_EQ(t.at("req").total_us, 50);
  EXPECT_EQ(t.at("req").count, 1u);
  EXPECT_DOUBLE_EQ(t.at("submit").total_us, 20);
  EXPECT_DOUBLE_EQ(t.at("get").total_us, 30 - 10 + 30);
  EXPECT_EQ(t.at("get").count, 2u);
  EXPECT_DOUBLE_EQ(t.at("inner").total_us, 10);
}

TEST(SelfTime, LogRecordsNestingAndGroupedCalls) {
  SpanLog log(true);
  const auto outer = log.open("outer", 0, 7);
  const auto inner = log.open("inner", outer, 7, 4);
  log.close(inner);
  log.close(outer);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[1].req, 7u);
  const auto t = self_times(log.spans());
  EXPECT_GE(t.at("outer").total_us, 0);
  EXPECT_EQ(log.spans()[1].items, 4);

  SpanLog off(false);
  EXPECT_EQ(off.open("x"), 0u);
  off.close(0);
  EXPECT_TRUE(off.spans().empty());

  SpanLog full(true, 1);
  EXPECT_EQ(full.open("a"), 1u);
  EXPECT_EQ(full.open("b"), 0u);  // over capacity: dropped, not recorded
  EXPECT_EQ(full.dropped(), 1u);
  EXPECT_EQ(full.spans().size(), 1u);
}

TEST(Lateness, OpenLoopSentMinusDueClampedAtZero) {
  using std::chrono::microseconds;
  const std::chrono::steady_clock::time_point due{};
  EXPECT_DOUBLE_EQ(lateness_ms(due, due + microseconds(500)), 0.5);
  EXPECT_DOUBLE_EQ(lateness_ms(due, due + microseconds(2'200'000)), 2200);
  EXPECT_DOUBLE_EQ(lateness_ms(due, due - microseconds(100)), 0);  // early = on time
  EXPECT_DOUBLE_EQ(lateness_ms(due, due), 0);
}

TEST(Overhead, StreamTimeMinusIsolatedSolve) {
  // 2 streams at 500k problems/s: 4 stream-us per problem, 1.8 in the solve.
  EXPECT_NEAR(overhead_us_per_problem(2, 500'000, 1.8), 2.2, 1e-12);
  EXPECT_NEAR(overhead_us_per_problem(2, 2 * 1e6 / 540, 550), -10, 1e-9);
  EXPECT_DOUBLE_EQ(overhead_us_per_problem(2, 0, 1.8), 0);
}

}  // namespace
}  // namespace hostbench
