// Regression tests for the phase-slice order of a launch's trace export and
// the address-log truncation accounting.
//
// The comparator tests pin down the strict-weak-ordering contract the old
// slice comparator violated (both cmp(a,b) and cmp(b,a) held for a
// panel-indexed load against the panel -1 load — UB in std::stable_sort).
// The exported slices themselves are checked end to end by
// Trace.ChromeJsonWellFormedAndComplete, and escaping of span names by
// ObsTrace.SpanNamesWithQuotesExportAsValidJson.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "simt/simt.h"
#include "simt/timing.h"
#include "simt/trace.h"

namespace regla::simt {
namespace {

TaggedCycles slice(int panel, OpTag tag, double cycles = 1.0) {
  TaggedCycles s;
  s.panel = panel;
  s.tag = tag;
  s.cycles = cycles;
  return s;
}

TEST(TraceSort, SliceBeforeIsAStrictWeakOrdering) {
  // Every (panel, tag) shape the kernels emit, plus the pair that broke the
  // old comparator: a panel-indexed load vs the panel -1 load.
  const std::vector<TaggedCycles> slices = {
      slice(-1, OpTag::load),  slice(-1, OpTag::store),
      slice(-1, OpTag::other), slice(0, OpTag::form_hh),
      slice(0, OpTag::rank1),  slice(1, OpTag::matvec),
      slice(2, OpTag::load),   slice(2, OpTag::rank1),
  };
  for (const auto& a : slices) {
    EXPECT_FALSE(slice_before(a, a)) << "irreflexivity";
    for (const auto& b : slices) {
      EXPECT_FALSE(slice_before(a, b) && slice_before(b, a))
          << "asymmetry: panels " << a.panel << "/" << b.panel << " tags "
          << static_cast<int>(a.tag) << "/" << static_cast<int>(b.tag);
      for (const auto& c : slices) {
        if (slice_before(a, b) && slice_before(b, c)) {
          EXPECT_TRUE(slice_before(a, c)) << "transitivity";
        }
      }
    }
  }
}

TEST(TraceSort, ExecutionOrderLoadFirstStoreLast) {
  const auto load = slice(-1, OpTag::load);
  const auto store = slice(-1, OpTag::store);
  const auto p0 = slice(0, OpTag::form_hh);
  const auto p2 = slice(2, OpTag::rank1);
  EXPECT_TRUE(slice_before(load, p0));
  EXPECT_TRUE(slice_before(p0, p2));
  EXPECT_TRUE(slice_before(p2, store));
  EXPECT_TRUE(slice_before(load, store));
  // Untagged panel -1 work sorts with the load prologue, before panels.
  EXPECT_TRUE(slice_before(slice(-1, OpTag::other), p0));
}

// --- Address-log truncation accounting -------------------------------------

TEST(StatsTruncation, ThreadStatsFlagPastAddrCap) {
  ThreadStats s;
  const std::size_t over = ThreadStats::kAddrCap + 10;
  for (std::size_t i = 0; i < over; ++i)
    s.record_shared(static_cast<std::uint32_t>(i));
  EXPECT_EQ(s.sh_accesses, over);                     // counts stay exact
  EXPECT_EQ(s.sh_addrs.size(), ThreadStats::kAddrCap);  // addresses sampled
  EXPECT_TRUE(s.addrs_truncated);
  s.reset();
  EXPECT_FALSE(s.addrs_truncated);

  for (std::size_t i = 0; i < over; ++i)
    s.record_global(i * 4, 4, /*is_load=*/true, 128);
  EXPECT_TRUE(s.addrs_truncated);
}

TEST(StatsTruncation, FoldPropagatesTheFlag) {
  std::vector<ThreadStats> threads(2);
  for (std::size_t i = 0; i < ThreadStats::kAddrCap + 1; ++i)
    threads[1].record_shared(static_cast<std::uint32_t>(i % 64));
  const auto p = fold_phase(DeviceConfig::quadro6000(), threads, OpTag::other,
                            -1, true);
  EXPECT_TRUE(p.addrs_truncated);

  std::vector<ThreadStats> clean(2);
  clean[0].record_shared(3);
  const auto q = fold_phase(DeviceConfig::quadro6000(), clean, OpTag::other,
                            -1, true);
  EXPECT_FALSE(q.addrs_truncated);
}

TEST(StatsTruncation, LaunchExportsTruncationCounter) {
  obs::counter("engine.addr_truncations").reset();
  Device dev;
  LaunchSpec spec;
  spec.threads = 1;
  const int over = static_cast<int>(ThreadStats::kAddrCap) + 100;
  const auto res = dev.launch(spec, [=](BlockCtx& ctx) -> Lane {
    auto sh = ctx.shared<int>(4);
    for (int i = 0; i < over; ++i) sh.st(i % 4, i);
    co_return;
  });
  EXPECT_GE(res.totals.addr_truncations, 1u);
  EXPECT_GE(obs::counter("engine.addr_truncations").value(), 1u);

  // A tiny launch must not trip the cap.
  obs::counter("engine.addr_truncations").reset();
  const auto small = dev.launch(spec, [](BlockCtx& ctx) -> Lane {
    auto sh = ctx.shared<int>(4);
    sh.st(0, 1);
    co_return;
  });
  EXPECT_EQ(small.totals.addr_truncations, 0u);
  EXPECT_EQ(obs::counter("engine.addr_truncations").value(), 0u);
}

}  // namespace
}  // namespace regla::simt
