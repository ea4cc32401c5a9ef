// Tests for the obs subsystem: typed metric instruments, the registry's
// label handling, the trace ring (overflow accounting, concurrent emission), JSON escaping,
// and the end-to-end runtime timeline. Suites are named Obs* so the tier-2
// race gates (scripts/tier2_tsan.sh / tier2_asan.sh) can select them.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/generators.h"
#include "json_check.h"
#include "obs/obs.h"
#include "runtime/runtime.h"

namespace regla {
namespace {

// --- Instruments -----------------------------------------------------------

TEST(ObsMetrics, CounterAddsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeTracksLastValue) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramEmptyIsZeroEverywhere) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(ObsMetrics, HistogramSingleSampleEveryQuantile) {
  obs::Histogram h;
  h.record(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.mean(), 100.0);
  // All quantiles land in the one occupied bucket; resolution is the
  // sqrt(2) bucket width (~±19%).
  const double p = h.percentile(0.5);
  EXPECT_EQ(h.percentile(0.0), p);
  EXPECT_EQ(h.percentile(1.0), p);
  EXPECT_NEAR(p, 100.0, 20.0);
}

TEST(ObsMetrics, HistogramQuantileClampsAndOrders) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
  EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
  EXPECT_LE(h.percentile(0.99), h.percentile(1.0));
  EXPECT_NEAR(h.percentile(0.5), 500.0, 100.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-6);
}

TEST(ObsMetrics, HistogramBucketGeometry) {
  // Bucket 0 holds everything <= 1 (and NaN); exact powers of two land on
  // their own bucket boundary.
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(2.0), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4.0), 4);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(2), 2.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(4), 4.0);
  obs::Histogram h;
  h.record(0.25);
  EXPECT_EQ(h.percentile(0.5), 1.0);  // sub-1 samples report bucket 0's bound
}

TEST(ObsMetrics, RegistryLabelsDistinguishInstruments) {
  obs::Counter& qr = obs::counter("obstest.ops", "op=qr");
  obs::Counter& lu = obs::counter("obstest.ops", "op=lu");
  EXPECT_NE(&qr, &lu);
  qr.add(3);
  EXPECT_EQ(obs::counter("obstest.ops", "op=qr").value(), 3u);
  EXPECT_EQ(lu.value(), 0u);
  // Same (name, labels) -> same instrument.
  EXPECT_EQ(&obs::counter("obstest.ops", "op=qr"), &qr);
}

// Unlabeled reads are process totals: counter_value(name) sums the bare
// counter and every labeled one of the same name, and nothing else.
TEST(ObsMetrics, CounterValueSumsEveryLabelSet) {
  obs::reset_all();
  obs::counter("obstest.sum").add(1);
  obs::counter("obstest.sum", "a=1").add(10);
  obs::counter("obstest.sum", "a=2").add(100);
  obs::counter("obstest.sum_other").add(1000);  // shares the prefix only
  obs::counter("obstest.sumx", "a=1").add(1000);
  EXPECT_EQ(obs::counter_value("obstest.sum"), 111u);
  EXPECT_EQ(obs::counter_value("obstest.sum", "a=2"), 100u);
  EXPECT_EQ(obs::counter_value("obstest.sum", "a=9"), 0u);
  EXPECT_EQ(obs::counter_value("obstest.never_registered"), 0u);
}

TEST(ObsMetrics, RegistryRejectsKindMismatch) {
  obs::counter("obstest.kindmix");
  EXPECT_THROW(obs::gauge("obstest.kindmix"), Error);
  EXPECT_THROW(obs::histogram("obstest.kindmix"), Error);
}

TEST(ObsMetrics, ResetAllZeroesButKeepsReferencesValid) {
  obs::Counter& c = obs::counter("obstest.reset");
  c.add(9);
  obs::reset_all();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the cached reference still works post-reset
  EXPECT_EQ(obs::counter("obstest.reset").value(), 1u);
}

TEST(ObsMetrics, ConcurrentCountersAndHistogramsAreExact) {
  obs::Counter& c = obs::counter("obstest.concurrent");
  c.reset();
  obs::Histogram& h = obs::histogram("obstest.concurrent_h");
  h.reset();
  constexpr int kThreads = 8, kOpsEach = 4096;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsEach; ++i) {
        c.add();
        h.record(static_cast<double>(i % 64));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kOpsEach);
}

TEST(ObsMetrics, DumpAndCsvExposition) {
  obs::reset_all();
  obs::counter("obstest.dump_c").add(7);
  obs::gauge("obstest.dump_g").set(1.5);
  obs::histogram("obstest.dump_h").record(10.0);

  std::ostringstream os;
  obs::dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("counter obstest.dump_c 7"), std::string::npos);
  EXPECT_NE(text.find("gauge obstest.dump_g 1.5"), std::string::npos);
  EXPECT_NE(text.find("histogram obstest.dump_h count=1"), std::string::npos);

  std::ostringstream csv;
  obs::dump_csv(csv);
  const std::string rows = csv.str();
  EXPECT_EQ(rows.rfind("type,name,field,value\n", 0), 0u);
  EXPECT_NE(rows.find("counter,obstest.dump_c,value,7"), std::string::npos);
  EXPECT_NE(rows.find("histogram,obstest.dump_h,count,1"), std::string::npos);
}

// --- JSON escaping ---------------------------------------------------------

TEST(ObsJson, EscapesEveryControlAndQuote) {
  EXPECT_EQ(obs::json_escape("plain name"), "plain name");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::json_escape("nl\ntab\tcr\r"), "nl\\ntab\\tcr\\r");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Escaped output is a valid JSON string body.
  const std::string quoted =
      "\"" + obs::json_escape("tricky \"\\\n\x02 name") + "\"";
  std::string err;
  EXPECT_TRUE(testing::json_parses(quoted, &err)) << err;
}

// --- Trace ring ------------------------------------------------------------

TEST(ObsTrace, RingOverflowKeepsNewestAndCountsDrops) {
  obs::trace_start({16});
  for (int i = 0; i < 20; ++i)
    obs::trace_complete("e", "test", static_cast<double>(i), 1.0, 1);
  obs::trace_stop();
  EXPECT_EQ(obs::trace_event_count(), 16u);
  EXPECT_EQ(obs::trace_dropped(), 4u);

  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string json = os.str();
  std::string err;
  EXPECT_TRUE(testing::json_parses(json, &err)) << err;
  EXPECT_NE(json.find("\"dropped_events\":4"), std::string::npos);
  // The four oldest events were overwritten; survivors export oldest-first.
  EXPECT_EQ(json.find("\"ts\":3,"), std::string::npos);
  const auto first_kept = json.find("\"ts\":4,");
  const auto last_kept = json.find("\"ts\":19,");
  ASSERT_NE(first_kept, std::string::npos);
  ASSERT_NE(last_kept, std::string::npos);
  EXPECT_LT(first_kept, last_kept);
}

TEST(ObsTrace, SpansNestOnTheCallingThreadsTrack) {
  obs::trace_start({64});
  {
    obs::Span outer("outer", "test");
    obs::Span inner("inner", "test");
  }
  obs::trace_stop();
  EXPECT_EQ(obs::trace_event_count(), 2u);
  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string json = os.str();
  std::string err;
  EXPECT_TRUE(testing::json_parses(json, &err)) << err;
  // Both land on the same (thread) track so Chrome nests them by time.
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
}

TEST(ObsTrace, NamedTracksAreStableAndLabeled) {
  obs::trace_start({64});
  const std::uint32_t id = obs::named_track("obstest \"queue\"");
  EXPECT_GE(id, 1u << 20);
  EXPECT_EQ(obs::named_track("obstest \"queue\""), id);
  obs::trace_complete("wait", "test", 0.0, 5.0, id);
  obs::trace_stop();
  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string json = os.str();
  std::string err;
  EXPECT_TRUE(testing::json_parses(json, &err)) << err;
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obstest \\\"queue\\\""), std::string::npos);
}

TEST(ObsTrace, SpanNamesWithQuotesExportAsValidJson) {
  obs::trace_start({64});
  { obs::Span s("span \"quoted\\name", "cat\"x"); }
  obs::trace_stop();
  std::ostringstream os;
  obs::write_trace_json(os);
  std::string err;
  EXPECT_TRUE(testing::json_parses(os.str(), &err)) << err;
}

TEST(ObsTrace, InactiveTracingRecordsNothing) {
  obs::trace_start({16});
  obs::trace_stop();
  { obs::Span s("ignored", "test"); }
  obs::trace_instant("ignored");
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, ConcurrentSpansFromManyThreads) {
  constexpr int kThreads = 8, kSpansEach = 128;
  obs::trace_start({1 << 12});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        obs::Span s("worker.op", "test");
      }
    });
  for (auto& t : threads) t.join();
  obs::trace_stop();
  EXPECT_EQ(obs::trace_event_count(),
            static_cast<std::size_t>(kThreads) * kSpansEach);
  EXPECT_EQ(obs::trace_dropped(), 0u);
  std::ostringstream os;
  obs::write_trace_json(os);
  std::string err;
  EXPECT_TRUE(testing::json_parses(os.str(), &err)) << err;
}

// --- End-to-end timeline ---------------------------------------------------

TEST(ObsRuntimeTrace, TimelineCoversEveryLayer) {
  obs::trace_start({1 << 14});
  {
    runtime::RuntimeOptions opt;
    opt.max_batch_delay = std::chrono::microseconds(200);
    runtime::Runtime rt(opt);
    std::vector<std::future<runtime::Report>> futs;
    for (int i = 0; i < 8; ++i) {
      BatchF a(2, 8, 8);
      fill_uniform(a, static_cast<std::uint64_t>(i));
      futs.push_back(rt.submit(planner::Op::qr, std::move(a)));
    }
    for (auto& f : futs) f.get();
    rt.shutdown();
  }
  obs::trace_stop();

  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string json = os.str();
  std::string err;
  EXPECT_TRUE(testing::json_parses(json, &err)) << err;
  // One timeline with submit / queue-wait / flush / planner / engine spans
  // and the per-phase launch slices nested inside the worker execute span.
  for (const char* span :
       {"runtime.submit", "runtime.queue-wait", "runtime.flush",
        "runtime.execute", "planner.plan", "engine.launch", "phase:"})
    EXPECT_NE(json.find(span), std::string::npos) << span;
}

}  // namespace
}  // namespace regla
