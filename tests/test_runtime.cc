// The serving runtime: coalescing, flush policy (size / deadline / manual /
// shutdown), backpressure, exception isolation, and end-to-end numerics
// through real kernels.
//
// RuntimeQueue.* tests exercise the queueing machinery through the
// solve_override hook (no kernels, TSan-friendly); RuntimeSolve.* run the real
// simulated kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/generators.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "runtime/timer_wheel.h"
#include "test_util.h"

namespace regla {
namespace {

using namespace std::chrono_literals;
using planner::Op;
using runtime::FlushReason;
using runtime::Report;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::Signature;

constexpr float kPoison = -777.0f;

/// An override that doubles every element (so scatter offsets are visible)
/// and throws when any problem is poisoned (for isolation tests).
SolveReport doubling_override(const Signature&, BatchF& a, BatchF& b) {
  for (int k = 0; k < a.count(); ++k)
    if (a.at(k, 0, 0) == kPoison) throw std::runtime_error("injected fault");
  for (int i = 0; i < a.count() * a.stride(); ++i) a.data()[i] *= 2.0f;
  for (int i = 0; i < b.count() * b.stride(); ++i) b.data()[i] *= 2.0f;
  SolveReport r;
  r.nominal_flops = a.count();
  return r;
}

RuntimeOptions queue_options() {
  RuntimeOptions opt;
  opt.solve_override = doubling_override;
  return opt;
}

BatchF marked_batch(int count, int n, float mark) {
  BatchF a(count, n, n);
  for (int i = 0; i < count * a.stride(); ++i) a.data()[i] = mark;
  return a;
}

// Zero delay disables coalescing: every submission is its own device batch,
// flushed on arrival with a deadline reason (the bench's baseline mode).
TEST(RuntimeQueue, ZeroDelayFlushesEverySubmission) {
  auto opt = queue_options();
  opt.max_batch_delay = 0us;
  Runtime rt(opt);
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(rt.submit(Op::qr, marked_batch(2, 8, float(i + 1))));
  for (int i = 0; i < 6; ++i) {
    Report r = futs[i].get();
    EXPECT_EQ(r.flush, FlushReason::deadline);
    EXPECT_EQ(r.coalesced_requests, 1);
    EXPECT_EQ(r.coalesced_problems, 2);
    EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), 2.0f * float(i + 1));
  }
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.batches, 6u);
  EXPECT_EQ(st.flushed(FlushReason::deadline), 6u);
  EXPECT_EQ(st.flushed(FlushReason::size), 0u);
}

// Once a queue holds the model-preferred batch, it flushes without waiting
// for the deadline, and every rider sees the full coalesced size.
TEST(RuntimeQueue, SizeFlushAtModelTarget) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;  // deadline must not fire in this test
  opt.max_flush_problems = 64;
  Runtime rt(opt);
  const Signature sig{Op::qr, 8, 8, planner::Dtype::f32, 0,
                      core::Layout::cyclic2d};
  ASSERT_EQ(rt.preferred_batch(sig), 64);  // per-thread concurrent >> cap

  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(rt.submit(Op::qr, marked_batch(8, 8, float(i + 1))));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(futs[i].wait_for(5s), std::future_status::ready) << i;
    Report r = futs[i].get();
    EXPECT_EQ(r.flush, FlushReason::size);
    EXPECT_EQ(r.coalesced_problems, 64);
    EXPECT_EQ(r.coalesced_requests, 8);
    // Scatter must return each request its own (doubled) slab.
    for (int k = 0; k < 8; ++k)
      EXPECT_FLOAT_EQ(r.a.at(k, 7, 7), 2.0f * float(i + 1));
  }
  rt.wait_idle();  // futures resolve before the batch's stats are recorded
  const auto st = rt.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.flushed(FlushReason::size), 1u);
  EXPECT_DOUBLE_EQ(st.mean_batch(), 64.0);
}

// A single straggler below the size target must still complete: the
// max_batch_delay deadline flushes it.
TEST(RuntimeQueue, DeadlineFlushesSingleStraggler) {
  auto opt = queue_options();
  opt.max_batch_delay = 2ms;
  Runtime rt(opt);
  auto fut = rt.submit(Op::qr, marked_batch(3, 8, 5.0f));
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  Report r = fut.get();
  EXPECT_EQ(r.flush, FlushReason::deadline);
  EXPECT_EQ(r.coalesced_requests, 1);
  EXPECT_EQ(r.coalesced_problems, 3);
  EXPECT_GE(r.queue_seconds, 0.002 * 0.5);  // it did wait for the deadline
  rt.wait_idle();
  EXPECT_EQ(rt.stats().flushed(FlushReason::deadline), 1u);
}

// try_submit on a full queue fails fast with nullopt; blocking submit waits
// until a flush makes room.
TEST(RuntimeQueue, BackpressureRejectsAndUnblocks) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;
  opt.max_queue_problems = 16;
  Runtime rt(opt);

  auto first = rt.submit(Op::qr, marked_batch(16, 8, 1.0f));  // queue now full
  auto rejected = rt.try_submit(Op::qr, marked_batch(1, 8, 2.0f));
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(rt.stats().rejected, 1u);

  std::atomic<bool> unblocked{false};
  std::future<Report> second;
  std::thread blocked([&] {
    second = rt.submit(Op::qr, marked_batch(8, 8, 3.0f));  // must block
    unblocked = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(unblocked.load());  // still waiting for room

  rt.flush();  // drains the queue -> the blocked submitter gets in
  blocked.join();
  EXPECT_TRUE(unblocked.load());
  rt.flush();
  first.get();
  second.get();
  rt.shutdown();
  EXPECT_EQ(rt.stats().requests, 2u);
}

// Different signatures never share a device batch, however interleaved the
// arrivals.
TEST(RuntimeQueue, MixedSignaturesStaySeparate) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;
  // The override sees only single-signature batches by construction; verify
  // through the returned shapes and per-batch homogeneous sizes.
  Runtime rt(opt);
  std::vector<std::future<Report>> small, large;
  for (int i = 0; i < 5; ++i) {
    small.push_back(rt.submit(Op::qr, marked_batch(2, 8, float(i + 1))));
    large.push_back(rt.submit(Op::qr, marked_batch(2, 12, float(i + 1))));
  }
  rt.flush();
  for (int i = 0; i < 5; ++i) {
    Report s = small[i].get(), l = large[i].get();
    EXPECT_EQ(s.a.rows(), 8);
    EXPECT_EQ(l.a.rows(), 12);
    // Each batch coalesced exactly its own signature's five requests.
    EXPECT_EQ(s.coalesced_requests, 5);
    EXPECT_EQ(l.coalesced_requests, 5);
    EXPECT_EQ(s.coalesced_problems, 10);
    EXPECT_EQ(l.coalesced_problems, 10);
    EXPECT_FLOAT_EQ(s.a.at(1, 0, 0), 2.0f * float(i + 1));
    EXPECT_FLOAT_EQ(l.a.at(1, 11, 11), 2.0f * float(i + 1));
  }
  rt.wait_idle();
  EXPECT_EQ(rt.stats().batches, 2u);
}

// One poisoned request in a coalesced batch must not poison its batchmates:
// the batch re-runs one request at a time and only the bad future throws.
TEST(RuntimeQueue, ExceptionDoesNotPoisonBatchmates) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  std::vector<std::future<Report>> good;
  good.push_back(rt.submit(Op::qr, marked_batch(2, 8, 1.0f)));
  auto bad = rt.submit(Op::qr, marked_batch(2, 8, kPoison));
  good.push_back(rt.submit(Op::qr, marked_batch(2, 8, 3.0f)));
  good.push_back(rt.submit(Op::qr, marked_batch(2, 8, 4.0f)));
  rt.flush();

  EXPECT_THROW(bad.get(), std::runtime_error);
  for (auto& f : good) {
    Report r = f.get();  // must not throw
    EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), r.a.at(1, 0, 0));
    // Solo retries report their own size.
    EXPECT_EQ(r.coalesced_requests, 1);
    EXPECT_EQ(r.coalesced_problems, 2);
  }
  rt.wait_idle();
  const auto st = rt.stats();
  EXPECT_EQ(st.isolation_retries, 4u);
  EXPECT_EQ(st.failed_requests, 1u);
}

// shutdown() flushes whatever is still queued (reason: shutdown) and then
// refuses new work.
TEST(RuntimeQueue, ShutdownFlushesPendingAndCloses) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  auto fut = rt.submit(Op::qr, marked_batch(4, 8, 9.0f));
  rt.shutdown();
  Report r = fut.get();
  EXPECT_EQ(r.flush, FlushReason::shutdown);
  EXPECT_FLOAT_EQ(r.a.at(3, 0, 0), 18.0f);
  EXPECT_THROW(rt.submit(Op::qr, marked_batch(1, 8, 1.0f)), regla::Error);
  EXPECT_EQ(rt.stats().flushed(FlushReason::shutdown), 1u);
}

// An unsupported signature must fail at submit() — and fail the same way on
// a retry. Regression: the planner rejection used to fire after the queue
// entry was inserted, leaving a zombie queue with target 0 whose next
// submission spun forever in the size-flush loop under the runtime mutex.
TEST(RuntimeQueue, UnsupportedSignatureFailsCleanlyAndRepeatedly) {
  auto opt = queue_options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  // 256x256 LU exceeds even the spilled 64-thread register budget, and
  // problems past one block support only QR/least-squares: no kernel admits
  // it.
  EXPECT_THROW(rt.submit(Op::lu, marked_batch(1, 256, 256)), regla::Error);
  EXPECT_THROW(rt.submit(Op::lu, marked_batch(1, 256, 256)), regla::Error);
  auto ok = rt.submit(Op::qr, marked_batch(2, 8, 1.0f));  // runtime still live
  rt.flush();
  EXPECT_FLOAT_EQ(ok.get().a.at(0, 0, 0), 2.0f);
  rt.shutdown();
  EXPECT_EQ(rt.stats().requests, 1u);  // the rejected submissions never count
}

// The autotune knob is incompatible with the shared planner and must be
// rejected at construction, not discovered as a race later.
TEST(RuntimeQueue, RejectsAutotune) {
  RuntimeOptions opt;
  opt.planner.autotune = true;
  EXPECT_THROW(Runtime rt(opt), regla::Error);
}

// Stats plumbing: the runtime's latency histogram covers every accepted
// request and the quantiles are ordered.
TEST(RuntimeQueue, LatencyHistogramCoversRequests) {
  auto opt = queue_options();
  opt.max_batch_delay = 0us;
  Runtime rt(opt);
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(rt.submit(Op::qr, marked_batch(1, 8, 1.0f)));
  for (auto& f : futs) f.get();
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(obs::histogram("runtime.latency_us", rt.metric_labels()).count(),
            20u);
  EXPECT_LE(st.p50_ms(), st.p99_ms());
  EXPECT_GT(st.p99_ms(), 0.0);
}

// Two Runtimes alive at once count into their own instruments: each
// stats() sees only its own traffic, the unlabeled process totals add both
// up, and the runtimes' batch counts agree with the fleets'.
TEST(RuntimeQueue, ConcurrentRuntimesKeepSeparateStats) {
  auto opt = queue_options();
  opt.max_batch_delay = 0us;  // one batch per submission
  const std::uint64_t fleet_batches0 = obs::counter_value("fleet.batches");
  const std::uint64_t requests0 = obs::counter_value("runtime.requests");
  Runtime a(opt), b(opt);
  EXPECT_NE(a.metric_labels(), b.metric_labels());
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(a.submit(Op::qr, marked_batch(1, 8, 1.0f)));
  for (int i = 0; i < 5; ++i)
    futs.push_back(b.submit(Op::qr, marked_batch(2, 8, 1.0f)));
  for (auto& f : futs) f.get();
  a.wait_idle();
  b.wait_idle();

  const auto sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.requests, 3u);
  EXPECT_EQ(sb.requests, 5u);
  EXPECT_EQ(sa.coalesced_problems, 3u);
  EXPECT_EQ(sb.coalesced_problems, 10u);
  EXPECT_EQ(sa.batches, 3u);
  EXPECT_EQ(sb.batches, 5u);
  EXPECT_EQ(obs::counter_value("runtime.requests") - requests0, 8u);
  EXPECT_EQ(sa.batches + sb.batches,
            obs::counter_value("fleet.batches") - fleet_batches0);
  for (const Runtime* rt : {&a, &b})
    EXPECT_DOUBLE_EQ(
        rt->stats().p50_ms() * 1000,
        obs::histogram("runtime.latency_us", rt->metric_labels())
            .percentile(0.50));
}

// stats() reads the instruments while workers update them: a reader thread
// snapshots in a loop under traffic (the race gate runs this under TSan),
// every counter it sees only grows, and after shutdown the accounting
// reconciles with what the callers observed.
TEST(RuntimeQueue, StatsReadConcurrentlyWithTraffic) {
  auto opt = queue_options();
  opt.max_batch_delay = 200us;
  Runtime rt(opt);
  std::atomic<bool> done{false};
  int snapshots = 0, regressions = 0;
  std::thread reader([&] {
    runtime::RuntimeStats prev;
    while (!done.load()) {
      const auto st = rt.stats();
      if (st.fulfilled < prev.fulfilled ||
          st.failed_requests < prev.failed_requests ||
          st.requests < prev.requests || st.batches < prev.batches ||
          st.coalesced_problems < prev.coalesced_problems)
        ++regressions;
      prev = st;
      ++snapshots;
    }
  });

  constexpr int kSubmitters = 2, kEach = 60;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      std::vector<std::future<Report>> futs;
      for (int i = 0; i < kEach; ++i)
        futs.push_back(rt.submit(
            Op::qr, marked_batch(2, 8, i % 7 == 3 ? kPoison : float(t + 1))));
      for (auto& f : futs) {
        try {
          f.get();
          ok.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);
        }
      }
    });
  for (auto& t : submitters) t.join();
  rt.shutdown();
  done = true;
  reader.join();

  const auto st = rt.stats();
  EXPECT_GT(snapshots, 0);
  EXPECT_EQ(regressions, 0);
  EXPECT_EQ(st.fulfilled + st.failed_requests,
            static_cast<std::uint64_t>(kSubmitters * kEach));
  EXPECT_EQ(st.fulfilled, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(st.failed_requests, static_cast<std::uint64_t>(failed.load()));
  EXPECT_GT(st.failed_requests, 0u);
}

TEST(RuntimeQueue, PreferredBatchStaysWithinFlushCap) {
  auto opt = queue_options();
  Runtime rt(opt);
  for (int n : {4, 8, 12}) {
    const Signature sig{Op::qr, n, n, planner::Dtype::f32, 0,
                        core::Layout::cyclic2d};
    const int target = rt.preferred_batch(sig);
    EXPECT_GE(target, 1);
    EXPECT_LE(target, opt.max_flush_problems);
  }
}

// --- Real kernels ----------------------------------------------------------

// Coalesced solves through the real simulated kernels must produce the same
// numerics as handing the assembled batch to a Solver directly: residuals
// small, solutions scattered back to the right request.
TEST(RuntimeSolve, GaussJordanResidualsSmall) {
  RuntimeOptions opt;
  opt.devices = {{"dev0", {}, 1}};
  opt.max_batch_delay = 10s;
  Runtime rt(opt);

  BatchF a1(4, 8, 8), a2(4, 8, 8);
  fill_diag_dominant(a1, 101);
  fill_diag_dominant(a2, 202);
  BatchF b1(4, 8, 1), b2(4, 8, 1);
  fill_uniform(b1, 303);
  fill_uniform(b2, 404);
  const BatchF a1_0 = a1, a2_0 = a2, b1_0 = b1, b2_0 = b2;

  auto f1 = rt.submit(Op::solve_gj, std::move(a1), std::move(b1));
  auto f2 = rt.submit(Op::solve_gj, std::move(a2), std::move(b2));
  rt.flush();
  Report r1 = f1.get(), r2 = f2.get();
  EXPECT_EQ(r1.coalesced_requests, 2);
  EXPECT_TRUE(r1.all_solved());
  EXPECT_TRUE(r2.all_solved());
  EXPECT_LT(testing::worst_solve_residual(a1_0, r1.b, b1_0), 1e-3f);
  EXPECT_LT(testing::worst_solve_residual(a2_0, r2.b, b2_0), 1e-3f);
}

// Complex QR submissions (the §VII signature) coalesce through the BatchC
// path and come back factored.
TEST(RuntimeSolve, ComplexQRCoalesces) {
  RuntimeOptions opt;
  opt.devices = {{"dev0", {}, 1}};
  opt.max_batch_delay = 10s;
  Runtime rt(opt);

  BatchC a1(2, 8, 8), a2(2, 8, 8);
  fill_uniform(a1, 11);
  fill_uniform(a2, 22);
  const BatchC a1_0 = a1;
  auto f1 = rt.submit(Op::qr, std::move(a1));
  auto f2 = rt.submit(Op::qr, std::move(a2));
  rt.flush();
  Report r1 = f1.get(), r2 = f2.get();
  EXPECT_EQ(r1.coalesced_problems, 4);
  EXPECT_EQ(r1.ca.count(), 2);
  EXPECT_EQ(r2.ca.count(), 2);
  // The factorization actually ran: the payload changed.
  bool changed = false;
  for (int i = 0; i < r1.ca.count() * r1.ca.stride() && !changed; ++i)
    changed = r1.ca.data()[i] != a1_0.data()[i];
  EXPECT_TRUE(changed);
}

// --- Timer wheel -----------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrderAcrossLaps) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 8);  // tiny wheel: laps happen fast
  wheel.arm(1, t0 + 250us);
  wheel.arm(2, t0 + 50us);
  wheel.arm(3, t0 + 3ms);  // several laps out
  EXPECT_EQ(wheel.next_deadline(), t0 + 50us);

  auto fired = wheel.advance(t0 + 100us);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(wheel.next_deadline(), t0 + 250us);

  fired = wheel.advance(t0 + 1ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);

  fired = wheel.advance(t0 + 5ms);  // the lapped entry fires on its lap
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelledTimersNeverFire) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  wheel.arm(1, t0 + 200us);
  wheel.arm(2, t0 + 200us);
  wheel.cancel(1);
  EXPECT_EQ(wheel.armed(), 1u);
  auto fired = wheel.advance(t0 + 1ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_TRUE(wheel.empty());
}

// Advancing over a long idle stretch is one bounded pass over the slot
// array, not a walk of every elapsed tick — and deadlines armed across the
// gap still fire exactly on time, early advances included.
TEST(TimerWheel, IdleGapAdvanceKeepsDeadlines) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  EXPECT_TRUE(wheel.advance(t0 + 1ms).empty());  // idle, nothing armed
  wheel.arm(1, t0 + 60s);  // ~600k ticks past the cursor
  wheel.arm(2, t0 + 2ms);  // much earlier — must not be delayed by #1
  auto fired = wheel.advance(t0 + 5ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(wheel.next_deadline(), t0 + 60s);
  fired = wheel.advance(t0 + 60s);  // spans minutes in one call
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_TRUE(wheel.empty());
}

// Cancelling the last live timer purges the lazily-cancelled leftovers, so
// an idle wheel carries no stale state into the next arm/advance cycle.
TEST(TimerWheel, PurgeAfterLastCancelKeepsWheelConsistent) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  wheel.arm(1, t0 + 200us);
  wheel.arm(2, t0 + 47s);
  wheel.cancel(1);
  wheel.cancel(2);
  EXPECT_TRUE(wheel.empty());
  EXPECT_TRUE(wheel.advance(t0 + 1ms).empty());
  wheel.arm(3, t0 + 50s);
  auto fired = wheel.advance(t0 + 50s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
  EXPECT_TRUE(wheel.empty());
}

// Regression: cancel then re-arm of the same id while OTHER timers stay
// live, so the empty-wheel purge never runs. arm() used to leave the id in
// the cancelled set; advance()'s dead-on-sight check then consumed the
// cancellation against the NEW entry and the re-armed timer never fired
// (and the stale entry could fire on a later lap instead). arm() now
// consumes the cancellation and drops the stale entry eagerly.
TEST(TimerWheel, ReArmAfterCancelFiresExactlyOnce) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  wheel.arm(9, t0 + 10s);  // keeps the wheel non-empty: no purge below
  wheel.arm(1, t0 + 300us);
  wheel.cancel(1);
  wheel.arm(1, t0 + 500us);  // re-arm the same id before any advance
  EXPECT_EQ(wheel.armed(), 2u);
  EXPECT_EQ(wheel.next_deadline(), t0 + 500us);
  // The cancelled incarnation's deadline must not fire...
  EXPECT_TRUE(wheel.advance(t0 + 400us).empty());
  // ...and the re-armed one fires exactly once, on its own deadline.
  auto fired = wheel.advance(t0 + 1ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_TRUE(wheel.advance(t0 + 5ms).empty());
  fired = wheel.advance(t0 + 10s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
  EXPECT_TRUE(wheel.empty());
}

// Same regression, with the stale and fresh entries hashing to the same
// slot (identical deadline): the eager removal must strip exactly the stale
// entry, not the one just armed.
TEST(TimerWheel, ReArmSameDeadlineSameSlot) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  wheel.arm(9, t0 + 10s);
  wheel.arm(1, t0 + 300us);
  wheel.cancel(1);
  wheel.arm(1, t0 + 300us);
  EXPECT_EQ(wheel.armed(), 2u);
  auto fired = wheel.advance(t0 + 1ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_EQ(wheel.armed(), 1u);
}

TEST(TimerWheel, SameGranuleDeadlineWaitsForItsMoment) {
  using runtime::TimerWheel;
  const auto t0 = TimerWheel::Clock::time_point{};
  TimerWheel wheel(t0, 100us, 16);
  wheel.arm(1, t0 + 150us);
  // Advance into the deadline's granule but before the deadline itself.
  EXPECT_TRUE(wheel.advance(t0 + 120us).empty());
  // The cursor stayed on the granule: the entry fires once due.
  auto fired = wheel.advance(t0 + 150us);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
}

}  // namespace
}  // namespace regla
