// Fault injection and the runtime's resilience policies.
//
// EngineFault.* drive the simt::Device fault hooks directly (determinism,
// latency spikes, poisoned results). RuntimeFault.* drive the serving
// runtime's typed-error taxonomy through the solve_override hook (no kernels,
// TSan-friendly): bounded retry with backoff, end-to-end deadlines, shed-on-
// saturation admission control, and the accounting invariant that every
// future issued resolves exactly once, typed. RuntimeFaultSolve.* run the
// real kernels against a hostile device config (CPU fallback numerics, the
// per-stream circuit breaker).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/generators.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "simt/simt.h"
#include "test_util.h"

namespace regla {
namespace {

using namespace std::chrono_literals;
using planner::Op;
using runtime::DeadlineExceeded;
using runtime::QueueSaturated;
using runtime::Report;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::Signature;
using runtime::SubmitOptions;
using runtime::TransientLaunchFailure;

// --- Engine hooks ----------------------------------------------------------

simt::LaunchSpec tiny_spec(int blocks = 4) {
  simt::LaunchSpec spec;
  spec.blocks = blocks;
  spec.threads = 32;
  spec.name = "fault_probe";
  return spec;
}

/// Launch a kernel that marks which blocks actually ran.
std::set<int> launch_marking(simt::Device& dev, int blocks,
                             simt::LaunchResult* out = nullptr) {
  std::vector<int> hits(blocks, 0);
  int* h = hits.data();
  const simt::LaunchResult res =
      dev.launch(tiny_spec(blocks), [=](simt::BlockCtx& ctx) -> simt::Lane {
        if (ctx.tid() == 0) ctx.global(h).st(ctx.block(), 1);
        co_return;
      });
  if (out) *out = res;
  std::set<int> ran;
  for (int b = 0; b < blocks; ++b)
    if (hits[b]) ran.insert(b);
  return ran;
}

// Two devices with the same seed must fail on exactly the same launch
// ordinals; a different seed must produce a different (non-empty,
// non-universal) failure set at a 30% rate over 50 launches.
TEST(EngineFault, FailuresAreDeterministicInSeedAndOrdinal) {
  const auto failing_ordinals = [](std::uint64_t seed) {
    simt::DeviceConfig cfg;
    cfg.faults.seed = seed;
    cfg.faults.launch_failure_rate = 0.3;
    simt::Device dev(cfg);
    std::set<int> failed;
    for (int i = 0; i < 50; ++i) {
      try {
        launch_marking(dev, 2);
      } catch (const TransientLaunchFailure&) {
        failed.insert(i);
      }
    }
    EXPECT_EQ(dev.fault_stats().launches, 50u);
    EXPECT_EQ(dev.fault_stats().launch_failures, failed.size());
    return failed;
  };
  const std::set<int> a = failing_ordinals(0x5eed);
  const std::set<int> b = failing_ordinals(0x5eed);
  const std::set<int> c = failing_ordinals(0xd1ce);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.size(), 0u);   // 50 draws at 30%: all-pass is ~1e-8
  EXPECT_LT(a.size(), 50u);  // and all-fail even less likely
}

// A failed launch throws before any block runs: the next successful launch
// still executes everything (retry-safe by contract).
TEST(EngineFault, FailedLaunchRunsNoBlocks) {
  simt::DeviceConfig cfg;
  cfg.faults.launch_failure_rate = 0.5;
  simt::Device dev(cfg);
  for (int i = 0; i < 20; ++i) {
    try {
      EXPECT_EQ(launch_marking(dev, 4).size(), 4u);
    } catch (const TransientLaunchFailure&) {
      // Throw happened before the kernel body: nothing to check here; the
      // *next* non-throwing launch proves state was untouched.
    }
  }
  EXPECT_GT(dev.fault_stats().launch_failures, 0u);
}

// A latency spike stretches the reported timing by exactly the multiplier
// and leaves the results alone.
TEST(EngineFault, LatencySpikeStretchesTimingOnly) {
  simt::Device clean;
  simt::LaunchResult clean_res;
  EXPECT_EQ(launch_marking(clean, 4, &clean_res).size(), 4u);

  simt::DeviceConfig cfg;
  cfg.faults.latency_spike_rate = 1.0;
  cfg.faults.latency_spike_multiplier = 8.0;
  simt::Device spiky(cfg);
  simt::LaunchResult spiky_res;
  EXPECT_EQ(launch_marking(spiky, 4, &spiky_res).size(), 4u);

  EXPECT_DOUBLE_EQ(spiky_res.chip_cycles, 8.0 * clean_res.chip_cycles);
  EXPECT_EQ(spiky.fault_stats().latency_spikes, 1u);
}

// A poisoned launch reports success but silently skips exactly one block —
// the simulator's stand-in for silent data corruption.
TEST(EngineFault, PoisonedResultSkipsExactlyOneBlock) {
  simt::DeviceConfig cfg;
  cfg.faults.poisoned_result_rate = 1.0;
  simt::Device dev(cfg);
  const std::set<int> ran = launch_marking(dev, 4);
  EXPECT_EQ(ran.size(), 3u);
  EXPECT_EQ(ran.count(0), 0u);  // launch ordinal 0 poisons block 0 % 4
  EXPECT_EQ(dev.fault_stats().poisoned_launches, 1u);
}

// --- Runtime resilience (override-driven, no kernels) ----------------------

constexpr int kN = 8;

BatchF marked_batch(int count, float mark) {
  BatchF a(count, kN, kN);
  for (int i = 0; i < count * a.stride(); ++i) a.data()[i] = mark;
  return a;
}

/// An override that throws TransientLaunchFailure while `failures` lasts,
/// then doubles every element (so a successful retry is visible in the
/// data — and a retry of a half-written payload would show as x4).
struct FlakySolver {
  std::atomic<int> failures{0};
  std::atomic<int> calls{0};
  std::chrono::milliseconds delay{0};

  RuntimeOptions options() {
    RuntimeOptions opt;
    opt.solve_override = [this](const Signature&, BatchF& a, BatchF& b) {
      calls.fetch_add(1);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      // Half-write before throwing: proves the runtime restores the payload
      // between attempts (a retry from this state would double the
      // already-doubled first problem).
      if (a.count() > 0) a.at(0, 0, 0) *= 2.0f;
      if (failures.fetch_sub(1) > 0)
        throw TransientLaunchFailure("injected by test");
      for (int i = 1; i < a.count() * a.stride(); ++i) a.data()[i] *= 2.0f;
      for (int i = 0; i < b.count() * b.stride(); ++i) b.data()[i] *= 2.0f;
      SolveReport r;
      r.nominal_flops = a.count();
      return r;
    };
    return opt;
  }
};

TEST(RuntimeFault, RetryRecoversFromTransientFailures) {
  FlakySolver flaky;
  flaky.failures = 2;
  auto opt = flaky.options();
  opt.max_batch_delay = 0us;
  opt.max_retries = 3;
  opt.retry_backoff = 100us;
  const std::uint64_t retries0 = obs::counter_value("runtime.retries");
  Runtime rt(opt);
  Report r = rt.submit(Op::qr, marked_batch(2, 3.0f)).get();
  EXPECT_EQ(r.retries, 2);
  EXPECT_FALSE(r.solved_on_cpu);
  // Payload restored between attempts: exactly one doubling survived.
  EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(r.a.at(1, kN - 1, kN - 1), 6.0f);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 1u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(obs::counter_value("runtime.retries") - retries0, 2u);
  EXPECT_EQ(flaky.calls.load(), 3);
}

TEST(RuntimeFault, ExhaustedRetriesResolveTyped) {
  FlakySolver flaky;
  flaky.failures = 1000;  // never succeeds
  auto opt = flaky.options();
  opt.max_batch_delay = 0us;
  opt.max_retries = 1;
  opt.retry_backoff = 100us;
  Runtime rt(opt);
  auto fut = rt.submit(Op::qr, marked_batch(2, 1.0f));
  EXPECT_THROW(fut.get(), TransientLaunchFailure);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 0u);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_EQ(st.deadline_exceeded, 0u);
  EXPECT_EQ(st.shed, 0u);
}

// A request whose deadline lands inside a long coalescing window must not
// wait out max_batch_delay: the deadline pulls the flush forward and the
// future resolves DeadlineExceeded promptly, never silently late.
TEST(RuntimeFault, DeadlinePullsFlushForwardAndFailsTyped) {
  FlakySolver healthy;
  healthy.delay = 30ms;  // slower than the deadline: delivery gate must fire
  auto opt = healthy.options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  SubmitOptions sopts;
  sopts.deadline = 10ms;
  const auto t0 = std::chrono::steady_clock::now();
  auto fut = rt.submit(Op::qr, marked_batch(1, 1.0f), {}, sopts);
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);  // not 10s
  EXPECT_THROW(fut.get(), DeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.deadline_exceeded, 1u);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_EQ(st.fulfilled, 0u);
}

// The at-delivery gate: a result computed past the deadline is discarded,
// the future resolves typed.
TEST(RuntimeFault, LateResultIsDiscardedNotDeliveredSilently) {
  FlakySolver slow;
  slow.delay = 30ms;
  auto opt = slow.options();
  opt.max_batch_delay = 0us;
  opt.default_deadline = 5ms;  // inherited by plain submissions
  Runtime rt(opt);
  auto fut = rt.submit(Op::qr, marked_batch(1, 1.0f));
  EXPECT_THROW(fut.get(), DeadlineExceeded);
  rt.shutdown();
  EXPECT_EQ(rt.stats().deadline_exceeded, 1u);
}

TEST(RuntimeFault, SaturatedQueueShedsTyped) {
  FlakySolver healthy;
  auto opt = healthy.options();
  opt.max_batch_delay = 10s;  // nothing flushes on its own
  opt.max_queue_problems = 4;
  opt.shed_on_saturation = true;
  const std::uint64_t shed0 = obs::counter_value("runtime.shed");
  Runtime rt(opt);
  auto admitted = rt.submit(Op::qr, marked_batch(4, 2.0f));  // fills the bound
  auto shed = rt.submit(Op::qr, marked_batch(1, 9.0f));      // over it
  EXPECT_THROW(shed.get(), QueueSaturated);  // resolves without blocking
  rt.flush();
  Report r = admitted.get();
  EXPECT_FLOAT_EQ(r.a.at(3, 0, 0), 4.0f);  // the admitted one still solves
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.requests, 1u);  // shed futures were never admitted
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_EQ(st.fulfilled, 1u);
  EXPECT_EQ(obs::counter_value("runtime.shed") - shed0, 1u);
}

// Without shedding, a blocked submitter's own deadline still applies: the
// queue must not eat the request silently.
TEST(RuntimeFault, BlockedSubmitHonorsDeadline) {
  FlakySolver healthy;
  auto opt = healthy.options();
  opt.max_batch_delay = 10s;
  opt.max_queue_problems = 4;
  Runtime rt(opt);
  auto admitted = rt.submit(Op::qr, marked_batch(4, 2.0f));
  SubmitOptions sopts;
  sopts.deadline = 20ms;
  auto fut = rt.submit(Op::qr, marked_batch(1, 9.0f), {}, sopts);
  EXPECT_THROW(fut.get(), DeadlineExceeded);  // returned after ~20ms, typed
  rt.flush();
  EXPECT_FLOAT_EQ(admitted.get().a.at(0, 0, 0), 4.0f);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.deadline_exceeded, 1u);
  EXPECT_EQ(st.requests, 1u);
}

// The invariant the bench's resilience sweep also checks: every future
// issued resolves exactly once — fulfilled + failed_requests reconciles, and
// the typed counters partition the failures.
TEST(RuntimeFault, AccountingReconcilesUnderFaults) {
  FlakySolver flaky;
  auto opt = flaky.options();
  opt.max_batch_delay = 0us;
  opt.max_retries = 3;
  opt.retry_backoff = 50us;
  Runtime rt(opt);
  constexpr int kFutures = 40;
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < kFutures; ++i) {
    if (i % 4 == 0) flaky.failures = 1;  // every 4th request fails once
    futs.push_back(rt.submit(Op::qr, marked_batch(1, float(i + 1))));
    rt.wait_idle();  // serialize so the failure lands on request i
  }
  int ok = 0, failed = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++ok;
    } catch (const Error&) {
      ++failed;
    }
  }
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(ok + failed, kFutures);
  EXPECT_EQ(st.fulfilled + st.failed_requests,
            static_cast<std::uint64_t>(kFutures));
  EXPECT_EQ(st.fulfilled, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(failed, 0);  // retry budget covers one failure per request
  EXPECT_EQ(st.retries, 10u);
  EXPECT_GE(st.shed + st.deadline_exceeded, 0u);  // typed subsets of failures
  EXPECT_LE(st.shed + st.deadline_exceeded, st.failed_requests);
}

// --- Real kernels against a hostile device ---------------------------------

// Graceful degradation: with the device failing every launch, the CPU
// fallback must produce the same solutions the healthy device path does.
TEST(RuntimeFaultSolve, CpuFallbackAgreesWithDevice) {
  constexpr int kCount = 8, n = 16;
  BatchF a0(kCount, n, n), b0(kCount, n, 1);
  fill_diag_dominant(a0, 0x5eed);
  fill_uniform(b0, 0x50b5);

  const auto run = [&](RuntimeOptions opt, const simt::DeviceConfig& cfg) {
    opt.devices = {{"dev0", cfg, 1}};
    opt.max_batch_delay = 0us;
    Runtime rt(opt);
    BatchF a = a0, b = b0;
    Report r = rt.submit(Op::solve_gj, std::move(a), std::move(b)).get();
    rt.shutdown();
    return r;
  };

  const Report healthy = run(RuntimeOptions{}, simt::DeviceConfig{});
  simt::DeviceConfig broken;
  broken.faults.launch_failure_rate = 1.0;
  RuntimeOptions hostile;
  hostile.max_retries = 1;
  hostile.retry_backoff = 100us;
  hostile.cpu_fallback = true;
  const Report degraded = run(hostile, broken);

  EXPECT_FALSE(healthy.solved_on_cpu);
  EXPECT_TRUE(degraded.solved_on_cpu);
  // Same solutions, different elimination order: small float tolerance.
  EXPECT_LT(testing::worst_solve_residual(a0, healthy.b, b0), 2e-3f);
  EXPECT_LT(testing::worst_solve_residual(a0, degraded.b, b0), 2e-3f);
  for (int k = 0; k < kCount; ++k)
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(degraded.b.at(k, i, 0), healthy.b.at(k, i, 0), 5e-3f)
          << "problem " << k << " row " << i;
}

// The circuit breaker: after the configured number of exhausted-retry
// episodes the stream stops attempting device launches and degrades
// straight to the CPU until the cooldown passes.
TEST(RuntimeFaultSolve, CircuitBreakerSkipsBrokenDevice) {
  simt::DeviceConfig broken;
  broken.faults.launch_failure_rate = 1.0;
  RuntimeOptions opt;
  // One stream, so both requests hit the same breaker.
  opt.devices = {{"dev0", broken, 1}};
  opt.max_batch_delay = 0us;
  opt.max_retries = 0;
  opt.circuit_break_after = 1;
  opt.circuit_cooldown = 10s;  // stays open for the whole test
  opt.cpu_fallback = true;
  Runtime rt(opt);

  BatchF a1(2, 8, 8), a2(2, 8, 8);
  fill_diag_dominant(a1, 0x111);
  fill_diag_dominant(a2, 0x222);
  Report r1 = rt.submit(Op::lu, std::move(a1)).get();
  Report r2 = rt.submit(Op::lu, std::move(a2)).get();
  rt.shutdown();

  EXPECT_TRUE(r1.solved_on_cpu);  // retries exhausted -> breaker trips
  EXPECT_TRUE(r2.solved_on_cpu);  // circuit open -> no device attempt
  const auto st = rt.stats();
  EXPECT_EQ(st.circuit_opens, 1u);
  EXPECT_EQ(st.fallback_cpu, 2u);
  EXPECT_EQ(st.fulfilled, 2u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.retries, 0u);  // max_retries=0: failures, never retries
}

// With a realistically flaky device (10% launch failures) and the full
// policy stack on, a burst of traffic completes with every future resolved:
// solved, or typed — zero hangs, zero silent drops.
TEST(RuntimeFaultSolve, FlakyDeviceBurstFullyAccounted) {
  simt::DeviceConfig flaky;
  flaky.faults.launch_failure_rate = 0.10;
  RuntimeOptions opt;
  opt.devices = {{"dev0", flaky, 2}};
  opt.max_batch_delay = 200us;
  opt.max_retries = 3;
  opt.retry_backoff = 100us;
  opt.cpu_fallback = true;
  Runtime rt(opt);

  constexpr int kFutures = 32;
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < kFutures; ++i) {
    BatchF a(2, 8, 8);
    fill_diag_dominant(a, 0x1000 + static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::lu, std::move(a)));
  }
  int ok = 0, failed = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(30s), std::future_status::ready);  // zero hangs
    try {
      f.get();
      ++ok;
    } catch (const Error&) {
      ++failed;
    }
  }
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(ok + failed, kFutures);
  EXPECT_EQ(st.fulfilled + st.failed_requests,
            static_cast<std::uint64_t>(kFutures));
  EXPECT_EQ(failed, 0);  // 3 retries + CPU fallback: nothing should fail
}

}  // namespace
}  // namespace regla
