// The launch planner: model-guided dispatch must reproduce the paper's
// static rule at every boundary, every plan must be the model's cheapest
// candidate for the device it is asked about, and the regla::Solver facade
// must produce correct numerics end to end.
#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

#include "common/generators.h"
#include "core/batched.h"
#include "planner/planner.h"
#include "planner/solver.h"
#include "test_util.h"

namespace regla {
namespace {

using core::Approach;
using core::choose_approach;
using planner::Dtype;
using planner::Op;
using planner::Planner;
using planner::ProblemDesc;

simt::DeviceConfig quadro() { return simt::DeviceConfig::quadro6000(); }

Approach planned_approach(Op op, int m, int n, Dtype dtype = Dtype::f32) {
  Planner p;
  return p.plan(quadro(), ProblemDesc{op, m, n, 1024, dtype}).approach;
}

// The per-thread / per-block boundary (paper §IV: "e.g. n < 16"). The model
// and the static rule must agree on both sides of it.
TEST(Planner, AgreesWithStaticRuleAtPerThreadBoundary) {
  const auto cfg = quadro();
  for (int n : {15, 16, 17}) {
    const Approach expect = choose_approach(cfg, n, n);
    EXPECT_EQ(planned_approach(Op::qr, n, n), expect) << "qr n=" << n;
    EXPECT_EQ(planned_approach(Op::lu, n, n), expect) << "lu n=" << n;
    EXPECT_EQ(planned_approach(Op::solve_gj, n, n), expect) << "gj n=" << n;
  }
  EXPECT_EQ(planned_approach(Op::qr, 15, 15), Approach::per_thread);
  EXPECT_EQ(planned_approach(Op::qr, 16, 16), Approach::per_block);
}

// The per-block register-fit edge for f32 squares: 112 is the largest n the
// 64-register budget admits; 113 must fall through to the tiled chain.
TEST(Planner, AgreesWithStaticRuleAtRegisterFitEdge) {
  const auto cfg = quadro();
  ASSERT_EQ(choose_approach(cfg, 112, 112), Approach::per_block);
  ASSERT_EQ(choose_approach(cfg, 113, 113), Approach::tiled);
  EXPECT_EQ(planned_approach(Op::qr, 112, 112), Approach::per_block);
  EXPECT_EQ(planned_approach(Op::qr, 113, 113), Approach::tiled);
}

// Complex data doubles the words per element (words_per_elem = 2), which
// halves the registers available for tile elements — the STAP shapes of
// §VII. There is no complex per-thread kernel, so even tiny complex
// problems must plan per-block.
TEST(Planner, ComplexShapesAccountForWordsPerElem) {
  const auto cfg = quadro();
  ASSERT_EQ(choose_approach(cfg, 32, 32, 2), Approach::per_block);
  ASSERT_EQ(choose_approach(cfg, 48, 48, 2), Approach::tiled);
  EXPECT_EQ(planned_approach(Op::qr, 32, 32, Dtype::c64), Approach::per_block);
  // 40 x 40 complex is in the spill window: the static rule says tiled, but
  // the spilled 64-thread block kernel measures ~50% faster and the planner
  // finds it. By 48 x 48 the spill dominates and tiled wins again.
  EXPECT_EQ(planned_approach(Op::qr, 40, 40, Dtype::c64), Approach::per_block);
  EXPECT_EQ(planned_approach(Op::qr, 48, 48, Dtype::c64), Approach::tiled);
  // The STAP covariance factorization of §VII: 240 x 66 complex, tiled.
  EXPECT_EQ(planned_approach(Op::qr, 240, 66, Dtype::c64), Approach::tiled);
  // n = 8 complex is "per-thread sized", but no complex per-thread kernel
  // exists; the planner must never emit an unrunnable plan.
  EXPECT_EQ(planned_approach(Op::qr, 8, 8, Dtype::c64), Approach::per_block);
}

// The Fig. 9 thread-count choice: 64-thread blocks win while the tile is
// small, 256 once it is register-bound (measured: 64 through n = 57, 256
// from n = 64).
TEST(Planner, PicksBlockThreadsLikeTheModel) {
  Planner p;
  const auto cfg = quadro();
  const auto t64 = p.plan(cfg, ProblemDesc{Op::qr, 48, 48, 512, Dtype::f32});
  const auto t96 = p.plan(cfg, ProblemDesc{Op::qr, 96, 96, 512, Dtype::f32});
  EXPECT_EQ(t64.threads, 64);
  EXPECT_EQ(t96.threads, 256);
}

// The static rule's blind spot: f32 squares 57..72 flunk the strict register
// fit and dispatch tiled, but at n = 57 a spill-tolerated 64-thread block
// kernel measures ~18% faster. The planner's spill-extended score finds it
// (and correctly declines it by n = 64, where the spill overwhelms it).
TEST(Planner, BeatsStaticRuleInsideTheSpillWindow) {
  const auto cfg = quadro();
  ASSERT_EQ(choose_approach(cfg, 57, 57), Approach::tiled);
  Planner p;
  const auto plan = p.plan(cfg, ProblemDesc{Op::qr, 57, 57, 448, Dtype::f32});
  EXPECT_EQ(plan.approach, Approach::per_block);
  EXPECT_EQ(plan.threads, 64);
  EXPECT_EQ(planned_approach(Op::qr, 64, 64), Approach::tiled);
}

void expect_plans_identical(const planner::Plan& a, const planner::Plan& b) {
  EXPECT_EQ(a.approach, b.approach);
  EXPECT_EQ(a.layout, b.layout);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.concurrent, b.concurrent);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_cycles),
            std::bit_cast<std::uint64_t>(b.predicted_cycles));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_gflops),
            std::bit_cast<std::uint64_t>(b.predicted_gflops));
}

// plan() is candidates().front(), recomputed on every call: a repeat gives
// the same plan bit for bit, and plans_built counts every call. The sweep
// covers each kind of winner.
TEST(Planner, PlanIsTheCheapestCandidate) {
  struct Case {
    ProblemDesc desc;
    Approach approach;
    int threads;
  };
  const Case cases[] = {
      {{Op::qr, 8, 8, 256, Dtype::f32}, Approach::per_thread,
       core::kPerThreadBlockSize},
      {{Op::lu, 48, 48, 512, Dtype::f32}, Approach::per_block, 64},
      {{Op::qr, 96, 96, 512, Dtype::f32}, Approach::per_block, 256},
      {{Op::qr, 113, 113, 112, Dtype::f32}, Approach::tiled, 256},
      {{Op::qr, 32, 32, 64, Dtype::c64}, Approach::per_block, 64},
  };
  Planner p;
  const auto cfg = quadro();
  std::uint64_t calls = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << to_string(c.desc.op) << " " << to_string(c.desc.dtype)
                 << " " << c.desc.m << "x" << c.desc.n);
    const auto first = p.plan(cfg, c.desc);
    const auto repeat = p.plan(cfg, c.desc);
    calls += 2;
    EXPECT_EQ(p.stats().plans_built, calls);
    EXPECT_EQ(first.approach, c.approach);
    EXPECT_EQ(first.threads, c.threads);
    expect_plans_identical(first, p.candidates(cfg, c.desc).front());
    expect_plans_identical(repeat, first);
  }
  p.clear();
  EXPECT_EQ(p.stats().plans_built, 0u);
}

// One planner asked about two device configurations gets each one's own
// cheapest candidate, in either order: at 64x64 the quadro6000's 63
// registers per thread spill a 64-thread block and the tiled chain wins,
// while 255 registers fit the tile in one block.
TEST(Planner, PlanFollowsTheDeviceConfig) {
  Planner p;
  const auto small = quadro();
  auto big = quadro();
  big.max_regs_per_thread = 255;
  const ProblemDesc d{Op::qr, 64, 64, 512, Dtype::f32};
  const auto small_front = p.candidates(small, d).front();
  const auto big_front = p.candidates(big, d).front();
  ASSERT_EQ(small_front.approach, Approach::tiled);
  ASSERT_EQ(big_front.approach, Approach::per_block);

  expect_plans_identical(p.plan(small, d), small_front);
  expect_plans_identical(p.plan(big, d), big_front);
  expect_plans_identical(p.plan(small, d), small_front);
}

// Plans from many threads at once through one planner: every thread gets
// the same plan, and every call is counted.
TEST(Planner, ConcurrentPlansAgree) {
  constexpr int kThreads = 8;
  constexpr int kCalls = 50;
  Planner planner;
  const auto cfg = quadro();
  const ProblemDesc d{Op::qr, 32, 32, 512, Dtype::f32};
  std::vector<planner::Plan> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) plans[t] = planner.plan(cfg, d);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    expect_plans_identical(plans[t], planner.candidates(cfg, d).front());
  }
  EXPECT_EQ(planner.stats().plans_built,
            static_cast<std::uint64_t>(kThreads) * kCalls);
}

// The fingerprint salts every replay key, so a DeviceConfig field it left
// out would let a replay entry's cached runs and its memoized fold go stale
// without a miss. Perturb each non-fault field in turn: the fingerprint
// must change. Fault injection is left out on purpose (accounting does not
// depend on it; spikes and poison are applied per launch).
TEST(Planner, FingerprintCoversEveryNonFaultConfigField) {
  using Cfg = simt::DeviceConfig;
#define PERTURB(field) {#field, [](Cfg& c) { c.field += 1; }}
  const std::vector<std::pair<const char*, void (*)(Cfg&)>> perturbations = {
      PERTURB(num_sm), PERTURB(fpus_per_sm), PERTURB(clock_ghz),
      PERTURB(max_regs_per_thread), PERTURB(reg_overhead_per_thread),
      PERTURB(regfile_words_per_sm), PERTURB(shared_bytes_per_sm),
      PERTURB(max_blocks_per_sm), PERTURB(max_threads_per_sm),
      PERTURB(max_threads_per_block), PERTURB(warp_size),
      PERTURB(shared_banks), PERTURB(dram_peak_gbs),
      PERTURB(dram_achievable_gbs), PERTURB(dram_segment_bytes),
      PERTURB(global_latency_cycles), PERTURB(l2_bytes),
      PERTURB(l2_line_bytes), PERTURB(l2_hit_latency_cycles),
      PERTURB(dram_row_bytes), PERTURB(row_hit_discount_cycles),
      PERTURB(line_hit_discount_cycles), PERTURB(tlb_entries),
      PERTURB(tlb_page_bytes), PERTURB(tlb_miss_penalty_cycles),
      PERTURB(shared_latency_cycles), PERTURB(shared_cycles_per_transaction),
      PERTURB(shared_efficiency), PERTURB(fp_pipeline_cycles),
      PERTURB(fast_div_cycles), PERTURB(fast_sqrt_cycles),
      PERTURB(full_div_cycles), PERTURB(full_sqrt_cycles),
      PERTURB(sfu_issue_cycles_per_op), PERTURB(full_div_issue_instrs),
      PERTURB(full_sqrt_issue_instrs), PERTURB(l1_latency_cycles),
      PERTURB(l1_cycles_per_access), PERTURB(sync_base_cycles),
      PERTURB(sync_cycles_per_warp), PERTURB(dram_overlap_factor),
      {"fast_math", [](Cfg& c) { c.fast_math = !c.fast_math; }},
  };
#undef PERTURB
  EXPECT_EQ(perturbations.size(), 42u);
  const std::uint64_t base = Planner::config_fingerprint(quadro());
  for (const auto& [field, perturb] : perturbations) {
    Cfg cfg = quadro();
    perturb(cfg);
    EXPECT_NE(Planner::config_fingerprint(cfg), base) << field;
  }

  Cfg hostile = quadro();
  hostile.faults.seed = 7;
  hostile.faults.launch_failure_rate = 0.1;
  hostile.faults.latency_spike_rate = 0.2;
  hostile.faults.latency_spike_multiplier = 3;
  hostile.faults.poisoned_result_rate = 0.3;
  EXPECT_EQ(Planner::config_fingerprint(hostile), base);

  // Tripwire: a new DeviceConfig field changes its size. Mix the field into
  // Planner::config_fingerprint (or state why it is left out, as for
  // faults), add it to the list above, then update this size (x86-64).
  EXPECT_EQ(sizeof(Cfg), 320u)
      << "DeviceConfig changed: update config_fingerprint and this test";
}

TEST(Planner, EveryCandidateIsScoredAndSorted) {
  Planner p;
  const auto cands =
      p.candidates(quadro(), ProblemDesc{Op::qr, 64, 64, 512, Dtype::f32});
  ASSERT_GE(cands.size(), 2u);  // at least pb64 and pb256
  for (std::size_t i = 1; i < cands.size(); ++i)
    EXPECT_LE(cands[i - 1].predicted_cycles, cands[i].predicted_cycles);
  for (const auto& c : cands) {
    EXPECT_GT(c.predicted_cycles, 0);
    EXPECT_GT(c.predicted_gflops, 0);
  }
}

TEST(Solver, QrEndToEndAndCacheHitOnRepeat) {
  simt::Device dev;
  Solver solver(dev);

  BatchF batch(12, 24, 24), original = batch, taus;
  fill_uniform(batch, 21);
  original = batch;
  const auto rep = solver.qr(batch, &taus);
  EXPECT_EQ(rep.approach(), Approach::per_block);
  EXPECT_GT(rep.gflops(), 0);
  EXPECT_TRUE(rep.all_solved());
  EXPECT_LT(testing::worst_packed_qr_error(batch, original, taus), 5e-4f);

  BatchF batch2(12, 24, 24), taus2;
  fill_uniform(batch2, 22);
  const BatchF original2 = batch2;
  const auto rep2 = solver.qr(batch2, &taus2);
  EXPECT_EQ(rep2.approach(), rep.approach());
  EXPECT_EQ(rep2.plan.threads, rep.plan.threads);
  EXPECT_LT(testing::worst_packed_qr_error(batch2, original2, taus2), 5e-4f);
}

TEST(Solver, SolveMethodsBothSolve) {
  simt::Device dev;
  Solver solver(dev);

  BatchF a(6, 20, 20), b(6, 20, 1);
  fill_diag_dominant(a, 31);
  fill_uniform(b, 32);
  const BatchF a0 = a, b0 = b;

  const auto qr = solver.solve(a, b, {.method = core::SolveMethod::qr});
  EXPECT_TRUE(qr.all_solved());
  EXPECT_LT(testing::worst_solve_residual(a0, b, b0), 2e-4f);

  BatchF a2 = a0, b2 = b0;
  const auto gj =
      solver.solve(a2, b2, {.method = core::SolveMethod::gauss_jordan});
  EXPECT_TRUE(gj.all_solved());
  EXPECT_LT(testing::worst_solve_residual(a0, b2, b0), 2e-4f);
}

}  // namespace
}  // namespace regla
