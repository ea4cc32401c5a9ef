// The solver zoo beyond the paper's four ops: batched Cholesky and forward
// triangular solve, dispatched through the registry — device kernels vs the
// registered cpu oracles across the Fig. 10 shape sweep, failure-flag
// agreement, end-to-end Runtime::submit, and the generic Solver::run entry.
#include <gtest/gtest.h>

#include <cmath>

#include "common/generators.h"
#include "cpu/batched.h"
#include "planner/op_traits.h"
#include "planner/planner.h"
#include "planner/solver.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace regla {
namespace {

using planner::Op;

constexpr int kZooSizes[] = {8, 16, 24, 32, 48, 56};

/// Relative Frobenius distance over the lower triangles of two batches.
float lower_rel_error(const BatchF& got, const BatchF& want) {
  double num = 0, den = 0;
  for (int k = 0; k < want.count(); ++k)
    for (int j = 0; j < want.cols(); ++j)
      for (int i = j; i < want.rows(); ++i) {
        const double d = got.at(k, i, j) - want.at(k, i, j);
        num += d * d;
        den += double(want.at(k, i, j)) * want.at(k, i, j);
      }
  return den > 0 ? static_cast<float>(std::sqrt(num / den)) : 0.0f;
}

float batch_rel_error(const BatchF& got, const BatchF& want) {
  double num = 0, den = 0;
  for (int k = 0; k < want.count(); ++k)
    for (int j = 0; j < want.cols(); ++j)
      for (int i = 0; i < want.rows(); ++i) {
        const double d = got.at(k, i, j) - want.at(k, i, j);
        num += d * d;
        den += double(want.at(k, i, j)) * want.at(k, i, j);
      }
  return den > 0 ? static_cast<float>(std::sqrt(num / den)) : 0.0f;
}

TEST(OpsZoo, CholeskyDeviceMatchesCpuAcrossSizes) {
  simt::Device dev;
  Solver solver(dev);
  for (int n : kZooSizes) {
    BatchF batch(4, n, n);
    fill_spd(batch, 100 + n);
    BatchF oracle = batch;

    const SolveReport rep = solver.cholesky(batch);
    EXPECT_TRUE(rep.all_solved()) << "n=" << n;
    EXPECT_EQ(rep.approach(), core::Approach::per_block);
    EXPECT_GT(rep.nominal_flops, 0.0);

    cpu::batched_cholesky(oracle);
    EXPECT_LE(lower_rel_error(batch, oracle), 1e-5f) << "n=" << n;
  }
}

TEST(OpsZoo, TrsmDeviceMatchesCpuAcrossSizes) {
  simt::Device dev;
  Solver solver(dev);
  for (int n : kZooSizes) {
    BatchF l(4, n, n), b(4, n, 1);
    fill_diag_dominant(l, 200 + n);  // lower triangle: safe forward solve
    fill_uniform(b, 300 + n);
    BatchF l_oracle = l, b_oracle = b;

    const SolveReport rep = solver.trsm(l, b);
    EXPECT_TRUE(rep.all_solved()) << "n=" << n;
    EXPECT_EQ(rep.approach(), core::Approach::per_block);

    cpu::batched_trsm_lower(l_oracle, b_oracle);
    EXPECT_LE(batch_rel_error(b, b_oracle), 1e-5f) << "n=" << n;
  }
}

// Non-SPD problems must be flagged identically on both backends — and must
// not disturb their batchmates.
TEST(OpsZoo, CholeskyFlagsNonSpdLikeCpu) {
  simt::Device dev;
  Solver solver(dev);
  const int n = 16;
  BatchF batch(3, n, n);
  fill_spd(batch, 7);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      batch.at(1, i, j) = (i == j) ? -1.0f : 0.0f;  // negative definite
  BatchF oracle = batch;

  const SolveReport rep = solver.cholesky(batch);
  std::vector<int> cpu_flags;
  cpu::batched_cholesky(oracle, &cpu_flags);

  ASSERT_EQ(rep.not_solved.size(), 3u);
  ASSERT_EQ(cpu_flags.size(), 3u);
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(rep.not_solved[k] != 0, cpu_flags[k] != 0) << "k=" << k;
  EXPECT_FALSE(rep.not_solved[0]);
  EXPECT_TRUE(rep.not_solved[1]);
  EXPECT_FALSE(rep.not_solved[2]);
}

// Zero diagonal in the triangular factor: flagged, the offending x entry is
// zeroed, the solve continues — same contract both backends.
TEST(OpsZoo, TrsmFlagsZeroDiagonalLikeCpu) {
  simt::Device dev;
  Solver solver(dev);
  const int n = 12;
  BatchF l(2, n, n), b(2, n, 1);
  fill_diag_dominant(l, 11);
  fill_uniform(b, 13);
  l.at(1, 5, 5) = 0.0f;
  BatchF l_oracle = l, b_oracle = b;

  const SolveReport rep = solver.trsm(l, b);
  std::vector<int> cpu_flags;
  cpu::batched_trsm_lower(l_oracle, b_oracle, &cpu_flags);

  ASSERT_EQ(rep.not_solved.size(), 2u);
  EXPECT_FALSE(rep.not_solved[0]);
  EXPECT_TRUE(rep.not_solved[1]);
  EXPECT_TRUE(cpu_flags[1]);
  EXPECT_LE(batch_rel_error(b, b_oracle), 1e-5f);
}

// End-to-end through the serving runtime: the zoo ops are first-class
// submissions — coalesced, planned, dispatched — with oracle agreement.
TEST(OpsZoo, RuntimeSubmitCholeskyAndTrsm) {
  runtime::RuntimeOptions opt;
  opt.devices = {{"dev0", {}, 1}};
  runtime::Runtime rt(opt);
  const int n = 24;

  BatchF spd(3, n, n);
  fill_spd(spd, 42);
  BatchF spd_oracle = spd;
  auto fc = rt.submit(Op::cholesky, std::move(spd), BatchF{});
  rt.flush();
  runtime::Report rc = fc.get();
  cpu::batched_cholesky(spd_oracle);
  EXPECT_LE(lower_rel_error(rc.a, spd_oracle), 1e-5f);

  BatchF l(3, n, n), b(3, n, 1);
  fill_diag_dominant(l, 43);
  fill_uniform(b, 44);
  BatchF l_oracle = l, b_oracle = b;
  auto ft = rt.submit(Op::trsm, std::move(l), std::move(b));
  rt.flush();
  runtime::Report rt_rep = ft.get();
  cpu::batched_trsm_lower(l_oracle, b_oracle);
  EXPECT_LE(batch_rel_error(rt_rep.b, b_oracle), 1e-5f);
  rt.shutdown();
}

// The generic front door is the typed methods' implementation: identical
// inputs through solver.run(Op::qr, call) and solver.qr() must produce
// bit-identical factors.
TEST(OpsZoo, GenericRunMatchesTypedMethod) {
  simt::Device dev;
  Solver solver(dev);
  BatchF b1(2, 24, 16), b2(2, 24, 16);
  fill_uniform(b1, 5);
  fill_uniform(b2, 5);

  const SolveReport r1 = solver.qr(b1);
  ops::Call call;
  call.a = &b2;
  const SolveReport r2 = solver.run(Op::qr, call);

  EXPECT_EQ(r1.approach(), r2.approach());
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 24; ++i)
        EXPECT_EQ(b1.at(k, i, j), b2.at(k, i, j));
}

// The planner enumerates the zoo ops from their traits rows: square-only,
// per-block only.
TEST(OpsZoo, PlannerPlansZooOps) {
  simt::Device dev;
  planner::Planner pl;
  for (Op op : {Op::cholesky, Op::trsm}) {
    const planner::Plan plan = pl.plan(
        dev.config(),
        planner::ProblemDesc{op, 32, 32, 64, planner::Dtype::f32});
    EXPECT_EQ(plan.approach, core::Approach::per_block)
        << planner::to_string(op);
    EXPECT_GT(plan.threads, 0) << planner::to_string(op);
  }
}

}  // namespace
}  // namespace regla
