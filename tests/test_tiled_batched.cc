// Tests for the tiled QR path, batched dispatch through regla::Solver, and
// the per-block GEMM / per-thread eigensolver extensions.
#include <gtest/gtest.h>

#include <cmath>

#include "common/generators.h"
#include "common/norms.h"
#include "core/core.h"
#include "cpu/cpu.h"
#include "planner/solver.h"
#include "test_util.h"

namespace regla::core {
namespace {

TEST(TiledQr, RMatchesCpuOnStapSizes) {
  simt::Device dev;
  for (auto [m, n] : {std::pair{240, 66}, std::pair{192, 96}}) {
    BatchC batch(2, m, n), orig(2, m, n), r_out;
    fill_uniform(batch, m);
    orig = batch;
    const auto res = tiled_qr_r(dev, batch, r_out);
    EXPECT_GT(res.steps, 1) << "these sizes must take the multi-step path";
    EXPECT_GT(res.gflops(), 0.0);
    for (int k = 0; k < 2; ++k) {
      MatrixC cpu_copy(m, n);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) cpu_copy(i, j) = orig.at(k, i, j);
      std::vector<cpu::cfloat> tau;
      cpu::qr_factor(cpu_copy.view(), tau);
      EXPECT_LT(testing::r_factor_diff<std::complex<float>>(
                    r_out.matrix(k), cpu_copy.view()),
                5e-4f)
          << m << "x" << n << " problem " << k;
    }
  }
}

TEST(TiledQr, RealTallMatrix) {
  simt::Device dev;
  const int m = 2000, n = 16;
  BatchF batch(2, m, n), orig(2, m, n), r_out;
  fill_uniform(batch, 7);
  orig = batch;
  const auto res = tiled_qr_r(dev, batch, r_out);
  EXPECT_GE(res.steps, 2);
  Matrix<float> cpu_copy(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) cpu_copy(i, j) = orig.at(0, i, j);
  std::vector<float> tau;
  cpu::qr_factor(cpu_copy.view(), tau);
  EXPECT_LT(testing::r_factor_diff<float>(r_out.matrix(0), cpu_copy.view()), 5e-4f);
}

TEST(TiledQr, SingleStepWhenItFits) {
  simt::Device dev;
  BatchF batch(1, 100, 16), r_out;
  fill_uniform(batch, 3);
  const auto res = tiled_qr_r(dev, batch, r_out);
  EXPECT_EQ(res.steps, 1);
}

TEST(TiledLeastSquares, RecoversPlantedSolutionTall) {
  simt::Device dev;
  const int m = 4000, n = 12, count = 2;
  BatchF a(count, m, n), b(count, m, 1), x_true(count, n, 1), x;
  fill_uniform(a, 21);
  fill_uniform(x_true, 22);
  for (int k = 0; k < count; ++k)
    for (int i = 0; i < m; ++i) {
      float acc = 0;
      for (int j = 0; j < n; ++j) acc += a.at(k, i, j) * x_true.at(k, j, 0);
      b.at(k, i, 0) = acc;  // consistent system
    }
  const auto res = tiled_least_squares(dev, a, b, x);
  EXPECT_GE(res.steps, 2);
  for (int k = 0; k < count; ++k)
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(x.at(k, j, 0), x_true.at(k, j, 0), 2e-2f)
          << "problem " << k << " coeff " << j;
}

TEST(TiledLeastSquares, MatchesCpuLeastSquaresWithNoise) {
  simt::Device dev;
  const int m = 700, n = 8;
  BatchF a(1, m, n), b(1, m, 1), x;
  fill_uniform(a, 31);
  fill_uniform(b, 32);  // inconsistent: genuine least-squares problem
  Matrix<float> a_ref(m, n), b_ref(m, 1), x_ref(n, 1);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a_ref(i, j) = a.at(0, i, j);
  for (int i = 0; i < m; ++i) b_ref(i, 0) = b.at(0, i, 0);
  const auto res = tiled_least_squares(dev, a, b, x);
  EXPECT_GE(res.steps, 1);
  cpu::qr_least_squares(a_ref.view(), b_ref.view(), x_ref.view());
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(x.at(0, j, 0), x_ref(j, 0), 1e-2f * (1 + std::fabs(x_ref(j, 0))))
        << "coeff " << j;
}

TEST(FitsOneBlock, MatchesPaperCases) {
  const auto cfg = simt::DeviceConfig::quadro6000();
  EXPECT_TRUE(fits_one_block(cfg, 80, 16, 2));    // §VII: fits one block
  EXPECT_FALSE(fits_one_block(cfg, 240, 66, 2));  // §VII: tiled
  EXPECT_FALSE(fits_one_block(cfg, 192, 96, 2));  // §VII: tiled
  EXPECT_TRUE(fits_one_block(cfg, 56, 56, 1));
}

TEST(BatchedApi, DispatchRule) {
  const auto cfg = simt::DeviceConfig::quadro6000();
  EXPECT_EQ(choose_approach(cfg, 8, 8, 1), Approach::per_thread);
  EXPECT_EQ(choose_approach(cfg, 15, 15, 1), Approach::per_thread);
  EXPECT_EQ(choose_approach(cfg, 16, 16, 1), Approach::per_block);
  EXPECT_EQ(choose_approach(cfg, 56, 56, 1), Approach::per_block);
  EXPECT_EQ(choose_approach(cfg, 240, 66, 2), Approach::tiled);
}

TEST(BatchedApi, QrAllThreePaths) {
  simt::Device dev;
  Solver solver(dev);
  // per-thread path
  {
    BatchF b(50, 8, 8), orig(50, 8, 8), taus;
    fill_uniform(b, 1);
    orig = b;
    auto out = solver.qr(b, &taus);
    EXPECT_EQ(out.plan.approach, Approach::per_thread);
    EXPECT_LT(testing::worst_packed_qr_error(b, orig, taus), 5e-5f);
  }
  // per-block path
  {
    BatchF b(4, 48, 48), orig(4, 48, 48), taus;
    fill_uniform(b, 2);
    orig = b;
    auto out = solver.qr(b, &taus);
    EXPECT_EQ(out.plan.approach, Approach::per_block);
    EXPECT_LT(testing::worst_packed_qr_error(b, orig, taus), 2e-4f);
  }
  // tiled path (R only)
  {
    BatchF b(2, 300, 40), orig(2, 300, 40);
    fill_uniform(b, 3);
    orig = b;
    auto out = solver.qr(b);
    EXPECT_EQ(out.plan.approach, Approach::tiled);
    Matrix<float> cpu_copy(300, 40);
    for (int j = 0; j < 40; ++j)
      for (int i = 0; i < 300; ++i) cpu_copy(i, j) = orig.at(0, i, j);
    std::vector<float> tau;
    cpu::qr_factor(cpu_copy.view(), tau);
    EXPECT_LT(testing::r_factor_diff<float>(b.matrix(0), cpu_copy.view()), 5e-4f);
  }
}

TEST(BatchedApi, TiledRefusesTauExport) {
  simt::Device dev;
  BatchF b(1, 300, 40), taus;
  fill_uniform(b, 3);
  EXPECT_THROW(Solver(dev).qr(b, &taus), Error);
}

TEST(BatchedApi, SolvePaths) {
  simt::Device dev;
  Solver solver(dev);
  BatchF a(6, 20, 20), b(6, 20, 1);
  fill_diag_dominant(a, 4);
  fill_uniform(b, 5);
  BatchF a0 = a, b0 = b;
  auto out = solver.solve(a, b, SolveOptions{.method = SolveMethod::qr});
  EXPECT_EQ(out.plan.approach, Approach::per_block);
  EXPECT_LT(testing::worst_solve_residual(a0, b, b0), 2e-4f);

  BatchF a2 = a0, b2 = b0;
  auto out2 =
      solver.solve(a2, b2, SolveOptions{.method = SolveMethod::gauss_jordan});
  EXPECT_LT(testing::worst_solve_residual(a0, b2, b0), 2e-4f);
  EXPECT_EQ(out2.plan.approach, Approach::per_block);

  BatchF a3(20, 6, 6), b3(20, 6, 1);
  fill_diag_dominant(a3, 7);
  fill_uniform(b3, 8);
  BatchF a30 = a3, b30 = b3;
  auto out3 =
      solver.solve(a3, b3, SolveOptions{.method = SolveMethod::gauss_jordan});
  EXPECT_EQ(out3.plan.approach, Approach::per_thread);
  EXPECT_LT(testing::worst_solve_residual(a30, b3, b30), 5e-5f);
}

TEST(BatchedApi, LuPaths) {
  simt::Device dev;
  Solver solver(dev);
  BatchF small(30, 10, 10), small0(30, 10, 10);
  fill_diag_dominant(small, 9);
  small0 = small;
  EXPECT_EQ(solver.lu(small).plan.approach, Approach::per_thread);
  EXPECT_LT(testing::worst_lu_residual(small0, small), 5e-5f);

  BatchF big(3, 40, 40), big0(3, 40, 40);
  fill_diag_dominant(big, 10);
  big0 = big;
  EXPECT_EQ(solver.lu(big).plan.approach, Approach::per_block);
  EXPECT_LT(testing::worst_lu_residual(big0, big), 2e-4f);
}

TEST(GemmBlock, MatchesCpuGemm) {
  simt::Device dev;
  // The speech-recognition shape from the paper's intro: 79 x 16 matrices.
  const int m = 79, k = 16, n = 24, cnt = 4;
  BatchF a(cnt, m, k), b(cnt, k, n), c;
  fill_uniform(a, 11);
  fill_uniform(b, 12);
  auto res = gemm_per_block(dev, a, b, c);
  EXPECT_GT(res.gflops(), 0.0);
  for (int p = 0; p < cnt; ++p) {
    Matrix<float> ref(m, n);
    cpu::sgemm('N', 'N', 1.0f, a.matrix(p), b.matrix(p), 0.0f, ref.view());
    EXPECT_LT(rel_diff(c.matrix(p), ref.view()), 1e-4f) << "problem " << p;
  }
}

TEST(GemmBlock, OddShapes) {
  simt::Device dev;
  BatchF a(2, 17, 5), b(2, 5, 9), c;
  fill_uniform(a, 13);
  fill_uniform(b, 14);
  gemm_per_block(dev, a, b, c, 16);
  Matrix<float> ref(17, 9);
  cpu::sgemm('N', 'N', 1.0f, a.matrix(1), b.matrix(1), 0.0f, ref.view());
  EXPECT_LT(rel_diff(c.matrix(1), ref.view()), 1e-4f);
}

TEST(EigJacobi, DiagonalMatrixExact) {
  simt::Device dev;
  BatchF batch(1, 6, 6), ev;
  for (int i = 0; i < 6; ++i) batch.at(0, i, i) = static_cast<float>(6 - i);
  eig_sym_per_thread(dev, batch, ev);
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(ev.at(0, i, 0), i + 1.0f, 1e-5f);
}

TEST(EigJacobi, TraceAndOffdiagonalConvergence) {
  simt::Device dev;
  const int n = 8, cnt = 32;
  BatchF batch(cnt, n, n), ev;
  for (int k = 0; k < cnt; ++k) {
    Rng rng(400 + k);
    fill_symmetric(batch.matrix(k), rng);
  }
  BatchF orig = batch;
  eig_sym_per_thread(dev, batch, ev);
  for (int k = 0; k < cnt; ++k) {
    float trace = 0, ev_sum = 0;
    for (int i = 0; i < n; ++i) {
      trace += orig.at(k, i, i);
      ev_sum += ev.at(k, i, 0);
      if (i > 0) EXPECT_LE(ev.at(k, i - 1, 0), ev.at(k, i, 0) + 1e-5f);
    }
    EXPECT_NEAR(ev_sum, trace, 1e-3f) << "problem " << k;
  }
}

TEST(EigJacobi, KnownTwoByTwo) {
  simt::Device dev;
  BatchF batch(1, 2, 2), ev;
  batch.at(0, 0, 0) = 2.0f;
  batch.at(0, 1, 1) = 2.0f;
  batch.at(0, 0, 1) = 1.0f;
  batch.at(0, 1, 0) = 1.0f;
  eig_sym_per_thread(dev, batch, ev);
  EXPECT_NEAR(ev.at(0, 0, 0), 1.0f, 1e-4f);
  EXPECT_NEAR(ev.at(0, 1, 0), 3.0f, 1e-4f);
}

}  // namespace
}  // namespace regla::core
