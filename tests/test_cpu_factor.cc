// Tests for the CPU factorizations (the numerical reference implementations).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/generators.h"
#include "common/norms.h"
#include "common/rng.h"
#include "cpu/cpu.h"
#include "test_util.h"

namespace regla::cpu {
namespace {

class CpuQrSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CpuQrSizes, FactorReconstructs) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  Matrix<float> a(m, n), orig(m, n);
  fill_uniform(a.view(), rng);
  orig = a;
  std::vector<float> tau;
  qr_factor(a.view(), tau);
  Matrix<float> q(m, n), r(n, n);
  qr_form_q(a.view(), tau, q.view());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) r(i, j) = i <= j ? a(i, j) : 0.0f;
  EXPECT_LT(qr_residual(orig.view(), q.view(), r.view()), 2e-5f) << m << "x" << n;
  EXPECT_LT(orthogonality_error(q.view()), 2e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuQrSizes,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{3, 3},
                      std::pair{5, 5}, std::pair{8, 8}, std::pair{16, 16},
                      std::pair{33, 33}, std::pair{64, 64}, std::pair{10, 4},
                      std::pair{80, 16}, std::pair{240, 66}, std::pair{192, 96}));

TEST(CpuQr, ComplexFactorReconstructs) {
  for (auto [m, n] : {std::pair{8, 8}, std::pair{80, 16}, std::pair{40, 33}}) {
    Rng rng(m + n);
    MatrixC a(m, n), orig(m, n);
    fill_uniform(a.view(), rng);
    orig = a;
    std::vector<cfloat> tau;
    qr_factor(a.view(), tau);
    MatrixC q(m, n), r(n, n);
    qr_form_q(a.view(), tau, q.view());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) r(i, j) = i <= j ? a(i, j) : cfloat{};
    EXPECT_LT(qr_residual(orig.view(), q.view(), r.view()), 2e-5f);
    EXPECT_LT(orthogonality_error(q.view()), 2e-5f);
  }
}

TEST(CpuQr, ApplyQtMatchesExplicitQ) {
  Rng rng(77);
  const int m = 20, n = 12;
  Matrix<float> a(m, n), orig(m, n), b(m, 1), borig(m, 1);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  orig = a;
  borig = b;
  std::vector<float> tau;
  qr_factor(a.view(), tau);
  qr_apply_qt(a.view(), tau, b.view());
  // Q^T b computed explicitly: full Q (m x n), so only first n entries match.
  Matrix<float> q(m, n);
  qr_form_q(a.view(), tau, q.view());
  for (int i = 0; i < n; ++i) {
    float acc = 0;
    for (int k = 0; k < m; ++k) acc += q(k, i) * borig(k, 0);
    EXPECT_NEAR(b(i, 0), acc, 2e-4f);
  }
}

TEST(CpuQr, ZeroColumnHandled) {
  Matrix<float> a(4, 2);
  a(0, 1) = 1.0f;  // column 0 entirely zero
  std::vector<float> tau;
  qr_factor(a.view(), tau);
  EXPECT_EQ(tau[0], 0.0f);  // skip reflector, no NaNs
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(std::isnan(a(i, j)));
}

TEST(CpuQr, LeastSquaresRecoversPlantedSolution) {
  Rng rng(5);
  const int m = 30, n = 6;
  Matrix<float> a(m, n), x_true(n, 1), b(m, 1), x(n, 1);
  fill_uniform(a.view(), rng);
  fill_uniform(x_true.view(), rng);
  for (int i = 0; i < m; ++i) {
    float acc = 0;
    for (int j = 0; j < n; ++j) acc += a(i, j) * x_true(j, 0);
    b(i, 0) = acc;  // consistent system: residual 0
  }
  qr_least_squares(a.view(), b.view(), x.view());
  EXPECT_LT(rel_diff(x.view(), x_true.view()), 1e-3f);
}

TEST(CpuQr, PanelPlusReflectorsEqualsFullFactorization) {
  Rng rng(6);
  const int m = 24, n = 16, pw = 8;
  Matrix<float> full(m, n), panel(m, n);
  fill_uniform(full.view(), rng);
  panel = full;
  std::vector<float> tau_full;
  qr_factor(full.view(), tau_full);

  std::vector<float> tau_p;
  qr_factor_panel(panel.view(), pw, tau_p);
  auto trailing = panel.block(0, pw, m, n - pw);
  qr_apply_panel_reflectors(panel.view(), pw, tau_p, trailing);
  std::vector<float> tau_rest;
  auto rest = panel.block(pw, pw, m - pw, n - pw);
  qr_factor(rest, tau_rest);

  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(panel(i, j)), std::abs(full(i, j)), 5e-4f)
          << i << "," << j;
}

TEST(CpuLu, NoPivotReconstructsDiagDominant) {
  for (int n : {1, 2, 5, 16, 48, 96}) {
    Rng rng(n);
    Matrix<float> a(n, n), orig(n, n);
    fill_diag_dominant(a.view(), rng);
    orig = a;
    ASSERT_TRUE(lu_nopivot(a.view()));
    EXPECT_LT(lu_residual(orig.view(), a.view()), 1e-5f) << n;
  }
}

TEST(CpuLu, PivotHandlesZeroLeadingEntry) {
  Matrix<float> a(2, 2), orig(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  orig = a;
  EXPECT_FALSE(lu_nopivot(a.view()));
  a = orig;
  std::vector<int> piv;
  EXPECT_TRUE(lu_pivot(a.view(), piv));
  EXPECT_EQ(piv[0], 1);
}

TEST(CpuLu, SolveRoundTrip) {
  Rng rng(9);
  const int n = 24;
  Matrix<float> a(n, n), orig(n, n), b(n, 2), borig(n, 2);
  fill_diag_dominant(a.view(), rng);
  fill_uniform(b.view(), rng);
  orig = a;
  borig = b;
  ASSERT_TRUE(lu_nopivot(a.view()));
  lu_solve_nopivot(a.view(), b.view());
  EXPECT_LT(solve_residual(orig.view(), b.view(), borig.view()), 1e-5f);

  // Pivoted path on a general (non-dominant) matrix.
  Matrix<float> g(n, n), gorig(n, n);
  fill_uniform(g.view(), rng);
  gorig = g;
  Matrix<float> c(n, 1), corig(n, 1);
  fill_uniform(c.view(), rng);
  corig = c;
  std::vector<int> piv;
  ASSERT_TRUE(lu_pivot(g.view(), piv));
  lu_solve_pivot(g.view(), piv, c.view());
  EXPECT_LT(solve_residual(gorig.view(), c.view(), corig.view()), 1e-3f);
}

TEST(CpuLu, SingularDetected) {
  Matrix<float> a(3, 3);  // all zeros
  std::vector<int> piv;
  EXPECT_FALSE(lu_pivot(a.view(), piv));
}

TEST(CpuGj, SolvesAndAgreesWithLu) {
  Rng rng(21);
  const int n = 20;
  Matrix<float> a(n, n), a2(n, n), orig(n, n);
  fill_diag_dominant(a.view(), rng);
  a2 = a;
  orig = a;
  Matrix<float> b(n, 1), b2(n, 1), borig(n, 1);
  fill_uniform(b.view(), rng);
  b2 = b;
  borig = b;
  ASSERT_TRUE(gauss_jordan_solve(a.view(), b.view()));
  EXPECT_LT(solve_residual(orig.view(), b.view(), borig.view()), 1e-5f);

  ASSERT_TRUE(lu_nopivot(a2.view()));
  lu_solve_nopivot(a2.view(), b2.view());
  EXPECT_LT(rel_diff(b.view(), b2.view()), 1e-4f);
}

TEST(CpuGj, ZeroPivotReturnsFalseUnlessPivoting) {
  Matrix<float> a(2, 2), b(2, 1);
  a(0, 1) = 1; a(1, 0) = 1;
  b(0, 0) = 2; b(1, 0) = 3;
  Matrix<float> a2 = a, b2 = b;
  EXPECT_FALSE(gauss_jordan_solve(a.view(), b.view()));
  EXPECT_TRUE(gauss_jordan_solve_pivot(a2.view(), b2.view()));
  EXPECT_FLOAT_EQ(b2(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(b2(1, 0), 2.0f);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(1000, [&](int i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](int i) {
                                   if (i == 57) throw Error("boom");
                                 }),
               Error);
  // Pool still usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](int) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, EmptyAndSingleton) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](int) { FAIL(); });
  int count = 0;
  pool.parallel_for(1, [&](int) { count++; });
  EXPECT_EQ(count, 1);
}

// Four threads share one pool: every call runs each of its own indices
// exactly once, however the helpers split between them.
TEST(ThreadPool, ConcurrentCallersRunEveryIndexOnce) {
  constexpr int kCallers = 4, kRounds = 50;
  ThreadPool pool(4);
  std::latch start(kCallers);
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c)
    hits.emplace_back(static_cast<std::size_t>(kRounds * (97 + c)));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      const int count = 97 + c;  // uneven, so chunks differ in size
      for (int r = 0; r < kRounds; ++r)
        pool.parallel_for(count, [&](int i) { ++hits[c][r * count + i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (const auto& h : hits[c]) ASSERT_EQ(h.load(), 1) << "caller " << c;
}

// An exception escaping one call's fn reaches that call's caller and no
// other; the callers that did not throw see every index run.
TEST(ThreadPool, ConcurrentCallersGetOnlyTheirOwnException) {
  constexpr int kCallers = 4, kRounds = 30, kCount = 64;
  ThreadPool pool(4);
  std::latch start(kCallers);
  std::vector<int> caught(kCallers, 0), wrong(kCallers, 0), clean(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      const bool thrower = c % 2 == 0;
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<int> ran{0};
        try {
          pool.parallel_for(kCount, [&](int i) {
            ++ran;
            if (thrower && i == kCount - 1)
              throw Error("caller " + std::to_string(c));
          });
          if (ran.load() == kCount) ++clean[c];
        } catch (const Error& e) {
          if (std::string(e.what()).find("caller " + std::to_string(c)) !=
              std::string::npos)
            ++caught[c];
          else
            ++wrong[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(wrong[c], 0) << "caller " << c << " saw another's exception";
    if (c % 2 == 0) {
      EXPECT_EQ(caught[c], kRounds) << "caller " << c;
    } else {
      EXPECT_EQ(clean[c], kRounds) << "caller " << c;
      EXPECT_EQ(caught[c], 0) << "caller " << c;
    }
  }
}

// One call's chunks hold every helper (and that caller) on a latch. Three
// more callers must still finish — each runs its own chunks — while the
// first call is blocked, so no call waits behind another's work.
TEST(ThreadPool, ConcurrentCallersDoNotWaitBehindBusyHelpers) {
  ThreadPool pool(4);
  const int threads = pool.workers();  // 3 helpers + the blocked caller
  std::latch held(threads);
  std::latch gate(1);
  std::thread blocked([&] {
    pool.parallel_for(threads, [&](int) {
      held.count_down();
      gate.wait();
    });
  });
  held.wait();  // every helper is now inside the blocked call

  std::atomic<int> finished{0};
  std::vector<std::atomic<int>> sums(3);
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(100, [&](int i) { sums[c] += i; });
      ++finished;
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(finished.load(), 3) << "a caller waited behind the blocked call";
  gate.count_down();  // release the blocked call either way, then join
  for (auto& t : callers) t.join();
  blocked.join();
  for (int c = 0; c < 3; ++c) EXPECT_EQ(sums[c].load(), 99 * 100 / 2);
}

TEST(Batched, CpuQrBatch) {
  BatchF batch(20, 12, 12), orig(20, 12, 12);
  fill_uniform(batch, 31);
  orig = batch;
  ThreadPool pool(2);
  const auto t = batched_qr(batch, pool);
  EXPECT_GT(t.seconds, 0.0);
  // Spot-check R against a scratch factorization.
  Matrix<float> scratch(12, 12);
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 12; ++i) scratch(i, j) = orig.at(3, i, j);
  std::vector<float> tau;
  qr_factor(scratch.view(), tau);
  EXPECT_LT(testing::r_factor_diff<float>(batch.matrix(3), scratch.view()), 1e-5f);
}

TEST(Batched, CpuSolversAgree) {
  BatchF a1(8, 16, 16), b1(8, 16, 1);
  fill_diag_dominant(a1, 7);
  fill_uniform(b1, 8);
  BatchF a2 = a1, b2 = b1, a0 = a1, b0 = b1;
  batched_solve_qr(a1, b1);
  batched_solve_gj(a2, b2, /*pivot=*/false);
  for (int k = 0; k < 8; ++k) {
    auto x1 = b1.matrix(k).block(0, 0, 16, 1);
    EXPECT_LT(solve_residual(a0.matrix(k), x1, b0.matrix(k)), 1e-4f);
    EXPECT_LT(solve_residual(a0.matrix(k), b2.matrix(k), b0.matrix(k)), 1e-4f);
  }
}

TEST(Batched, LeastSquaresBatch) {
  const int m = 24, n = 8, cnt = 6;
  BatchF a(cnt, m, n), b(cnt, m, 1), x(cnt, n, 1);
  fill_uniform(a, 9);
  fill_uniform(b, 10);
  BatchF a0 = a, b0 = b;
  batched_least_squares(a, b, x);
  // Check the normal equations: A^T (A x - b) ~ 0.
  for (int k = 0; k < cnt; ++k) {
    std::vector<float> resid(m);
    for (int i = 0; i < m; ++i) {
      float acc = -b0.at(k, i, 0);
      for (int j = 0; j < n; ++j) acc += a0.at(k, i, j) * x.at(k, j, 0);
      resid[i] = acc;
    }
    for (int j = 0; j < n; ++j) {
      float dot = 0;
      for (int i = 0; i < m; ++i) dot += a0.at(k, i, j) * resid[i];
      EXPECT_NEAR(dot, 0.0f, 2e-3f) << "problem " << k << " col " << j;
    }
  }
}

}  // namespace
}  // namespace regla::cpu
