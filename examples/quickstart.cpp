// Quickstart: factor a batch of small matrices on the simulated GPU with
// regla's front-end API — a Solver that plans each launch with the paper's
// predictive model — then verify the result and read the timing.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "common/generators.h"
#include "common/norms.h"
#include "cpu/qr.h"
#include "planner/solver.h"

int main() {
  using namespace regla;

  // A simulated Quadro 6000 (GF100) — the paper's machine. Every parameter
  // is a plain struct field if you want a different chip.
  simt::Device dev;

  // The Solver owns a model-guided launch planner: every solve scores each
  // candidate kernel mapping with the paper's analytical models and
  // dispatches the cheapest.
  Solver solver(dev);

  // 5000 single-precision 56x56 problems: the headline workload ("for the QR
  // factorizations of 5,000 56x56 single-precision matrices...").
  const int n = 56, count = 5000;
  BatchF batch(count, n, n);
  fill_uniform(batch, /*seed=*/42);
  BatchF original = batch;

  BatchF taus;
  const auto report = solver.qr(batch, &taus);

  std::printf("plan:       %s, %d threads/block (model: %.0f GFLOP/s "
              "predicted)\n",
              core::to_string(report.approach()), report.plan.threads,
              report.plan.predicted_gflops);
  std::printf("simulated:  %.3f ms on the GF100 -> %.1f GFLOP/s\n",
              report.seconds * 1e3, report.gflops());

  // Verify one problem: rebuild Q from the packed factorization and check
  // A = QR and Q^T Q = I.
  Matrix<float> packed(n, n), q(n, n), r(n, n);
  std::vector<float> tau(n);
  for (int c = 0; c < n; ++c) tau[c] = taus.at(0, c, 0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) packed(i, j) = batch.at(0, i, j);
  cpu::qr_form_q(packed.view(), tau, q.view());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) r(i, j) = i <= j ? packed(i, j) : 0.0f;
  std::printf("residual:   ||A-QR||/||A|| = %.2e, ||Q^TQ-I|| = %.2e\n",
              qr_residual(original.matrix(0), q.view(), r.view()),
              orthogonality_error(q.view()));
  std::printf("(errors ~1e-5: the 22-mantissa-bit hardware divide/sqrt of "
              "--use_fast_math)\n");

  // A second batch of the same shape is planned afresh: the model is closed
  // form, so scoring every candidate again costs about a microsecond.
  BatchF batch2(count, n, n);
  fill_uniform(batch2, 43);
  const auto repeat = solver.qr(batch2);
  std::printf("repeat:     %s, %d threads (%llu plans built)\n",
              core::to_string(repeat.approach()), repeat.plan.threads,
              static_cast<unsigned long long>(
                  solver.planner().stats().plans_built));

  // Solving systems works the same way; pick the method via SolveOptions.
  BatchF a(1000, 24, 24), b(1000, 24, 1);
  fill_diag_dominant(a, 7);
  fill_uniform(b, 8);
  BatchF a0 = a, b0 = b;
  const auto solve =
      solver.solve(a, b, {.method = core::SolveMethod::gauss_jordan});
  float worst = 0.0f;
  for (int k = 0; k < a.count(); ++k)
    worst = std::max(worst,
                     solve_residual(a0.matrix(k), b.matrix(k), b0.matrix(k)));
  std::printf("solve:      1000 24x24 systems at %.1f GFLOP/s (%s), worst "
              "residual %.2e\n",
              solve.gflops(), solve.all_solved() ? "all solved" : "FAILURES",
              worst);
  return 0;
}
