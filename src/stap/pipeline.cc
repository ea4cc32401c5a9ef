#include "stap/pipeline.h"

#include <cmath>

#include "common/error.h"
#include "core/per_block_ext.h"
#include "model/flops.h"
#include "planner/solver.h"

namespace regla::stap {

BatchedMatrix<cfloat> assemble_training(const Datacube& cube,
                                        const StapScenario& sc, int guard) {
  const int m = sc.training_rows;
  const int n = sc.dof();
  const int windows = sc.pulses - sc.taps + 1;
  BatchedMatrix<cfloat> batch(sc.num_matrices, m, n);

  // Segments tile the range axis cyclically; each needs m training gates
  // plus guards around its central test gate.
  const int seg_span = m + 2 * guard + 1;
  REGLA_CHECK_MSG(seg_span < cube.ranges(),
                  "not enough range gates for a training segment");
  const float row_scale = 1.0f / std::sqrt(static_cast<float>(m));

  for (int s = 0; s < sc.num_matrices; ++s) {
    const int seg_start = (s * seg_span) % (cube.ranges() - seg_span);
    const int test_gate = seg_start + guard + m / 2;
    int row = 0;
    for (int i = 0; row < m; ++i) {
      const int r = seg_start + i;
      if (std::abs(r - test_gate) <= guard) continue;  // skip test + guards
      const auto z = snapshot(cube, sc, r, (row % windows));
      for (int j = 0; j < n; ++j) batch.at(s, row, j) = z[j] * row_scale;
      ++row;
    }
  }
  return batch;
}

void solve_weights(MatrixView<const cfloat> r, const std::vector<cfloat>& v,
                   std::vector<cfloat>& w) {
  const int n = r.cols();
  REGLA_CHECK(static_cast<int>(v.size()) == n && r.rows() >= n);
  // (R^H R) w = v:  R^H y = v (forward, lower-triangular R^H), then R w = y.
  std::vector<cfloat> y(n);
  for (int i = 0; i < n; ++i) {
    cfloat acc = v[i];
    for (int k = 0; k < i; ++k) acc -= std::conj(r(k, i)) * y[k];
    acc /= std::conj(r(i, i));
    y[i] = acc;
  }
  w.assign(n, cfloat{});
  for (int i = n - 1; i >= 0; --i) {
    cfloat acc = y[i];
    for (int k = i + 1; k < n; ++k) acc -= r(i, k) * w[k];
    w[i] = acc / r(i, i);
  }
}

float amf_statistic(const std::vector<cfloat>& w, const std::vector<cfloat>& v,
                    const std::vector<cfloat>& z) {
  cfloat wz{}, wv{};
  for (std::size_t i = 0; i < w.size(); ++i) {
    wz += std::conj(w[i]) * z[i];
    wv += std::conj(w[i]) * v[i];
  }
  const float denom = std::abs(wv);
  return denom > 0 ? std::norm(wz) / denom : 0.0f;
}

StapReport run_stap(regla::simt::Device& dev, const Datacube& cube,
                    const StapScenario& sc, float steer_spatial,
                    float steer_doppler) {
  StapReport rep;
  rep.m = sc.training_rows;
  rep.n = sc.dof();
  rep.matrices = sc.num_matrices;

  auto batch = assemble_training(cube, sc);
  const SolveReport qr = Solver(dev).qr(batch);
  rep.gpu_seconds = qr.seconds;
  rep.gpu_gflops = qr.gflops();
  rep.approach = regla::core::to_string(qr.plan.approach);

  const auto v = steering(sc, steer_spatial, steer_doppler);

  // Batched weight solve on the GPU: (R^H R) w = v per segment, with R from
  // the QR batch (leading n x n upper triangle on both dispatch paths).
  const int n = rep.n;
  BatchedMatrix<cfloat> rb(sc.num_matrices, n, n), vb(sc.num_matrices, n, 1), wb;
  for (int s = 0; s < sc.num_matrices; ++s) {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i <= j; ++i) rb.at(s, i, j) = batch.at(s, i, j);
    for (int i = 0; i < n; ++i) vb.at(s, i, 0) = v[i];
  }
  const auto wres = regla::core::normal_eq_solve_per_block(dev, rb, vb, wb);
  rep.weights_seconds = wres.launch.seconds;

  const int guard = 2;
  const int seg_span = rep.m + 2 * guard + 1;
  const int windows = sc.pulses - sc.taps + 1;
  std::vector<cfloat> w(n);
  for (int s = 0; s < sc.num_matrices; ++s) {
    for (int i = 0; i < n; ++i) w[i] = wb.at(s, i, 0);

    const int seg_start = (s * seg_span) % (cube.ranges() - seg_span);
    const int test_gate = seg_start + guard + rep.m / 2;
    const auto z = snapshot(cube, sc, test_gate, (s % windows));
    rep.statistic.push_back(amf_statistic(w, v, z));
    rep.test_gates.push_back(test_gate);
  }
  return rep;
}

}  // namespace regla::stap
