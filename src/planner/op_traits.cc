#include "planner/op_traits.h"

#include <algorithm>

#include "common/error.h"
#include "model/flops.h"

namespace regla::planner {

namespace {

double qr_op_flops(int m, int n, Dtype dtype) {
  return dtype == Dtype::c64 ? model::cqr_flops(m, n) : model::qr_flops(m, n);
}
double lu_op_flops(int, int n, Dtype) { return model::lu_flops(n); }
double solve_qr_op_flops(int, int n, Dtype) { return model::ls_flops(n, n); }
double solve_gj_op_flops(int, int n, Dtype) { return model::gj_flops(n); }
double ls_op_flops(int m, int n, Dtype) { return model::ls_flops(m, n); }
double cholesky_op_flops(int, int n, Dtype) { return model::cholesky_flops(n); }
double trsm_op_flops(int, int n, Dtype) { return model::trsm_flops(n); }

OpTraits make_qr() {
  OpTraits t;
  t.span = "solver.qr";
  t.span_c64 = "solver.qr_c64";
  t.supports_c64 = true;
  t.has_per_thread = true;
  t.has_tiled = true;
  t.data_independent = true;  // unpivoted Householder: fixed op/address schedule
  t.raggable = true;
  t.flops = qr_op_flops;
  return t;
}

OpTraits make_lu() {
  OpTraits t;
  t.span = "solver.lu";
  t.square_only = true;
  t.has_per_thread = true;
  t.block_alg = model::BlockAlg::lu;
  t.data_independent = true;  // unpivoted elimination (the pivoting kernel is
                              // core-API only and never dispatched here)
  t.raggable = true;
  t.flops = lu_op_flops;
  return t;
}

OpTraits make_solve_qr() {
  OpTraits t;
  t.span = "solver.solve";
  t.rhs = RhsShape::n_by_1;
  t.square_only = true;
  t.extra_cols = 1;
  t.data_independent = true;
  t.raggable = true;
  t.flops = solve_qr_op_flops;
  return t;
}

OpTraits make_solve_gj() {
  OpTraits t;
  t.span = "solver.solve";
  t.rhs = RhsShape::n_by_1;
  t.square_only = true;
  t.extra_cols = 1;
  t.has_per_thread = true;
  t.block_alg = model::BlockAlg::lu;
  t.data_independent = true;
  t.raggable = true;
  t.flops = solve_gj_op_flops;
  return t;
}

OpTraits make_least_squares() {
  OpTraits t;
  t.span = "solver.least_squares";
  t.rhs = RhsShape::m_by_1;
  t.tall_only = true;
  t.extra_cols = 1;
  t.has_tiled = true;
  t.data_independent = true;
  t.raggable = true;
  t.flops = ls_op_flops;
  return t;
}

OpTraits make_cholesky() {
  OpTraits t;
  t.span = "solver.cholesky";
  t.square_only = true;
  t.block_alg = model::BlockAlg::lu;  // elimination-shaped work, no reflectors
  t.data_independent = true;
  t.raggable = true;
  t.flops = cholesky_op_flops;
  return t;
}

OpTraits make_trsm() {
  OpTraits t;
  t.span = "solver.trsm";
  t.rhs = RhsShape::n_by_1;
  t.square_only = true;
  t.extra_cols = 1;
  t.block_alg = model::BlockAlg::lu;
  t.data_independent = true;
  t.raggable = true;
  t.flops = trsm_op_flops;
  return t;
}

}  // namespace

const OpTraits& op_traits(Op op) {
  static const OpTraits table[kOpCount] = {
      make_qr(),            // Op::qr
      make_lu(),            // Op::lu
      make_solve_qr(),      // Op::solve_qr
      make_solve_gj(),      // Op::solve_gj
      make_least_squares(), // Op::least_squares
      make_cholesky(),      // Op::cholesky
      make_trsm(),          // Op::trsm
  };
  const int i = static_cast<int>(op);
  REGLA_CHECK_MSG(i >= 0 && i < kOpCount, "unknown Op " << i);
  return table[i];
}

bool shape_ok(const OpTraits& t, int m, int n) {
  if (m <= 0 || n <= 0) return false;
  if (t.square_only) return m == n;
  if (t.tall_only) return m > n;
  return m >= n;
}

bool dtype_ok(const OpTraits& t, Dtype dtype) {
  return dtype == Dtype::f32 || t.supports_c64;
}

RaggedTile ragged_tile(const OpTraits& t, int m, int n) {
  if (!t.raggable || !shape_ok(t, m, n)) return {};
  const auto up = [](int v) {
    int p = 4;
    while (p < v) p *= 2;
    return p;
  };
  const int N = up(n);
  int M = std::max(up(m), N);
  // Every identity entry A'[m+k][n+k] (k < N-n) must land in a padded row.
  while (M - m < N - n) M *= 2;
  if (t.tall_only && M <= N) M *= 2;
  if (M > kRaggedTileCap || N > kRaggedTileCap) return {};
  return RaggedTile{M, N};
}

}  // namespace regla::planner
