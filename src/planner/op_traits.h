// Per-Op metadata: the single table that tells the planner, the Solver, the
// Runtime, and the op registry what each batched operation looks like —
// shape rules, which kernels exist, which analytical model scores the
// per-block mapping, and the paper-§III FLOP formula GFLOP/s is reported
// against.
//
// Adding an op = one row here (shape + model metadata) plus one registration
// TU under src/ops/ (the kernels). Nothing else in planner/runtime/solver
// switches on Op anymore.
#pragma once

#include "model/per_block_model.h"
#include "planner/plan.h"

namespace regla::planner {

/// Right-hand-side shape an op consumes alongside the count x m x n batch.
enum class RhsShape : std::uint8_t {
  none,    ///< factorizations: the matrix batch alone
  n_by_1,  ///< square solves: one n-vector per problem
  m_by_1,  ///< least squares: one m-vector per problem
};

struct OpTraits {
  RhsShape rhs = RhsShape::none;
  bool square_only = false;  ///< problems must satisfy m == n
  bool tall_only = false;    ///< problems must satisfy m > n
  bool supports_c64 = false;
  /// Columns appended to the register tile beyond n (solves and least
  /// squares carry the RHS as an augmented column).
  int extra_cols = 0;
  bool has_per_thread = false;
  bool has_per_block = true;
  bool has_tiled = false;
  /// The op's kernels have data-independent *accounting*: control flow and
  /// memory indexing are functions of (shape, geometry) only, never of the
  /// matrix values, so every block of a batch folds the same PhaseRecords.
  /// This licenses the engine's replay memoization (simt/replay.h,
  /// Device::ReplayScope) — the engine simulates representative blocks and
  /// replays their cycle accounting for the rest. Leave false for any op
  /// whose kernels take value-dependent branches around counted work
  /// (pivot-magnitude searches that change op counts, convergence loops);
  /// REGLA_REPLAY_VERIFY=1 re-simulates everything and asserts the claim.
  bool data_independent = false;
  /// Which Table VI per-block model scores this op's block mapping (scaled
  /// by the flops ratio).
  model::BlockAlg block_alg = model::BlockAlg::qr;
  /// The op admits ragged coalescing: a smaller m x n problem embedded in
  /// the top-left of a padded M x N tile — zeros elsewhere, ones on the
  /// trailing diagonal A'[m+k][n+k] (k < N-n) — factors/solves to exactly
  /// the original answer in the top-left (padding contributes only exact
  /// zeros to every reduction), so mixed shapes can share one launch. True
  /// for all the unpivoted direct ops served here; leave false for any op
  /// whose algorithm inspects global structure the embedding changes
  /// (column pivoting, rank-revealing factorizations).
  bool raggable = false;
  /// Nominal FLOPs for one m x n problem (paper §III; feeds Eq. 1 / Table
  /// VI scaling and every reported GFLOP/s).
  double (*flops)(int m, int n, Dtype dtype) = nullptr;
  /// Trace span name the Solver opens around dispatch (and the c64 variant
  /// where complex kernels exist; null = same as `span`).
  const char* span = "solver.op";
  const char* span_c64 = nullptr;
};

/// The traits row for `op`. Total over the Op enum; REGLA_CHECKs on a value
/// outside it.
const OpTraits& op_traits(Op op);

/// Shape admissibility under the traits row (square/tall/wide rules).
bool shape_ok(const OpTraits& t, int m, int n);

/// Dtype admissibility (f32 always; c64 only where kernels exist).
bool dtype_ok(const OpTraits& t, Dtype dtype);

/// Columns materialized in the register tile: n plus the augmented RHS.
inline int augmented_cols(const OpTraits& t, int n) { return n + t.extra_cols; }

/// The padded tile an m x n problem buckets into under ragged coalescing, or
/// {0, 0} when the op/shape is not raggable (trait off, invalid shape, or a
/// tile that would outgrow kRaggedTileCap and stop fitting the register
/// file). Tiles are pow2-sided (min 4) so nearby shapes share buckets;
/// square ops stay square, and M grows until M - m >= N - n so every
/// trailing-diagonal one of the identity embedding lands inside the padded
/// rows (tall ops additionally keep M > N).
struct RaggedTile {
  int m = 0;
  int n = 0;
  explicit operator bool() const { return m > 0 && n > 0; }
};
inline constexpr int kRaggedTileCap = 64;
RaggedTile ragged_tile(const OpTraits& t, int m, int n);

}  // namespace regla::planner
