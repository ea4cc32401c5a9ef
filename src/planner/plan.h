// Problem signatures and launch plans (the planner's vocabulary).
//
// A ProblemDesc names *what* is being solved — (op, m, n, batch, dtype) — and
// a Plan says *how* to map it onto the chip: the paper's approach (§IV
// per-thread, §V per-block, §VII tiled), the per-block thread count and
// layout, plus the analytical model's cycle estimate for the whole batch.
#pragma once

#include <cstdint>

#include "core/batched.h"
#include "core/layout.h"

namespace regla::planner {

/// Batched operation kinds the planner can dispatch. The solve flavours are
/// split because they map to different kernels (and different FLOP counts):
/// solve_qr is the stable QR-of-[A|b] path, solve_gj the unpivoted
/// Gauss-Jordan path for diagonally dominant systems. cholesky and trsm are
/// the SPD extensions past the paper's set (lower Cholesky in place, and a
/// forward triangular solve L x = b from such a factor). Each Op's shape
/// rules, kernels, and FLOP formula live in one OpTraits row
/// (planner/op_traits.h) plus one registration TU under src/ops/.
enum class Op : std::uint8_t {
  qr, lu, solve_qr, solve_gj, least_squares, cholesky, trsm
};

/// Number of Op enumerators (for registry/traits completeness sweeps).
inline constexpr int kOpCount = 7;

inline const char* to_string(Op op) {
  switch (op) {
    case Op::qr: return "qr";
    case Op::lu: return "lu";
    case Op::solve_qr: return "solve_qr";
    case Op::solve_gj: return "solve_gj";
    case Op::least_squares: return "least_squares";
    case Op::cholesky: return "cholesky";
    case Op::trsm: return "trsm";
  }
  return "?";
}

/// Element type of the batch. c64 is a single-precision complex pair — two
/// register words per element, 4x the real FLOPs per elementary operation
/// (the §VII STAP workload).
enum class Dtype : std::uint8_t { f32, c64 };

inline const char* to_string(Dtype d) { return d == Dtype::c64 ? "c64" : "f32"; }

inline int words_per_elem(Dtype d) { return d == Dtype::c64 ? 2 : 1; }

/// The problem signature: everything the planner needs to pick a mapping.
struct ProblemDesc {
  Op op = Op::qr;
  int m = 0;      ///< rows per problem
  int n = 0;      ///< columns per problem (systems: n == m)
  int batch = 0;  ///< number of independent problems
  Dtype dtype = Dtype::f32;

  bool operator==(const ProblemDesc&) const = default;
};

/// A fully resolved launch recipe plus the model's justification for it.
struct Plan {
  core::Approach approach = core::Approach::per_thread;
  core::Layout layout = core::Layout::cyclic2d;
  /// Threads per block for per-block/tiled launches (64 or 256); the fixed
  /// bundle size for per-thread launches.
  int threads = 0;
  /// Problems resident on the chip in one launch wave under this mapping
  /// (per-thread: resident threads; per-block: resident blocks; tiled: the
  /// tightest step). This is the model's batch quantum — a device batch of
  /// this many problems fills the chip exactly once, and the serving
  /// runtime coalesces toward a multiple of it.
  int concurrent = 0;

  // --- Model verdict (whole batch, chip cycles on the configured device) --
  double predicted_cycles = 0;
  double predicted_gflops = 0;
};

}  // namespace regla::planner
