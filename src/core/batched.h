// regla's top-level batched API: picks the paper's approach automatically.
//
//   n < 16            -> one problem per thread  (§IV)
//   fits one block    -> one problem per block   (§V)
//   taller than that  -> sequential tiled QR     (§VII)
//
// "Very small problems (e.g. n < 16) can be efficiently solved by assigning
//  one problem per thread... For larger problems it makes sense to assign an
//  entire thread block to a single problem... Tiled algorithms can be used to
//  solve problems that are too large to fit in a single thread block's
//  register file." (paper §VIII)
//
// Dispatch now goes through the op registry (src/ops/registry.h) behind the
// model-guided launch planner: candidates are scored with the §II/§IV-V
// analytical models on every launch, and the cheapest runs. choose_approach
// below remains as the model-free static rule (and the planner's reference
// in tests/benches).
//
// Batched solves go through the regla::Solver facade (planner/solver.h),
// which owns its planner and returns the unified SolveReport.
#pragma once

#include "core/per_block.h"
#include "core/per_thread.h"
#include "core/tiled_qr.h"

namespace regla::core {

enum class Approach { per_thread, per_block, tiled };

inline const char* to_string(Approach a) {
  switch (a) {
    case Approach::per_thread: return "per_thread";
    case Approach::per_block: return "per_block";
    case Approach::tiled: return "tiled";
  }
  return "?";
}

/// Largest square dimension the per-thread approach accepts (paper §IV:
/// "very small problems (e.g. n < 16)"). Past this the Eq. 1 model has lost
/// validity to register spilling (Fig. 4) and per-block takes over.
inline constexpr int kPerThreadMaxDim = 15;

/// The static dispatch rule, exposed so callers and benches can reason about
/// it — and so the planner can be validated against it at the boundaries.
Approach choose_approach(const regla::simt::DeviceConfig& cfg, int m, int n,
                         int words_per_elem = 1);

/// How to solve A x = b.
enum class SolveMethod {
  auto_,         ///< currently the stable QR path (planner may widen this)
  qr,            ///< QR of [A | b] + back-substitution: stable
  gauss_jordan,  ///< unpivoted Gauss-Jordan: faster, needs diagonal dominance
};

/// One options struct for every batched entry point (subsumes the old
/// per-block BlockOptions and the old `bool stable` flag of batched_solve).
struct SolveOptions {
  SolveMethod method = SolveMethod::auto_;
  /// Per-block threads override; 0 lets the planner choose (64 or 256).
  int threads = 0;
  /// Register-file data layout for per-block kernels.
  Layout layout = Layout::cyclic2d;

  /// The per-block kernel knobs this folds in.
  BlockOptions block() const { return BlockOptions{threads, layout}; }
};

}  // namespace regla::core
