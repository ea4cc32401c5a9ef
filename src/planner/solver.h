// regla::Solver — the unified front door.
//
//   regla::simt::Device dev;
//   regla::Solver solver(dev);
//   auto report = solver.qr(batch);          // planned, dispatched
//   report.gflops(); report.plan.approach; report.plan.predicted_cycles;
//
// A Solver owns a model-guided Planner: every solve enumerates and scores
// the candidate mappings for its shape (closed-form models, about a
// microsecond) and dispatches the cheapest. Execution goes through the op
// registry (ops/registry.h): the Solver plans, the registry's (op, dtype,
// backend) entry runs the kernels.
// The typed methods below (qr/lu/solve/...) are one-line conveniences over
// the generic run(); any registered op — including ones added after this
// header was written — is reachable via run(op, call).
//
// Per-call knobs (solve method, per-block thread override, register layout)
// are regla::SolveOptions (= core::SolveOptions), carried to the kernels
// inside ops::Call; a Solver itself has no options.
//
// Benches, the STAP pipeline and the serving runtime's worker streams all
// solve through this facade.
#pragma once

#include "ops/registry.h"
#include "planner/planner.h"
#include "planner/solve_report.h"
#include "simt/engine.h"

namespace regla {

/// Request-level options, forwarded to dispatch with every call (see
/// core/batched.h for the fields: method, threads, layout).
using SolveOptions = core::SolveOptions;

/// The planner-backed facade over the op registry. Holds a reference to the
/// Device and owns its Planner; one Solver per Device (or several — each
/// plans from the device's configuration at every call).
class Solver {
 public:
  explicit Solver(simt::Device& dev);

  /// The generic entry point every typed method funnels into: validate the
  /// call against the op's traits, plan, dispatch to the registered
  /// device entry. Throws ops::UnregisteredOpError if no kernel exists for
  /// (op, call dtype).
  SolveReport run(planner::Op op, ops::Call call);

  /// QR-factor every matrix in place (tiled path: R only; taus not
  /// produced there).
  SolveReport qr(BatchF& batch, BatchF* taus = nullptr,
                 const SolveOptions& opts = {});
  SolveReport qr(BatchC& batch, BatchC* taus = nullptr,
                 const SolveOptions& opts = {});

  /// Unpivoted LU in place (problems up to one block).
  SolveReport lu(BatchF& batch, const SolveOptions& opts = {});

  /// Solve A_k x_k = b_k; b overwritten with x. Method via opts.method.
  SolveReport solve(BatchF& a, BatchF& b, const SolveOptions& opts = {});

  /// Least squares min ||A x - b||; x lands in the first n entries of b.
  SolveReport least_squares(BatchF& a, BatchF& b,
                            const SolveOptions& opts = {});

  /// Lower Cholesky in place (L in the lower triangle; strictly-upper
  /// contents unspecified). Non-SPD problems flag not_solved.
  SolveReport cholesky(BatchF& batch, const SolveOptions& opts = {});

  /// Forward triangular solve L_k x_k = b_k from lower factors (Cholesky
  /// output convention); b overwritten with x. Zero diagonals flag
  /// not_solved.
  SolveReport trsm(BatchF& l, BatchF& b, const SolveOptions& opts = {});

  planner::Planner& planner() { return planner_; }
  const planner::Planner& planner() const { return planner_; }
  simt::Device& device() { return dev_; }

 private:
  simt::Device& dev_;
  planner::Planner planner_;
};

}  // namespace regla
