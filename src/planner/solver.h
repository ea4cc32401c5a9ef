// regla::Solver — the unified front door.
//
//   regla::simt::Device dev;
//   regla::Solver solver(dev);
//   auto report = solver.qr(batch);          // planned, cached, dispatched
//   report.gflops(); report.plan.approach; report.plan.from_cache;
//
// A Solver owns a model-guided Planner and its plan cache: the first solve
// of a shape enumerates and scores candidate mappings, every repeat is an
// O(1) cache hit straight to dispatch. Execution goes through the op
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

#include <memory>

#include "ops/registry.h"
#include "planner/planner.h"
#include "planner/solve_report.h"
#include "simt/engine.h"

namespace regla {

/// Request-level options, forwarded to dispatch with every call (see
/// core/batched.h for the fields: method, threads, layout).
using SolveOptions = core::SolveOptions;

/// The planner-backed facade over the op registry. Holds a reference to the
/// Device; one Solver per Device (or several — plans are keyed by device
/// configuration, so sharing is safe but caches are per-Solver).
class Solver {
 public:
  explicit Solver(simt::Device& dev);

  /// Share a planner (and its thread-safe plan cache) with other Solvers:
  /// the serving runtime gives every worker stream its own Device + Solver
  /// but one planner, so a signature planned on any stream is a cache hit on
  /// all of them.
  Solver(simt::Device& dev, std::shared_ptr<planner::Planner> shared);

  /// The generic entry point every typed method funnels into: validate the
  /// call against the op's traits, plan (cached), dispatch to the registered
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

  planner::Planner& planner() { return *planner_; }
  const planner::Planner& planner() const { return *planner_; }
  /// The planner as a shareable handle (for spinning up sibling Solvers).
  std::shared_ptr<planner::Planner> shared_planner() const { return planner_; }
  simt::Device& device() { return dev_; }

 private:
  simt::Device& dev_;
  std::shared_ptr<planner::Planner> planner_;
};

}  // namespace regla
