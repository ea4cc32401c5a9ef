#include "planner/solver.h"

#include <utility>

#include "common/error.h"
#include "common/generators.h"
#include "obs/trace.h"
#include "planner/op_traits.h"

namespace regla {

namespace {

void fill_matrix(BatchF& batch, planner::FillKind kind, std::uint64_t seed) {
  switch (kind) {
    case planner::FillKind::uniform: fill_uniform(batch, seed); return;
    case planner::FillKind::diag_dominant: fill_diag_dominant(batch, seed); return;
    case planner::FillKind::spd: fill_spd(batch, seed); return;
  }
  REGLA_CHECK(false);
}

}  // namespace

Solver::Solver(simt::Device& dev, Options opt)
    : dev_(dev),
      opt_(opt),
      planner_(std::make_shared<planner::Planner>(opt.planner)) {
  if (opt_.planner.autotune)
    planner_->set_measure_fn(
        [this](const planner::ProblemDesc& sample, const planner::Plan& cand) {
          return measure(sample, cand);
        });
}

Solver::Solver(simt::Device& dev, std::shared_ptr<planner::Planner> shared,
               Options opt)
    : dev_(dev), opt_(opt), planner_(std::move(shared)) {
  REGLA_CHECK_MSG(planner_ != nullptr, "shared planner must not be null");
  // No measure callback here: autotune measurement binds a plan build to one
  // Solver's device, which is a data race once siblings share the planner.
}

SolveReport Solver::run(planner::Op op, ops::Call call) {
  const planner::OpTraits& traits = planner::op_traits(op);
  const bool c64 = call.dtype() == planner::Dtype::c64;
  obs::Span span(c64 && traits.span_c64 ? traits.span_c64 : traits.span,
                 "solver");
  ops::validate(op, call);
  const planner::Plan plan = planner_->plan(
      dev_.config(), planner::ProblemDesc{op, call.m(), call.n(), call.count(),
                                          call.dtype()});
  SolveReport rep = ops::run_device(dev_, op, plan, call);
  const planner::PlannerStats s = planner_->stats();
  rep.planner_hits = s.cache_hits;
  rep.planner_misses = s.cache_misses;
  return rep;
}

SolveReport Solver::qr(BatchF& batch, BatchF* taus, const SolveOptions& opts) {
  ops::Call call;
  call.a = &batch;
  call.taus = taus;
  call.opts = opts;
  return run(planner::Op::qr, call);
}

SolveReport Solver::qr(BatchC& batch, BatchC* taus, const SolveOptions& opts) {
  ops::Call call;
  call.ca = &batch;
  call.ctaus = taus;
  call.opts = opts;
  return run(planner::Op::qr, call);
}

SolveReport Solver::lu(BatchF& batch, const SolveOptions& opts) {
  ops::Call call;
  call.a = &batch;
  call.opts = opts;
  return run(planner::Op::lu, call);
}

SolveReport Solver::solve(BatchF& a, BatchF& b, const SolveOptions& opts) {
  ops::Call call;
  call.a = &a;
  call.b = &b;
  call.opts = opts;
  return run(opts.method == core::SolveMethod::gauss_jordan
                 ? planner::Op::solve_gj
                 : planner::Op::solve_qr,
             call);
}

SolveReport Solver::least_squares(BatchF& a, BatchF& b,
                                  const SolveOptions& opts) {
  ops::Call call;
  call.a = &a;
  call.b = &b;
  call.opts = opts;
  return run(planner::Op::least_squares, call);
}

SolveReport Solver::cholesky(BatchF& batch, const SolveOptions& opts) {
  ops::Call call;
  call.a = &batch;
  call.opts = opts;
  return run(planner::Op::cholesky, call);
}

SolveReport Solver::trsm(BatchF& l, BatchF& b, const SolveOptions& opts) {
  ops::Call call;
  call.a = &l;
  call.b = &b;
  call.opts = opts;
  return run(planner::Op::trsm, call);
}

double Solver::measure(const planner::ProblemDesc& d,
                       const planner::Plan& cand) {
  // Synthetic data per the op's traits row (the paper's methodology: uniform
  // for QR/LS, diagonally dominant wherever an unpivoted elimination must
  // not break down, SPD for Cholesky). The candidate's threads/layout ride
  // in through SolveOptions so block_opts() reconstructs them at dispatch.
  const planner::OpTraits& traits = planner::op_traits(d.op);
  core::SolveOptions sopts;
  sopts.threads = cand.threads;
  sopts.layout = cand.layout;
  try {
    if (d.dtype == planner::Dtype::c64) {
      BatchC a(d.batch, d.m, d.n);
      fill_uniform(a, 0x9e37);
      ops::Call call;
      call.ca = &a;
      call.opts = sopts;
      return ops::run_device(dev_, d.op, cand, call).chip_cycles;
    }
    BatchF a(d.batch, d.m, d.n);
    fill_matrix(a, traits.fill, 0x9e37);
    BatchF b;
    ops::Call call;
    call.a = &a;
    call.opts = sopts;
    if (traits.rhs != planner::RhsShape::none) {
      const int rows = traits.rhs == planner::RhsShape::m_by_1 ? d.m : d.n;
      b = BatchF(d.batch, rows, 1);
      fill_matrix(b, traits.rhs_fill, 0x79b9);
      call.b = &b;
    }
    return ops::run_device(dev_, d.op, cand, call).chip_cycles;
  } catch (const Error&) {
    // A candidate the kernels reject is simply not measurable.
  }
  return -1;
}

}  // namespace regla
