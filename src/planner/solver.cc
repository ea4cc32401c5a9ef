#include "planner/solver.h"

#include "obs/trace.h"
#include "planner/op_traits.h"

namespace regla {

Solver::Solver(simt::Device& dev) : dev_(dev) {}

SolveReport Solver::run(planner::Op op, ops::Call call) {
  const planner::OpTraits& traits = planner::op_traits(op);
  const bool c64 = call.dtype() == planner::Dtype::c64;
  obs::Span span(c64 && traits.span_c64 ? traits.span_c64 : traits.span,
                 "solver");
  ops::validate(op, call);
  const planner::Plan plan = planner_.plan(
      dev_.config(), planner::ProblemDesc{op, call.m(), call.n(), call.count(),
                                          call.dtype()});
  return ops::run_device(dev_, op, plan, call);
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

}  // namespace regla
