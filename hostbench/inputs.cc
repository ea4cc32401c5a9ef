#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "common/generators.h"
#include "cpu/batched.h"

namespace hostbench {

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<Workload> make_workloads() {
  const Kind qr8{Op::qr, 8, 8, Fill::uniform, false};
  const Kind qr32{Op::qr, 32, 32, Fill::uniform, false};
  std::vector<Workload> w;
  // Per-thread kernels, batches of ~256: the runtime/fleet/planner per-batch
  // and per-request work is over half the host cost here.
  w.push_back({"qr8_closed", {qr8}, 64, 0, false, false, 256});
  // Per-block kernels: simt (replayed blocks on fibers) does >95% of the work.
  w.push_back({"qr32_closed", {qr32}, 32, 0, false, false, 64});
  // Deadline-flushed batches of about one request across ~6 ragged queues,
  // staged because resilience is on: timer wheel, gather/scatter, padding
  // and plan lookups over many signatures.
  w.push_back({"mixed_open",
               {qr8,
                {Op::lu, 12, 12, Fill::diag_dominant, false},
                {Op::solve_gj, 16, 16, Fill::diag_dominant, true},
                {Op::cholesky, 24, 24, Fill::spd, false},
                {Op::least_squares, 32, 16, Fill::uniform, true},
                {Op::qr, 26, 26, Fill::uniform, false},
                {Op::qr, 28, 28, Fill::uniform, false},
                {Op::qr, 30, 30, Fill::uniform, false},
                qr32},
               0, 400, true, true, 32});
  return w;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = make_workloads();
  return w;
}

}  // namespace

std::string Kind::label() const {
  return std::string(regla::planner::to_string(op)) + "_" + std::to_string(m) +
         "x" + std::to_string(n);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

void fill_inputs(const Kind& k, BatchF& a, BatchF* b, std::uint64_t seed) {
  switch (k.fill) {
    case Fill::uniform: regla::fill_uniform(a, seed); break;
    case Fill::diag_dominant: regla::fill_diag_dominant(a, seed); break;
    case Fill::spd: regla::fill_spd(a, seed); break;
  }
  if (b != nullptr) regla::fill_uniform(*b, mix(seed));
}

std::vector<Request> make_pool(const Workload& w, std::uint64_t seed) {
  std::vector<Request> pool;
  regla::cpu::ThreadPool one(1);
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    const Kind& kind = w.kinds[k];
    for (int i = 0; i < w.pool_per_kind; ++i) {
      Request r;
      r.kind = static_cast<int>(k);
      r.a = BatchF(kProblemsPerRequest, kind.m, kind.n);
      if (kind.rhs) r.b = BatchF(kProblemsPerRequest, kind.rhs_rows(), 1);
      fill_inputs(kind, r.a, kind.rhs ? &r.b : nullptr,
                  mix(seed ^ mix(k * 1000003 + static_cast<std::uint64_t>(i))));
      BatchF a = r.a, b = r.b, x(kProblemsPerRequest, kind.n, 1);
      cpu_solve(kind, a, b, x, one);
      r.want = answer(kind, a, b, x);
      pool.push_back(std::move(r));
    }
  }
  return pool;
}

void cpu_solve(const Kind& k, BatchF& a, BatchF& b, BatchF& x,
               regla::cpu::ThreadPool& pool) {
  namespace cpu = regla::cpu;
  switch (k.op) {
    case Op::qr: cpu::batched_qr(a, pool); return;
    case Op::lu: cpu::batched_lu(a, /*pivot=*/false, pool); return;
    case Op::cholesky: cpu::batched_cholesky(a, nullptr, pool); return;
    case Op::solve_gj: cpu::batched_solve_gj(a, b, /*pivot=*/false, pool); return;
    case Op::least_squares: cpu::batched_least_squares(a, b, x, pool); return;
    default: break;
  }
  REGLA_CHECK_MSG(false, "hostbench: no cpu reference for this op");
}

const BatchF& answer(const Kind& k, const BatchF& a, const BatchF& b, const BatchF& x) {
  if (k.op == Op::solve_gj) return b;
  if (k.op == Op::least_squares) return x;
  return a;
}

double oracle_error(const Kind& k, const Request& req, const BatchF& got_a,
                    const BatchF& got_b) {
  const BatchF& want = req.want;
  const bool solves = k.op == Op::solve_gj || k.op == Op::least_squares;
  const BatchF& got = solves ? got_b : got_a;
  if (got.count() != want.count()) return 1e30;
  double worst = 0;
  for (int p = 0; p < want.count(); ++p) {
    double diff = 0, scale = 0;
    for (int j = 0; j < want.cols(); ++j)
      for (int i = 0; i < want.rows(); ++i) {
        if (k.op == Op::qr && i > j) continue;
        if (k.op == Op::cholesky && i < j) continue;
        double g = got.at(p, i, j), w = want.at(p, i, j);
        if (!std::isfinite(g)) return 1e30;
        if (k.op == Op::qr) g = std::abs(g), w = std::abs(w);
        diff = std::max(diff, std::abs(g - w));
        scale = std::max(scale, std::abs(w));
      }
    worst = std::max(worst, diff / std::max(scale, 1e-30));
  }
  return worst;
}

}  // namespace hostbench
