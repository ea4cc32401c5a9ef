// Workload definitions and their seeded inputs: the request kinds each
// workload sends, a pool of pre-generated requests with their cpu::
// reference answers, and the oracle that checks a served result.
#pragma once

#include <string>
#include <vector>

#include "common/matrix.h"
#include "cpu/thread_pool.h"
#include "planner/plan.h"

namespace hostbench {

using regla::BatchF;
using regla::planner::Op;

/// Problems per request, in every workload.
inline constexpr int kProblemsPerRequest = 4;

enum class Fill { uniform, diag_dominant, spd };

/// One request shape: op, submitted problem size, how matrices are filled,
/// and whether the request carries a right-hand side.
struct Kind {
  Op op = Op::qr;
  int m = 0;
  int n = 0;
  Fill fill = Fill::uniform;
  bool rhs = false;

  int rhs_rows() const { return op == Op::least_squares ? m : n; }
  std::string label() const;
};

struct Workload {
  std::string name;
  std::vector<Kind> kinds;  ///< chosen uniformly per request
  int outstanding = 0;      ///< closed loop: requests in flight (0 = open)
  double rate_rps = 0;      ///< open loop: Poisson arrival rate
  bool ragged = false;      ///< RuntimeOptions::ragged
  bool resilient = false;   ///< retry + cpu fallback (every batch staged)
  int pool_per_kind = 0;    ///< distinct pre-generated requests per kind
};

/// The named workload, or null.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// A pre-generated request: its inputs and the cpu:: reference output the
/// served result must match.
struct Request {
  int kind = 0;
  BatchF a, b;  ///< inputs (b empty when the kind has no rhs)
  BatchF want;  ///< reference: factors (qr/lu/cholesky) or x (solves)
};

/// Every request of the pool, generated from `seed` alone: the same seed
/// gives bit-identical inputs. Kind k's requests are contiguous.
std::vector<Request> make_pool(const Workload& w, std::uint64_t seed);

/// Fill `a` (and `b`) the way kind `k` fills its inputs.
void fill_inputs(const Kind& k, BatchF& a, BatchF* b, std::uint64_t seed);

/// Solve kind `k` in place on the cpu:: reference path over `pool`. The
/// answer (see Request::want) lands in `a` (qr/lu/cholesky), `b`
/// (solve_gj) or `x` (least_squares: count x n x 1, preallocated), and
/// answer() picks it out.
void cpu_solve(const Kind& k, BatchF& a, BatchF& b, BatchF& x,
               regla::cpu::ThreadPool& pool);
const BatchF& answer(const Kind& k, const BatchF& a, const BatchF& b, const BatchF& x);

/// Relative error of a served result against the reference: the largest
/// per-problem max |got - want| / max |want| over the compared entries (QR
/// compares |R|, since reflector signs are free; Cholesky the lower
/// triangle; LU the full factors; solves the solution vector).
double oracle_error(const Kind& k, const Request& req, const BatchF& got_a,
                    const BatchF& got_b);

}  // namespace hostbench
