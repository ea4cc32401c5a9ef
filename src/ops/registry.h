// The op dispatch registry — regla's ATen-style kernel table.
//
// Every batched operation is keyed by (planner::Op, planner::Dtype, Backend)
// and registered from its own translation unit with REGLA_REGISTER_OP. An
// entry bundles what dispatch needs end to end:
//   - Backend::device: the kernel launcher (plan-driven: per-thread /
//     per-block / tiled),
//   - Backend::cpu: the cpu:: reference implementation — the runtime's
//     circuit-breaker fallback and the tests' numeric oracle,
//   - the paper-§III operation-count function, taken from the op's
//     planner::OpTraits row at registration time.
//
// Adding an op to regla is therefore one traits row (planner/op_traits.cc)
// plus ONE new .cc file in this directory; the Solver facade, the serving
// Runtime (coalescing, fallback, validation), the planner's candidate
// enumeration, and the introspection surface (ops::list(), the
// ops.registered gauge, bench --list-ops) all pick it up with no further
// edits. See DESIGN.md §11.
#pragma once

#include <functional>
#include <vector>

#include "common/error.h"
#include "core/batched.h"
#include "core/tiled_qr.h"
#include "cpu/thread_pool.h"
#include "planner/plan.h"
#include "planner/solve_report.h"
#include "simt/engine.h"

namespace regla::ops {

/// Where an entry runs: the simulated device or the host fallback path.
enum class Backend : std::uint8_t { device, cpu };

inline const char* to_string(Backend b) {
  return b == Backend::device ? "device" : "cpu";
}

/// Registering the same (op, dtype, backend) twice — a build wiring bug,
/// thrown by the losing Registration's constructor.
class DuplicateOpError : public Error {
 public:
  using Error::Error;
};

/// Lookup of an (op, dtype, backend) no translation unit registered — e.g.
/// submitting a c64 batch for an op with no complex kernels. A typed error,
/// never a crash, so callers can report or degrade.
class UnregisteredOpError : public Error {
 public:
  using Error::Error;
};

/// The uniform argument pack dispatch passes to an entry. Exactly one of
/// a/ca is set (f32 vs c64 payload); b carries the op's right-hand side when
/// its traits say it takes one; taus/ctaus are the optional QR reflector
/// scalars. Pointees must outlive the call; batches are modified in place
/// per the op's contract.
struct Call {
  BatchF* a = nullptr;     ///< f32 matrix batch (factored/consumed in place)
  BatchF* b = nullptr;     ///< f32 right-hand sides / solution vectors
  BatchF* taus = nullptr;  ///< optional reflector scalars (QR family)
  BatchC* ca = nullptr;    ///< c64 matrix batch
  BatchC* ctaus = nullptr;
  core::SolveOptions opts; ///< request-level knobs (threads/layout/method)
  /// How the problems sit in a padded ragged tile: a hash of their true
  /// shapes, 0 when unpadded. Identity padding changes a kernel's accounting
  /// (QR skips the reflectors of the padded columns), so the replay cache
  /// keys on it alongside the tile dims.
  std::uint64_t embedding = 0;

  planner::Dtype dtype() const {
    return ca != nullptr ? planner::Dtype::c64 : planner::Dtype::f32;
  }
  int count() const {
    return ca != nullptr ? ca->count() : (a != nullptr ? a->count() : 0);
  }
  int m() const { return ca != nullptr ? ca->rows() : (a ? a->rows() : 0); }
  int n() const { return ca != nullptr ? ca->cols() : (a ? a->cols() : 0); }
};

/// A device entry: runs the already-planned launch. The plan's approach and
/// threads are binding (opts.threads, when nonzero, was already folded in by
/// the planner caller via block_opts()).
using DeviceFn = std::function<SolveReport(regla::simt::Device& dev,
                                           const planner::Plan& plan,
                                           const Call& call)>;

/// A cpu entry: the reference path. No plan — host execution has no launch
/// geometry; the pool is the caller's (per-stream in the runtime).
using CpuFn = std::function<SolveReport(const Call& call,
                                        cpu::ThreadPool& pool)>;

/// One registered entry as reported by list(): the key plus whether the
/// traits row supplied an operation-count function.
struct OpInfo {
  planner::Op op{};
  planner::Dtype dtype{};
  Backend backend{};
  bool has_flops = false;
};

/// Static-registration handle; constructing one inserts the entry (and
/// throws DuplicateOpError on a key collision). Use via REGLA_REGISTER_OP.
struct Registration {
  Registration(planner::Op op, planner::Dtype dtype, Backend backend,
               DeviceFn fn);
  Registration(planner::Op op, planner::Dtype dtype, Backend backend,
               CpuFn fn);
};

/// Registers `fn` for (op, dtype, backend) at static-init time. `uniq` is
/// any identifier unique within the translation unit.
#define REGLA_REGISTER_OP(uniq, op, dtype, backend, fn)             \
  static const ::regla::ops::Registration regla_op_reg_##uniq{op, dtype, \
                                                              backend, fn}

/// True when an entry exists for the key.
bool registered(planner::Op op, planner::Dtype dtype, Backend backend);

/// Every registered entry, sorted by (op, dtype, backend).
std::vector<OpInfo> list();

/// Re-stamp the `ops.registered` gauge for every entry. Registration stamps
/// each gauge once at static-init time; obs::reset_all() zeroes instruments
/// without removing them, so a metrics consumer that resets between scrapes
/// calls this to restore the registry's view before reading.
void publish_metrics();

/// Shape/RHS preconditions for `op` against the call's batches, from the
/// op's traits row (square_only, tall_only, rhs shape, c64 support).
/// REGLA_CHECKs with a caller-facing message on violation.
void validate(planner::Op op, const Call& call);

/// Dispatch to the device entry for (op, call.dtype()). Throws
/// UnregisteredOpError if none is registered.
SolveReport run_device(regla::simt::Device& dev, planner::Op op,
                       const planner::Plan& plan, const Call& call);

/// Dispatch to the cpu reference entry for (op, call.dtype()). Throws
/// UnregisteredOpError if none is registered.
SolveReport run_cpu(planner::Op op, const Call& call, cpu::ThreadPool& pool);

/// The op's nominal FLOPs for the whole batch in `call` (traits formula x
/// count) — what every entry stamps into SolveReport::nominal_flops.
double nominal_flops(planner::Op op, const Call& call);

// --- helpers for entry implementations -------------------------------------

/// Fold a kernel-level GpuBatchResult into a SolveReport under `plan`.
SolveReport from_gpu(const planner::Plan& plan, const core::GpuBatchResult& r);

/// Fold a tiled-chain TiledResult into a SolveReport under `plan`.
SolveReport from_tiled(const planner::Plan& plan, const core::TiledResult& t);

/// The per-block kernel knobs for a planned launch; an explicit user thread
/// count overrides the planner's choice.
core::BlockOptions block_opts(const planner::Plan& plan,
                              const core::SolveOptions& opts);

}  // namespace regla::ops
