#include "ops/registry.h"

#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "planner/op_traits.h"
#include "planner/planner.h"

namespace regla::ops {

namespace {

struct Key {
  planner::Op op;
  planner::Dtype dtype;
  Backend backend;
  auto operator<=>(const Key&) const = default;
};

struct Entry {
  DeviceFn device;  ///< set iff backend == device
  CpuFn cpu;        ///< set iff backend == cpu
  double (*flops)(int m, int n, planner::Dtype) = nullptr;
};

/// The singleton table. Intentionally leaked (never destroyed) so lookups
/// from other static-destruction contexts stay valid; guarded because
/// runtime streams dispatch concurrently.
struct Table {
  std::mutex mu;
  std::map<Key, Entry> entries;
};

Table& table() {
  static Table* t = new Table();
  return *t;
}

std::string key_name(const Key& k) {
  std::ostringstream os;
  os << planner::to_string(k.op) << " " << planner::to_string(k.dtype) << " "
     << to_string(k.backend);
  return os.str();
}

// Introspection: one gauge per registered entry, so what's pluggable shows
// up in the metrics surface (and /metrics-style dumps) without a lookup.
void stamp_gauge(const Key& k) {
  obs::gauge("ops.registered",
             std::string("op=") + planner::to_string(k.op) +
                 ",dtype=" + planner::to_string(k.dtype) +
                 ",backend=" + to_string(k.backend))
      .set(1);
}

void insert(const Key& k, Entry e) {
  e.flops = planner::op_traits(k.op).flops;
  {
    Table& t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    const auto [it, fresh] = t.entries.emplace(k, std::move(e));
    (void)it;
    if (!fresh)
      throw DuplicateOpError("op registry: " + key_name(k) +
                             " registered twice");
  }
  stamp_gauge(k);
}

const Entry* find(const Key& k) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.entries.find(k);
  return it == t.entries.end() ? nullptr : &it->second;
}

}  // namespace

Registration::Registration(planner::Op op, planner::Dtype dtype,
                           Backend backend, DeviceFn fn) {
  REGLA_CHECK_MSG(backend == Backend::device,
                  "a device launcher must register under Backend::device");
  Entry e;
  e.device = std::move(fn);
  insert(Key{op, dtype, backend}, std::move(e));
}

Registration::Registration(planner::Op op, planner::Dtype dtype,
                           Backend backend, CpuFn fn) {
  REGLA_CHECK_MSG(backend == Backend::cpu,
                  "a cpu reference must register under Backend::cpu");
  Entry e;
  e.cpu = std::move(fn);
  insert(Key{op, dtype, backend}, std::move(e));
}

bool registered(planner::Op op, planner::Dtype dtype, Backend backend) {
  return find(Key{op, dtype, backend}) != nullptr;
}

std::vector<OpInfo> list() {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  std::vector<OpInfo> out;
  out.reserve(t.entries.size());
  for (const auto& [k, e] : t.entries)
    out.push_back(OpInfo{k.op, k.dtype, k.backend, e.flops != nullptr});
  return out;  // std::map iteration: already (op, dtype, backend)-sorted
}

void publish_metrics() {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  for (const auto& [k, e] : t.entries) {
    (void)e;
    stamp_gauge(k);
  }
}

void validate(planner::Op op, const Call& call) {
  const planner::OpTraits& t = planner::op_traits(op);
  if (call.dtype() == planner::Dtype::c64)
    REGLA_CHECK_MSG(t.supports_c64, "no c64 kernels for "
                                        << planner::to_string(op)
                                        << " (paper §VII covers QR only)");
  REGLA_CHECK_MSG(call.count() > 0 && call.m() > 0 && call.n() > 0,
                  "empty submission");
  if (t.square_only)
    REGLA_CHECK_MSG(call.m() == call.n(),
                    planner::to_string(op) << " needs square problems");
  const BatchF* b = call.b;
  switch (t.rhs) {
    case planner::RhsShape::none:
      REGLA_CHECK_MSG(b == nullptr || b->count() == 0,
                      planner::to_string(op)
                          << " takes no right-hand side; submit a alone");
      break;
    case planner::RhsShape::n_by_1:
      REGLA_CHECK_MSG(b != nullptr && b->count() == call.count() &&
                          b->rows() == call.n() && b->cols() == 1,
                      planner::to_string(op)
                          << " rhs must be count x n x 1");
      break;
    case planner::RhsShape::m_by_1:
      REGLA_CHECK_MSG(b != nullptr && b->count() == call.count() &&
                          b->rows() == call.m() && b->cols() == 1,
                      planner::to_string(op)
                          << " rhs must be count x m x 1");
      break;
  }
}

namespace {

/// Replay-cache discriminator for everything the launch geometry does not
/// already key: problem dims, dtype, the plan knobs the launcher folds into
/// the kernel, the device-config fingerprint, a ragged tile's embedding, and
/// the payload base-address
/// alignment classes (the DRAM coalescing pattern of block b is the class of
/// base + b*stride mod segment, so two batches whose bases land in different
/// classes must not share cached accounting).
std::uint64_t replay_salt(const regla::simt::Device& dev,
                          const planner::Plan& plan, const Call& call) {
  std::uint64_t h = planner::Planner::config_fingerprint(dev.config());
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(call.m()));
  mix(static_cast<std::uint64_t>(call.n()));
  mix(static_cast<std::uint64_t>(call.count()));
  mix(static_cast<std::uint64_t>(call.dtype()));
  mix(static_cast<std::uint64_t>(plan.approach));
  mix(static_cast<std::uint64_t>(plan.layout));
  mix(static_cast<std::uint64_t>(plan.threads));
  mix(call.embedding);
  const std::uint64_t seg =
      std::max<std::uint64_t>(1, dev.config().dram_segment_bytes);
  const auto mix_base = [&](const void* p) {
    mix(p != nullptr ? reinterpret_cast<std::uintptr_t>(p) % seg + 1 : 0);
  };
  mix_base(call.a != nullptr ? call.a->data() : nullptr);
  mix_base(call.b != nullptr ? call.b->data() : nullptr);
  mix_base(call.taus != nullptr ? call.taus->data() : nullptr);
  mix_base(call.ca != nullptr ? call.ca->data() : nullptr);
  mix_base(call.ctaus != nullptr ? call.ctaus->data() : nullptr);
  return h;
}

/// Blocks after which the payloads' alignment classes repeat: problem k of
/// a payload sits at base + k·stride, whose class mod the DRAM segment has
/// period segment / gcd(segment, stride). A block spans one problem or a
/// run of them, so blocks repeat with a divisor of this period.
int replay_alignment_period(const regla::simt::Device& dev, const Call& call) {
  const std::uint64_t seg =
      std::max<std::uint64_t>(1, dev.config().dram_segment_bytes);
  std::uint64_t g = seg;
  const auto fold = [&](const auto* batch) {
    if (batch != nullptr)
      g = std::gcd(g, batch->stride() * sizeof(*batch->data()));
  };
  fold(call.a);
  fold(call.b);
  fold(call.taus);
  fold(call.ca);
  fold(call.ctaus);
  return static_cast<int>(seg / g);
}

}  // namespace

SolveReport run_device(regla::simt::Device& dev, planner::Op op,
                       const planner::Plan& plan, const Call& call) {
  const Key k{op, call.dtype(), Backend::device};
  const Entry* e = find(k);
  if (e == nullptr)
    throw UnregisteredOpError("no device kernel registered for " +
                              key_name(k));
  // Declare data-independence for the replay cache (a no-op on devices that
  // have not opted into replay). Tiled approaches are excluded: their step
  // launches reuse one kernel name across panels whose work differs, so the
  // geometry+salt key cannot tell the steps apart.
  const planner::OpTraits& traits = planner::op_traits(op);
  const bool data_independent =
      traits.data_independent && plan.approach != core::Approach::tiled;
  regla::simt::Device::ReplayScope scope(
      dev, data_independent, data_independent ? replay_salt(dev, plan, call) : 0,
      data_independent ? replay_alignment_period(dev, call) : 1);
  return e->device(dev, plan, call);
}

SolveReport run_cpu(planner::Op op, const Call& call, cpu::ThreadPool& pool) {
  const Key k{op, call.dtype(), Backend::cpu};
  const Entry* e = find(k);
  if (e == nullptr)
    throw UnregisteredOpError("no cpu reference registered for " +
                              key_name(k));
  return e->cpu(call, pool);
}

double nominal_flops(planner::Op op, const Call& call) {
  return planner::op_traits(op).flops(call.m(), call.n(), call.dtype()) *
         call.count();
}

SolveReport from_gpu(const planner::Plan& plan, const core::GpuBatchResult& r) {
  SolveReport rep;
  rep.plan = plan;
  rep.seconds = r.launch.seconds;
  rep.chip_cycles = r.launch.chip_cycles;
  rep.nominal_flops = r.nominal_flops;
  rep.counters = r.launch.totals;
  rep.blocks_per_sm = r.launch.blocks_per_sm;
  rep.waves = r.launch.waves;
  return rep;
}

SolveReport from_tiled(const planner::Plan& plan, const core::TiledResult& t) {
  SolveReport rep;
  rep.plan = plan;
  rep.seconds = t.seconds;
  rep.chip_cycles = t.chip_cycles;
  rep.nominal_flops = t.nominal_flops;
  rep.waves = t.steps;
  return rep;
}

core::BlockOptions block_opts(const planner::Plan& plan,
                              const core::SolveOptions& opts) {
  core::BlockOptions b = opts.block();
  if (b.threads == 0) b.threads = plan.threads;
  return b;
}

}  // namespace regla::ops
