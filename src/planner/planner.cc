#include "planner/planner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/error.h"
#include "model/model.h"
#include "obs/trace.h"
#include "planner/op_traits.h"
#include "simt/occupancy.h"
#include "simt/reg_tile.h"

namespace regla::planner {

namespace {

/// Tile-word touches per nominal FLOP: each multiply-add reads ~2 tile
/// elements and writes ~1, amortized over FMA pairing. Calibrated once
/// against the simulator so the spill-extended scores reproduce the measured
/// dispatch boundaries (per-thread crossover, the Fig. 9 thread switch).
constexpr double kSpillTouchesPerFlop = 2.5;

/// The per-block kernels pay more per spilled word than the touch count
/// alone suggests: spilled accesses serialize against the block's barriers
/// instead of overlapping other problems. Calibrated so the model reproduces
/// the measured 64 -> 256 thread crossover inside the spill regime
/// (64-thread blocks still win at n = 57, lose from n = 64 up).
constexpr double kSpillTouchesPerFlopBlock = 5.0;

/// Columns actually materialized in the register tile (solves and least
/// squares carry the RHS as an augmented column).
int augmented_cols(Op op, int n) { return augmented_cols(op_traits(op), n); }

/// The paper's nominal FLOPs for one problem (what GFLOP/s is reported
/// against, and what the scores charge work for) — the traits-table formula.
double nominal_flops_per_problem(const ProblemDesc& d) {
  return op_traits(d.op).flops(d.m, d.n, d.dtype);
}

/// Fraction of tile words past the register budget (0 while it fits).
double spill_fraction(const regla::simt::DeviceConfig& cfg, double tile_words) {
  const int budget = model::tile_budget_words(cfg);
  if (tile_words <= budget) return 0;
  return (tile_words - budget) / tile_words;
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Whole-batch cycles from a per-block time: blocks run in waves of
/// (blocks_per_sm x num_sm) concurrent problems.
double batch_cycles(double cycles_per_block, int batch, int concurrent) {
  const int waves = ceil_div(batch, std::max(1, concurrent));
  return cycles_per_block * waves;
}

// --- Per-thread scoring (Eq. 1 + spill extension) -------------------------

std::optional<Plan> score_per_thread(const regla::simt::DeviceConfig& cfg,
                                     const ProblemDesc& d) {
  const int wpe = words_per_elem(d.dtype);
  const int naug = augmented_cols(d.op, d.n);
  const int tile_words = d.m * naug * wpe;
  const double flops = nominal_flops_per_problem(d);
  const double bytes = model::matrix_traffic_bytes(d.m, naug, 4 * wpe);

  const auto eq1 = model::predict_per_thread(
      cfg, flops, bytes, d.batch, tile_words + cfg.reg_overhead_per_thread);
  const double bw_seconds = flops * d.batch / (eq1.gflops * 1e9);

  // Planner extension: spilled tile words cost L1 traffic. Per-thread
  // kernels run hundreds of independent problems per SM, so the L1 latency
  // is hidden and only the issue cost remains.
  const double sf = spill_fraction(cfg, tile_words);
  const double spill_cycles =
      kSpillTouchesPerFlop * flops * sf * cfg.l1_cycles_per_access;
  const double fp_cycles = flops / 2;  // FMA-paired issue
  const double lanes = static_cast<double>(cfg.num_sm) * cfg.fpus_per_sm;
  const double compute_seconds =
      (fp_cycles + spill_cycles) * d.batch / (lanes * cfg.clock_ghz * 1e9);

  const double seconds = std::max(bw_seconds, compute_seconds);
  Plan p;
  p.approach = core::Approach::per_thread;
  p.threads = core::kPerThreadBlockSize;
  p.predicted_cycles = seconds * cfg.clock_ghz * 1e9;
  p.predicted_gflops = flops * d.batch / seconds / 1e9;
  // One problem per thread: the wave quantum is the resident thread count.
  const int regs = std::min(cfg.max_regs_per_thread,
                            tile_words + cfg.reg_overhead_per_thread);
  const auto occ =
      regla::simt::occupancy(cfg, core::kPerThreadBlockSize, regs, 0);
  p.concurrent = std::max(1, occ.blocks_per_sm) * cfg.num_sm *
                 core::kPerThreadBlockSize;
  return p;
}

// --- Per-block scoring (Table VI model + spill extension) -----------------

/// Spill-adjusted cycles for one p-thread block factoring an m x naug tile.
/// Per-block kernels interleave spilled accesses with barriers and only a
/// handful of blocks are resident, so spilled words expose L1 latency.
double per_block_cycles(const regla::simt::DeviceConfig& cfg, model::BlockAlg alg,
                        int m, int n, int naug, int threads, int wpe,
                        double op_flops) {
  const auto pred = model::predict_per_block(cfg, alg, m, n, threads);
  const double base_flops =
      alg == model::BlockAlg::lu ? model::lu_flops(n) : model::qr_flops(m, n);
  double cycles = pred.total_cycles * (op_flops / base_flops);

  // Spill on the AVERAGE words a thread holds (edge threads own smaller
  // tiles), not the ceil-rounded worst case: the rounded count cannot tell
  // n = 57 from n = 64 at 64 threads, and the measured winner flips between
  // those two sizes.
  const double avg_words = static_cast<double>(m) * naug * wpe / threads;
  const double sf = spill_fraction(cfg, avg_words);
  cycles += kSpillTouchesPerFlopBlock * (op_flops / threads) * sf *
            cfg.l1_latency_cycles;
  return cycles;
}

int per_block_concurrent(const regla::simt::DeviceConfig& cfg, int m, int naug,
                         int threads, int wpe) {
  const int rdim = static_cast<int>(std::lround(std::sqrt(threads)));
  const int tile_words = ceil_div(m, rdim) * ceil_div(naug, rdim) * wpe;
  const int regs = std::min(cfg.max_regs_per_thread,
                            tile_words + cfg.reg_overhead_per_thread);
  const int shared_bytes = 4 * (m + naug + 32);
  return regla::simt::occupancy(cfg, threads, regs, shared_bytes).blocks_per_sm *
         cfg.num_sm;
}

std::optional<Plan> score_per_block(const regla::simt::DeviceConfig& cfg,
                                    const ProblemDesc& d, int threads) {
  const int wpe = words_per_elem(d.dtype);
  const int naug = augmented_cols(d.op, d.n);
  const auto alg = op_traits(d.op).block_alg;
  const double op_flops = nominal_flops_per_problem(d);
  const double cycles_block =
      per_block_cycles(cfg, alg, d.m, d.n, naug, threads, wpe, op_flops);
  const int concurrent = per_block_concurrent(cfg, d.m, naug, threads, wpe);
  if (concurrent <= 0) return std::nullopt;

  Plan p;
  p.approach = core::Approach::per_block;
  p.threads = threads;
  p.concurrent = concurrent;
  p.predicted_cycles = batch_cycles(cycles_block, d.batch, concurrent);
  p.predicted_gflops =
      op_flops * d.batch / p.predicted_cycles * cfg.clock_ghz;
  return p;
}

// --- Tiled scoring (per-step per-block model over the TSQR chain) ---------

std::optional<Plan> score_tiled(const regla::simt::DeviceConfig& cfg,
                                const ProblemDesc& d) {
  const int wpe = words_per_elem(d.dtype);
  const int naug = augmented_cols(d.op, d.n);
  const int max_rows = model::tiled_max_stacked_rows(cfg, naug, wpe);
  if (max_rows <= naug) return std::nullopt;
  const int threads = 256;
  const int tile_rows = max_rows - d.n;
  const double op_flops = nominal_flops_per_problem(d);

  // Apportion the op's nominal work over steps by each step's QR share, so
  // the total matches the nominal count the caller reports against.
  double qr_total = 0, cycles = 0;
  std::vector<std::pair<int, double>> steps;  // (rows, qr flops of the step)
  int consumed = 0;
  bool first = true;
  while (consumed < d.m) {
    const int fresh = first ? std::min(d.m, max_rows)
                            : std::min(d.m - consumed, tile_rows);
    const int rows = first ? fresh : d.n + fresh;
    const double step_flops = model::qr_flops(rows, d.n);
    steps.emplace_back(rows, step_flops);
    qr_total += step_flops;
    consumed += fresh;
    first = false;
  }
  int min_concurrent = 0;
  for (const auto& [rows, step_flops] : steps) {
    const double step_op_flops = op_flops * (step_flops / qr_total);
    const double cycles_block = per_block_cycles(
        cfg, model::BlockAlg::qr, rows, d.n, naug, threads, wpe, step_op_flops);
    const int concurrent = per_block_concurrent(cfg, rows, naug, threads, wpe);
    if (concurrent <= 0) return std::nullopt;
    cycles += batch_cycles(cycles_block, d.batch, concurrent);
    min_concurrent = min_concurrent == 0 ? concurrent
                                         : std::min(min_concurrent, concurrent);
  }

  Plan p;
  p.approach = core::Approach::tiled;
  p.threads = threads;
  p.concurrent = std::max(1, min_concurrent);
  p.predicted_cycles = cycles;
  p.predicted_gflops = op_flops * d.batch / cycles * cfg.clock_ghz;
  return p;
}

// --- Admission -------------------------------------------------------------

bool per_thread_admissible(const ProblemDesc& d) {
  const OpTraits& t = op_traits(d.op);
  if (!t.has_per_thread) return false;
  if (d.dtype != Dtype::f32) return false;  // no complex per-thread kernels
  if (d.m != d.n) return false;             // the §IV kernels are square-only
  if (d.n > core::kPerThreadMaxDim) return false;  // §IV: n < 16
  return d.m * augmented_cols(d.op, d.n) <= regla::simt::kMaxTileElems;
}

bool op_supported_per_block(const ProblemDesc& d) {
  const OpTraits& t = op_traits(d.op);
  return t.has_per_block && dtype_ok(t, d.dtype) && shape_ok(t, d.m, d.n);
}

bool op_supported_tiled(const ProblemDesc& d) {
  // LU / solves stop at one block, as in the paper: only qr/ls set has_tiled.
  const OpTraits& t = op_traits(d.op);
  return t.has_tiled && dtype_ok(t, d.dtype) && shape_ok(t, d.m, d.n);
}

void enumerate(const regla::simt::DeviceConfig& cfg, const ProblemDesc& d,
               std::vector<Plan>& out) {
  if (per_thread_admissible(d)) {
    if (auto p = score_per_thread(cfg, d)) out.push_back(*p);
  }
  const int wpe = words_per_elem(d.dtype);
  const int naug = augmented_cols(d.op, d.n);
  const bool fits = model::block_tile_fits(cfg, d.m, naug, wpe);
  // 64-thread blocks are also admitted with a moderately spilled tile:
  // sizes like f32 n = 57 or c64 n = 40 miss the strict fit yet measure
  // fastest at 64 threads. Admission stops once the AVERAGE tile words per
  // thread exceed the architectural register cap — past that point the
  // measured 64-thread kernel always loses to a 256-thread block.
  const bool spilled64_ok =
      static_cast<double>(d.m) * naug * wpe / 64 <= cfg.max_regs_per_thread;
  if (op_supported_per_block(d)) {
    if (fits || spilled64_ok)
      if (auto p = score_per_block(cfg, d, 64)) out.push_back(*p);
    if (fits && 256 <= cfg.max_threads_per_block)
      if (auto p = score_per_block(cfg, d, 256)) out.push_back(*p);
  }
  if (op_supported_tiled(d) && !fits) {
    if (auto p = score_tiled(cfg, d)) out.push_back(*p);
  }
}

}  // namespace

std::uint64_t Planner::config_fingerprint(const regla::simt::DeviceConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_d = [&](double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof(v));
    mix(v);
  };
  mix(cfg.num_sm); mix(cfg.fpus_per_sm); mix_d(cfg.clock_ghz);
  mix(cfg.max_regs_per_thread); mix(cfg.reg_overhead_per_thread);
  mix(cfg.regfile_words_per_sm); mix(cfg.shared_bytes_per_sm);
  mix(cfg.max_blocks_per_sm); mix(cfg.max_threads_per_sm);
  mix(cfg.max_threads_per_block); mix(cfg.warp_size); mix(cfg.shared_banks);
  mix_d(cfg.dram_peak_gbs); mix_d(cfg.dram_achievable_gbs);
  mix(cfg.dram_segment_bytes); mix_d(cfg.global_latency_cycles);
  mix(cfg.l2_bytes); mix(cfg.l2_line_bytes); mix_d(cfg.l2_hit_latency_cycles);
  mix_d(cfg.dram_row_bytes); mix_d(cfg.row_hit_discount_cycles);
  mix_d(cfg.line_hit_discount_cycles); mix(cfg.tlb_entries);
  mix(cfg.tlb_page_bytes); mix_d(cfg.tlb_miss_penalty_cycles);
  mix_d(cfg.shared_latency_cycles); mix_d(cfg.shared_cycles_per_transaction);
  mix_d(cfg.shared_efficiency); mix_d(cfg.fp_pipeline_cycles);
  mix_d(cfg.fast_div_cycles); mix_d(cfg.fast_sqrt_cycles);
  mix_d(cfg.full_div_cycles); mix_d(cfg.full_sqrt_cycles);
  mix_d(cfg.sfu_issue_cycles_per_op); mix_d(cfg.full_div_issue_instrs);
  mix_d(cfg.full_sqrt_issue_instrs); mix_d(cfg.l1_latency_cycles);
  mix_d(cfg.l1_cycles_per_access); mix_d(cfg.sync_base_cycles);
  mix_d(cfg.sync_cycles_per_warp); mix_d(cfg.dram_overlap_factor);
  mix(cfg.fast_math ? 1 : 0);
  return h;
}

std::vector<Plan> Planner::candidates(const regla::simt::DeviceConfig& cfg,
                                      const ProblemDesc& desc) const {
  std::vector<Plan> out;
  enumerate(cfg, desc, out);
  std::stable_sort(out.begin(), out.end(), [](const Plan& a, const Plan& b) {
    return a.predicted_cycles < b.predicted_cycles;
  });
  return out;
}

Plan Planner::plan(const regla::simt::DeviceConfig& cfg,
                   const ProblemDesc& desc) {
  obs::Span span("planner.plan", "planner");
  const std::vector<Plan> cands = candidates(cfg, desc);
  REGLA_CHECK_MSG(!cands.empty(),
                  "no kernel can run " << to_string(desc.op) << " "
                                       << to_string(desc.dtype) << " " << desc.m
                                       << "x" << desc.n
                                       << " (problems past one thread block "
                                          "support only QR/least-squares)");
  ++plans_built_;
  return cands.front();
}

PlannerStats Planner::stats() const {
  PlannerStats s;
  s.plans_built = plans_built_;
  return s;
}

void Planner::clear() { plans_built_ = 0; }

}  // namespace regla::planner
