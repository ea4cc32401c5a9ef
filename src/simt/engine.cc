#include "simt/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "cpu/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simt/replay.h"
#include "simt/timing.h"
#include "simt/trace.h"

namespace regla::simt {

namespace {
bool env_disabled(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '0' && v[1] == '\0';
}
bool env_enabled(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && !(v[0] == '0' && v[1] == '\0') && v[0] != '\0';
}
}  // namespace

// Out of line: ReplayCache is only forward-declared in the header.
Device::Device(DeviceConfig cfg)
    : cfg_(cfg), replay_verify_(env_enabled("REGLA_REPLAY_VERIFY")) {}
Device::~Device() = default;
Device::Device(Device&&) noexcept = default;
Device& Device::operator=(Device&&) noexcept = default;

void Device::set_host_workers(int workers) { host_workers_ = workers; }

void Device::set_replay(bool on) {
  // REGLA_REPLAY=0 is the global kill switch: a run whose replayed numbers
  // look suspect can force full simulation everywhere without a rebuild.
  replay_on_ = on && !env_disabled("REGLA_REPLAY");
  if (replay_on_ && !replay_cache_) replay_cache_ = std::make_unique<ReplayCache>();
  if (!on) replay_cache_.reset();
}

Device::ReplayScope::ReplayScope(Device& dev, bool data_independent,
                                 std::uint64_t salt)
    : dev_(dev),
      prev_di_(dev.scope_data_independent_),
      prev_salt_(dev.scope_salt_) {
  dev.scope_data_independent_ = data_independent;
  dev.scope_salt_ = salt;
}

Device::ReplayScope::~ReplayScope() {
  dev_.scope_data_independent_ = prev_di_;
  dev_.scope_salt_ = prev_salt_;
}

namespace {

/// Per-warp liveness masks: the stepping loop touches only warps with live
/// lanes, and within a warp walk the set bits — a retired warp costs one
/// load per phase, and the lanes of a live warp run as one contiguous loop
/// between sync points (the SIMD stepping restructure; warp_size <= 32 fits
/// the mask, wider configs get multiple mask words per warp row).
struct WarpLiveness {
  std::vector<std::uint32_t> live;
  int lanes_per_word = 0;

  WarpLiveness(int threads, int warp_size) {
    lanes_per_word = std::min(warp_size, 32);
    const int words = (threads + lanes_per_word - 1) / lanes_per_word;
    live.resize(static_cast<std::size_t>(words));
    for (int w = 0; w < words; ++w) {
      const int lanes = std::min(lanes_per_word, threads - w * lanes_per_word);
      live[static_cast<std::size_t>(w)] =
          lanes == 32 ? ~0u : ((1u << lanes) - 1u);
    }
  }
};

/// Points current_stats() at nothing again when a block ends, normally or
/// by a lane's exception, so no host code on this thread can bump counters
/// in a finished block's stats.
struct StatsReset {
  ~StatsReset() { current_stats() = nullptr; }
};

/// Run one block: create a lane per device thread, then step the live lanes
/// in warp order, each to its next barrier or to completion; that boundary
/// is a phase. With `out` (an empty BlockRun), the block runs instrumented:
/// every lane's counters are recorded and folded into one PhaseRecord per
/// phase, appended to `out`. Without it, the block runs functionally only
/// (what replayed blocks execute): current_stats() stays null, so the
/// instrumented device types skip their recording branches, and the
/// numerics are bit-identical to the instrumented run.
void run_block(const DeviceConfig& cfg, const LaunchSpec& spec,
               const KernelFn& body, int block_id, BlockRun* out) {
  BlockState state;
  std::vector<BlockCtx> ctxs;
  ctxs.reserve(spec.threads);
  for (int t = 0; t < spec.threads; ++t)
    ctxs.emplace_back(cfg, state, block_id, spec.blocks, t, spec.threads);
  std::vector<Lane> lanes;
  lanes.reserve(spec.threads);
  for (int t = 0; t < spec.threads; ++t) lanes.push_back(body(ctxs[t]));

  std::vector<ThreadStats> stats(out != nullptr ? spec.threads : 0);
  FoldScratch scratch;
  fast_math_enabled() = cfg.fast_math;
  const StatsReset reset;
  current_stats() = nullptr;
  WarpLiveness wl(spec.threads, cfg.warp_size);
  int alive = spec.threads;
  while (alive > 0) {
    for (std::size_t w = 0; w < wl.live.size(); ++w) {
      std::uint32_t mask = wl.live[w];
      if (mask == 0) continue;  // whole warp retired
      const int base = static_cast<int>(w) * wl.lanes_per_word;
      do {
        const int lane = std::countr_zero(mask);
        mask &= mask - 1;
        const int t = base + lane;
        if (out != nullptr) current_stats() = &stats[t];
        if (!lanes[t].resume()) {
          wl.live[w] &= ~(1u << lane);
          --alive;
        }
      } while (mask != 0);
    }
    if (out == nullptr) continue;
    current_stats() = nullptr;
    const bool ended_with_sync = alive > 0;
    out->phases.push_back(fold_phase(cfg, stats, state.current_tag,
                                     state.current_panel, ended_with_sync,
                                     &scratch));
    if (ended_with_sync) ++out->syncs;
    for (ThreadStats& s : stats) s.reset();
  }
  if (out != nullptr) out->shared_bytes = state.shared.total_bytes();
}

/// Project the launch's per-phase cycle breakdown into the wall-clock window
/// of its engine.launch span: slices in execution order, each sized by its
/// share of the breakdown cycles, on the current thread's track so they nest
/// under the launch span in the exported timeline.
void emit_phase_slices(const LaunchSpec& spec, const LaunchResult& res,
                       double span_t0) {
  double total = 0;
  for (const TaggedCycles& s : res.breakdown) total += std::max(0.0, s.cycles);
  if (total <= 0) return;
  std::vector<TaggedCycles> slices = res.breakdown;
  std::stable_sort(slices.begin(), slices.end(), slice_before);
  const double window = obs::trace_now_us() - span_t0;
  double cursor = span_t0;
  for (const TaggedCycles& s : slices) {
    if (s.cycles <= 0) continue;
    const double dur = window * s.cycles / total;
    char name[64];
    if (s.panel >= 0)
      std::snprintf(name, sizeof(name), "phase:%s p%d:%s", to_string(s.tag),
                    s.panel, spec.name.c_str());
    else
      std::snprintf(name, sizeof(name), "phase:%s:%s", to_string(s.tag),
                    spec.name.c_str());
    obs::trace_complete(name, "engine.phase", cursor, dur,
                        obs::current_track());
    cursor += dur;
  }
}

}  // namespace

LaunchResult Device::launch(const LaunchSpec& spec, const KernelFn& body) {
  REGLA_CHECK_MSG(spec.blocks >= 1, "launch needs at least one block");
  REGLA_CHECK_MSG(spec.threads >= 1 && spec.threads <= cfg_.max_threads_per_block,
                  "threads per block: " << spec.threads);

  obs::Span launch_span("engine.launch", "engine");
  const double span_t0 = obs::trace_now_us();

  // Fault hooks: decided up front, deterministically in (seed, ordinal), so
  // a hostile run replays exactly. The failure throw happens before any
  // block executes — the payload is untouched and the launch is retry-safe.
  const std::uint64_t ordinal = launch_ordinal_++;
  int poison_block = -1;
  bool spike = false;
  if (cfg_.faults.any()) {
    const FaultInjection& fi = cfg_.faults;
    ++fault_stats_.launches;
    if (fi.launch_failure_rate > 0 &&
        detail::fault_draw(fi.seed, ordinal, 0) < fi.launch_failure_rate) {
      ++fault_stats_.launch_failures;
      obs::counter("engine.fault.launch_failures").add();
      std::ostringstream os;
      os << "injected transient launch failure: kernel '" << spec.name
         << "' launch #" << ordinal << " (seed " << fi.seed << ")";
      throw TransientLaunchFailure(os.str());
    }
    if (fi.poisoned_result_rate > 0 &&
        detail::fault_draw(fi.seed, ordinal, 1) < fi.poisoned_result_rate) {
      poison_block =
          static_cast<int>(ordinal % static_cast<std::uint64_t>(spec.blocks));
      ++fault_stats_.poisoned_launches;
      obs::counter("engine.fault.poisoned_launches").add();
    }
    if (fi.latency_spike_rate > 0 &&
        detail::fault_draw(fi.seed, ordinal, 2) < fi.latency_spike_rate) {
      spike = true;
      ++fault_stats_.latency_spikes;
      obs::counter("engine.fault.latency_spikes").add();
    }
  }

  // --- Replay decision -----------------------------------------------------
  // Only launches inside a data-independent ReplayScope on a replay-enabled
  // device participate; everything else takes the full-instrumentation path
  // below, bit-identical to the pre-replay engine.
  const ReplayEntry* hit = nullptr;
  ReplayKey key;
  const bool replay_active = replay_on_ && scope_data_independent_;
  if (replay_active) {
    key = ReplayKey{spec.name, spec.blocks, spec.threads, spec.regs_per_thread,
                    scope_salt_};
    hit = replay_cache_->find(key);
    obs::counter(hit != nullptr ? "engine.replay.hits" : "engine.replay.misses")
        .add();
  }
  const bool verify = hit != nullptr && replay_verify_;

  // Which blocks run instrumented this launch:
  //  - no replay (or verify mode): all of them,
  //  - cache hit: none (all replayed through the fast path),
  //  - cache miss: representatives {0, 1, last} first; the rest fast if the
  //    representatives folded identically, instrumented otherwise.
  // A poisoned launch on a cache miss falls back to full instrumentation
  // and is not cached: the skipped block leaves a hole the uniformity check
  // could not vouch for.
  std::vector<BlockRun> runs(spec.blocks);
  std::vector<unsigned char> instr(static_cast<std::size_t>(spec.blocks), 0);
  const bool miss_memoizing =
      replay_active && hit == nullptr && poison_block < 0;

  std::vector<int> reps;
  if (miss_memoizing) {
    reps.push_back(0);
    if (spec.blocks > 1) reps.push_back(1);
    if (spec.blocks > 2) reps.push_back(spec.blocks - 1);
  }

  cpu::ThreadPool& pool = cpu::ThreadPool::global();
  const int configured = host_workers_ > 0 ? host_workers_ : pool.workers();

  // Run `todo` (block ids), instrumented or fast, serially or on the pool.
  const auto execute = [&](const std::vector<int>& todo, bool instrumented) {
    // A miss of three blocks or fewer has no rest after its representatives.
    if (todo.empty()) return;
    const int workers = std::min(configured, static_cast<int>(todo.size()));
    const auto one = [&](int b) {
      if (b == poison_block) return;  // poisoned: silently skipped
      run_block(cfg_, spec, body, b, instrumented ? &runs[b] : nullptr);
      if (instrumented) instr[static_cast<std::size_t>(b)] = 1;
    };
    if (workers == 1) {
      for (int b : todo) one(b);
    } else {
      // The process-wide pool, shared with every other Device: each slot
      // drains the shared counter, so blocks (whose runtimes are skewed)
      // are scheduled dynamically over however many threads are free — a
      // busy sibling stream's launch leaves this one fewer helpers, an idle
      // one more.
      std::atomic<std::size_t> next{0};
      pool.parallel_for(workers, [&](int) {
        for (std::size_t i = next.fetch_add(1); i < todo.size();
             i = next.fetch_add(1))
          one(todo[i]);
      });
    }
  };

  std::vector<int> all(static_cast<std::size_t>(spec.blocks));
  for (int b = 0; b < spec.blocks; ++b) all[static_cast<std::size_t>(b)] = b;

  bool cache_uniform = false;
  if (hit != nullptr && !verify) {
    execute(all, /*instrumented=*/false);  // replay: accounting from cache
  } else if (!miss_memoizing) {
    execute(all, /*instrumented=*/true);   // full simulation (or verify)
  } else {
    execute(reps, /*instrumented=*/true);
    cache_uniform = true;
    for (int r : reps)
      if (!(runs[r] == runs[reps[0]])) cache_uniform = false;
    if (cache_uniform) {
      std::vector<int> rest;
      rest.reserve(all.size());
      for (int b : all)
        if (instr[static_cast<std::size_t>(b)] == 0) rest.push_back(b);
      // Verify mode puts the uniformity extrapolation itself on trial:
      // instrument the blocks it would skip and demand they fold exactly
      // like the representatives. Agreement leaves accounting, caching,
      // and results identical to the fast path.
      execute(rest, /*instrumented=*/replay_verify_);
      if (replay_verify_) {
        std::uint64_t mismatches = 0;
        for (int b : rest) {
          obs::counter("engine.replay.verify_blocks").add();
          if (!(runs[b] == runs[reps[0]])) ++mismatches;
        }
        if (mismatches > 0) {
          obs::counter("engine.replay.verify_mismatches").add(mismatches);
          REGLA_CHECK_MSG(false,
                          "replay verify: kernel '"
                              << spec.name << "' blocks=" << spec.blocks
                              << " threads=" << spec.threads << ": "
                              << mismatches
                              << " block(s) diverged from the representative "
                                 "accounting (REGLA_REPLAY_VERIFY)");
        }
      }
    } else {
      obs::counter("engine.replay.nonuniform").add();
      std::vector<int> rest;
      rest.reserve(all.size());
      for (int b : all)
        if (instr[static_cast<std::size_t>(b)] == 0) rest.push_back(b);
      execute(rest, /*instrumented=*/true);
    }
  }

  // The accounting for block b: its own instrumented run where one exists,
  // the cached (or representative) run where it was replayed, and the empty
  // run for a poisoned block — exactly what full simulation leaves there.
  static const BlockRun kEmptyRun;
  const auto view = [&](int b) -> const BlockRun& {
    if (b == poison_block) return kEmptyRun;
    if (instr[static_cast<std::size_t>(b)] != 0) return runs[b];
    if (hit != nullptr) return hit->run_for(b);
    return runs[reps[0]];  // uniform miss: every block folded like block 0
  };

  std::uint64_t replayed = 0, simulated = 0;
  for (int b = 0; b < spec.blocks; ++b) {
    if (b == poison_block) continue;
    (instr[static_cast<std::size_t>(b)] != 0 ? simulated : replayed) += 1;
  }
  if (replay_active) {
    if (replayed > 0) obs::counter("engine.replay.blocks_replayed").add(replayed);
    if (simulated > 0)
      obs::counter("engine.replay.blocks_simulated").add(simulated);
  }

  // Verify mode: every block was fully simulated above; assert the cached
  // accounting the hit would have replayed matches it, phase by phase.
  if (verify) {
    std::uint64_t mismatches = 0;
    for (int b = 0; b < spec.blocks; ++b) {
      if (b == poison_block) continue;
      obs::counter("engine.replay.verify_blocks").add();
      if (!(runs[b] == hit->run_for(b))) ++mismatches;
    }
    if (mismatches > 0) {
      obs::counter("engine.replay.verify_mismatches").add(mismatches);
      REGLA_CHECK_MSG(false, "replay verify: kernel '"
                                 << spec.name << "' blocks=" << spec.blocks
                                 << " threads=" << spec.threads << ": "
                                 << mismatches
                                 << " block(s) diverged from the cached "
                                    "accounting (REGLA_REPLAY_VERIFY)");
    }
  }

  // Memoize what this launch learned (miss path only; a verify launch's key
  // is already cached).
  if (miss_memoizing) {
    ReplayEntry entry;
    entry.uniform = cache_uniform;
    std::size_t max_shared = 0;
    for (int b = 0; b < spec.blocks; ++b)
      max_shared = std::max(max_shared, view(b).shared_bytes);
    entry.shared_bytes = max_shared;
    if (cache_uniform)
      entry.rep = runs[reps[0]];
    else
      entry.per_block = runs;
    replay_cache_->put(key, std::move(entry));
  }

  // Occupancy from the declared register demand and the *measured* shared
  // usage (the engine knows exactly what the kernel allocated).
  std::size_t shared_bytes = 0;
  for (int b = 0; b < spec.blocks; ++b)
    shared_bytes = std::max(shared_bytes, view(b).shared_bytes);
  const Occupancy occ = occupancy(cfg_, spec.threads, spec.regs_per_thread,
                                  shared_bytes);
  // Contention inside an SM comes from blocks actually resident, which a
  // small launch may not have enough of.
  const int k_resident = std::min(
      occ.blocks_per_sm, (spec.blocks + cfg_.num_sm - 1) / cfg_.num_sm);

  LaunchResult res;
  res.blocks_per_sm = occ.blocks_per_sm;
  res.occupancy_limiter = occ.limiter;
  res.shared_bytes_per_block = shared_bytes;
  res.waves = (spec.blocks + occ.blocks_per_sm * cfg_.num_sm - 1) /
              (occ.blocks_per_sm * cfg_.num_sm);

  std::vector<double> block_times;
  block_times.reserve(spec.blocks);
  std::map<std::pair<int, int>, double> tagged;  // (panel, tag) -> cycles
  std::uint64_t dram_bytes = 0;
  for (int b = 0; b < spec.blocks; ++b) {
    const BlockRun& r = view(b);
    double t = 0;
    for (const PhaseRecord& p : r.phases) {
      const double c = phase_cycles(cfg_, p, k_resident, spec.threads);
      t += c;
      tagged[{p.panel, static_cast<int>(p.tag)}] += c;
      res.totals.flops += p.flops;
      res.totals.divs += p.divs;
      res.totals.sqrts += p.sqrts;
      res.totals.spill_bytes += p.spill_bytes;
      dram_bytes += p.gl_bytes;
      res.totals.sh_accesses += static_cast<std::uint64_t>(p.sh_transactions);
      if (p.addrs_truncated) ++res.totals.addr_truncations;
    }
    res.totals.syncs += r.syncs;
    block_times.push_back(t);
  }
  res.totals.gl_bytes = dram_bytes;
  if (res.totals.addr_truncations > 0)
    obs::counter("engine.addr_truncations").add(res.totals.addr_truncations);

  res.chip_cycles = chip_cycles(cfg_, block_times, k_resident, dram_bytes);
  if (spike) res.chip_cycles *= cfg_.faults.latency_spike_multiplier;
  res.seconds = res.chip_cycles / (cfg_.clock_ghz * 1e9);
  double sum = 0;
  for (double t : block_times) sum += t;
  res.block_cycles_avg = sum / static_cast<double>(block_times.size());

  res.breakdown.reserve(tagged.size());
  for (const auto& [key, cycles] : tagged)
    res.breakdown.push_back(TaggedCycles{key.first, static_cast<OpTag>(key.second),
                                         cycles / spec.blocks});

  if (obs::trace_active()) emit_phase_slices(spec, res, span_t0);
  return res;
}

}  // namespace regla::simt
