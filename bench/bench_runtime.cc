// The serving runtime under open-loop Poisson arrivals: many independent
// callers each submitting a handful of problems, against the paper's thesis
// that register-resident kernels only pay off once amortized over large
// batches. Each (shape, rate) cell runs twice — max_batch_delay = 0 (no
// coalescing: every request is its own device launch, the "one caller, one
// launch" baseline) and with coalescing on.
//
// Two throughput columns:
//  - wall problems/s: completions over the host wall clock. This mixes in
//    the cost of *simulating* the chip cycle by cycle, which scales with the
//    problems' own arithmetic, so it only separates the modes where launch
//    setup dominates (tiny per-thread shapes).
//  - device problems/s: problems over the simulated device time the launches
//    consumed (SolveReport::seconds summed). This is the paper's metric — a
//    4-problem launch still occupies the chip for a full wave, and the
//    acceptance bar is that coalescing beats the baseline on it at the
//    highest swept rate for every shape.
//
// `--trace out.json` records the whole sweep into the obs trace ring and
// writes one coherent chrome://tracing / Perfetto timeline: runtime
// submit/queue-wait/flush spans, planner plan spans, worker execute spans,
// and per-phase launch slices. `--stats` prints the obs metric exposition.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/generators.h"
#include "obs/obs.h"
#include "runtime/runtime.h"

using namespace std::chrono_literals;

namespace {

using regla::BatchF;
using regla::Table;
using regla::planner::Op;
using regla::runtime::Report;
using regla::runtime::Runtime;
using regla::runtime::RuntimeOptions;
using Clock = regla::runtime::Clock;

constexpr int kProblemsPerRequest = 4;

// --devices N: run every cell against an N-device fleet (one worker stream
// per device) instead of the runtime's default single dev0 with two streams.
// --kill-device K@t: in each cell, hard-kill fleet device K after t seconds
// of traffic. The plain sweep arms bounded retry + CPU fallback alongside
// (its futures are .get() unguarded, so the kill must stay survivable); the
// resilience sweep already has the full stack on.
int g_devices = 0;     ///< 0 = the runtime's default single-device fleet
int g_kill_device = -1;
double g_kill_at_s = 0;

/// The cell's fleet, every member configured as `cfg`.
void apply_fleet_flags(RuntimeOptions& opt,
                       const regla::simt::DeviceConfig& cfg = {}) {
  if (g_devices <= 0) {
    opt.devices.push_back({"dev0", cfg, Runtime::kDefaultStreams});
    return;
  }
  for (int d = 0; d < g_devices; ++d)
    opt.devices.push_back({"dev" + std::to_string(d), cfg, 1});
}

/// Arms the --kill-device timer for one Runtime's lifetime; joins (and, if
/// the run outpaced the timer, fires nothing) on destruction.
class KillTimer {
 public:
  explicit KillTimer(Runtime& rt) {
    if (g_kill_device < 0 || g_kill_device >= rt.fleet().size()) return;
    thread_ = std::thread([&rt, this] {
      const auto deadline = Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(g_kill_at_s));
      while (Clock::now() < deadline) {
        if (cancelled_.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(100us);
      }
      rt.kill_device(g_kill_device);
    });
  }
  ~KillTimer() {
    cancelled_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::thread thread_;
};

struct RunResult {
  double offered_rps = 0;    ///< requests/s actually generated
  double wall_pps = 0;       ///< problems completed / wall second
  double device_pps = 0;     ///< problems / simulated device second
  double mean_batch = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

RunResult run(int n, double rate_rps, bool coalesce, int requests,
              bool saturation = false) {
  RuntimeOptions opt;
  // The saturation tier trades latency budget for batch depth: a 30 ms
  // coalescing window (vs the serving default 500 us) lets every queue fill
  // to its multi-wave flush target — flushes become size-triggered, not
  // deadline-triggered — now that the simulator drains them fast enough
  // for the backlog to stay bounded.
  opt.max_batch_delay = coalesce
      ? (saturation ? std::chrono::microseconds{30000}
                    : std::chrono::microseconds{500})
      : 0us;
  if (saturation) {
    // Multi-wave batches amortize per-launch fixed cost toward the
    // device's wave-throughput asymptote.
    opt.max_flush_problems = 8192;
    opt.target_waves = 4;
  }
  opt.max_queue_problems = 1 << 15;  // stay open-loop: never block the arrivals
  apply_fleet_flags(opt);
  if (g_kill_device >= 0) {
    opt.max_retries = 2;
    opt.retry_backoff = 50us;
    opt.cpu_fallback = true;
  }
  Runtime rt(opt);
  KillTimer killer(rt);

  std::mt19937_64 rng(1000 + n);
  std::exponential_distribution<double> interarrival(rate_rps);
  std::vector<std::future<Report>> futs;
  futs.reserve(requests);

  const auto t0 = Clock::now();
  auto next = t0;
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(next);
    BatchF a(kProblemsPerRequest, n, n);
    regla::fill_uniform(a, static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::qr, std::move(a)));
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
  }
  const double gen_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& f : futs) f.get();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  rt.shutdown();

  const auto st = rt.stats();
  const double problems = double(requests) * kProblemsPerRequest;
  RunResult r;
  r.offered_rps = requests / gen_seconds;
  r.wall_pps = problems / seconds;
  r.device_pps = st.device_seconds > 0 ? problems / st.device_seconds : 0;
  r.mean_batch = st.mean_batch();
  r.p50_ms = st.p50_ms();
  r.p99_ms = st.p99_ms();
  return r;
}

// The resilience sweep: the same open-loop burst against a device seeded
// with 10% transient launch failures, with the full policy stack on (bounded
// retry + backoff, shed-on-saturation, CPU fallback). The acceptance bar is
// not throughput — it is accounting: every future issued resolves exactly
// once, solved or typed, zero hangs, zero silent drops, and the runtime's
// counters reconcile with what the callers observed.
int resilience_sweep(int requests) {
  RuntimeOptions opt;
  opt.max_batch_delay = 200us;
  opt.max_queue_problems = 1 << 15;
  opt.max_retries = 3;
  opt.retry_backoff = std::chrono::microseconds{100};
  opt.cpu_fallback = true;
  opt.shed_on_saturation = true;
  regla::simt::DeviceConfig flaky;
  flaky.faults.launch_failure_rate = 0.10;
  apply_fleet_flags(opt, flaky);
  Runtime rt(opt);
  KillTimer killer(rt);

  std::vector<std::future<Report>> futs;
  futs.reserve(requests);
  int on_cpu = 0, retried = 0;
  for (int i = 0; i < requests; ++i) {
    BatchF a(kProblemsPerRequest, 8, 8);
    regla::fill_uniform(a, static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::qr, std::move(a)));
  }
  int ok = 0, typed = 0, untyped = 0, hung = 0;
  for (auto& f : futs) {
    if (f.wait_for(std::chrono::seconds{60}) != std::future_status::ready) {
      ++hung;  // a hang is exactly what this sweep exists to rule out
      continue;
    }
    try {
      const Report r = f.get();
      ++ok;
      if (r.solved_on_cpu) ++on_cpu;
      if (r.retries > 0) ++retried;
    } catch (const regla::runtime::QueueSaturated&) {
      ++typed;
    } catch (const regla::runtime::DeadlineExceeded&) {
      ++typed;
    } catch (const regla::runtime::TransientLaunchFailure&) {
      ++typed;
    } catch (...) {
      ++untyped;
    }
  }
  rt.shutdown();
  const auto st = rt.stats();

  Table t({"metric", "value"});
  t.precision(0);
  t.add_row({std::string("futures issued"), static_cast<long long>(requests)});
  t.add_row({std::string("resolved ok"), static_cast<long long>(ok)});
  t.add_row({std::string("resolved typed"), static_cast<long long>(typed)});
  t.add_row({std::string("resolved untyped"), static_cast<long long>(untyped)});
  t.add_row({std::string("stats fulfilled"), static_cast<long long>(st.fulfilled)});
  t.add_row({std::string("stats failed"), static_cast<long long>(st.failed_requests)});
  t.add_row({std::string("stats retries"), static_cast<long long>(st.retries)});
  t.add_row({std::string("stats shed"), static_cast<long long>(st.shed)});
  t.add_row({std::string("stats deadline_exceeded"),
             static_cast<long long>(st.deadline_exceeded)});
  t.add_row({std::string("stats fallback_cpu"),
             static_cast<long long>(st.fallback_cpu)});
  t.add_row({std::string("stats circuit_opens"),
             static_cast<long long>(st.circuit_opens)});
  t.add_row({std::string("requests retried (caller view)"),
             static_cast<long long>(retried)});
  t.add_row({std::string("requests degraded to cpu (caller view)"),
             static_cast<long long>(on_cpu)});
  regla::bench::emit(t, "runtime_resilience",
                     "Serving runtime under 10% injected launch failures");

  const bool reconciled =
      hung == 0 && ok + typed + untyped == requests &&
      st.fulfilled == static_cast<std::uint64_t>(ok) &&
      st.fulfilled + st.failed_requests ==
          static_cast<std::uint64_t>(requests) &&
      st.shed + st.deadline_exceeded <= st.failed_requests;
  std::printf("resilience: %d futures -> %d ok, %d typed, %d untyped, "
              "%d hung; accounting %s\n",
              requests, ok, typed, untyped, hung,
              reconciled ? "reconciles" : "DOES NOT RECONCILE");
  return reconciled ? 0 : 1;
}

// The ragged act: the same total problem rate offered as a mix of per-block
// shapes (32/30/28/26 — all bucketing to the 32x32 tile under ragged
// coalescing) instead of one signature. Signature-pure coalescing splits
// that traffic across four queues, each filling a quarter as fast, so
// batches flush small on deadline; ragged coalescing funnels everything into
// one padded-tile queue. Per-block kernels run one problem per block with
// blocks in parallel across SMs, so a batch's device time is nearly flat in
// batch depth until the wave fills — fewer, deeper launches are a direct
// device-throughput win that dwarfs the padding overhead (per-thread shapes
// are the opposite: device time there is per-problem-dominated, so padding
// 5x5 work to an 8x8 tile costs more than the launches it saves). The full
// run gates on ragged beating pure on BOTH mean coalesced batch size and
// device problems/s at every swept rate.
struct RaggedResult {
  double offered_rps = 0;
  double device_pps = 0;
  double mean_batch = 0;
  double p99_ms = 0;
  std::uint64_t ragged_batches = 0;
};

RaggedResult run_ragged(bool ragged, double rate_rps, int requests) {
  RuntimeOptions opt;
  opt.max_batch_delay = std::chrono::microseconds{10000};
  opt.max_queue_problems = 1 << 15;
  opt.ragged = ragged;
  apply_fleet_flags(opt);
  Runtime rt(opt);
  KillTimer killer(rt);

  static constexpr int kDims[] = {32, 30, 28, 26};
  std::mt19937_64 rng(7000 + (ragged ? 1 : 0));
  std::exponential_distribution<double> interarrival(rate_rps);
  std::vector<std::future<Report>> futs;
  futs.reserve(requests);

  const auto t0 = Clock::now();
  auto next = t0;
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(next);
    const int n = kDims[i % 4];
    BatchF a(kProblemsPerRequest, n, n);
    regla::fill_uniform(a, static_cast<std::uint64_t>(i));
    futs.push_back(rt.submit(Op::qr, std::move(a)));
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interarrival(rng)));
  }
  const double gen_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& f : futs) f.get();
  rt.shutdown();

  const auto st = rt.stats();
  const double problems = double(requests) * kProblemsPerRequest;
  RaggedResult r;
  r.offered_rps = requests / gen_seconds;
  r.device_pps = st.device_seconds > 0 ? problems / st.device_seconds : 0;
  r.mean_batch = st.mean_batch();
  r.p99_ms = st.p99_ms();
  r.ragged_batches = st.ragged_batches;
  return r;
}

int ragged_sweep(bool smoke) {
  const double rates[] = {120, 480};
  Table t({"mode", "rate req/s", "offered", "device pr/s", "mean batch",
           "ragged batches", "p99 ms"});
  t.precision(1);
  int losses = 0;
  for (const double rate : rates) {
    const int requests =
        smoke ? 96 : std::max(96, std::min(4000, int(rate * 0.4)));
    const RaggedResult pure = run_ragged(/*ragged=*/false, rate, requests);
    const RaggedResult rag = run_ragged(/*ragged=*/true, rate, requests);
    t.add_row({std::string("pure"), rate, pure.offered_rps, pure.device_pps,
               pure.mean_batch, static_cast<long long>(pure.ragged_batches),
               pure.p99_ms});
    t.add_row({std::string("ragged"), rate, rag.offered_rps, rag.device_pps,
               rag.mean_batch, static_cast<long long>(rag.ragged_batches),
               rag.p99_ms});
    if (rag.mean_batch <= pure.mean_batch || rag.device_pps <= pure.device_pps)
      ++losses;
  }
  regla::bench::emit(t, "ragged",
                     "Mixed-shape (32/30/28/26) traffic: signature-pure "
                     "coalescing vs ragged bucketing to the 32x32 tile");
  if (!smoke)
    std::printf("ragged: rates where bucketing lost on batch size or "
                "device throughput: %d\n",
                losses);
  return (smoke || losses == 0) ? 0 : 1;
}

// The alloc-budget act: closed-loop steady-state traffic through the staged
// assembly path, measuring arena slab mallocs per request after warm-up.
// The arena's contract is that the steady-state hot path never allocates:
// every staging block is a free-list hit. CI's alloc-budget step
// re-checks the emitted CSV against the committed budget
// (bench_results/alloc_budget.txt) via scripts/check_alloc_budget.py; the
// binary also self-gates so a local run fails loudly.
int alloc_audit(bool smoke) {
  RuntimeOptions opt;
  opt.max_batch_delay = 10s;  // closed loop: flush manually
  apply_fleet_flags(opt);
  Runtime rt(opt);

  constexpr int kRequestsPerCycle = 4;
  std::uint64_t seed = 0;
  const auto cycle = [&] {
    std::vector<std::future<Report>> futs;
    for (int i = 0; i < kRequestsPerCycle; ++i) {
      BatchF a(kProblemsPerRequest, 8, 8);
      regla::fill_uniform(a, seed++);
      futs.push_back(rt.submit(Op::qr, std::move(a)));
    }
    rt.flush();
    for (auto& f : futs) f.get();
  };

  const int warm_cycles = 8;
  const int steady_cycles = smoke ? 100 : 1000;
  for (int i = 0; i < warm_cycles; ++i) cycle();
  const auto warm = rt.stats();
  for (int i = 0; i < steady_cycles; ++i) cycle();
  rt.shutdown();
  const auto st = rt.stats();

  const double steady_requests = double(steady_cycles) * kRequestsPerCycle;
  const double allocs_per_request =
      double(st.payload_allocs - warm.payload_allocs) / steady_requests;

  Table t({"phase", "requests", "slab allocs", "allocs per request",
           "reuses", "bytes copied"});
  t.precision(4);
  t.add_row({std::string("warmup"),
             static_cast<long long>(warm_cycles * kRequestsPerCycle),
             static_cast<long long>(warm.payload_allocs),
             double(warm.payload_allocs) / (warm_cycles * kRequestsPerCycle),
             static_cast<long long>(warm.payload_reuses),
             static_cast<long long>(warm.payload_bytes_copied)});
  t.add_row({std::string("steady"),
             static_cast<long long>(steady_requests),
             static_cast<long long>(st.payload_allocs - warm.payload_allocs),
             allocs_per_request,
             static_cast<long long>(st.payload_reuses - warm.payload_reuses),
             static_cast<long long>(st.payload_bytes_copied -
                                    warm.payload_bytes_copied)});
  regla::bench::emit(t, "alloc_audit",
                     "Arena slab allocations per request, closed-loop "
                     "steady state (budget: bench_results/alloc_budget.txt)");
  std::printf(
      "alloc-audit: steady state %.4f slab allocs/request over %d requests "
      "(obs runtime.payload_allocs=%llu runtime.payload_reuses=%llu "
      "runtime.payload_bytes_copied=%llu)\n",
      allocs_per_request, int(steady_requests),
      static_cast<unsigned long long>(
          regla::obs::counter_value("runtime.payload_allocs")),
      static_cast<unsigned long long>(
          regla::obs::counter_value("runtime.payload_reuses")),
      static_cast<unsigned long long>(
          regla::obs::counter_value("runtime.payload_bytes_copied")));
  return allocs_per_request <= 0.05 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool print_stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      regla::bench::smoke_mode() = true;
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      g_devices = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-device") == 0 && i + 1 < argc) {
      // K@t: kill fleet device K after t seconds of traffic in each cell.
      const char* spec = argv[++i];
      const char* at = std::strchr(spec, '@');
      if (!at || std::sscanf(spec, "%d@%lf", &g_kill_device, &g_kill_at_s) != 2 ||
          g_kill_device < 0 || g_kill_at_s < 0) {
        std::fprintf(stderr, "bad --kill-device spec '%s' (want K@t)\n", spec);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--stats] [--smoke] "
                   "[--devices N] [--kill-device K@t]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool smoke = regla::bench::smoke_mode();
  if (!trace_path.empty()) regla::obs::trace_start({1 << 16});

  // Fig. 10 shapes spanning the kernel families — per-thread (8), per-block
  // (32), upper per-block (48) — each swept at rates scaled to how fast the
  // host can simulate that shape (the top rate oversubscribes the baseline).
  // The last rate of each shape is the saturation tier: traffic heavy
  // enough (and a 4 ms coalescing window wide enough) to fill whole waves
  // per launch, which is where the replay-memoized simulator's headroom
  // shows up as device throughput rather than just lower host latency.
  struct Sweep {
    int n;
    double rates[4];  ///< requests/s, 4 problems per request
  };
  const Sweep sweeps[] = {
      {8, {2000, 8000, 32000, 96000}},
      {32, {30, 120, 480, 16000}},
      {48, {15, 60, 240, 8000}},
  };

  Table t({"n", "rate req/s", "mode", "offered", "wall pr/s", "device pr/s",
           "mean batch", "p50 ms", "p99 ms"});
  t.precision(1);

  // Smoke: the first rate of each shape (~0.1 s of traffic) plus the
  // saturation tier at its FULL request count — the saturation cells are
  // size-triggered (batch depth set by the flush target, not by arrival
  // timing), so their device pr/s is stable enough for the strict
  // regression gate in scripts/bench_smoke.sh. The rows keep the full
  // run's (n, rate, mode) keys so scripts/check_bench_regression.py can
  // compare them against the committed bench_results/runtime.csv baseline.
  int high_rate_losses = 0;
  for (const Sweep& sweep : sweeps) {
    for (int ri = 0; ri < 4; ++ri) {
      if (smoke && ri != 0 && ri != 3) continue;
      const double rate = sweep.rates[ri];
      const bool saturation = ri == 3;
      // Bound each cell to ~0.4 s of offered traffic (and keep the
      // oversubscribed cells' backlogs drainable in seconds). The
      // saturation tier offers ~50 ms: enough windows for stable batch
      // statistics without minutes of uncoalesced drain.
      const int requests = saturation
          ? std::max(24, std::min(4000, int(rate * 0.05)))
          : smoke ? std::max(24, std::min(400, int(rate * 0.1)))
                  : std::max(24, std::min(4000, int(rate * 0.4)));
      const RunResult base =
          run(sweep.n, rate, /*coalesce=*/false, requests, saturation);
      const RunResult coal =
          run(sweep.n, rate, /*coalesce=*/true, requests, saturation);
      for (const auto* pair : {&base, &coal}) {
        const RunResult& r = *pair;
        t.add_row({static_cast<long long>(sweep.n), rate,
                   std::string(pair == &base ? "baseline" : "coalesce"),
                   r.offered_rps, r.wall_pps, r.device_pps, r.mean_batch,
                   r.p50_ms, r.p99_ms});
      }
      if (ri >= 2 && coal.device_pps <= base.device_pps) ++high_rate_losses;
    }
  }

  regla::bench::emit(t, "runtime",
                     "Serving runtime, open-loop Poisson arrivals: request "
                     "coalescing vs per-request launches");
  if (!smoke)
    std::printf("high-rate shapes where coalescing lost on device "
                "throughput: %d\n",
                high_rate_losses);

  const int ragged_rc = ragged_sweep(smoke);
  const int alloc_rc = alloc_audit(smoke);
  const int resilience_rc = resilience_sweep(smoke ? 250 : 1000);
  if (!trace_path.empty()) {
    regla::obs::trace_stop();
    regla::obs::write_trace_json(trace_path);
    std::printf("trace: %zu events -> %s (%llu dropped to the ring bound; "
                "open in chrome://tracing or ui.perfetto.dev)\n",
                regla::obs::trace_event_count(), trace_path.c_str(),
                static_cast<unsigned long long>(regla::obs::trace_dropped()));
  }
  if (print_stats) regla::obs::dump(std::cout);
  // The coalescing and ragged perf gates only mean something at full
  // fidelity; the resilience accounting and alloc-budget gates hold in both
  // modes (a steady-state hot path that allocates is broken at any scale).
  if (resilience_rc != 0) return resilience_rc;
  if (alloc_rc != 0) return alloc_rc;
  if (ragged_rc != 0) return ragged_rc;
  return (smoke || high_rate_losses == 0) ? 0 : 1;
}
