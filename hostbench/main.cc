// hostbench — the serving benchmark's program.
//
// Runs one named workload against the public API (runtime::Runtime on a
// 2-device fleet, regla::Solver, planner::Planner, cpu::batched_*), checks
// every served answer against the cpu:: reference, and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
// last line of stdout is one JSON object; the lines above it are the same
// numbers for people, with units and sample counts.
//
//   hostbench --workload qr8_closed --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 when every future resolved with a correct answer, 1 on any
// failed future or oracle mismatch, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "planner/op_traits.h"
#include "planner/planner.h"
#include "planner/solver.h"
#include "runtime/runtime.h"
#include "stats.h"

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;
using regla::runtime::Report;
using regla::runtime::Runtime;

constexpr int kDevices = 2;          ///< fleet members, one stream each
constexpr double kOracleTol = 2e-3;  ///< oracle_error() bound for a pass
constexpr double kSloMs = 50;        ///< open-loop latency limit (slo_miss_frac)
constexpr int kSetupReps = 9;        ///< setup_s is the median of these
constexpr double kWarmSeconds = 2;   ///< discarded window before timing
/// The ledger's runtime remainder may fall this far below zero (as a share
/// of the measured cost) before the isolated layer costs count as not
/// accounting for the served cost.
constexpr double kLedgerTol = 0.15;
/// A run is invalid (printed, see README.md) when the generator ran this
/// late at p99, or when an open loop ended with this many requests in
/// flight: either means the offered load was not the intended one.
constexpr double kMaxLateMs = 5;
constexpr std::size_t kMaxBacklog = 50;
/// Spans kept by the traced run (about 50 MB written as JSON lines).
constexpr std::size_t kMaxSpans = 500'000;
/// Waiting on a future longer than this counts it failed (a hang).
constexpr auto kHang = std::chrono::seconds(60);

double since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// User + system CPU seconds of every thread of this process so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) { return double(t.tv_sec) + double(t.tv_usec) * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

/// The shape a kind is served at: its ragged bucket tile when the workload
/// coalesces ragged and the op admits one, else the submitted shape.
Kind served_kind(const Workload& w, Kind k) {
  if (!w.ragged) return k;
  const auto tile = regla::planner::ragged_tile(regla::planner::op_traits(k.op), k.m, k.n);
  if (tile) k.m = tile.m, k.n = tile.n;
  return k;
}

/// Cumulative counters read through the public API, diffed around a phase.
struct Counters {
  regla::runtime::RuntimeStats rs;
  double bytes_copied = 0, slab_allocs = 0, staged = 0, view = 0;
  double replayed = 0, simulated = 0, reroutes = 0;
  std::vector<double> dev_problems;

  static Counters take(const Runtime& rt) {
    using regla::obs::counter_value;
    Counters c;
    c.rs = rt.stats();
    c.bytes_copied = double(counter_value("runtime.payload_bytes_copied"));
    c.slab_allocs = double(counter_value("runtime.payload_allocs"));
    c.staged = double(counter_value("runtime.staged_batches"));
    c.view = double(counter_value("runtime.view_batches"));
    c.replayed = double(counter_value("engine.replay.blocks_replayed"));
    c.simulated = double(counter_value("engine.replay.blocks_simulated"));
    for (int d = 0; d < kDevices; ++d) {
      const std::string label = "device=dev" + std::to_string(d);
      c.dev_problems.push_back(double(counter_value("fleet.problems", label)));
      c.reroutes += double(counter_value("fleet.reroutes", label));
    }
    return c;
  }
};

/// Everything a phase observed. Bench::run adds to it, so a timed window run
/// as several sub-windows accumulates into one Phase. Per-request samples
/// are floats and the rest are sums or histograms, so the benchmark's own
/// memory stays small next to the program's (peak_rss_mb).
struct Phase {
  double seconds = 0;      ///< window length (submissions stop at its end)
  long attempted = 0;
  long failed = 0;         ///< threw, flagged not_solved, or failed the oracle
  long slo_miss = 0;       ///< failed or slower than kSloMs
  long problems_done = 0;  ///< correct problems completed inside the window
  std::vector<float> latency_ms;  ///< every request sent
  std::vector<float> late_ms;     ///< generator lateness of every request
  double queue_ms_sum = 0;        ///< Report::queue_seconds, over `reports`
  long reports = 0;
  double submit_us_sum = 0;       ///< time inside submit, traced phases only
  long submits_timed = 0;
  std::vector<std::map<int, long>> depth;  ///< per served signature: batch size -> requests
  double worst_error = 0;
  std::string first_error;
  std::size_t backlog_end = 0, backlog_max = 0;  ///< open loop in flight
  double host_cpu_s = 0;   ///< process CPU time (all threads) over the phase
  std::vector<double> window_p99_ms;  ///< exact p99 of each sub-window
  std::vector<double> window_pps;     ///< wall_pps of each sub-window
  bool started = false;
  Counters before, after;  ///< at the first run's start, the last run's end
};

struct Flight {
  std::future<Report> fut;
  /// Latency origin: submit start in the closed loop, the due time in the
  /// open loop (so a generator stall counts against later requests).
  Clock::time_point origin;
  int req = 0;            ///< pool index
  std::uint64_t span = 0;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed), pool_(make_pool(w, seed)), rng_(seed ^ 0x5eedull) {
    for (const Kind& k : w_.kinds) {
      const Kind s = served_kind(w_, k);
      int idx = -1;
      for (std::size_t i = 0; i < sigs_.size(); ++i)
        if (sigs_[i].op == s.op && sigs_[i].m == s.m && sigs_[i].n == s.n)
          idx = static_cast<int>(i);
      if (idx < 0) {
        idx = static_cast<int>(sigs_.size());
        sigs_.push_back(s);
        sig_share_.push_back(0);
      }
      sig_of_kind_.push_back(idx);
      sig_share_[static_cast<std::size_t>(idx)] += 1.0 / static_cast<double>(w_.kinds.size());
    }
  }

  /// Runtime construction plus the first solve of every signature at the
  /// workload's depth: a closed loop's first full round of `outstanding`
  /// requests, or one request of each kind for the open loop.
  double setup_once(Phase& ph) {
    rt_.reset();
    const auto t0 = Clock::now();
    regla::runtime::RuntimeOptions opt;
    for (int d = 0; d < kDevices; ++d)
      opt.devices.push_back({"dev" + std::to_string(d),
                             regla::simt::DeviceConfig::quadro6000(), 1});
    opt.ragged = w_.ragged;
    if (w_.resilient) {
      opt.max_retries = 2;
      opt.cpu_fallback = true;
    }
    rt_ = std::make_unique<Runtime>(opt);
    std::vector<Flight> fl;
    if (w_.outstanding > 0) {
      for (int i = 0; i < w_.outstanding; ++i)
        fl.push_back(send(ph, i % static_cast<int>(pool_.size()), Clock::now(), nullptr));
    } else {
      for (std::size_t k = 0; k < w_.kinds.size(); ++k)
        fl.push_back(send(ph, static_cast<int>(k) * w_.pool_per_kind, Clock::now(), nullptr));
    }
    for (Flight& f : fl) observe(ph, f, Clock::now() + kHang, nullptr);
    return since(t0, Clock::now());
  }

  /// Run the workload for `seconds`, adding what it observed to `ph`;
  /// spans go to `log` when given.
  void run(Phase& ph, double seconds, SpanLog* log) {
    ph.depth.resize(sigs_.size());
    if (!ph.started) ph.before = Counters::take(*rt_);
    ph.started = true;
    const double cpu0 = process_cpu_seconds();
    if (w_.outstanding > 0)
      closed_loop(ph, seconds, log);
    else
      open_loop(ph, seconds, log);
    rt_->wait_idle();
    ph.host_cpu_s += process_cpu_seconds() - cpu0;
    ph.seconds += seconds;
    ph.after = Counters::take(*rt_);
  }

  const Workload& workload() const { return w_; }
  const std::vector<Request>& pool() const { return pool_; }
  const std::vector<Kind>& sigs() const { return sigs_; }
  const std::vector<double>& sig_share() const { return sig_share_; }
  Runtime& runtime() { return *rt_; }
  std::uint64_t seed() const { return seed_; }

 private:
  Flight send(Phase& ph, int req, Clock::time_point due, SpanLog* log) {
    const Request& r = pool_[static_cast<std::size_t>(req)];
    const Kind& k = w_.kinds[static_cast<std::size_t>(r.kind)];
    Flight f;
    f.req = req;
    ++ph.attempted;
    const std::uint64_t id = static_cast<std::uint64_t>(ph.attempted);
    if (log != nullptr) f.span = log->open("bench.request", 0, id);
    // The payload is written into an arena lease, the runtime's zero-copy
    // path; copying the pre-generated input is the only per-request
    // generation cost on the generator thread.
    BatchF a = rt_->lease_f32(r.a.count(), r.a.rows(), r.a.cols());
    std::copy_n(r.a.data(), r.a.size(), a.data());
    BatchF b;
    if (k.rhs) {
      b = rt_->lease_f32(r.b.count(), r.b.rows(), r.b.cols());
      std::copy_n(r.b.data(), r.b.size(), b.data());
    }
    const std::uint64_t s = log != nullptr ? log->open("runtime.submit", f.span, id) : 0;
    const auto t0 = Clock::now();
    f.fut = rt_->submit(k.op, std::move(a), std::move(b));
    const auto t1 = Clock::now();
    f.origin = w_.outstanding > 0 ? t0 : due;
    if (log != nullptr) {
      log->close(s);
      ph.submit_us_sum += since(t0, t1) * 1e6;
      ++ph.submits_timed;
    }
    ph.late_ms.push_back(static_cast<float>(lateness_ms(due, t0)));
    return f;
  }

  /// Wait for `f` (until `give_up`), check its answer, record it. Returns
  /// the time the result was seen.
  Clock::time_point observe(Phase& ph, Flight& f, Clock::time_point give_up,
                            SpanLog* log, Clock::time_point window_end =
                                              Clock::time_point::max()) {
    const Request& req = pool_[static_cast<std::size_t>(f.req)];
    const Kind& k = w_.kinds[static_cast<std::size_t>(req.kind)];
    bool ok = false;
    const std::uint64_t g = log != nullptr ? log->open("runtime.get", f.span) : 0;
    try {
      if (f.fut.wait_until(give_up) != std::future_status::ready)
        throw std::runtime_error("future did not resolve in time");
      const Report r = f.fut.get();
      if (log != nullptr) log->close(g);
      const double err = oracle_error(k, req, r.a, r.b);
      ph.worst_error = std::max(ph.worst_error, err);
      ok = err <= kOracleTol && r.all_solved();
      if (!ok && ph.first_error.empty())
        ph.first_error = k.label() + ": oracle error " + std::to_string(err);
      ph.queue_ms_sum += r.queue_seconds * 1e3;
      ++ph.reports;
      ++ph.depth[static_cast<std::size_t>(sig_of_kind_[static_cast<std::size_t>(req.kind)])]
                [r.coalesced_problems];
    } catch (const std::exception& e) {
      if (log != nullptr) log->close(g);
      if (ph.first_error.empty()) ph.first_error = k.label() + ": " + e.what();
    }
    const auto done = Clock::now();
    if (log != nullptr) log->close(f.span);
    const double lat_ms = since(f.origin, done) * 1e3;
    ph.latency_ms.push_back(static_cast<float>(lat_ms));
    if (!ok) ++ph.failed;
    if (!ok || lat_ms > kSloMs) ++ph.slo_miss;
    if (ok && done <= window_end) ph.problems_done += req.a.count();
    return done;
  }

  int pick() {
    return static_cast<int>(rng_.next_u32() % static_cast<std::uint32_t>(pool_.size()));
  }

  // Closed loop: `outstanding` requests always in flight; each result seen
  // sends the next request at once (its due time, for lateness, is when the
  // previous result was seen).
  void closed_loop(Phase& ph, double seconds, SpanLog* log) {
    std::deque<Flight> fl;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    for (int i = 0; i < w_.outstanding; ++i)
      fl.push_back(send(ph, pick(), Clock::now(), log));
    while (!fl.empty()) {
      Flight f = std::move(fl.front());
      fl.pop_front();
      const auto seen = observe(ph, f, Clock::now() + kHang, log, end);
      if (seen < end) fl.push_back(send(ph, pick(), seen, log));
    }
  }

  // Open loop: Poisson arrivals at rate_rps from a seeded schedule; each
  // request's latency runs from when it was due, so generator stalls count.
  void open_loop(Phase& ph, double seconds, SpanLog* log) {
    std::vector<double> due_s;
    for (double t = 0;;) {
      t += -std::log(1.0 - static_cast<double>(rng_.uniform())) / w_.rate_rps;
      if (t >= seconds) break;
      due_s.push_back(t);
    }
    const auto start = Clock::now();
    const auto at = [&](double s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
    };
    const auto end = at(seconds);
    std::vector<Flight> fl;
    std::size_t next = 0;
    while (next < due_s.size() || !fl.empty()) {
      const auto now = Clock::now();
      if (next < due_s.size() && now >= at(due_s[next])) {
        fl.push_back(send(ph, pick(), at(due_s[next]), log));
        ++next;
        ph.backlog_max = std::max(ph.backlog_max, fl.size());
        if (next == due_s.size()) ph.backlog_end = fl.size();
        continue;
      }
      auto wake = now + std::chrono::microseconds(200);
      if (next < due_s.size()) wake = std::min(wake, at(due_s[next]));
      if (!fl.empty())
        fl.front().fut.wait_until(wake);
      else
        std::this_thread::sleep_until(wake);
      for (std::size_t i = 0; i < fl.size();) {
        const bool ready = fl[i].fut.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
        const bool hung = Clock::now() - fl[i].origin > kHang;
        if (ready || hung) {
          observe(ph, fl[i], Clock::now(), log, end);
          fl.erase(fl.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::vector<Request> pool_;
  regla::Rng rng_;
  std::vector<Kind> sigs_;  ///< distinct served shapes
  std::vector<double> sig_share_;  ///< share of requests per served shape
  std::vector<int> sig_of_kind_;
  std::unique_ptr<Runtime> rt_;
};

/// Per-call microseconds of `fn` over at least `min_reps` timed calls and
/// about `budget_s` seconds (at most `max_reps`). `prep` runs untimed before
/// each call. Each timed call is a span in `log`.
template <typename Prep, typename Fn>
std::vector<double> time_calls(SpanLog& log, const char* name, int items, int min_reps,
                               int max_reps, double budget_s, Prep prep, Fn fn) {
  std::vector<double> us;
  const auto t0 = Clock::now();
  while (static_cast<int>(us.size()) < max_reps &&
         (static_cast<int>(us.size()) < min_reps || since(t0, Clock::now()) < budget_s)) {
    prep();
    const std::uint64_t id = log.open(name, 0, 0, items);
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    log.close(id);
    us.push_back(since(a, b) * 1e6 / items);
  }
  return us;
}

/// The single-thread cpu:: reference over the workload's own inputs.
///
/// Single-thread speed on a shared host differs by tens of percent between
/// cores and drifts over seconds, while the serving run spreads over every
/// core. So the reference runs one single-thread solver per core at once
/// (up to kMaxLanes) and pools their calls, and it is sampled in slices
/// between the timed sub-windows, so that both sides of host_x_cpu see the
/// same cores over the same stretch of time.
class CpuRef {
 public:
  explicit CpuRef(const Bench& b)
      : lanes_(std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                          kMaxLanes)) {
    const Workload& w = b.workload();
    REGLA_CHECK(w.pool_per_kind % kChunkRequests == 0);
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
      const Kind& kind = w.kinds[k];
      Chunks c{kind, {}, {}};
      for (int i = 0; i < w.pool_per_kind; i += kChunkRequests) {
        BatchF a(kChunkRequests * kProblemsPerRequest, kind.m, kind.n), rhs;
        if (kind.rhs) rhs = BatchF(a.count(), kind.rhs_rows(), 1);
        for (int j = 0; j < kChunkRequests; ++j) {
          const Request& r = b.pool()[k * static_cast<std::size_t>(w.pool_per_kind) +
                                      static_cast<std::size_t>(i + j)];
          std::copy_n(r.a.data(), r.a.size(), a.data() + j * r.a.size());
          if (kind.rhs) std::copy_n(r.b.data(), r.b.size(), rhs.data() + j * r.b.size());
        }
        c.a.push_back(std::move(a));
        c.b.push_back(std::move(rhs));
      }
      kinds_.push_back(std::move(c));
    }
    us_.resize(kinds_.size());
  }

  /// One slice of about `budget_s` seconds over every kind, on every lane.
  /// Lane 0 runs on the calling thread and records its calls in `log`.
  void sample(double budget_s, SpanLog& log) {
    std::vector<std::vector<std::vector<double>>> got(static_cast<std::size_t>(lanes_));
    {
      std::vector<std::jthread> others;
      for (int l = 1; l < lanes_; ++l)
        others.emplace_back([&, l] {
          SpanLog quiet(false);
          got[static_cast<std::size_t>(l)] = lane(budget_s, quiet);
        });
      got[0] = lane(budget_s, log);
    }
    for (const auto& g : got)
      for (std::size_t k = 0; k < g.size(); ++k)
        us_[k].insert(us_[k].end(), g[k].begin(), g[k].end());
  }

  /// Median cost per problem of each kind, averaged over kinds (the request
  /// mix is uniform over kinds).
  double us_per_problem() const {
    double sum = 0;
    for (const auto& v : us_) sum += median(v);
    return us_.empty() ? 0 : sum / static_cast<double>(us_.size());
  }

 private:
  /// Requests per timed call: 16 problems keep even the 32x32 working set
  /// inside a core's own cache.
  static constexpr int kChunkRequests = 4;
  static constexpr int kMaxLanes = 4;

  struct Chunks {
    Kind kind;
    std::vector<BatchF> a, b;  ///< the pool in chunks of kChunkRequests
  };

  /// Per-call us/problem of every kind on one single-thread solver. Work
  /// buffers are allocated before timing, so no timed call allocates.
  std::vector<std::vector<double>> lane(double budget_s, SpanLog& log) const {
    regla::cpu::ThreadPool one(1);
    std::vector<std::vector<double>> out;
    for (const Chunks& c : kinds_) {
      BatchF a = c.a[0], b = c.b[0], x(a.count(), c.kind.n, 1);
      std::size_t chunk = 0;
      out.push_back(time_calls(
          log, "cpu.batched", a.count(), 1, 5000, budget_s / double(kinds_.size()),
          [&] {
            chunk = (chunk + 1) % c.a.size();
            std::copy_n(c.a[chunk].data(), c.a[chunk].size(), a.data());
            std::copy_n(c.b[chunk].data(), c.b[chunk].size(), b.data());
          },
          [&] { cpu_solve(c.kind, a, b, x, one); }));
    }
    return out;
  }

  int lanes_;
  std::vector<Chunks> kinds_;
  std::vector<std::vector<double>> us_;
};

/// The untraced timed window, split into kSlices sub-windows with a cpu
/// reference slice before, between and after them. `expected_requests`
/// sizes the sample buffers up front, so they never regrow mid-window.
Phase measure(Bench& bench, double seconds, std::size_t expected_requests, CpuRef& cpu,
              SpanLog& log) {
  constexpr int kSlices = 8;
  constexpr double kCpuSlice = 0.15;
  Phase ph;
  ph.latency_ms.reserve(expected_requests);
  ph.late_ms.reserve(expected_requests);
  cpu.sample(kCpuSlice, log);
  for (int i = 0; i < kSlices; ++i) {
    const std::size_t first = ph.latency_ms.size();
    const long done = ph.problems_done;
    bench.run(ph, seconds / kSlices, nullptr);
    ph.window_pps.push_back(double(ph.problems_done - done) / (seconds / kSlices));
    cpu.sample(kCpuSlice, log);
    ph.window_p99_ms.push_back(
        quantiles(std::vector<float>(ph.latency_ms.begin() + static_cast<std::ptrdiff_t>(first),
                                     ph.latency_ms.end()))
            .p99);
  }
  return ph;
}

/// The isolated layer costs, weighted by each served signature's share.
struct Layers {
  double solve_us_per_problem = 0;    ///< Solver::run at modal depth, replay warm
  double launch_fixed_us = 0;         ///< Solver::run at batch 1
  double full_sim_us_per_problem = 0; ///< modal depth with replay off
  double plan_hit_us = 0;
  double plan_miss_us = 0;
  double plan_hit_us_per_problem = 0; ///< plan_hit_us / modal depth
};

Layers isolate_layers(const Bench& b, const Phase& traced, SpanLog& log) {
  Layers out;
  const auto cfg = regla::simt::DeviceConfig::quadro6000();
  // What the fleet gives each stream by default (FleetOptions).
  const int host_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / kDevices);
  for (std::size_t s = 0; s < b.sigs().size(); ++s) {
    const Kind& k = b.sigs()[s];
    const double share = b.sig_share()[s];
    const int depth = std::max(1, mode(traced.depth[s]));

    regla::simt::Device dev(cfg);
    dev.set_host_workers(host_threads);
    dev.set_replay(true);
    regla::Solver solver(dev);
    BatchF a0(depth, k.m, k.n), b0;
    if (k.rhs) b0 = BatchF(depth, k.rhs_rows(), 1);
    fill_inputs(k, a0, k.rhs ? &b0 : nullptr, b.seed() + s);
    const auto solve_at = [&](int count, int min_reps, int max_reps, double budget,
                              const char* name) {
      BatchF x0(count, k.m, k.n), y0, x, y;
      std::copy_n(a0.data(), x0.size(), x0.data());
      if (k.rhs) {
        y0 = BatchF(count, k.rhs_rows(), 1);
        std::copy_n(b0.data(), y0.size(), y0.data());
      }
      return median(time_calls(
          log, name, 1, min_reps, max_reps, budget, [&] { x = x0, y = y0; },
          [&] {
            regla::ops::Call call;
            call.a = &x;
            if (k.rhs) call.b = &y;
            solver.run(k.op, call);
          }));
    };
    solve_at(depth, 1, 1, 0, "ops.warm");  // plan miss + replay miss, untimed
    solve_at(1, 1, 1, 0, "ops.warm");
    const double budget = 0.4 / static_cast<double>(b.sigs().size());
    out.solve_us_per_problem += share * solve_at(depth, 5, 200, budget, "ops.run") / depth;
    out.launch_fixed_us += share * solve_at(1, 5, 200, budget / 2, "ops.run_one");
    dev.set_replay(false);
    out.full_sim_us_per_problem +=
        share * solve_at(depth, 1, 20, budget, "simt.full_sim") / depth;

    regla::planner::Planner planner;
    const regla::planner::ProblemDesc desc{k.op, k.m, k.n, depth,
                                           regla::planner::Dtype::f32};
    const double miss = median(time_calls(
        log, "planner.plan_miss", 1, 10, 50, 0.05, [&] { planner.clear(); },
        [&] { planner.plan(cfg, desc); }));
    constexpr int kGroup = 256;
    const double hit = median(time_calls(
        log, "planner.plan_hit", kGroup, 10, 50, 0.02, [] {},
        [&] {
          for (int i = 0; i < kGroup; ++i) planner.plan(cfg, desc);
        }));
    out.plan_miss_us += share * miss;
    out.plan_hit_us += share * hit;
    out.plan_hit_us_per_problem += share * hit / depth;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or base, for the human-readable line
};

void print_lines(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

void print_json(const std::vector<Metric>& ms, bool correct, long attempted, long failed) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

std::string n_of(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  std::printf("hostbench: workload %s, seed %llu, %.0f s, trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  Bench bench(w, args.seed);
  // Request spans of the traced window (capped) and the isolation pass's
  // layer-call spans, kept apart so the cap never drops the layer spans.
  SpanLog off(false), log(true, kMaxSpans), layer_log(true);
  CpuRef cpu(bench);

  Phase setup_ph;
  setup_ph.depth.resize(bench.sigs().size());
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(bench.setup_once(setup_ph));
  const double setup_s = median(setups);
  Phase warm;
  bench.run(warm, kWarmSeconds, nullptr);
  // Sample buffers are sized from the warm window's request rate.
  const auto expected =
      static_cast<std::size_t>(double(warm.attempted) / kWarmSeconds * args.seconds * 1.5) + 4096;

  std::vector<Phase> phases;  // the timed phases (their failures count)
  phases.reserve(2);
  std::vector<Metric> ms;
  if (!args.trace) {
    phases.push_back(measure(bench, args.seconds, expected, cpu, off));
  } else {
    phases.push_back(measure(bench, args.seconds / 2, expected / 2, cpu, layer_log));
    Phase& traced = phases.emplace_back();
    traced.latency_ms.reserve(expected / 2);
    traced.late_ms.reserve(expected / 2);
    bench.run(traced, args.seconds / 2, &log);
  }
  const double rss_mb = peak_rss_mb();  // before the statistics below allocate
  const Phase& ph = phases.back();
  const double cpu_us = cpu.us_per_problem();
  const double wall_pps = ph.problems_done / ph.seconds;
  const Counters& c0 = ph.before;
  const Counters& c1 = ph.after;
  const double batches = double(c1.rs.batches - c0.rs.batches);
  const double coalesced = double(c1.rs.coalesced_problems - c0.rs.coalesced_problems);
  const double requests = double(c1.rs.requests - c0.rs.requests);
  const Quantiles lat = quantiles(ph.latency_ms);
  const Quantiles late = quantiles(ph.late_ms);

  long attempted = setup_ph.attempted + warm.attempted, failed = setup_ph.failed + warm.failed;
  std::string first_error = !setup_ph.first_error.empty() ? setup_ph.first_error : warm.first_error;
  double worst = std::max(setup_ph.worst_error, warm.worst_error);
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    worst = std::max(worst, p.worst_error);
    if (first_error.empty()) first_error = p.first_error;
  }

  std::printf("fleet: %d devices x 1 stream; %s loop, %s; ragged %s, resilience %s\n",
              kDevices, w.outstanding > 0 ? "closed" : "open",
              w.outstanding > 0 ? (std::to_string(w.outstanding) + " requests outstanding").c_str()
                                : (std::to_string(int(w.rate_rps)) + " req/s Poisson").c_str(),
              w.ragged ? "on" : "off", w.resilient ? "on" : "off");
  std::printf("oracle: worst relative error %.3g (tolerance %.0e) over %ld requests\n", worst,
              kOracleTol, attempted);
  std::printf("generator: lateness p50 %.3f ms, p99 %.3f ms %s; open-loop backlog at end %zu "
              "(max %zu)\n",
              late.p50, late.p99, n_of(late.count).c_str(), ph.backlog_end, ph.backlog_max);
  const bool valid = late.p99 <= kMaxLateMs && ph.backlog_end <= kMaxBacklog;
  std::printf("run validity: %s (generator lateness p99 <= %.0f ms, end backlog <= %zu)\n",
              valid ? "ok" : "INVALID", kMaxLateMs, kMaxBacklog);

  if (!args.trace) {
    const double slo = ratio(double(ph.slo_miss), double(ph.attempted));
    // Like p99_ms below, the median of the sub-windows, so a co-tenant
    // burst that slows one sub-window does not move the result.
    ms.push_back({"wall_pps", median(ph.window_pps), "1/s",
                  "(median of " + std::to_string(ph.window_pps.size()) + " sub-windows; " +
                      std::to_string(ph.problems_done) + " problems / " +
                      std::to_string(ph.seconds) + " s pooled)"});
    ms.push_back({"p50_ms", lat.p50, "ms", n_of(lat.count)});
    // Printed like the others but left out of the JSON result: over ten
    // seeded runs on a loaded shared host, their spread passed the largest
    // regression bound a metric may have (README.md, "Printed, not gated").
    std::vector<Metric> ungated;
    // The tail is the median of the sub-windows' exact p99s: a co-tenant
    // stall that delays a few dozen requests moves one sub-window's p99,
    // not the reported one. Pooled p99 is printed below for comparison.
    ungated.push_back({"p99_ms", median(ph.window_p99_ms), "ms",
                  "(median of " + std::to_string(ph.window_p99_ms.size()) +
                      " sub-window p99s; pooled p99 " + std::to_string(lat.p99) + " ms, " +
                      n_of(lat.count) + ")"});
    ms.push_back({"device_pps", ratio(coalesced, c1.rs.device_seconds - c0.rs.device_seconds),
                  "1/s", "(" + std::to_string(long(batches)) + " batches)"});
    // Host cost is the process's CPU time (every thread) per problem, not
    // wall time: on the open loop wall time per problem is set by the
    // arrival rate, and CPU time scales with the runner's speed the same
    // way the reference's does.
    const double host_us = ratio(ph.host_cpu_s * 1e6, double(ph.problems_done));
    ungated.push_back({"host_x_cpu", ratio(host_us, cpu_us), "x",
                  "(host " + std::to_string(host_us) + " cpu-us/problem over all threads; cpu " +
                      std::to_string(cpu_us) + " us/problem, 1 thread)"});
    ms.push_back({"setup_s", setup_s, "s", n_of(setups.size())});
    ms.push_back({"peak_rss_mb", rss_mb, "MB", ""});
    std::printf("end-to-end (untraced):\n");
    if (w.outstanding == 0)
      ungated.push_back({"slo_miss_frac", slo, "frac",
                         "(limit " + std::to_string(int(kSloMs)) + " ms, " +
                             n_of(ph.attempted) + ")"});
    ungated.push_back({"failed_frac", ratio(double(failed), double(attempted)), "frac",
                       n_of(attempted)});
    print_lines(ms);
    std::printf("printed, not gated:\n");
    print_lines(ungated);
  } else {
    const Phase& untraced = phases.front();
    const double wall_untraced = untraced.problems_done / untraced.seconds;
    const Layers layers = isolate_layers(bench, ph, layer_log);
    const auto planner_stats = bench.runtime().planner()->stats();
    const double overhead = overhead_us_per_problem(kDevices, wall_untraced,
                                                    layers.solve_us_per_problem);
    double dmax = 0, dsum = 0;
    for (std::size_t d = 0; d < c1.dev_problems.size(); ++d) {
      const double p = c1.dev_problems[d] - c0.dev_problems[d];
      dmax = std::max(dmax, p);
      dsum += p;
    }
    const double replayed = c1.replayed - c0.replayed;
    const double simulated = c1.simulated - c0.simulated;
    const double flushes_deadline = double(c1.rs.flushed(regla::runtime::FlushReason::deadline) -
                                           c0.rs.flushed(regla::runtime::FlushReason::deadline));
    const double staged = c1.staged - c0.staged, view = c1.view - c0.view;
    ms.push_back({"runtime.submit_us", ratio(ph.submit_us_sum, double(ph.submits_timed)), "us",
                  n_of(static_cast<std::size_t>(ph.submits_timed))});
    ms.push_back({"runtime.queue_ms", ratio(ph.queue_ms_sum, double(ph.reports)), "ms",
                  n_of(static_cast<std::size_t>(ph.reports))});
    ms.push_back({"runtime.batch_problems", ratio(coalesced, batches), "count",
                  "(" + std::to_string(long(batches)) + " batches)"});
    ms.push_back({"runtime.deadline_flush_frac", ratio(flushes_deadline, batches), "frac", ""});
    ms.push_back({"runtime.staged_frac", ratio(staged, staged + view), "frac", ""});
    ms.push_back({"runtime.bytes_copied_per_problem",
                  ratio(c1.bytes_copied - c0.bytes_copied, coalesced), "B", ""});
    ms.push_back({"runtime.slab_allocs_per_request",
                  ratio(c1.slab_allocs - c0.slab_allocs, requests), "count", ""});
    ms.push_back({"runtime.overhead_us_per_problem", overhead, "us",
                  "(" + std::to_string(kDevices) + " streams x 1e6 / untraced wall_pps - ops)"});
    ms.push_back({"fleet.imbalance", ratio(dmax, dsum / kDevices), "x", ""});
    ms.push_back({"fleet.reroutes", c1.reroutes - c0.reroutes, "count", ""});
    ms.push_back({"planner.plan_hit_us", layers.plan_hit_us, "us", ""});
    ms.push_back({"planner.plan_miss_us", layers.plan_miss_us, "us", ""});
    ms.push_back({"planner.hit_rate", planner_stats.hit_rate(), "frac",
                  n_of(planner_stats.cache_hits + planner_stats.cache_misses)});
    ms.push_back({"ops.solve_us_per_problem", layers.solve_us_per_problem, "us", ""});
    ms.push_back({"ops.launch_fixed_us", layers.launch_fixed_us, "us", ""});
    ms.push_back({"simt.full_sim_us_per_problem", layers.full_sim_us_per_problem, "us", ""});
    ms.push_back({"simt.replay_block_frac", ratio(replayed, replayed + simulated), "frac", ""});
    ms.push_back({"cpu.us_per_problem", cpu_us, "us", ""});
    ms.push_back({"obs.trace_overhead_frac", 1 - ratio(wall_pps, wall_untraced), "frac",
                  "(traced vs untraced wall_pps)"});
    ms.push_back({"bench.gen_late_p99_ms", late.p99, "ms", n_of(late.count)});

    // The ledger: one stream's time per problem, split by layer. ops and
    // planner are the isolated Solver::run and Planner::plan spans; the
    // runtime share (queues, fleet, assembly, delivery, and stream idle) is
    // what the served cost leaves over. Only a closed loop's wall time is a
    // cost; an open loop's is set by its arrival rate.
    if (w.outstanding > 0) {
      const double measured = kDevices * 1e6 / wall_untraced;
      const double planner_self = layers.plan_hit_us_per_problem;
      const double ops_self = layers.solve_us_per_problem - planner_self;
      const bool accounted = overhead >= -kLedgerTol * measured;
      std::printf("ledger (stream us/problem): measured %.4g = runtime %.4g + planner %.4g + "
                  "ops/simt %.4g; isolated layers %s the measured cost (tolerance %.0f%%)\n",
                  measured, overhead, planner_self, ops_self,
                  accounted ? "fit within" : "EXCEED", kLedgerTol * 100);
    }
    std::printf("span self time (traced window, then isolation pass):\n");
    for (const SpanLog* l : {&log, &layer_log})
      for (const auto& [name, t] : self_times(l->spans()))
        std::printf("  %-24s %10zu spans %14.1f us self, %10.3f us mean\n", name.c_str(),
                    t.count, t.total_us, t.total_us / double(std::max<std::size_t>(1, t.count)));
    if (!args.spans_out.empty()) {
      log.write_jsonl(args.spans_out + "-requests.jsonl");
      layer_log.write_jsonl(args.spans_out + "-layers.jsonl");
      std::printf("spans: %zu request + %zu layer spans written to %s-*.jsonl (%zu request "
                  "spans over the cap dropped)\n",
                  log.spans().size(), layer_log.spans().size(), args.spans_out.c_str(),
                  log.dropped());
    }
    std::printf("per-layer (traced):\n");
    print_lines(ms);
  }

  const bool correct = failed == 0;
  if (!correct)
    std::fprintf(stderr, "hostbench: %ld of %ld requests failed; first: %s\n", failed,
                 attempted, first_error.c_str());
  print_json(ms, correct, attempted, failed);
  return correct ? 0 : 1;
}

int usage(const char* argv0) {
  std::string names;
  for (const auto& n : workload_names()) names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "usage: %s --workload %s --seed N --seconds S --trace 0|1 "
               "[--spans-out PREFIX]\n",
               argv0, names.c_str());
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  Args args;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 1 && args.seconds <= 600)) return usage(argv[0]);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage(argv[0]);
      args.trace = val == "1";
      have_trace = true;
    } else if (key == "--spans-out") {
      args.spans_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || find_workload(args.workload) == nullptr || !have_seed ||
      !have_trace || args.seconds <= 0)
    return usage(argv[0]);
  return run(args);
}
