// Serving: many concurrent clients, each with a handful of small problems,
// against one shared regla::runtime::Runtime.
//
// The paper's register-resident kernels only pay off amortized over large
// batches, but a real service sees trickles: a radar track here, a voxel
// block there. The Runtime bridges the two — submissions queue per
// signature, flush to the simulated device when the planner's
// model-preferred batch has gathered (or the oldest request's deadline
// expires), and every client still just calls submit() and waits on its own
// future.
//
// Clients here write their problems into arena leases (rt.lease_f32) instead
// of their own heap buffers: leased payloads and the staging blocks every
// batch is gathered into are recycled slab blocks, so the steady-state
// serving path allocates nothing per request (see DESIGN.md §14 and the
// payload line in the printed stats).
//
// Act two re-runs the same fleet against a hostile device: 10% of launches
// fail with TransientLaunchFailure (deterministic, seeded). With bounded
// retry + CPU fallback enabled, every request still resolves — successfully
// or with a typed error, never a hang — and the stats show what the
// resilience stack absorbed.
//
//   cmake -B build && cmake --build build -j
//   ./build/examples/serving
//
// Flags:
//   --devices N        serve both acts from an N-device fleet (one worker
//                      stream per device) instead of one dev0 with two
//   --kill-device K@t  in act 2, hard-kill fleet device K after t seconds —
//                      the resilience stack re-routes its traffic to the
//                      surviving devices (or the CPU solvers), and the
//                      accounting contract must still reconcile
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "common/generators.h"
#include "obs/obs.h"
#include "runtime/runtime.h"

namespace {

using namespace regla;
using namespace std::chrono_literals;

struct FleetResult {
  long problems_done = 0;
  int failed = 0;        ///< typed errors (the resilience contract)
  int untyped = 0;       ///< anything else escaping a future — should be 0
  int retried = 0;       ///< requests whose report shows device retries
  int on_cpu = 0;        ///< requests degraded to the CPU solvers
};

// 16 clients, each submitting 25 requests of 4 QR problems — a mix of
// per-thread (8x8) and per-block (32x32) signatures, interleaved. Requests
// with the same signature coalesce into shared device batches; different
// signatures never mix.
constexpr int kClients = 16, kRequestsPerClient = 25, kPerRequest = 4;

FleetResult run_fleet(runtime::Runtime& rt) {
  std::atomic<long> problems_done{0};
  std::atomic<int> failed{0}, untyped{0}, retried{0}, on_cpu{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(c);
      std::uniform_int_distribution<int> pause_us(20, 200);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int n = (c % 2 == 0) ? 8 : 32;
        // Lease the request buffer from the runtime's payload arena and
        // fill it in place — steady state this is a free-list hit, not an
        // allocation, and results ride the same block back in the Report.
        BatchF a = rt.lease_f32(kPerRequest, n, n);
        fill_uniform(a, static_cast<std::uint64_t>(c * 1000 + i));
        auto fut = rt.submit(planner::Op::qr, std::move(a));
        // A real client would go do other work here; these just pace
        // themselves and block on the result.
        std::this_thread::sleep_for(
            std::chrono::microseconds(pause_us(rng)));
        try {
          const runtime::Report r = fut.get();
          problems_done += r.a.count();
          if (r.retries > 0) ++retried;
          if (r.solved_on_cpu) ++on_cpu;
        } catch (const Error&) {
          ++failed;  // typed: TransientLaunchFailure / DeadlineExceeded / ...
        } catch (...) {
          ++untyped;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  FleetResult r;
  r.problems_done = problems_done;
  r.failed = failed;
  r.untyped = untyped;
  r.retried = retried;
  r.on_cpu = on_cpu;
  return r;
}

void print_stats(const runtime::RuntimeStats& st, const FleetResult& r) {
  std::printf("problems solved:  %ld (%d typed failures, %d untyped)\n",
              r.problems_done, r.failed, r.untyped);
  std::printf("device batches:   %llu (mean %.1f problems/batch; "
              "baseline without coalescing: %.0f batches)\n",
              static_cast<unsigned long long>(st.batches), st.mean_batch(),
              double(st.requests));
  std::printf("flush reasons:    size %llu, deadline %llu, shutdown %llu\n",
              static_cast<unsigned long long>(
                  st.flushed(runtime::FlushReason::size)),
              static_cast<unsigned long long>(
                  st.flushed(runtime::FlushReason::deadline)),
              static_cast<unsigned long long>(
                  st.flushed(runtime::FlushReason::shutdown)));
  std::printf("latency:          p50 %.2f ms, p99 %.2f ms\n", st.p50_ms(),
              st.p99_ms());
  std::printf("payloads:         %llu slab allocs, %llu lease reuses; "
              "%llu staged batches, %llu bytes copied\n",
              static_cast<unsigned long long>(st.payload_allocs),
              static_cast<unsigned long long>(st.payload_reuses),
              static_cast<unsigned long long>(st.staged_batches),
              static_cast<unsigned long long>(st.payload_bytes_copied));
  std::printf("simulated device: %.2f ms busy\n", st.device_seconds * 1e3);
}

int g_devices = 0;     ///< 0 = the runtime's default: dev0 with two streams
int g_kill_device = -1;
double g_kill_at_s = 0;

/// The fleet, every member configured as `cfg`.
void apply_devices(runtime::RuntimeOptions& opt,
                   const simt::DeviceConfig& cfg = {}) {
  if (g_devices <= 0) {
    // Two device streams execute flushes.
    opt.devices.push_back({"dev0", cfg, runtime::Runtime::kDefaultStreams});
    return;
  }
  for (int d = 0; d < g_devices; ++d)
    opt.devices.push_back({"dev" + std::to_string(d), cfg, 1});
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      g_devices = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-device") == 0 && i + 1 < argc) {
      if (std::sscanf(argv[++i], "%d@%lf", &g_kill_device, &g_kill_at_s) != 2 ||
          g_kill_device < 0 || g_kill_at_s < 0) {
        std::fprintf(stderr, "bad --kill-device spec '%s' (want K@t)\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--devices N] [--kill-device K@t]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("=== act 1: healthy device ===\n");
  {
    runtime::RuntimeOptions opt;
    opt.max_batch_delay = 500us;     // stragglers wait at most this long
    apply_devices(opt);
    runtime::Runtime rt(opt);
    const FleetResult r = run_fleet(rt);
    rt.shutdown();
    std::printf("clients:          %d x %d requests x %d problems\n", kClients,
                kRequestsPerClient, kPerRequest);
    print_stats(rt.stats(), r);
    if (r.failed != 0 || r.untyped != 0) return 1;
  }

  std::printf("\n=== act 2: 10%% launch failures, resilience on ===\n");
  {
    runtime::RuntimeOptions opt;
    opt.max_batch_delay = 500us;
    opt.max_retries = 3;             // bounded retry with exponential backoff
    opt.retry_backoff = 100us;
    opt.cpu_fallback = true;         // circuit-broken stream degrades to cpu::
    opt.shed_on_saturation = true;   // full queue sheds (QueueSaturated)
    simt::DeviceConfig flaky;
    flaky.faults.launch_failure_rate = 0.10;  // seeded, deterministic
    apply_devices(opt, flaky);
    runtime::Runtime rt(opt);
    // --kill-device: hard-kill mid-traffic; the stack above must absorb it.
    std::thread killer;
    if (g_kill_device >= 0 && g_kill_device < rt.fleet().size()) {
      killer = std::thread([&rt] {
        std::this_thread::sleep_for(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(g_kill_at_s)));
        rt.kill_device(g_kill_device);
        std::printf("(killed device %d)\n", g_kill_device);
      });
    }
    const FleetResult r = run_fleet(rt);
    if (killer.joinable()) killer.join();
    rt.shutdown();
    const auto st = rt.stats();
    print_stats(st, r);
    std::printf("resilience:       %llu retries, %llu cpu-fallback launches, "
                "%llu circuit opens; %d requests saw a retry, %d degraded "
                "to cpu\n",
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.fallback_cpu),
                static_cast<unsigned long long>(st.circuit_opens),
                r.retried, r.on_cpu);
    // The contract: every future resolved — solved or typed — zero hangs,
    // zero untyped escapes, and the stats reconcile with what callers saw.
    const bool reconciled =
        r.untyped == 0 &&
        st.fulfilled + st.failed_requests ==
            static_cast<std::uint64_t>(kClients * kRequestsPerClient);
    std::printf("accounting:       fulfilled %llu + failed %llu = %d issued "
                "(%s)\n",
                static_cast<unsigned long long>(st.fulfilled),
                static_cast<unsigned long long>(st.failed_requests),
                kClients * kRequestsPerClient,
                reconciled ? "reconciles" : "DOES NOT RECONCILE");
    if (!reconciled) return 1;
  }

  // The same health numbers through the obs registry — every layer
  // (runtime.*, planner.*, engine.*) in one exposition, fault and
  // resilience counters included.
  std::printf("\n--- obs::dump ---\n");
  regla::obs::dump(std::cout);
  return 0;
}
