// The multi-device fleet: router policy (pure pick()), fleet lifecycle
// (drain / remove / add / kill), and the serving runtime's routing +
// re-route behavior over it.
//
// FleetRouter.* / FleetUnit.* are lock-light unit tests;
// FleetSharedPool.* launches on two streams at once over the shared host
// pool; FleetLifecycle.* drive a Runtime through the solve_override hook (no
// kernels, TSan-friendly); FleetFault.* run real kernels under deterministic
// seeded faults and hard kills.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/generators.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "simt/engine.h"
#include "test_util.h"

namespace regla {
namespace {

using namespace std::chrono_literals;
using fleet::DeviceSpec;
using fleet::DeviceState;
using fleet::RouteCandidate;
using planner::Op;
using runtime::Report;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::Signature;

// --- Router policy ---------------------------------------------------------

RouteCandidate cand(int device, double load, bool open = false,
                    std::uint64_t stamp = 0) {
  RouteCandidate c;
  c.device = device;
  c.load = load;
  c.circuit_open = open;
  c.last_routed = stamp;
  return c;
}

TEST(FleetRouter, PrefersLowestLoad) {
  const std::vector<RouteCandidate> cs = {cand(0, 1.0), cand(1, 0.25),
                                          cand(2, 0.5)};
  EXPECT_EQ(fleet::pick(cs), 1);
}

TEST(FleetRouter, ClosedCircuitBeatsOpenWhateverTheLoad) {
  const std::vector<RouteCandidate> cs = {cand(0, 0.0, /*open=*/true),
                                          cand(1, 5.0)};
  EXPECT_EQ(fleet::pick(cs), 1);
}

TEST(FleetRouter, AllOpenStillPicksOne) {
  const std::vector<RouteCandidate> cs = {cand(0, 1.0, /*open=*/true),
                                          cand(1, 0.5, /*open=*/true)};
  EXPECT_EQ(fleet::pick(cs), 1);  // lowest load among the open
}

TEST(FleetRouter, RoundRobinBreaksExactTies) {
  // Same load: the least-recently-routed stamp wins.
  const std::vector<RouteCandidate> cs = {cand(0, 0.0, false, 7),
                                          cand(1, 0.0, false, 3),
                                          cand(2, 0.0, false, 5)};
  EXPECT_EQ(fleet::pick(cs), 1);
}

TEST(FleetRouter, EmptyListReturnsMinusOne) {
  EXPECT_EQ(fleet::pick({}), -1);
}

// --- Fleet unit ------------------------------------------------------------

fleet::Fleet::Options two_device_options() {
  fleet::Fleet::Options opt;
  opt.devices = {DeviceSpec{"a", simt::DeviceConfig::quadro6000(), 1},
                 DeviceSpec{"b", simt::DeviceConfig::quadro6000(), 1}};
  return opt;
}

TEST(FleetUnit, AcquireSpreadsAcrossDevices) {
  fleet::Fleet f(two_device_options());
  auto l1 = f.acquire();
  auto l2 = f.acquire();
  ASSERT_TRUE(l1 && l2);
  const int first = l1->device_id();
  EXPECT_NE(first, l2->device_id());
  f.record_success(*l1, 16, 0.25);
  l1->release();
  l2->release();
  const auto st = f.device_stats(first);
  EXPECT_EQ(f.stats().routed, 2u);
  EXPECT_EQ(f.devices().size(), 2u);
  EXPECT_EQ(st.state, DeviceState::active);
  EXPECT_EQ(st.problems, 16u);
}

TEST(FleetUnit, ExcludeMaskSkipsDevice) {
  fleet::Fleet f(two_device_options());
  for (int i = 0; i < 4; ++i) {
    auto l = f.acquire(/*exclude=*/1ull << 0);
    ASSERT_TRUE(l);
    EXPECT_EQ(l->device_id(), 1);
  }
  // Everything excluded: no eligible device at all.
  EXPECT_FALSE(f.acquire(0b11));
  EXPECT_EQ(f.stats().no_device, 1u);
}

TEST(FleetUnit, DrainStopsRoutingRemoveDestroysStreams) {
  fleet::Fleet f(two_device_options());
  f.drain(0);
  EXPECT_EQ(f.active_devices(), 1);
  for (int i = 0; i < 3; ++i) {
    auto l = f.acquire();
    ASSERT_TRUE(l);
    EXPECT_EQ(l->device_id(), 1);
  }
  f.remove(0);
  EXPECT_EQ(f.device_stats(0).state, DeviceState::removed);
  EXPECT_EQ(f.device_stats(0).streams, 0);
  EXPECT_EQ(f.total_streams(), 1);
  f.remove(1);
  EXPECT_FALSE(f.acquire());
}

TEST(FleetUnit, KillFlagsTheLease) {
  fleet::Fleet f(two_device_options());
  auto l = f.acquire(/*exclude=*/1ull << 1);  // pin to device 0
  ASSERT_TRUE(l);
  EXPECT_FALSE(l->killed());
  f.kill(0);
  EXPECT_TRUE(l->killed());  // live leases see the kill immediately
  EXPECT_TRUE(f.device_stats(0).killed);
  EXPECT_FALSE(f.device_stats(1).killed);
}

TEST(FleetUnit, AddDeviceJoinsRouting) {
  fleet::Fleet::Options opt = two_device_options();
  opt.devices.pop_back();
  fleet::Fleet f(std::move(opt));
  const int id = f.add_device(DeviceSpec{"late", f.primary_config(), 1});
  EXPECT_EQ(id, 1);
  EXPECT_EQ(f.active_devices(), 2);
  auto l0 = f.acquire();
  auto l1 = f.acquire();
  ASSERT_TRUE(l0 && l1);
  EXPECT_NE(l0->device_id(), l1->device_id());
  EXPECT_EQ(f.device_stats(1).name, "late");
}

// Placement reads load alone: the larger device takes the first batch only
// on the exact tie (member order), and one busy stream of its four already
// sends the next batch to the idle sibling.
TEST(FleetUnit, HeterogeneousFleetRoutesByLoadNotPlanState) {
  fleet::Fleet::Options opt;
  simt::DeviceConfig small = simt::DeviceConfig::quadro6000();
  small.num_sm = 7;
  opt.devices = {DeviceSpec{"big", simt::DeviceConfig::quadro6000(), 4},
                 DeviceSpec{"small", small, 1}};
  fleet::Fleet f(std::move(opt));
  auto first = f.acquire();
  auto second = f.acquire();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->device_name(), "big");  // exact tie: member order
  // big now carries 1 of 4 streams (load 0.25); small is idle (load 0).
  EXPECT_EQ(second->device_name(), "small");
}

TEST(FleetUnit, ExhaustedEpisodesOpenAndSuccessCloses) {
  fleet::Fleet::Options opt = two_device_options();
  opt.circuit_break_after = 2;
  opt.circuit_cooldown = 10s;  // stays open unless a success closes it
  fleet::Fleet f(std::move(opt));
  auto l = f.acquire(1ull << 1);
  ASSERT_TRUE(l);
  EXPECT_FALSE(f.record_exhausted(*l));  // streak 1 of 2
  EXPECT_TRUE(f.record_exhausted(*l));   // trips
  EXPECT_TRUE(f.device_stats(0).circuit_open);
  EXPECT_EQ(f.stats().circuit_opens, 1u);
  f.record_success(*l, 1, 0.0);
  EXPECT_FALSE(f.device_stats(0).circuit_open);
}

// Satellite: fleet.* topology gauges must survive an obs reset via
// publish_metrics(), mirroring the ops.registered contract.
TEST(FleetMetrics, PublishMetricsRestampsTopology) {
  fleet::Fleet f(two_device_options());
  f.kill(1);
  obs::reset_all();
  EXPECT_EQ(obs::gauge_value("fleet.devices"), 0.0);
  f.publish_metrics();
  EXPECT_EQ(obs::gauge_value("fleet.devices"), 2.0);
  EXPECT_EQ(obs::gauge_value("fleet.streams"), 2.0);
  EXPECT_EQ(obs::gauge_value("fleet.circuit_open", "device=a"), 0.0);
  EXPECT_EQ(obs::gauge_value("fleet.killed", "device=b"), 1.0);
  EXPECT_EQ(obs::gauge_value("fleet.state", "device=a"),
            static_cast<double>(DeviceState::active));
}

// --- Streams share one host pool ---------------------------------------------

constexpr int kWaveBlocks = 112;  // one full GF100 wave of 64-thread blocks
constexpr int kBlockThreads = 64;

/// Two barriers, shared memory, a register tile and a per-element answer, so
/// both the outputs and the folded accounting depend on every block running.
simt::KernelFn staged_kernel(float* in, float* out) {
  return [in, out](simt::BlockCtx& ctx) -> simt::Lane {
    auto tile = ctx.reg_tile<simt::gfloat>(4, 4);
    auto sh = ctx.shared<float>(kBlockThreads);
    const int i = ctx.block() * kBlockThreads + ctx.tid();
    tile.set(0, 0, ctx.global(in).ld(i));
    co_await ctx.sync();
    sh.st(ctx.tid(), tile.get(0, 0) * simt::gfloat(1.5f) + simt::gfloat(0.25f));
    co_await ctx.sync();
    ctx.global(out).st(i, sh.ld((ctx.tid() + 1) % kBlockThreads) /
                              simt::gfloat(3.0f));
  };
}

void expect_launches_identical(const simt::LaunchResult& a,
                               const simt::LaunchResult& b) {
  EXPECT_EQ(a.chip_cycles, b.chip_cycles);  // bitwise: no tolerance
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.block_cycles_avg, b.block_cycles_avg);
  EXPECT_EQ(a.blocks_per_sm, b.blocks_per_sm);
  EXPECT_EQ(a.occupancy_limiter, b.occupancy_limiter);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.shared_bytes_per_block, b.shared_bytes_per_block);
  EXPECT_EQ(a.totals.flops, b.totals.flops);
  EXPECT_EQ(a.totals.divs, b.totals.divs);
  EXPECT_EQ(a.totals.sqrts, b.totals.sqrts);
  EXPECT_EQ(a.totals.sh_accesses, b.totals.sh_accesses);
  EXPECT_EQ(a.totals.gl_bytes, b.totals.gl_bytes);
  EXPECT_EQ(a.totals.spill_bytes, b.totals.spill_bytes);
  EXPECT_EQ(a.totals.syncs, b.totals.syncs);
  EXPECT_EQ(a.totals.addr_truncations, b.totals.addr_truncations);
  ASSERT_EQ(a.breakdown.size(), b.breakdown.size());
  for (std::size_t k = 0; k < a.breakdown.size(); ++k) {
    EXPECT_EQ(a.breakdown[k].panel, b.breakdown[k].panel);
    EXPECT_EQ(a.breakdown[k].tag, b.breakdown[k].tag);
    EXPECT_EQ(a.breakdown[k].cycles, b.breakdown[k].cycles);
  }
}

// Two fleet streams launch the same replay-eligible full wave at once from
// two threads, so their blocks interleave on the shared host pool: a replay
// miss (representatives instrumented, the rest fast) and then two hits.
// Outputs and LaunchResults must match one serial launch bit for bit —
// which host thread runs a block never changes its numerics or accounting.
TEST(FleetSharedPool, ConcurrentReplayLaunchesMatchSerialLaunch) {
  constexpr int kLaunches = 3;
  constexpr int kElems = kWaveBlocks * kBlockThreads;
  constexpr std::uint64_t kSalt = 0x5eed;
  simt::LaunchSpec spec;
  spec.blocks = kWaveBlocks;
  spec.threads = kBlockThreads;
  spec.name = "fleet_shared_pool";

  // The fixed salt does not cover the buffers' alignment classes (the DRAM
  // coalescing pattern, which ops::run_device mixes into its keys), so every
  // buffer starts a 128-byte segment: a hit's replayed accounting is then
  // what its own addresses would simulate to.
  struct alignas(128) Buffer {
    float v[kElems];
  };
  std::vector<Buffer> in(kLaunches);
  for (int l = 0; l < kLaunches; ++l)
    for (int i = 0; i < kElems; ++i)
      in[l].v[i] = static_cast<float>((i * 7 + l * 13) % 101) / 17.0f;

  struct Run {
    std::vector<Buffer> out = std::vector<Buffer>(kLaunches);
    std::vector<simt::LaunchResult> res;
  };
  const auto run_on = [&](simt::Device& dev) {
    Run r;
    const simt::Device::ReplayScope scope(dev, /*data_independent=*/true,
                                          kSalt);
    for (int l = 0; l < kLaunches; ++l)
      r.res.push_back(dev.launch(spec, staged_kernel(in[l].v, r.out[l].v)));
    return r;
  };

  simt::Device serial;
  serial.set_host_workers(1);  // every block on this thread, in order
  serial.set_replay(true);
  if (!serial.replay_enabled()) GTEST_SKIP() << "REGLA_REPLAY=0 set";
  const Run want = run_on(serial);

  fleet::Stream a(simt::DeviceConfig::quadro6000());
  fleet::Stream b(simt::DeviceConfig::quadro6000());
  Run got_a, got_b;
  std::latch start(2);
  std::thread ta([&] {
    start.arrive_and_wait();
    got_a = run_on(a.device());
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    got_b = run_on(b.device());
  });
  ta.join();
  tb.join();

  for (const Run* got : {&got_a, &got_b}) {
    ASSERT_EQ(got->res.size(), want.res.size());
    for (int l = 0; l < kLaunches; ++l) {
      SCOPED_TRACE("launch " + std::to_string(l));
      expect_launches_identical(got->res[l], want.res[l]);
      EXPECT_EQ(std::memcmp(got->out[l].v, want.out[l].v, sizeof(Buffer)), 0);
    }
  }
}

// --- Runtime over the fleet (override-driven, no kernels) ------------------

std::atomic<int> g_slow_solves{0};

SolveReport slow_override(const Signature&, BatchF& a, BatchF&) {
  ++g_slow_solves;
  std::this_thread::sleep_for(5ms);
  for (int i = 0; i < a.count() * a.stride(); ++i) a.data()[i] *= 2.0f;
  SolveReport r;
  r.nominal_flops = a.count();
  r.seconds = 1e-4;
  return r;
}

BatchF marked(int count, int n, float mark) {
  BatchF a(count, n, n);
  for (int i = 0; i < count * a.stride(); ++i) a.data()[i] = mark;
  return a;
}

RuntimeOptions fleet_queue_options(int devices, int streams_each = 1) {
  RuntimeOptions opt;
  for (int d = 0; d < devices; ++d)
    opt.devices.push_back(DeviceSpec{"dev" + std::to_string(d),
                                     simt::DeviceConfig::quadro6000(),
                                     streams_each});
  opt.max_batch_delay = std::chrono::microseconds{0};  // flush on arrival
  opt.solve_override = slow_override;
  return opt;
}

TEST(FleetLifecycle, DrainCompletesInflightBeforeRemoval) {
  Runtime rt(fleet_queue_options(2));
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(rt.submit(Op::qr, marked(2, 8, float(i + 1))));
  // Drain + remove device 0 while its solves are (likely) in flight: remove
  // must block until in-flight batches complete, never cancel them.
  rt.drain_device(0);
  rt.remove_device(0);
  EXPECT_EQ(rt.fleet().device_stats(0).state, DeviceState::removed);
  EXPECT_EQ(rt.fleet().device_stats(0).inflight, 0);
  for (int i = 0; i < 8; ++i) {
    Report r = futs[i].get();
    EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), 2.0f * float(i + 1));  // solved, not lost
  }
  // Traffic after removal lands on the surviving device.
  Report r = rt.submit(Op::qr, marked(2, 8, 50.0f)).get();
  EXPECT_EQ(r.device_id, 1);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 9u);
  EXPECT_EQ(st.failed_requests, 0u);
}

TEST(FleetLifecycle, AddUnderLoadReceivesBatches) {
  Runtime rt(fleet_queue_options(1));
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(rt.submit(Op::qr, marked(2, 8, 1.0f)));
  const int id = rt.add_device(
      DeviceSpec{"late", simt::DeviceConfig::quadro6000(), 1});
  EXPECT_EQ(id, 1);
  // With dev0's single stream sleeping 5ms per batch and flush-on-arrival
  // traffic, the router must start placing batches on the idle newcomer.
  for (int i = 0; i < 12; ++i)
    futs.push_back(rt.submit(Op::qr, marked(2, 8, 1.0f)));
  for (auto& f : futs) (void)f.get();
  rt.shutdown();
  EXPECT_GT(rt.fleet().device_stats(1).batches, 0u)
      << "device added under load never received a batch";
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 16u);
  EXPECT_EQ(st.failed_requests, 0u);
}

// Seven streams, one from the constructor and six from add_device, run
// seven flush-on-arrival batches at once: every stream a member brings gets
// a thread to run on. Each solve holds until all seven are in flight,
// bounded so that a runtime with fewer threads fails instead of hanging.
TEST(FleetLifecycle, AddedStreamsAllRunAtOnce) {
  constexpr int kStreams = 7;
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  int peak = 0;
  RuntimeOptions opt = fleet_queue_options(1);
  opt.solve_override = [&](const Signature&, BatchF& a, BatchF&) {
    std::unique_lock<std::mutex> lock(mu);
    peak = std::max(peak, ++in_flight);
    cv.notify_all();
    cv.wait_for(lock, 10s, [&] { return peak >= kStreams; });
    --in_flight;
    SolveReport r;
    r.nominal_flops = a.count();
    return r;
  };
  Runtime rt(opt);
  rt.add_device(DeviceSpec{"wide", simt::DeviceConfig::quadro6000(), 6});
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < kStreams; ++i)
    futs.push_back(rt.submit(Op::qr, marked(2, 8, 1.0f)));
  for (auto& f : futs) (void)f.get();
  rt.shutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(peak, kStreams);
  }
  EXPECT_EQ(rt.stats().fulfilled, static_cast<std::uint64_t>(kStreams));
}

TEST(FleetLifecycle, RemoveLastDeviceFallsBackToCpu) {
  RuntimeOptions opt = fleet_queue_options(1);
  opt.solve_override = nullptr;  // real kernels: the cpu entry must agree
  opt.cpu_fallback = true;
  Runtime rt(opt);
  rt.remove_device(0);
  BatchF a(2, 8, 8);
  fill_diag_dominant(a, 0x5eed);
  Report r = rt.submit(Op::lu, std::move(a)).get();
  EXPECT_TRUE(r.solved_on_cpu);
  EXPECT_EQ(r.device_id, -1);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 1u);
  EXPECT_GE(st.no_device, 1u);
  EXPECT_GE(st.fallback_cpu, 1u);
}

TEST(FleetLifecycle, RemoveLastDeviceWithoutFallbackFailsTyped) {
  RuntimeOptions opt = fleet_queue_options(1);
  Runtime rt(opt);
  rt.remove_device(0);
  auto fut = rt.submit(Op::qr, marked(2, 8, 1.0f));
  EXPECT_THROW(fut.get(), runtime::NoDeviceAvailable);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 0u);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_GE(st.no_device, 1u);
}

// --- Faults over the fleet (real kernels, deterministic seeds) -------------

TEST(FleetFault, RerouteLandsOnHealthyDeviceBeforeCpu) {
  RuntimeOptions opt;
  auto broken = simt::DeviceConfig::quadro6000();
  broken.faults.launch_failure_rate = 1.0;  // dev0 fails every launch
  broken.faults.seed = 0xfee7;
  opt.devices = {DeviceSpec{"broken", broken, 1},
                 DeviceSpec{"healthy", simt::DeviceConfig::quadro6000(), 1}};
  opt.max_batch_delay = std::chrono::microseconds{0};
  opt.max_retries = 1;
  opt.retry_backoff = std::chrono::microseconds{0};
  opt.circuit_break_after = 1;
  opt.circuit_cooldown = 10s;
  opt.cpu_fallback = true;  // must NOT be reached: re-route comes first
  Runtime rt(opt);

  // Sequential submit-and-wait keeps the healthy device idle at every
  // routing decision, so a batch placed on the broken device must re-route
  // there (an open-circuit lease taken because the sibling was *busy* would
  // legitimately go to cpu — that path is deliberately not exercised here).
  for (int i = 0; i < 8; ++i) {
    BatchF a(2, 8, 8);
    fill_diag_dominant(a, 0x100 + i);
    Report r = rt.submit(Op::lu, std::move(a)).get();
    EXPECT_FALSE(r.solved_on_cpu);
    EXPECT_EQ(r.device, "healthy");  // never resolved by the broken device
  }
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled, 8u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_GE(st.reroutes, 1u);      // at least the first batch moved over
  EXPECT_EQ(st.fallback_cpu, 0u);  // device re-route preempted degradation
  EXPECT_GE(rt.fleet().device_stats(0).reroutes_away, 1u);
}

TEST(FleetFault, KillMidTrafficPreservesAccounting) {
  RuntimeOptions opt;
  opt.devices = {DeviceSpec{"dev0", simt::DeviceConfig::quadro6000(), 1},
                 DeviceSpec{"dev1", simt::DeviceConfig::quadro6000(), 1}};
  opt.max_batch_delay = std::chrono::microseconds{200};
  opt.max_retries = 1;
  opt.retry_backoff = std::chrono::microseconds{0};
  opt.circuit_break_after = 1;
  opt.circuit_cooldown = 10s;
  opt.cpu_fallback = true;
  Runtime rt(opt);

  const int kRequests = 48;
  std::vector<std::future<Report>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    BatchF a(2, 8, 8);
    fill_diag_dominant(a, 0x200 + i);
    futs.push_back(rt.submit(Op::lu, std::move(a)));
    if (i == kRequests / 3) rt.kill_device(0);  // dies mid-traffic
  }
  // A solve already in flight on dev0 at kill time may legitimately finish
  // there (the kill flag gates attempt *starts*), so we don't assert where
  // results came from — only that every single one arrived.
  int solved = 0;
  for (auto& f : futs) {
    Report r = f.get();  // throws = lost request = test failure
    (void)r;
    ++solved;
  }
  rt.shutdown();
  EXPECT_EQ(solved, kRequests);
  const auto st = rt.stats();
  EXPECT_EQ(st.fulfilled + st.failed_requests, st.requests);
  EXPECT_EQ(st.fulfilled, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_TRUE(rt.fleet().device_stats(0).killed);
}

}  // namespace
}  // namespace regla
