// The multi-device fleet: router policy (pure pick()), plan-cache affinity
// probes, fleet lifecycle (drain / remove / add / kill), and the serving
// runtime's routing + re-route behavior over it.
//
// FleetRouter.* / FleetCache.* / FleetUnit.* are lock-light unit tests;
// FleetLifecycle.* drive a Runtime through the solve_override hook (no
// kernels, TSan-friendly); FleetFault.* run real kernels under deterministic
// seeded faults and hard kills.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/generators.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace regla {
namespace {

using namespace std::chrono_literals;
using fleet::DeviceSpec;
using fleet::DeviceState;
using fleet::RouteCandidate;
using fleet::RouterOptions;
using planner::Op;
using runtime::Report;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::Signature;

// --- Router policy ---------------------------------------------------------

RouteCandidate cand(int device, double load, bool warm = false,
                    bool open = false, std::uint64_t stamp = 0) {
  RouteCandidate c;
  c.device = device;
  c.load = load;
  c.warm = warm;
  c.circuit_open = open;
  c.last_routed = stamp;
  return c;
}

TEST(FleetRouter, PrefersLowestLoad) {
  RouterOptions opt;
  const std::vector<RouteCandidate> cs = {cand(0, 1.0), cand(1, 0.25),
                                          cand(2, 0.5)};
  EXPECT_EQ(fleet::pick(opt, cs), 1);
}

TEST(FleetRouter, AffinityDiscountsLoad) {
  RouterOptions opt;  // affinity_bonus = 0.5
  // Device 1 is busier but already holds a cached plan for the signature:
  // 0.75 - 0.5 = 0.25 beats device 0's cold 0.5.
  const std::vector<RouteCandidate> cs = {cand(0, 0.5, /*warm=*/false),
                                          cand(1, 0.75, /*warm=*/true)};
  EXPECT_EQ(fleet::pick(opt, cs), 1);
  // With affinity off, raw load decides.
  opt.affinity_bonus = 0;
  EXPECT_EQ(fleet::pick(opt, cs), 0);
}

TEST(FleetRouter, ClosedCircuitBeatsOpenWhateverTheLoad) {
  RouterOptions opt;
  const std::vector<RouteCandidate> cs = {
      cand(0, 0.0, /*warm=*/true, /*open=*/true), cand(1, 5.0)};
  EXPECT_EQ(fleet::pick(opt, cs), 1);
}

TEST(FleetRouter, AllOpenStillPicksOne) {
  RouterOptions opt;
  const std::vector<RouteCandidate> cs = {cand(0, 1.0, false, true),
                                          cand(1, 0.5, false, true)};
  EXPECT_EQ(fleet::pick(opt, cs), 1);  // lowest load among the open
}

TEST(FleetRouter, RoundRobinBreaksExactTies) {
  RouterOptions opt;
  // Same load, same warmth: the least-recently-routed stamp wins.
  const std::vector<RouteCandidate> cs = {cand(0, 0.0, false, false, 7),
                                          cand(1, 0.0, false, false, 3),
                                          cand(2, 0.0, false, false, 5)};
  EXPECT_EQ(fleet::pick(opt, cs), 1);
}

TEST(FleetRouter, EmptyListReturnsMinusOne) {
  EXPECT_EQ(fleet::pick(RouterOptions{}, {}), -1);
}

// --- Plan-cache affinity ---------------------------------------------------

TEST(FleetCache, WarmMatchesShapeAcrossBatchSizes) {
  planner::Planner pl;
  const auto cfg = simt::DeviceConfig::quadro6000();
  const std::uint64_t fp = planner::Planner::config_fingerprint(cfg);
  const planner::ProblemDesc planned{Op::qr, 8, 8, 64, planner::Dtype::f32};
  EXPECT_FALSE(pl.cache().warm(planned, fp));
  (void)pl.plan(cfg, planned);
  // Same shape, any batch size: warm. Different shape or config: cold.
  const planner::ProblemDesc other_batch{Op::qr, 8, 8, 7,
                                         planner::Dtype::f32};
  EXPECT_TRUE(pl.cache().warm(other_batch, fp));
  const planner::ProblemDesc other_shape{Op::qr, 12, 12, 64,
                                         planner::Dtype::f32};
  EXPECT_FALSE(pl.cache().warm(other_shape, fp));
  auto smaller = cfg;
  smaller.num_sm = 7;
  EXPECT_FALSE(pl.cache().warm(
      planned, planner::Planner::config_fingerprint(smaller)));
}

TEST(FleetCache, WarmSurvivesUntilLastBatchVariantEvicts) {
  planner::PlanCache cache(2);
  planner::PlanCache::Key k1, k2, k3;
  k1.desc = {Op::qr, 8, 8, 16, planner::Dtype::f32};
  k2.desc = {Op::qr, 8, 8, 32, planner::Dtype::f32};  // same shape, new batch
  k3.desc = {Op::lu, 6, 6, 16, planner::Dtype::f32};
  k1.fingerprint = k2.fingerprint = k3.fingerprint = 42;
  cache.insert(k1, planner::Plan{});
  cache.insert(k2, planner::Plan{});
  EXPECT_TRUE(cache.warm(k1.desc, 42));
  // k3 evicts k1 (LRU), but the 8x8 shape stays warm through k2...
  cache.insert(k3, planner::Plan{});
  EXPECT_TRUE(cache.warm(k1.desc, 42));
  // ...until the last 8x8 entry is evicted too.
  planner::PlanCache::Key k4;
  k4.desc = {Op::lu, 10, 10, 16, planner::Dtype::f32};
  k4.fingerprint = 42;
  cache.insert(k4, planner::Plan{});
  EXPECT_FALSE(cache.warm(k1.desc, 42));
  EXPECT_TRUE(cache.warm(k3.desc, 42));
}

// --- Fleet unit ------------------------------------------------------------

fleet::Fleet::Options two_device_options() {
  fleet::Fleet::Options opt;
  opt.devices = {DeviceSpec{"a", simt::DeviceConfig::quadro6000(), 1},
                 DeviceSpec{"b", simt::DeviceConfig::quadro6000(), 1}};
  opt.host_threads_per_stream = 1;
  return opt;
}

const planner::ProblemDesc kDesc{Op::qr, 8, 8, 16, planner::Dtype::f32};

TEST(FleetUnit, AcquireSpreadsAcrossDevices) {
  fleet::Fleet f(two_device_options());
  auto l1 = f.acquire(kDesc);
  auto l2 = f.acquire(kDesc);
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
    auto l = f.acquire(kDesc, /*exclude=*/1ull << 0);
    ASSERT_TRUE(l);
    EXPECT_EQ(l->device_id(), 1);
  }
  // Everything excluded: no eligible device at all.
  EXPECT_FALSE(f.acquire(kDesc, 0b11));
  EXPECT_EQ(f.stats().no_device, 1u);
}

TEST(FleetUnit, DrainStopsRoutingRemoveDestroysStreams) {
  fleet::Fleet f(two_device_options());
  f.drain(0);
  EXPECT_EQ(f.active_devices(), 1);
  for (int i = 0; i < 3; ++i) {
    auto l = f.acquire(kDesc);
    ASSERT_TRUE(l);
    EXPECT_EQ(l->device_id(), 1);
  }
  f.remove(0);
  EXPECT_EQ(f.device_stats(0).state, DeviceState::removed);
  EXPECT_EQ(f.device_stats(0).streams, 0);
  EXPECT_EQ(f.total_streams(), 1);
  f.remove(1);
  EXPECT_FALSE(f.acquire(kDesc));
}

TEST(FleetUnit, KillFlagsTheLease) {
  fleet::Fleet f(two_device_options());
  auto l = f.acquire(kDesc, /*exclude=*/1ull << 1);  // pin to device 0
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
  auto l0 = f.acquire(kDesc);
  auto l1 = f.acquire(kDesc);
  ASSERT_TRUE(l0 && l1);
  EXPECT_NE(l0->device_id(), l1->device_id());
  EXPECT_EQ(f.device_stats(1).name, "late");
}

TEST(FleetUnit, ExhaustedEpisodesOpenAndSuccessCloses) {
  fleet::Fleet::Options opt = two_device_options();
  opt.circuit_break_after = 2;
  opt.circuit_cooldown = 10s;  // stays open unless a success closes it
  fleet::Fleet f(std::move(opt));
  auto l = f.acquire(kDesc, 1ull << 1);
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
  opt.host_threads_per_stream = 1;
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
  opt.host_threads_per_stream = 1;
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
  opt.host_threads_per_stream = 1;
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
