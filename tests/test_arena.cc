// The payload arena and the staged serving path built on it.
//
// Arena.* pin the slab manager itself: exact-size free-list recycling
// (steady state leases without allocating — the CI alloc-budget claim),
// segment alignment, lease lifetime beyond the Arena handle, and
// lease/release races (TSan). RuntimeArena.* drive the runtime's one
// assembly path through the solve_override hook: arena-staged gather in
// steady state, and copy-on-write epoch isolation across retries and solo
// re-runs, client leases included. RuntimeRagged.* cover mixed-shape
// coalescing: bucket keys, padding correctness against the cpu oracle per
// sub-problem, and result slicing back to the submitted shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/generators.h"
#include "cpu/thread_pool.h"
#include "ops/registry.h"
#include "planner/op_traits.h"
#include "runtime/arena.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace regla {
namespace {

using namespace std::chrono_literals;
using planner::Op;
using runtime::Arena;
using runtime::Report;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::Signature;

// --- Arena -----------------------------------------------------------------

TEST(Arena, SteadyStateLeasesWithoutAllocating) {
  Arena arena;
  const std::size_t bytes = 4096;
  {
    Arena::Lease warm = arena.lease(bytes);
    ASSERT_TRUE(warm);
  }
  const auto warm_stats = arena.stats();
  EXPECT_GE(warm_stats.slab_allocs, 1u);
  // Steady state: every further lease of the class is a free-list hit.
  for (int i = 0; i < 1000; ++i) {
    Arena::Lease l = arena.lease(bytes);
    ASSERT_TRUE(l);
    l.data()[0] = std::byte{0x5a};  // the block must be writable
  }
  const auto st = arena.stats();
  EXPECT_EQ(st.slab_allocs, warm_stats.slab_allocs);
  EXPECT_GE(st.reuses, 1000u);
  EXPECT_EQ(st.bytes_leased, 0u);  // everything returned
}

// Every block, fresh or recycled, starts on a 128-byte (simulated DRAM
// segment) boundary and spans whole segments: replay's alignment classes
// key on where a payload starts.
TEST(Arena, LeasesAreSegmentAligned) {
  Arena arena;
  for (int round = 0; round < 2; ++round) {  // fresh slabs, then recycled
    std::vector<Arena::Lease> held;
    for (const std::size_t bytes : {1, 100, 1024, 1024, 1024, 5000})
      held.push_back(arena.lease(bytes));
    for (const Arena::Lease& l : held) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(l.data()) % 128, 0u);
      EXPECT_EQ(l.size() % 128, 0u);
    }
  }
  EXPECT_EQ(arena.stats().slab_allocs, 3u);  // one per size class
}

TEST(Arena, LeaseOutlivesArena) {
  Arena::Lease survivor;
  {
    Arena arena;
    survivor = arena.lease(256);
    ASSERT_TRUE(survivor);
  }
  // The shared State (and the slab) must stay alive for the straggler.
  survivor.data()[0] = std::byte{1};
  survivor.data()[survivor.size() - 1] = std::byte{2};
  EXPECT_EQ(survivor.data()[0], std::byte{1});
  survivor.reset();  // release into the orphaned State without crashing
}

TEST(Arena, BorrowedBatchKeepsBlockLeased) {
  Arena arena;
  float* base = nullptr;
  {
    BatchF b = arena.batch_f32(2, 4, 4);
    base = b.data();
    EXPECT_TRUE(b.borrowed());
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], 0.0f);
    b.at(1, 3, 3) = 7.0f;
    // Moving the batch moves the owner handle with it.
    BatchF moved = std::move(b);
    EXPECT_EQ(moved.data(), base);
    EXPECT_EQ(moved.at(1, 3, 3), 7.0f);
    EXPECT_TRUE(moved.borrowed());
    EXPECT_EQ(b.count(), 0);  // moved-from: defaulted, not aliased
    // Copying detaches: a deep owned copy, never a second alias.
    BatchF copy = moved;
    EXPECT_FALSE(copy.borrowed());
    EXPECT_NE(copy.data(), moved.data());
    EXPECT_EQ(copy.at(1, 3, 3), 7.0f);
    EXPECT_EQ(arena.stats().bytes_leased, 128u);  // 2*4*4 floats, one block
  }
  // Batch gone -> block released -> the same address recycles.
  EXPECT_EQ(arena.stats().bytes_leased, 0u);
  BatchF again = arena.batch_f32(2, 4, 4);
  EXPECT_EQ(again.data(), base);
}

TEST(Arena, ConcurrentLeaseReleaseRaces) {
  Arena arena;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&arena, &start, t] {
      while (!start.load()) std::this_thread::yield();
      std::vector<Arena::Lease> held;
      for (int i = 0; i < 200; ++i) {
        Arena::Lease l = arena.lease(256 * (1 + (i + t) % 3));
        l.data()[0] = std::byte{static_cast<unsigned char>(t)};
        if (i % 2 == 0) held.push_back(std::move(l));
        if (held.size() > 8) held.erase(held.begin());
      }
    });
  }
  start.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(arena.stats().bytes_leased, 0u);
}

// --- Ragged tiles ----------------------------------------------------------

TEST(Arena, RaggedTileBucketsAndConstraints) {
  using planner::op_traits;
  using planner::ragged_tile;
  // Square ops stay square on pow2 tiles (min 4).
  const auto& lu = op_traits(Op::lu);
  EXPECT_EQ(ragged_tile(lu, 6, 6).m, 8);
  EXPECT_EQ(ragged_tile(lu, 6, 6).n, 8);
  EXPECT_EQ(ragged_tile(lu, 3, 3).m, 4);
  EXPECT_EQ(ragged_tile(lu, 8, 8).m, 8);
  // Rectangular: M grows until the identity diagonal fits (M-m >= N-n).
  const auto& qr = op_traits(Op::qr);
  EXPECT_EQ(ragged_tile(qr, 7, 5).m, 16);  // up(7)=8 but 8-7 < 8-5
  EXPECT_EQ(ragged_tile(qr, 7, 5).n, 8);
  // Tall-only keeps M > N.
  const auto& ls = op_traits(Op::least_squares);
  const auto t = ragged_tile(ls, 6, 3);
  EXPECT_EQ(t.m, 8);
  EXPECT_EQ(t.n, 4);
  EXPECT_GT(t.m, t.n);
  // Over the register-tile cap: not raggable.
  EXPECT_FALSE(ragged_tile(lu, 100, 100));
  // Invalid shapes: not raggable.
  EXPECT_FALSE(ragged_tile(ls, 4, 4));  // tall-only needs m > n
}

// --- Runtime assembly tiers (override-driven) ------------------------------

constexpr float kPoison = -777.0f;

/// Doubles every element (so scatter offsets are visible) and records the
/// device batch's dims; throws on a problem whose last element is poisoned.
struct ProbeSolver {
  std::atomic<int> rows{0}, cols{0}, problems{0}, calls{0};
  std::atomic<int> failures{0};  ///< TransientLaunchFailures to inject

  RuntimeOptions options() {
    RuntimeOptions opt;
    opt.solve_override = [this](const Signature&, BatchF& a, BatchF& b) {
      calls.fetch_add(1);
      rows.store(a.rows());
      cols.store(a.cols());
      problems.store(a.count());
      // Half-write before a potential throw: proves the runtime restores
      // the working epoch between attempts (re-gather, not snapshot).
      if (a.count() > 0) a.at(0, 0, 0) *= 2.0f;
      if (failures.fetch_sub(1) > 0)
        throw runtime::TransientLaunchFailure("injected by test");
      for (int k = 0; k < a.count(); ++k)
        if (a.at(k, a.rows() - 1, a.cols() - 1) == kPoison)
          throw std::runtime_error("poisoned");
      for (std::size_t i = 1; i < a.size(); ++i) a.data()[i] *= 2.0f;
      for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] *= 2.0f;
      SolveReport r;
      r.nominal_flops = a.count();
      return r;
    };
    return opt;
  }
};

BatchF marked(BatchF a, float mark) {
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = mark;
  return a;
}

// Heap-allocated payloads from independent submitters gather into arena
// staging; once the size classes are warm, no batch allocates.
TEST(RuntimeArena, StagedSteadyStateAllocatesNothing) {
  ProbeSolver probe;
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  const auto cycle = [&] {
    auto f1 = rt.submit(Op::qr, marked(BatchF(2, 8, 8), 1.0f));
    auto f2 = rt.submit(Op::qr, marked(BatchF(2, 8, 8), 2.0f));
    rt.flush();
    EXPECT_FLOAT_EQ(f1.get().a.at(0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(f2.get().a.at(1, 7, 7), 4.0f);
  };
  for (int i = 0; i < 5; ++i) cycle();  // warm the staging size classes
  // payload_allocs is folded live from the arena's atomics and leases happen
  // at assembly time (before the futures resolve), so this read is exact.
  const std::uint64_t warm = rt.stats().payload_allocs;
  for (int i = 0; i < 50; ++i) cycle();
  // The batch-mode counters land after fulfillment, so join the streams
  // before snapshotting — a resolved future does not imply recorded stats.
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.payload_allocs, warm);  // steady state: zero new slabs
  EXPECT_EQ(st.staged_batches, 55u);   // every batch stages
  EXPECT_GE(st.payload_reuses, 35u);
  EXPECT_GT(st.payload_bytes_copied, 0u);
}

// Copy-on-write epochs across retries: the submitters' buffers are the
// pristine epoch; a transient failure re-gathers the staging batch from
// them, so exactly one doubling survives — and nothing was snapshotted.
TEST(RuntimeArena, RetryRestoresStagedEpochByRegather) {
  ProbeSolver probe;
  probe.failures = 2;
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  opt.max_retries = 3;
  opt.retry_backoff = 100us;
  Runtime rt(opt);
  auto f1 = rt.submit(Op::qr, marked(BatchF(2, 8, 8), 3.0f));
  auto f2 = rt.submit(Op::qr, marked(BatchF(2, 8, 8), 5.0f));
  rt.flush();
  Report r1 = f1.get();
  Report r2 = f2.get();
  EXPECT_EQ(r1.retries, 2);
  // A retry of a half-written epoch would show as x4 on the first element.
  EXPECT_FLOAT_EQ(r1.a.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(r1.a.at(1, 7, 7), 6.0f);
  EXPECT_FLOAT_EQ(r2.a.at(0, 0, 0), 10.0f);
  EXPECT_EQ(probe.calls.load(), 3);
  rt.shutdown();
  EXPECT_EQ(rt.stats().retries, 2u);
}

// A failed batch of client leases, resilience off: the coalesced launch
// half-writes its staging and then throws on the poisoned rider. Every
// rider re-runs alone, staged from its own untouched lease, so the good
// ones resolve with exactly one doubling, in their own blocks, and only the
// poisoned one fails.
TEST(RuntimeArena, FailedLeasedBatchIsolatesFromPristineInput) {
  ProbeSolver probe;
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  Runtime rt(opt);
  const float marks[] = {1.0f, kPoison, 3.0f};
  std::vector<const float*> blocks;
  std::vector<std::future<Report>> futs;
  for (const float mark : marks) {
    BatchF a = marked(rt.lease_f32(2, 8, 8), mark);
    blocks.push_back(a.data());
    futs.push_back(rt.submit(Op::qr, std::move(a)));
  }
  rt.flush();
  for (const int i : {0, 2}) {
    Report r = futs[i].get();
    EXPECT_EQ(r.coalesced_requests, 1);  // delivered by its solo re-run
    EXPECT_EQ(r.a.data(), blocks[i]);    // into the client's own lease
    // The batch's half-write doubled rider 0's first element in staging
    // only; a second doubling here would mean it reached the lease.
    EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), 2.0f * marks[i]);
    EXPECT_FLOAT_EQ(r.a.at(1, 7, 7), 2.0f * marks[i]);
  }
  EXPECT_THROW(futs[1].get(), std::runtime_error);
  rt.shutdown();
  EXPECT_EQ(probe.calls.load(), 4);  // the batch, then one run per rider
  const auto st = rt.stats();
  EXPECT_EQ(st.isolation_retries, 3u);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_EQ(st.fulfilled, 2u);
}

// A solo re-run on the isolation path stages the client's leased block like
// any batch: its retry re-gathers from the untouched lease, and the success
// scatter writes the results back into that same block, never a detached
// copy.
TEST(RuntimeArena, SoloRetryRestorePreservesLeasedBlock) {
  ProbeSolver probe;
  probe.failures = 3;  // batch attempt + its retry, then the solo attempt
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  opt.max_retries = 1;
  opt.retry_backoff = 100us;
  Runtime rt(opt);
  BatchF a = marked(rt.lease_f32(2, 8, 8), 3.0f);
  const float* block = a.data();
  auto fut = rt.submit(Op::qr, std::move(a));
  rt.flush();
  Report r = fut.get();
  EXPECT_TRUE(r.a.borrowed());    // still the arena lease, not a detached copy
  EXPECT_EQ(r.a.data(), block);   // results landed in the client's block
  // Exactly one doubling survived: the solo retry restored the half-written
  // first element before the successful attempt.
  EXPECT_FLOAT_EQ(r.a.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(r.a.at(1, 7, 7), 6.0f);
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(probe.calls.load(), 4);
  rt.shutdown();
}

// --- Ragged batches --------------------------------------------------------

// Mixed shapes that bucket to one tile ride one coalesced launch, and every
// result slices back out at its submitted shape.
TEST(RuntimeRagged, MixedShapesShareOneBatch) {
  ProbeSolver probe;
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  opt.ragged = true;
  Runtime rt(opt);
  auto f8 = rt.submit(Op::qr, marked(BatchF(2, 8, 8), 1.0f));
  auto f6 = rt.submit(Op::qr, marked(BatchF(2, 6, 6), 2.0f));
  auto f5 = rt.submit(Op::qr, marked(BatchF(1, 5, 5), 3.0f));
  rt.flush();
  Report r8 = f8.get(), r6 = f6.get(), r5 = f5.get();
  // One batch of 5 problems on the 8x8 tile.
  EXPECT_EQ(probe.problems.load(), 5);
  EXPECT_EQ(probe.rows.load(), 8);
  EXPECT_EQ(probe.cols.load(), 8);
  for (const Report* r : {&r8, &r6, &r5}) {
    EXPECT_TRUE(r->ragged);
    EXPECT_EQ(r->coalesced_requests, 3);
    EXPECT_EQ(r->coalesced_problems, 5);
  }
  // Results kept their submitted shapes, values doubled through the tile.
  EXPECT_EQ(r6.a.rows(), 6);
  EXPECT_FLOAT_EQ(r6.a.at(0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(r6.a.at(1, 5, 5), 4.0f);
  EXPECT_EQ(r5.a.rows(), 5);
  EXPECT_FLOAT_EQ(r5.a.at(0, 4, 4), 6.0f);
  rt.shutdown();
  const auto st = rt.stats();
  EXPECT_EQ(st.ragged_batches, 1u);
  EXPECT_EQ(st.batches, 1u);
}

// The identity-diagonal embedding is exact: solving padded tiles on the
// real device kernels reproduces the cpu oracle's per-problem solutions at
// the submitted shapes.
TEST(RuntimeRagged, PaddedSolveMatchesCpuOraclePerSubProblem) {
  RuntimeOptions opt;
  opt.max_batch_delay = 10s;
  opt.ragged = true;
  Runtime rt(opt);
  cpu::ThreadPool pool(1);
  const int sizes[] = {8, 6, 5, 3};
  std::vector<BatchF> oracle_a, oracle_b;
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 4; ++i) {
    const int n = sizes[i];
    BatchF a(2, n, n), b(2, n, 1);
    fill_diag_dominant(a, 17 + i);
    fill_uniform(b, 33 + i);
    oracle_a.push_back(a);  // deep copies: the oracle's pristine inputs
    oracle_b.push_back(b);
    futs.push_back(rt.submit(Op::solve_qr, std::move(a), std::move(b)));
  }
  rt.flush();
  for (int i = 0; i < 4; ++i) {
    Report r = futs[i].get();
    EXPECT_TRUE(r.ragged);
    // 8/6/5 bucket to the 8x8 tile; 3 rides its own 4x4 bucket.
    EXPECT_EQ(r.coalesced_requests, sizes[i] == 3 ? 1 : 3);
    ops::Call call;
    call.a = &oracle_a[i];
    call.b = &oracle_b[i];
    ops::run_cpu(Op::solve_qr, call, pool);
    const int n = sizes[i];
    for (int k = 0; k < 2; ++k)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(r.b.at(k, row, 0), oracle_b[i].at(k, row, 0), 2e-4f)
            << "n=" << n << " k=" << k << " row=" << row;
  }
  rt.shutdown();
}

// Same exactness through the tall path: ragged least-squares problems of
// mixed m x n match the cpu oracle's solutions.
TEST(RuntimeRagged, PaddedLeastSquaresMatchesCpuOracle) {
  RuntimeOptions opt;
  opt.max_batch_delay = 10s;
  opt.ragged = true;
  Runtime rt(opt);
  cpu::ThreadPool pool(1);
  const int shapes[][2] = {{8, 4}, {6, 3}, {5, 2}};
  std::vector<BatchF> oracle_a, oracle_b;
  std::vector<std::future<Report>> futs;
  for (int i = 0; i < 3; ++i) {
    const int m = shapes[i][0], n = shapes[i][1];
    BatchF a(2, m, n), b(2, m, 1);
    fill_uniform(a, 51 + i);
    fill_uniform(b, 77 + i);
    oracle_a.push_back(a);
    oracle_b.push_back(b);
    futs.push_back(
        rt.submit(Op::least_squares, std::move(a), std::move(b)));
  }
  rt.flush();
  for (int i = 0; i < 3; ++i) {
    Report r = futs[i].get();
    EXPECT_TRUE(r.ragged);
    EXPECT_EQ(r.coalesced_requests, 3);  // (8,4) (6,3) (5,2) -> one 8x4 tile
    ops::Call call;
    call.a = &oracle_a[i];
    call.b = &oracle_b[i];
    ops::run_cpu(Op::least_squares, call, pool);
    const int n = shapes[i][1];
    for (int k = 0; k < 2; ++k)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(r.b.at(k, row, 0), oracle_b[i].at(k, row, 0), 5e-4f)
            << "shape=" << shapes[i][0] << "x" << n << " k=" << k;
  }
  rt.shutdown();
}

// A padded tile folds differently from a dense one of the same dims (QR
// skips the reflectors of identity-padded columns), so replay must not serve
// one's cached accounting to the other: with replay on, every batch reports
// the simulated seconds a full simulation gives. Every batch stages, so
// dense and padded batches share the staging alignment class.
TEST(RuntimeRagged, ReplayKeysOnTheEmbedding) {
  const auto seconds_per_batch = [](bool replay) {
    RuntimeOptions opt;
    opt.devices = {{"dev0", {}, 1}};
    opt.max_batch_delay = 10s;
    opt.ragged = true;
    Runtime rt(opt);
    if (!replay) {
      // The fleet has one stream, so this lease is that stream's. Turn its
      // replay off for the full-simulation baseline, then hand it back
      // before anything is submitted.
      std::optional<fleet::Lease> lease = rt.fleet().acquire();
      simt::Device& dev = lease.value().stream().device();
      dev.set_replay(false);
      // Otherwise the comparison below would be replay against replay.
      EXPECT_FALSE(dev.replay_enabled());
      lease->release();
    }
    std::vector<double> seconds;
    for (const int n : {32, 30, 32, 28, 30}) {
      BatchF a(2, n, n);
      fill_uniform(a, 40 + n);
      auto f = rt.submit(Op::qr, std::move(a));
      rt.flush();
      seconds.push_back(f.get().seconds);
    }
    rt.shutdown();
    return seconds;
  };
  const std::vector<double> replayed = seconds_per_batch(true);
  EXPECT_EQ(replayed, seconds_per_batch(false));
  EXPECT_NE(replayed[0], replayed[1]);  // the padding does change accounting
}

// Ragged staging retries re-gather the padded epoch too: transient failures
// across a mixed batch still converge to exactly-once doubling.
TEST(RuntimeRagged, RetryRegathersPaddedEpoch) {
  ProbeSolver probe;
  probe.failures = 1;
  auto opt = probe.options();
  opt.max_batch_delay = 10s;
  opt.max_retries = 2;
  opt.retry_backoff = 100us;
  opt.ragged = true;
  Runtime rt(opt);
  auto f8 = rt.submit(Op::qr, marked(BatchF(1, 8, 8), 3.0f));
  auto f6 = rt.submit(Op::qr, marked(BatchF(1, 6, 6), 5.0f));
  rt.flush();
  Report r8 = f8.get(), r6 = f6.get();
  EXPECT_EQ(r8.retries, 1);
  EXPECT_FLOAT_EQ(r8.a.at(0, 0, 0), 6.0f);   // one doubling, not two
  EXPECT_FLOAT_EQ(r6.a.at(0, 5, 5), 10.0f);  // padded slice restored clean
  rt.shutdown();
}

}  // namespace
}  // namespace regla
