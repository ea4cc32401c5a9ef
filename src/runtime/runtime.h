// regla::runtime::Runtime — the async batched-solve serving layer.
//
// The paper's premise is that register-resident kernels only pay off when
// amortized over large batches, but real traffic arrives as many independent
// callers each submitting a handful of small problems. The Runtime closes
// that gap: submissions are coalesced into per-signature queues keyed by
// (op, m, n, dtype, solve options), and a queue flushes to the device when
// it has collected the planner's model-preferred batch (one full launch
// wave, Plan::concurrent) or when the oldest request's deadline
// (max_batch_delay) expires — whichever comes first. Flushed batches are
// placed on a fleet of devices (fleet/fleet.h): each fleet member owns its
// worker streams (a Device + Solver per stream; every stream shares one
// planner, so a signature planned anywhere is a plan-cache hit everywhere),
// the router picks the member by queue depth / plan-cache affinity /
// circuit state, and per-problem results scatter back to each submitter's
// future. Devices can be added, drained, removed, or die mid-traffic; a
// batch whose device fails re-routes to a healthy sibling before the CPU
// fallback kicks in.
//
//   runtime::Runtime rt;
//   BatchF a(4, 32, 32);  // four 32x32 problems from this caller
//   fill(a);
//   auto fut = rt.submit(planner::Op::qr, std::move(a));
//   ...                   // other callers submit concurrently
//   runtime::Report r = fut.get();  // r.a holds the factors; r.report stats
//
// Backpressure: every queue is bounded (max_queue_problems). submit() blocks
// until there is room; try_submit() fails fast with nullopt. An exception
// while executing a coalesced batch does not poison its neighbors: the batch
// is re-run one request at a time and only the offending request's future
// carries the exception.
//
// Health: each Runtime registers its obs instruments (obs/metrics.h) once,
// at construction, under its own label "rt=<n>" (metric_labels(); n counts
// Runtime constructions in the process), and counts every event in exactly
// one of them: "runtime.requests{rt=n}", "runtime.flushes{rt=n,reason=...}",
// the "runtime.batch_problems{rt=n}" and "runtime.latency_us{rt=n}"
// histograms, and so on. Runtime::stats() is a view computed from those
// instruments (plus the arena's own accounting), so a stats() snapshot and
// an obs dump never disagree, and two Runtimes never mix their numbers. With
// obs::trace_start() active, every submission and flush also lands on the
// process trace timeline (runtime.submit / runtime.queue-wait /
// runtime.flush / runtime.execute spans — see DESIGN.md §9).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cpu/thread_pool.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "planner/op_traits.h"
#include "planner/solver.h"
#include "runtime/arena.h"
#include "runtime/errors.h"
#include "runtime/timer_wheel.h"

namespace regla::runtime {

using Clock = std::chrono::steady_clock;

/// Why a queue was pushed to the workers.
enum class FlushReason : std::uint8_t { size = 0, deadline, manual, shutdown };
inline constexpr int kNumFlushReasons = 4;

inline const char* to_string(FlushReason r) {
  switch (r) {
    case FlushReason::size: return "size";
    case FlushReason::deadline: return "deadline";
    case FlushReason::manual: return "manual";
    case FlushReason::shutdown: return "shutdown";
  }
  return "?";
}

/// The coalescing key: requests merge into one device batch only when every
/// field matches (same kernel family, same shapes, same solve options).
/// Under ragged coalescing (RuntimeOptions::ragged) m/n are the padded tile
/// from planner::ragged_tile and `ragged` is set: mixed submitted shapes
/// that bucket to the same tile share one queue and one launch.
struct Signature {
  planner::Op op = planner::Op::qr;
  int m = 0;
  int n = 0;
  planner::Dtype dtype = planner::Dtype::f32;
  int threads = 0;               ///< SolveOptions::threads (0 = planner's)
  core::Layout layout = core::Layout::cyclic2d;
  bool ragged = false;           ///< m/n are a ragged bucket tile, not exact

  bool operator==(const Signature&) const = default;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const;
};

/// What a submitter's future resolves to: the coalesced launch's SolveReport
/// specialized to this request (not_solved is sliced to the request's own
/// problems) plus the solved data, moved back out.
struct Report : SolveReport {
  FlushReason flush = FlushReason::size;
  int coalesced_problems = 0;  ///< device-batch size this request rode in
  int coalesced_requests = 0;  ///< submissions merged into that batch
  double queue_seconds = 0;    ///< submit -> flush start
  /// Device launch attempts the producing solve retried through (0 = first
  /// attempt succeeded). Batch-level: every rider of the batch sees it.
  int retries = 0;
  /// The result came from the cpu:: solvers (graceful degradation after the
  /// device stream was circuit-broken or retries were exhausted).
  bool solved_on_cpu = false;
  /// Fleet device the producing solve ran on (-1 / empty when the solve
  /// never held a device lease — the no-device cpu path).
  int device_id = -1;
  std::string device;
  /// The batch rode a ragged bucket (mixed shapes padded to one tile).
  bool ragged = false;
  BatchF a;                    ///< the request's matrices, results in place
  BatchF b;                    ///< rhs / solutions (solve and least-squares)
  BatchC ca;                   ///< complex payload (c64 QR submissions)
};

/// Per-request submission knobs (the coalescing key fields live in
/// core::SolveOptions; these do not affect which batch a request joins).
struct SubmitOptions {
  core::SolveOptions solve;
  /// Completion deadline, measured from submit(). Zero inherits
  /// RuntimeOptions::default_deadline; if that is zero too, no deadline.
  /// Enforced end to end: a request past its deadline resolves with
  /// DeadlineExceeded — in the queue, before execution, or at delivery —
  /// never with a silently late Report.
  std::chrono::microseconds deadline{0};
};

struct RuntimeOptions {
  /// The fleet: every entry is a device (heterogeneous configs allowed) with
  /// its own worker streams; coalesced batches are routed across them by
  /// queue depth, plan-cache affinity, and circuit state (fleet/router.h).
  /// Each entry is used as given. Empty = one quadro6000 member named "dev0"
  /// with Runtime::kDefaultStreams streams. Streams own no host threads:
  /// every stream simulates its blocks on the one process-wide pool
  /// (fleet::Stream), so a stream with a full launch wave uses whatever
  /// cores its siblings leave idle.
  std::vector<fleet::DeviceSpec> devices;
  /// Placement policy knobs for the fleet router.
  fleet::RouterOptions router;
  /// How long the oldest request in a queue may wait before the queue is
  /// flushed below the model-preferred size. Zero disables coalescing:
  /// every submission flushes immediately (the bench's baseline mode).
  std::chrono::microseconds max_batch_delay{500};
  /// Bound on problems pending per signature queue — the backpressure knob.
  std::size_t max_queue_problems = 4096;
  /// Cap on one coalesced device batch (whole requests; a single oversized
  /// request still flushes alone).
  int max_flush_problems = 2048;
  /// Flush once a queue holds this many launch waves of the planned kernel
  /// (target batch = target_waves * Plan::concurrent, capped by
  /// max_flush_problems).
  int target_waves = 1;
  /// Timer wheel slot width for deadline tracking.
  std::chrono::microseconds timer_granularity{100};
  std::size_t timer_slots = 256;
  /// Replay memoization on the stream devices (fleet::FleetOptions::replay,
  /// simt/replay.h): per launch shape, simulate representative blocks and
  /// replay their cycle accounting for the rest. Timing-exact for the
  /// data-independent ops the runtime serves (REGLA_REPLAY_VERIFY=1
  /// re-simulates and asserts it); false = full simulation per block.
  bool replay = true;
  /// Options for the shared planner. Autotune must stay off (measuring
  /// through a shared planner would race across worker devices).
  planner::PlannerOptions planner;
  /// Test/instrumentation hook: when set, replaces the Solver call for f32
  /// batches. Receives the assembled device batch; may throw (fault
  /// injection) — the runtime's isolation retry then re-runs per request.
  std::function<SolveReport(const Signature&, BatchF& a, BatchF& b)>
      solve_override;

  // --- Resilience (all off by default: zero overhead, legacy behavior) ----
  /// Device attempts per solve beyond the first for transient launch
  /// failures (simt::TransientLaunchFailure). 0 disables retry; any other
  /// exception type is never retried.
  int max_retries = 0;
  /// Exponential backoff before retry k sleeps retry_backoff * 2^k, capped.
  std::chrono::microseconds retry_backoff{50};
  std::chrono::microseconds retry_backoff_cap{5000};
  /// Consecutive exhausted-retry episodes that open a device's circuit
  /// breaker, and how long it stays open (the router then avoids the device
  /// while any sibling's breaker is closed).
  int circuit_break_after = 2;
  std::chrono::milliseconds circuit_cooldown{50};
  /// Graceful degradation: when retries are exhausted the batch first tries
  /// to re-route to a different fleet device; only when no other device is
  /// available (or the whole fleet is circuit-open) does it solve on the
  /// op's registered cpu reference entry instead of failing the futures. Numerics agree with the device path;
  /// the cpu entries mirror each op's contract (least-squares lands x in b,
  /// cholesky/trsm flag not_solved; the elimination drivers still throw on a
  /// zero pivot rather than flagging).
  bool cpu_fallback = false;
  /// Admission control: when a signature queue is full, resolve the new
  /// request's future with QueueSaturated instead of blocking the
  /// submitter. try_submit is unaffected (still returns nullopt).
  bool shed_on_saturation = false;
  /// Deadline applied to requests that do not carry their own
  /// (SubmitOptions::deadline). Zero = none.
  std::chrono::microseconds default_deadline{0};
  /// Ragged coalescing: f32 submissions of a raggable op bucket by the
  /// padded tile planner::ragged_tile picks instead of their exact shape, so
  /// mixed m x n traffic shares launches (each problem is embedded top-left
  /// in a zero/identity-padded tile; results come back at the submitted
  /// shape). Off = signature-pure coalescing, the legacy behavior.
  bool ragged = false;
};

/// Cumulative counters of one Runtime: a snapshot computed by
/// Runtime::stats() from that Runtime's "runtime.*{rt=<n>}" obs instruments.
struct RuntimeStats {
  std::uint64_t requests = 0;           ///< accepted submissions
  std::uint64_t problems = 0;           ///< accepted problems
  std::uint64_t rejected = 0;           ///< try_submit queue-full failures
  std::uint64_t batches = 0;            ///< device batches executed
  std::uint64_t coalesced_problems = 0; ///< problems through those batches
  std::uint64_t flushes[kNumFlushReasons] = {};
  std::uint64_t isolation_retries = 0;  ///< requests re-run solo after a batch exception
  std::uint64_t failed_requests = 0;    ///< futures resolved with an exception
                                        ///< (typed resilience errors included)
  // Resilience accounting. Every future issued resolves exactly once, so
  //   futures issued == fulfilled + failed_requests
  // always holds; `shed` and `deadline_exceeded` are the typed subsets of
  // failed_requests (QueueSaturated / DeadlineExceeded), and whatever
  // remains failed with an untyped solve exception. `requests` keeps its
  // meaning of queue-admitted submissions: shed futures (and blocking
  // submits whose deadline expired waiting for space) were never admitted.
  std::uint64_t fulfilled = 0;          ///< futures resolved with a Report
  std::uint64_t retries = 0;            ///< device launch attempts retried
  std::uint64_t shed = 0;               ///< futures failed QueueSaturated at admission
  std::uint64_t deadline_exceeded = 0;  ///< futures failed DeadlineExceeded
  std::uint64_t fallback_cpu = 0;       ///< solves degraded to the cpu:: path
  std::uint64_t circuit_opens = 0;      ///< device circuit-breaker trips
  std::uint64_t reroutes = 0;           ///< batches moved to a sibling device
                                        ///< after exhausting retries on one
  std::uint64_t no_device = 0;          ///< batches that found no routable
                                        ///< device (all drained/removed)
  /// Simulated device time consumed by executed batches (the launches'
  /// SolveReport::seconds summed) — the device-side cost coalescing
  /// amortizes, independent of how fast the host simulates it.
  double device_seconds = 0;

  // Payload-path accounting (the zero-copy story). payload_allocs /
  // payload_reuses are snapshots of the arena's slab mallocs and free-list
  // hits: steady state must lease without allocating, so allocs flatten
  // after warm-up (the CI alloc-budget gate enforces it). The batch-mode
  // counts partition `batches` (plus execute_no_device batches, which
  // assemble nothing).
  std::uint64_t payload_allocs = 0;       ///< arena slab mallocs (cumulative)
  std::uint64_t payload_reuses = 0;       ///< arena free-list hits
  std::uint64_t payload_bytes_copied = 0; ///< gather/scatter/pad memcpy bytes
  std::uint64_t view_batches = 0;         ///< zero-copy batches (in-place or
                                          ///< adjacent-lease view concat)
  std::uint64_t staged_batches = 0;       ///< arena-staged gather/scatter
  std::uint64_t ragged_batches = 0;       ///< batches from ragged buckets

  double mean_batch() const {
    return batches > 0
               ? static_cast<double>(coalesced_problems) / static_cast<double>(batches)
               : 0;
  }
  std::uint64_t flushed(FlushReason r) const {
    return flushes[static_cast<int>(r)];
  }
  /// Submit->complete latency quantiles of "runtime.latency_us{rt=<n>}" at
  /// snapshot time; resolution is one sqrt(2) histogram bucket (~±19%).
  double p50_ms() const { return p50_ms_; }
  double p99_ms() const { return p99_ms_; }

 private:
  friend class Runtime;
  double p50_ms_ = 0;
  double p99_ms_ = 0;
};

class Runtime {
 public:
  using Options = RuntimeOptions;

  /// Worker streams of the fleet's one member when RuntimeOptions::devices
  /// is empty.
  static constexpr int kDefaultStreams = 2;

  explicit Runtime(Options opt = {});
  ~Runtime();  ///< shutdown(): drains pending work, joins all threads

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submit `a` (and rhs `b` where the op takes one) for asynchronous
  /// solution; a.count() may be any small batch >= 1. Blocks while the
  /// signature's queue is full. The payload is moved in and returned inside
  /// the future's Report with results written in place:
  ///   qr            factors in a (taus are not retained), b unused
  ///   lu            factors in a, b unused
  ///   solve_qr/gj   solutions overwrite b (n x 1 per problem)
  ///   least_squares x in the first n entries of each b (m x 1 per problem)
  std::future<Report> submit(planner::Op op, BatchF a, BatchF b = {},
                             const core::SolveOptions& opts = {});

  /// Complex QR (the §VII STAP signature).
  std::future<Report> submit(planner::Op op, BatchC a,
                             const core::SolveOptions& opts = {});

  /// Per-request control (deadline); the SubmitOptions forms of the above.
  std::future<Report> submit(planner::Op op, BatchF a, BatchF b,
                             const SubmitOptions& sopts);
  std::future<Report> submit(planner::Op op, BatchC a,
                             const SubmitOptions& sopts);

  /// Like submit() but never blocks: nullopt when the queue is full.
  std::optional<std::future<Report>> try_submit(
      planner::Op op, BatchF a, BatchF b = {},
      const core::SolveOptions& opts = {});

  /// Push every pending queue to the workers now, regardless of size.
  void flush();
  /// Block until every flushed batch has finished executing (pending queues
  /// that have not reached a flush condition are NOT waited for).
  void wait_idle();
  /// Flush everything, drain the workers, stop the dispatcher. Idempotent;
  /// further submissions throw. Called by the destructor.
  void shutdown();

  /// Computed from this Runtime's obs instruments (atomic reads) and the
  /// arena's stats; safe to call concurrently with traffic.
  RuntimeStats stats() const;
  /// The label every obs instrument of this Runtime carries: "rt=<n>".
  const std::string& metric_labels() const { return labels_; }
  std::shared_ptr<planner::Planner> planner() const { return planner_; }
  const Options& options() const { return opt_; }

  /// The device fleet batches are routed over (stats, metrics, lifecycle).
  fleet::Fleet& fleet() { return *fleet_; }
  const fleet::Fleet& fleet() const { return *fleet_; }
  /// Lifecycle conveniences, forwarded to the fleet. Added streams share the
  /// existing worker-thread pool, which is provisioned with spare threads
  /// (kSpareStreamWorkers) so a device added under load gains real
  /// concurrency, not just a queue position.
  int add_device(fleet::DeviceSpec spec) {
    return fleet_->add_device(std::move(spec));
  }
  void drain_device(int id) { fleet_->drain(id); }
  void remove_device(int id) { fleet_->remove(id); }
  void kill_device(int id) { fleet_->kill(id); }

  /// The model-preferred flush size for a signature (target_waves full
  /// launch waves of the planned kernel), as the queues use it.
  int preferred_batch(const Signature& sig) const;

  /// The payload arena. Submitters may lease request buffers here
  /// (lease_f32 / lease_c64 return zero-filled borrowed batches), write
  /// problems in place, and submit as usual: back-to-back leases come back
  /// address-adjacent, so a flush of such requests concatenates their
  /// payloads into the device batch as a *view* — zero copies end to end
  /// (resilience off; retries need a staged epoch to restore from). Results
  /// ride the same block back inside Report::a/b, releasing it when the
  /// Report is dropped.
  Arena& arena() { return *arena_; }
  BatchF lease_f32(int count, int rows, int cols) {
    return arena_->batch_f32(count, rows, cols);
  }
  BatchC lease_c64(int count, int rows, int cols) {
    return arena_->batch_c64(count, rows, cols);
  }

 private:
  /// One submission's matrices. Exactly one of {a, ca} is populated.
  struct Payload {
    BatchF a, b;
    BatchC ca;
    bool is_complex = false;
    /// ops::Call::embedding of a ragged batch padded to its tile (0 = none).
    std::uint64_t embedding = 0;
    int problems() const { return is_complex ? ca.count() : a.count(); }
  };
  struct Pending {
    Payload payload;
    std::promise<Report> promise;
    Clock::time_point enqueued;
    /// Absolute completion deadline; time_point::max() = none.
    Clock::time_point deadline = Clock::time_point::max();
  };
  struct Queue {
    Signature sig;
    std::deque<Pending> pending;
    int pending_problems = 0;
    int target = 0;            ///< model-preferred flush size
    std::uint64_t timer_id = 0;  ///< armed wheel timer, 0 = none
    Clock::time_point timer_deadline{};  ///< deadline the armed timer tracks
    int space_waiters = 0;     ///< submitters blocked on backpressure
    /// Earliest per-request deadline among pending (max() = none). Updated
    /// incrementally on push and reset when the queue drains; after a
    /// partial flush it may be stale-early, which only costs an early
    /// deadline-reason flush, never a late one.
    Clock::time_point min_deadline = Clock::time_point::max();
  };
  struct Batch {
    Signature sig;
    std::vector<Pending> requests;
    int problems = 0;
    FlushReason reason = FlushReason::size;
  };

  /// How a batch's device-facing payload was built. `view`: the payload
  /// borrows the submitters' own memory (a single request solved in place,
  /// or adjacent arena leases concatenated) — zero copies, results land
  /// where the callers already hold them. `staged`: problems are gathered
  /// into arena-leased staging blocks (padded to the tile for ragged
  /// buckets) and scattered back on success; the submitters' buffers stay
  /// pristine until then, which is what makes retry restore a re-gather
  /// instead of an eagerly allocated snapshot (CoW epochs: request buffers
  /// are epoch 0, staging is the working epoch, scatter is the commit).
  enum class AssemblyMode : std::uint8_t { view, staged };
  struct Assembled {
    Payload payload;             ///< what the solver sees (borrowed storage)
    AssemblyMode mode = AssemblyMode::view;
    Arena::Lease a_block, b_block;  ///< staging storage (staged mode)
    bool padded = false;         ///< any problem embedded below tile dims
  };
  /// Pick the assembly mode for `batch` and build the device payload
  /// (gathering into staging when zero-copy is not available).
  Assembled assemble(Batch& batch);
  /// (Re)fill the staging payload from the requests' pristine buffers.
  void gather(const Batch& batch, Assembled& as);
  /// Copy staged results back into the requests' buffers (view = no-op).
  void scatter(const Assembled& as, Batch& batch);
  /// Resilience on means every batch stages (a retry must be able to
  /// restore the working payload from the submitters' pristine epoch).
  bool resilient() const {
    return opt_.max_retries > 0 || opt_.cpu_fallback;
  }
  /// Map sig to its ragged bucket tile when ragged coalescing applies.
  void apply_ragged(planner::Op op, const BatchF& a, Signature& sig) const;

  std::future<Report> enqueue(const Signature& sig, Payload payload,
                              bool blocking, bool* rejected,
                              std::chrono::microseconds deadline = {});
  /// Pop whole requests from `q` up to the flush cap (requires mu_ held).
  Batch take_batch(Queue& q, FlushReason reason);
  /// Re-arm or cancel q's deadline timer after a mutation (requires mu_).
  void update_timer(Queue& q);
  void launch(Batch&& batch);
  void execute(Batch& batch);
  /// The no-routable-device path: every eligible fleet member is drained or
  /// removed. Solves per request on the cpu entries when cpu_fallback is on,
  /// otherwise fails the futures with NoDeviceAvailable.
  void execute_no_device(Batch& batch, Clock::time_point started);
  SolveReport solve_one(fleet::Stream& s, const Signature& sig, Payload& p);
  /// What a resilient solve did beyond producing the report.
  struct SolveOutcome {
    int retries = 0;
    bool on_cpu = false;
    int device_id = -1;
    std::string device;
  };
  /// solve_one wrapped in the resilience policy: bounded backoff retry on
  /// TransientLaunchFailure; on exhaustion the per-device circuit breaker
  /// advances and the batch re-routes to a different fleet device (the lease
  /// is swapped in place), then — out of devices — degrades to the optional
  /// CPU fallback. Throws only when the policy is out of options. `restore`
  /// re-pristines `p` before a retry (a staged batch re-gathers from the
  /// submitters' buffers); may be empty when the policy cannot retry.
  SolveReport solve_resilient(fleet::Lease& lease, const Signature& sig,
                              Payload& p, SolveOutcome& outcome,
                              const std::function<void()>& restore);
  /// solve_resilient for a lone request payload (the isolation and re-run
  /// paths): takes a lazy pristine snapshot only when resilience is on.
  SolveReport solve_solo(fleet::Lease& lease, const Signature& sig,
                         Payload& p, SolveOutcome& outcome);
  /// Graceful degradation: the same contract as solve_one, on the cpu::
  /// solvers over the process-wide host pool (with or without a lease).
  SolveReport solve_cpu(const Signature& sig, Payload& p);
  /// Resolve a request's future with `error` unless another path already
  /// resolved it; a delivered failure records its latency and counts in
  /// failed_requests. Returns whether it was delivered.
  bool fail(Pending& req, std::exception_ptr error);
  /// fail() with DeadlineExceeded, counted in deadline_exceeded too.
  void fail_deadline(Pending& req);
  void fulfill(Pending& req, const SolveReport& batch_report,
               const Batch& batch, int offset, Clock::time_point started,
               const SolveOutcome& outcome);
  void dispatcher_loop();
  /// `as` describes how the batch's payload was assembled (null for the
  /// no-device path, which assembles nothing).
  void record_batch_stats(const Batch& batch, double device_seconds,
                          const Assembled* as = nullptr);
  void record_latency(Clock::time_point enqueued);

  /// Spare pool threads beyond the initial stream count, so devices added
  /// under load (up to this many extra streams) gain real concurrency.
  static constexpr int kSpareStreamWorkers = 4;

  /// This Runtime's telemetry: obs instruments looked up once, under
  /// labels_, and updated lock-free. Each RuntimeStats quantity lives in
  /// exactly one of them (batches and coalesced_problems are the count and
  /// the sum of batch_problems).
  struct Metrics {
    explicit Metrics(const std::string& labels);
    obs::Counter &requests, &problems, &rejected, &isolation_retries,
        &failed_requests, &fulfilled, &retries, &shed, &deadline_exceeded,
        &fallback_cpu, &circuit_opens, &reroutes, &no_device,
        &payload_bytes_copied, &view_batches, &staged_batches,
        &ragged_batches;
    obs::Counter* flushes[kNumFlushReasons];  ///< reason=<to_string(r)>
    obs::Histogram &batch_problems, &latency_us;
    obs::Gauge& device_seconds;  ///< accumulated with add()
  };

  Options opt_;
  std::string labels_;  ///< "rt=<n>"
  Metrics m_;
  std::shared_ptr<planner::Planner> planner_;
  /// Payload slabs (staging + client leases). Declared before the fleet and
  /// pool so any straggler lease embedded in an undelivered Report still
  /// holds the shared arena State; the arena handle itself may die first.
  std::unique_ptr<Arena> arena_;
  /// Declared before pool_: pool jobs reference the fleet, so the pool must
  /// drain and join first when the Runtime is destroyed.
  std::unique_ptr<fleet::Fleet> fleet_;
  std::unique_ptr<cpu::ThreadPool> pool_;

  mutable std::mutex mu_;  ///< queues, wheel, inflight, closed
  std::unordered_map<Signature, Queue, SignatureHash> queues_;
  TimerWheel wheel_;
  std::unordered_map<std::uint64_t, Signature> timer_owner_;
  std::uint64_t next_timer_id_ = 1;
  int inflight_ = 0;
  bool closed_ = false;
  bool dispatcher_stop_ = false;
  std::condition_variable cv_space_;     ///< backpressure waiters
  std::condition_variable cv_idle_;      ///< wait_idle / shutdown drain
  std::condition_variable cv_dispatch_;  ///< dispatcher timer wakeups

  std::thread dispatcher_;
};

}  // namespace regla::runtime
