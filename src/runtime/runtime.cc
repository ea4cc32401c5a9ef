#include "runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "obs/trace.h"
#include "ops/registry.h"
#include "planner/op_traits.h"

namespace regla::runtime {

namespace {

/// "rt=<n>" for the n-th Runtime constructed in this process.
std::string next_runtime_labels() {
  static std::atomic<int> seq{0};
  return "rt=" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Runtime::Metrics::Metrics(const std::string& labels)
    : requests(obs::counter("runtime.requests", labels)),
      problems(obs::counter("runtime.problems", labels)),
      rejected(obs::counter("runtime.rejected", labels)),
      isolation_retries(obs::counter("runtime.isolation_retries", labels)),
      failed_requests(obs::counter("runtime.failed_requests", labels)),
      fulfilled(obs::counter("runtime.fulfilled", labels)),
      retries(obs::counter("runtime.retries", labels)),
      shed(obs::counter("runtime.shed", labels)),
      deadline_exceeded(obs::counter("runtime.deadline_exceeded", labels)),
      fallback_cpu(obs::counter("runtime.fallback_cpu", labels)),
      circuit_opens(obs::counter("runtime.circuit_opens", labels)),
      reroutes(obs::counter("runtime.reroutes", labels)),
      no_device(obs::counter("runtime.no_device", labels)),
      payload_bytes_copied(
          obs::counter("runtime.payload_bytes_copied", labels)),
      view_batches(obs::counter("runtime.view_batches", labels)),
      staged_batches(obs::counter("runtime.staged_batches", labels)),
      ragged_batches(obs::counter("runtime.ragged_batches", labels)),
      batch_problems(obs::histogram("runtime.batch_problems", labels)),
      latency_us(obs::histogram("runtime.latency_us", labels)),
      device_seconds(obs::gauge("runtime.device_seconds", labels)) {
  for (int r = 0; r < kNumFlushReasons; ++r)
    flushes[r] = &obs::counter(
        "runtime.flushes",
        labels + ",reason=" + to_string(static_cast<FlushReason>(r)));
}

std::size_t SignatureHash::operator()(const Signature& s) const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(s.op));
  mix(static_cast<std::uint64_t>(s.m));
  mix(static_cast<std::uint64_t>(s.n));
  mix(static_cast<std::uint64_t>(s.dtype));
  mix(static_cast<std::uint64_t>(s.threads));
  mix(static_cast<std::uint64_t>(s.layout));
  mix(static_cast<std::uint64_t>(s.ragged));
  return static_cast<std::size_t>(h);
}

Runtime::Runtime(Options opt)
    : opt_(std::move(opt)),
      labels_(next_runtime_labels()),
      m_(labels_),
      wheel_(Clock::now(), opt_.timer_granularity <= decltype(opt_.timer_granularity){0}
                               ? std::chrono::microseconds{100}
                               : opt_.timer_granularity,
             std::max<std::size_t>(1, opt_.timer_slots)) {
  REGLA_CHECK_MSG(!opt_.planner.autotune,
                  "runtime streams share one planner; autotune measurement "
                  "would race across their devices — plan without it");
  REGLA_CHECK(opt_.max_flush_problems > 0 && opt_.max_queue_problems > 0);
  opt_.target_waves = std::max(1, opt_.target_waves);
  planner_ = std::make_shared<planner::Planner>(opt_.planner);
  arena_ = std::make_unique<Arena>();

  fleet::Fleet::Options fopt;
  fopt.devices = opt_.devices;
  if (fopt.devices.empty())
    fopt.devices.push_back({"dev0", simt::DeviceConfig{}, kDefaultStreams});
  fopt.router = opt_.router;
  fopt.circuit_break_after = opt_.circuit_break_after;
  fopt.circuit_cooldown = opt_.circuit_cooldown;
  fopt.planner = planner_;
  fopt.replay = opt_.replay;
  fleet_ = std::make_unique<fleet::Fleet>(std::move(fopt));

  // streams + spares + 1 so the pool has one helper thread per stream (the
  // constructing thread only counts for parallel_for) plus headroom for
  // streams added under load via add_device().
  pool_ = std::make_unique<cpu::ThreadPool>(fleet_->total_streams() +
                                            kSpareStreamWorkers + 1);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Runtime::~Runtime() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw; shutdown errors are already reflected in
    // the affected futures.
  }
}

int Runtime::preferred_batch(const Signature& sig) const {
  const planner::ProblemDesc desc{sig.op, sig.m, sig.n,
                                  opt_.max_flush_problems, sig.dtype};
  // Batch targets are computed against the first non-removed device; in a
  // heterogeneous fleet the router may still place the batch elsewhere (the
  // target is a coalescing goal, not a placement promise).
  const planner::Plan plan = planner_->plan(fleet_->primary_config(), desc);
  const long target = static_cast<long>(std::max(1, plan.concurrent)) *
                      opt_.target_waves;
  return static_cast<int>(
      std::clamp<long>(target, 1, opt_.max_flush_problems));
}

// --- Submission ------------------------------------------------------------

namespace {

/// Traits-driven admission: build a probe Call over the payload-to-be and
/// let the registry's validator apply the op's shape/RHS rules.
void validate_f32(planner::Op op, BatchF& a, BatchF& b) {
  ops::Call call;
  call.a = &a;
  if (b.count() > 0) call.b = &b;
  ops::validate(op, call);
}

void validate_c64(planner::Op op, BatchC& a) {
  REGLA_CHECK_MSG(planner::op_traits(op).supports_c64,
                  "no complex kernels for " << planner::to_string(op)
                                            << " (paper §VII covers QR only)");
  ops::Call call;
  call.ca = &a;
  ops::validate(op, call);
}

}  // namespace

void Runtime::apply_ragged(planner::Op op, const BatchF& a,
                           Signature& sig) const {
  if (!opt_.ragged) return;
  // Shape admissibility was already validated at the submitted dims; the
  // tile helper returns {0,0} for shapes/ops the embedding cannot serve
  // (then the request coalesces signature-pure, exactly as before).
  const planner::RaggedTile tile =
      planner::ragged_tile(planner::op_traits(op), a.rows(), a.cols());
  if (!tile) return;
  sig.m = tile.m;
  sig.n = tile.n;
  sig.ragged = true;
}

std::future<Report> Runtime::submit(planner::Op op, BatchF a, BatchF b,
                                    const core::SolveOptions& opts) {
  validate_f32(op, a, b);
  Signature sig{op, a.rows(), a.cols(), planner::Dtype::f32,
                opts.threads, opts.layout};
  apply_ragged(op, a, sig);
  Payload p;
  p.a = std::move(a);
  p.b = std::move(b);
  return enqueue(sig, std::move(p), /*blocking=*/true, nullptr);
}

std::future<Report> Runtime::submit(planner::Op op, BatchC a,
                                    const core::SolveOptions& opts) {
  validate_c64(op, a);
  const Signature sig{op, a.rows(), a.cols(), planner::Dtype::c64,
                      opts.threads, opts.layout};
  Payload p;
  p.ca = std::move(a);
  p.is_complex = true;
  return enqueue(sig, std::move(p), /*blocking=*/true, nullptr);
}

std::future<Report> Runtime::submit(planner::Op op, BatchF a, BatchF b,
                                    const SubmitOptions& sopts) {
  validate_f32(op, a, b);
  Signature sig{op, a.rows(), a.cols(), planner::Dtype::f32,
                sopts.solve.threads, sopts.solve.layout};
  apply_ragged(op, a, sig);
  Payload p;
  p.a = std::move(a);
  p.b = std::move(b);
  return enqueue(sig, std::move(p), /*blocking=*/true, nullptr,
                 sopts.deadline);
}

std::future<Report> Runtime::submit(planner::Op op, BatchC a,
                                    const SubmitOptions& sopts) {
  validate_c64(op, a);
  const Signature sig{op, a.rows(), a.cols(), planner::Dtype::c64,
                      sopts.solve.threads, sopts.solve.layout};
  Payload p;
  p.ca = std::move(a);
  p.is_complex = true;
  return enqueue(sig, std::move(p), /*blocking=*/true, nullptr,
                 sopts.deadline);
}

std::optional<std::future<Report>> Runtime::try_submit(
    planner::Op op, BatchF a, BatchF b, const core::SolveOptions& opts) {
  validate_f32(op, a, b);
  Signature sig{op, a.rows(), a.cols(), planner::Dtype::f32,
                opts.threads, opts.layout};
  apply_ragged(op, a, sig);
  Payload p;
  p.a = std::move(a);
  p.b = std::move(b);
  bool rejected = false;
  auto fut = enqueue(sig, std::move(p), /*blocking=*/false, &rejected);
  if (rejected) return std::nullopt;
  return fut;
}

namespace {

/// A future already resolved with `err` — the admission-failure result.
template <typename E>
std::future<Report> failed_future(E err) {
  std::promise<Report> pr;
  std::future<Report> fut = pr.get_future();
  pr.set_exception(std::make_exception_ptr(std::move(err)));
  return fut;
}

}  // namespace

std::future<Report> Runtime::enqueue(const Signature& sig, Payload payload,
                                     bool blocking, bool* rejected,
                                     std::chrono::microseconds deadline) {
  // Covers queue admission including any backpressure block (the time a
  // submitter spends waiting for space shows on its own thread's track).
  obs::Span span("runtime.submit", "runtime");
  const int k = payload.problems();
  // A request bigger than the whole queue bound could never be admitted —
  // reject it now instead of blocking forever on space that cannot appear.
  REGLA_CHECK_MSG(static_cast<std::size_t>(k) <= opt_.max_queue_problems,
                  "submission larger than max_queue_problems");
  if (deadline.count() == 0) deadline = opt_.default_deadline;
  const Clock::time_point abs_deadline =
      deadline.count() > 0 ? Clock::now() + deadline
                           : Clock::time_point::max();
  std::vector<Batch> ready;
  std::future<Report> fut;
  {
    std::unique_lock<std::mutex> lock(mu_);
    REGLA_CHECK_MSG(!closed_, "runtime is shut down");
    auto it = queues_.find(sig);
    if (it == queues_.end()) {
      // First request of this signature: ask the shared planner what batch
      // fills the chip. REGLA_CHECKs here if no kernel admits the shape, so
      // unsupported signatures fail at submit, not on a worker — and the
      // throw happens before the queue exists, so a rejected signature
      // leaves no zombie entry (whose target=0 would make take_batch spin).
      const int target = preferred_batch(sig);
      it = queues_.try_emplace(sig).first;
      it->second.sig = sig;
      it->second.target = target;
    }
    Queue& q = it->second;
    // Backpressure: bounded pending problems per signature. Three policies
    // on a full queue: fail fast (try_submit), shed with a typed error
    // (shed_on_saturation), or block — at most until the request's own
    // deadline, which a saturated queue must not silently eat.
    while (q.pending_problems + k >
           static_cast<int>(opt_.max_queue_problems)) {
      if (!blocking) {
        *rejected = true;
        m_.rejected.add();
        return {};
      }
      if (opt_.shed_on_saturation) {
        m_.shed.add();
        m_.failed_requests.add();
        return failed_future(QueueSaturated(
            "queue saturated: " + std::to_string(q.pending_problems) +
            " problems pending (bound " +
            std::to_string(opt_.max_queue_problems) + ")"));
      }
      const auto have_space = [&] {
        return closed_ || q.pending_problems + k <=
                              static_cast<int>(opt_.max_queue_problems);
      };
      ++q.space_waiters;
      bool spaced = true;
      if (abs_deadline != Clock::time_point::max())
        spaced = cv_space_.wait_until(lock, abs_deadline, have_space);
      else
        cv_space_.wait(lock, have_space);
      --q.space_waiters;
      if (!spaced) {
        // Deadline passed while blocked on backpressure: the request was
        // never admitted, and it must not resolve late and silently.
        m_.deadline_exceeded.add();
        m_.failed_requests.add();
        return failed_future(DeadlineExceeded(
            "deadline expired while blocked on a saturated queue"));
      }
      REGLA_CHECK_MSG(!closed_,
                      "runtime shut down while a submission was blocked");
    }

    Pending pending;
    pending.payload = std::move(payload);
    pending.enqueued = Clock::now();
    pending.deadline = abs_deadline;
    fut = pending.promise.get_future();
    q.pending.push_back(std::move(pending));
    q.pending_problems += k;
    if (abs_deadline < q.min_deadline) q.min_deadline = abs_deadline;
    m_.requests.add();
    m_.problems.add(static_cast<std::uint64_t>(k));

    if (opt_.max_batch_delay.count() == 0) {
      // Zero delay = no coalescing: the deadline expires on arrival.
      while (!q.pending.empty())
        ready.push_back(take_batch(q, FlushReason::deadline));
    } else {
      while (q.pending_problems >= q.target)
        ready.push_back(take_batch(q, FlushReason::size));
      update_timer(q);
    }
  }
  for (Batch& b : ready) launch(std::move(b));
  return fut;
}

Runtime::Batch Runtime::take_batch(Queue& q, FlushReason reason) {
  Batch batch;
  batch.sig = q.sig;
  batch.reason = reason;
  // Size flushes stop at the model's target; drains (deadline/manual/
  // shutdown) take everything. Both respect the per-launch cap on whole
  // requests — except a single oversized request, which flushes alone.
  // The max(1) keeps a batch making progress even if a target were ever
  // zero, so callers looping on pending_problems cannot spin forever.
  const int goal = std::max(
      1, reason == FlushReason::size ? q.target : q.pending_problems);
  while (!q.pending.empty() && batch.problems < goal) {
    const int k = q.pending.front().payload.problems();
    if (batch.problems > 0 && batch.problems + k > opt_.max_flush_problems)
      break;
    batch.requests.push_back(std::move(q.pending.front()));
    q.pending.pop_front();
    batch.problems += k;
  }
  q.pending_problems -= batch.problems;
  if (q.space_waiters > 0) cv_space_.notify_all();
  update_timer(q);
  return batch;
}

void Runtime::update_timer(Queue& q) {
  if (opt_.max_batch_delay.count() == 0) return;
  if (q.pending.empty()) {
    q.min_deadline = Clock::time_point::max();
    if (q.timer_id != 0) {
      wheel_.cancel(q.timer_id);
      timer_owner_.erase(q.timer_id);
      q.timer_id = 0;
    }
    return;
  }
  // A request whose own deadline lands before the coalescing window closes
  // pulls the flush forward — waiting the full max_batch_delay would hand
  // it to the workers already expired.
  Clock::time_point deadline =
      q.pending.front().enqueued + opt_.max_batch_delay;
  if (q.min_deadline < deadline) deadline = q.min_deadline;
  if (q.timer_id != 0 && q.timer_deadline == deadline) return;
  if (q.timer_id != 0) {
    wheel_.cancel(q.timer_id);
    timer_owner_.erase(q.timer_id);
  }
  q.timer_id = next_timer_id_++;
  q.timer_deadline = deadline;
  timer_owner_[q.timer_id] = q.sig;
  wheel_.arm(q.timer_id, deadline);
  cv_dispatch_.notify_one();
}

void Runtime::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!dispatcher_stop_) {
    const Clock::time_point next = wheel_.next_deadline();
    if (next == Clock::time_point::max()) {
      cv_dispatch_.wait(lock);
    } else {
      const Clock::time_point now = Clock::now();
      if (next > now) cv_dispatch_.wait_until(lock, next);
    }
    if (dispatcher_stop_) break;

    std::vector<Batch> ready;
    for (std::uint64_t id : wheel_.advance(Clock::now())) {
      const auto owner = timer_owner_.find(id);
      if (owner == timer_owner_.end()) continue;
      const Signature sig = owner->second;
      timer_owner_.erase(owner);
      const auto qit = queues_.find(sig);
      if (qit == queues_.end() || qit->second.timer_id != id) continue;
      Queue& q = qit->second;
      q.timer_id = 0;
      while (!q.pending.empty())
        ready.push_back(take_batch(q, FlushReason::deadline));
    }
    if (!ready.empty()) {
      lock.unlock();
      for (Batch& b : ready) launch(std::move(b));
      lock.lock();
    }
  }
}

// --- Execution -------------------------------------------------------------

void Runtime::launch(Batch&& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  // shared_ptr because ThreadPool tasks are std::function (copyable).
  auto shared = std::make_shared<Batch>(std::move(batch));
  pool_->submit([this, shared] {
    // RAII: the pool swallows escaping exceptions, so if execute() ever
    // throws, a bare decrement after it would be skipped and
    // wait_idle()/shutdown() would block forever.
    struct InflightGuard {
      Runtime* rt;
      ~InflightGuard() {
        std::lock_guard<std::mutex> lock(rt->mu_);
        --rt->inflight_;
        rt->cv_idle_.notify_all();
      }
    } guard{this};
    execute(*shared);
  });
}

SolveReport Runtime::solve_one(fleet::Stream& s, const Signature& sig,
                               Payload& p) {
  ops::Call call;
  call.opts.threads = sig.threads;
  call.opts.layout = sig.layout;
  if (p.is_complex) {
    call.ca = &p.ca;
  } else {
    if (opt_.solve_override) return opt_.solve_override(sig, p.a, p.b);
    call.a = &p.a;
    if (p.b.count() > 0) call.b = &p.b;
    call.embedding = p.embedding;
  }
  return s.solver().run(sig.op, call);
}

bool Runtime::fail(Pending& req, std::exception_ptr error) {
  try {
    req.promise.set_exception(std::move(error));
  } catch (const std::future_error&) {
    // Already satisfied on another path (e.g. the coalesced pass fulfilled
    // it before a later fulfill() threw): the requester has its result, and
    // it was already counted.
    return false;
  }
  record_latency(req.enqueued);
  m_.failed_requests.add();
  return true;
}

void Runtime::fail_deadline(Pending& req) {
  if (fail(req, std::make_exception_ptr(DeadlineExceeded(
                    "deadline exceeded before the result could be delivered"))))
    m_.deadline_exceeded.add();
}

SolveReport Runtime::solve_cpu(const Signature& sig, Payload& p) {
  // Graceful degradation: the cpu:: batched drivers, same in-place contract
  // as the device path. Shows on the trace as its own span so a degraded
  // period is visible at a glance.
  obs::Span span("runtime.fallback-cpu", "runtime");
  m_.fallback_cpu.add();
  ops::Call call;
  if (p.is_complex) {
    call.ca = &p.ca;
  } else {
    call.a = &p.a;
    if (p.b.count() > 0) call.b = &p.b;
  }
  // The registered cpu entry mirrors the device op's in-place contract
  // (least-squares lands x in b, cholesky/trsm flag not_solved) and reports
  // host seconds: the degraded path's real cost.
  return ops::run_cpu(sig.op, call, cpu::ThreadPool::global());
}

namespace {

/// Restore element data into a possibly-borrowed destination. Payload /
/// BatchedMatrix copy-assignment would detach a borrowed (arena-leased)
/// batch into an owned one, so a solo retry's results would stop landing in
/// the client's leased block — breaking the documented "results ride the
/// same block back" contract. Copying elements keeps the storage mode.
template <typename T>
void restore_elements(BatchedMatrix<T>& dst, const BatchedMatrix<T>& src) {
  std::copy_n(src.data(), src.size(), dst.data());
}

}  // namespace

SolveReport Runtime::solve_solo(fleet::Lease& lease, const Signature& sig,
                                Payload& p, SolveOutcome& outcome) {
  if (!resilient())
    return solve_resilient(lease, sig, p, outcome, {});
  // A lone payload solved in place: a retry must restore it, and by the
  // time the failure is observed the input may be partially factored — so
  // the snapshot has to be taken up front (the copy snapshots a borrowed
  // payload into owned pristine storage). This only runs on the isolation
  // / re-run paths (a batch already failed), never in steady state, so the
  // allocation does not dent the zero-alloc budget.
  auto snapshot = std::make_shared<Payload>(p);
  return solve_resilient(lease, sig, p, outcome, [&p, snapshot] {
    if (p.is_complex) {
      restore_elements(p.ca, snapshot->ca);
    } else {
      restore_elements(p.a, snapshot->a);
      if (p.b.count() > 0) restore_elements(p.b, snapshot->b);
    }
  });
}

SolveReport Runtime::solve_resilient(fleet::Lease& lease, const Signature& sig,
                                     Payload& p, SolveOutcome& outcome,
                                     const std::function<void()>& restore) {
  outcome.device_id = lease.device_id();
  outcome.device = lease.device_name();
  if (opt_.max_retries <= 0 && !opt_.cpu_fallback) {
    // Resilience off: zero-copy fast path. A killed device still fails its
    // launches — that is what being dead means — and the exception rides the
    // usual isolation path to the futures.
    if (lease.killed())
      throw TransientLaunchFailure("device " + lease.device_name() +
                                   " was killed");
    SolveReport r = solve_one(lease.stream(), sig, p);
    fleet_->record_success(lease, p.problems(), r.seconds);
    return r;
  }

  // Circuit open on every routable device (the router only hands out an
  // open-circuit lease when no closed one exists): skip the device entirely
  // while it cools down.
  if (opt_.cpu_fallback && lease.circuit_open()) {
    outcome.on_cpu = true;
    return solve_cpu(sig, p);
  }

  // A transient failure can abort mid-chain (tiled solves launch several
  // kernels), leaving the working payload partially factored — every retry
  // must restart from pristine input. The pristine epoch lives in the
  // submitters' own buffers (a staged batch never touches them until the
  // success scatter), so `restore` re-gathers into the staging blocks
  // instead of restoring from an eagerly copied snapshot: the bounded-retry
  // path costs zero allocations until a retry actually happens — and zero
  // even then.
  std::uint64_t exclude = 0;
  for (int attempt = 0;;) {
    try {
      if (lease.killed())
        throw TransientLaunchFailure("device " + lease.device_name() +
                                     " was killed");
      SolveReport r = solve_one(lease.stream(), sig, p);
      fleet_->record_success(lease, p.problems(), r.seconds);
      return r;
    } catch (const TransientLaunchFailure&) {
      if (restore) restore();
      if (attempt < opt_.max_retries) {
        outcome.retries = ++attempt;
        m_.retries.add();
        auto backoff = opt_.retry_backoff * (1ll << std::min(attempt - 1, 20));
        if (backoff > opt_.retry_backoff_cap) backoff = opt_.retry_backoff_cap;
        if (backoff.count() > 0) {
          obs::Span wait("runtime.retry-backoff", "runtime");
          std::this_thread::sleep_for(backoff);
        }
        continue;
      }
      // Retries exhausted here: advance this device's breaker, then try to
      // re-route the batch to a different fleet member before degrading.
      if (fleet_->record_exhausted(lease)) m_.circuit_opens.add();
      const int failed_id = lease.device_id();
      if (failed_id >= 0 && failed_id < 64) exclude |= 1ull << failed_id;
      // Release the dead device's stream BEFORE re-acquiring: acquire blocks
      // while eligible siblings are busy, and a waiter that held a stream
      // could deadlock against a sibling waiting the other way.
      lease.release();
      const planner::ProblemDesc desc{sig.op, sig.m, sig.n, p.problems(),
                                      sig.dtype};
      auto next = fleet_->acquire(desc, exclude);
      if (next && !next->circuit_open()) {
        fleet_->record_reroute_away(failed_id);
        lease = std::move(*next);
        outcome.device_id = lease.device_id();
        outcome.device = lease.device_name();
        m_.reroutes.add();
        attempt = 0;  // a fresh device gets the full retry budget
        continue;
      }
      // No healthy sibling: only open-circuit devices remain (degrade while
      // holding that lease, so the Report names the device) or nothing is
      // routable at all (degrade with no device). Either way the cpu solve
      // runs on the process-wide host pool.
      if (opt_.cpu_fallback) {
        outcome.on_cpu = true;
        if (next) {
          lease = std::move(*next);
          outcome.device_id = lease.device_id();
          outcome.device = lease.device_name();
        } else {
          outcome.device_id = -1;
          outcome.device.clear();
        }
        return solve_cpu(sig, p);
      }
      throw;
    }
  }
}

// --- Assembly ---------------------------------------------------------------

namespace {

std::size_t pow2_ceil(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// data()+size() of one batch is exactly the next batch's data(): the spans
/// concatenate into one problem-major slab with no gap. Only borrowed
/// (arena-leased) batches qualify — two independently heap-allocated owned
/// vectors can happen to abut, but they are still separate allocations, and
/// indexing one through a pointer derived from the other is UB even when
/// every per-problem access stays in bounds.
template <typename T>
bool spans_adjacent(const BatchedMatrix<T>& a, const BatchedMatrix<T>& b) {
  return a.borrowed() && b.borrowed() && a.data() + a.size() == b.data();
}

}  // namespace

Runtime::Assembled Runtime::assemble(Batch& batch) {
  const Signature& sig = batch.sig;
  Assembled as;
  if (sig.ragged)
    for (const Pending& req : batch.requests)
      if (req.payload.a.rows() != sig.m || req.payload.a.cols() != sig.n) {
        as.padded = true;
        break;
      }
  if (as.padded) {
    std::uint64_t h = 0;
    for (const Pending& req : batch.requests)
      for (const int v : {req.payload.a.rows(), req.payload.a.cols(),
                          req.payload.a.count()})
        h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
    as.payload.embedding = h | 1;  // never 0, the unpadded value
  }
  // Zero-copy tiers, resilience off only: solving writes straight into the
  // submitters' buffers, which forfeits the pristine epoch a retry restore
  // needs. (Resilient batches always stage — that staging copy is the same
  // gather the coalesced path always paid, so resilience no longer costs an
  // extra snapshot.)
  if (!as.padded && !resilient()) {
    const Payload& front = batch.requests.front().payload;
    bool viewable = true;
    for (std::size_t i = 1; i < batch.requests.size() && viewable; ++i) {
      const Payload& prev = batch.requests[i - 1].payload;
      const Payload& cur = batch.requests[i].payload;
      viewable = front.is_complex
                     ? spans_adjacent(prev.ca, cur.ca)
                     : spans_adjacent(prev.a, cur.a) &&
                           (front.b.count() == 0 ||
                            spans_adjacent(prev.b, cur.b));
    }
    if (viewable) {
      // One request trivially qualifies (solve in place, the legacy fast
      // path); several qualify when their payloads were leased back-to-back
      // from the arena — the coalesced batch is then a view spanning them.
      // No owner handle: the requests outlive the solve inside the batch.
      as.mode = AssemblyMode::view;
      Payload& p0 = batch.requests.front().payload;
      if (p0.is_complex) {
        as.payload.ca = BatchC::borrow(p0.ca.data(), batch.problems,
                                       sig.m, sig.n);
        as.payload.is_complex = true;
      } else {
        as.payload.a = BatchF::borrow(p0.a.data(), batch.problems,
                                      sig.m, sig.n);
        if (p0.b.count() > 0)
          as.payload.b = BatchF::borrow(p0.b.data(), batch.problems,
                                        p0.b.rows(), 1);
      }
      return as;
    }
  }

  // Staged: gather into arena-leased staging blocks (padding ragged
  // problems to the tile). Lease sizes round to the next power of two so
  // the handful of size classes recycles across every batch size a queue
  // produces — steady state re-leases, never allocates.
  as.mode = AssemblyMode::staged;
  const Payload& front = batch.requests.front().payload;
  const std::size_t elem =
      front.is_complex ? sizeof(std::complex<float>) : sizeof(float);
  const std::size_t a_bytes = static_cast<std::size_t>(batch.problems) *
                              sig.m * sig.n * elem;
  as.a_block = arena_->lease(pow2_ceil(a_bytes));
  if (front.is_complex) {
    as.payload.ca =
        BatchC::borrow(reinterpret_cast<std::complex<float>*>(
                           as.a_block.data()),
                       batch.problems, sig.m, sig.n, as.a_block.owner());
    as.payload.is_complex = true;
  } else {
    as.payload.a = BatchF::borrow(
        reinterpret_cast<float*>(as.a_block.data()), batch.problems, sig.m,
        sig.n, as.a_block.owner());
    const planner::OpTraits& traits = planner::op_traits(sig.op);
    if (traits.rhs != planner::RhsShape::none) {
      const int brows =
          traits.rhs == planner::RhsShape::m_by_1 ? sig.m : sig.n;
      as.b_block = arena_->lease(pow2_ceil(
          static_cast<std::size_t>(batch.problems) * brows * elem));
      as.payload.b = BatchF::borrow(
          reinterpret_cast<float*>(as.b_block.data()), batch.problems, brows,
          1, as.b_block.owner());
    }
  }
  gather(batch, as);
  return as;
}

void Runtime::gather(const Batch& batch, Assembled& as) {
  std::uint64_t copied = 0;
  if (as.payload.is_complex) {
    BatchC& A = as.payload.ca;
    int off = 0;
    for (const Pending& req : batch.requests) {
      const BatchC& ra = req.payload.ca;
      std::copy_n(ra.data(), ra.size(), A.data() + off * A.stride());
      copied += ra.bytes();
      off += ra.count();
    }
  } else {
    BatchF& A = as.payload.a;
    BatchF& B = as.payload.b;
    if (as.padded) {
      // Mixed shapes: zero the whole staging area once, then embed each
      // problem top-left with ones on the trailing diagonal — the identity
      // padding that makes the tile factor/solve to exactly the submitted
      // problem's answer (planner::ragged_tile guarantees the ones fit).
      std::memset(A.data(), 0, A.bytes());
      if (B.count() > 0) std::memset(B.data(), 0, B.bytes());
    }
    int off = 0;
    for (const Pending& req : batch.requests) {
      const BatchF& ra = req.payload.a;
      const BatchF& rb = req.payload.b;
      if (ra.rows() == A.rows() && ra.cols() == A.cols()) {
        std::copy_n(ra.data(), ra.size(), A.data() + off * A.stride());
        copied += ra.bytes();
        if (B.count() > 0) {
          std::copy_n(rb.data(), rb.size(), B.data() + off * B.stride());
          copied += rb.bytes();
        }
      } else {
        const int mr = ra.rows(), nr = ra.cols();
        for (int k = 0; k < ra.count(); ++k) {
          float* dst = A.data() + (off + k) * A.stride();
          const float* src = ra.data() + k * ra.stride();
          for (int j = 0; j < nr; ++j)
            std::copy_n(src + static_cast<std::size_t>(j) * mr, mr,
                        dst + static_cast<std::size_t>(j) * A.rows());
          for (int t = 0; t < A.cols() - nr; ++t)
            dst[(nr + t) * static_cast<std::size_t>(A.rows()) + mr + t] = 1.0f;
          if (B.count() > 0)
            std::copy_n(rb.data() + k * rb.stride(), rb.rows(),
                        B.data() + (off + k) * B.stride());
        }
        copied += ra.bytes() + (B.count() > 0 ? rb.bytes() : 0);
      }
      off += ra.count();
    }
  }
  m_.payload_bytes_copied.add(copied);
}

void Runtime::scatter(const Assembled& as, Batch& batch) {
  if (as.mode != AssemblyMode::staged) return;  // views solved in place
  std::uint64_t copied = 0;
  if (as.payload.is_complex) {
    const BatchC& A = as.payload.ca;
    int off = 0;
    for (Pending& req : batch.requests) {
      BatchC& ra = req.payload.ca;
      std::copy_n(A.data() + off * A.stride(), ra.size(), ra.data());
      copied += ra.bytes();
      off += ra.count();
    }
  } else {
    const BatchF& A = as.payload.a;
    const BatchF& B = as.payload.b;
    int off = 0;
    for (Pending& req : batch.requests) {
      BatchF& ra = req.payload.a;
      BatchF& rb = req.payload.b;
      if (ra.rows() == A.rows() && ra.cols() == A.cols()) {
        std::copy_n(A.data() + off * A.stride(), ra.size(), ra.data());
        copied += ra.bytes();
        if (B.count() > 0) {
          std::copy_n(B.data() + off * B.stride(), rb.size(), rb.data());
          copied += rb.bytes();
        }
      } else {
        // Slice each result back out of its tile: the top-left m x n block
        // (and the first rows of the padded RHS column) are exactly the
        // submitted problem's factors/solution.
        const int mr = ra.rows(), nr = ra.cols();
        for (int k = 0; k < ra.count(); ++k) {
          const float* src = A.data() + (off + k) * A.stride();
          float* dst = ra.data() + k * ra.stride();
          for (int j = 0; j < nr; ++j)
            std::copy_n(src + static_cast<std::size_t>(j) * A.rows(), mr,
                        dst + static_cast<std::size_t>(j) * mr);
          if (B.count() > 0)
            std::copy_n(B.data() + (off + k) * B.stride(), rb.rows(),
                        rb.data() + k * rb.stride());
        }
        copied += ra.bytes() + (B.count() > 0 ? rb.bytes() : 0);
      }
      off += ra.count();
    }
  }
  m_.payload_bytes_copied.add(copied);
}

void Runtime::fulfill(Pending& req, const SolveReport& batch_report,
                      const Batch& batch, int offset,
                      Clock::time_point started, const SolveOutcome& outcome) {
  // End-to-end deadline enforcement, last gate: a result arriving past the
  // request's deadline is discarded, never delivered late and silently.
  if (Clock::now() > req.deadline) {
    fail_deadline(req);
    return;
  }
  if (obs::trace_active()) {
    // The request's life between submit and flush start, on a shared
    // virtual track (a queue wait belongs to no thread).
    static const std::uint32_t queue_track = obs::named_track("runtime.queue");
    obs::trace_complete(
        "runtime.queue-wait", "runtime", obs::trace_time_us(req.enqueued),
        std::chrono::duration<double, std::micro>(started - req.enqueued)
            .count(),
        queue_track);
  }
  const int k = req.payload.problems();
  Report r;
  static_cast<SolveReport&>(r) = batch_report;
  if (!batch_report.not_solved.empty()) {
    // Slice the coalesced launch's per-problem flags to this request.
    r.not_solved.assign(batch_report.not_solved.begin() + offset,
                        batch_report.not_solved.begin() + offset + k);
  }
  r.flush = batch.reason;
  r.coalesced_problems = batch.problems;
  r.coalesced_requests = static_cast<int>(batch.requests.size());
  r.queue_seconds =
      std::chrono::duration<double>(started - req.enqueued).count();
  r.retries = outcome.retries;
  r.solved_on_cpu = outcome.on_cpu;
  r.device_id = outcome.device_id;
  r.device = outcome.device;
  r.ragged = batch.sig.ragged;
  r.a = std::move(req.payload.a);
  r.b = std::move(req.payload.b);
  r.ca = std::move(req.payload.ca);
  record_latency(req.enqueued);
  req.promise.set_value(std::move(r));
  m_.fulfilled.add();
}

void Runtime::execute(Batch& batch) {
  // The whole batch flush on this worker: stream acquisition, coalesced
  // assembly, the solver call chain (planner / engine spans nest inside),
  // and the scatter back to futures.
  obs::Span flush_span("runtime.flush", "runtime");
  // Deadline gate, before any device work: a request already past its
  // deadline resolves typed now instead of riding the batch.
  {
    const Clock::time_point now = Clock::now();
    bool any_expired = false;
    for (const Pending& req : batch.requests)
      if (now > req.deadline) {
        any_expired = true;
        break;
      }
    if (any_expired) {
      std::vector<Pending> live;
      live.reserve(batch.requests.size());
      batch.problems = 0;
      for (Pending& req : batch.requests) {
        if (now > req.deadline) {
          fail_deadline(req);
        } else {
          batch.problems += req.payload.problems();
          live.push_back(std::move(req));
        }
      }
      batch.requests = std::move(live);
    }
    if (batch.requests.empty()) return;  // nothing left to execute
  }
  // Route the batch: the fleet picks a device by queue depth, plan-cache
  // affinity, and circuit state, and leases one of its streams (RAII — the
  // stream returns to its device even if an exception escapes below).
  // Blocks while every eligible device is busy; nullopt means nothing is
  // routable at all (everything drained or removed mid-flight).
  const planner::ProblemDesc route_desc{batch.sig.op, batch.sig.m,
                                        batch.sig.n, batch.problems,
                                        batch.sig.dtype};
  std::optional<fleet::Lease> leased;
  {
    obs::Span wait_span("runtime.stream-wait", "runtime");
    leased = fleet_->acquire(route_desc);
  }
  if (!leased) {
    execute_no_device(batch, Clock::now());
    return;
  }
  fleet::Lease lease = std::move(*leased);
  const Clock::time_point started = Clock::now();

  // The device-facing part alone (stream held, solver running).
  obs::Span exec_span("runtime.execute", "runtime");
  bool poisoned = false;
  std::exception_ptr batch_error;
  double device_seconds = 0;
  SolveOutcome outcome;
  Assembled as;
  bool assembled = false;
  try {
    // Build the device-facing payload: a zero-copy view over the
    // submitters' buffers when possible, otherwise an arena-staged gather
    // (padded to the tile for ragged buckets). Staged batches retry by
    // re-gathering from the pristine request buffers — no snapshot copy.
    as = assemble(batch);
    assembled = true;
    const SolveReport r = solve_resilient(
        lease, batch.sig, as.payload, outcome,
        as.mode == AssemblyMode::staged
            ? std::function<void()>([this, &batch, &as] { gather(batch, as); })
            : std::function<void()>{});
    device_seconds += r.seconds;
    // The device's work is done: free the stream before scatter/delivery,
    // so a caller unblocked by .get() can immediately route here.
    lease.release();
    scatter(as, batch);
    int off = 0;
    for (Pending& req : batch.requests) {
      const int k = req.payload.problems();
      fulfill(req, r, batch, off, started, outcome);
      off += k;
    }
  } catch (...) {
    poisoned = true;
    batch_error = std::current_exception();
  }

  if (poisoned && assembled && as.mode == AssemblyMode::view) {
    // A view batch aliases the submitters' buffers, and a failure can abort
    // a multi-launch (tiled) solve mid-chain — those buffers may now be
    // partially factored, and no pristine epoch exists to re-run from
    // (solve_solo only snapshots when resilience is on, and view assembly
    // only happens when it is off). Re-solving here would silently deliver
    // results computed from corrupted input, so fail every rider with the
    // batch's error instead: correctness over isolation.
    for (Pending& req : batch.requests) fail(req, batch_error);
    record_batch_stats(batch, device_seconds, &as);
    return;
  }

  if (poisoned && !lease) {
    // The resilience policy released the lease (re-route found nothing) and
    // the failure propagated. Re-acquire for the isolation pass; if the
    // fleet has nothing routable left, finish on the no-device path.
    auto again = fleet_->acquire(route_desc);
    if (!again) {
      execute_no_device(batch, started);
      return;
    }
    lease = std::move(*again);
  }
  if (poisoned) {
    // Exception isolation: one bad request must not poison its batchmates.
    // Re-run each request alone; only the ones that still throw get the
    // exception on their future.
    m_.isolation_retries.add(batch.requests.size());
    for (Pending& req : batch.requests) {
      try {
        if (!lease) {
          // An earlier solo run's re-route dead-ended and released the
          // lease (that only happens with cpu_fallback off, where the
          // failure propagates). Take a fresh lease for this request; with
          // nothing routable its future gets the typed no-device error.
          auto again = fleet_->acquire(route_desc);
          if (!again)
            throw NoDeviceAvailable(
                "no routable fleet device (all drained or removed)");
          lease = std::move(*again);
        }
        SolveOutcome solo_outcome;
        const SolveReport r =
            solve_solo(lease, batch.sig, req.payload, solo_outcome);
        device_seconds += r.seconds;
        Batch solo;
        solo.sig = batch.sig;
        solo.reason = batch.reason;
        solo.problems = req.payload.problems();
        solo.requests.resize(1);  // only for the counts in the Report
        fulfill(req, r, solo, 0, started, solo_outcome);
      } catch (...) {
        fail(req, std::current_exception());
      }
    }
  }

  record_batch_stats(batch, device_seconds, assembled ? &as : nullptr);
}

void Runtime::execute_no_device(Batch& batch, Clock::time_point started) {
  m_.no_device.add();
  if (!opt_.cpu_fallback) {
    for (Pending& req : batch.requests)
      fail(req, std::make_exception_ptr(NoDeviceAvailable(
                    "no routable fleet device (all drained or removed)")));
    return;
  }
  // Graceful degradation with no device at all: solve per request on the
  // cpu entries (no point assembling a coalesced batch no device will see).
  SolveOutcome outcome;
  outcome.on_cpu = true;
  for (Pending& req : batch.requests) {
    try {
      const SolveReport r = solve_cpu(batch.sig, req.payload);
      Batch solo;
      solo.sig = batch.sig;
      solo.reason = batch.reason;
      solo.problems = req.payload.problems();
      solo.requests.resize(1);  // only for the counts in the Report
      fulfill(req, r, solo, 0, started, outcome);
    } catch (...) {
      fail(req, std::current_exception());
    }
  }
  record_batch_stats(batch, 0);
}

// --- Draining --------------------------------------------------------------

void Runtime::flush() {
  std::vector<Batch> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [sig, q] : queues_)
      while (!q.pending.empty())
        ready.push_back(take_batch(q, FlushReason::manual));
  }
  for (Batch& b : ready) launch(std::move(b));
}

void Runtime::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return inflight_ == 0; });
}

void Runtime::shutdown() {
  std::vector<Batch> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (auto& [sig, q] : queues_)
      while (!q.pending.empty())
        ready.push_back(take_batch(q, FlushReason::shutdown));
    cv_space_.notify_all();  // blocked submitters observe closed_ and throw
  }
  for (Batch& b : ready) launch(std::move(b));
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    dispatcher_stop_ = true;
  }
  cv_dispatch_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();  // drains any queued jobs, then joins the workers
}

// --- Stats -----------------------------------------------------------------

void Runtime::record_batch_stats(const Batch& batch, double device_seconds,
                                 const Assembled* as) {
  m_.batch_problems.record(batch.problems);
  m_.flushes[static_cast<int>(batch.reason)]->add();
  m_.device_seconds.add(device_seconds);
  if (batch.sig.ragged) m_.ragged_batches.add();
  if (as != nullptr)
    (as->mode == AssemblyMode::view ? m_.view_batches : m_.staged_batches)
        .add();
}

void Runtime::record_latency(Clock::time_point enqueued) {
  m_.latency_us.record(
      std::chrono::duration<double, std::micro>(Clock::now() - enqueued)
          .count());
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  // Completion counters first: a request is admitted (requests) before it
  // can resolve, so reading them ahead of `requests` keeps a snapshot taken
  // under traffic from showing more resolved than admitted.
  s.fulfilled = m_.fulfilled.value();
  s.failed_requests = m_.failed_requests.value();
  s.shed = m_.shed.value();
  s.deadline_exceeded = m_.deadline_exceeded.value();
  s.requests = m_.requests.value();
  s.problems = m_.problems.value();
  s.rejected = m_.rejected.value();
  s.batches = m_.batch_problems.count();
  s.coalesced_problems =
      static_cast<std::uint64_t>(m_.batch_problems.sum());
  for (int r = 0; r < kNumFlushReasons; ++r)
    s.flushes[r] = m_.flushes[r]->value();
  s.isolation_retries = m_.isolation_retries.value();
  s.retries = m_.retries.value();
  s.fallback_cpu = m_.fallback_cpu.value();
  s.circuit_opens = m_.circuit_opens.value();
  s.reroutes = m_.reroutes.value();
  s.no_device = m_.no_device.value();
  s.device_seconds = m_.device_seconds.value();
  s.payload_bytes_copied = m_.payload_bytes_copied.value();
  s.view_batches = m_.view_batches.value();
  s.staged_batches = m_.staged_batches.value();
  s.ragged_batches = m_.ragged_batches.value();
  s.p50_ms_ = m_.latency_us.percentile(0.50) / 1000.0;
  s.p99_ms_ = m_.latency_us.percentile(0.99) / 1000.0;
  // The arena keeps its own accounting; fold it into the snapshot so
  // callers see one coherent payload story.
  const Arena::Stats a = arena_->stats();
  s.payload_allocs = a.slab_allocs;
  s.payload_reuses = a.reuses;
  return s;
}

}  // namespace regla::runtime
