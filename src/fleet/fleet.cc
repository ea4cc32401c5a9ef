#include "fleet/fleet.h"

#include <algorithm>
#include <stdexcept>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace regla::fleet {
namespace {

std::string device_labels(const std::string& name) {
  return "device=" + name;
}

}  // namespace

/// One fleet member: a named device with its stream pool, lifecycle state,
/// and circuit breaker. All fields except `killed` are guarded by the fleet
/// mutex; `killed` is atomic so leased executors can poll it lock-free
/// mid-solve.
struct Fleet::Member {
  int id = -1;
  std::string name;
  simt::DeviceConfig config;
  std::uint64_t fingerprint = 0;
  DeviceState state = DeviceState::active;
  std::atomic<bool> killed{false};

  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Stream*> free_streams;
  int inflight = 0;
  std::uint64_t last_routed = 0;

  // Circuit breaker: consecutive exhausted-retry episodes and, once tripped,
  // when routing may probe the device again.
  int consecutive_exhausted = 0;
  Clock::time_point broken_until{};

  std::uint64_t batches = 0;
  std::uint64_t problems = 0;
  std::uint64_t reroutes_away = 0;
  std::uint64_t circuit_opens = 0;
  double device_seconds = 0;

  bool circuit_open(Clock::time_point now) const {
    return broken_until > now;
  }
};

// --- Lease ----------------------------------------------------------------

Lease& Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    fleet_ = o.fleet_;
    stream_ = o.stream_;
    device_ = o.device_;
    name_ = std::move(o.name_);
    circuit_open_ = o.circuit_open_;
    killed_flag_ = o.killed_flag_;
    o.fleet_ = nullptr;
    o.stream_ = nullptr;
    o.killed_flag_ = nullptr;
    o.device_ = -1;
  }
  return *this;
}

bool Lease::killed() const {
  return killed_flag_ && killed_flag_->load(std::memory_order_relaxed);
}

void Lease::release() {
  if (fleet_ && stream_) fleet_->release(stream_, device_);
  fleet_ = nullptr;
  stream_ = nullptr;
  killed_flag_ = nullptr;
  device_ = -1;
}

// --- Fleet ----------------------------------------------------------------

Fleet::Fleet(Options opt) : opt_(std::move(opt)) {
  REGLA_CHECK_MSG(!opt_.devices.empty(), "Fleet needs at least one device");
  planner_ = opt_.planner ? opt_.planner
                          : std::make_shared<planner::Planner>();
  for (DeviceSpec& s : opt_.devices) add_device(std::move(s));
  opt_.devices.clear();  // moved from; membership now lives in members_
}

Fleet::~Fleet() = default;

std::optional<Lease> Fleet::try_route(const planner::ProblemDesc& desc,
                                      std::uint64_t exclude,
                                      bool* any_eligible) {
  const auto now = Clock::now();
  *any_eligible = false;
  std::vector<RouteCandidate> candidates;
  std::vector<Member*> owners;
  candidates.reserve(members_.size());
  for (const auto& up : members_) {
    Member& m = *up;
    if (m.state != DeviceState::active) continue;
    if (m.id < 64 && (exclude >> m.id) & 1u) continue;
    *any_eligible = true;
    if (m.free_streams.empty()) continue;
    RouteCandidate c;
    c.device = m.id;
    c.load = static_cast<double>(m.inflight) /
             std::max<std::size_t>(1, m.streams.size());
    c.warm = planner_->cache().warm(desc, m.fingerprint);
    c.circuit_open = m.circuit_open(now);
    c.last_routed = m.last_routed;
    candidates.push_back(c);
    owners.push_back(&m);
  }
  const int idx = pick(opt_.router, candidates);
  if (idx < 0) return std::nullopt;
  Member& m = *owners[idx];
  Lease lease;
  lease.fleet_ = this;
  lease.stream_ = m.free_streams.back();
  m.free_streams.pop_back();
  lease.device_ = m.id;
  lease.name_ = m.name;
  lease.circuit_open_ = candidates[idx].circuit_open;
  lease.killed_flag_ = &m.killed;
  ++m.inflight;
  m.last_routed = ++route_stamp_;
  ++stats_.routed;
  obs::gauge("fleet.inflight", device_labels(m.name))
      .set(static_cast<double>(m.inflight));
  obs::gauge("fleet.queue_depth", device_labels(m.name))
      .set(static_cast<double>(m.inflight) /
           std::max<std::size_t>(1, m.streams.size()));
  return lease;
}

std::optional<Lease> Fleet::acquire(const planner::ProblemDesc& desc,
                                    std::uint64_t exclude) {
  obs::Span span("fleet.route", "fleet");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    bool any_eligible = false;
    auto lease = try_route(desc, exclude, &any_eligible);
    if (lease) return lease;
    if (!any_eligible) {
      ++stats_.no_device;
      obs::counter("fleet.no_device").add();
      return std::nullopt;
    }
    // Every eligible device is busy; wait for a stream to free up or for
    // membership to change (add/drain/remove all notify).
    cv_.wait(lock);
  }
}

void Fleet::release(Stream* stream, int device) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Member& m = member_checked(device);
    m.free_streams.push_back(stream);
    --m.inflight;
    obs::gauge("fleet.inflight", device_labels(m.name))
        .set(static_cast<double>(m.inflight));
    obs::gauge("fleet.queue_depth", device_labels(m.name))
        .set(static_cast<double>(m.inflight) /
             std::max<std::size_t>(1, m.streams.size()));
  }
  cv_.notify_all();
}

void Fleet::record_success(const Lease& lease, int problems,
                           double device_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(lease.device_id());
  m.consecutive_exhausted = 0;
  if (m.broken_until != Clock::time_point{}) {
    m.broken_until = {};  // a success closes the circuit
    obs::gauge("fleet.circuit_open", device_labels(m.name)).set(0);
  }
  ++m.batches;
  m.problems += static_cast<std::uint64_t>(problems);
  m.device_seconds += device_seconds;
  obs::counter("fleet.batches", device_labels(m.name)).add();
  obs::counter("fleet.problems", device_labels(m.name))
      .add(static_cast<std::uint64_t>(problems));
  obs::gauge("fleet.device_pps", device_labels(m.name))
      .set(m.device_seconds > 0
               ? static_cast<double>(m.problems) / m.device_seconds
               : 0);
}

bool Fleet::record_exhausted(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(lease.device_id());
  ++m.consecutive_exhausted;
  if (opt_.circuit_break_after > 0 &&
      m.consecutive_exhausted >= opt_.circuit_break_after &&
      !m.circuit_open(Clock::now())) {
    m.broken_until = Clock::now() + opt_.circuit_cooldown;
    ++m.circuit_opens;
    ++stats_.circuit_opens;
    obs::counter("fleet.circuit_opens", device_labels(m.name)).add();
    obs::gauge("fleet.circuit_open", device_labels(m.name)).set(1);
    return true;
  }
  return false;
}

void Fleet::record_reroute_away(int device_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(device_id);
  ++m.reroutes_away;
  ++stats_.reroutes;
  obs::counter("fleet.reroutes", device_labels(m.name)).add();
}

int Fleet::add_device(DeviceSpec spec) {
  const int streams = std::max(1, spec.streams);
  // Build the streams outside the lock — constructing a stream's Device and
  // Solver allocates, and routing need not wait for it.
  std::vector<std::unique_ptr<Stream>> built;
  built.reserve(streams);
  for (int i = 0; i < streams; ++i)
    built.push_back(
        std::make_unique<Stream>(spec.config, planner_, opt_.replay));
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(members_.size());
    auto m = std::make_unique<Member>();
    m->id = id;
    m->name = spec.name.empty() ? "dev" + std::to_string(id)
                                : std::move(spec.name);
    m->config = spec.config;
    m->fingerprint = planner::Planner::config_fingerprint(spec.config);
    m->streams = std::move(built);
    for (auto& s : m->streams) m->free_streams.push_back(s.get());
    stamp_member_gauges(*m);
    members_.push_back(std::move(m));
    stamp_topology_gauges();
  }
  cv_.notify_all();
  return id;
}

void Fleet::drain(int id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Member& m = member_checked(id);
    if (m.state == DeviceState::active) {
      m.state = DeviceState::draining;
      stamp_member_gauges(m);
      stamp_topology_gauges();
    }
  }
  // Wake acquirers that were counting this device as eligible-but-busy: with
  // it drained they may now have no eligible device at all.
  cv_.notify_all();
}

void Fleet::remove(int id) {
  drain(id);
  std::vector<std::unique_ptr<Stream>> doomed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Member& m = member_checked(id);
    cv_.wait(lock, [&m] { return m.inflight == 0; });
    if (m.state != DeviceState::removed) {
      m.state = DeviceState::removed;
      m.free_streams.clear();
      doomed = std::move(m.streams);  // destroyed below, outside the lock
      m.streams.clear();
      stamp_member_gauges(m);
      stamp_topology_gauges();
    }
  }
  cv_.notify_all();
}

void Fleet::kill(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  Member& m = member_checked(id);
  m.killed.store(true, std::memory_order_relaxed);
  obs::gauge("fleet.killed", device_labels(m.name)).set(1);
}

int Fleet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(members_.size());
}

int Fleet::active_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& m : members_)
    if (m->state == DeviceState::active) ++n;
  return n;
}

int Fleet::total_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& m : members_)
    if (m->state != DeviceState::removed)
      n += static_cast<int>(m->streams.size());
  return n;
}

DeviceStats Fleet::stats_of(const Member& m) const {
  DeviceStats s;
  s.id = m.id;
  s.name = m.name;
  s.state = m.state;
  s.circuit_open = m.circuit_open(Clock::now());
  s.killed = m.killed.load(std::memory_order_relaxed);
  s.streams = static_cast<int>(m.streams.size());
  s.inflight = m.inflight;
  s.batches = m.batches;
  s.problems = m.problems;
  s.reroutes_away = m.reroutes_away;
  s.circuit_opens = m.circuit_opens;
  s.device_seconds = m.device_seconds;
  s.fingerprint = m.fingerprint;
  return s;
}

DeviceStats Fleet::device_stats(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_of(member_checked(id));
}

std::vector<DeviceStats> Fleet::devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DeviceStats> out;
  out.reserve(members_.size());
  for (const auto& m : members_) out.push_back(stats_of(*m));
  return out;
}

FleetStats Fleet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

simt::DeviceConfig Fleet::primary_config() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& m : members_)
    if (m->state != DeviceState::removed) return m->config;
  // Every device removed: keep answering with the first member's remembered
  // config so callers that only need a coalescing/planning target (not a
  // live device) keep working; routing still reports no_device.
  return members_.front()->config;
}

Fleet::Member& Fleet::member_checked(int id) {
  REGLA_CHECK_MSG(id >= 0 && id < static_cast<int>(members_.size()),
                  "unknown fleet device id");
  return *members_[static_cast<std::size_t>(id)];
}

const Fleet::Member& Fleet::member_checked(int id) const {
  REGLA_CHECK_MSG(id >= 0 && id < static_cast<int>(members_.size()),
                  "unknown fleet device id");
  return *members_[static_cast<std::size_t>(id)];
}

void Fleet::stamp_member_gauges(const Member& m) const {
  const std::string labels = device_labels(m.name);
  obs::gauge("fleet.state", labels).set(static_cast<double>(m.state));
  obs::gauge("fleet.circuit_open", labels)
      .set(m.circuit_open(Clock::now()) ? 1 : 0);
  obs::gauge("fleet.killed", labels)
      .set(m.killed.load(std::memory_order_relaxed) ? 1 : 0);
  obs::gauge("fleet.inflight", labels).set(static_cast<double>(m.inflight));
  obs::gauge("fleet.streams", labels)
      .set(static_cast<double>(m.streams.size()));
}

void Fleet::stamp_topology_gauges() const {
  int active = 0, streams = 0;
  for (const auto& m : members_) {
    if (m->state == DeviceState::active) ++active;
    if (m->state != DeviceState::removed)
      streams += static_cast<int>(m->streams.size());
  }
  obs::gauge("fleet.devices").set(static_cast<double>(active));
  obs::gauge("fleet.streams").set(static_cast<double>(streams));
}

void Fleet::publish_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& m : members_) stamp_member_gauges(*m);
  stamp_topology_gauges();
}

}  // namespace regla::fleet
