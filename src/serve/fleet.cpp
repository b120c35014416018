#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/contracts.hpp"

namespace gsight::serve {

namespace {

constexpr double kNsPerSecond = 1e9;

/// Validate-then-return, so member initialisers never see a bad request.
FleetRequest validated(FleetRequest request) {
  request.validate();
  return request;
}

}  // namespace

void FleetRequest::validate() const {
  if (replicas == 0) {
    throw std::invalid_argument("FleetRequest: replicas must be non-zero");
  }
  if (vnodes_per_replica == 0) {
    throw std::invalid_argument(
        "FleetRequest: vnodes_per_replica must be non-zero");
  }
  service.validate();
  for (const auto& step : drains) {
    if (step.replica >= replicas) {
      throw std::invalid_argument(
          "FleetRequest: drains[].replica out of range");
    }
    if (step.readd_at != 0 && step.readd_at <= step.drain_at) {
      throw std::invalid_argument(
          "FleetRequest: drains[].readd_at must come after drain_at");
    }
  }
}

PredictionFleet::PredictionFleet(FleetRequest request,
                                 ml::IncrementalForest model)
    : request_(validated(std::move(request))),
      router_(request_.router, request_.replicas, request_.vnodes_per_replica),
      routed_(request_.replicas),
      trainer_(request_.service, std::move(model),
               [this](std::shared_ptr<const ModelSnapshot> snap) {
                 fan_out(std::move(snap));
                 return true;
               }) {
  ServiceConfig sc = request_.service;
  if (sc.clock == nullptr && sc.worker_threads == 0) {
    // One ManualClock shared by every replica: the whole fleet lives on a
    // single virtual timeline, which is what twin-run identity needs.
    own_clock_ = std::make_unique<ManualClock>();
    sc.clock = own_clock_.get();
  }
  clock_ = sc.clock != nullptr ? sc.clock : &SteadyClock::instance();
  start_ns_ = clock_->now_ns();
  latest_snap_ = trainer_.trained_snapshot();
  replicas_.reserve(request_.replicas);
  for (std::size_t r = 0; r < request_.replicas; ++r) {
    // Replicas carry a cold internal model — their own trainer never sees
    // an observation (the fleet trains centrally and publishes into their
    // slots), so one frozen snapshot is shared instead of copying the
    // forest N times.
    auto svc = std::make_unique<PredictionService>(sc, ml::IncrementalForest());
    if (latest_snap_) svc->publish(latest_snap_);
    replicas_.push_back(std::move(svc));
  }
}

PredictionFleet::~PredictionFleet() { stop(); }

// Both are idempotent because each step is: a service ignores start()
// after its stop(), and stopping a trainer or a service twice is safe.
void PredictionFleet::start() {
  for (auto& r : replicas_) r->start();
}

void PredictionFleet::stop() {
  // Close intake first; a scheduled training round still folds what is
  // already buffered, then replicas finish their own queues on stop().
  accepting_.store(false, std::memory_order_release);
  trainer_.stop();
  for (auto& r : replicas_) r->stop();
}

std::optional<std::size_t> PredictionFleet::submit(std::uint64_t key,
                                                   std::vector<double> features,
                                                   Callback done) {
  if (!accepting_.load(std::memory_order_acquire)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::optional<std::size_t> target;
  {
    core::MutexLock lock(route_mutex_);
    if (router_.policy() == RouterPolicy::kLeastQueued) {
      std::vector<std::size_t> depths(replicas_.size(), 0);
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (router_.active(r)) depths[r] = replicas_[r]->queue_depth();
      }
      target = router_.route(key, depths);
    } else {
      target = router_.route(key, {});
    }
  }
  if (!target) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Wrap the callback so fleet-level conservation (submitted == completed
  // + shed) holds by construction: every accepted request ticks completed_
  // exactly once, on whichever thread serves its micro-batch.
  auto counted = [this, cb = std::move(done)](const PredictResult& r) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (cb) cb(r);
  };
  if (!replicas_[*target]->submit(std::move(features), std::move(counted))) {
    // Routed to a full queue: consistent hashing does not fail over — a
    // hot shard sheds, exactly like an overloaded single service.
    shed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  routed_[*target].fetch_add(1, std::memory_order_relaxed);
  return target;
}

std::size_t PredictionFleet::poll() {
  std::size_t served = 0;
  // Draining replicas are polled too: a drained queue must still empty —
  // that is the "finish in-flight" half of the drain protocol.
  for (auto& r : replicas_) served += r->poll();
  trainer_.train_if_due();
  return served;
}

std::size_t PredictionFleet::poll_replica(std::size_t replica) {
  GSIGHT_ASSERT(replica < replicas_.size(), "fleet replica out of range");
  const std::size_t served = replicas_[replica]->poll();
  trainer_.train_if_due();
  return served;
}

std::uint64_t PredictionFleet::fan_out(
    std::shared_ptr<const ModelSnapshot> snap) {
  const std::uint64_t version = snap->version;
  std::uint64_t wm = 0;
  {
    core::MutexLock lock(route_mutex_);
    if (!latest_snap_ || snap->version > latest_snap_->version) {
      latest_snap_ = snap;
    }
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (!router_.active(r)) continue;  // draining replicas go stale
      if (replicas_[r]->publish(snap)) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    wm = watermark_locked();
  }
  mark("fleet.publish", {{"version", std::to_string(version)},
                         {"watermark", std::to_string(wm)}});
  return wm;
}

void PredictionFleet::drain(std::size_t replica) {
  GSIGHT_ASSERT(replica < replicas_.size(), "fleet replica out of range");
  bool flipped = false;
  {
    core::MutexLock lock(route_mutex_);
    if (router_.active(replica)) {
      GSIGHT_ASSERT(router_.active_count() > 1,
                    "cannot drain the last active replica");
      router_.set_active(replica, false);
      flipped = true;
    }
  }
  if (!flipped) return;  // already draining/drained
  drains_.fetch_add(1, std::memory_order_relaxed);
  mark("fleet.drain", {{"replica", std::to_string(replica)}});
  if (request_.service.worker_threads > 0) {
    // Finish in-flight: no new requests can route here (the ring already
    // re-sharded), so this strictly decreases to zero as workers drain.
    while (replicas_[replica]->in_flight() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  // Synchronous mode: the caller's subsequent polls empty the queue —
  // poll() serves draining replicas too.
}

void PredictionFleet::readd(std::size_t replica) {
  GSIGHT_ASSERT(replica < replicas_.size(), "fleet replica out of range");
  std::uint64_t wm = 0;
  {
    core::MutexLock lock(route_mutex_);
    if (router_.active(replica)) return;
    // Catch the replica up *before* it rejoins the ring: holding
    // route_mutex_ across publish + activate means no concurrent fan_out
    // can slip a newer version past this one, so the watermark — the min
    // over active replicas — never moves backwards on a re-add.
    if (latest_snap_ && replicas_[replica]->publish(latest_snap_)) {
      publishes_.fetch_add(1, std::memory_order_relaxed);
    }
    router_.set_active(replica, true);
    wm = watermark_locked();
  }
  readds_.fetch_add(1, std::memory_order_relaxed);
  mark("fleet.readd", {{"replica", std::to_string(replica)},
                       {"watermark", std::to_string(wm)}});
}

bool PredictionFleet::active(std::size_t replica) const {
  GSIGHT_ASSERT(replica < replicas_.size(), "fleet replica out of range");
  core::MutexLock lock(route_mutex_);
  return router_.active(replica);
}

std::uint64_t PredictionFleet::watermark() const {
  core::MutexLock lock(route_mutex_);
  return watermark_locked();
}

std::uint64_t PredictionFleet::watermark_locked() const {
  std::uint64_t wm = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (!router_.active(r)) continue;
    any = true;
    wm = std::min(wm, replicas_[r]->snapshot_version());
  }
  return any ? wm : 0;
}

FleetStats PredictionFleet::stats() const {
  FleetStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.observations = trainer_.observations();
  s.observations_shed = trainer_.observations_shed();
  s.train_rounds = trainer_.rounds();
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.drains = drains_.load(std::memory_order_relaxed);
  s.readds = readds_.load(std::memory_order_relaxed);
  core::MutexLock lock(route_mutex_);
  s.latest_version = latest_snap_ ? latest_snap_->version : 0;
  s.active_replicas = router_.active_count();
  s.watermark = watermark_locked();
  s.routed.reserve(replicas_.size());
  s.replica_versions.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    s.routed.push_back(routed_[r].load(std::memory_order_relaxed));
    const std::uint64_t version = replicas_[r]->snapshot_version();
    s.replica_versions.push_back(version);
    if (router_.active(r) && version < s.latest_version) ++s.stale_replicas;
  }
  return s;
}

void PredictionFleet::export_metrics(obs::MetricsRegistry& registry) const {
  const FleetStats s = stats();
  registry.counter("fleet.submitted").inc(static_cast<double>(s.submitted));
  registry.counter("fleet.completed").inc(static_cast<double>(s.completed));
  registry.counter("fleet.shed").inc(static_cast<double>(s.shed));
  registry.counter("fleet.observations")
      .inc(static_cast<double>(s.observations));
  registry.counter("fleet.observations_shed")
      .inc(static_cast<double>(s.observations_shed));
  registry.counter("fleet.train_rounds")
      .inc(static_cast<double>(s.train_rounds));
  registry.counter("fleet.publishes").inc(static_cast<double>(s.publishes));
  registry.counter("fleet.drains").inc(static_cast<double>(s.drains));
  registry.counter("fleet.readds").inc(static_cast<double>(s.readds));
  registry.gauge("fleet.latest_version")
      .set(static_cast<double>(s.latest_version));
  registry.gauge("fleet.watermark").set(static_cast<double>(s.watermark));
  registry.gauge("fleet.active_replicas")
      .set(static_cast<double>(s.active_replicas));
  registry.gauge("fleet.stale_replicas")
      .set(static_cast<double>(s.stale_replicas));
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const obs::Labels labels = {{"replica", std::to_string(r)}};
    registry.counter("fleet.replica_routed", labels)
        .inc(static_cast<double>(s.routed[r]));
    registry.gauge("fleet.replica_version", labels)
        .set(static_cast<double>(s.replica_versions[r]));
    registry.gauge("fleet.replica_queue_depth", labels)
        .set(static_cast<double>(replicas_[r]->queue_depth()));
  }
}

void PredictionFleet::emit_live_metrics() {
  auto* sink = live_.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  obs::MetricsRegistry registry;
  export_metrics(registry);
  sink->metric_deltas(now_s(), registry);
}

double PredictionFleet::now_s() const {
  const std::uint64_t now = clock_->now_ns();
  return now >= start_ns_
             ? static_cast<double>(now - start_ns_) / kNsPerSecond
             : 0.0;
}

void PredictionFleet::mark(
    const char* name, std::vector<std::pair<std::string, std::string>> args) {
  auto* sink = live_.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  sink->mark(now_s(), name, args);
}

}  // namespace gsight::serve
