// PredictionFleet — N PredictionService replicas behind a routed serve
// API, the production shape of Gsight inference for heavy traffic: one
// logical predictor, many processes' worth of queues and workers.
//
//   * Routing — a pluggable Router (serve/router.hpp): consistent-hash on
//     the request key (stable per-key replica affinity, minimal-movement
//     re-shard) or least-queued (load balancing on live queue depth).
//
//   * Central training, fan-out publishing — the fleet owns the single
//     OnlineTrainer (the service's trainer); observations feed its queue
//     and each round freezes one snapshot that is pushed into every
//     *active* replica's SnapshotSlot. Replicas train nothing themselves,
//     so they never start a trainer thread. The fleet-wide version watermark
//     is the minimum snapshot version across active replicas: a publish
//     is only "fleet-visible" once the watermark reaches it. Replicas
//     lagging the latest published version are tracked as stale.
//
//   * Drain / re-shard — drain(r) removes a replica from the router (its
//     hash range lands on the survivors), lets it finish everything
//     in-flight, and stops publishing to it; readd(r) republishes the
//     latest snapshot *before* the replica rejoins the ring, so the
//     watermark never regresses. Conservation invariant, checked by the
//     fleet twin-run gate: submitted == completed + shed at all times —
//     no request is dropped or double-counted across a re-shard.
//
// Like PredictionService, the fleet runs in two regimes sharing all of
// this code: threaded (service.worker_threads > 0; real clocks, each
// replica's own workers, one fleet trainer thread) and synchronous
// (worker_threads == 0; the caller drives every replica through
// poll()/poll_replica() on one fleet-wide ManualClock — fully
// deterministic, which is what makes fleet twin runs byte-identical).
//
// Live introspection: point set_live_sink at an obs::LiveStreamSink and
// the fleet marks publish/drain/readd transitions and, on demand
// (emit_live_metrics), streams metric deltas — the `gsight tail` surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/lock.hpp"
#include "ml/incremental_forest.hpp"
#include "obs/live_stream.hpp"
#include "obs/metrics.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace gsight::serve {

/// One scheduled drain/re-add, keyed to load-driver request indices so a
/// re-shard lands mid-run deterministically (see LoadDriver).
struct DrainStep {
  std::size_t replica = 0;
  std::size_t drain_at = 0;  ///< drain before submitting this request index
  std::size_t readd_at = 0;  ///< re-add before this index (0 = never)
};

/// The one way to ask for a fleet (no positional ServiceConfig anywhere):
/// shape + router policy + the per-replica ServiceConfig every replica
/// inherits + an optional drain schedule.
struct FleetRequest {
  std::size_t replicas = 2;
  RouterPolicy router = RouterPolicy::kConsistentHash;
  std::size_t vnodes_per_replica = 64;
  /// Inherited by every replica. worker_threads selects the regime for
  /// the whole fleet; clock == nullptr in synchronous mode gives the
  /// fleet one shared ManualClock.
  ServiceConfig service;
  /// Executed by the LoadDriver at the scheduled request indices.
  std::vector<DrainStep> drains;

  /// Throws std::invalid_argument naming the first bad field (also
  /// validates the embedded ServiceConfig and every DrainStep).
  void validate() const;
};

/// Point-in-time fleet counters (see export_metrics for registry form).
struct FleetStats {
  std::uint64_t submitted = 0;   ///< accepted by some replica
  std::uint64_t completed = 0;   ///< callbacks delivered
  std::uint64_t shed = 0;        ///< no active replica / target queue full
  std::uint64_t observations = 0;
  std::uint64_t observations_shed = 0;
  std::uint64_t train_rounds = 0;
  std::uint64_t publishes = 0;   ///< successful per-replica slot swaps
  std::uint64_t drains = 0;
  std::uint64_t readds = 0;
  std::uint64_t latest_version = 0;  ///< newest frozen snapshot
  std::uint64_t watermark = 0;       ///< min version over active replicas
  std::size_t active_replicas = 0;
  std::size_t stale_replicas = 0;  ///< active but behind latest_version
  std::vector<std::uint64_t> routed;            ///< per-replica accepts
  std::vector<std::uint64_t> replica_versions;  ///< per-replica slot version
};

class PredictionFleet {
 public:
  using Callback = PredictionService::Callback;

  /// Takes ownership of the (possibly pre-trained) central model. A warm
  /// model is frozen once and the one snapshot is published to every
  /// replica, so all replicas start at the same version.
  PredictionFleet(FleetRequest request, ml::IncrementalForest model);
  ~PredictionFleet();

  PredictionFleet(const PredictionFleet&) = delete;
  PredictionFleet& operator=(const PredictionFleet&) = delete;

  /// Start every replica's workers (the fleet trainer thread starts with
  /// its first background round).
  void start();
  /// Stop intake, drain replicas, join everything. Idempotent.
  void stop();

  /// Route `key` and submit. Returns the replica that accepted the
  /// request, or nullopt on shed (no active replica, or the routed
  /// replica's queue was full — consistent hashing does not fail over, a
  /// hot shard sheds like a real one). The callback fires exactly once
  /// iff a replica was returned.
  std::optional<std::size_t> submit(std::uint64_t key,
                                    std::vector<double> features,
                                    Callback done);

  /// Feed one labelled observation toward the fleet trainer.
  bool observe(std::vector<double> features, double label) {
    return trainer_.observe(std::move(features), label);
  }

  /// Synchronous mode: serve one micro-batch on every replica (active or
  /// draining — drained queues must still empty), then run a training
  /// round if due. Returns predictions served.
  std::size_t poll();
  /// Synchronous mode: one micro-batch on one replica + the train check.
  std::size_t poll_replica(std::size_t replica);

  /// Fold queued observations now and fan the snapshot out. True if a
  /// new version was published.
  bool train_now() { return trainer_.train_round(); }

  /// Remove a replica from the router and (threaded mode) wait for its
  /// in-flight requests to finish. Refuses to drain the last active
  /// replica. In synchronous mode the caller's subsequent polls drain
  /// the queue — poll() serves draining replicas too.
  void drain(std::size_t replica);
  /// Re-add a drained replica: it is caught up to the latest snapshot
  /// *before* rejoining the ring, so the watermark never moves backwards.
  void readd(std::size_t replica);
  bool active(std::size_t replica) const;

  /// Min snapshot version across active replicas (0 with none active):
  /// the version every live request is guaranteed to see at least.
  std::uint64_t watermark() const;

  FleetStats stats() const;
  /// Fleet counters plus per-replica series under a {"replica","<i>"}
  /// label, prefixed "fleet.". Single-threaded registry: call from one
  /// thread, normally between poll cycles or after the run.
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Attach/detach the live NDJSON sink (not owned; may be null).
  void set_live_sink(obs::LiveStreamSink* sink) {
    live_.store(sink, std::memory_order_release);
  }
  /// Export into a scratch registry and stream the deltas (no-op without
  /// a sink). The LoadDriver calls this on its live_every cadence.
  void emit_live_metrics();

  const FleetRequest& request() const { return request_; }
  /// Seconds on the fleet clock since construction (virtual in
  /// synchronous mode) — the timestamp domain of the live stream.
  double now_s() const;
  /// The shared manual clock (synchronous mode, no explicit clock);
  /// nullptr otherwise.
  ManualClock* manual_clock() { return own_clock_.get(); }
  PredictionService& replica(std::size_t r) { return *replicas_[r]; }

 private:
  /// Push a frozen snapshot to every active replica and refresh
  /// latest_snap_. Returns the post-publish watermark.
  std::uint64_t fan_out(std::shared_ptr<const ModelSnapshot> snap)
      GSIGHT_EXCLUDES(route_mutex_);
  std::uint64_t watermark_locked() const GSIGHT_REQUIRES(route_mutex_);
  void mark(const char* name,
            std::vector<std::pair<std::string, std::string>> args);

  const FleetRequest request_;
  /// Clock members are set once in the constructor and immutable after.
  std::unique_ptr<ManualClock> own_clock_;  // gsight-analyze: allow(unguarded-member)
  const Clock* clock_ = nullptr;  // gsight-analyze: allow(unguarded-member)
  std::uint64_t start_ns_ = 0;  // gsight-analyze: allow(unguarded-member)

  /// Fixed at construction; the services are internally synchronized.
  std::vector<std::unique_ptr<PredictionService>> replicas_;  // gsight-analyze: allow(unguarded-member)

  /// Routing state: activation flips, route lookups and snapshot fan-out
  /// serialise here, which is what keeps the watermark monotonic across
  /// concurrent publishes and re-adds.
  mutable core::Mutex route_mutex_;
  Router router_ GSIGHT_GUARDED_BY(route_mutex_);
  std::shared_ptr<const ModelSnapshot> latest_snap_
      GSIGHT_GUARDED_BY(route_mutex_);

  std::atomic<obs::LiveStreamSink*> live_{nullptr};
  std::atomic<bool> accepting_{true};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> readds_{0};
  std::vector<std::atomic<std::uint64_t>> routed_;

  /// The central trainer; its rounds fan out. Internally synchronized,
  /// and declared after everything fan_out touches.
  OnlineTrainer trainer_;  // gsight-analyze: allow(unguarded-member)
};

}  // namespace gsight::serve
