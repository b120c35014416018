// PredictionService — the resident, online serving loop around Gsight's
// incremental forest. Production inference-stack shape: requests enter an
// admission-controlled bounded queue, worker threads coalesce them into
// micro-batches (configurable max size and batch-forming deadline) that
// hit the forest's batched fast path, and a background trainer folds
// observed (features, QoS) samples into the model and atomically
// publishes fresh versioned snapshots — predictions never block on
// training and never observe a half-built model.
//
// Two execution regimes share all of this code:
//
//   worker_threads > 0 — the real daemon. Workers and the background
//     trainer (fire-and-forget rounds on a one-thread pool that starts
//     with the first round) run concurrently; time comes from SteadyClock.
//
//   worker_threads == 0 — synchronous mode. No threads are spawned; the
//     caller drives batching and training explicitly through poll(),
//     and time comes from a ManualClock. Same queue, same admission
//     control, same batch policy — but fully deterministic, which is
//     what makes the serve-bench twin-run determinism gate possible.
//
// Overload degrades gracefully instead of stretching latency: when the
// request queue is full, submit() fails immediately and the shed counter
// ticks (load shedding); the observation queue sheds the same way, since
// losing a training sample is always acceptable.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/lock.hpp"
#include "ml/incremental_forest.hpp"
#include "ml/matrix.hpp"
#include "ml/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/clock.hpp"
#include "serve/snapshot.hpp"

namespace gsight::serve {

struct ServiceConfig {
  /// Width of request feature vectors (required; submissions of any
  /// other width are rejected with std::invalid_argument).
  std::size_t feature_dim = 0;
  /// Request-queue bound: admission control. Full queue = shed.
  std::size_t queue_capacity = 1024;
  /// Micro-batch cap: at most this many requests per forest traversal.
  std::size_t max_batch = 32;
  /// Batch-forming deadline: how long a worker lingers for a batch to
  /// fill once its first request is in hand. 0 = serve immediately.
  std::chrono::nanoseconds batch_linger{50'000};
  /// Prediction workers. 0 selects synchronous mode (poll-driven).
  std::size_t worker_threads = 1;
  /// Observation-queue bound (training samples awaiting folding).
  std::size_t observe_capacity = 4096;
  /// Observations that trigger a background training round.
  std::size_t train_batch = 64;
  /// Cap on rows folded per round (bounds per-round latency).
  std::size_t max_train_drain = 1024;
  /// Time source; nullptr = SteadyClock in threaded mode, an internal
  /// ManualClock in synchronous mode.
  const Clock* clock = nullptr;

  /// Throws std::invalid_argument naming the first bad field (the
  /// ClusterSpec/GatewayConfig convention). The PredictionService ctor
  /// calls this, so a service can never exist with a bad config.
  void validate() const;
};

/// What a completed prediction reports back to its submitter.
struct PredictResult {
  double value = 0.0;
  std::uint64_t model_version = 0;
  std::uint64_t latency_ns = 0;   ///< completion - submission
  std::uint32_t batch_size = 0;   ///< size of the micro-batch it rode in
};

/// Counter snapshot (see export_metrics for the registry form).
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t predicted = 0;
  std::uint64_t batches = 0;
  std::uint64_t observations = 0;
  std::uint64_t observations_shed = 0;
  std::uint64_t train_rounds = 0;
  std::uint64_t snapshot_swaps = 0;
  std::uint64_t model_version = 0;
  /// batch_size_counts[i] = micro-batches of size i + 1.
  std::vector<std::uint64_t> batch_size_counts;
};

/// The training half of the serve tier, shared by PredictionService and
/// PredictionFleet: the observation queue, the training model, one round
/// (drain, partial_fit, freeze) and fire-and-forget scheduling of rounds.
/// The owner decides where each frozen snapshot goes through `publish`,
/// which runs under the training lock so snapshots leave in version
/// order: a service publishes into its own slot, a fleet fans out to
/// every active replica.
class OnlineTrainer {
 public:
  using Publish = std::function<bool(std::shared_ptr<const ModelSnapshot>)>;

  /// Reads feature_dim, observe_capacity, train_batch, max_train_drain
  /// and worker_threads (> 0 schedules rounds in the background).
  OnlineTrainer(const ServiceConfig& config, ml::IncrementalForest model,
                Publish publish);
  ~OnlineTrainer() { stop(); }

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// The model frozen now, or nullptr while it is cold (version 0).
  std::shared_ptr<const ModelSnapshot> trained_snapshot()
      GSIGHT_EXCLUDES(train_mutex_);

  /// Queue one labelled observation. False = shed (queue full or
  /// stopped). With worker_threads > 0 a round is scheduled once
  /// train_batch observations wait.
  bool observe(std::vector<double> features, double label)
      GSIGHT_EXCLUDES(pool_mutex_);

  /// One round on the caller's thread: drain up to max_train_drain
  /// observations, partial_fit, freeze, publish. Returns what publish
  /// returned; false when nothing was queued.
  bool train_round() GSIGHT_EXCLUDES(train_mutex_);
  /// Synchronous mode: a round if train_batch observations are waiting.
  void train_if_due() {
    if (queue_.size() >= config_.train_batch) train_round();
  }

  /// Shed further observations, then let a scheduled round finish and
  /// join the pool (it cannot schedule a successor). Idempotent.
  void stop() GSIGHT_EXCLUDES(pool_mutex_);

  std::uint64_t observations() const {
    return observed_.load(std::memory_order_relaxed);
  }
  std::uint64_t observations_shed() const {
    return observed_shed_.load(std::memory_order_relaxed);
  }
  std::uint64_t rounds() const {
    return rounds_.load(std::memory_order_relaxed);
  }

 private:
  struct Observation {
    std::vector<double> features;
    double label = 0.0;
  };

  /// Fire-and-forget a round if the threshold is crossed; the pool
  /// starts here, with the first round, so a trainer that never sees an
  /// observation (a fleet replica's) parks no thread.
  void maybe_schedule() GSIGHT_EXCLUDES(pool_mutex_);

  const ServiceConfig config_;
  const Publish publish_;
  // Internally synchronized (owns its own core::Mutex).
  BoundedQueue<Observation> queue_;  // gsight-analyze: allow(unguarded-member)

  core::Mutex train_mutex_;
  ml::IncrementalForest model_ GSIGHT_GUARDED_BY(train_mutex_);

  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> observed_shed_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> pending_{false};

  /// Fences pool creation and submission against stop(), which moves the
  /// pool out under this lock and joins it outside (a running round
  /// re-enters maybe_schedule, which takes the lock). Declared last: the
  /// pool thread uses every member above.
  core::Mutex pool_mutex_;
  std::unique_ptr<ml::ThreadPool> pool_ GSIGHT_GUARDED_BY(pool_mutex_);
};

class PredictionService {
 public:
  using Callback = std::function<void(const PredictResult&)>;

  /// Takes ownership of the serving model. If the model has already been
  /// trained (version > 0) its state is frozen and published as the
  /// initial snapshot; a cold model leaves the slot empty and
  /// predictions return 0 until the first training round publishes.
  PredictionService(ServiceConfig config, ml::IncrementalForest model);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Spawn the workers (no-op in synchronous mode); the trainer thread
  /// starts with the first background round.
  void start();
  /// Close intake, drain queued work, join everything. Idempotent.
  void stop();

  /// Admission-controlled submit. False = shed (queue full or service
  /// stopping); the callback then never fires. On success the callback
  /// runs exactly once, on whichever thread completes the micro-batch
  /// (the caller's own thread in synchronous mode).
  bool submit(std::vector<double> features, Callback done);

  /// Blocking convenience for closed-loop clients (threaded mode only:
  /// in synchronous mode nothing else can poll while the caller waits).
  std::optional<PredictResult> predict_wait(std::vector<double> features);

  /// Feed one labelled observation toward the background trainer.
  /// False = shed (observation queue full or service stopping).
  bool observe(std::vector<double> features, double label) {
    return trainer_.observe(std::move(features), label);
  }

  /// Synchronous mode: serve at most one micro-batch from the queue and,
  /// if enough observations have accumulated, fold them and publish.
  /// Returns the number of predictions served.
  std::size_t poll();

  /// Fold any queued observations into the model right now (caller
  /// thread) and publish if the model advanced. Returns true if a new
  /// snapshot was published.
  bool train_now() { return trainer_.train_round(); }

  /// Current model snapshot (nullptr before the first publish). The
  /// direct read path for in-process batch consumers (ServingPredictor):
  /// scheduler sweeps are already batched, so they bypass the queue but
  /// still see only fully published, versioned models.
  std::shared_ptr<const ModelSnapshot> snapshot() const {
    return slot_.load();
  }

  /// External snapshot publish — the fleet path: PredictionFleet trains
  /// one central model and pushes frozen snapshots into every replica's
  /// slot. Same strict monotonicity as the service's own trainer (stale
  /// or duplicate versions are rejected and reported false).
  bool publish(std::shared_ptr<const ModelSnapshot> next) {
    return slot_.publish(std::move(next));
  }

  /// Version of the serving snapshot (0 before the first publish); one
  /// leg of the fleet watermark.
  std::uint64_t snapshot_version() const { return slot_.version(); }

  /// Requests queued but not yet claimed by a batch — the least-queued
  /// router's load signal.
  std::size_t queue_depth() const { return requests_.size(); }

  /// Requests accepted but not yet answered (queued or mid-batch); the
  /// drain barrier waits for this to hit zero. Monotonic counters make
  /// the difference safe to read without a lock: it can transiently
  /// overshoot but reads exactly zero only when truly idle.
  std::uint64_t in_flight() const {
    const std::uint64_t done = predicted_.load(std::memory_order_acquire);
    const std::uint64_t in = accepted_.load(std::memory_order_acquire);
    return in >= done ? in - done : 0;
  }

  ServiceStats stats() const;
  /// Export counters + the batch-size histogram into a registry
  /// (single-threaded registry: call from one thread, normally after the
  /// run). Metric names are prefixed "serve.".
  void export_metrics(obs::MetricsRegistry& registry) const;

  const ServiceConfig& config() const { return config_; }
  // Not the C clock() call: an accessor for the injected time source.
  const Clock* clock() const { return clock_; }  // gsight-analyze: allow(wall-clock)
  /// The internal manual clock (synchronous mode with no explicit clock
  /// configured); nullptr otherwise.
  ManualClock* manual_clock() { return own_clock_.get(); }

 private:
  struct Request {
    std::vector<double> features;
    std::uint64_t submit_ns = 0;
    Callback done;
  };
  /// Reused per-batch buffers: feature rows land in `xs`, predictions in
  /// `values`. A steady-state micro-batch allocates nothing — both keep
  /// their high-water capacity across batches.
  struct BatchScratch {
    explicit BatchScratch(std::size_t feature_dim) : xs(0, feature_dim) {}
    ml::Matrix xs;
    std::vector<double> values;
  };

  void worker_loop();
  /// Predict one micro-batch and deliver results. Returns batch size.
  /// `scratch` is worker-local (each worker_loop owns one); synchronous
  /// mode uses sync_scratch_.
  std::size_t process_batch(std::vector<Request>& batch,
                            BatchScratch& scratch);

  /// Fixed at construction (the ctor only reads it thereafter).
  const ServiceConfig config_;
  /// Both clock members are set once in the constructor and immutable
  /// for the service's lifetime; readers on any thread are safe.
  std::unique_ptr<ManualClock> own_clock_;  // gsight-analyze: allow(unguarded-member)
  const Clock* clock_ = nullptr;  // gsight-analyze: allow(unguarded-member)

  // Internally synchronized (each owns its own core::Mutex).
  BoundedQueue<Request> requests_;  // gsight-analyze: allow(unguarded-member)
  SnapshotSlot slot_;  // gsight-analyze: allow(unguarded-member)
  /// Publishes into slot_, so it is declared (and built) after it.
  OnlineTrainer trainer_;  // gsight-analyze: allow(unguarded-member)

  /// Lifecycle: start() and stop() serialise here.
  core::Mutex lifecycle_mutex_;
  std::atomic<bool> accepting_{true};
  bool started_ GSIGHT_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ GSIGHT_GUARDED_BY(lifecycle_mutex_) = false;

  /// Mutated only by start() (under lifecycle_mutex_) and by the single
  /// stop() call that wins the stopped_ flip — the join loop runs outside
  /// the lock on purpose (joining under it would deadlock workers that
  /// take the lock), so this cannot carry GSIGHT_GUARDED_BY.
  std::vector<std::thread> workers_;  // gsight-analyze: allow(unguarded-member)

  /// Batch scratch for synchronous mode only: poll() is documented as
  /// single-caller (no threads exist in sync mode), so this needs no
  /// lock; threaded workers each carry their own scratch on the stack.
  BatchScratch sync_scratch_;  // gsight-analyze: allow(unguarded-member)

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> predicted_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::vector<std::atomic<std::uint64_t>> batch_size_counts_;
};

}  // namespace gsight::serve
