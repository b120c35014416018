// gsight-analyze: hot-path
#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "core/lock.hpp"
#include "ml/matrix.hpp"

namespace gsight::serve {

namespace {

/// Validate-then-return, so member initialisers never see a bad config.
ServiceConfig validated(ServiceConfig config) {
  config.validate();
  return config;
}

}  // namespace

void ServiceConfig::validate() const {
  if (feature_dim == 0) {
    throw std::invalid_argument("ServiceConfig: feature_dim is required");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "ServiceConfig: queue_capacity must be non-zero");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("ServiceConfig: max_batch must be non-zero");
  }
  if (batch_linger.count() < 0) {
    throw std::invalid_argument(
        "ServiceConfig: batch_linger must be non-negative");
  }
  if (observe_capacity == 0) {
    throw std::invalid_argument(
        "ServiceConfig: observe_capacity must be non-zero");
  }
  if (train_batch == 0) {
    throw std::invalid_argument("ServiceConfig: train_batch must be non-zero");
  }
  if (max_train_drain == 0) {
    throw std::invalid_argument(
        "ServiceConfig: max_train_drain must be non-zero");
  }
}

OnlineTrainer::OnlineTrainer(const ServiceConfig& config,
                             ml::IncrementalForest model, Publish publish)
    : config_(config),
      publish_(std::move(publish)),
      queue_(config.observe_capacity),
      model_(std::move(model)) {}

std::shared_ptr<const ModelSnapshot> OnlineTrainer::trained_snapshot() {
  core::MutexLock lock(train_mutex_);
  if (model_.version() == 0) return nullptr;
  return ModelSnapshot::freeze(model_);
}

bool OnlineTrainer::observe(std::vector<double> features, double label) {
  if (features.size() != config_.feature_dim) {
    throw std::invalid_argument(
        "OnlineTrainer::observe: feature dimension mismatch");
  }
  if (!accepting_.load(std::memory_order_acquire) ||
      !queue_.try_push({std::move(features), label})) {
    observed_shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  observed_.fetch_add(1, std::memory_order_relaxed);
  if (config_.worker_threads > 0) maybe_schedule();
  return true;
}

bool OnlineTrainer::train_round() {
  core::MutexLock lock(train_mutex_);
  std::vector<Observation> drained;
  queue_.try_pop_batch(drained, config_.max_train_drain);
  if (drained.empty()) return false;
  ml::Dataset batch(config_.feature_dim);
  for (const auto& obs : drained) batch.add(obs.features, obs.label);
  model_.partial_fit(batch);
  rounds_.fetch_add(1, std::memory_order_relaxed);
  // Freeze and publish under the training lock: the model cannot advance
  // mid-copy, and snapshots reach their destination in version order.
  return publish_(ModelSnapshot::freeze(model_));
}

void OnlineTrainer::maybe_schedule() {
  if (queue_.size() < config_.train_batch) return;
  if (pending_.exchange(true, std::memory_order_acq_rel)) return;
  core::MutexLock lock(pool_mutex_);
  if (!accepting_.load(std::memory_order_acquire)) {
    pending_.store(false, std::memory_order_release);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ml::ThreadPool>(1);
  // Fire-and-forget: the future is intentionally dropped; sequencing is
  // enforced by train_mutex_ plus the single-threaded pool.
  pool_->submit([this] {
    train_round();
    pending_.store(false, std::memory_order_release);
    // Re-check: observations may have crossed the threshold again while
    // this round was running and submissions stopped arriving.
    maybe_schedule();
  });
}

void OnlineTrainer::stop() {
  std::unique_ptr<ml::ThreadPool> pool;
  {
    core::MutexLock lock(pool_mutex_);
    accepting_.store(false, std::memory_order_release);
    pool = std::move(pool_);
  }
  // A closed queue stays poppable, so a round already queued on the pool
  // still folds what it finds; the pool destructor runs it before joining.
  queue_.close();
  pool.reset();
}

PredictionService::PredictionService(ServiceConfig config,
                                     ml::IncrementalForest model)
    : config_(validated(config)),
      requests_(config.queue_capacity),
      trainer_(config_, std::move(model),
               [this](std::shared_ptr<const ModelSnapshot> snap) {
                 return slot_.publish(std::move(snap));
               }),
      sync_scratch_(config.feature_dim),
      batch_size_counts_(config.max_batch) {
  if (config_.clock != nullptr) {
    clock_ = config_.clock;
  } else if (config_.worker_threads == 0) {
    own_clock_ = std::make_unique<ManualClock>();
    clock_ = own_clock_.get();
  } else {
    clock_ = &SteadyClock::instance();
  }
  // A pre-trained model goes live immediately; a cold one serves zeros
  // until the first training round publishes version 1.
  if (auto snap = trainer_.trained_snapshot()) slot_.publish(std::move(snap));
}

PredictionService::~PredictionService() { stop(); }

void PredictionService::start() {
  core::MutexLock lock(lifecycle_mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  if (config_.worker_threads == 0) return;  // synchronous mode: poll-driven
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void PredictionService::stop() {
  {
    core::MutexLock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
    accepting_.store(false, std::memory_order_release);
  }
  trainer_.stop();
  // Closing wakes blocked workers; they drain what is already queued
  // (every accepted request gets its callback) and exit.
  requests_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

bool PredictionService::submit(std::vector<double> features, Callback done) {
  if (features.size() != config_.feature_dim) {
    throw std::invalid_argument(
        "PredictionService::submit: feature dimension mismatch");
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Request req;
  req.features = std::move(features);
  req.submit_ns = clock_->now_ns();
  req.done = std::move(done);
  if (!requests_.try_push(std::move(req))) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<PredictResult> PredictionService::predict_wait(
    std::vector<double> features) {
  GSIGHT_ASSERT(config_.worker_threads > 0,
                "predict_wait needs worker threads (synchronous mode would "
                "deadlock; use submit + poll)");
  // One allocation per *waiting* caller is inherent to the blocking
  // convenience API (the promise must outlive this frame if the batch
  // completes on another worker); the queue-and-callback path is the
  // allocation-free one.
  auto state = std::make_shared<std::promise<PredictResult>>();  // gsight-analyze: allow(hot-alloc)
  auto result = state->get_future();
  if (!submit(std::move(features),
              [state](const PredictResult& r) { state->set_value(r); })) {
    return std::nullopt;
  }
  return result.get();
}

std::size_t PredictionService::poll() {
  GSIGHT_ASSERT(config_.worker_threads == 0,
                "poll drives synchronous mode only; threaded services "
                "batch on their own workers");
  std::vector<Request> batch;
  requests_.try_pop_batch(batch, config_.max_batch);
  const std::size_t served =
      batch.empty() ? 0 : process_batch(batch, sync_scratch_);
  trainer_.train_if_due();
  return served;
}

void PredictionService::worker_loop() {
  std::vector<Request> batch;
  BatchScratch scratch(config_.feature_dim);  // worker-local: no sharing
  for (;;) {
    batch.clear();
    const std::size_t n =
        requests_.pop_batch(batch, config_.max_batch, config_.batch_linger);
    if (n == 0) return;  // closed and drained
    process_batch(batch, scratch);
  }
}

std::size_t PredictionService::process_batch(std::vector<Request>& batch,
                                             BatchScratch& scratch) {
  const auto snap = slot_.load();
  ml::Matrix& xs = scratch.xs;
  xs.clear_rows();
  xs.reserve_rows(batch.size());
  for (const auto& req : batch) xs.push_row(req.features);
  std::vector<double>& values = scratch.values;
  if (snap) {
    snap->forest.predict_batch(xs, values);
  } else {
    values.assign(batch.size(), 0.0);  // cold model: IncrementalRegressor
                                       // contract is predict() == 0
  }
  const std::uint64_t done_ns = clock_->now_ns();
  const auto size = static_cast<std::uint32_t>(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PredictResult result;
    result.value = values[i];
    result.model_version = snap ? snap->version : 0;
    result.latency_ns = done_ns >= batch[i].submit_ns
                            ? done_ns - batch[i].submit_ns
                            : 0;
    result.batch_size = size;
    if (batch[i].done) batch[i].done(result);
  }
  predicted_.fetch_add(batch.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_size_counts_[batch.size() - 1].fetch_add(1,
                                                 std::memory_order_relaxed);
  return batch.size();
}

ServiceStats PredictionService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.predicted = predicted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.observations = trainer_.observations();
  s.observations_shed = trainer_.observations_shed();
  s.train_rounds = trainer_.rounds();
  // One critical section for (version, swaps): a mid-run stats reader
  // must never see a freshly swapped version next to the old swap count.
  const SnapshotSlot::SlotInfo slot = slot_.info();
  s.snapshot_swaps = slot.swaps;
  s.model_version = slot.version;
  s.batch_size_counts.reserve(batch_size_counts_.size());
  for (const auto& c : batch_size_counts_) {
    s.batch_size_counts.push_back(c.load(std::memory_order_relaxed));
  }
  return s;
}

void PredictionService::export_metrics(obs::MetricsRegistry& registry) const {
  const ServiceStats s = stats();
  registry.counter("serve.requests_accepted").inc(static_cast<double>(s.accepted));
  registry.counter("serve.requests_shed").inc(static_cast<double>(s.shed));
  registry.counter("serve.predictions").inc(static_cast<double>(s.predicted));
  registry.counter("serve.batches").inc(static_cast<double>(s.batches));
  registry.counter("serve.observations").inc(static_cast<double>(s.observations));
  registry.counter("serve.observations_shed")
      .inc(static_cast<double>(s.observations_shed));
  registry.counter("serve.train_rounds").inc(static_cast<double>(s.train_rounds));
  registry.counter("serve.snapshot_swaps")
      .inc(static_cast<double>(s.snapshot_swaps));
  registry.gauge("serve.model_version").set(static_cast<double>(s.model_version));
  // Batch-size histogram: bucket upper bounds 1..max_batch, one sample
  // per served micro-batch.
  std::vector<double> bounds;
  bounds.reserve(s.batch_size_counts.size());
  for (std::size_t i = 0; i < s.batch_size_counts.size(); ++i) {
    bounds.push_back(static_cast<double>(i + 1));
  }
  auto& hist = registry.histogram("serve.batch_size", {}, std::move(bounds));
  for (std::size_t i = 0; i < s.batch_size_counts.size(); ++i) {
    for (std::uint64_t k = 0; k < s.batch_size_counts[i]; ++k) {
      hist.observe(static_cast<double>(i + 1));
    }
  }
}

}  // namespace gsight::serve
