// gsight-analyze: hot-path
#include "sim/platform.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "stats/seed_stream.hpp"

namespace gsight::sim {

namespace {
/// Named sub-stream of the platform seed (DESIGN.md §9) feeding the
/// synchronized-clone jitter Rng.
constexpr std::uint64_t kCloneJitterTag = 0x434C4F4E4A495454ULL;  // CLONJITT
}  // namespace

std::vector<double> AppStats::e2e_values() const {
  std::vector<double> out;
  out.reserve(e2e.size());
  for (const auto& [t, l] : e2e) out.push_back(l);
  return out;
}

std::vector<double> AppStats::fn_latency_values(std::size_t fn) const {
  std::vector<double> out;
  const auto& src = fn_latency.at(fn);
  out.reserve(src.size());
  for (const auto& [t, l] : src) out.push_back(l);
  return out;
}

std::vector<double> AppStats::e2e_values_between(double t0, double t1) const {
  std::vector<double> out;
  for (const auto& [t, l] : e2e) {
    if (t >= t0 && t < t1) out.push_back(l);
  }
  return out;
}

Platform::Platform(PlatformConfig config)
    : config_(config),
      model_(config.interference),
      recorder_(config.metric_window_s),
      rng_(config.seed),
      clone_rng_(stats::SeedStream::derive(config.seed, kCloneJitterTag)) {
  config_.validate();
  std::vector<ServerConfig> servers(config_.servers, config_.server);
  cluster_ = std::make_unique<Cluster>(&engine_, &model_, servers, &recorder_,
                                       rng_.next());
  gateway_ = std::make_unique<Gateway>(&engine_, config_.gateway);
  gateway_->set_backend_backlog_source(
      [this] { return cluster_->total_backlog(); });
  gateway_->set_instance_count_source(
      [this] { return cluster_->total_instances(); });
  tracer_.set_sink(config_.trace_sink != nullptr
                       ? config_.trace_sink
                       : (config_.use_default_trace_sink
                              ? obs::default_trace_sink()
                              : nullptr));
  cluster_->set_tracer(&tracer_);
  gateway_->set_observability(
      &tracer_, &metrics_.counter("gateway.forwards"),
      &metrics_.histogram("gateway.forward_latency_s"));
}

Platform::~Platform() = default;

std::size_t Platform::deploy(const wl::App& app,
                             const std::vector<std::size_t>& fn_to_server) {
  app.validate();
  if (fn_to_server.size() != app.function_count()) {
    throw std::invalid_argument("deploy: placement size mismatch for " +
                                app.name);
  }
  auto deployed = std::make_unique<DeployedApp>();
  deployed->app = app;
  deployed->replicas.resize(app.function_count());
  deployed->rr.assign(app.function_count(), 0);
  deployed->stats.fn_latency.resize(app.function_count());
  deployed->stats.fn_ipc.resize(app.function_count());
  const std::size_t id = apps_.size();
  apps_.push_back(std::move(deployed));
  for (std::size_t fn = 0; fn < app.function_count(); ++fn) {
    add_replica(id, fn, fn_to_server[fn]);
  }
  return id;
}

std::vector<Instance*> Platform::replicas(std::size_t app,
                                          std::size_t fn) const {
  return apps_.at(app)->replicas.at(fn);
}

Instance* Platform::add_replica(std::size_t app, std::size_t fn,
                                std::size_t server_idx) {
  DeployedApp& d = *apps_.at(app);
  Instance* inst = cluster_->create_instance(
      app, fn, &d.app.function(fn), server_idx, config_.instance);
  d.replicas.at(fn).push_back(inst);
  // Pre-warm LS replicas (paper §5.2: cold starts can be hidden by
  // pre-warmed functions): the warm-up invocation pays the startup cost
  // off the request path; the router gates on warm().
  if (d.app.cls == wl::WorkloadClass::kLatencySensitive) {
    inst->submit([](const InvocationResult&) {});
  }
  return inst;
}

bool Platform::remove_replica(std::size_t app, std::size_t fn,
                              std::size_t min_keep) {
  DeployedApp& d = *apps_.at(app);
  auto& reps = d.replicas.at(fn);
  // Count replicas not already retiring.
  std::size_t live = 0;
  for (auto* r : reps) {
    if (!r->draining()) ++live;
  }
  if (live <= min_keep) return false;
  // Retire the most recently added live replica.
  for (auto it = reps.rbegin(); it != reps.rend(); ++it) {
    if (!(*it)->draining()) {
      (*it)->retire();
      retired_.push_back(*it);
      gc_retired();
      return true;
    }
  }
  return false;
}

void Platform::gc_retired() {
  for (auto it = retired_.begin(); it != retired_.end();) {
    Instance* inst = *it;
    if (inst->idle()) {
      // Unlink from the app's replica list, then destroy.
      auto& reps = apps_.at(inst->app_index())->replicas.at(inst->fn_index());
      reps.erase(std::remove(reps.begin(), reps.end(), inst), reps.end());
      cluster_->destroy_instance(inst);
      it = retired_.erase(it);
    } else {
      // Try again shortly; the instance is still draining.
      ++it;
    }
  }
  if (!retired_.empty()) {
    engine_.after(0.5, [this] { gc_retired(); });
  }
}

Instance* Platform::route(std::size_t app, std::size_t fn) {
  DeployedApp& d = *apps_.at(app);
  auto& reps = d.replicas.at(fn);
  if (reps.empty()) return nullptr;
  const std::size_t n = reps.size();
  // Prefer warm replicas (readiness gating): a replica still executing its
  // cold start should not receive live traffic — it is pre-warmed by
  // add_replica and joins the rotation once ready.
  Instance* cold_fallback = nullptr;
  for (std::size_t probe = 0; probe < n; ++probe) {
    Instance* inst = reps[d.rr[fn] % n];
    d.rr[fn] = (d.rr[fn] + 1) % n;
    if (inst->draining()) continue;
    if (inst->warm()) return inst;
    if (cold_fallback == nullptr) cold_fallback = inst;
  }
  if (cold_fallback != nullptr) return cold_fallback;
  return reps[0];  // all draining: deliver anyway rather than drop
}

Instance* Platform::route_clone(std::size_t app, std::size_t fn,
                                const Server* const* exclude, std::size_t n) {
  DeployedApp& d = *apps_.at(app);
  auto& reps = d.replicas.at(fn);
  if (reps.empty()) return nullptr;
  const std::size_t count = reps.size();
  const auto excluded = [exclude, n](const Instance* inst) {
    for (std::size_t i = 0; i < n; ++i) {
      if (exclude[i] == &inst->server()) return true;
    }
    return false;
  };
  // Same round-robin warm-preference probe as route(), sharing the
  // cursor, but replicas on excluded (sibling-clone) servers are skipped
  // and there is no all-draining fallback: a clone that cannot reach a
  // distinct server is surplus and simply not dispatched.
  Instance* cold_fallback = nullptr;
  for (std::size_t probe = 0; probe < count; ++probe) {
    Instance* inst = reps[d.rr[fn] % count];
    d.rr[fn] = (d.rr[fn] + 1) % count;
    if (inst->draining() || excluded(inst)) continue;
    if (inst->warm()) return inst;
    if (cold_fallback == nullptr) cold_fallback = inst;
  }
  return cold_fallback;
}

double Platform::clone_jitter(std::size_t app, std::size_t fn) {
  const wl::FunctionSpec& spec = apps_.at(app)->app.function(fn);
  return spec.jitter_sigma > 0.0
             ? clone_rng_.lognormal_median(1.0, spec.jitter_sigma)
             : 1.0;
}

void Platform::on_request_done(std::size_t app, RequestKind kind,
                               double latency_s, bool ok) {
  AppStats& stats = apps_.at(app)->stats;
  if (kind == RequestKind::kRequest) {
    if (ok) {
      stats.e2e.emplace_back(engine_.now(), latency_s);
    } else {
      ++stats.failed;
    }
  } else if (ok) {
    stats.jct.emplace_back(engine_.now(), latency_s);
  }
}

void Platform::on_fn_done(std::size_t app, std::size_t fn,
                          const InvocationResult& result) {
  AppStats& stats = apps_.at(app)->stats;
  stats.fn_latency[fn].emplace_back(engine_.now(), result.local_latency_s);
  stats.fn_ipc[fn].add(result.mean_ipc);
}

void Platform::on_request_cancelled(std::size_t app, RequestKind kind) {
  (void)kind;
  ++apps_.at(app)->stats.cancelled;
}

void Platform::on_clone_accounting(std::size_t app, std::uint32_t dispatched,
                                   std::uint32_t cancelled) {
  AppStats& stats = apps_.at(app)->stats;
  stats.clones_dispatched += dispatched;
  stats.clones_cancelled += cancelled;
}

void Platform::issue_request(std::size_t app,
                             std::function<void(double, bool)> on_done) {
  DeployedApp& d = *apps_.at(app);
  ++d.arrivals_since_drain;
  RequestRef ctx = request_pool_.acquire(
      &d.app, app, &engine_, gateway_.get(), this, this, RequestKind::kRequest,
      std::move(on_done), nullptr, &tracer_, next_request_id_++);
  ctx->launch();
}

std::uint64_t Platform::issue_tracked_request(
    std::size_t app, std::function<void(double, bool)> on_done) {
  DeployedApp& d = *apps_.at(app);
  ++d.arrivals_since_drain;
  const std::uint64_t handle = next_request_id_++;
  // The wrapper untracks on completion; cancel_request untracks on
  // retraction — either way the pool gets its context back.
  RequestRef ctx = request_pool_.acquire(
      &d.app, app, &engine_, gateway_.get(), this, this, RequestKind::kRequest,
      [this, handle, user = std::move(on_done)](double latency, bool ok) {
        tracked_.erase(handle);
        if (user) user(latency, ok);
      },
      nullptr, &tracer_, handle);
  tracked_.emplace(handle, ctx);
  ctx->launch();
  return handle;
}

bool Platform::cancel_request(std::uint64_t handle) {
  const auto it = tracked_.find(handle);
  if (it == tracked_.end()) return false;
  RequestRef ctx = it->second;  // keep the context alive across cancel()
  tracked_.erase(it);
  return ctx->cancel();
}

void Platform::submit_job(std::size_t app, std::function<void(double)> on_done) {
  DeployedApp& d = *apps_.at(app);
  RequestRef ctx = request_pool_.acquire(
      &d.app, app, &engine_, gateway_.get(), this, this, RequestKind::kJob,
      nullptr, std::move(on_done), &tracer_, next_request_id_++);
  ctx->launch();
}

std::size_t Platform::abort_executions(std::size_t app) {
  std::size_t aborted = 0;
  DeployedApp& d = *apps_.at(app);
  for (auto& reps : d.replicas) {
    for (Instance* inst : reps) {
      Server& server = inst->server();
      for (const ExecId id : server.executions_of(inst)) {
        if (server.abort_execution(id)) ++aborted;
      }
    }
  }
  return aborted;
}

void Platform::schedule_next_arrival(std::size_t app, double rate_cap,
                                     std::function<double(double)> rate,
                                     std::uint64_t generation) {
  // Thinned Poisson process: candidate arrivals at `rate_cap`, accepted
  // with probability rate(now)/rate_cap.
  const double gap = rng_.exponential(rate_cap);
  // The event fires once, so the rate function moves on to the next
  // arrival instead of being copied.
  auto arrive = [this, app, rate_cap, rate = std::move(rate),
                 generation]() mutable {
    DeployedApp& d = *apps_.at(app);
    if (d.load_generation != generation) return;  // load was changed
    const double r = rate(engine_.now());
    if (r > 0.0 && rng_.uniform() < r / rate_cap) issue_request(app);
    schedule_next_arrival(app, rate_cap, std::move(rate), generation);
  };
  static_assert(EventQueue::Callback::stores_inline<decltype(arrive)>);
  engine_.after(gap, std::move(arrive));
}

void Platform::set_open_loop(std::size_t app, double qps) {
  DeployedApp& d = *apps_.at(app);
  ++d.load_generation;
  if (qps <= 0.0) return;
  schedule_next_arrival(
      app, qps, [qps](double) { return qps; }, d.load_generation);
}

void Platform::set_rate_function(std::size_t app,
                                 std::function<double(double)> rate,
                                 double peak_rate) {
  DeployedApp& d = *apps_.at(app);
  ++d.load_generation;
  if (peak_rate <= 0.0) return;
  schedule_next_arrival(app, peak_rate, std::move(rate), d.load_generation);
}

std::uint64_t Platform::drain_arrival_count(std::size_t app) {
  DeployedApp& d = *apps_.at(app);
  const std::uint64_t n = d.arrivals_since_drain;
  d.arrivals_since_drain = 0;
  return n;
}

std::size_t Platform::queued_invocations(std::size_t app,
                                         std::size_t fn) const {
  std::size_t n = 0;
  for (const Instance* inst : apps_.at(app)->replicas.at(fn)) {
    n += inst->backlog();
  }
  return n;
}

void Platform::refresh_metrics() {
  metrics_.gauge("engine.events")
      .set(static_cast<double>(engine_.events_executed()));
  metrics_.gauge("engine.sim_time_s").set(engine_.now());
  metrics_.gauge("cluster.instances")
      .set(static_cast<double>(cluster_->total_instances()));
  metrics_.gauge("cluster.instances_created")
      .set(static_cast<double>(cluster_->instances_created()));
  metrics_.gauge("cluster.instances_destroyed")
      .set(static_cast<double>(cluster_->instances_destroyed()));
  metrics_.gauge("cluster.backlog")
      .set(static_cast<double>(cluster_->total_backlog()));
  metrics_.gauge("cluster.function_density").set(function_density());
  metrics_.gauge("cluster.cpu_utilization").set(cluster_->cpu_utilization());
  metrics_.gauge("cluster.mem_utilization")
      .set(cluster_->memory_utilization());
  metrics_.gauge("gateway.queue_depth")
      .set(static_cast<double>(gateway_->queue_depth()));
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const DeployedApp& d = *apps_[i];
    const obs::Labels labels{{"app", d.app.name}};
    metrics_.gauge("app.requests_ok", labels)
        .set(static_cast<double>(d.stats.e2e.size()));
    metrics_.gauge("app.requests_failed", labels)
        .set(static_cast<double>(d.stats.failed));
    metrics_.gauge("app.jobs_done", labels)
        .set(static_cast<double>(d.stats.jct.size()));
    metrics_.gauge("app.requests_cancelled", labels)
        .set(static_cast<double>(d.stats.cancelled));
    metrics_.gauge("app.clones_dispatched", labels)
        .set(static_cast<double>(d.stats.clones_dispatched));
    metrics_.gauge("app.clones_cancelled", labels)
        .set(static_cast<double>(d.stats.clones_cancelled));
  }
}

double Platform::function_density() const {
  // Instances per core of the *active* servers (those hosting at least one
  // instance): packing onto fewer servers raises density, which is the
  // §4 objective ("minimum number of active servers").
  double cores = 0.0;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    if (cluster_->server(i).resident_count() > 0) {
      cores += cluster_->server(i).config().cores;
    }
  }
  return cores > 0.0
             ? static_cast<double>(cluster_->total_instances()) / cores
             : 0.0;
}

}  // namespace gsight::sim
