// gsight-analyze: hot-path
#include "sim/instance.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "stats/seed_stream.hpp"

namespace gsight::sim {

namespace {
/// Named sub-stream of the instance's seed (DESIGN.md §9): the latency
/// reservoir must sample independently of the jitter Rng.
constexpr std::uint64_t kLatencyReservoirStream = 1;
}  // namespace

Instance::Instance(std::uint64_t id, std::size_t app, std::size_t fn,
                   const wl::FunctionSpec* spec, Server* server, Engine* engine,
                   InstanceConfig config, std::uint64_t seed,
                   std::size_t* cluster_backlog)
    : id_(id),
      app_(app),
      fn_(fn),
      spec_(spec),
      server_(server),
      engine_(engine),
      config_(config),
      rng_(seed),
      cluster_backlog_(cluster_backlog),
      latencies_(4096,
                 stats::SeedStream::derive(seed, kLatencyReservoirStream)) {
  server_->add_resident(spec_->mem_alloc_gb);
}

Instance::~Instance() {
  // Cluster::destroy_instance only destroys idle instances; anything else
  // would leave total_backlog() counting work that no longer exists.
  GSIGHT_ASSERT(cluster_backlog_ == nullptr || backlog() == 0,
                "instance destroyed while counted in the cluster backlog");
  server_->remove_resident(spec_->mem_alloc_gb);
}

void Instance::backlog_added() {
  if (cluster_backlog_ != nullptr) ++*cluster_backlog_;
}

void Instance::backlog_removed() {
  if (cluster_backlog_ == nullptr) return;
  GSIGHT_ASSERT(*cluster_backlog_ > 0, "cluster backlog counter underflow");
  --*cluster_backlog_;
}

void Instance::materialize_phases(bool cold, double jitter_override) {
  std::size_t n = 0;
  const auto next = [this, &n]() -> wl::Phase& {
    if (n == phases_.size()) phases_.emplace_back();
    return phases_[n++];
  };
  if (cold && spec_->cold_start_s > 0.0) {
    wl::Phase& startup = next();
    startup = wl::Phase{};
    startup.name = "cold-start";
    startup.solo_duration_s = spec_->cold_start_s;
    startup.demand.cores = config_.startup_cores;
    startup.demand.disk_mbps = config_.startup_disk_mbps;
    startup.demand.llc_mb = 1.0;
    startup.demand.membw_gbps = 1.0;
    startup.demand.mem_gb = spec_->mem_alloc_gb;
    startup.demand.frac_cpu = 0.5;
    startup.demand.frac_disk = 0.4;
    startup.uarch.base_ipc = 1.0;
  }
  const double jitter =
      jitter_override > 0.0
          ? jitter_override
          : (spec_->jitter_sigma > 0.0
                 ? rng_.lognormal_median(1.0, spec_->jitter_sigma)
                 : 1.0);
  for (const auto& p : spec_->phases) {
    wl::Phase& copy = next();
    copy = p;
    copy.solo_duration_s *= jitter;
    copy.demand.mem_gb = std::max(copy.demand.mem_gb, spec_->mem_alloc_gb);
  }
  phases_.resize(n);
}

std::uint64_t Instance::submit(DoneFn done, double jitter_override) {
  const std::uint64_t ticket = next_ticket_++;
  queue_.push_back(Pending{engine_->now(), std::move(done), ticket,
                           jitter_override});
  backlog_added();
  if (!busy_) start_next();
  return ticket;
}

bool Instance::cancel(std::uint64_t ticket) {
  if (ticket == 0) return false;
  if (busy_ && ticket == current_ticket_) {
    // Abort the in-flight execution: the server erases the Exec (the
    // completion lambda — and the DoneFn it owns — is destroyed without
    // firing) and recomputes the survivors' rates.
    server_->abort_execution(current_exec_);
    busy_ = false;
    backlog_removed();
    current_exec_ = 0;
    current_ticket_ = 0;
    last_finish_ = engine_->now();
    ++cancellations_;
    if (!queue_.empty()) start_next();
    return true;
  }
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].ticket == ticket) {
      queue_.erase(i);  // destroying Pending::done releases captured refs
      backlog_removed();
      ++cancellations_;
      return true;
    }
  }
  return false;
}

void Instance::start_next() {
  GSIGHT_ASSERT(!busy_ && !queue_.empty(),
                "start_next needs an idle instance with queued work");
  // The invocation moves from the queue to running: backlog() is
  // unchanged, so the cluster counter is too.
  busy_ = true;
  Pending pending = queue_.pop_front();

  const SimTime now = engine_->now();
  const bool cold =
      !warm_ || (now - last_finish_) > config_.idle_expiry_s;
  if (cold) ++cold_starts_;
  warm_ = true;
  ++invocations_;

  const double queue_wait = now - pending.enqueued;
  current_ticket_ = pending.ticket;
  materialize_phases(cold, pending.jitter_override);
  // The closure owns the DoneFn: aborting the execution destroys both
  // without firing, releasing whatever the DoneFn captured.
  auto on_complete = [this, queue_wait, done = std::move(pending.done),
                      cold](const ExecResult& r) {
    InvocationResult inv;
    inv.queue_wait_s = queue_wait;
    inv.exec_s = r.duration_s;
    inv.local_latency_s = queue_wait + r.duration_s;
    inv.mean_ipc = r.mean_ipc;
    inv.cold = cold;
    latencies_.add(inv.local_latency_s);
    ipc_stats_.add(r.mean_ipc);
    busy_ = false;
    backlog_removed();
    last_finish_ = engine_->now();
    current_exec_ = 0;
    current_ticket_ = 0;
    if (!queue_.empty()) start_next();
    if (done) done(inv);
  };
  static_assert(Server::CompletionFn::stores_inline<decltype(on_complete)>);
  current_exec_ =
      server_->begin_execution(phases_, std::move(on_complete), /*owner=*/this);
}

}  // namespace gsight::sim
