// Cluster — the set of servers plus instance lifecycle management.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "sim/instance.hpp"
#include "sim/server.hpp"
#include "stats/rng.hpp"

namespace gsight::sim {

class Cluster {
 public:
  Cluster(Engine* engine, const InterferenceModel* model,
          std::vector<ServerConfig> servers, ExecSliceSink* sink,
          std::uint64_t seed);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t size() const { return servers_.size(); }
  Server& server(std::size_t i) { return *servers_.at(i); }
  const Server& server(std::size_t i) const { return *servers_.at(i); }

  /// Create one replica of (app, fn) on `server_idx`.
  Instance* create_instance(std::size_t app, std::size_t fn,
                            const wl::FunctionSpec* spec,
                            std::size_t server_idx, InstanceConfig config);
  /// Destroy an instance. Must be idle (no running or queued work);
  /// returns false (and leaves it alive) otherwise. The pointer must be a
  /// live instance of this cluster — pass the id instead when the instance
  /// may already be gone.
  bool destroy_instance(Instance* instance);
  /// Destroy by id; returns false when no such instance exists (safe for
  /// ids that may already have been destroyed).
  bool destroy_instance(std::uint64_t id);

  std::size_t total_instances() const { return instances_.size(); }
  /// Invocations queued or running across all instances (the gateway's
  /// backlog signal): the sum of every instance's Instance::backlog().
  /// O(1) — instances keep the counter current as work arrives, starts,
  /// finishes and is cancelled.
  std::size_t total_backlog() const { return backlog_; }
  /// All live instances, ordered by creation (instance id) so callers that
  /// iterate — schedulers, autoscalers, metric sweeps — are
  /// replay-deterministic.
  std::vector<Instance*> instances() const;
  /// Lifetime counters (instance-accounting invariant: created - destroyed
  /// == live).
  std::uint64_t instances_created() const { return created_; }
  std::uint64_t instances_destroyed() const { return destroyed_; }

  /// Observability: forwards the platform tracer to every server so
  /// completed executions land on per-server trace lanes.
  void set_tracer(obs::Tracer* tracer);

  /// Cluster-wide CPU utilisation (mean over servers).
  double cpu_utilization() const;
  /// Cluster-wide memory utilisation from resident instances.
  double memory_utilization() const;

 private:
  Engine* engine_;
  const InterferenceModel* model_;
  ExecSliceSink* sink_;
  std::vector<std::unique_ptr<Server>> servers_;
  // Keyed by the monotonically assigned instance id, *not* by pointer:
  // pointer-keyed unordered maps iterate in allocator-dependent order,
  // which silently breaks bit-exact replay (backlog sums and instance
  // sweeps would visit instances in address order).
  std::map<std::uint64_t, std::unique_ptr<Instance>> instances_;
  std::uint64_t next_instance_id_ = 1;
  std::uint64_t created_ = 0;
  std::uint64_t destroyed_ = 0;
  /// Sum of Instance::backlog() over instances_, maintained by the
  /// instances themselves (Instance::backlog_added/backlog_removed).
  std::size_t backlog_ = 0;
  stats::Rng rng_;
};

}  // namespace gsight::sim
