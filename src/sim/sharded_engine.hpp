// ShardedEngine — the coordinator of a sharded simulation (DESIGN.md
// §13). It owns one Shard per cluster cell and advances them in lockstep
// epochs: every cell runs alone to the next barrier (cells spread over
// `topology.shards` executor lanes, each lane optionally on its own
// ml::ThreadPool thread), then the coordinator serially replays the
// epoch's cross-cell messages in (epoch, source, seq) order and opens the
// next epoch. Epoch length never exceeds the cross-cell hop latency, so a
// message posted in an epoch always takes effect after the barrier that
// closes it — no cell can ever observe another cell mid-epoch.
//
// Determinism: cell state is a function of (cell configs, root seed,
// message replay order) only. Lane assignment and thread count change
// which OS thread runs a cell, never what the cell computes — so runs
// with any `--shards N` and any thread count are byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/mailbox.hpp"
#include "sim/shard.hpp"

namespace gsight::ml {
class ThreadPool;
}  // namespace gsight::ml

namespace gsight::sim {

/// Multi-cluster shape for sharded runs (DESIGN.md §13). The simulated
/// estate is a fixed set of `clusters` identical cluster cells; `shards`
/// picks how many executor lanes advance those cells. Results depend only
/// on the cells and the root seed — never on the lane count or thread
/// count — which is what makes an N-shard run byte-identical to the
/// 1-shard run.
struct ShardTopology {
  /// Number of cluster cells. Each cell owns a private engine, event
  /// queue, gateway, recorder and RNG; `ShardedEngineConfig::servers` is
  /// the size of EACH cell.
  std::size_t clusters = 1;
  /// Executor lanes (`--shards N`). 0 means one lane per cell; values
  /// above `clusters` are clamped. Cells map to lanes as `cell % lanes`.
  std::size_t shards = 0;
  /// Minimum cross-cell latency: the gateway -> cluster hop. No message
  /// posted in an epoch can take effect sooner than this, which is what
  /// lets cells advance an epoch without hearing from each other.
  double hop_latency_s = 0.01;
  /// Epoch barrier spacing. 0 derives it from hop_latency_s (the largest
  /// safe value); an explicit value must not exceed hop_latency_s or the
  /// conservative-synchronization argument breaks.
  double epoch_s = 0.0;

  std::size_t lanes() const {
    if (shards == 0 || shards > clusters) return clusters;
    return shards;
  }
  double epoch_length() const { return epoch_s > 0.0 ? epoch_s : hop_latency_s; }

  /// Throws std::invalid_argument on zero cells, a non-positive/non-finite
  /// hop, or an epoch longer than the hop.
  void validate() const;
};

/// Cluster shape (per cell) and root seed come from the embedded
/// ClusterSpec; the fields below are the sharded-run knobs, which only
/// the sharded engine reads and validate() checks.
struct ShardedEngineConfig : ClusterSpec {
  ShardTopology topology;
  GatewayConfig gateway;
  InstanceConfig instance;
  double metric_window_s = 1.0;
  /// Worker threads for the lane executor. 1 runs every lane on the
  /// calling thread (serial); 0 selects hardware concurrency. The result
  /// is byte-identical either way.
  std::size_t threads = 1;
  /// Per-arrival probability of a cross-cell handoff.
  double remote_fraction = 0.05;
  /// Turn handoffs into cross-cell clone pairs (first completion cancels
  /// the sibling through the mailbox). See ShardConfig::clone_handoffs.
  bool clone_handoffs = false;
  /// Diurnal load shape driven on every cell (base_qps is per cell).
  wl::AzureTraceConfig trace;

  /// Throws std::invalid_argument naming the first bad field: the
  /// ClusterSpec checks, a bad topology, or a remote_fraction outside
  /// [0, 1] (NaN included). The ShardedEngine ctor calls this.
  void validate() const;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config);
  ~ShardedEngine();

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t lanes() const { return config_.topology.lanes(); }
  Shard& shard(std::size_t i) { return *shards_.at(i); }
  const ShardedEngineConfig& config() const { return config_; }

  /// Deploy the synthetic edge app on every cell and start each cell's
  /// diurnal load loop (the standard setup of the scaling bench and the
  /// determinism suite).
  void deploy_default_load();

  /// Advance every cell to `t` through lockstep epochs.
  void run_until(SimTime t);

  SimTime now() const { return now_; }
  std::uint64_t epochs_run() const { return epoch_; }
  /// Sum of events executed across all cells.
  std::uint64_t events_executed() const;
  std::uint64_t messages_exchanged() const {
    return mailbox_.messages_exchanged();
  }
  /// The run's mailbox. Cell code reaches its own outbox through the
  /// Shard; this accessor exists for components (and tests) that inject
  /// cross-cell effects from outside the standard load loop.
  Mailbox& mailbox() { return mailbox_; }

  /// Concatenated per-cell digests (cell order). The byte-identity
  /// artifact: equal strings iff the runs are bit-identical.
  std::string merged_digest() const;

  /// Snapshot per-cell gauges into this engine's registry with a
  /// {"shard": i} label on every sample, plus run-level totals.
  void refresh_metrics();
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  void advance_lane(std::size_t lane, SimTime barrier);
  void exchange_at_barrier(SimTime barrier);

  ShardedEngineConfig config_;
  Mailbox mailbox_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ml::ThreadPool> pool_;  ///< null when threads == 1
  obs::MetricsRegistry metrics_;
  SimTime now_ = 0.0;
  std::uint64_t epoch_ = 0;
};

}  // namespace gsight::sim
