#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/contracts.hpp"
#include "ml/thread_pool.hpp"
#include "stats/seed_stream.hpp"

namespace gsight::sim {

namespace {

/// Named sub-stream tag for per-cell platform seeds (pairs with
/// kShardLoadTag in shard.cpp; the two families must never collide).
constexpr std::uint64_t kShardPlatformTag = 0x534841504C415453ULL;  // "SHAPLATS"

}  // namespace

void ShardTopology::validate() const {
  if (clusters == 0) {
    throw std::invalid_argument("ShardTopology: clusters must be non-zero");
  }
  if (!(std::isfinite(hop_latency_s) && hop_latency_s > 0.0)) {
    throw std::invalid_argument(
        "ShardTopology: hop_latency_s must be finite and positive");
  }
  if (!(std::isfinite(epoch_s) && epoch_s >= 0.0)) {
    throw std::invalid_argument(
        "ShardTopology: epoch_s must be finite and non-negative");
  }
  // Conservative synchronization: within an epoch cells advance without
  // hearing from each other, which is only sound while no cross-cell
  // message can land before the next barrier — i.e. epoch <= hop.
  if (epoch_s > hop_latency_s) {
    throw std::invalid_argument(
        "ShardTopology: epoch_s must not exceed hop_latency_s");
  }
}

void ShardedEngineConfig::validate() const {
  ClusterSpec::validate();
  topology.validate();
  if (!(remote_fraction >= 0.0 && remote_fraction <= 1.0)) {
    throw std::invalid_argument(
        "ShardedEngineConfig: remote_fraction must lie in [0, 1]");
  }
}

ShardedEngine::ShardedEngine(ShardedEngineConfig config)
    : config_(std::move(config)),
      mailbox_(std::max<std::size_t>(config_.topology.clusters, 1)) {
  config_.validate();
  const std::size_t cells = config_.topology.clusters;
  shards_.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    ShardConfig sc;
    sc.index = i;
    sc.total_shards = cells;
    sc.hop_latency_s = config_.topology.hop_latency_s;
    sc.remote_fraction = config_.remote_fraction;
    sc.clone_handoffs = config_.clone_handoffs;
    sc.load_seed = config_.seed;
    // Each cell is a full platform of `servers` nodes with its own derived
    // seed. Cells never share the process-wide default trace sink: lanes
    // may run concurrently.
    static_cast<ClusterSpec&>(sc.platform) = static_cast<ClusterSpec&>(config_);
    sc.platform.gateway = config_.gateway;
    sc.platform.instance = config_.instance;
    sc.platform.metric_window_s = config_.metric_window_s;
    sc.platform.seed = stats::SeedStream::derive(config_.seed,
                                                 kShardPlatformTag, i);
    sc.platform.trace_sink = nullptr;
    sc.platform.use_default_trace_sink = false;
    shards_.push_back(std::make_unique<Shard>(sc, &mailbox_.outbox(i)));
  }
  if (config_.threads != 1) {
    pool_ = std::make_unique<ml::ThreadPool>(config_.threads);
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::deploy_default_load() {
  const wl::App app = shard_edge_app();
  for (auto& shard : shards_) {
    shard->deploy_spread(app);
    shard->start_diurnal_load(config_.trace);
  }
}

void ShardedEngine::advance_lane(std::size_t lane, SimTime barrier) {
  // Static cell -> lane map (cell % lanes): which lane advances a cell
  // affects wall-clock only, never results.
  for (std::size_t c = lane; c < shards_.size(); c += lanes()) {
    shards_[c]->advance_to(barrier);
  }
}

void ShardedEngine::exchange_at_barrier(SimTime barrier) {
  // Coordinator-serial replay in (epoch, source, seq) order. Within one
  // destination engine, push order decides the tie-break sequence of
  // same-time events — so the sorted replay is itself part of the
  // determinism contract.
  for (auto& msg : mailbox_.collect()) {
    Shard* dest = shards_.at(msg.dest).get();
    // epoch <= hop guarantees deliver_at >= barrier (ShardTopology::
    // validate()); the max() guards the exact-equality float edge so a
    // delivery never lands behind the destination clock.
    const SimTime when = std::max(msg.deliver_at, barrier);
    auto deliver = [dest, apply = std::move(msg.apply)] { apply(*dest); };
    static_assert(EventQueue::Callback::stores_inline<decltype(deliver)>);
    dest->engine().at(when, std::move(deliver));
  }
}

void ShardedEngine::run_until(SimTime t) {
  const double epoch_len = config_.topology.epoch_length();
  while (now_ < t) {
    const SimTime barrier = std::min(t, now_ + epoch_len);
    ++epoch_;
    mailbox_.begin_epoch(epoch_);
    if (pool_ != nullptr && lanes() > 1) {
      pool_->parallel_for(lanes(),
                          [this, barrier](std::size_t lane) {
                            advance_lane(lane, barrier);
                          });
    } else {
      for (std::size_t lane = 0; lane < lanes(); ++lane) {
        advance_lane(lane, barrier);
      }
    }
    exchange_at_barrier(barrier);
    // Engine::run_until clamps each cell clock to the barrier, so after
    // the exchange every cell agrees on "now".
    now_ = barrier;
  }
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->platform().engine().events_executed();
  }
  return total;
}

std::string ShardedEngine::merged_digest() const {
  std::string out;
  for (const auto& shard : shards_) out += shard->digest();
  return out;
}

void ShardedEngine::refresh_metrics() {
  metrics_.gauge("sharded.cells").set(static_cast<double>(shard_count()));
  metrics_.gauge("sharded.lanes").set(static_cast<double>(lanes()));
  metrics_.gauge("sharded.epochs").set(static_cast<double>(epoch_));
  metrics_.gauge("sharded.events")
      .set(static_cast<double>(events_executed()));
  metrics_.gauge("sharded.messages")
      .set(static_cast<double>(messages_exchanged()));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const obs::Labels labels{{"shard", std::to_string(i)}};
    metrics_.gauge("shard.events", labels)
        .set(static_cast<double>(s.platform().engine().events_executed()));
    metrics_.gauge("shard.requests", labels)
        .set(static_cast<double>(s.requests_issued()));
    metrics_.gauge("shard.handoffs_out", labels)
        .set(static_cast<double>(s.handoffs_sent()));
    metrics_.gauge("shard.handoffs_in", labels)
        .set(static_cast<double>(s.handoffs_received()));
    metrics_.gauge("shard.clone_groups", labels)
        .set(static_cast<double>(s.clone_groups()));
    metrics_.gauge("shard.clone_cancels_applied", labels)
        .set(static_cast<double>(s.clone_cancels_applied()));
    metrics_.gauge("shard.instances", labels)
        .set(static_cast<double>(s.platform().total_instances()));
  }
}

}  // namespace gsight::sim
