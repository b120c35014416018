// Property test for Cluster::total_backlog(). The gateway reads the
// backlog on every forward, so the cluster keeps it as a counter that
// each Instance updates on submit, completion and both cancel paths
// instead of summing over instances. These tests drive randomized
// sequences of every operation that changes an instance's work —
// submits through the gateway and directly, tracked-request and ticket
// cancels (queued and running), completions, replica retirement plus
// gc, abort_executions and cross-cell clone cancellation — and after
// every step compare the counter with a recount over
// Cluster::instances().
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/platform.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/rng.hpp"
#include "workloads/socialnetwork.hpp"
#include "workloads/sparkapps.hpp"

namespace gsight::sim {
namespace {

std::size_t recount(const Cluster& cluster) {
  std::size_t n = 0;
  for (const Instance* inst : cluster.instances()) {
    n += inst->queue_depth() + (inst->busy() ? 1 : 0);
  }
  return n;
}

/// Re-checks the counter between events: a self-rescheduling engine
/// event every millisecond of simulated time.
class BetweenEventsCheck {
 public:
  explicit BetweenEventsCheck(Platform* platform) : platform_(platform) {
    arm();
  }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  void arm() {
    platform_->engine().after(0.001, [this] {
      ++checks_;
      Cluster& c = platform_->cluster();
      if (c.total_backlog() != recount(c)) ++mismatches_;
      arm();
    });
  }

  Platform* platform_;
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
};

class BacklogCounter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BacklogCounter, MatchesRecountUnderRandomOperations) {
  PlatformConfig pc;
  pc.servers = 4;
  pc.server = ServerConfig::tiny();
  pc.seed = GetParam();
  pc.gateway.clone.factor = 2;  // cancel-on-first-complete retracts work
  Platform platform(pc);
  const std::size_t ls =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  for (std::size_t fn = 0; fn < 9; ++fn) {
    platform.add_replica(ls, fn, 1 + fn % 3);
  }
  const wl::App sc_app = wl::logistic_regression_small();
  const std::size_t sc = platform.deploy(
      sc_app, std::vector<std::size_t>(sc_app.function_count(), 2));
  BetweenEventsCheck between(&platform);

  stats::Rng rng(GetParam() * 7919 + 1);
  std::vector<std::uint64_t> tracked;
  // (instance id, ticket) of invocations submitted straight to an
  // instance; ids, not pointers, because gc may destroy the instance.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tickets;
  const auto find_instance = [&platform](std::uint64_t id) -> Instance* {
    for (Instance* inst : platform.cluster().instances()) {
      if (inst->id() == id) return inst;
    }
    return nullptr;
  };

  for (int step = 0; step < 600; ++step) {
    // Aborted instances stay busy for good and never drain, so the LS app
    // is aborted once, late, leaving earlier retirements room to finish.
    if (step == 450) platform.abort_executions(ls);
    switch (rng.uniform_index(10)) {
      case 0:
        platform.issue_request(ls);
        break;
      case 1:
        tracked.push_back(platform.issue_tracked_request(ls));
        break;
      case 2:
        if (!tracked.empty()) {
          const std::size_t i = rng.uniform_index(tracked.size());
          platform.cancel_request(tracked[i]);
          tracked.erase(tracked.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 3: {
        const auto all = platform.cluster().instances();
        Instance* inst = all[rng.uniform_index(all.size())];
        tickets.emplace_back(inst->id(),
                             inst->submit([](const InvocationResult&) {}));
        break;
      }
      case 4:
        if (!tickets.empty()) {
          const std::size_t i = rng.uniform_index(tickets.size());
          if (Instance* inst = find_instance(tickets[i].first)) {
            inst->cancel(tickets[i].second);
          }
          tickets.erase(tickets.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 5:
        platform.remove_replica(ls, rng.uniform_index(9));
        break;
      case 6:
        platform.add_replica(ls, rng.uniform_index(9), rng.uniform_index(4));
        break;
      case 7:
        if (rng.uniform() < 0.25) platform.abort_executions(sc);
        break;
      case 8:
        platform.submit_job(sc);
        break;
      default:
        platform.run_until(platform.now() + 0.2 * rng.uniform());
        break;
    }
    ASSERT_EQ(platform.cluster().total_backlog(), recount(platform.cluster()))
        << "after step " << step;
  }
  platform.run_until(platform.now() + 30.0);  // drain what can complete
  EXPECT_EQ(platform.cluster().total_backlog(), recount(platform.cluster()));
  EXPECT_GT(between.checks(), 1000u);
  EXPECT_EQ(between.mismatches(), 0u);
  EXPECT_GT(platform.cluster().instances_destroyed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BacklogCounter,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(BacklogCounter, DrainsToZeroWhenAllWorkCompletes) {
  PlatformConfig pc;
  pc.servers = 2;
  pc.server = ServerConfig::tiny();
  pc.seed = 17;
  pc.gateway.clone.factor = 2;
  Platform platform(pc);
  const std::size_t ls =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  for (std::size_t fn = 0; fn < 9; ++fn) platform.add_replica(ls, fn, 1);
  platform.set_open_loop(ls, 20.0);
  platform.run_until(10.0);
  EXPECT_GT(platform.cluster().total_backlog(), 0u);
  platform.set_open_loop(ls, 0.0);
  platform.run_until(60.0);
  EXPECT_EQ(platform.cluster().total_backlog(), 0u);
  EXPECT_EQ(recount(platform.cluster()), 0u);
}

TEST(BacklogCounter, CrossCellCloneCancellationKeepsEveryCellExact) {
  ShardedEngineConfig cfg;
  cfg.servers = 3;
  cfg.server = ServerConfig::tiny();
  cfg.seed = 20261017;
  cfg.topology.clusters = 3;
  cfg.topology.shards = 1;
  cfg.topology.hop_latency_s = 0.05;
  cfg.remote_fraction = 0.5;
  cfg.clone_handoffs = true;
  cfg.trace.base_qps = 30.0;
  ShardedEngine engine(cfg);
  engine.deploy_default_load();

  stats::Rng rng(4711);
  std::uint64_t applied = 0;
  for (int step = 0; step < 400; ++step) {
    Platform& p = engine.shard(rng.uniform_index(3)).platform();
    const double op = rng.uniform();
    if (op < 0.02) {
      p.abort_executions(0);
    } else if (op < 0.06) {
      p.remove_replica(0, 0);
    } else if (op < 0.10) {
      p.add_replica(0, 0, rng.uniform_index(3));
    }
    engine.run_until(engine.now() + 0.05);
    for (std::size_t c = 0; c < engine.shard_count(); ++c) {
      Cluster& cluster = engine.shard(c).platform().cluster();
      ASSERT_EQ(cluster.total_backlog(), recount(cluster))
          << "cell " << c << " after step " << step;
    }
  }
  for (std::size_t c = 0; c < engine.shard_count(); ++c) {
    applied += engine.shard(c).clone_cancels_applied();
  }
  EXPECT_GT(applied, 0u);
}

}  // namespace
}  // namespace gsight::sim
