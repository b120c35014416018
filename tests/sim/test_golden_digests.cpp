// Golden simulator digests. Each run below is small and fixed; its output
// is hashed (FNV-1a, 64-bit) and compared with a constant recorded from
// the simulator before its event core, backlog accounting and request
// path were reworked for speed. The rework promised bit-identical
// behaviour: same event order, same RNG draws, same dumps. These
// constants hold it to that — any change to what the simulator computes
// (not merely how fast) changes a hash here. Re-record a constant only
// for an intended behaviour change, and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/platform.hpp"
#include "sim/sharded_engine.hpp"
#include "workloads/socialnetwork.hpp"
#include "workloads/sparkapps.hpp"

namespace gsight::sim {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PlatformRun {
  std::uint64_t dump_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t jobs = 0;
};

PlatformConfig golden_platform_config(std::size_t servers) {
  PlatformConfig pc;
  pc.servers = servers;
  pc.server = ServerConfig::tianjin_testbed();
  pc.server.discipline = ServiceDiscipline::kProcessorSharing;
  pc.seed = 7171;
  pc.gateway.clone.factor = 2;
  return pc;
}

PlatformRun summarize(Platform& platform, std::size_t ls, std::size_t sc) {
  PlatformRun run;
  run.dump_hash = fnv1a(platform.recorder().dump_string());
  run.events = platform.engine().events_executed();
  run.completed = platform.stats(ls).e2e.size();
  run.jobs = platform.stats(sc).jct.size();
  return run;
}

/// LS (SocialNetwork) and SC (small logistic regression) apps on one
/// processor-sharing server with clone factor 2: the sibling clone of
/// every request finds no distinct server and is never dispatched.
PlatformRun run_single_server() {
  Platform platform(golden_platform_config(1));
  const std::size_t ls =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  const wl::App sc_app = wl::logistic_regression_small();
  const std::size_t sc = platform.deploy(
      sc_app, std::vector<std::size_t>(sc_app.function_count(), 0));
  platform.set_open_loop(ls, 30.0);
  for (int i = 0; i < 4; ++i) {
    platform.engine().after(4.0 * i, [&platform, sc] {
      platform.submit_job(sc);
    });
  }
  platform.run_until(20.0);
  platform.set_open_loop(ls, 0.0);
  platform.run_until(40.0);
  return summarize(platform, ls, sc);
}

/// The same apps on three processor-sharing servers, every LS function
/// replicated on each, so clone pairs race and the loser is cancelled
/// queued or running. Mid-run a replica is retired (drain + gc) and the
/// SC app's executions are aborted, covering every path that retracts
/// work from an instance.
PlatformRun run_three_servers() {
  Platform platform(golden_platform_config(3));
  const std::size_t ls =
      platform.deploy(wl::social_network(), std::vector<std::size_t>(9, 0));
  for (std::size_t fn = 0; fn < 9; ++fn) {
    platform.add_replica(ls, fn, 1);
    platform.add_replica(ls, fn, 2);
  }
  const wl::App sc_app = wl::logistic_regression_small();
  const std::size_t sc = platform.deploy(
      sc_app, std::vector<std::size_t>(sc_app.function_count(), 1));
  platform.set_open_loop(ls, 45.0);
  for (int i = 0; i < 4; ++i) {
    platform.engine().after(3.0 * i, [&platform, sc] {
      platform.submit_job(sc);
    });
  }
  platform.engine().after(6.5, [&platform, ls] {
    platform.remove_replica(ls, 0);
  });
  platform.engine().after(7.25, [&platform, sc] {
    platform.abort_executions(sc);
  });
  platform.run_until(20.0);
  platform.set_open_loop(ls, 0.0);
  platform.run_until(40.0);
  return summarize(platform, ls, sc);
}

/// A 4-cell x 8-socket estate under the diurnal edge load for 60 s, on
/// two serial lanes, with 5% cross-cell handoffs (optionally as clone
/// pairs that cancel each other through the mailbox).
std::uint64_t run_estate(bool clone_handoffs) {
  ShardedEngineConfig cfg;
  cfg.servers = 8;
  cfg.server = ServerConfig::socket();
  cfg.seed = 4242;
  cfg.topology.clusters = 4;
  cfg.topology.shards = 2;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = 1;
  cfg.remote_fraction = 0.05;
  cfg.clone_handoffs = clone_handoffs;
  cfg.gateway.instance_knee = 4096.0;
  cfg.trace.base_qps = 20.0;
  ShardedEngine engine(cfg);
  engine.deploy_default_load();
  engine.run_until(60.0);
  return fnv1a(engine.merged_digest());
}

TEST(GoldenDigest, SingleProcessorSharingServer) {
  const PlatformRun run = run_single_server();
  EXPECT_EQ(run.dump_hash, 0x91a1be095658aaf5ULL);
  EXPECT_EQ(run.events, 62306u);
  EXPECT_EQ(run.completed, 634u);
  EXPECT_EQ(run.jobs, 3u);
}

TEST(GoldenDigest, ClonesRetiresAndAbortsOnThreeServers) {
  const PlatformRun run = run_three_servers();
  EXPECT_EQ(run.dump_hash, 0xb0ad519d8ecbd6fdULL);
  EXPECT_EQ(run.events, 116037u);
  EXPECT_EQ(run.completed, 967u);
  EXPECT_EQ(run.jobs, 0u);
}

TEST(GoldenDigest, ShardedEstate4x8) {
  EXPECT_EQ(run_estate(/*clone_handoffs=*/false), 0x13ea47684473e1ebULL);
}

TEST(GoldenDigest, ShardedEstate4x8CloneHandoffs) {
  EXPECT_EQ(run_estate(/*clone_handoffs=*/true), 0x5c25d4fdec2157eaULL);
}

}  // namespace
}  // namespace gsight::sim
