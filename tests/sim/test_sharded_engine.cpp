// Sharded-engine determinism suite: N-lane runs must be byte-identical to
// the 1-lane run (serial and thread-pooled), the mailbox must replay in
// (epoch, source, seq) order, and events landing exactly on an epoch
// barrier must execute in a pinned epoch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/shard.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/seed_stream.hpp"

namespace gsight::sim {
namespace {

ShardedEngineConfig small_config(std::size_t cells, std::size_t lanes,
                                 std::size_t threads) {
  ShardedEngineConfig cfg;
  cfg.servers = 2;
  cfg.server = ServerConfig::tiny();
  cfg.seed = 20260808;
  cfg.topology.clusters = cells;
  cfg.topology.shards = lanes;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = threads;
  cfg.remote_fraction = 0.2;
  cfg.trace.base_qps = 25.0;
  cfg.trace.day_seconds = 60.0;
  return cfg;
}

std::string run_digest(std::size_t cells, std::size_t lanes,
                       std::size_t threads, double horizon) {
  ShardedEngine eng(small_config(cells, lanes, threads));
  eng.deploy_default_load();
  eng.run_until(horizon);
  return eng.merged_digest();
}

// --- Topology validation -----------------------------------------------------

TEST(ShardTopologyValidate, RejectsBadShapes) {
  ShardTopology t;
  EXPECT_NO_THROW(t.validate());
  t.clusters = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = ShardTopology{};
  t.hop_latency_s = 0.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = ShardTopology{};
  t.epoch_s = t.hop_latency_s * 2.0;  // epoch longer than the hop
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(ShardTopologyValidate, LaneClamping) {
  ShardTopology t;
  t.clusters = 4;
  t.shards = 0;
  EXPECT_EQ(t.lanes(), 4u);
  t.shards = 2;
  EXPECT_EQ(t.lanes(), 2u);
  t.shards = 16;  // more lanes than cells is clamped
  EXPECT_EQ(t.lanes(), 4u);
}

TEST(ShardedEngineValidate, RejectsRemoteFractionOutsideUnitInterval) {
  // Rejected before any cell is built: a Shard's contract check would
  // abort the process on each of these.
  for (const double bad : {-0.5, 1.5, std::nan("")}) {
    ShardedEngineConfig cfg = small_config(2, 0, 1);
    cfg.remote_fraction = bad;
    try {
      ShardedEngine eng(cfg);
      ADD_FAILURE() << "remote_fraction " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("remote_fraction"),
                std::string::npos);
    }
  }
  for (const double edge : {0.0, 1.0}) {
    ShardedEngineConfig cfg = small_config(2, 0, 1);
    cfg.remote_fraction = edge;
    EXPECT_NO_THROW(ShardedEngine eng(cfg)) << edge;
  }
}

TEST(ShardedEngineValidate, ChecksTheTopologyAndTheClusterShape) {
  ShardedEngineConfig cfg = small_config(2, 0, 1);
  cfg.topology.clusters = 0;
  EXPECT_THROW(ShardedEngine eng(cfg), std::invalid_argument);
  cfg = small_config(2, 0, 1);
  cfg.servers = 0;
  EXPECT_THROW(ShardedEngine eng(cfg), std::invalid_argument);
}

// --- Mailbox replay order ----------------------------------------------------

TEST(Mailbox, OutboxStampsEpochSourceSeq) {
  Mailbox mb(3);
  mb.begin_epoch(7);
  mb.outbox(2).post(0, 1.0, 1.5, [](Shard&) {});
  mb.outbox(2).post(1, 1.1, 1.6, [](Shard&) {});
  const auto msgs = mb.collect();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].epoch, 7u);
  EXPECT_EQ(msgs[0].source, 2u);
  EXPECT_EQ(msgs[0].seq, 0u);
  EXPECT_EQ(msgs[1].seq, 1u);
  EXPECT_EQ(mb.messages_exchanged(), 2u);
  // Sequence numbers keep rising across epochs — they are per-source
  // lifetime counters, so a (source, seq) pair is globally unique.
  mb.begin_epoch(8);
  mb.outbox(2).post(0, 2.0, 2.5, [](Shard&) {});
  const auto next = mb.collect();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].seq, 2u);
}

TEST(Mailbox, CollectSortsByEpochSourceSeq) {
  Mailbox mb(4);
  mb.begin_epoch(1);
  // Post in a scrambled source order; the replay order must come out
  // sorted regardless.
  mb.outbox(3).post(0, 1.0, 1.5, [](Shard&) {});
  mb.outbox(1).post(0, 1.0, 1.5, [](Shard&) {});
  mb.outbox(1).post(2, 1.2, 1.7, [](Shard&) {});
  mb.outbox(0).post(3, 1.3, 1.8, [](Shard&) {});
  const auto msgs = mb.collect();
  ASSERT_EQ(msgs.size(), 4u);
  std::vector<std::size_t> sources;
  for (const auto& m : msgs) sources.push_back(m.source);
  EXPECT_EQ(sources, (std::vector<std::size_t>{0, 1, 1, 3}));
  EXPECT_LT(msgs[1].seq, msgs[2].seq);  // same source: seq order
}

TEST(Mailbox, MailboxOrderIsStrictWeak) {
  ShardMessage a, b;
  a.epoch = 1;
  b.epoch = 2;
  EXPECT_TRUE(mailbox_order(a, b));
  EXPECT_FALSE(mailbox_order(b, a));
  b.epoch = 1;
  a.source = 0;
  b.source = 1;
  EXPECT_TRUE(mailbox_order(a, b));
  b.source = 0;
  a.seq = 5;
  b.seq = 5;
  EXPECT_FALSE(mailbox_order(a, b));
  EXPECT_FALSE(mailbox_order(b, a));
}

// --- Seed derivation ---------------------------------------------------------

TEST(ShardSeeds, TaggedDerivationComposesAndSeparates) {
  const std::uint64_t root = 42;
  const std::uint64_t tag_a = 0x11, tag_b = 0x22;
  EXPECT_EQ(stats::SeedStream::derive(root, tag_a, 3),
            stats::SeedStream::derive(stats::SeedStream::derive(root, tag_a), 3));
  // Same index under different tags must give different streams: the
  // per-cell platform seed and per-cell load seed families never collide.
  EXPECT_NE(stats::SeedStream::derive(root, tag_a, 3),
            stats::SeedStream::derive(root, tag_b, 3));
}

// --- Byte-identity across lane/thread counts --------------------------------

TEST(ShardedDeterminism, TwinRunsAreByteIdentical) {
  const std::string a = run_digest(4, 0, 1, 20.0);
  const std::string b = run_digest(4, 0, 1, 20.0);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ShardedDeterminism, LaneCountDoesNotChangeResults) {
  // Same 4-cell topology advanced by 1, 2 and 4 lanes: the cell -> lane
  // map changes wall-clock scheduling only, never what a cell computes.
  const std::string one = run_digest(4, 1, 1, 20.0);
  const std::string two = run_digest(4, 2, 1, 20.0);
  const std::string four = run_digest(4, 4, 1, 20.0);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(ShardedDeterminism, ThreadPoolMatchesSerial) {
  const std::string serial = run_digest(4, 4, 1, 20.0);
  const std::string pooled = run_digest(4, 4, 8, 20.0);
  EXPECT_EQ(serial, pooled);
}

TEST(ShardedDeterminism, HandoffsFlowAndBalance) {
  ShardedEngine eng(small_config(4, 0, 1));
  eng.deploy_default_load();
  eng.run_until(30.0);
  std::uint64_t sent = 0, received = 0;
  for (std::size_t i = 0; i < eng.shard_count(); ++i) {
    sent += eng.shard(i).handoffs_sent();
    received += eng.shard(i).handoffs_received();
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(eng.messages_exchanged(), sent);
  // Deliveries land one hop after the send; only the tail still in flight
  // at the horizon may be outstanding.
  EXPECT_LE(received, sent);
  EXPECT_GT(received, 0u);
}

ShardedEngineConfig clone_handoff_config(std::size_t cells, std::size_t lanes,
                                         std::size_t threads) {
  ShardedEngineConfig cfg = small_config(cells, lanes, threads);
  cfg.clone_handoffs = true;
  cfg.remote_fraction = 0.3;
  return cfg;
}

std::string clone_run_digest(std::size_t cells, std::size_t lanes,
                             std::size_t threads, double horizon) {
  ShardedEngine eng(clone_handoff_config(cells, lanes, threads));
  eng.deploy_default_load();
  eng.run_until(horizon);
  return eng.merged_digest();
}

TEST(ShardedDeterminism, CloneHandoffLanesAreByteIdentical) {
  // Cross-cell clone pairs: the winner's cancel crosses the mailbox one
  // hop later, so cancellation events themselves ride the deterministic
  // (epoch, source, seq) replay. 1, 2 and 8 lanes (8 clamps to 4 cells),
  // serial and thread-pooled, must all produce the same digest bytes.
  const std::string one = clone_run_digest(4, 1, 1, 20.0);
  const std::string two = clone_run_digest(4, 2, 1, 20.0);
  const std::string eight = clone_run_digest(4, 8, 1, 20.0);
  const std::string pooled = clone_run_digest(4, 8, 8, 20.0);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one, pooled);
}

TEST(ShardedDeterminism, CloneHandoffCancelsFlowAndResolve) {
  ShardedEngine eng(clone_handoff_config(4, 0, 1));
  eng.deploy_default_load();
  eng.run_until(30.0);
  std::uint64_t groups = 0, applied = 0, stale = 0;
  for (std::size_t i = 0; i < eng.shard_count(); ++i) {
    groups += eng.shard(i).clone_groups();
    applied += eng.shard(i).clone_cancels_applied();
    stale += eng.shard(i).clone_cancels_stale();
  }
  // The run actually exercised cross-shard cancellation: clone groups
  // formed, and the losing legs were retracted through the mailbox.
  EXPECT_GT(groups, 0u);
  EXPECT_GT(applied, 0u);
  // Every group resolves at most two cancels (one per leg's winner);
  // stale cancels (both legs winning in the same epoch, or the peer
  // already done) are expected and bounded by the group count.
  EXPECT_LE(applied + stale, 2 * groups);
}

TEST(ShardedDeterminism, MetricsCarryShardLabels) {
  ShardedEngine eng(small_config(2, 0, 1));
  eng.deploy_default_load();
  eng.run_until(5.0);
  eng.refresh_metrics();
  const std::string json = eng.metrics().to_json_string();
  // Labels export canonically as "k=v" strings: every per-cell gauge must
  // carry its shard label, and both cells must be present.
  EXPECT_NE(json.find("shard=0"), std::string::npos);
  EXPECT_NE(json.find("shard=1"), std::string::npos);
  EXPECT_NE(json.find("shard.events"), std::string::npos);
  EXPECT_NE(json.find("sharded.messages"), std::string::npos);
}

// --- Epoch-barrier pinning ---------------------------------------------------

TEST(ShardedEpochs, BarrierEventsLandInPinnedEpochs) {
  // hop = epoch = 1.0: epoch k covers (k-1, k].
  ShardedEngineConfig cfg = small_config(2, 0, 1);
  cfg.topology.hop_latency_s = 1.0;
  ShardedEngine eng(cfg);

  std::vector<std::uint64_t> local_epochs;
  // An event exactly at the t=1.0 barrier executes in the epoch that ends
  // there (run_until is inclusive), not the one that starts there.
  eng.shard(0).engine().at(1.0, [&] {
    local_epochs.push_back(eng.epochs_run());
  });
  eng.shard(0).engine().at(1.5, [&] {
    local_epochs.push_back(eng.epochs_run());
  });

  // A message posted at t=1.0 (epoch 1) is timestamped exactly at the
  // t=2.0 barrier after the hop; the delivery executes in epoch 2, never
  // retroactively inside the epoch that closed at its send time.
  std::vector<std::uint64_t> delivery_epochs;
  eng.shard(0).engine().at(1.0, [&] {
    eng.mailbox().outbox(0).post(1, 1.0, 2.0, [&](Shard&) {
      delivery_epochs.push_back(eng.epochs_run());
    });
  });

  eng.run_until(3.0);
  ASSERT_EQ(local_epochs.size(), 2u);
  EXPECT_EQ(local_epochs[0], 1u);  // t=1.0 pins to epoch 1
  EXPECT_EQ(local_epochs[1], 2u);  // t=1.5 falls in epoch 2
  ASSERT_EQ(delivery_epochs.size(), 1u);
  EXPECT_EQ(delivery_epochs[0], 2u);  // deliver_at=2.0 pins to epoch 2
}

}  // namespace
}  // namespace gsight::sim
