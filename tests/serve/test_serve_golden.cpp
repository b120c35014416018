// Golden serve runs. LoadDriver::run_deterministic drives three fixed
// targets on the virtual clock — a synchronous service, a 4-replica
// consistent-hash fleet with a mid-run drain + re-add and a live sink,
// and a 3-replica least-queued fleet with two drains — and the hexfloat
// text of the LoadOutcome plus the target's stats (and the live stream's
// bytes) is hashed (FNV-1a, 64-bit). Twin-run gates compare two runs of
// one binary, so they cannot see a change that shifts both runs alike;
// these constants can. Re-record one only for an intended change to what
// the serve tier computes, and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "obs/live_stream.hpp"
#include "serve/fleet.hpp"
#include "serve/load_driver.hpp"
#include "serve/service.hpp"
#include "stats/rng.hpp"

namespace gsight::serve {
namespace {

constexpr std::size_t kDim = 16;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void put(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%a\n", name, v);
  out += buf;
}

void put(std::string& out, const char* name, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%llu\n", name,
                static_cast<unsigned long long>(v));
  out += buf;
}

void put(std::string& out, const char* name,
         const std::vector<std::uint64_t>& vs) {
  for (const std::uint64_t v : vs) put(out, name, v);
}

std::string text_of(const LoadOutcome& o) {
  std::string out;
  put(out, "submitted", static_cast<std::uint64_t>(o.submitted));
  put(out, "completed", static_cast<std::uint64_t>(o.completed));
  put(out, "shed", static_cast<std::uint64_t>(o.shed));
  put(out, "duration_s", o.duration_s);
  put(out, "throughput_rps", o.throughput_rps);
  put(out, "p50_us", o.latency_p50_us);
  put(out, "p95_us", o.latency_p95_us);
  put(out, "p99_us", o.latency_p99_us);
  put(out, "mean_us", o.latency_mean_us);
  put(out, "max_us", o.latency_max_us);
  return out;
}

std::string text_of(const ServiceStats& s) {
  std::string out;
  put(out, "accepted", s.accepted);
  put(out, "shed", s.shed);
  put(out, "predicted", s.predicted);
  put(out, "batches", s.batches);
  put(out, "observations", s.observations);
  put(out, "observations_shed", s.observations_shed);
  put(out, "train_rounds", s.train_rounds);
  put(out, "snapshot_swaps", s.snapshot_swaps);
  put(out, "model_version", s.model_version);
  put(out, "batch_size_count", s.batch_size_counts);
  return out;
}

std::string text_of(const FleetStats& s) {
  std::string out;
  put(out, "submitted", s.submitted);
  put(out, "completed", s.completed);
  put(out, "shed", s.shed);
  put(out, "observations", s.observations);
  put(out, "observations_shed", s.observations_shed);
  put(out, "train_rounds", s.train_rounds);
  put(out, "publishes", s.publishes);
  put(out, "drains", s.drains);
  put(out, "readds", s.readds);
  put(out, "latest_version", s.latest_version);
  put(out, "watermark", s.watermark);
  put(out, "active_replicas", static_cast<std::uint64_t>(s.active_replicas));
  put(out, "stale_replicas", static_cast<std::uint64_t>(s.stale_replicas));
  put(out, "routed", s.routed);
  put(out, "replica_version", s.replica_versions);
  return out;
}

ml::IncrementalForest warm_model(std::uint64_t seed) {
  ml::IncrementalForestConfig cfg;
  cfg.forest.n_trees = 8;
  ml::IncrementalForest model(cfg, seed);
  stats::Rng rng(seed ^ 0xABCDULL);
  ml::Dataset data(kDim);
  std::vector<double> x(kDim);
  for (std::size_t i = 0; i < 64; ++i) {
    for (auto& v : x) v = rng.uniform();
    data.add(x, LoadDriver::label_of(x));
  }
  model.partial_fit(data);
  return model;
}

ServiceConfig sync_config() {
  ServiceConfig cfg;
  cfg.feature_dim = kDim;
  cfg.worker_threads = 0;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.train_batch = 16;
  cfg.batch_linger = std::chrono::microseconds(10);
  return cfg;
}

/// Arrivals fast enough (10 per linger window on one service) that full
/// batches flush before their deadline.
DriverRequest load(std::size_t requests, std::uint64_t seed) {
  DriverRequest lc;
  lc.requests = requests;
  lc.rate_hz = 1'000'000.0;
  lc.observe_every = 8;
  lc.seed = seed;
  return lc;
}

struct Golden {
  std::string outcome;
  std::string stats;
  std::string stream;
};

Golden run_service() {
  PredictionService service(sync_config(), warm_model(3));
  service.start();
  LoadDriver driver(load(2000, 5));
  const LoadOutcome outcome = driver.run_deterministic(service);
  service.stop();
  return {text_of(outcome), text_of(service.stats()), {}};
}

Golden run_fleet(FleetRequest fr, DriverRequest lc, std::uint64_t model_seed) {
  PredictionFleet fleet(std::move(fr), warm_model(model_seed));
  std::ostringstream os;
  obs::LiveStreamSink sink(os);
  sink.hello("serve-golden", {{"seed", std::to_string(lc.seed)}});
  fleet.set_live_sink(&sink);
  fleet.start();
  LoadDriver driver(lc);
  const LoadOutcome outcome = driver.run_deterministic(fleet);
  fleet.stop();
  return {text_of(outcome), text_of(fleet.stats()), os.str()};
}

Golden run_hash_fleet() {
  FleetRequest fr;
  fr.replicas = 4;
  fr.router = RouterPolicy::kConsistentHash;
  fr.service = sync_config();
  fr.drains = {{1, 1000, 2000}};
  DriverRequest lc = load(3000, 99);
  lc.rate_hz = 2'000'000.0;
  lc.live_every = 256;
  return run_fleet(std::move(fr), lc, 11);
}

Golden run_least_queued_fleet() {
  FleetRequest fr;
  fr.replicas = 3;
  fr.router = RouterPolicy::kLeastQueued;
  fr.service = sync_config();
  // Queues shorter than a batch: replicas serve only at deadlines, fill
  // up between them, and the router's depth signal decides who sheds.
  fr.service.queue_capacity = 4;
  fr.drains = {{0, 500, 3000}, {2, 1500, 0}};
  DriverRequest lc = load(4000, 5);
  lc.rate_hz = 1'500'000.0;
  lc.live_every = 64;
  return run_fleet(std::move(fr), lc, 17);
}

// Hashes of the texts the helpers above build.
constexpr std::uint64_t kServiceOutcome = 0xca35eb3833db5174ULL;
constexpr std::uint64_t kServiceStats = 0x01b14db06b3705ccULL;
constexpr std::uint64_t kHashFleetOutcome = 0x8e343b295dc29711ULL;
constexpr std::uint64_t kHashFleetStats = 0x4e0c2991b840566dULL;
constexpr std::uint64_t kHashFleetStream = 0x71eb2909f59a84e7ULL;
constexpr std::uint64_t kLeastFleetOutcome = 0xdf88a0aac5e6e40eULL;
constexpr std::uint64_t kLeastFleetStats = 0x908edb78e17216d1ULL;
constexpr std::uint64_t kLeastFleetStream = 0xf5495b285fe596bfULL;

TEST(ServeGolden, SynchronousServiceRun) {
  const Golden g = run_service();
  EXPECT_EQ(hex(fnv1a(g.outcome)), hex(kServiceOutcome)) << g.outcome;
  EXPECT_EQ(hex(fnv1a(g.stats)), hex(kServiceStats)) << g.stats;
}

TEST(ServeGolden, ConsistentHashFleetWithDrainAndLiveStream) {
  const Golden g = run_hash_fleet();
  EXPECT_EQ(hex(fnv1a(g.outcome)), hex(kHashFleetOutcome)) << g.outcome;
  EXPECT_EQ(hex(fnv1a(g.stats)), hex(kHashFleetStats)) << g.stats;
  EXPECT_EQ(hex(fnv1a(g.stream)), hex(kHashFleetStream));
}

TEST(ServeGolden, LeastQueuedFleetWithTwoDrains) {
  const Golden g = run_least_queued_fleet();
  EXPECT_EQ(hex(fnv1a(g.outcome)), hex(kLeastFleetOutcome)) << g.outcome;
  EXPECT_EQ(hex(fnv1a(g.stats)), hex(kLeastFleetStats)) << g.stats;
  EXPECT_EQ(hex(fnv1a(g.stream)), hex(kLeastFleetStream));
}

TEST(ServeGolden, OneReplicaFleetMatchesTheService) {
  // A service is a one-replica target with no drains and no live stream:
  // the same seed and config must give the same outcome either way.
  PredictionService service(sync_config(), warm_model(3));
  service.start();
  const LoadOutcome alone =
      LoadDriver(load(2000, 5)).run_deterministic(service);
  service.stop();

  FleetRequest fr;
  fr.replicas = 1;
  fr.service = sync_config();
  PredictionFleet fleet(std::move(fr), warm_model(3));
  fleet.start();
  const LoadOutcome routed =
      LoadDriver(load(2000, 5)).run_deterministic(fleet);
  fleet.stop();

  EXPECT_EQ(text_of(routed), text_of(alone));
  EXPECT_EQ(fleet.stats().train_rounds, service.stats().train_rounds);
  EXPECT_EQ(fleet.stats().latest_version, service.stats().model_version);
}

}  // namespace
}  // namespace gsight::serve
