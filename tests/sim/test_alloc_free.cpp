// Allocation regression test for the simulator's per-event path. This
// binary replaces the global operator new with a counting version, which
// is why it is not part of gsight_tests_sim: every test here sees the
// counter. Each case warms a small estate up (pools, rings, slot vectors
// and reused buffers reach their high-water marks), then counts the heap
// allocations made over a steady-state window and divides by the events
// the engine executed in it.
//
// Before the event core moved to inline callables, slot-pooled closures
// and reused buffers, these windows cost about 2.7 allocations per event.
// What remains is amortised growth of the per-app result series, one
// Recorder entry per metric window and, with several cells, the mailbox's
// per-epoch message vectors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/sharded_engine.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every non-aligned form of operator new and delete is replaced, so the
// library's own defaults (or a sanitizer's) never free what these
// allocate. All are noinline: once GCC sees malloc or free inside them at
// a call site, it flags the new/delete pair there as mismatched
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gsight::sim {
namespace {

/// The ceiling the simulator core is held to.
constexpr double kMaxAllocationsPerEvent = 0.2;

ShardedEngineConfig estate_config(std::size_t cells, std::size_t servers) {
  ShardedEngineConfig cfg;
  cfg.servers = servers;
  cfg.server = ServerConfig::socket();
  cfg.seed = 99;
  cfg.topology.clusters = cells;
  cfg.topology.shards = 1;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = 1;
  cfg.remote_fraction = 0.05;
  cfg.gateway.instance_knee = 4096.0;
  cfg.trace.base_qps = 2.5 * static_cast<double>(servers);
  return cfg;
}

struct Window {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
  double per_event() const {
    return static_cast<double>(allocations) / static_cast<double>(events);
  }
};

Window steady_state_window(ShardedEngine& engine, double warm_s,
                           double end_s) {
  engine.run_until(warm_s);
  const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t e0 = engine.events_executed();
  engine.run_until(end_s);
  Window w;
  w.allocations = g_allocations.load(std::memory_order_relaxed) - a0;
  w.events = engine.events_executed() - e0;
  return w;
}

TEST(AllocationFree, CounterSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new int(7);
  EXPECT_GT(g_allocations.load(), before);
  delete p;
}

TEST(AllocationFree, MonolithEstateSteadyState) {
  ShardedEngine engine(estate_config(/*cells=*/1, /*servers=*/32));
  engine.deploy_default_load();
  const Window w = steady_state_window(engine, 60.0, 240.0);
  ASSERT_GT(w.events, 20000u);
  RecordProperty("allocations_per_event", std::to_string(w.per_event()));
  EXPECT_LE(w.per_event(), kMaxAllocationsPerEvent)
      << w.allocations << " allocations over " << w.events << " events";
}

TEST(AllocationFree, CellsWithMailboxSteadyState) {
  ShardedEngine engine(estate_config(/*cells=*/4, /*servers=*/8));
  engine.deploy_default_load();
  const Window w = steady_state_window(engine, 60.0, 240.0);
  ASSERT_GT(w.events, 20000u);
  ASSERT_GT(engine.messages_exchanged(), 0u);
  RecordProperty("allocations_per_event", std::to_string(w.per_event()));
  EXPECT_LE(w.per_event(), kMaxAllocationsPerEvent)
      << w.allocations << " allocations over " << w.events << " events";
}

}  // namespace
}  // namespace gsight::sim
