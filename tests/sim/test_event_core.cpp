// Building blocks of the simulator's event core: the inline callable
// that replaced std::function on the per-event path, the ring buffer
// behind instance and gateway queues, and the event queue's slot pool.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"

namespace gsight::sim {
namespace {

using Small = InlineFunction<int(int), 16>;

/// Counts live copies so tests can see exactly when a capture dies.
struct Tracked {
  explicit Tracked(int* live) : live_(live) { ++*live_; }
  Tracked(const Tracked& o) : live_(o.live_) { ++*live_; }
  Tracked(Tracked&& o) noexcept : live_(o.live_) { ++*live_; }
  ~Tracked() { --*live_; }
  int* live_;
};

TEST(InlineFunction, EmptyByDefaultAndAfterNull) {
  Small f;
  EXPECT_FALSE(f);
  f = [](int x) { return x + 1; };
  EXPECT_TRUE(f);
  EXPECT_EQ(f(41), 42);
  f = nullptr;
  EXPECT_FALSE(f);
}

TEST(InlineFunction, StoresSmallCallablesInline) {
  int a = 1;
  auto fits = [a](int x) { return x + a; };
  std::array<char, 64> big{};
  auto boxed = [big](int x) { return x + big[0]; };
  static_assert(Small::stores_inline<decltype(fits)>);
  static_assert(!Small::stores_inline<decltype(boxed)>);
  Small f(fits);
  Small g(boxed);
  EXPECT_EQ(f(1), 2);
  EXPECT_EQ(g(5), 5);
}

TEST(InlineFunction, MoveLeavesSourceEmptyAndKeepsCaptureAlive) {
  int live = 0;
  for (const bool inline_capture : {true, false}) {
    {
      Small a;
      if (inline_capture) {
        a = [t = Tracked(&live)](int x) { return x; };
      } else {
        a = [t = Tracked(&live), pad = std::array<char, 32>{}](int x) {
          return x + pad[0];
        };
      }
      EXPECT_EQ(live, 1);
      Small b(std::move(a));
      EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(live, 1);
      Small c;
      c = std::move(b);
      EXPECT_EQ(c(3), 3);
      EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0) << (inline_capture ? "inline" : "boxed");
  }
}

TEST(InlineFunction, HoldsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(9);
  InlineFunction<int(), 16> f([q = std::move(p)] { return *q; });
  InlineFunction<int(), 16> g(std::move(f));
  EXPECT_EQ(g(), 9);
}

TEST(InlineFunction, MutableCallableKeepsState) {
  InlineFunction<int(), 16> counter([n = 0]() mutable { return ++n; });
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

TEST(RingQueue, FifoAcrossWrapAndGrowth) {
  RingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head wraps, then outgrow the ring.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 + round % 5; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2 && !q.empty(); ++i) EXPECT_EQ(q.pop_front(), next_out++);
  }
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, EraseAndPopReleaseTheItem) {
  int live = 0;
  RingQueue<InlineFunction<void(), 16>> q;
  for (int i = 0; i < 5; ++i) q.push_back([t = Tracked(&live)] {});
  EXPECT_EQ(live, 5);
  q.erase(2);
  EXPECT_EQ(live, 4);
  q.erase(q.size() - 1);
  EXPECT_EQ(live, 3);
  { auto front = q.pop_front(); }
  EXPECT_EQ(live, 2);
}

TEST(RingQueue, EraseKeepsOrder) {
  RingQueue<std::string> q;
  for (const char* s : {"a", "b", "c", "d", "e"}) q.push_back(s);
  q.pop_front();  // move the head off slot 0
  q.push_back("f");
  q.erase(2);  // "d"
  std::vector<std::string> rest;
  while (!q.empty()) rest.push_back(q.pop_front());
  EXPECT_EQ(rest, (std::vector<std::string>{"b", "c", "e", "f"}));
}

TEST(EventQueue, SlotsAreReusedAndClosuresDieWhenPopped) {
  EventQueue q;
  int live = 0;
  std::vector<int> order;
  for (int round = 0; round < 100; ++round) {
    q.push(round, [t = Tracked(&live), &order, round] { order.push_back(round); });
    q.push(round, [&order, round] { order.push_back(-round); });
    for (int i = 0; i < 2; ++i) {
      auto [when, cb] = q.pop();
      cb();
    }
    EXPECT_EQ(live, 0);
  }
  ASSERT_EQ(order.size(), 200u);
  for (int round = 0; round < 100; ++round) {
    EXPECT_EQ(order[2 * round], round);
    EXPECT_EQ(order[2 * round + 1], -round);
  }
}

}  // namespace
}  // namespace gsight::sim
