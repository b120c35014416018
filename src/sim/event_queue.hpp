// Time-ordered event queue for the discrete-event engine. Events are
// closures tagged with a sequence number so simultaneous events fire in
// scheduling order (deterministic replay). Cancellation is by generation
// counters at the call sites (lazy invalidation), not by queue surgery.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"

namespace gsight::sim {

using SimTime = double;  ///< seconds since simulation start

class EventQueue {
 public:
  /// 64 bytes hold every closure src/sim schedules; the largest are the
  /// open-loop arrival (which carries the rate std::function) and the
  /// mailbox delivery (which carries the message's apply std::function).
  using Callback = InlineFunction<void(), 64>;

  /// Contract: `when` must be finite (non-NaN) and non-negative.
  void push(SimTime when, Callback cb);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const;
  /// Pop and return the earliest event (time, callback). Contract: popped
  /// times are monotonically non-decreasing over the queue's lifetime.
  std::pair<SimTime, Callback> pop();

 private:
  /// Heap entry: trivially copyable, so sifting moves 24 bytes and never
  /// touches a closure. `slot` indexes the closure in slots_.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Strict total order on (when, seq) — seq is unique, so pop order is
  /// fully determined and replay-deterministic regardless of heap shape.
  static bool earlier(const Key& a, const Key& b) {
    // Exact comparison of stored (not computed) times is the tie-break
    // that makes replay deterministic, so the lint rule is waived here.
    return a.when < b.when ||
           (a.when == b.when && a.seq < b.seq);  // gsight-analyze: allow(simtime-eq)
  }
  void sift_up(std::size_t i);
  void sift_down(Key k);

  // Hand-rolled binary min-heap of keys. The closures wait in a slot pool
  // that only grows to the high-water mark of pending events: a popped
  // event's slot goes on the free list and the next push reuses it, so
  // steady-state scheduling allocates nothing.
  std::vector<Key> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0.0;
};

}  // namespace gsight::sim
