// gsight-analyze: hot-path
#include "sim/event_queue.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "core/contracts.hpp"

namespace gsight::sim {

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

// Re-seat `k` starting from the root after the minimum was removed.
void EventQueue::sift_down(Key k) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], k)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = k;
}

void EventQueue::push(SimTime when, Callback cb) {
  GSIGHT_ASSERT(!std::isnan(when), "event time is NaN");
  GSIGHT_ASSERT(std::isfinite(when), "event time is infinite");
  GSIGHT_ASSERT(when >= 0.0, "event time is negative");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  } else {
    GSIGHT_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "event slot pool exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

SimTime EventQueue::next_time() const {
  GSIGHT_ASSERT(!heap_.empty(), "next_time on empty queue");
  return heap_.front().when;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  GSIGHT_ASSERT(!heap_.empty(), "pop on empty queue");
  const Key k = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
  GSIGHT_INVARIANT(k.when >= last_popped_, "event times dequeued out of order");
  last_popped_ = k.when;
  // The closure leaves its slot before it runs: it may schedule events,
  // and a push that grows slots_ must not move a running closure.
  Callback cb = std::move(slots_[k.slot]);
  free_slots_.push_back(k.slot);
  return {k.when, std::move(cb)};
}

}  // namespace gsight::sim
