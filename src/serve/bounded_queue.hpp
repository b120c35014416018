// Bounded MPMC queue — the admission-control primitive of the serving
// layer. Capacity is fixed at construction; try_push never blocks and
// fails when the queue is full, which is where load shedding happens
// (the caller counts the shed and answers the client immediately instead
// of letting queueing delay grow without bound).
//
// Consumers take *batches*: pop_batch blocks until at least one item is
// available, then lingers up to `linger` for the batch to fill to `max`
// — the micro-batch-forming deadline of serve::PredictionService. The
// non-blocking try_pop_batch variant is the synchronous-mode path: it
// takes whatever is queued right now, so a single-threaded driver stays
// deterministic (no timing-dependent batch boundaries).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/lock.hpp"

namespace gsight::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    GSIGHT_ASSERT(capacity > 0, "BoundedQueue capacity must be positive");
  }

  /// Enqueue unless full or closed. Never blocks; false = shed.
  bool try_push(T&& item) GSIGHT_EXCLUDES(mutex_) {
    {
      core::MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking batch pop for worker threads. Waits for the first item
  /// (indefinitely, unless the queue closes), then waits up to `linger`
  /// for the batch to reach `max` items. Appends to `out` and returns
  /// the number of items taken; 0 means closed-and-drained, the worker's
  /// signal to exit.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max,
                        std::chrono::nanoseconds linger)
      GSIGHT_EXCLUDES(mutex_) {
    GSIGHT_ASSERT(max > 0, "BoundedQueue::pop_batch needs max > 0");
    core::MutexUniqueLock lock(mutex_);
    // Waits are explicit loops, not predicate lambdas: a lambda is
    // analysed as a separate function that does not hold mutex_, so its
    // guarded reads would (correctly) fail -Wthread-safety.
    while (!closed_ && items_.empty()) ready_.wait(lock.raw());
    if (items_.empty()) return 0;  // closed and drained
    if (items_.size() < max && linger.count() > 0) {
      // Batch-forming deadline: trade a bounded wait for a fuller batch.
      // Host-time deadline is sanctioned here: the queue is the serving
      // layer's real-time primitive (see serve/clock.hpp).
      const auto deadline =
          std::chrono::steady_clock::now() + linger;  // gsight-analyze: allow(wall-clock)
      while (!closed_ && items_.size() < max) {
        if (ready_.wait_until(lock.raw(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    return take_locked(out, max);
  }

  /// Non-blocking batch pop (synchronous mode): takes min(size, max)
  /// items immediately.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max)
      GSIGHT_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    return take_locked(out, max);
  }

  /// Close the queue: pushes start failing and blocked consumers wake.
  /// Already queued items stay poppable so shutdown drains cleanly.
  void close() GSIGHT_EXCLUDES(mutex_) {
    {
      core::MutexLock lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const GSIGHT_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const GSIGHT_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t take_locked(std::vector<T>& out, std::size_t max)
      GSIGHT_REQUIRES(mutex_) {
    std::size_t taken = 0;
    while (taken < max && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    return taken;
  }

  const std::size_t capacity_;
  mutable core::Mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_ GSIGHT_GUARDED_BY(mutex_);
  bool closed_ GSIGHT_GUARDED_BY(mutex_) = false;
};

}  // namespace gsight::serve
