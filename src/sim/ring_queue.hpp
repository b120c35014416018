// RingQueue — a FIFO over a power-of-two ring of reused slots. Instances
// and the gateway cycle an item in and out of their queue for every
// invocation; std::deque frees and allocates a chunk every few items
// under that pattern, where this ring allocates only when the queue
// grows past its high-water mark. Vacated slots hold moved-from (empty)
// values, so a slot keeps nothing alive once its item left the queue.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/contracts.hpp"

namespace gsight::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th queued item, 0 being the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  /// Remove and return the front item.
  T pop_front() {
    GSIGHT_ASSERT(size_ > 0, "pop_front on an empty RingQueue");
    T out = std::move(front());
    head_ = (head_ + 1) & mask();
    --size_;
    return out;
  }

  /// Remove the i-th item, keeping the order of the rest. The removed
  /// value is destroyed before this returns.
  void erase(std::size_t i) {
    GSIGHT_ASSERT(i < size_, "RingQueue::erase out of range");
    for (std::size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    (*this)[size_ - 1] = T{};
    --size_;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gsight::sim
