// gsight-analyze: hot-path
#include "sim/engine.hpp"

#include <cmath>

#include "core/contracts.hpp"

namespace gsight::sim {

void Engine::at(SimTime when, EventQueue::Callback cb) {
  GSIGHT_ASSERT(std::isfinite(when), "event time is not finite");
  GSIGHT_ASSERT(when >= now_, "event scheduled in the past");
  queue_.push(when, std::move(cb));
}

void Engine::after(SimTime delay, EventQueue::Callback cb) {
  GSIGHT_ASSERT(std::isfinite(delay), "event delay is not finite");
  GSIGHT_ASSERT(delay >= 0.0, "negative event delay");
  at(now_ + delay, std::move(cb));
}

std::size_t Engine::run_until(SimTime until) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [when, cb] = queue_.pop();
    now_ = when;
    cb();
    ++executed;
    ++events_executed_;
  }
  now_ = std::max(now_, until);
  return executed;
}

std::size_t Engine::run_all() {
  std::size_t executed = 0;
  while (!queue_.empty()) {
    auto [when, cb] = queue_.pop();
    now_ = when;
    cb();
    ++executed;
    ++events_executed_;
  }
  return executed;
}

}  // namespace gsight::sim
