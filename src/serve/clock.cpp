#include "serve/clock.hpp"

#include <chrono>

namespace gsight::serve {

// The serving layer is the one resident, real-time component in src/: it
// measures request latency and paces open-loop load against the host's
// monotonic clock. Simulation code must still take time from
// sim::Engine::now() — the lint waiver is scoped to exactly these lines.
std::uint64_t SteadyClock::now_ns() const {
  const auto t =
      std::chrono::steady_clock::now();  // gsight-analyze: allow(wall-clock)
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

const SteadyClock& SteadyClock::instance() {
  static const SteadyClock clock;
  return clock;
}

}  // namespace gsight::serve
