// ClusterSpec — the cluster-shaped fields every run-configuration struct
// used to repeat (server count, node hardware, interference model, root
// seed, trace sink). sim::PlatformConfig, core::RunnerConfig and
// sched::ExperimentConfig all embed it by inheritance, so the fields read
// as direct members at existing call sites (`cfg.servers`, `cfg.seed`)
// while being defined — and validated — exactly once.
#pragma once

#include <cstdint>
#include <cstddef>

#include "sim/interference.hpp"
#include "sim/resources.hpp"

namespace gsight::obs {
class TraceSink;
}  // namespace gsight::obs

namespace gsight::sim {

struct ClusterSpec {
  std::size_t servers = 8;
  ServerConfig server = ServerConfig::tianjin_testbed();
  InterferenceParams interference;
  /// Root seed for the run. Components derive their private streams with
  /// stats::SeedStream::derive(seed, tag) — never by reusing or offsetting
  /// the root directly (DESIGN.md §9).
  std::uint64_t seed = 1234;
  /// Span-trace sink. nullptr falls back to obs::default_trace_sink()
  /// when `use_default_trace_sink` holds (set by the bench harness from
  /// $GSIGHT_TRACE), which is itself null by default — tracing off.
  obs::TraceSink* trace_sink = nullptr;
  /// Campaign workers clear this so parallel tasks never race on the
  /// process-wide default sink; an explicit `trace_sink` still applies.
  bool use_default_trace_sink = true;

  /// Throws std::invalid_argument on an unrunnable cluster: zero servers
  /// or non-positive node capacities/durations.
  void validate() const;
};

}  // namespace gsight::sim
