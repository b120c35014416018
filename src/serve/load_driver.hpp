// LoadDriver — synthetic load against a PredictionService or a whole
// PredictionFleet, the harness behind `gsight serve-bench`. Two loop
// disciplines (classic load-testing shapes):
//
//   open loop   — requests arrive on a Poisson schedule at rate_hz
//                 regardless of completions, the arrival process a
//                 serverless gateway actually sees. Overload therefore
//                 shows up as shedding, not as a silently slowed client.
//   closed loop — `clients` concurrent callers each submit, wait for the
//                 result, and repeat: the scheduler-in-the-loop shape.
//
// There is one loop body per regime, each a template over the target: a
// service is driven as a one-replica fleet with no drain schedule and no
// live stream. Against a synchronous target (worker_threads == 0) the
// open loop runs on a virtual timeline (ManualClock): arrivals, per-
// replica batch-forming deadlines and completions all advance
// deterministically, so two runs with the same seed produce byte-
// identical latency distributions and shed/batch counters — the
// serve-bench determinism gate. A fleet's drain schedule fires at its
// request indices and (with live_every set) metric deltas stream to its
// live sink on the same virtual timeline, so even a mid-run drain/re-add
// twin run stays byte-identical. Against a threaded target both loops run
// in real time, and closed-loop clients wait on a promise either way.
//
// A configurable fraction of requests doubles as labelled observations
// (features + synthetic ground truth) so the trainer publishes fresh
// snapshots *under load* — the hot-swap path the bench certifies.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/service.hpp"

namespace gsight::serve {

/// All load-shape knobs in one request struct (the validate() pattern of
/// ClusterSpec/GatewayConfig/FleetRequest).
struct DriverRequest {
  enum class Mode { kOpenLoop, kClosedLoop };
  Mode mode = Mode::kOpenLoop;
  /// Total requests to submit (open loop) / to complete (closed loop).
  std::size_t requests = 10000;
  /// Open-loop Poisson arrival rate.
  double rate_hz = 50'000.0;
  /// Closed-loop concurrent clients.
  std::size_t clients = 4;
  /// Every n-th request also feeds a labelled observation to the
  /// trainer (0 = never): this is what drives hot swaps under load.
  std::size_t observe_every = 8;
  /// Fleet runs: emit live metric deltas every n-th submission (0 = off;
  /// needs a live sink attached to the fleet).
  std::size_t live_every = 0;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument naming the first bad field.
  void validate() const;
};

struct LoadOutcome {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  /// Virtual seconds (deterministic run) or real seconds (threaded run)
  /// from first submission to last completion.
  double duration_s = 0.0;
  double throughput_rps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_mean_us = 0.0;
  double latency_max_us = 0.0;
};

class LoadDriver {
 public:
  explicit LoadDriver(DriverRequest request);

  /// Deterministic open-loop drive of a synchronous service (requires
  /// worker_threads == 0 and the service's own ManualClock). Virtual
  /// latency measures the batching policy: queueing delay between
  /// arrival and the batch that served it.
  LoadOutcome run_deterministic(PredictionService& service);

  /// Deterministic open-loop drive of a synchronous fleet on its shared
  /// ManualClock. Request i is submitted under key i; the fleet's drain
  /// schedule fires before the submission of its drain_at/readd_at
  /// indices; per-replica batch deadlines fire in global virtual-time
  /// order (earliest deadline first, ties to the lowest replica id).
  LoadOutcome run_deterministic(PredictionFleet& fleet);

  /// Real-time drive of a started, threaded service (either mode).
  LoadOutcome run_threaded(PredictionService& service);

  /// Real-time drive of a threaded fleet (either mode). Drain steps run
  /// inline at their request indices — i.e. genuinely under load.
  LoadOutcome run_threaded(PredictionFleet& fleet);

  const DriverRequest& request() const { return request_; }

  /// Synthetic ground truth: a fixed smooth function of the features,
  /// so the model actually converges on something under online updates.
  /// Public so `gsight serve-bench` can warm the model on the same
  /// function the driver labels with.
  static double label_of(const std::vector<double>& features);

 private:
  DriverRequest request_;
};

}  // namespace gsight::serve
