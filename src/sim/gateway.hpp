// Gateway — the shared frontend of OpenFaaS/OpenWhisk-style platforms.
// Every invocation is received here and forwarded to a backend instance.
// Two properties matter for the paper's observations:
//  * per-forward cost grows with the queue the gateway manages, so one
//    saturated function degrades invocation speed for all others
//    (Observation 4, mechanism 2);
//  * bookkeeping cost grows superlinearly with the number of instances,
//    producing the >120-instance forwarding knee of Figure 14.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "stats/summary.hpp"

namespace gsight::sim {

/// Upper bound on the cloning fan-out. Small on purpose: it lets the
/// request layer keep per-clone state in a fixed-size array (no
/// allocation on the request hot path) and matches the d <= 4 range
/// studied in the request-cloning PS literature.
inline constexpr std::size_t kMaxCloneFactor = 8;

/// Gateway-level request cloning ("Modeling of Request Cloning in Cloud
/// Server Systems using Processor Sharing"): each external request fans
/// out into `factor` clones routed to distinct servers; the first clone
/// to complete wins and the siblings are cancelled.
struct CloneConfig {
  enum class Policy {
    /// Each clone draws its own duration jitter — clones act like
    /// independent samples of the service time (C(n,d)-style).
    kIndependent,
    /// Every sibling gets the same jitter draw — only placement and
    /// interference differ, the paper's synchronized-service model.
    kSynchronized,
  };
  std::size_t factor = 1;  ///< d; 1 disables cloning
  Policy policy = Policy::kIndependent;

  /// Throws std::invalid_argument when factor is outside
  /// [1, kMaxCloneFactor].
  void validate() const;
};

struct GatewayConfig {
  double base_service_s = 0.0001;  ///< cost of one forward, unloaded
  /// Extra service cost per invocation queued at the *backends* (the
  /// waiting queues of saturated functions the gateway must manage —
  /// Observation 4's second mechanism), as a fraction of base. The
  /// gateway's own queue is deliberately not priced: that feedback loop
  /// would be unconditionally unstable once arrival exceeds capacity.
  double backlog_coeff = 0.002;
  /// Ceiling on the backlog multiplier (1 + coeff * backlog is clamped to
  /// this) so a hopelessly saturated backend degrades the gateway without
  /// killing it.
  double max_backlog_factor = 3.0;
  /// Instance-count knee: cost multiplier is 1 + (n / knee)^exponent.
  double instance_knee = 120.0;
  double instance_exponent = 6.0;
  /// Request-cloning discipline applied at admission (jobs are never
  /// cloned — replaying a batch job d times has no latency story).
  CloneConfig clone;

  /// Throws std::invalid_argument on any field that would make
  /// current_service_s() non-finite or negative. Mirrors
  /// ClusterSpec::validate(): configuration errors are reported at
  /// construction, where the bad field is named, instead of tripping the
  /// "bad gateway service time" invariant mid-run.
  void validate() const;
};

class Gateway {
 public:
  /// 32 bytes hold a request's delivery closure: a RequestRef, the
  /// call-graph node, the clone index and the forwarding time.
  using Deliver = InlineFunction<void(), 32>;

  Gateway(Engine* engine, GatewayConfig config);

  /// Counter of invocations queued at backends; maintained by the
  /// platform so the gateway can price queue management. Read once per
  /// forward.
  void set_backend_backlog_source(std::function<std::size_t()> source) {
    backend_backlog_ = std::move(source);
  }
  void set_instance_count_source(std::function<std::size_t()> source) {
    instance_count_ = std::move(source);
  }

  /// Accept one invocation; `deliver` runs after the (load-dependent)
  /// forwarding delay.
  void forward(Deliver deliver);

  std::size_t queue_depth() const { return queue_.size(); }
  std::uint64_t forwards() const { return forwards_; }
  const CloneConfig& clone_config() const { return config_.clone; }
  const stats::Reservoir& forwarding_latencies() const { return latencies_; }
  /// Instantaneous per-forward service time under current load.
  double current_service_s() const;

  /// Observability wiring (Platform). `tracer` may be the platform's
  /// always-present tracer (cost is one null-sink check per forward);
  /// `forward_hist` receives every forwarding latency.
  void set_observability(obs::Tracer* tracer, obs::Counter* forward_counter,
                         obs::HistogramMetric* forward_hist) {
    tracer_ = tracer;
    forward_counter_ = forward_counter;
    forward_hist_ = forward_hist;
  }

 private:
  void serve_next();

  Engine* engine_;
  GatewayConfig config_;
  std::function<std::size_t()> backend_backlog_;
  std::function<std::size_t()> instance_count_;
  struct Item {
    SimTime enqueued = 0.0;
    Deliver deliver;
  };
  RingQueue<Item> queue_;
  bool busy_ = false;
  std::uint64_t forwards_ = 0;
  stats::Reservoir latencies_{8192, 0xFACE};
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* forward_counter_ = nullptr;
  obs::HistogramMetric* forward_hist_ = nullptr;
};

}  // namespace gsight::sim
