// gsight-analyze: hot-path
#include "sim/gateway.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace gsight::sim {

namespace {

void require_finite_nonnegative(double value, const char* what) {
  if (!(std::isfinite(value) && value >= 0.0)) {
    throw std::invalid_argument(std::string("GatewayConfig: ") + what +
                                " must be finite and non-negative");
  }
}

}  // namespace

void CloneConfig::validate() const {
  if (factor < 1 || factor > kMaxCloneFactor) {
    throw std::invalid_argument(
        "CloneConfig: factor must be in [1, " +
        std::to_string(kMaxCloneFactor) + "], got " + std::to_string(factor));
  }
}

void GatewayConfig::validate() const {
  require_finite_nonnegative(base_service_s, "base_service_s");
  require_finite_nonnegative(backlog_coeff, "backlog_coeff");
  // The backlog multiplier is clamped to max_backlog_factor; a ceiling
  // below 1 would make load *reduce* the service time.
  if (!(std::isfinite(max_backlog_factor) && max_backlog_factor >= 1.0)) {
    throw std::invalid_argument(
        "GatewayConfig: max_backlog_factor must be finite and >= 1");
  }
  // instance_knee divides the instance count; zero or negative makes the
  // knee multiplier inf/NaN for any populated cluster.
  if (!(std::isfinite(instance_knee) && instance_knee > 0.0)) {
    throw std::invalid_argument(
        "GatewayConfig: instance_knee must be finite and positive");
  }
  require_finite_nonnegative(instance_exponent, "instance_exponent");
  clone.validate();
}

Gateway::Gateway(Engine* engine, GatewayConfig config)
    : engine_(engine), config_(config) {
  GSIGHT_ASSERT(engine_ != nullptr);
  config_.validate();
}

double Gateway::current_service_s() const {
  const double backlog =
      static_cast<double>(backend_backlog_ ? backend_backlog_() : 0);
  const double backlog_factor =
      std::min(1.0 + config_.backlog_coeff * backlog,
               config_.max_backlog_factor);
  const double instances =
      static_cast<double>(instance_count_ ? instance_count_() : 0);
  const double knee =
      1.0 + std::pow(instances / config_.instance_knee,
                     config_.instance_exponent);
  return config_.base_service_s * backlog_factor * knee;
}

void Gateway::forward(Deliver deliver) {
  queue_.push_back(Item{engine_->now(), std::move(deliver)});
  if (!busy_) serve_next();
  // Queue-length invariant: while the gateway is busy, the item in service
  // remains at the front, so the queue can never be observed empty.
  GSIGHT_INVARIANT(!busy_ || !queue_.empty(),
                   "gateway busy with an empty queue");
}

void Gateway::serve_next() {
  GSIGHT_ASSERT(!queue_.empty(), "serve_next on an empty gateway queue");
  busy_ = true;
  const double service = current_service_s();
  GSIGHT_INVARIANT(std::isfinite(service) && service >= 0.0,
                   "bad gateway service time");
  engine_->after(service, [this] {
    GSIGHT_ASSERT(busy_ && !queue_.empty(),
                  "gateway completion without an item in service");
    Item item = queue_.pop_front();
    const double latency = engine_->now() - item.enqueued;
    latencies_.add(latency);
    ++forwards_;
    if (forward_counter_ != nullptr) forward_counter_->inc();
    if (forward_hist_ != nullptr) forward_hist_->observe(latency);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete(item.enqueued, latency, "gateway.forward", "gateway",
                        obs::Lanes::kPlatform, /*tid=*/0);
      tracer_->counter(
          engine_->now(), "gateway.queue_depth", obs::Lanes::kPlatform,
          {{"depth", obs::json_number(static_cast<double>(queue_.size()))}});
    }
    item.deliver();
    busy_ = false;
    if (!queue_.empty()) serve_next();
  });
}

}  // namespace gsight::sim
