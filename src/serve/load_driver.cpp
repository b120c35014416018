#include "serve/load_driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/contracts.hpp"
#include "core/lock.hpp"
#include "stats/rng.hpp"
#include "stats/seed_stream.hpp"
#include "stats/summary.hpp"

namespace gsight::serve {

void DriverRequest::validate() const {
  if (requests == 0) {
    throw std::invalid_argument("DriverRequest: requests must be non-zero");
  }
  if (!(rate_hz > 0.0)) {
    throw std::invalid_argument("DriverRequest: rate_hz must be positive");
  }
  if (clients == 0) {
    throw std::invalid_argument("DriverRequest: clients must be non-zero");
  }
}

LoadDriver::LoadDriver(DriverRequest request) : request_(request) {
  request_.validate();
}

double LoadDriver::label_of(const std::vector<double>& features) {
  // Smooth, deterministic pseudo-QoS: weighted mean plus a mild
  // nonlinearity so the forest has structure to learn.
  double acc = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    acc += features[i] * (1.0 + static_cast<double>(i % 7) * 0.25);
  }
  const double mean = acc / static_cast<double>(features.size());
  return mean + 0.1 * mean * mean;
}

namespace {

constexpr double kNsPerSecond = 1e9;
constexpr double kNsPerMicro = 1e3;
using Callback = PredictionService::Callback;

// Target adapters: a service is a one-replica fleet with no drain
// schedule and no live stream, so one loop body drives either. Every
// replica shares the first one's config and clock.
PredictionService& lead(PredictionService& s) { return s; }
PredictionService& lead(PredictionFleet& f) { return f.replica(0); }
std::size_t replicas_of(PredictionService&) { return 1; }
std::size_t replicas_of(PredictionFleet& f) { return f.request().replicas; }
std::optional<std::size_t> submit_to(PredictionService& s, std::size_t,
                                     std::vector<double> x, Callback done) {
  if (!s.submit(std::move(x), std::move(done))) return std::nullopt;
  return 0;
}
std::optional<std::size_t> submit_to(PredictionFleet& f, std::size_t key,
                                     std::vector<double> x, Callback done) {
  return f.submit(key, std::move(x), std::move(done));
}
std::size_t poll_replica(PredictionService& s, std::size_t) {
  return s.poll();
}
std::size_t poll_replica(PredictionFleet& f, std::size_t r) {
  return f.poll_replica(r);
}
// The drain schedule is keyed to request indices: it fires before the
// submission of request i.
void run_drains(PredictionService&, std::size_t) {}
void run_drains(PredictionFleet& f, std::size_t i) {
  for (const auto& step : f.request().drains) {
    if (step.drain_at == i) f.drain(step.replica);
    if (step.readd_at == i && step.readd_at != 0) f.readd(step.replica);
  }
}
void emit_live(PredictionService&) {}
void emit_live(PredictionFleet& f) { f.emit_live_metrics(); }

std::vector<double> make_features(std::size_t dim, stats::Rng& rng) {
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.uniform();
  return x;
}

LoadOutcome finalise(std::vector<double>& latencies_us, std::size_t submitted,
                     std::size_t shed, double duration_s) {
  LoadOutcome out;
  out.submitted = submitted;
  out.shed = shed;
  out.completed = latencies_us.size();
  out.duration_s = duration_s;
  if (duration_s > 0.0) {
    out.throughput_rps = static_cast<double>(out.completed) / duration_s;
  }
  if (!latencies_us.empty()) {
    out.latency_p50_us = stats::percentile_inplace(latencies_us, 50.0);
    out.latency_p95_us = stats::percentile_inplace(latencies_us, 95.0);
    out.latency_p99_us = stats::percentile_inplace(latencies_us, 99.0);
    out.latency_max_us =
        *std::max_element(latencies_us.begin(), latencies_us.end());
    out.latency_mean_us = stats::mean(latencies_us);
  }
  return out;
}

template <typename Target>
LoadOutcome deterministic_loop(const DriverRequest& lc, Target& target) {
  GSIGHT_ASSERT(lc.mode == DriverRequest::Mode::kOpenLoop,
                "deterministic runs are open-loop (closed-loop latency "
                "needs a real clock)");
  const ServiceConfig& sc = lead(target).config();
  GSIGHT_ASSERT(sc.worker_threads == 0,
                "deterministic runs need a synchronous target");
  ManualClock* clock = target.manual_clock();
  GSIGHT_ASSERT(clock != nullptr,
                "deterministic runs need the target's own ManualClock");

  const auto linger_ns = static_cast<std::uint64_t>(sc.batch_linger.count());
  stats::Rng rng(stats::SeedStream::derive(lc.seed, 0));

  std::vector<double> latencies_us;
  latencies_us.reserve(lc.requests);
  auto on_done = [&latencies_us](const PredictResult& r) {
    latencies_us.push_back(static_cast<double>(r.latency_ns) / kNsPerMicro);
  };

  // Per-replica FIFO mirrors of queued submit times: a queue serves in
  // submission order, so a mirror's front is its oldest pending arrival —
  // which is what that replica's batch-forming deadline is measured from.
  std::vector<std::deque<std::uint64_t>> pending(replicas_of(target));
  auto serve = [&](std::size_t r) {
    const std::size_t served = poll_replica(target, r);
    for (std::size_t i = 0; i < served; ++i) pending[r].pop_front();
    return served;
  };
  // Fire every batch deadline due by `until` in global virtual-time order
  // (earliest first, ties to the lowest replica id). A drained replica
  // keeps its mirror, so its queue still empties here (zero lost).
  auto fire_deadlines = [&](std::uint64_t until) {
    for (;;) {
      std::optional<std::pair<std::uint64_t, std::size_t>> due;
      for (std::size_t r = 0; r < pending.size(); ++r) {
        if (pending[r].empty()) continue;
        const std::uint64_t at = pending[r].front() + linger_ns;
        if (!due || at < due->first) due = {{at, r}};
      }
      if (!due || due->first > until) return;
      clock->set_ns(due->first);
      if (serve(due->second) == 0) return;
    }
  };

  std::size_t shed = 0;
  double arrival_s = 0.0;
  std::uint64_t first_ns = 0;
  for (std::size_t i = 0; i < lc.requests; ++i) {
    arrival_s += rng.exponential(lc.rate_hz);
    const auto arrival_ns =
        static_cast<std::uint64_t>(arrival_s * kNsPerSecond);
    if (i == 0) first_ns = arrival_ns;
    fire_deadlines(arrival_ns);
    clock->set_ns(arrival_ns);
    run_drains(target, i);
    auto features = make_features(sc.feature_dim, rng);
    if (lc.observe_every > 0 && i % lc.observe_every == 0) {
      // Same vector as the request: prediction and ground truth pair up.
      target.observe(features, LoadDriver::label_of(features));
    }
    const auto routed = submit_to(target, i, std::move(features), on_done);
    if (routed) {
      pending[*routed].push_back(arrival_ns);
      // A full batch is served immediately — no reason to linger.
      while (pending[*routed].size() >= sc.max_batch) {
        if (serve(*routed) == 0) break;
      }
    } else {
      ++shed;
    }
    if (lc.live_every > 0 && i % lc.live_every == 0) emit_live(target);
  }
  // Tail: serve the remaining requests at their deadlines.
  fire_deadlines(std::numeric_limits<std::uint64_t>::max());
  target.train_now();  // fold any leftover observations
  if (lc.live_every > 0) emit_live(target);

  const double duration_s =
      static_cast<double>(clock->now_ns() - first_ns) / kNsPerSecond;
  return finalise(latencies_us, lc.requests, shed, duration_s);
}

template <typename Target>
LoadOutcome realtime_loop(const DriverRequest& lc, Target& target) {
  const ServiceConfig& sc = lead(target).config();
  GSIGHT_ASSERT(sc.worker_threads > 0, "run_threaded needs a threaded target");
  target.start();
  const Clock* clock = lead(target).clock();

  core::Mutex lat_mutex;
  std::vector<double> latencies_us;
  latencies_us.reserve(lc.requests);
  std::atomic<std::size_t> completed{0};
  auto on_done = [&](const PredictResult& r) {
    {
      core::MutexLock lock(lat_mutex);
      latencies_us.push_back(static_cast<double>(r.latency_ns) / kNsPerMicro);
    }
    completed.fetch_add(1, std::memory_order_release);
  };
  auto observe_if_due = [&](std::size_t i, const std::vector<double>& x) {
    if (lc.observe_every > 0 && i % lc.observe_every == 0) {
      target.observe(x, LoadDriver::label_of(x));
    }
  };

  const std::uint64_t start_ns = clock->now_ns();
  std::size_t shed = 0;

  if (lc.mode == DriverRequest::Mode::kOpenLoop) {
    stats::Rng rng(stats::SeedStream::derive(lc.seed, 0));
    double arrival_s = 0.0;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < lc.requests; ++i) {
      arrival_s += rng.exponential(lc.rate_hz);
      const auto due_ns =
          start_ns + static_cast<std::uint64_t>(arrival_s * kNsPerSecond);
      // Open loop: hold the schedule regardless of completions.
      for (;;) {
        const std::uint64_t now = clock->now_ns();
        if (now >= due_ns) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::uint64_t>(due_ns - now, 200'000)));
      }
      // Drains run genuinely under load: a drain blocks inline until the
      // replica's in-flight requests finish while its peers keep serving.
      run_drains(target, i);
      auto features = make_features(sc.feature_dim, rng);
      observe_if_due(i, features);
      if (submit_to(target, i, std::move(features), on_done)) {
        ++accepted;
      } else {
        ++shed;
      }
      if (lc.live_every > 0 && i % lc.live_every == 0) emit_live(target);
    }
    // Wait for in-flight work to complete (bounded: the queues are
    // bounded and workers drain them, so this terminates).
    while (completed.load(std::memory_order_acquire) < accepted) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> shed_count{0};
    std::vector<std::thread> clients;
    clients.reserve(lc.clients);
    for (std::size_t c = 0; c < lc.clients; ++c) {
      clients.emplace_back([&, c] {
        stats::Rng rng(stats::SeedStream::derive(lc.seed, c + 1));
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= lc.requests) return;
          auto features = make_features(sc.feature_dim, rng);
          observe_if_due(i, features);
          // Closed-loop clients wait on a promise the serving replica
          // fulfils (PredictionService::predict_wait, for either target).
          auto state = std::make_shared<std::promise<PredictResult>>();
          auto result = state->get_future();
          if (!submit_to(target, i, std::move(features),
                         [state](const PredictResult& r) {
                           state->set_value(r);
                         })) {
            shed_count.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          on_done(result.get());
        }
      });
    }
    for (auto& t : clients) t.join();
    shed = shed_count.load();
  }

  const double duration_s =
      static_cast<double>(clock->now_ns() - start_ns) / kNsPerSecond;
  core::MutexLock lock(lat_mutex);
  return finalise(latencies_us, lc.requests, shed, duration_s);
}

}  // namespace

LoadOutcome LoadDriver::run_deterministic(PredictionService& service) {
  return deterministic_loop(request_, service);
}

LoadOutcome LoadDriver::run_deterministic(PredictionFleet& fleet) {
  return deterministic_loop(request_, fleet);
}

LoadOutcome LoadDriver::run_threaded(PredictionService& service) {
  return realtime_loop(request_, service);
}

LoadOutcome LoadDriver::run_threaded(PredictionFleet& fleet) {
  return realtime_loop(request_, fleet);
}

}  // namespace gsight::serve
