// Workloads `estate` and `cells`: the 256-socket estate of
// bench_shard_scaling under one compressed diurnal day (600 s), with the
// gateway knee lifted to 4096 so neither topology saturates.
//
//   estate — one cell of 256 sockets: a single event loop whose gateway
//            scans all 256 instances for its backlog on every forward.
//   cells  — the same estate and aggregate load as 8 cells x 32 sockets
//            with 5% cross-cell handoffs, advanced on 2 lanes by 2 threads
//            through the epoch mailbox.
//
// Each repetition builds kBuilds fresh engines, timing each build as
// set-up, and advances the last through the day with one
// ShardedEngine::run_until call. The traced run re-installs each
// cell's gateway backlog source around Cluster::total_backlog and
// re-points every server's slice sink to a forwarder into the cell's
// Recorder, counting calls and time per cell.
#include <memory>
#include <string>
#include <vector>

#include "sim/sharded_engine.hpp"
#include "stats/summary.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace gsight;

constexpr double kDaySeconds = 600.0;
/// Engines built per repetition; the day runs on the last one.
constexpr int kBuilds = 5;

sim::ShardedEngineConfig estate_config(bool cells, std::uint64_t seed) {
  const std::size_t cell_count = cells ? 8 : 1;
  sim::ShardedEngineConfig cfg;
  cfg.servers = 256 / cell_count;
  cfg.server = sim::ServerConfig::socket();
  cfg.seed = seed;
  cfg.topology.clusters = cell_count;
  cfg.topology.shards = cells ? 2 : 1;
  cfg.topology.hop_latency_s = 0.05;
  cfg.threads = cells ? 2 : 1;
  cfg.remote_fraction = 0.05;
  cfg.gateway.instance_knee = 4096.0;
  // base_qps is per cell, so both topologies carry the same aggregate load.
  cfg.trace.base_qps = 80.0 * (8.0 / static_cast<double>(cell_count));
  return cfg;
}

/// Forwards every slice into the cell's Recorder and times the call.
class TimedSliceSink final : public sim::ExecSliceSink {
 public:
  TimedSliceSink(sim::Recorder* recorder, HotTimer* timer)
      : recorder_(recorder), timer_(timer) {}

  void on_exec_slice(void* owner, sim::SimTime end, double dt,
                     const sim::ExecObservation& obs,
                     const wl::Phase& phase) override {
    const std::int64_t t0 = now_ns();
    recorder_->on_exec_slice(owner, end, dt, obs, phase);
    timer_->ns += now_ns() - t0;
    ++timer_->calls;
  }
  void on_exec_aborted(void* owner, sim::SimTime when) override {
    recorder_->on_exec_aborted(owner, when);
  }

 private:
  sim::Recorder* recorder_;
  HotTimer* timer_;
};

/// Per-cell hot-boundary timers; each cell is advanced by one lane at a
/// time, so its timers need no synchronisation and are merged afterwards.
struct CellTimers {
  HotTimer backlog;
  HotTimer recorder;
  std::unique_ptr<TimedSliceSink> sink;
};

void install_timers(sim::ShardedEngine& engine, std::vector<CellTimers>& cells) {
  cells.resize(engine.shard_count());
  for (std::size_t i = 0; i < engine.shard_count(); ++i) {
    sim::Platform& platform = engine.shard(i).platform();
    CellTimers& t = cells[i];
    t.sink = std::make_unique<TimedSliceSink>(&platform.recorder(), &t.recorder);
    for (std::size_t s = 0; s < platform.cluster().size(); ++s) {
      platform.cluster().server(s).set_slice_sink(t.sink.get());
    }
    sim::Cluster* cluster = &platform.cluster();
    HotTimer* backlog = &t.backlog;
    platform.gateway().set_backend_backlog_source([cluster, backlog] {
      const std::int64_t t0 = now_ns();
      const std::size_t n = cluster->total_backlog();
      backlog->ns += now_ns() - t0;
      ++backlog->calls;
      return n;
    });
  }
}

struct Rep {
  std::vector<double> setup_s;
  double run_s = 0.0;
  /// CPU time of the calling thread over the day (all of the day's work
  /// in `estate`; the coordinator's share in `cells`).
  double cpu_s = 0.0;
  std::string digest;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t messages = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t in_flight = 0;
  HotTimer backlog;
  HotTimer recorder;
};

Rep run_rep(const sim::ShardedEngineConfig& cfg, SpanLog* log) {
  Rep rep;
  std::unique_ptr<sim::ShardedEngine> engine;
  for (int b = 0; b < kBuilds; ++b) {
    engine.reset();
    Scope s(log, "setup.estate");
    const std::int64_t t0 = now_ns();
    engine = std::make_unique<sim::ShardedEngine>(cfg);
    engine->deploy_default_load();
    rep.setup_s.push_back(seconds_since(t0));
  }
  std::vector<CellTimers> timers;
  if (log != nullptr) install_timers(*engine, timers);

  const std::int64_t t1 = now_ns();
  const std::int64_t c1 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  {
    Scope s(log, "sim.run_until");
    engine->run_until(kDaySeconds);
  }
  rep.run_s = seconds_since(t1);
  rep.cpu_s = static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - c1) * 1e-9;

  rep.digest = digest_hex(engine->merged_digest());
  rep.events = engine->events_executed();
  rep.epochs = engine->epochs_run();
  rep.messages = engine->messages_exchanged();
  for (std::size_t i = 0; i < engine->shard_count(); ++i) {
    const sim::Shard& shard = engine->shard(i);
    rep.issued += shard.requests_issued();
    const sim::Platform& platform = shard.platform();
    for (std::size_t a = 0; a < platform.app_count(); ++a) {
      const sim::AppStats& st = platform.stats(a);
      rep.completed += st.e2e.size();
      rep.failed += st.failed;
      rep.cancelled += st.cancelled;
    }
    rep.in_flight +=
        platform.request_pool().allocated() - platform.request_pool().available();
  }
  for (const auto& t : timers) {
    rep.backlog.merge(t.backlog);
    rep.recorder.merge(t.recorder);
  }
  return rep;
}

}  // namespace

Outcome run_estate(const Options& opt, bool cells) {
  Outcome out;
  const sim::ShardedEngineConfig cfg = estate_config(cells, opt.seed);

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  SpanLog trace_log;
  double rss_mb = 0.0;
  const std::int64_t start = now_ns();
  while (plain.size() + traced.size() < 2 || seconds_since(start) < opt.seconds) {
    const bool trace_this = opt.trace && plain.size() > traced.size();
    if (trace_this) {
      SpanLog log;
      traced.push_back(run_rep(cfg, &log));
      if (traced.size() == 1) trace_log = std::move(log);
    } else {
      plain.push_back(run_rep(cfg, nullptr));
      // Peak RSS of one set-up plus one day; later repetitions only add
      // allocator fragmentation. In `cells` it depends on which malloc
      // arenas the lane threads land in (46 or 60 MB from run to run), so
      // it is only reported in the detail there.
      if (plain.size() == 1) {
        rss_mb = peak_rss_mb();
        if (!cells) out.metric("peak_rss_mb", rss_mb, "MB");
      }
    }
  }

  Rep& first = plain.front();
  if (opt.fault == "drop-completion" && first.completed > 0) --first.completed;
  bool twins_equal = true;
  for (const auto& r : plain) twins_equal &= r.digest == first.digest;
  out.check("twin repetitions give identical digests", twins_equal);
  if (!traced.empty()) {
    bool traced_equal = true;
    for (const auto& r : traced) traced_equal &= r.digest == first.digest;
    out.check("traced repetitions give the untraced digest", traced_equal);
  }
  const std::uint64_t accounted =
      first.completed + first.failed + first.cancelled + first.in_flight;
  out.check("issued = completed + failed + cancelled + in flight",
            first.issued == accounted,
            std::to_string(first.issued) + " issued vs " +
                std::to_string(accounted) + " accounted");
  out.check("requests were simulated", first.issued > 0);
  out.digests["merged"] = first.digest;
  out.attempted = first.issued;
  out.failed = first.failed;

  // Set-up (building the engine and deploying its load) takes under a
  // millisecond and is timed in every repetition, so its median, like
  // run_s's, spans the whole run: on a shared 4-core x86-64 machine a
  // build's time swung by up to 2x from one second to the next.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  for (const auto& r : plain) {
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    run_s.push_back(r.run_s);
    cpu_s.push_back(r.cpu_s);
  }
  out.metric("setup_s", stats::median(setup_s), "s");
  out.metric("run_s", stats::median(run_s), "s");
  out.detail.set("run_s_per_repetition", json_list(run_s));
  out.detail.set("cpu_s_per_repetition", json_list(cpu_s));
  out.detail.set("setup_s_per_build", json_list(setup_s));
  out.detail.set("peak_rss_mb", rss_mb);
  out.detail.set("events", first.events);
  out.detail.set("in_flight_at_horizon", first.in_flight);

  if (opt.trace) {
    const Rep& t = traced.front();
    std::vector<double> traced_run_s;
    for (const auto& r : traced) traced_run_s.push_back(r.run_s);
    zero_layer_metrics(out);
    out.metric("sim.events", static_cast<double>(t.events), "count");
    out.metric("sim.self_s", t.run_s, "s");
    out.metric("sim.backlog_s", t.backlog.seconds(), "s");
    out.metric("sim.backlog_scans", static_cast<double>(t.backlog.calls), "count");
    out.metric("sim.recorder_s", t.recorder.seconds(), "s");
    out.metric("sim.slices", static_cast<double>(t.recorder.calls), "count");
    out.metric("sim.dispatch_s",
               t.run_s - t.backlog.seconds() - t.recorder.seconds(), "s");
    out.metric("sim.epochs", static_cast<double>(t.epochs), "count");
    out.metric("sim.mailbox_messages", static_cast<double>(t.messages), "count");
    out.metric("trace.run_s", t.run_s, "s");
    out.metric("trace.overhead_s", stats::median(traced_run_s) - stats::median(run_s), "s");
    out.spans = trace_log.spans();
  }
  return out;
}

}  // namespace perfbench
