#include "sched/cloning_frontier.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/platform.hpp"
#include "stats/seed_stream.hpp"
#include "stats/summary.hpp"
#include "workloads/phase.hpp"

namespace gsight::sched {

namespace {

/// Named sub-stream tag for per-cell root seeds (DESIGN.md §9).
constexpr std::uint64_t kFrontierCellTag = 0x46524F4E54434C4EULL;  // FRONTCLN

/// The latency-sensitive service under study: one short memory-leaning
/// phase with heavy duration jitter — the paper's C(n,d) setting, where
/// cloning pays exactly when service times are variable.
wl::App frontier_request_app(double jitter_sigma) {
  wl::FunctionSpec fn;
  fn.name = "serve";
  fn.mem_alloc_gb = 0.25;
  fn.cold_start_s = 0.25;
  fn.jitter_sigma = jitter_sigma;
  fn.phases.push_back(wl::memory_phase("serve", /*duration_s=*/0.02,
                                       /*cores=*/1.0, /*llc_mb=*/4.0,
                                       /*membw_gbps=*/4.0));
  wl::App app;
  app.name = "frontier-ls";
  app.cls = wl::WorkloadClass::kLatencySensitive;
  app.functions.push_back(std::move(fn));
  app.graph = wl::CallGraph(1);
  app.graph.set_root(0);
  return app;
}

/// One pinned background antagonist: a memory/bandwidth-heavy job whose
/// single phase outlives the whole horizon, so its pressure is constant.
wl::App antagonist_app(std::size_t idx, double duration_s) {
  wl::FunctionSpec fn;
  fn.name = "churn";
  fn.mem_alloc_gb = 1.0;
  fn.cold_start_s = 0.0;
  fn.jitter_sigma = 0.0;
  fn.phases.push_back(wl::memory_phase("churn", duration_s, /*cores=*/3.0,
                                       /*llc_mb=*/12.0, /*membw_gbps=*/8.0));
  wl::App app;
  app.name = "antagonist-" + std::to_string(idx);
  app.cls = wl::WorkloadClass::kBackground;
  app.functions.push_back(std::move(fn));
  app.graph = wl::CallGraph(1);
  app.graph.set_root(0);
  return app;
}

struct RepOutcome {
  stats::TailSummary tails;
  double completed = 0.0;
  double clones_cancelled = 0.0;
};

RepOutcome run_cell_rep(const CloningFrontierConfig& cfg, std::size_t factor,
                        std::size_t level, sim::ServiceDiscipline discipline,
                        std::uint64_t seed) {
  sim::PlatformConfig pc;
  pc.servers = cfg.servers;
  pc.server = sim::ServerConfig::socket();
  pc.server.discipline = discipline;
  pc.seed = seed;
  pc.use_default_trace_sink = false;
  pc.gateway.clone.factor = factor;
  pc.gateway.clone.policy = cfg.policy;
  sim::Platform platform(pc);

  // One LS root replica per server, so every clone of a request can reach
  // a distinct server (the route_clone exclusion rule).
  const wl::App request_app = frontier_request_app(cfg.jitter_sigma);
  const std::size_t app =
      platform.deploy(request_app, std::vector<std::size_t>{0});
  for (std::size_t s = 1; s < cfg.servers; ++s) {
    platform.add_replica(app, 0, s);
  }

  // `level` antagonists pinned to each server for the whole horizon.
  const double horizon = cfg.duration_s + cfg.drain_s;
  for (std::size_t s = 0; s < cfg.servers; ++s) {
    for (std::size_t j = 0; j < level; ++j) {
      const wl::App bg = antagonist_app(s * level + j, horizon + 5.0);
      const std::size_t bg_id =
          platform.deploy(bg, std::vector<std::size_t>{s});
      platform.submit_job(bg_id);
    }
  }

  platform.set_open_loop(app, cfg.qps);
  platform.run_until(cfg.duration_s);
  platform.set_open_loop(app, 0.0);
  platform.run_until(horizon);

  RepOutcome out;
  std::vector<double> e2e = platform.stats(app).e2e_values();
  out.completed = static_cast<double>(e2e.size());
  out.clones_cancelled =
      static_cast<double>(platform.stats(app).clones_cancelled);
  out.tails = stats::tail_summary_inplace(e2e);
  return out;
}

}  // namespace

std::string discipline_label(sim::ServiceDiscipline d) {
  return d == sim::ServiceDiscipline::kProcessorSharing ? "ps" : "serial";
}

const FrontierCell* CloningFrontierResult::find(
    std::size_t clone_factor, std::size_t antagonists,
    sim::ServiceDiscipline discipline) const {
  for (const auto& c : cells) {
    if (c.clone_factor == clone_factor && c.antagonists == antagonists &&
        c.discipline == discipline) {
      return &c;
    }
  }
  return nullptr;
}

void CloningFrontierResult::write_into(obs::RunReport& report) const {
  for (const auto& c : cells) {
    const MetricSummary* const metrics[] = {
        &c.mean_latency, &c.p50,       &c.p99,
        &c.p999,         &c.p9999,     &c.completed,
        &c.clones_cancelled};
    for (const MetricSummary* m : metrics) {
      report.add_result(c.prefix + m->name + ".mean", m->mean, m->unit);
      report.add_result(c.prefix + m->name + ".ci95", m->ci95, m->unit);
    }
    obs::Json reps = obs::Json::object();
    obs::Json per_metric = obs::Json::object();
    for (const MetricSummary* m : metrics) {
      obs::Json values = obs::Json::array();
      for (double v : m->values) values.push_back(v);
      per_metric.set(m->name, std::move(values));
    }
    reps.set("values", std::move(per_metric));
    report.add_series(c.prefix + "replications", std::move(reps));
  }
}

void CloningFrontierConfig::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("CloningFrontierConfig: ") + what);
  };
  if (replications == 0) fail("replications must be at least 1");
  if (servers == 0) fail("servers must be at least 1");
  if (!(std::isfinite(qps) && qps > 0.0)) {
    fail("qps must be finite and positive");
  }
  if (!(std::isfinite(duration_s) && duration_s > 0.0)) {
    fail("duration_s must be finite and positive");
  }
  if (!(std::isfinite(drain_s) && drain_s >= 0.0)) {
    fail("drain_s must be finite and non-negative");
  }
  if (!(std::isfinite(jitter_sigma) && jitter_sigma >= 0.0)) {
    fail("jitter_sigma must be finite and non-negative");
  }
  if (clone_factors.empty()) fail("clone_factors must not be empty");
  if (interference_levels.empty()) {
    fail("interference_levels must not be empty");
  }
  if (disciplines.empty()) fail("disciplines must not be empty");
}

CloningFrontierResult run_cloning_frontier(
    const CloningFrontierConfig& config) {
  config.validate();
  CloningFrontierResult result;
  core::CampaignRunner runner(config.campaign);
  std::size_t cell_index = 0;
  for (const sim::ServiceDiscipline discipline : config.disciplines) {
    for (const std::size_t level : config.interference_levels) {
      for (const std::size_t factor : config.clone_factors) {
        const std::uint64_t cell_root = stats::SeedStream::derive(
            config.seed, kFrontierCellTag, cell_index++);
        const std::function<RepOutcome(std::size_t, std::uint64_t)> task =
            [&](std::size_t, std::uint64_t seed) {
              return run_cell_rep(config, factor, level, discipline, seed);
            };
        const auto outcomes =
            runner.map<RepOutcome>(config.replications, cell_root, task);

        FrontierCell cell;
        cell.clone_factor = factor;
        cell.antagonists = level;
        cell.discipline = discipline;
        cell.prefix = "clone" + std::to_string(factor) + ".bg" +
                      std::to_string(level) + "." +
                      discipline_label(discipline) + ".";
        std::vector<double> mean_v, p50_v, p99_v, p999_v, p9999_v, done_v,
            cancel_v;
        for (const RepOutcome& o : outcomes) {
          mean_v.push_back(o.tails.mean);
          p50_v.push_back(o.tails.p50);
          p99_v.push_back(o.tails.p99);
          p999_v.push_back(o.tails.p999);
          p9999_v.push_back(o.tails.p9999);
          done_v.push_back(o.completed);
          cancel_v.push_back(o.clones_cancelled);
        }
        cell.mean_latency =
            summarize_metric("mean_latency", "s", std::move(mean_v));
        cell.p50 = summarize_metric("p50", "s", std::move(p50_v));
        cell.p99 = summarize_metric("p99", "s", std::move(p99_v));
        cell.p999 = summarize_metric("p999", "s", std::move(p999_v));
        cell.p9999 = summarize_metric("p9999", "s", std::move(p9999_v));
        cell.completed =
            summarize_metric("completed", "count", std::move(done_v));
        cell.clones_cancelled =
            summarize_metric("clones_cancelled", "count", std::move(cancel_v));
        result.cells.push_back(std::move(cell));
      }
    }
  }
  return result;
}

}  // namespace gsight::sched
