// Workload `study`: the Figure 11 scheduling protocol (the same set-up as
// bench/sched_study.hpp, fixed here so the benchmark does not drift with
// the bench tree), Gsight scheduler only: per run, three sub-seeds of the
// seed, each with its own set-up and one replication.
//
// Set-up is prepare_study: 2 x 130 colocation scenarios simulated by the
// DatasetBuilder, solo profiles of the experiment's apps, and the knee
// curve. The timed phase trains the IRFR predictor on that stream and runs
// SchedulingExperiment (8 sockets, 480 s diurnal day, SC jobs every 30 s,
// autoscaler, online feedback loop). Campaign fan-out runs on one thread.
//
// Layer boundaries are timed from outside: an IncrementalRegressor
// decorator injected through GsightPredictor's model constructor (ml), a
// ScenarioPredictor decorator around the GsightPredictor (core), and a
// Scheduler decorator around the GsightScheduler (sched). The experiment
// span minus those children is the simulator's self time.
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/predictor.hpp"
#include "core/sla.hpp"
#include "core/trainer.hpp"
#include "profiling/solo_profiler.hpp"
#include "sched/experiment.hpp"
#include "sched/gsight_scheduler.hpp"
#include "stats/seed_stream.hpp"
#include "stats/summary.hpp"
#include "workload.hpp"
#include "workloads/ecommerce.hpp"
#include "workloads/functionbench.hpp"
#include "workloads/socialnetwork.hpp"

namespace perfbench {

namespace {

using namespace gsight;

/// Sub-stream of the study seed feeding the experiment (DESIGN.md §9).
constexpr std::uint64_t kExperimentSeedStream = 1;
constexpr std::size_t kScenariosPerClass = 130;
constexpr std::uint64_t kSubSeeds = 3;

/// The quick paper-scale builder configuration of the fig11 bench:
/// 8 sockets as placement units, encoder slots n=10 (2 580 dims).
core::BuilderConfig study_builder_config() {
  core::BuilderConfig cfg;
  cfg.runner.servers = 8;
  cfg.runner.server = sim::ServerConfig::socket();
  cfg.runner.warmup_s = 5.0;
  cfg.runner.ls_measure_s = 25.0;
  cfg.runner.label_window_s = 2.5;
  cfg.encoder.servers = 8;
  cfg.encoder.max_workloads = 10;
  cfg.ls_qps_levels = {20.0, 40.0, 60.0};
  cfg.min_workloads = 2;
  cfg.max_workloads = 3;
  cfg.sc_scale = 0.08;
  cfg.profiler.ls_profile_s = 20.0;
  cfg.profiler.server = sim::ServerConfig::socket();
  return cfg;
}

struct StudySetup {
  prof::ProfileStore store;
  std::vector<core::ScenarioSamples> stream;
  core::PredictorConfig pcfg;
  std::unique_ptr<core::LatencyIpcCurve> curve;
  sched::ExperimentConfig experiment;
};

std::unique_ptr<StudySetup> prepare_study(std::uint64_t seed, SpanLog* log) {
  Scope phase(log, "setup.prepare_study");
  auto setup = std::make_unique<StudySetup>();
  const core::BuilderConfig cfg = study_builder_config();
  core::CampaignOptions serial;
  serial.threads = 1;

  core::DatasetBuilder builder(&setup->store, cfg, seed);
  for (const auto cls :
       {core::ColocationClass::kLsLs, core::ColocationClass::kLsScBg}) {
    core::BuildRequest request;
    request.cls = cls;
    request.qos = core::QosKind::kIpc;
    request.count = kScenariosPerClass;
    request.campaign = serial;
    std::vector<core::ScenarioSamples> part;
    {
      Scope build(log, "core.build");
      part = builder.build(request);
    }
    for (auto& s : part) setup->stream.push_back(std::move(s));
  }
  setup->pcfg.encoder = cfg.encoder;
  setup->pcfg.model = core::ModelKind::kIRFR;

  // Knee curve on solo-normalised axes, as in bench_fig7_knee.
  std::vector<core::LatencyIpcPoint> knee_points;
  for (const auto& s : setup->stream) {
    const auto* profile = s.outcome.scenario.workloads[0].profile;
    if (profile->solo_mean_ipc <= 0.0 || profile->solo_e2e_p99_s <= 0.0) {
      continue;
    }
    for (const auto& [ipc, p99] : s.outcome.window_ipc_p99) {
      knee_points.push_back(
          {ipc / profile->solo_mean_ipc, p99 / profile->solo_e2e_p99_s});
    }
  }
  setup->curve = std::make_unique<core::LatencyIpcCurve>(knee_points);

  std::vector<prof::ProfileRequest> missing;
  for (const auto& app :
       {wl::social_network(), wl::e_commerce(), wl::matmul(3.0 * cfg.sc_scale),
        wl::dd(3.0 * cfg.sc_scale), wl::video_processing(4.0 * cfg.sc_scale),
        wl::iot_collector()}) {
    if (!setup->store.contains(app.name)) {
      prof::ProfileRequest request;
      request.app = app;
      missing.push_back(std::move(request));
    }
  }
  prof::ProfileStore profiled;
  {
    Scope profile(log, "core.profile_all");
    profiled = core::profile_all(cfg.profiler, missing, serial);
  }
  for (const auto& [name, profile] : profiled.all()) setup->store.put(profile);

  sched::ExperimentConfig& ec = setup->experiment;
  ec.servers = 8;
  ec.server = sim::ServerConfig::socket();
  ec.duration_s = 480.0;
  ec.sample_period_s = 2.0;
  ec.sla_window_s = 10.0;
  ec.sc_job_period_s = 30.0;
  ec.sc_scale = cfg.sc_scale;
  ec.trace.base_qps = 60.0;
  ec.trace.day_seconds = 480.0;
  ec.trace.diurnal_amplitude = 0.55;
  ec.autoscaler.tick_s = 5.0;
  ec.autoscaler.max_replicas = 24;
  ec.seed = stats::SeedStream::derive(seed, kExperimentSeedStream);
  return setup;
}

struct MlCounts {
  std::uint64_t train_calls = 0;
  std::uint64_t train_rows = 0;
  std::uint64_t predict_rows = 0;
};

/// ml boundary: every partial_fit and predict of the predictor's model.
class TimedRegressor final : public ml::IncrementalRegressor {
 public:
  TimedRegressor(std::unique_ptr<ml::IncrementalRegressor> inner, SpanLog* log,
                 MlCounts* counts)
      : inner_(std::move(inner)), log_(log), counts_(counts) {}

  void partial_fit(const ml::Dataset& batch) override {
    Scope s(log_, "ml.partial_fit");
    if (log_->recording()) {
      ++counts_->train_calls;
      counts_->train_rows += batch.size();
    }
    inner_->partial_fit(batch);
  }
  double predict(std::span<const double> x) const override {
    Scope s(log_, "ml.predict");
    if (log_->recording()) ++counts_->predict_rows;
    return inner_->predict(x);
  }
  using IncrementalRegressor::predict_batch;
  void predict_batch(const ml::Matrix& xs,
                     std::vector<double>& out) const override {
    Scope s(log_, "ml.predict_batch");
    if (log_->recording()) counts_->predict_rows += xs.rows();
    inner_->predict_batch(xs, out);
  }
  std::string name() const override { return inner_->name(); }
  std::size_t samples_seen() const override { return inner_->samples_seen(); }

 private:
  std::unique_ptr<ml::IncrementalRegressor> inner_;
  SpanLog* log_;
  MlCounts* counts_;
};

/// core boundary, plus the predict_mape_pct probe: at each observe, the
/// prediction the model would give just before it learns that sample.
/// The probe's time is kept apart so neither run_s nor any layer pays it.
class StudyPredictor final : public core::ScenarioPredictor {
 public:
  StudyPredictor(core::GsightPredictor* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  double predict(const core::Scenario& scenario) const override {
    Scope s(log_, "core.predict");
    return inner_->predict(scenario);
  }
  std::vector<double> predict_batch(
      std::span<const core::Scenario> scenarios) const override {
    Scope s(log_, "core.predict_batch");
    return inner_->predict_batch(scenarios);
  }
  void observe(const core::Scenario& scenario, double actual_qos) override {
    const std::int64_t t0 = now_ns();
    if (log_ != nullptr) log_->pause();
    const double predicted = inner_->predict(scenario);
    if (log_ != nullptr) log_->resume();
    probe_ns_ += now_ns() - t0;
    if (actual_qos != 0.0) {
      abs_pct_errors_.push_back(100.0 * std::fabs(predicted - actual_qos) /
                                std::fabs(actual_qos));
    }
    Scope s(log_, "core.observe");
    inner_->observe(scenario, actual_qos);
  }
  void flush() override {
    Scope s(log_, "core.flush");
    inner_->flush();
  }
  std::string name() const override { return inner_->name(); }

  double probe_seconds() const { return static_cast<double>(probe_ns_) * 1e-9; }
  double mape_pct() const { return stats::mean(abs_pct_errors_); }

 private:
  core::GsightPredictor* inner_;
  SpanLog* log_;
  std::int64_t probe_ns_ = 0;
  std::vector<double> abs_pct_errors_;
};

struct DecisionCounts {
  std::uint64_t decisions = 0;
  std::uint64_t refusals = 0;
};

/// sched boundary: each placement decision.
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(sched::Scheduler* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::vector<std::size_t> place_workload(const prof::AppProfile& profile,
                                          const sched::DeploymentState& state,
                                          const core::Sla& sla) override {
    std::vector<std::size_t> placement;
    {
      Scope s(log_, "sched.place_workload");
      placement = inner_->place_workload(profile, state, sla);
    }
    bool refused = false;
    for (const std::size_t server : placement) refused |= server == sched::kRefuse;
    count(refused);
    return placement;
  }
  std::size_t place_replica(std::size_t w, std::size_t fn,
                            const sched::DeploymentState& state) override {
    std::size_t server = 0;
    {
      Scope s(log_, "sched.place_replica");
      server = inner_->place_replica(w, fn, state);
    }
    count(server == sched::kRefuse);
    return server;
  }
  std::string name() const override { return inner_->name(); }

  const DecisionCounts& counts() const { return counts_; }

 private:
  void count(bool refused) {
    ++counts_.decisions;
    if (refused) ++counts_.refusals;
  }

  sched::Scheduler* inner_;
  SpanLog* log_;
  DecisionCounts counts_;
};

/// A span name's summed self time; 0 when the span never opened.
double seconds_of(const std::map<std::string, double>& self, const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

/// "engine.events" from the report's compact metrics JSON.
double engine_events(const std::string& metrics_json) {
  const std::size_t at = metrics_json.find("\"engine.events\"");
  if (at == std::string::npos) return 0.0;
  const std::size_t value = metrics_json.find("\"value\":", at);
  if (value == std::string::npos) return 0.0;
  return std::strtod(metrics_json.c_str() + value + 8, nullptr);
}

std::string report_digest(const sched::ExperimentReport& r, double mape) {
  std::ostringstream os;
  os << std::hexfloat << r.scheduler << '\n';
  for (const auto* series :
       {&r.density_samples, &r.cpu_util_samples, &r.mem_util_samples}) {
    for (const double v : *series) os << v << ' ';
    os << '\n';
  }
  for (const auto& a : r.sla) {
    os << a.app << ' ' << a.sla_p99_s << ' ' << a.satisfied_fraction << ' '
       << a.overall_p99_s << '\n';
  }
  os << r.scale_outs << ' ' << r.scale_ins << ' ' << r.cold_starts << ' '
     << r.requests_completed << ' ' << r.requests_failed << ' '
     << r.jobs_completed << '\n'
     << r.metrics_json << '\n'
     << mape << '\n';
  return os.str();
}

struct Rep {
  double run_s = 0.0;
  std::string digest;
  double density = 0.0;
  double sla_met = 0.0;
  double mape_pct = 0.0;
  std::uint64_t ls_requests = 0;
  std::uint64_t ls_failed = 0;
  double events = 0.0;
  double probe_s = 0.0;
  DecisionCounts decisions;
  MlCounts ml;
};

Rep run_rep(const StudySetup& setup, SpanLog* log) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<core::GsightPredictor> predictor;
  {
    Scope s(log, "core.train");
    if (log != nullptr) {
      predictor = std::make_unique<core::GsightPredictor>(
          setup.pcfg,
          std::make_unique<TimedRegressor>(
              core::make_model(setup.pcfg.model, setup.pcfg.seed,
                               setup.pcfg.forest_kernel),
              log, &rep.ml));
    } else {
      predictor = std::make_unique<core::GsightPredictor>(setup.pcfg);
    }
    ml::Dataset train(predictor->encoder().dimension());
    for (const auto& s : setup.stream) {
      for (const double l : s.labels) train.add(s.features, l);
    }
    predictor->train(train);
  }
  StudyPredictor online(predictor.get(), log);
  sched::GsightSchedulerConfig gc;
  gc.sla_margin = 0.85;
  sched::GsightScheduler gsight(&online, gc);
  TimedScheduler scheduler(&gsight, log);
  // Replication 0 of a sched::Campaign over this experiment.
  sched::ExperimentConfig ec = setup.experiment;
  ec.seed = stats::SeedStream(setup.experiment.seed).derive(0);
  ec.use_default_trace_sink = false;
  sched::SchedulingExperiment experiment(&setup.store, ec);
  experiment.set_sla_curve(setup.curve.get());
  sched::ExperimentReport report;
  {
    Scope s(log, "sim.experiment");
    report = experiment.run(scheduler, &online);
  }
  rep.probe_s = online.probe_seconds();
  rep.run_s = seconds_since(t0) - rep.probe_s;

  rep.density = report.mean_density();
  for (const auto& a : report.sla) rep.sla_met += a.satisfied_fraction;
  if (!report.sla.empty()) rep.sla_met /= static_cast<double>(report.sla.size());
  rep.mape_pct = online.mape_pct();
  rep.ls_requests = report.requests_completed + report.requests_failed;
  rep.ls_failed = report.requests_failed;
  rep.events = engine_events(report.metrics_json);
  rep.digest = digest_hex(report_digest(report, rep.mape_pct));
  rep.decisions = scheduler.counts();
  return rep;
}

}  // namespace

Outcome run_study(const Options& opt) {
  Outcome out;
  // One run studies kSubSeeds sub-seeds of --seed, each with its own
  // set-up and replication, so a run's figures average over inputs instead
  // of resting on one draw of 260 scenarios. The count is fixed, not
  // stretched to --seconds, so every figure covers the same inputs however
  // fast the code is. Sub-seed 0 is replicated twice (the twin-run
  // determinism check) and, in a traced run, once more with tracing on
  // (the traced-vs-untraced check and the overhead).
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> density;
  std::vector<double> sla_met;
  std::vector<double> mape_pct;
  std::string digests;
  SpanLog setup_log;
  SpanLog trace_log;
  Rep traced;
  double twin_mean_run_s = 0.0;
  bool twins_equal = true;
  bool traced_equal = true;
  for (std::uint64_t k = 0; k < kSubSeeds; ++k) {
    const std::int64_t t0 = now_ns();
    const auto setup = prepare_study(stats::SeedStream::derive(opt.seed, k),
                                     opt.trace && k == 0 ? &setup_log : nullptr);
    setup_s.push_back(seconds_since(t0));
    const Rep rep = run_rep(*setup, nullptr);
    run_s.push_back(rep.run_s);
    // Peak RSS of one set-up plus one replication.
    if (k == 0) out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    density.push_back(rep.density);
    sla_met.push_back(rep.sla_met);
    mape_pct.push_back(rep.mape_pct);
    digests += rep.digest;
    out.attempted += rep.ls_requests;
    out.failed += rep.ls_failed;
    if (k == 0) {
      const Rep twin = run_rep(*setup, nullptr);
      twins_equal = twin.digest == rep.digest;
      twin_mean_run_s = 0.5 * (rep.run_s + twin.run_s);
      if (opt.trace) {
        traced = run_rep(*setup, &trace_log);
        traced_equal = traced.digest == rep.digest;
      }
    }
  }

  out.check("twin repetitions give identical reports", twins_equal);
  if (opt.trace) out.check("traced repetition gives the untraced report", traced_equal);
  out.check("LS requests were simulated", out.attempted > 0);
  out.digests["report"] = digest_hex(digests);

  out.metric("setup_s", stats::median(setup_s), "s");
  out.metric("run_s", stats::mean(run_s), "s");
  out.metric("density", stats::mean(density), "inst/core");
  out.metric("sla_met", stats::mean(sla_met), "fraction");
  out.detail.set("run_s_per_sub_seed", json_list(run_s));
  out.detail.set("setup_s_per_sub_seed", json_list(setup_s));
  out.detail.set("predict_mape_pct", stats::mean(mape_pct));

  if (opt.trace) {
    const Rep& t = traced;
    const auto self = trace_log.self_seconds();
    const auto setup_self = setup_log.self_seconds();
    auto self_of = [&self](const std::string& name) { return seconds_of(self, name); };
    auto setup_of = [&setup_self](const std::string& name) {
      return seconds_of(setup_self, name);
    };
    zero_layer_metrics(out);
    out.metric("sim.events", t.events, "count");
    out.metric("sim.self_s", self_of("sim.experiment") - t.probe_s, "s");
    out.metric("core.build_s", setup_of("core.build"), "s");
    out.metric("core.build_scenarios", 2.0 * kScenariosPerClass, "count");
    out.metric("core.profile_s", setup_of("core.profile_all"), "s");
    out.metric("core.encode_s",
               self_of("core.train") + self_of("core.predict") +
                   self_of("core.predict_batch") + self_of("core.observe") +
                   self_of("core.flush"),
               "s");
    out.metric("ml.train_s", self_of("ml.partial_fit"), "s");
    out.metric("ml.train_calls", static_cast<double>(t.ml.train_calls), "count");
    out.metric("ml.train_rows", static_cast<double>(t.ml.train_rows), "count");
    out.metric("ml.predict_s", self_of("ml.predict") + self_of("ml.predict_batch"), "s");
    out.metric("ml.predict_rows", static_cast<double>(t.ml.predict_rows), "count");
    out.metric("sched.decide_s",
               self_of("sched.place_workload") + self_of("sched.place_replica"), "s");
    out.metric("sched.decisions", static_cast<double>(t.decisions.decisions), "count");
    out.metric("sched.refusals", static_cast<double>(t.decisions.refusals), "count");
    out.metric("trace.run_s", t.run_s, "s");
    out.metric("trace.overhead_s", t.run_s - twin_mean_run_s, "s");
    out.metric("core.predict_mape_pct", stats::mean(mape_pct), "%");
    out.spans = setup_log.spans();
    const auto offset = static_cast<int>(out.spans.size());
    for (auto s : trace_log.spans()) {
      if (s.parent >= 0) s.parent += offset;
      out.spans.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace perfbench
