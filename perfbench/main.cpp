// perfbench driver: runs one workload through the public API of src/ and
// prints one JSON line with its metrics, checks, digests and details.
// perfbench/run.py builds this binary, compares the digests with the
// recorded ones and prints the benchmark's result line.
//
//   perfbench_driver --workload study|estate|cells|serve --seed N
//                    --seconds S --trace 0|1 [--spans FILE] [--fault NAME]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

namespace {

/// Every end-to-end metric. density and sla_met exist only for `study`,
/// and `cells` has no steady peak_rss_mb; a workload without a metric
/// reports the constant 1 (perfbench/NOTES.md).
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},         {"run_s", "s"},          {"peak_rss_mb", "MB"},
    {"density", "inst/core"}, {"sla_met", "fraction"},
};

const char* const kPerLayer[][2] = {
    {"sim.events", "count"},       {"sim.self_s", "s"},
    {"sim.backlog_s", "s"},        {"sim.backlog_scans", "count"},
    {"sim.recorder_s", "s"},       {"sim.slices", "count"},
    {"sim.dispatch_s", "s"},       {"sim.epochs", "count"},
    {"sim.mailbox_messages", "count"},
    {"core.build_s", "s"},         {"core.build_scenarios", "count"},
    {"core.profile_s", "s"},       {"core.encode_s", "s"},
    {"core.predict_mape_pct", "%"},
    {"ml.train_s", "s"},           {"ml.train_calls", "count"},
    {"ml.train_rows", "count"},    {"ml.predict_s", "s"},
    {"ml.predict_rows", "count"},
    {"sched.decide_s", "s"},       {"sched.decisions", "count"},
    {"sched.refusals", "count"},
    {"serve.batches", "count"},    {"serve.mean_batch", "requests"},
    {"serve.train_rounds", "count"}, {"serve.swaps", "count"},
    {"serve.observations_shed", "count"}, {"serve.shed", "count"},
    {"serve.gen_lag_p99_us", "us"}, {"serve.p50_us", "us"},
    {"serve.p99_us", "us"},        {"serve.latency_samples", "count"},
    {"serve.max_rps", "req/s"},
    {"trace.run_s", "s"},          {"trace.overhead_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload study|estate|cells|serve "
               "--seed N --seconds S --trace 0|1 [--spans FILE] "
               "[--fault drop-completion]\n");
  return 2;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  // Chrome trace events; "args.parent" keeps the causal link.
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  gsight::obs::Json events = gsight::obs::Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    gsight::obs::Json e = gsight::obs::Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("ts", static_cast<double>(s.start_ns - origin) * 1e-3);
    e.set("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    gsight::obs::Json& args = e.set("args", gsight::obs::Json::object());
    args.set("id", static_cast<std::uint64_t>(i));
    args.set("parent", s.parent);
    events.push_back(std::move(e));
  }
  gsight::obs::Json trace = gsight::obs::Json::object();
  trace.set("traceEvents", std::move(events));
  trace.dump(os, 0);
  os << '\n';
}

}  // namespace

void zero_layer_metrics(Outcome& out) {
  for (const auto& m : kPerLayer) out.metric(m[0], 0.0, m[1]);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--fault") {
      opt.fault = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      (!opt.fault.empty() && opt.fault != "drop-completion")) {
    return usage();
  }

  Outcome out;
  try {
    if (opt.workload == "study") {
      out = run_study(opt);
    } else if (opt.workload == "estate" || opt.workload == "cells") {
      out = run_estate(opt, opt.workload == "cells");
    } else if (opt.workload == "serve") {
      out = run_serve(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  using gsight::obs::Json;
  Json metrics = Json::object();
  auto put = [&](const char* name, const char* unit, double value) {
    Json& m = metrics.set(name, Json::object());
    m.set("value", value);
    m.set("unit", unit);
  };
  if (opt.trace) {
    for (const auto& m : kPerLayer) put(m[0], m[1], out.metrics.at(m[0]).value);
  } else {
    for (const auto& m : kEndToEnd) {
      const auto it = out.metrics.find(m[0]);
      put(m[0], m[1], it == out.metrics.end() ? 1.0 : it->second.value);
    }
  }
  Json checks = Json::array();
  for (const Check& c : out.checks) {
    Json& check = checks.push_back(Json::object());
    check.set("name", c.name);
    check.set("ok", c.ok);
    check.set("detail", c.detail);
  }
  Json digests = Json::object();
  for (const auto& [name, hex] : out.digests) digests.set(name, hex);

  write_spans(spans_path, out.spans);
  Json result = Json::object();
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  result.set("checks", std::move(checks));
  result.set("digests", std::move(digests));
  result.set("detail", std::move(out.detail));
  std::printf("%s\n", result.dump_string(0).c_str());
  return 0;
}
