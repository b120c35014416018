// The contract between the perfbench driver and its workloads: options in,
// one Outcome out. Every workload fills every end-to-end metric when
// untraced and every per-layer metric when traced (0 where the workload
// does not run that layer), plus its own correctness checks and digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: "drop-completion" makes the benchmark lose one completion
  /// from its accounting, which the conservation check must catch.
  std::string fault;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Output digests by name, compared against the recorded ones.
  std::map<std::string, std::string> digests;
  /// Sample counts, percentiles used and other context for the report.
  gsight::obs::Json detail = gsight::obs::Json::object();
  /// Spans of one traced repetition, written out at exit.
  std::vector<Span> spans;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
};

/// Fill every per-layer metric with 0 so a traced run of a workload that
/// does not exercise some layer still reports the full list.
void zero_layer_metrics(Outcome& out);

/// `estate` and `cells` repeat their timed phase until `seconds` have been
/// spent, and at least twice, so a twin-run check always applies. `serve`
/// runs one timed ladder per 3 s of `seconds`, at least two. `study` runs a
/// fixed three sub-seeds plus a twin of the first, whatever `seconds` is,
/// so its figures always cover the same inputs.
Outcome run_study(const Options& opt);
Outcome run_estate(const Options& opt, bool cells);
Outcome run_serve(const Options& opt);

}  // namespace perfbench
