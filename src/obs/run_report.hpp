// RunReport — machine-readable benchmark results. Every bench binary
// builds one of these and writes BENCH_<name>.json on exit, which is what
// populates the repo's perf trajectory. The schema (read back through
// obs::Json::parse and validated by tools/bench_schema_check, see
// DESIGN.md §8) is:
//
//   {
//     "schema": "gsight-bench-report/v1",
//     "bench": "<name>",
//     "wall_time_s": <number >= 0>,
//     "results": [ {"name": "...", "value": <finite>, "unit": "..."} ],
//     "series": { ... free-form arrays ... },          // optional
//     "metrics": [ ... MetricsRegistry export ... ],   // optional
//     "meta": { ... free-form strings ... }            // optional
//   }
//
// The report never reads clocks itself (src/ is wall-clock free by lint
// rule); the bench harness supplies elapsed time via set_wall_time_s.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gsight::obs {

inline constexpr const char* kBenchReportSchema = "gsight-bench-report/v1";

class RunReport {
 public:
  explicit RunReport(std::string bench_name);

  const std::string& bench_name() const { return bench_name_; }

  /// Append one scalar result row.
  void add_result(const std::string& name, double value,
                  const std::string& unit = "");
  /// Attach a free-form JSON value under "series"/<key> (tables, CDFs…).
  void add_series(const std::string& key, Json value);
  /// Attach a string under "meta"/<key> (config digests, notes).
  void set_meta(const std::string& key, const std::string& value);
  /// Snapshot a registry into the "metrics" section (overwrites).
  void attach_metrics(const MetricsRegistry& registry);
  void set_wall_time_s(double seconds) { wall_time_s_ = seconds; }

  std::size_t result_count() const { return results_.size(); }

  /// Assemble the full document.
  Json to_json() const;

  /// Write to an explicit path. Returns false (and leaves a best-effort
  /// partial file) on I/O failure.
  bool write_file(const std::string& path) const;
  /// Write BENCH_<name>.json into `dir` (default "."); the bench harness
  /// passes $GSIGHT_BENCH_DIR here. Returns the path written, empty on
  /// failure.
  std::string write(const std::string& dir = ".") const;

 private:
  std::string bench_name_;
  double wall_time_s_ = 0.0;
  Json results_ = Json::array();
  Json series_ = Json::object();
  Json meta_ = Json::object();
  Json metrics_;
};

}  // namespace gsight::obs
