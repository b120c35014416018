#include "obs/run_report.hpp"

#include <fstream>

namespace gsight::obs {

RunReport::RunReport(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void RunReport::add_result(const std::string& name, double value,
                           const std::string& unit) {
  Json row = Json::object();
  row.set("name", name);
  row.set("value", value);
  if (!unit.empty()) row.set("unit", unit);
  results_.push_back(std::move(row));
}

void RunReport::add_series(const std::string& key, Json value) {
  series_.set(key, std::move(value));
}

void RunReport::set_meta(const std::string& key, const std::string& value) {
  meta_.set(key, value);
}

void RunReport::attach_metrics(const MetricsRegistry& registry) {
  metrics_ = registry.to_json();
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kBenchReportSchema);
  doc.set("bench", bench_name_);
  doc.set("wall_time_s", wall_time_s_);
  doc.set("results", results_);
  if (series_.size() > 0) doc.set("series", series_);
  if (metrics_.is_array()) doc.set("metrics", metrics_);
  if (meta_.size() > 0) doc.set("meta", meta_);
  return doc;
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  to_json().dump(out, 2);
  out << '\n';
  return static_cast<bool>(out.flush());
}

std::string RunReport::write(const std::string& dir) const {
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') path += '/';
  path += "BENCH_" + bench_name_ + ".json";
  return write_file(path) ? path : std::string();
}

}  // namespace gsight::obs
