#include "obs/live_stream.hpp"

#include <ostream>

namespace gsight::obs {

namespace {

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

LiveStreamSink::LiveStreamSink(std::ostream& os) : os_(&os) {}

void LiveStreamSink::write_record(Json record) {
  record.dump(*os_, 0);
  *os_ << '\n';
  os_->flush();  // a live tail should never sit behind a buffer
  ++seq_;
}

void LiveStreamSink::hello(
    const std::string& source,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  core::MutexLock lock(mutex_);
  Json rec = Json::object();
  rec.set("schema", kLiveSchema);
  rec.set("type", "hello");
  rec.set("seq", seq_);
  rec.set("source", source);
  if (!meta.empty()) {
    Json m = Json::object();
    for (const auto& [k, v] : meta) m.set(k, v);
    rec.set("meta", std::move(m));
  }
  write_record(std::move(rec));
}

void LiveStreamSink::metric_deltas(double ts_s,
                                   const MetricsRegistry& registry) {
  core::MutexLock lock(mutex_);
  for (const auto& sample : registry.samples()) {
    std::string key = kind_name(sample.kind);
    key += '|';
    key += sample.name;
    key += '|';
    key += sample.labels;
    const auto it = last_.find(key);
    const double prev = it == last_.end() ? 0.0 : it->second.first;
    const double prev_sum = it == last_.end() ? 0.0 : it->second.second;
    if (it != last_.end() && sample.value == prev && sample.sum == prev_sum) {
      continue;  // unchanged since the last emission
    }
    Json rec = Json::object();
    rec.set("type", "metric");
    rec.set("seq", seq_);
    rec.set("ts_s", ts_s);
    rec.set("kind", kind_name(sample.kind));
    rec.set("name", sample.name);
    rec.set("labels", sample.labels);
    rec.set("value", sample.value);
    rec.set("delta", sample.value - prev);
    if (sample.kind == MetricSample::Kind::kHistogram) {
      rec.set("sum", sample.sum);
    }
    last_[key] = {sample.value, sample.sum};
    write_record(std::move(rec));
  }
}

void LiveStreamSink::mark(
    double ts_s, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& args) {
  core::MutexLock lock(mutex_);
  Json rec = Json::object();
  rec.set("type", "mark");
  rec.set("seq", seq_);
  rec.set("ts_s", ts_s);
  rec.set("name", name);
  if (!args.empty()) {
    Json a = Json::object();
    for (const auto& [k, v] : args) a.set(k, v);
    rec.set("args", std::move(a));
  }
  write_record(std::move(rec));
}

void LiveStreamSink::on_event(const TraceEvent& event) {
  core::MutexLock lock(mutex_);
  Json rec = Json::object();
  rec.set("type", "span");
  rec.set("seq", seq_);
  rec.set("ts_s", event.ts_s);
  rec.set("ph", trace_phase(event.kind));
  rec.set("name", event.name);
  rec.set("cat", event.cat);
  if (event.kind == TraceEvent::Kind::kComplete) rec.set("dur_s", event.dur_s);
  if (event.kind == TraceEvent::Kind::kAsyncBegin ||
      event.kind == TraceEvent::Kind::kAsyncEnd) {
    rec.set("id", event.id);
  }
  if (!event.args.empty()) {
    Json a = Json::object();
    for (const auto& [k, v] : event.args) a.set(k, v);
    rec.set("args", std::move(a));
  }
  write_record(std::move(rec));
}

std::uint64_t LiveStreamSink::records() const {
  core::MutexLock lock(mutex_);
  return seq_;
}

}  // namespace gsight::obs
