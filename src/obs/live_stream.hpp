// LiveStreamSink — the in-flight introspection surface (schema
// `gsight-live/v1`). While BENCH_*.json reports a run post-mortem, this
// sink streams newline-delimited JSON records as the run happens, so a
// `gsight tail` (or any `tail -f | jq`) can watch a serve fleet live; each
// line reads back with obs::Json::parse:
//
//   {"schema":"gsight-live/v1","type":"hello","seq":0,"source":...}
//   {"type":"metric","seq":1,"ts_s":...,"kind":"counter","name":...,
//    "labels":"","value":...,"delta":...}
//   {"type":"span","seq":2,"ts_s":...,"ph":"X","name":...,"dur_s":...}
//   {"type":"mark","seq":3,"ts_s":...,"name":"fleet.drain","args":{...}}
//
// Determinism rules (shared with the tracer, trace.hpp): timestamps are
// *simulation/virtual* seconds, never wall clock, and every record is
// serialised through obs::Json (ordered keys, %.17g numbers) — so twin
// same-seed runs produce byte-identical streams, which check.sh's fleet
// twin-run stage compares directly.
//
// Metric records are *deltas*: metric_deltas() diffs a registry snapshot
// against the last emission and writes only the instances whose value
// changed, keeping the stream proportional to activity, not cardinality.
//
// The sink is internally synchronized (threaded fleet replicas emit
// concurrently); `seq` is assigned under the same lock as the write, so
// it is strictly sequential in file order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/lock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gsight::obs {

inline constexpr const char* kLiveSchema = "gsight-live/v1";

class LiveStreamSink final : public TraceSink {
 public:
  /// Streams onto `os` (not owned; must outlive the sink). Nothing is
  /// written until hello().
  explicit LiveStreamSink(std::ostream& os);

  LiveStreamSink(const LiveStreamSink&) = delete;
  LiveStreamSink& operator=(const LiveStreamSink&) = delete;

  /// First record of every stream: schema + source tag + free-form meta
  /// (insertion order preserved). Call exactly once, before anything else.
  void hello(const std::string& source,
             const std::vector<std::pair<std::string, std::string>>& meta = {})
      GSIGHT_EXCLUDES(mutex_);

  /// Emit one "metric" record per instance whose (value, sum) changed
  /// since the previous call, in the registry's deterministic sample
  /// order. `ts_s` is the caller's simulation/virtual time.
  void metric_deltas(double ts_s, const MetricsRegistry& registry)
      GSIGHT_EXCLUDES(mutex_);

  /// Point annotation ("fleet.drain", "fleet.publish", ...) with string
  /// args; numbers should be preformatted with json_number.
  void mark(double ts_s, const std::string& name,
            const std::vector<std::pair<std::string, std::string>>& args = {})
      GSIGHT_EXCLUDES(mutex_);

  /// TraceSink: spans/instants/counters stream as "span" records, so a
  /// Tracer can point straight at a live stream.
  void on_event(const TraceEvent& event) override GSIGHT_EXCLUDES(mutex_);

  /// Records written so far (including hello).
  std::uint64_t records() const GSIGHT_EXCLUDES(mutex_);

 private:
  void write_record(Json record) GSIGHT_REQUIRES(mutex_);

  mutable core::Mutex mutex_;
  std::ostream* os_ GSIGHT_GUARDED_BY(mutex_);
  std::uint64_t seq_ GSIGHT_GUARDED_BY(mutex_) = 0;
  /// Last emitted (value, sum) per "kind|name|labels" key.
  std::map<std::string, std::pair<double, double>> last_
      GSIGHT_GUARDED_BY(mutex_);
};

}  // namespace gsight::obs
