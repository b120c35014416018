// Span tracing for the simulator — every request's lifecycle (gateway
// enqueue → forward → dispatch → cold start → execute → complete/drop)
// is emitted as events consumable by chrome://tracing / Perfetto.
//
// Design rules that keep tracing replay-safe and free when off:
//  * Timestamps are *simulation* time (seconds, converted to µs at
//    export), never wall clock — twin same-seed runs emit bit-identical
//    traces.
//  * The tracer never schedules engine events or draws randomness, so an
//    enabled tracer cannot perturb the simulation it observes.
//  * Every emit helper starts with an inlined null-sink check; when
//    GSIGHT_OBS_ENABLED is 0 the helpers compile to nothing at all.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#ifndef GSIGHT_OBS_ENABLED
#define GSIGHT_OBS_ENABLED 1
#endif

namespace gsight::obs {

/// One trace event, modelled on the Chrome trace-event format. `ts_s` and
/// `dur_s` are simulation seconds.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kComplete,     ///< 'X' — span with explicit duration
    kInstant,      ///< 'i' — point event
    kCounter,      ///< 'C' — time series sample
    kAsyncBegin,   ///< 'b' — start of an id-correlated async span
    kAsyncEnd,     ///< 'e' — end of an id-correlated async span
  };

  Kind kind = Kind::kInstant;
  const char* name = "";   ///< static string (span taxonomy, DESIGN.md)
  const char* cat = "";    ///< static category string
  double ts_s = 0.0;
  double dur_s = 0.0;      ///< kComplete only
  std::uint64_t pid = 0;   ///< lane group (see Lanes below)
  std::uint64_t tid = 0;   ///< lane within the group
  std::uint64_t id = 0;    ///< async correlation id (request id)
  /// Small key→value payload ("app"→"social", "cold"→"1"). Values are
  /// preformatted strings; numbers should be formatted deterministically
  /// by the caller (json_number).
  std::vector<std::pair<const char*, std::string>> args;
};

/// The event's Chrome trace-event phase letter ("X", "i", "C", "b", "e"),
/// shared by the Chrome exporter and the live stream's "ph" field.
const char* trace_phase(TraceEvent::Kind kind);

/// Well-known pid lanes used by the simulator's emitters.
struct Lanes {
  static constexpr std::uint64_t kPlatform = 1;  ///< gateway, servers, scaler
  static constexpr std::uint64_t kRequests = 2;  ///< per-request span lanes
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Dispatch front-end held by every instrumented component. Disabled
/// (null sink) by default; `enabled()` is the only cost on the hot path.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

#if GSIGHT_OBS_ENABLED
  bool enabled() const { return sink_ != nullptr; }
#else
  static constexpr bool enabled() { return false; }
#endif

  void emit(const TraceEvent& event) {
#if GSIGHT_OBS_ENABLED
    if (sink_ != nullptr) sink_->on_event(event);
#else
    (void)event;
#endif
  }

  void complete(double ts_s, double dur_s, const char* name, const char* cat,
                std::uint64_t pid, std::uint64_t tid,
                std::vector<std::pair<const char*, std::string>> args = {}) {
    if (!enabled()) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kComplete;
    e.name = name;
    e.cat = cat;
    e.ts_s = ts_s;
    e.dur_s = dur_s;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    emit(e);
  }

  void instant(double ts_s, const char* name, const char* cat,
               std::uint64_t pid, std::uint64_t tid,
               std::vector<std::pair<const char*, std::string>> args = {}) {
    if (!enabled()) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kInstant;
    e.name = name;
    e.cat = cat;
    e.ts_s = ts_s;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    emit(e);
  }

  void counter(double ts_s, const char* name, std::uint64_t pid,
               std::vector<std::pair<const char*, std::string>> values) {
    if (!enabled()) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kCounter;
    e.name = name;
    e.cat = "counter";
    e.ts_s = ts_s;
    e.pid = pid;
    e.args = std::move(values);
    emit(e);
  }

  void async_begin(double ts_s, const char* name, const char* cat,
                   std::uint64_t id,
                   std::vector<std::pair<const char*, std::string>> args = {}) {
    if (!enabled()) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kAsyncBegin;
    e.name = name;
    e.cat = cat;
    e.ts_s = ts_s;
    e.pid = Lanes::kRequests;
    e.id = id;
    e.args = std::move(args);
    emit(e);
  }

  void async_end(double ts_s, const char* name, const char* cat,
                 std::uint64_t id,
                 std::vector<std::pair<const char*, std::string>> args = {}) {
    if (!enabled()) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kAsyncEnd;
    e.name = name;
    e.cat = cat;
    e.ts_s = ts_s;
    e.pid = Lanes::kRequests;
    e.id = id;
    e.args = std::move(args);
    emit(e);
  }

 private:
  TraceSink* sink_ = nullptr;
};

/// In-memory sink: buffers events for tests and post-run export.
class MemoryTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Chrome trace-event JSON ({"traceEvents": [...]}). Deterministic:
  /// events in emission order, doubles via json_number.
  void write_chrome_trace(std::ostream& os) const;
  std::string chrome_trace_string() const;

 private:
  std::vector<TraceEvent> events_;
};

/// Streaming sink: writes each event to `os` as it arrives, so traces of
/// long runs never reside in memory. `close()` (or the destructor)
/// finalises the JSON document.
class StreamTraceSink final : public TraceSink {
 public:
  explicit StreamTraceSink(std::ostream& os);
  ~StreamTraceSink() override;

  StreamTraceSink(const StreamTraceSink&) = delete;
  StreamTraceSink& operator=(const StreamTraceSink&) = delete;

  void on_event(const TraceEvent& event) override;
  void close();

 private:
  std::ostream* os_;
  bool any_ = false;
  bool closed_ = false;
};

/// Serialise one event as a Chrome trace-event JSON object (no trailing
/// comma/newline). Shared by both sinks.
std::string chrome_trace_event_json(const TraceEvent& event);

/// Process-wide default sink, consulted by sim::Platform at construction
/// when its config does not name one. Benches point this at a file sink
/// when GSIGHT_TRACE is set, which is how any bench binary can dump a
/// Chrome trace without per-bench plumbing. Null by default.
TraceSink* default_trace_sink();
void set_default_trace_sink(TraceSink* sink);

}  // namespace gsight::obs
