// Chrome trace-event JSON export (the "JSON Array Format with metadata"
// flavour: {"traceEvents": [...], "displayTimeUnit": "ms"}). Load the
// output in chrome://tracing or https://ui.perfetto.dev.
#include "obs/trace.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace gsight::obs {

const char* trace_phase(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kComplete:
      return "X";
    case TraceEvent::Kind::kInstant:
      return "i";
    case TraceEvent::Kind::kCounter:
      return "C";
    case TraceEvent::Kind::kAsyncBegin:
      return "b";
    case TraceEvent::Kind::kAsyncEnd:
      return "e";
  }
  return "i";
}

std::string chrome_trace_event_json(const TraceEvent& event) {
  std::string out = "{\"name\":\"";
  out += json_escape(event.name);
  out += "\",\"cat\":\"";
  out += json_escape(event.cat);
  out += "\",\"ph\":\"";
  out += trace_phase(event.kind);
  // Sim seconds → trace microseconds.
  out += "\",\"ts\":";
  out += json_number(event.ts_s * 1e6);
  if (event.kind == TraceEvent::Kind::kComplete) {
    out += ",\"dur\":";
    out += json_number(event.dur_s * 1e6);
  }
  out += ",\"pid\":";
  out += json_number(static_cast<double>(event.pid));
  out += ",\"tid\":";
  out += json_number(static_cast<double>(event.tid));
  if (event.kind == TraceEvent::Kind::kAsyncBegin ||
      event.kind == TraceEvent::Kind::kAsyncEnd) {
    out += ",\"id\":";
    out += json_number(static_cast<double>(event.id));
  }
  if (event.kind == TraceEvent::Kind::kInstant) {
    out += ",\"s\":\"t\"";  // thread-scoped instant
  }
  if (!event.args.empty()) {
    out += ",\"args\":{";
    for (std::size_t i = 0; i < event.args.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      out += json_escape(event.args[i].first);
      out += "\":\"";
      out += json_escape(event.args[i].second);
      out += '"';
    }
    out += '}';
  }
  out += '}';
  return out;
}

void MemoryTraceSink::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    os << chrome_trace_event_json(events_[i]);
    if (i + 1 < events_.size()) os << ',';
    os << '\n';
  }
  os << "]}\n";
}

std::string MemoryTraceSink::chrome_trace_string() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

StreamTraceSink::StreamTraceSink(std::ostream& os) : os_(&os) {
  *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

StreamTraceSink::~StreamTraceSink() { close(); }

void StreamTraceSink::on_event(const TraceEvent& event) {
  if (closed_) return;
  if (any_) *os_ << ",\n";
  *os_ << chrome_trace_event_json(event);
  any_ = true;
}

void StreamTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  if (any_) *os_ << '\n';
  *os_ << "]}\n";
  os_->flush();
}

namespace {

TraceSink*& default_trace_sink_slot() {
  static TraceSink* sink = nullptr;
  return sink;
}

}  // namespace

TraceSink* default_trace_sink() { return default_trace_sink_slot(); }

void set_default_trace_sink(TraceSink* sink) {
  default_trace_sink_slot() = sink;
}

}  // namespace gsight::obs
