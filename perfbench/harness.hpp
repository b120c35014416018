// Measurement plumbing shared by the perfbench workloads: a monotonic
// clock, an in-memory span log for the traced run, hot-boundary counters,
// peak RSS and a 64-bit digest. Nothing here reaches into src/: spans are
// opened by the benchmark around calls into the public API. JSON output
// and percentiles come from the gsight library (obs::Json, stats).
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time consumed so far on `clock` (the process's or this thread's).
inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process so far, in MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a over a byte string, printed as 16 hex digits.
inline std::string digest_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One closed span of the traced run.
struct Span {
  std::string name;  ///< "<layer>.<boundary>", e.g. "ml.partial_fit"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span log for single-threaded boundaries. A null log (the
/// untraced run) makes every Scope a no-op. While paused, new spans are
/// not recorded: the benchmark's own probes must not be billed to a layer.
class SpanLog {
 public:
  int open(std::string name) {
    if (paused_ > 0) return -1;
    spans_.push_back({std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  void pause() { ++paused_; }
  void resume() { --paused_; }
  bool recording() const { return paused_ == 0; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus direct children) summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int paused_ = 0;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Count plus total time for boundaries hit too often to keep as spans.
struct HotTimer {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  void merge(const HotTimer& o) {
    calls += o.calls;
    ns += o.ns;
  }
  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// A JSON array of numbers, for the run report's details.
inline gsight::obs::Json json_list(const std::vector<double>& values) {
  gsight::obs::Json out = gsight::obs::Json::array();
  for (const double v : values) out.push_back(v);
  return out;
}

}  // namespace perfbench
