// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer (the library
// itself is not instrumented) and written out as JSON lines when the run
// ends. A disabled tracer records nothing and costs one branch per call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline Ns to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// A fresh operation id shared by the spans of one query or event.
  std::uint64_t next_op() { return next_op_.fetch_add(1) + 1; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint32_t begin(const char* name, std::uint64_t op,
                      std::uint32_t parent = 0) {
    if (!on_) return 0;
    const Ns now = to_ns(Clock::now() - origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.op = op;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.start = now;
    s.end = now;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(std::uint32_t id) {
    if (id == 0) return;
    const Ns now = to_ns(Clock::now() - origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
  }

  /// Records a span whose interval was measured elsewhere (absolute
  /// steady-clock times).
  std::uint32_t record(const char* name, std::uint64_t op, std::uint32_t parent,
                       Clock::time_point start, Clock::time_point end) {
    if (!on_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.op = op;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.start = to_ns(start - origin_);
    s.end = to_ns(end - origin_);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Snapshot of the spans recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// One JSON object per line: name, op, id, parent, start_ns, end_ns
  /// (nanoseconds since the tracer was created). False on I/O failure.
  bool write_jsonl(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    for (const Span& s : spans()) {
      f << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  const bool on_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_op_{0};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, std::uint64_t op,
            std::uint32_t parent = 0)
      : t_(t), id_(t.begin(name, op, parent)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace perfbench
