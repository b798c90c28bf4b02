#ifndef COLR_PERFBENCH_SPANS_H_
#define COLR_PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. Spans are recorded at
// the benchmark's own calls into each layer (nothing inside src/ is
// instrumented): name, start, end, the span that caused it, and the
// request it belongs to. Each thread owns one Tracer, so recording
// takes no lock; the tracers are merged when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace perfbench {

inline int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the causing span in the same Tracer; -1 for a root.
  int32_t parent = -1;
  /// Request (query ordinal) the span serves; -1 for run phases.
  int64_t request = -1;
};

class Tracer {
 public:
  Tracer(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  int tid() const { return tid_; }

  int32_t Begin(const char* name, int64_t request, int32_t parent = -1) {
    return BeginAt(name, request, parent, enabled_ ? NowNs() : 0);
  }
  /// A span that started at `start_ns` (an open-loop request starts at
  /// its scheduled arrival, before any thread picks it up).
  int32_t BeginAt(const char* name, int64_t request, int32_t parent,
                  int64_t start_ns) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t request,
             int32_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Per span name: count, total and self time. Self time is a span's
/// duration minus the part its child spans cover (children of one
/// span never overlap: each tracer is one thread).
struct SpanSummary {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanSummary> out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& sum = out[spans[i].name];
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      ++sum.count;
      sum.total_ms += static_cast<double>(dur) / 1e6;
      sum.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
  }
  return out;
}

/// Writes the spans of run phases and of the first `max_requests`
/// requests as a Chrome trace-event file (chrome://tracing, Perfetto).
/// Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const Tracer*>& tracers,
                             int64_t max_requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (s.request >= max_requests) continue;
      JsonObject args;
      args.Int("request", s.request).Int("parent", s.parent);
      JsonObject ev;
      ev.Str("name", s.name)
          .Str("ph", "X")
          .Num("ts", static_cast<double>(s.start_ns) / 1e3)
          .Num("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          .Int("pid", 1)
          .Int("tid", t->tid())
          .Raw("args", args.Done());
      std::fprintf(f, "%s\n%s", first ? "" : ",", ev.Done().c_str());
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // COLR_PERFBENCH_SPANS_H_
