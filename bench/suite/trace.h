#ifndef ELEPHANT_BENCH_SUITE_TRACE_H_
#define ELEPHANT_BENCH_SUITE_TRACE_H_

// Span recorder for the benchmark driver. Spans are opened only by the
// driver thread, between its calls into the layers under test, so the
// recorder needs no locks: it appends into a buffer reserved up front
// and never allocates while spans are open. A full buffer counts the
// spans it drops instead of growing.
//
// A span's parent is the span that was open when it began, which
// yields the workload > stream > query (or rep > system > call) tree
// the self-time table in run.py walks.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace elephant::bench {

class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity) { spans_.reserve(capacity); }

  /// Spans are recorded only while enabled; timing callers still get
  /// their durations from Span either way.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span beginning at `begin_ns`; returns its id, or -1 when
  /// the recorder is disabled or full.
  int Open(const char* name, int unit, int64_t begin_ns) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      dropped_++;
      return -1;
    }
    spans_.push_back({name, open_, unit, begin_ns, -1});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  /// Closes span `id` (which must be the innermost open one).
  void Close(int id, int64_t end_ns) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
    open_ = spans_[static_cast<size_t>(id)].parent;
  }

  /// Writes every closed span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps); the span id, parent id and unit id ride
  /// in args. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (s.end_ns < 0) continue;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"unit\": %d}}",
                   first ? "" : ",\n", s.name,
                   static_cast<double>(s.begin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i,
                   s.parent, s.unit);
      first = false;
    }
    std::fprintf(f, "\n], \"dropped\": %zu}\n", dropped_);
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRecord {
    const char* name;  // string literal: outlives the recorder
    int parent;
    int unit;
    int64_t begin_ns;
    int64_t end_ns;
  };

  std::vector<SpanRecord> spans_;
  size_t dropped_ = 0;
  int open_ = -1;
  bool enabled_ = false;
};

/// Times one call into a layer and, when tracing, records it as a span.
/// The same two clock reads serve both, so the traced and untraced
/// paths differ only by the buffer write.
class Span {
 public:
  Span(TraceRecorder* recorder, const char* name, int unit = -1)
      : recorder_(recorder), begin_ns_(NowNs()) {
    id_ = recorder_->Open(name, unit, begin_ns_);
  }
  ~Span() {
    if (!ended_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Stops the clock and closes the span; returns elapsed seconds.
  double End() {
    int64_t end_ns = NowNs();
    recorder_->Close(id_, end_ns);
    ended_ = true;
    return static_cast<double>(end_ns - begin_ns_) / 1e9;
  }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  TraceRecorder* recorder_;
  int64_t begin_ns_;
  int id_ = -1;
  bool ended_ = false;
};

}  // namespace elephant::bench

#endif  // ELEPHANT_BENCH_SUITE_TRACE_H_
