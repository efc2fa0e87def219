#ifndef TIMEKD_PERFBENCH_SPAN_RECORDER_H_
#define TIMEKD_PERFBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock, shared by every timing in the
/// benchmark so spans and phase timers line up.
double NowMicros();

/// In-memory span recorder owned by the benchmark (independent of the
/// library's own tracing). Spans are recorded on one thread: each keeps its
/// name, start, end and the span that was open when it began. Written at
/// exit as Chrome trace JSON that Perfetto and `timekd_cli trace` read.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  // < start_us while the span is open
    int parent = -1;       // index into spans(); -1 for a root span
  };

  /// Per-name totals. Self time is a span's duration minus the part its
  /// child spans cover (children never overlap on one thread).
  struct NameStats {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Opens a span; the innermost open span becomes its parent. Returns its
  /// index for Close.
  int Open(const std::string& name);
  void Close(int index);
  /// Records a finished span under `parent`, reconstructed from timestamps
  /// taken elsewhere (e.g. training-loop callbacks). Returns its index.
  int Add(const std::string& name, double start_us, double end_us, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, NameStats> Summarize() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry id/parent_id/depth and the span's self time. Returns false
  /// when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<double> SelfMicros() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on an optional recorder; a null recorder records nothing, so
/// untraced runs pay no clock reads for spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // TIMEKD_PERFBENCH_SPAN_RECORDER_H_
