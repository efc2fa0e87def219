#include "span_recorder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowMicros() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(now).count();
}

int SpanRecorder::Open(const std::string& name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowMicros(), -1.0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  spans_[static_cast<size_t>(index)].end_us = NowMicros();
  // Spans close in LIFO order on one thread; tolerate a caller that closes
  // an outer span first by dropping everything above it.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int SpanRecorder::Add(const std::string& name, double start_us, double end_us,
                      int parent) {
  spans_.push_back({name, start_us, std::max(start_us, end_us), parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::SelfMicros() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += std::max(0.0, spans_[i].end_us - spans_[i].start_us);
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -=
          std::max(0.0, spans_[i].end_us - spans_[i].start_us);
    }
  }
  for (double& s : self) s = std::max(0.0, s);
  return self;
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::Summarize()
    const {
  const std::vector<double> self = SelfMicros();
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameStats& s = out[spans_[i].name];
    ++s.count;
    s.total_s += std::max(0.0, spans_[i].end_us - spans_[i].start_us) * 1e-6;
    s.self_s += self[i] * 1e-6;
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i == 0 || spans_[i].start_us < origin) origin = spans_[i].start_us;
  }
  const std::vector<double> self = SelfMicros();
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Integer microseconds, floored at both ends, so a child never reads as
    // ending after its parent.
    const double ts = std::floor(s.start_us - origin);
    const double end = std::floor(std::max(s.end_us, s.start_us) - origin);
    int depth = 0;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      ++depth;
    }
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"id\":%zu,"
                 "\"parent_id\":%d,\"depth\":%d,\"self_us\":%.1f}}",
                 JsonEscape(s.name).c_str(), ts, end - ts, i + 1,
                 s.parent + 1, depth, self[i]);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
