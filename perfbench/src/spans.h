// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// (planner, spec, service, server, journal, obs); nothing inside the
// program is instrumented. Each span carries a name, start, end, parent and
// request id; spans of one request share the id. Recording appends to a
// per-thread vector, so threads never contend, and nothing is written out
// until the run ends. A disabled recorder costs one branch per call.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;      // index within its thread's log (1-based)
  int64_t parent = 0;  // 0 = root
  int64_t request = 0;
  int thread = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread (nested under its open span) and
  // returns a token for End(); 0 when disabled.
  int64_t Begin(const char* name, int64_t request = 0);
  void End(int64_t token);

  // Writes one JSON object per span and returns each span name's total and
  // self time in seconds (self = duration minus the part covered by its
  // children).
  struct Totals {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Finish(const std::string& jsonl_path);

 private:
  struct ThreadLog {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  // stack of open span ids
  };
  ThreadLog& Log();

  bool enabled_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t request = 0)
      : recorder_(recorder), token_(recorder.Begin(name, request)) {}
  ~ScopedSpan() { recorder_.End(token_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int64_t token_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
