#include "perfbench/src/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::ThreadLog& SpanRecorder::Log() {
  thread_local std::map<const SpanRecorder*, ThreadLog*> mine;
  ThreadLog*& log = mine[this];
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int>(logs_.size());
  }
  return *log;
}

int64_t SpanRecorder::Begin(const char* name, int64_t request) {
  if (!enabled_) {
    return 0;
  }
  ThreadLog& log = Log();
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(log.spans.size()) + 1;
  span.parent = log.open.empty() ? 0 : log.open.back();
  span.request = request != 0 || span.parent == 0
                     ? request
                     : log.spans[static_cast<size_t>(span.parent - 1)].request;
  span.thread = log.thread;
  span.start_ns = NowNs();
  log.spans.push_back(span);
  log.open.push_back(span.id);
  return span.id;
}

void SpanRecorder::End(int64_t token) {
  if (!enabled_ || token == 0) {
    return;
  }
  ThreadLog& log = Log();
  log.spans[static_cast<size_t>(token - 1)].end_ns = NowNs();
  if (!log.open.empty() && log.open.back() == token) {
    log.open.pop_back();
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Finish(const std::string& jsonl_path) {
  std::map<std::string, Totals> totals;
  if (!enabled_) {
    return totals;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = jsonl_path.empty() ? nullptr : std::fopen(jsonl_path.c_str(), "w");
  for (const auto& log : logs_) {
    // Child time per parent: children of one parent never overlap (they
    // run on the parent's thread, one after another), so their durations
    // sum to the covered part of the parent's interval.
    std::vector<int64_t> child_ns(log->spans.size() + 1, 0);
    for (const Span& span : log->spans) {
      if (span.parent != 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (const Span& span : log->spans) {
      const int64_t duration = span.end_ns - span.start_ns;
      Totals& t = totals[span.name];
      ++t.count;
      t.total_s += duration / 1e9;
      t.self_s += (duration - child_ns[static_cast<size_t>(span.id)]) / 1e9;
      if (out != nullptr) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"thread\":%d,\"id\":%lld,\"parent\":%lld,"
                     "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     span.name, span.thread, static_cast<long long>(span.id),
                     static_cast<long long>(span.parent), static_cast<long long>(span.request),
                     static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
      }
    }
  }
  if (out != nullptr) {
    std::fclose(out);
  }
  return totals;
}

}  // namespace perfbench
