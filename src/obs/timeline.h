// Timeline profiler: scoped phase spans on the simulation clock.
//
// The execution trace records *instants* (what happened when); the
// timeline records *intervals* (what the run was doing between them): plan,
// provision, stage-run, sync, checkpoint, restore, quarantine. Spans are
// what the Chrome trace-event exporter draws as bars and what the "top
// phases" summary aggregates — the per-stage allocation timelines the
// paper's evaluation (§6) and HyperSched's reallocation plots are built on.
//
// The executor's stage-total spans tile the run exactly: stage i opens at
// the previous SYNC (stage 0 at t=0) and closes at its own SYNC, so the
// spans sum to the reported JCT — the conformance suite asserts this.

#ifndef SRC_OBS_TIMELINE_H_
#define SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace rubberband {

// name/category are string_views so recording a span on the hot path is a
// flat copy with no string construction; every producer passes string
// literals (executor phases, service phases, the trace-export rule table),
// and new producers must too — the views must outlive the timeline.
struct TimelineSpan {
  std::string_view name;      // phase: "stage-total", "provision", "restore", ...
  std::string_view category;  // component: "executor", "service"
  Seconds start = 0.0;
  Seconds end = 0.0;
  int pid = 1;            // process lane (job) in the Chrome export
  int stage = -1;         // -1 when not stage-scoped
  int trial = -1;         // -1 when not trial-scoped
  int64_t instance = -1;  // -1 when not instance-scoped

  Seconds duration() const { return end - start; }
};

class Timeline {
 public:
  void Record(TimelineSpan span) {
    if (spans_.empty()) {
      spans_.reserve(32);  // skip the early doubling steps on instrumented runs
    }
    spans_.push_back(span);
  }

  // Pre-sizes the backing store when the producer can bound its span count
  // (the executor records a handful of spans per trial and per stage).
  void Reserve(size_t spans) { spans_.reserve(spans); }

  const std::vector<TimelineSpan>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }
  size_t size() const { return spans_.size(); }

  // Appends another timeline's spans with their pid overridden (the service
  // folds per-job executor timelines into one fleet view, one pid per job).
  void Append(const Timeline& other, int pid);

  // Spans with the given name, in recording order.
  std::vector<TimelineSpan> OfName(std::string_view name) const;

 private:
  std::vector<TimelineSpan> spans_;
};

// Compact text summary: phases ranked by total time, with counts — the
// at-a-glance companion to the full Chrome export.
std::string TopPhasesSummary(const Timeline& timeline, size_t top_n = 10);

}  // namespace rubberband

#endif  // SRC_OBS_TIMELINE_H_
