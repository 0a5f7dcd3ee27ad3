// Chrome trace-event exporter: turns an ExecutionTrace (instants) and a
// Timeline (phase spans) into chrome://tracing / Perfetto JSON.
//
// Layout follows the issue's contract: one pid per job (the service maps
// job index -> pid; standalone runs use pid 1), one tid per instance.
// Lanes within a pid:
//   tid 0                control lane: stage spans and executor phases
//   tid 10 + instance    instance lifetime spans + instance-scoped markers
//   tid 100000 + trial   trial spans, checkpoint/restore, trial markers
// Thread-name metadata events label every lane.
//
// ChromeRuleFor is the single, exhaustive mapping from TraceEventType to
// export behavior. The switch has no default, so adding an event kind
// without mapping it is a compile warning, and the trace test's table-driven
// guard fails if any mapped rule is left empty.

#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/executor/trace.h"
#include "src/obs/timeline.h"

namespace rubberband {

// Which open-span table a close/open event keys into (and which lane an
// instant marker lands on).
enum class ChromeSpanKey { kNone, kStage, kTrial, kInstance };

struct ChromeEventRule {
  const char* name = "";  // exported event name; "" only past the enum's end
  enum Kind { kInstant, kOpen, kClose } kind = kInstant;
  ChromeSpanKey key = ChromeSpanKey::kNone;
};

// The exhaustive TraceEventType -> export rule table. Values outside the
// enum return the empty sentinel rule.
ChromeEventRule ChromeRuleFor(TraceEventType type);

// Derives paired spans from a raw event trace: STAGE_START..SYNC becomes a
// "stage" span, TRIAL_START..TRIAL_COMPLETE/TERMINATED/RESTART a "trial"
// span, INSTANCE_READY..released/preempted/crashed/quarantined an
// "instance" span. Spans still open at the end of the trace close at the
// last event's time. Category "trace".
Timeline SpansFromTrace(const ExecutionTrace& trace, int pid = 1);

class ChromeTraceBuilder {
 public:
  // Adds phase spans; each span's own pid is used.
  void AddTimeline(const Timeline& timeline);
  // Same, with every span forced onto `pid`.
  void AddTimeline(const Timeline& timeline, int pid);

  // Adds a raw event trace under `pid`: derived spans (SpansFromTrace) plus
  // an instant marker per instant/closing event.
  void AddExecutionTrace(const ExecutionTrace& trace, int pid);

  void SetProcessName(int pid, const std::string& name);

  // The trace-event JSON document ({"traceEvents": [...], ...}); metadata
  // events first, then payload events in insertion order. Timestamps are
  // microseconds on the simulation clock.
  std::string ToJson() const;

 private:
  struct Event {
    std::string name;
    std::string category;
    char phase = 'i';  // 'X' complete, 'i' instant
    double ts_us = 0.0;
    double dur_us = 0.0;  // 'X' only
    int pid = 1;
    int64_t tid = 0;
    std::string args_json;  // pre-rendered {"stage": 1, ...} or empty
  };

  void NoteThread(int pid, int64_t tid);

  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int64_t>, std::string> thread_names_;
};

struct ExecutionReport;
struct ServiceReport;

// One job: phase spans + trace events under pid 1.
std::string ChromeTraceFromReport(const ExecutionReport& report);

// The fleet: service-level spans keep their own pids; each job's timeline
// and trace are exported under pid (job index + 1), named after the job.
std::string ChromeTraceFromService(const ServiceReport& report);

}  // namespace rubberband

#endif  // SRC_OBS_CHROME_TRACE_H_
