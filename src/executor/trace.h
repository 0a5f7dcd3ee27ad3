// Execution trace: a structured event log of everything the executor did —
// cluster scaling, trial life-cycle transitions, synchronization barriers,
// preemptions. Exportable as CSV for offline analysis (the moral
// equivalent of the timeline instrumentation the paper's evaluation is
// built on).
//
// The trace is also a job's only record of how often each of these things
// happened: a report's preemption, crash, restart, fault, straggler and
// market-switch counts are Count(type) over its events.

#ifndef SRC_EXECUTOR_TRACE_H_
#define SRC_EXECUTOR_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace rubberband {

enum class TraceEventType {
  kStageStart,
  kInstanceReady,
  kInstanceReleased,
  kTrialStart,
  kTrialComplete,
  kTrialTerminated,
  kSync,
  kPreemption,
  kTrialRestart,
  // Fault/recovery events (the self-healing control plane).
  kInstanceCrash,      // hardware crash on a ready instance
  kProvisionFailure,   // a provisioning slot failed (rejection or init death)
  kProvisionRetry,     // the failed slot was re-requested after backoff
  kProvisionGiveUp,    // retries exhausted; the slot was abandoned
  kCheckpointRetry,    // a checkpoint fetch failed and was recovered
  kStageDegraded,      // a stage proceeded with fewer GPUs than planned
  kReplan,             // remaining stages re-planned after slack burned
  // Gray-failure events (persistent-straggler detection/mitigation).
  kStragglerDetected,       // detector flagged an instance as persistently slow
  kStragglerQuarantined,    // flagged instance checkpointed out and discarded
  kStragglerFalsePositive,  // flagged instance was in fact healthy
  // Spot-market events (price-trace survival).
  kSpotPriceChange,     // the spot price trace stepped (multiplier in `instance`, in basis points)
  kPreemptionWarning,   // provider announced a reclamation; eager checkpoint taken
  kMarketFallback,      // capacity rejected/storming: switched markets
};

// Number of TraceEventType values. Keep in sync with the enum above: the
// trace test asserts ToString(kNumTraceEventTypes) == "UNKNOWN", so adding
// an event kind without bumping this (and thereby enrolling the new kind in
// the exhaustive round-trip test) fails the build's test tier.
inline constexpr int kNumTraceEventTypes =
    static_cast<int>(TraceEventType::kMarketFallback) + 1;

std::string ToString(TraceEventType type);

// Inverse of ToString; throws std::invalid_argument on an unknown name.
TraceEventType TraceEventTypeFromString(const std::string& name);

struct TraceEvent {
  Seconds time = 0.0;
  TraceEventType type = TraceEventType::kStageStart;
  int stage = -1;
  int trial = -1;     // -1 when not trial-scoped
  int64_t instance = -1;  // -1 when not instance-scoped
};

class ExecutionTrace {
 public:
  void Record(Seconds time, TraceEventType type, int stage, int trial = -1,
              int64_t instance = -1) {
    events_.push_back(TraceEvent{time, type, stage, trial, instance});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Events of one type, in order.
  std::vector<TraceEvent> OfType(TraceEventType type) const;

  // How many events of one type the trace holds (a scan, not a tally).
  int Count(TraceEventType type) const;

  // "time,event,stage,trial,instance" rows with a header line.
  std::string ToCsv() const;

  // Parses ToCsv output back into a trace (offline-analysis round trip).
  // A missing or wrong header always throws std::invalid_argument. Row
  // handling depends on `parse_errors`: when null (the default), any
  // malformed row throws; when non-null, malformed rows are skipped and
  // counted into *parse_errors (set to 0 first), so a partially corrupted
  // log still yields every salvageable event — trace2chrome surfaces the
  // count instead of dying on row one.
  static ExecutionTrace FromCsv(const std::string& csv, int* parse_errors = nullptr);

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace rubberband

#endif  // SRC_EXECUTOR_TRACE_H_
