#include "src/executor/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace rubberband {

std::string ToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kStageStart:
      return "STAGE_START";
    case TraceEventType::kInstanceReady:
      return "INSTANCE_READY";
    case TraceEventType::kInstanceReleased:
      return "INSTANCE_RELEASED";
    case TraceEventType::kTrialStart:
      return "TRIAL_START";
    case TraceEventType::kTrialComplete:
      return "TRIAL_COMPLETE";
    case TraceEventType::kTrialTerminated:
      return "TRIAL_TERMINATED";
    case TraceEventType::kSync:
      return "SYNC";
    case TraceEventType::kPreemption:
      return "PREEMPTION";
    case TraceEventType::kTrialRestart:
      return "TRIAL_RESTART";
    case TraceEventType::kInstanceCrash:
      return "INSTANCE_CRASH";
    case TraceEventType::kProvisionFailure:
      return "PROVISION_FAILURE";
    case TraceEventType::kProvisionRetry:
      return "PROVISION_RETRY";
    case TraceEventType::kProvisionGiveUp:
      return "PROVISION_GIVE_UP";
    case TraceEventType::kCheckpointRetry:
      return "CHECKPOINT_RETRY";
    case TraceEventType::kStageDegraded:
      return "STAGE_DEGRADED";
    case TraceEventType::kReplan:
      return "REPLAN";
    case TraceEventType::kStragglerDetected:
      return "STRAGGLER_DETECTED";
    case TraceEventType::kStragglerQuarantined:
      return "STRAGGLER_QUARANTINED";
    case TraceEventType::kStragglerFalsePositive:
      return "STRAGGLER_FALSE_POSITIVE";
    case TraceEventType::kSpotPriceChange:
      return "SPOT_PRICE_CHANGE";
    case TraceEventType::kPreemptionWarning:
      return "PREEMPTION_WARNING";
    case TraceEventType::kMarketFallback:
      return "MARKET_FALLBACK";
  }
  return "UNKNOWN";
}

TraceEventType TraceEventTypeFromString(const std::string& name) {
  // Spans every enum value by construction — no hand-maintained list to
  // fall out of sync when an event kind is added.
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    if (ToString(type) == name) {
      return type;
    }
  }
  throw std::invalid_argument("unknown trace event type '" + name + "'");
}

std::vector<TraceEvent> ExecutionTrace::OfType(TraceEventType type) const {
  std::vector<TraceEvent> matching;
  for (const TraceEvent& event : events_) {
    if (event.type == type) {
      matching.push_back(event);
    }
  }
  return matching;
}

int ExecutionTrace::Count(TraceEventType type) const {
  return static_cast<int>(std::count_if(events_.begin(), events_.end(),
                                        [type](const TraceEvent& e) { return e.type == type; }));
}

std::string ExecutionTrace::ToCsv() const {
  std::ostringstream os;
  os << "time_s,event,stage,trial,instance\n";
  char line[128];
  for (const TraceEvent& event : events_) {
    std::snprintf(line, sizeof(line), "%.3f,%s,%d,%d,%lld\n", event.time,
                  ToString(event.type).c_str(), event.stage, event.trial,
                  static_cast<long long>(event.instance));
    os << line;
  }
  return os.str();
}

namespace {

// Strict full-token parses: std::stoi("12abc") silently truncates, which
// would let a garbled row round-trip as a different event.
double ParseFullDouble(const std::string& token) {
  size_t consumed = 0;
  const double value = std::stod(token, &consumed);
  if (consumed != token.size()) {
    throw std::invalid_argument("trailing characters in number '" + token + "'");
  }
  return value;
}

int64_t ParseFullInt(const std::string& token) {
  size_t consumed = 0;
  const int64_t value = std::stoll(token, &consumed);
  if (consumed != token.size()) {
    throw std::invalid_argument("trailing characters in integer '" + token + "'");
  }
  return value;
}

}  // namespace

ExecutionTrace ExecutionTrace::FromCsv(const std::string& csv, int* parse_errors) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line != "time_s,event,stage,trial,instance") {
    throw std::invalid_argument("trace CSV is missing its header line");
  }
  if (parse_errors != nullptr) {
    *parse_errors = 0;
  }
  ExecutionTrace trace;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    try {
      std::istringstream row(line);
      std::string time_s, event, stage, trial, instance, extra;
      if (!std::getline(row, time_s, ',') || !std::getline(row, event, ',') ||
          !std::getline(row, stage, ',') || !std::getline(row, trial, ',') ||
          !std::getline(row, instance, ',') || std::getline(row, extra, ',')) {
        throw std::invalid_argument("wrong field count");
      }
      trace.Record(ParseFullDouble(time_s), TraceEventTypeFromString(event),
                   static_cast<int>(ParseFullInt(stage)), static_cast<int>(ParseFullInt(trial)),
                   ParseFullInt(instance));
    } catch (const std::exception&) {
      if (parse_errors == nullptr) {
        throw std::invalid_argument("malformed trace CSV row: " + line);
      }
      ++*parse_errors;  // tolerant mode: count and keep going
    }
  }
  return trace;
}

}  // namespace rubberband
