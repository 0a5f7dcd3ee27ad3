// Shared pretty-printing of execution and service reports.
//
// One formatter serves every surface that renders a report — the `execute`
// and `serve` CLI paths and the serving front door's `report` endpoint —
// so the human-readable rendering cannot drift between them. Each summary
// takes the run's CloudProfile and decides its optional lines itself, by
// one rule: faults when a fault class is injected, stragglers when
// injection is on or any straggler was detected, spot when the spot
// market is on. The service summary reads its fleet counts from the
// report's metrics, the one fleet tally. The output is byte-identical to
// the historical CLI printf output (the CLI golden baselines pin it).

#ifndef SRC_COMMON_REPORT_FORMAT_H_
#define SRC_COMMON_REPORT_FORMAT_H_

#include <string>

#include "src/executor/executor.h"
#include "src/service/tuning_service.h"

namespace rubberband {

// "executed: JCT ..., cost ..." plus utilization/fault/straggler/spot
// lines. `deadline` (absolute) sets the fault summary's met/MISSED tail.
std::string FormatExecutionSummary(const ExecutionReport& report, const CloudProfile& cloud,
                                   Seconds deadline);

// The per-stage allocation table ("epoch range  trials  GPUs/trial ...").
std::string FormatStageTable(const ExecutionReport& report);

// The per-job state table ("job  state  submit  wait  jct  cost  deadline").
std::string FormatServiceJobTable(const ServiceReport& report);

// The fleet summary: served/rejected counts, makespan, cost, warm pool,
// utilization, planner cache, and the fault/straggler/spot totals the
// cloud calls for.
std::string FormatServiceSummary(const ServiceReport& report, const CloudProfile& cloud);

}  // namespace rubberband

#endif  // SRC_COMMON_REPORT_FORMAT_H_
