// The metrics a finished job exports, read from its ExecutionReport.
//
// Executor and AshaEngine record what happened in their report's trace and
// keep what no event records in plain fields (no registry, no string-keyed
// handles). An event-backed counter is the trace's count of one event type
// when the report is added (executor.crashes is Count(kInstanceCrash)).
// A JobMetricsSum adds finished jobs' reports, in completion order, and
// binds the metric names once, at export: the tuning service sums its
// fleet for the report and MetricsNow, and a run that owns its cloud
// exports a sum of one (ExportSumOfOne).

#ifndef SRC_EXECUTOR_JOB_METRICS_H_
#define SRC_EXECUTOR_JOB_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/executor/executor.h"
#include "src/obs/metrics.h"

namespace rubberband {

class JobMetricsSum {
 public:
  // Without `planner_metrics` the sum leaves out the planner.* family (the
  // fault-replan evaluators' cache statistics): a tuning service counts
  // those into its own planner.* totals, beside its admission evaluators'.
  explicit JobMetricsSum(bool planner_metrics = true);

  // Adds the values `report` exports (its *_metrics families) and the
  // histograms in report.metrics, which as the job finishes hold only the
  // observe-mode executor.* histograms. The double gauges are sums whose
  // last digits depend on the order jobs are added in.
  void Add(const ExecutionReport& report);

  // Adds every family any added report carried into `snapshot` under its
  // metric names (gauges add as accumulators, histograms bucket-wise).
  void ExportTo(MetricsSnapshot* snapshot) const;

 private:
  unsigned kept_;  // families Add sums
  unsigned families_ = 0;
  // By position in the export tables (job_metrics.cc).
  std::vector<int64_t> counters_;
  std::vector<double> gauges_;
  std::map<std::string, HistogramSnapshot> histograms_;
};

// A run alone on its own cloud (ExecutePlan, a standalone AshaEngine)
// exports itself as a sum of one: report->metrics becomes the cloud's
// cloud.* provisioning/billing metrics plus the report's own families and
// the histograms it already carried.
void ExportSumOfOne(const SimulatedCloud& cloud, ExecutionReport* report);

}  // namespace rubberband

#endif  // SRC_EXECUTOR_JOB_METRICS_H_
