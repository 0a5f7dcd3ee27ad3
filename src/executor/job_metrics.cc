#include "src/executor/job_metrics.h"

#include <iterator>

namespace rubberband {

namespace {

using Report = ExecutionReport;

// Metric families, exported only when some added report carries them. A
// staged report carries the planner family too: its fault-replan
// evaluators' cache statistics.
enum Family : unsigned { kStaged = 1, kSpot = 2, kAsha = 4, kPlanner = 8 };

unsigned FamiliesOf(const Report& r) {
  return (r.staged_metrics ? kStaged | kPlanner : 0u) | (r.spot_metrics ? kSpot : 0u) |
         (r.asha_metrics ? kAsha : 0u);
}

// Each exported metric once: its name, its family (any of them), and where
// a report holds its value.
template <typename T>
struct Metric {
  const char* name;
  unsigned families;
  T (*read)(const Report&);
};

// A counter of the report's trace: how many events of one type it holds.
template <TraceEventType type>
int64_t Events(const Report& r) {
  return r.trace.Count(type);
}

using Type = TraceEventType;

constexpr Metric<int64_t> kCounters[] = {
    // Both kinds of job record their instance losses as trace events.
    {"executor.preemptions", kStaged | kAsha, Events<Type::kPreemption>},
    {"executor.crashes", kStaged | kAsha, Events<Type::kInstanceCrash>},
    {"executor.trial_restarts", kStaged, Events<Type::kTrialRestart>},
    {"executor.provision_failures", kStaged, Events<Type::kProvisionFailure>},
    {"executor.provision_retries", kStaged, Events<Type::kProvisionRetry>},
    {"executor.capacity_shortfalls", kStaged, Events<Type::kProvisionGiveUp>},
    {"executor.degraded_stages", kStaged, Events<Type::kStageDegraded>},
    {"executor.replans", kStaged, Events<Type::kReplan>},
    {"executor.checkpoint_retries", kStaged, Events<Type::kCheckpointRetry>},
    {"executor.stragglers_detected", kStaged, Events<Type::kStragglerDetected>},
    {"executor.stragglers_quarantined", kStaged, Events<Type::kStragglerQuarantined>},
    {"executor.straggler_false_positives", kStaged, Events<Type::kStragglerFalsePositive>},
    {"executor.straggler_detection_syncs", kStaged,
     [](const Report& r) { return r.straggler_detection_syncs; }},
    {"executor.checkpoint_saves", kStaged, [](const Report& r) { return r.checkpoint_saves; }},
    {"executor.checkpoint_fetches", kStaged, [](const Report& r) { return r.checkpoint_fetches; }},
    {"planner.plan_evaluations", kPlanner,
     [](const Report& r) { return r.planner_cache.plan_evaluations; }},
    {"planner.plan_memo_hits", kPlanner,
     [](const Report& r) { return r.planner_cache.plan_memo_hits; }},
    {"planner.stage_evaluations", kPlanner,
     [](const Report& r) { return r.planner_cache.stage_evaluations; }},
    {"planner.stage_cache_hits", kPlanner,
     [](const Report& r) { return r.planner_cache.stage_cache_hits; }},
    {"spot.preemption_warnings", kSpot, Events<Type::kPreemptionWarning>},
    {"spot.eager_checkpoints", kSpot,
     [](const Report& r) -> int64_t { return r.eager_checkpoints; }},
    {"spot.market_fallbacks", kSpot, Events<Type::kMarketFallback>},
    // Every preemption is a spot reclaim.
    {"spot.preemptions", kSpot, Events<Type::kPreemption>},
    {"asha.configurations_sampled", kAsha,
     [](const Report& r) { return r.asha_configurations_sampled; }},
    {"asha.promotions", kAsha, [](const Report& r) { return r.asha_promotions; }},
};

constexpr Metric<double> kGauges[] = {
    // Both kinds of job publish the outcome gauges into the same sums.
    {"executor.jct_seconds", kStaged | kAsha, [](const Report& r) { return r.jct; }},
    {"executor.cost_dollars", kStaged | kAsha,
     [](const Report& r) { return r.cost.Total().dollars(); }},
    {"executor.best_accuracy", kStaged | kAsha, [](const Report& r) { return r.best_accuracy; }},
    {"executor.recovery_seconds", kStaged, [](const Report& r) { return r.recovery_seconds; }},
    {"executor.straggler_mitigation_seconds", kStaged,
     [](const Report& r) { return r.straggler_mitigation_seconds; }},
    {"executor.straggler_slowdown_avoided_seconds", kStaged,
     [](const Report& r) { return r.straggler_slowdown_avoided; }},
    {"executor.realized_utilization", kStaged,
     [](const Report& r) { return r.realized_utilization; }},
    {"executor.checkpoint_gb_moved", kStaged,
     [](const Report& r) { return r.checkpoint_gb_moved; }},
    {"planner.plan_hit_rate", kPlanner,
     [](const Report& r) { return r.planner_cache.PlanHitRate(); }},
    {"planner.stage_hit_rate", kPlanner,
     [](const Report& r) { return r.planner_cache.StageHitRate(); }},
    {"spot.rework_seconds", kSpot, [](const Report& r) { return r.spot_rework_seconds; }},
    {"spot.savings_dollars", kSpot, [](const Report& r) { return r.spot_savings.dollars(); }},
    {"asha.rungs", kAsha, [](const Report& r) { return static_cast<double>(r.asha_rungs); }},
};

template <typename T, size_t N>
void AddValues(const Metric<T> (&metrics)[N], const Report& report, unsigned families,
               std::vector<T>* sums) {
  for (size_t i = 0; i < N; ++i) {
    if ((metrics[i].families & families) != 0) {
      (*sums)[i] += metrics[i].read(report);
    }
  }
}

template <typename T, size_t N>
void ExportValues(const Metric<T> (&metrics)[N], const std::vector<T>& sums, unsigned families,
                  std::map<std::string, T>* out) {
  for (size_t i = 0; i < N; ++i) {
    if ((metrics[i].families & families) != 0) {
      (*out)[metrics[i].name] += sums[i];
    }
  }
}

}  // namespace

JobMetricsSum::JobMetricsSum(bool planner_metrics)
    : kept_(planner_metrics ? ~0u : ~unsigned{kPlanner}),
      counters_(std::size(kCounters), 0),
      gauges_(std::size(kGauges), 0.0) {}

void JobMetricsSum::Add(const ExecutionReport& report) {
  const unsigned families = FamiliesOf(report) & kept_;
  families_ |= families;
  AddValues(kCounters, report, families, &counters_);
  AddValues(kGauges, report, families, &gauges_);
  for (const auto& [name, histogram] : report.metrics.histograms) {
    histograms_[name].Merge(histogram);
  }
}

void JobMetricsSum::ExportTo(MetricsSnapshot* snapshot) const {
  ExportValues(kCounters, counters_, families_, &snapshot->counters);
  ExportValues(kGauges, gauges_, families_, &snapshot->gauges);
  for (const auto& [name, histogram] : histograms_) {
    snapshot->histograms[name].Merge(histogram);
  }
}

void ExportSumOfOne(const SimulatedCloud& cloud, ExecutionReport* report) {
  JobMetricsSum own;
  own.Add(*report);
  report->metrics = cloud.metrics().Snapshot();
  own.ExportTo(&report->metrics);
}

}  // namespace rubberband
