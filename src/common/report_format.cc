#include "src/common/report_format.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace rubberband {

namespace {

void Appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buffer[512];
  const int written = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (written > 0) {
    out.append(buffer, std::min(static_cast<size_t>(written), sizeof(buffer) - 1));
  }
}

const char* Plural(int n) { return n == 1 ? "" : "s"; }

// The optional summary lines, decided once for every surface: the
// execution and service summaries, on the CLI and on the wire.
struct OptionalLines {
  bool faults;
  bool stragglers;
  bool spot;
};

OptionalLines LinesFor(const CloudProfile& cloud, int64_t stragglers_detected) {
  return {cloud.fault.Any(), cloud.fault.straggler_rate > 0.0 || stragglers_detected > 0,
          cloud.spot.enabled};
}

}  // namespace

std::string FormatExecutionSummary(const ExecutionReport& report, const CloudProfile& cloud,
                                   Seconds deadline) {
  using T = TraceEventType;
  const auto count = [&report](T type) { return report.trace.Count(type); };
  const OptionalLines lines = LinesFor(cloud, count(T::kStragglerDetected));
  std::string out;
  Appendf(out, "\nexecuted: JCT %s, cost %s (compute %s + data %s)\n",
          FormatDuration(report.jct).c_str(), report.cost.Total().ToString().c_str(),
          report.cost.compute.ToString().c_str(), report.cost.data.ToString().c_str());
  Appendf(out, "utilization %.0f%%, preemptions %d, best config %s, accuracy %.1f%%\n",
          100.0 * report.realized_utilization, count(T::kPreemption),
          report.best_config.ToString().c_str(), 100.0 * report.best_accuracy);
  if (lines.faults) {
    Appendf(out,
            "faults: %d crashes, %d provision failures (%d retried, %d abandoned), "
            "%d checkpoint retries\n",
            count(T::kInstanceCrash), count(T::kProvisionFailure), count(T::kProvisionRetry),
            count(T::kProvisionGiveUp), count(T::kCheckpointRetry));
    Appendf(out,
            "recovery: %d trial restarts, %.0fs spent recovering, %d degraded stage%s, "
            "%d replan%s%s\n",
            count(T::kTrialRestart), report.recovery_seconds, count(T::kStageDegraded),
            Plural(count(T::kStageDegraded)), count(T::kReplan), Plural(count(T::kReplan)),
            report.jct <= deadline ? ", deadline met" : ", deadline MISSED");
  }
  if (lines.stragglers) {
    Appendf(out,
            "stragglers: %d injected, %d detected (%d false positive%s), "
            "%d quarantined, %.0fs slowdown avoided for %.0fs mitigation cost\n",
            report.stragglers_injected, count(T::kStragglerDetected),
            count(T::kStragglerFalsePositive), Plural(count(T::kStragglerFalsePositive)),
            count(T::kStragglerQuarantined), report.straggler_slowdown_avoided,
            report.straggler_mitigation_seconds);
  }
  if (lines.spot) {
    Appendf(out,
            "spot: saved %s vs on-demand, %d warning%s -> %d eager checkpoint%s, "
            "%.0fs rework, %d market fallback%s\n",
            report.spot_savings.ToString().c_str(), count(T::kPreemptionWarning),
            Plural(count(T::kPreemptionWarning)), report.eager_checkpoints,
            Plural(report.eager_checkpoints), report.spot_rework_seconds,
            count(T::kMarketFallback), Plural(count(T::kMarketFallback)));
  }
  return out;
}

std::string FormatStageTable(const ExecutionReport& report) {
  std::string out;
  Appendf(out, "\n%-14s %8s %12s %14s\n", "epoch range", "trials", "GPUs/trial", "cluster size");
  for (const StageLogEntry& stage : report.stage_log) {
    Appendf(out, "%4lld-%-9lld %8d %12d %14d\n", static_cast<long long>(stage.start_cum_iters),
            static_cast<long long>(stage.end_cum_iters), stage.num_trials, stage.gpus_per_trial,
            stage.instances);
  }
  return out;
}

std::string FormatServiceJobTable(const ServiceReport& report) {
  std::string out;
  Appendf(out, "\n%-10s %-20s %10s %10s %10s %10s  %s\n", "job", "state", "submit", "wait",
          "jct", "cost", "deadline");
  for (const JobOutcome& job : report.jobs) {
    if (job.state == JobState::kCompleted) {
      Appendf(out, "%-10s %-20s %10s %10s %10s %10s  %s\n", job.name.c_str(),
              ToString(job.state).c_str(), FormatDuration(job.submitted_at).c_str(),
              FormatDuration(job.queue_wait).c_str(), FormatDuration(job.jct).c_str(),
              job.cost.ToString().c_str(), job.met_deadline ? "met" : "MISSED");
    } else {
      Appendf(out, "%-10s %-20s %10s %10s %10s %10s  %s\n", job.name.c_str(),
              ToString(job.state).c_str(), FormatDuration(job.submitted_at).c_str(), "-", "-",
              "-", "-");
    }
  }
  return out;
}

std::string FormatServiceSummary(const ServiceReport& report, const CloudProfile& cloud) {
  std::string out;
  Appendf(out, "\nserved %d/%d jobs (%d rejected), %d deadline miss%s\n", report.completed,
          static_cast<int>(report.jobs.size()), report.rejected, report.deadline_misses,
          report.deadline_misses == 1 ? "" : "es");
  if (report.cancelled > 0 || report.in_flight > 0) {
    // Interim reports and cancellations only; absent lines keep the CLI's
    // trace-replay output byte-identical to its golden baselines.
    Appendf(out, "in flight %d, cancelled %d\n", report.in_flight, report.cancelled);
  }
  Appendf(out, "makespan %s, mean queue wait %s\n", FormatDuration(report.makespan).c_str(),
          FormatDuration(report.mean_queue_wait).c_str());
  Appendf(out, "total cost %s (%s per completed job), %d instance launches\n",
          report.total_cost.Total().ToString().c_str(),
          report.cost_per_completed_job.ToString().c_str(), report.instance_launches);
  Appendf(out, "warm pool: %lld/%lld warm hits (%.0f%%), %.0fs init saved, %.0fs parked idle\n",
          static_cast<long long>(report.warm.warm_hits),
          static_cast<long long>(report.warm.requests), 100.0 * report.warm.HitRate(),
          report.warm.init_seconds_saved, report.warm.parked_idle_seconds);
  Appendf(out, "aggregate utilization %.0f%%\n", 100.0 * report.aggregate_utilization);
  Appendf(out,
          "planner cache: %lld/%lld plan estimates from memo (%.0f%% hit rate), "
          "%lld stage sims reused\n",
          static_cast<long long>(report.planner_cache.plan_memo_hits),
          static_cast<long long>(report.planner_cache.plan_memo_hits +
                                 report.planner_cache.plan_evaluations),
          100.0 * report.planner_cache.PlanHitRate(),
          static_cast<long long>(report.planner_cache.stage_cache_hits));
  // The fleet totals are the fleet metrics; a family no finished job
  // carried reads 0.
  const MetricsSnapshot& fleet = report.metrics;
  const auto count = [&fleet](const char* name) {
    return static_cast<int>(fleet.CounterOr0(name));
  };
  const OptionalLines lines = LinesFor(cloud, count("executor.stragglers_detected"));
  if (lines.faults) {
    Appendf(out, "faults: %d crashes, %d provision failures, %d replans, %.0fs recovery\n",
            count("executor.crashes"), count("executor.provision_failures"),
            count("executor.replans"), fleet.GaugeOr0("executor.recovery_seconds"));
  }
  if (lines.stragglers) {
    const int false_positives = count("executor.straggler_false_positives");
    Appendf(out,
            "stragglers: %d injected fleet-wide, %d detected (%d false positive%s), "
            "%d quarantined, %.0fs mitigation cost\n",
            report.stragglers_injected, count("executor.stragglers_detected"), false_positives,
            Plural(false_positives), count("executor.stragglers_quarantined"),
            fleet.GaugeOr0("executor.straggler_mitigation_seconds"));
  }
  if (lines.spot) {
    const int preemptions = count("executor.preemptions");
    const int fallbacks = count("spot.market_fallbacks");
    Appendf(out,
            "spot: saved %s vs on-demand fleet-wide, %d preemption%s (%d warned), "
            "%.0fs rework, %d market fallback%s\n",
            Money::FromDollars(fleet.GaugeOr0("spot.savings_dollars")).ToString().c_str(),
            preemptions, Plural(preemptions), count("spot.preemption_warnings"),
            fleet.GaugeOr0("spot.rework_seconds"), fallbacks, Plural(fallbacks));
  }
  return out;
}

}  // namespace rubberband
