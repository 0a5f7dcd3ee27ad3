// Tuning on spot (pre-emptible) capacity: cheaper GPUs, interrupted trials.
//
// RubberBand's checkpoint/restore machinery makes spot viable: when the
// provider reclaims an instance, affected trials roll back to their
// stage-start checkpoint and restart on replacement capacity. This example
// sweeps the reclamation rate to show the trade-off: deep discounts win
// until restart rework and deadline misses eat them.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile profile = ProfileWorkload(workload).profile;

  CloudProfile on_demand;
  on_demand.instance = P3_8xlarge();
  on_demand.provisioning = ProvisioningModel::Fixed(5.0, 10.0);

  const Seconds deadline = Minutes(20);
  const PlannedJob job = CompilePlan(spec, profile, on_demand, deadline);
  std::printf("plan %s (planned against on-demand, %s deadline)\n\n",
              job.plan.ToString().c_str(), FormatDuration(deadline).c_str());

  std::printf("%-26s %10s %10s %12s %10s\n", "market", "JCT", "cost", "preemptions",
              "restarts");
  const ExecutionReport baseline = Execute(spec, job.plan, workload, on_demand);
  std::printf("%-26s %10s %10s %12d %10d\n", "on-demand",
              FormatDuration(baseline.jct).c_str(), baseline.cost.Total().ToString().c_str(),
              baseline.trace.Count(TraceEventType::kPreemption),
              baseline.trace.Count(TraceEventType::kTrialRestart));

  for (double mttp_minutes : {120.0, 30.0, 10.0, 5.0}) {
    CloudProfile spot = on_demand;
    spot.spot.enabled = true;
    spot.spot.discount = 0.3;
    spot.spot.mean_time_to_preemption = Minutes(mttp_minutes);
    const ExecutionReport report = Execute(spec, job.plan, workload, spot);
    char label[64];
    std::snprintf(label, sizeof(label), "spot (reclaim ~%.0f min)", mttp_minutes);
    std::printf("%-26s %10s %10s %12d %10d%s\n", label, FormatDuration(report.jct).c_str(),
                report.cost.Total().ToString().c_str(),
                report.trace.Count(TraceEventType::kPreemption),
                report.trace.Count(TraceEventType::kTrialRestart),
                report.jct > deadline ? "  [missed deadline]" : "");
  }

  std::printf("\nThe 70%% discount absorbs a lot of rework, but the JCT guarantee is\n"
              "gone: every reclamation rolls the affected trials back to the last\n"
              "stage boundary. Deadline-critical jobs should stay on-demand.\n");
  return 0;
}
