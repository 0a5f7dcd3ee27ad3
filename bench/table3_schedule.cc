// Table 3: example cluster schedule for elastic training.
//
// The allocation plan RubberBand compiles for the Table 2 workload at the
// 20-minute constraint, rendered as the paper renders it: epoch range,
// surviving trials, GPUs per trial, and cluster size (instances) per stage.
// Expected shape: front-loaded — a wide cluster for the 32-trial first
// epoch, shrinking to ~2 instances for the lone survivor's long tail
// (paper: 8 / 5 / 4 / 2 instances; 1 / 2 / 4 / 8 GPUs per trial).

#include "bench/bench_util.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = P38Cloud(5.0, 10.0);
  const ModelProfile profile = ProfileWorkload(workload).profile;

  PlanEvaluator evaluator({spec, profile, cloud, Minutes(20)}, {});
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob job = PlanGreedy(evaluator);
  const ExecutionReport report = Execute(spec, job.plan, workload, cloud);

  Heading("Table 3: cluster schedule for the 20-minute ResNet-101 plan");
  std::printf("optimal static cluster: %d GPUs (%d instances), cost %s\n",
              fixed.plan.gpus(0), (fixed.plan.gpus(0) + 3) / 4,
              fixed.estimate.cost_mean.ToString().c_str());
  std::printf("RubberBand plan:        %s, predicted cost %s\n\n",
              job.plan.ToString().c_str(), job.estimate.cost_mean.ToString().c_str());

  std::printf("%-14s %8s %12s %14s\n", "Epoch range", "trials", "GPUs/trial", "Cluster size");
  for (const StageLogEntry& stage : report.stage_log) {
    std::printf("%4lld-%-9lld %8d %12d %14d\n",
                static_cast<long long>(stage.start_cum_iters),
                static_cast<long long>(stage.end_cum_iters), stage.num_trials,
                stage.gpus_per_trial, stage.instances);
  }
  std::printf("\nrealized: JCT %s, cost %s, best accuracy %.1f%%\n",
              FormatDuration(report.jct).c_str(), report.cost.Total().ToString().c_str(),
              100.0 * report.best_accuracy);
  return 0;
}
