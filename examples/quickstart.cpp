// Quickstart: tune ResNet-101 on CIFAR-10 under a 20-minute deadline.
//
// Walks the complete RubberBand workflow from the paper's Figure 6:
//  1. declare a Successive Halving experiment,
//  2. profile the model's training latency and scaling,
//  3. compile a cost-minimizing elastic allocation plan,
//  4. execute it on the (simulated) cloud,
// and compares against the cost-optimal static cluster.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  // 1. Experiment: SHA with 32 trials, eta = 3, up to 50 epochs (Table 2).
  const ExperimentSpec spec = MakeSha(/*num_trials=*/32, /*min_iters=*/1,
                                      /*max_iters=*/50, /*reduction_factor=*/3);
  std::printf("Experiment: %s\n", spec.ToString().c_str());

  // 2. Profile the workload (measures iteration latency at 1,2,4,... GPUs).
  const WorkloadSpec workload = ResNet101Cifar10();
  const ProfileResult profiled = ProfileWorkload(workload);
  std::printf("Profiling took %s of simulated GPU time\n",
              FormatDuration(profiled.profiling_seconds).c_str());

  // 3. Plan: p3.8xlarge on-demand workers, 15 s provisioning (warm pool).
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  const Seconds deadline = Minutes(20);

  // One evaluator scores both planners' candidates; plans it has already
  // simulated are memo hits for the second search.
  PlanEvaluator evaluator({spec, profiled.profile, cloud, deadline}, {});
  const PlannedJob rubberband = PlanGreedy(evaluator);
  const PlannedJob fixed = PlanStatic(evaluator);

  std::printf("\n%-12s %-28s %10s %10s\n", "planner", "plan (GPUs per stage)", "JCT", "cost");
  for (const PlannedJob* job : {&fixed, &rubberband}) {
    std::printf("%-12s %-28s %10s %10s\n", job->planner.c_str(), job->plan.ToString().c_str(),
                FormatDuration(job->estimate.jct_mean).c_str(),
                job->estimate.cost_mean.ToString().c_str());
  }

  // 4. Execute the elastic plan end-to-end.
  const ExecutionReport report = Execute(spec, rubberband.plan, workload, cloud);
  std::printf("\nExecuted: JCT %s, cost %s, best config %s, accuracy %.1f%%\n",
              FormatDuration(report.jct).c_str(), report.cost.Total().ToString().c_str(),
              report.best_config.ToString().c_str(), 100.0 * report.best_accuracy);
  std::printf("\nCluster schedule (cf. paper Table 3):\n");
  std::printf("%-12s %8s %10s %14s\n", "epoch range", "trials", "GPUs/trial", "cluster size");
  for (const StageLogEntry& stage : report.stage_log) {
    std::printf("%4lld-%-7lld %8d %10d %14d\n",
                static_cast<long long>(stage.start_cum_iters),
                static_cast<long long>(stage.end_cum_iters), stage.num_trials,
                stage.gpus_per_trial, stage.instances);
  }
  return 0;
}
