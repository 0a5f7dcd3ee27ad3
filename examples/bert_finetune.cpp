// Fine-tuning BERT on RTE under a deadline — the paper's NLP workload
// (Table 4).
//
// BERT is the worst scaler in the zoo (heavy all-reduce traffic), so its
// cost-optimal plans look different from the ResNet ones: the planner keeps
// per-trial allocations small and leans on stage-level parallelism instead.
// This example also shows how to inspect the compiled plan before paying
// for it.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  const ExperimentSpec spec = MakeSha(/*num_trials=*/32, /*min_iters=*/2,
                                      /*max_iters=*/40, /*reduction_factor=*/3);
  const WorkloadSpec workload = BertRte();
  const ModelProfile profile = ProfileWorkload(workload).profile;

  std::printf("BERT/RTE scaling (profiled): ");
  for (int gpus : {1, 2, 4, 8, 16}) {
    std::printf("%d->%.2fx  ", gpus, profile.scaling.Speedup(gpus));
  }
  std::printf("\n");

  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);

  const Seconds deadline = Minutes(20);
  PlanEvaluator evaluator({spec, profile, cloud, deadline}, {});
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob job = PlanGreedy(evaluator);

  std::printf("\nfixed cluster:  %s  cost %s  JCT %s\n", fixed.plan.ToString().c_str(),
              fixed.estimate.cost_mean.ToString().c_str(),
              FormatDuration(fixed.estimate.jct_mean).c_str());
  std::printf("RubberBand:     %s  cost %s  JCT %s\n", job.plan.ToString().c_str(),
              job.estimate.cost_mean.ToString().c_str(),
              FormatDuration(job.estimate.jct_mean).c_str());

  // Inspect before executing: per-stage efficiency of the chosen plan.
  std::printf("\nstage  trials  GPUs  GPUs/trial  parallel-efficiency\n");
  for (int i = 0; i < spec.num_stages(); ++i) {
    const int gpt = GpusPerTrial(job.plan.gpus(i), spec.stage(i).num_trials);
    std::printf("%5d  %6d  %4d  %10d  %18.0f%%\n", i, spec.stage(i).num_trials,
                job.plan.gpus(i), gpt, 100.0 * profile.scaling.Efficiency(gpt));
  }

  const ExecutionReport report = Execute(spec, job.plan, workload, cloud);
  std::printf("\nexecuted: JCT %s (deadline %s), cost %s, RTE accuracy %.1f%%\n",
              FormatDuration(report.jct).c_str(), FormatDuration(deadline).c_str(),
              report.cost.Total().ToString().c_str(), 100.0 * report.best_accuracy);
  std::printf("winning config: %s\n", report.best_config.ToString().c_str());
  return 0;
}
