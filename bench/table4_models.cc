// Table 4: cost to complete the workload across deep learning models.
//
// Fixed-cluster vs RubberBand, end-to-end, for ResNet-101 on CIFAR-10
// (20-minute deadline), ResNet-152 on CIFAR-100 (1 hour) and BERT on RTE
// (20 minutes), 3 seeds each. Expected shape: RubberBand cheaper on every
// model; the margin depends on how each model's scaling saturates.

#include "bench/bench_util.h"
#include "src/common/stats.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  struct Case {
    WorkloadSpec workload;
    ExperimentSpec spec;
    double minutes;
  };
  const Case cases[] = {
      {ResNet101Cifar10(), MakeSha(32, 1, 50, 3), 20.0},
      {ResNet152Cifar100(), MakeSha(32, 1, 120, 3), 60.0},
      {BertRte(), MakeSha(32, 2, 40, 3), 20.0},
  };

  const CloudProfile cloud = P38Cloud(5.0, 10.0);

  Heading("Table 4: realized cost across models (fixed cluster vs RubberBand)");
  std::printf("%-22s %-9s %20s %20s %8s\n", "model", "time", "Fixed", "RubberBand", "gain");

  for (const Case& c : cases) {
    RunningStats fixed_cost;
    RunningStats elastic_cost;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ProfilerOptions profiler_options;
      profiler_options.seed = seed;
      const ModelProfile profile = ProfileWorkload(c.workload, profiler_options).profile;
      const PlannerInputs inputs{c.spec, profile, cloud, Minutes(c.minutes)};

      PlannerOptions planner_options;
      planner_options.seed = seed;
      PlanEvaluator evaluator(inputs, planner_options);
      const PlannedJob fixed = PlanStatic(evaluator);
      const PlannedJob elastic = PlanGreedy(evaluator);

      ExecutorOptions executor_options;
      executor_options.seed = seed;
      fixed_cost.Add(
          Execute(c.spec, fixed.plan, c.workload, cloud, executor_options).cost.Total().dollars());
      elastic_cost.Add(Execute(c.spec, elastic.plan, c.workload, cloud, executor_options)
                           .cost.Total()
                           .dollars());
    }
    std::printf("%-22s %-9s $%8.2f +/- %-5.2f $%8.2f +/- %-5.2f %7.2fx\n",
                c.workload.name.c_str(), FormatDuration(Minutes(c.minutes)).c_str(),
                fixed_cost.mean(), fixed_cost.stddev(), elastic_cost.mean(),
                elastic_cost.stddev(), fixed_cost.mean() / elastic_cost.mean());
  }
  return 0;
}
