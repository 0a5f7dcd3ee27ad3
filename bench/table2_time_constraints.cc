// Table 2: cost to complete the workload across various time constraints.
//
// End-to-end benchmark tuning ResNet-101 on CIFAR-10 (batch 1024) with
// SHA(n=32, r=1, R=50, eta=3) on an elastic cluster of on-demand
// p3.8xlarge instances, ~15 s combined provisioning latency (warm pool).
// For each deadline in {20, 30, 40} minutes and each policy in {static,
// naive-elastic, RubberBand}: simulated JCT and cost (planner's
// prediction) and realized JCT, cost and accuracy from end-to-end
// execution, across 3 seeds.
//
// Expected shape: RubberBand's advantage over the fixed cluster is largest
// at the 20-minute deadline (~2x) and fades by 40 minutes; naive elastic
// never beats RubberBand; realized numbers track simulated ones closely;
// accuracy is statistically indistinguishable across policies.

#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = P38Cloud(5.0, 10.0);

  struct Policy {
    const char* name;
    PlannedJob (*plan)(PlanEvaluator&);
  };
  const Policy policies[] = {{"Static", &PlanStatic},
                             {"Naive elastic", &PlanNaiveElastic},
                             {"RubberBand", &PlanGreedy}};

  Heading("Table 2: cost to complete workload across time constraints "
          "(ResNet-101/CIFAR-10, SHA(32,1,50,eta=3), p3.8xlarge)");
  std::printf("%-14s %-5s %16s %18s %16s %18s %14s\n", "policy", "max", "JCT (sim)",
              "Cost (sim)", "JCT (real)", "Cost (real)", "Acc (%)");

  for (int minutes : {20, 30, 40}) {
    const Seconds deadline = Minutes(minutes);
    for (const Policy& policy : policies) {
      RunningStats jct_sim;
      RunningStats cost_sim;
      RunningStats jct_real;
      RunningStats cost_real;
      RunningStats accuracy;
      bool feasible = true;

      for (uint64_t seed = 1; seed <= 3; ++seed) {
        ProfilerOptions profiler_options;
        profiler_options.seed = seed;
        const ModelProfile profile = ProfileWorkload(workload, profiler_options).profile;

        PlannerOptions planner_options;
        planner_options.seed = seed;
        PlanEvaluator evaluator({spec, profile, cloud, deadline}, planner_options);
        const PlannedJob job = policy.plan(evaluator);
        feasible = feasible && job.feasible;
        jct_sim.Add(job.estimate.jct_mean);
        cost_sim.Add(job.estimate.cost_mean.dollars());

        ExecutorOptions executor_options;
        executor_options.seed = seed;
        const ExecutionReport report = Execute(spec, job.plan, workload, cloud, executor_options);
        jct_real.Add(report.jct);
        cost_real.Add(report.cost.Total().dollars());
        accuracy.Add(100.0 * report.best_accuracy);
      }

      std::printf("%-14s %-5d %7s +/- %-5s $%6.2f +/- %-5.2f %7s +/- %-5s "
                  "$%6.2f +/- %-5.2f %5.1f +/- %-4.1f%s\n",
                  policy.name, minutes, FormatDuration(jct_sim.mean()).c_str(),
                  FormatDuration(jct_sim.stddev()).c_str(), cost_sim.mean(), cost_sim.stddev(),
                  FormatDuration(jct_real.mean()).c_str(),
                  FormatDuration(jct_real.stddev()).c_str(), cost_real.mean(),
                  cost_real.stddev(), accuracy.mean(), accuracy.stddev(),
                  feasible ? "" : "  (infeasible)");
    }
    std::printf("\n");
  }
  return 0;
}
