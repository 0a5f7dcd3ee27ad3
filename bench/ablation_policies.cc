// Ablation: runtime resource policies on the same workload (DESIGN.md's
// design-choice ablations; paper sections 2.1 and 3.2).
//
// Three ways to run the Table 2 job's 20-minute configuration:
//   static              fixed cluster, freed GPUs idle until the barrier
//   static+reallocate   fixed cluster, freed GPUs immediately handed to the
//                       running trials (HyperSched-style)
//   rubberband          elastic plan, freed capacity deprovisioned
// Expected shape: reallocation buys a little JCT over plain static at the
// same cost (sub-linear scaling caps the gain, and each resize pays gang
// startup again); the elastic plan matches JCT at a much lower cost and a
// much higher realized utilization.

#include "bench/bench_util.h"
#include "src/common/stats.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = P38Cloud(5.0, 10.0);
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const Seconds deadline = Minutes(20);

  PlanEvaluator evaluator({spec, profile, cloud, deadline}, {});
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob elastic = PlanGreedy(evaluator);

  struct Row {
    const char* name;
    AllocationPlan plan;
    bool reallocate;
  };
  const Row rows[] = {
      {"static (idle freed GPUs)", fixed.plan, false},
      {"static + reallocate-all", fixed.plan, true},
      {"rubberband (elastic)", elastic.plan, false},
  };

  Heading("Ablation: runtime policy for freed resources (20-min ResNet-101 job)");
  std::printf("%-28s %10s %10s %14s\n", "policy", "JCT", "cost", "utilization");
  for (const Row& row : rows) {
    RunningStats jct;
    RunningStats cost;
    RunningStats utilization;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ExecutorOptions options;
      options.seed = seed;
      options.reallocate_freed_resources = row.reallocate;
      const ExecutionReport report = Execute(spec, row.plan, workload, cloud, options);
      jct.Add(report.jct);
      cost.Add(report.cost.Total().dollars());
      utilization.Add(report.realized_utilization);
    }
    std::printf("%-28s %10s $%8.2f %13.0f%%\n", row.name, FormatDuration(jct.mean()).c_str(),
                cost.mean(), 100.0 * utilization.mean());
  }
  return 0;
}
