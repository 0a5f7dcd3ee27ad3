// Figure 1: elastic hyperparameter search — a static allocation vs an
// elastic allocation of the same tuning job, as GPUs-over-time charts.
//
// The paper's motivating picture: in the static panel the surviving trial
// is eventually handed the entire cluster "despite needing fewer resources
// to complete training within constraints"; the elastic panel front-loads
// capacity and sheds it as trials are terminated.

#include "bench/bench_util.h"
#include "src/planner/render.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const CloudProfile cloud = P38Cloud(5.0, 10.0);
  const Seconds deadline = Minutes(20);

  PlanEvaluator evaluator({spec, profile, cloud, deadline}, {});
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob elastic = PlanGreedy(evaluator);

  Heading("Figure 1: static vs elastic allocation (GPUs over time, 20-min deadline)");
  std::printf("%s", RenderComparison(spec, fixed.plan, elastic.plan, profile, cloud).c_str());
  std::printf("\nstatic cost %s vs elastic cost %s (%.2fx)\n",
              fixed.estimate.cost_mean.ToString().c_str(),
              elastic.estimate.cost_mean.ToString().c_str(),
              fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars());
  return 0;
}
