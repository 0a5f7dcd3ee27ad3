// Figure 11: simulated cost of executing the SHA workload while increasing
// the number of trials, under (a) pay-per-instance and (b) pay-per-function
// billing.
//
// SHA(n=k, r=4, R=508), ResNet-50 batch 512 on p3.8xlarge, 12-minute time
// constraint. Expected shape: elastic always at or below the fixed-cluster
// baseline, with the gap widening as the trial count (and therefore the
// early-stage parallelism the static cluster must provision for) grows.

#include "bench/bench_util.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const Seconds deadline = Minutes(12);
  const int trial_counts[] = {16, 32, 64, 128, 256};

  for (BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
    Heading("Figure 11 (" + ToString(billing) + "): cost vs number of trials");
    std::printf("%-10s %14s %14s %10s\n", "trials", "fixed-cluster", "elastic", "gain");
    for (int k : trial_counts) {
      const ExperimentSpec spec = MakeSha(k, 4, 508, 2);
      const ModelProfile profile = ResNet50Profile(4.0, 2.0);
      CloudProfile cloud = P38Cloud();
      cloud.pricing.billing = billing;

      PlannerOptions options;
      options.sim_samples = 10;
      PlanEvaluator evaluator({spec, profile, cloud, deadline}, options);
      const PlannedJob fixed = PlanStatic(evaluator);
      const PlannedJob elastic = PlanGreedy(evaluator);
      const double gain =
          fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars();
      std::printf("%-10d %14s %14s %9.2fx%s\n", k, fixed.estimate.cost_mean.ToString().c_str(),
                  elastic.estimate.cost_mean.ToString().c_str(), gain,
                  fixed.feasible ? "" : "  (deadline infeasible for static)");
    }
  }
  return 0;
}
