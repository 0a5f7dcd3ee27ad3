// Exploring the cost/deadline trade-off before committing to a constraint.
//
// Because RubberBand plans offline against a simulator, a practitioner can
// sweep candidate deadlines in milliseconds of CPU time and pick the knee of
// the cost curve — tightening the deadline past the knee buys little time at
// a steep price, while relaxing beyond it saves almost nothing.

#include <cstdio>

#include "src/rubberband.h"

int main() {
  using namespace rubberband;

  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const ModelProfile profile = ProfileWorkload(ResNet101Cifar10()).profile;
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);

  std::printf("%-12s %12s %12s %14s %14s\n", "deadline", "static $", "elastic $",
              "elastic JCT", "elastic plan");
  // Estimates do not depend on the deadline: one evaluator serves the
  // whole sweep, re-aimed at each deadline.
  PlanEvaluator evaluator({spec, profile, cloud, Minutes(16)}, {});
  for (int minutes = 16; minutes <= 60; minutes += 4) {
    evaluator.set_deadline(Minutes(minutes));
    const PlannedJob fixed = PlanStatic(evaluator);
    const PlannedJob elastic = PlanGreedy(evaluator);
    if (!elastic.feasible) {
      std::printf("%-12d %12s %12s %14s %14s\n", minutes, "-", "-", "infeasible", "-");
      continue;
    }
    std::printf("%-12d %12s %12s %14s  %s\n", minutes,
                fixed.feasible ? fixed.estimate.cost_mean.ToString().c_str() : "-",
                elastic.estimate.cost_mean.ToString().c_str(),
                FormatDuration(elastic.estimate.jct_mean).c_str(),
                elastic.plan.ToString().c_str());
  }

  std::printf("\nReading the sweep: the cheapest achievable cost flattens once the\n"
              "deadline stops forcing extra parallelism; pick the knee.\n");
  return 0;
}
