// What-if analysis: how would this tuning job's cost change under
// serverless-style per-function billing, with pricier data ingress, or on a
// bigger instance type?
//
// The paper treats billing granularity, data price and instance choice as
// model parameters (section 4.1) precisely so questions like these can be
// answered before spending a dollar. This example prices one workload under
// six cloud configurations.

#include <cstdio>

#include "src/rubberband.h"

namespace {

struct Scenario {
  const char* name;
  rubberband::CloudProfile cloud;
};

}  // namespace

int main() {
  using namespace rubberband;

  const ExperimentSpec spec = MakeSha(64, 4, 508, 2);
  WorkloadSpec workload = ResNet50(Cifar10(), 512);
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const Seconds deadline = Minutes(15);

  CloudProfile base;
  base.instance = P3_8xlarge();
  base.provisioning = ProvisioningModel::Fixed(5.0, 10.0);

  CloudProfile serverless = base;
  serverless.pricing.billing = BillingModel::kPerFunction;
  serverless.pricing.minimum_billed_seconds = 0.0;
  serverless.provisioning = ProvisioningModel::Fixed(1.0, 1.0);

  CloudProfile pricey_data = base;
  pricey_data.pricing.data_price_per_gb = Money::FromCents(16);

  CloudProfile big_nodes = base;
  big_nodes.instance = P3_16xlarge();

  CloudProfile small_nodes = base;
  small_nodes.instance = P3_2xlarge();

  CloudProfile slow_provisioning = base;
  slow_provisioning.provisioning = ProvisioningModel::Fixed(30.0, 120.0);

  const Scenario scenarios[] = {
      {"on-demand p3.8xlarge (baseline)", base},
      {"per-function billing", serverless},
      {"$0.16/GB data ingress", pricey_data},
      {"p3.16xlarge (8 GPUs/node)", big_nodes},
      {"p3.2xlarge (1 GPU/node)", small_nodes},
      {"cold provisioning (150 s)", slow_provisioning},
  };

  std::printf("%-34s %12s %12s %10s\n", "scenario", "static $", "elastic $", "gain");
  for (const Scenario& scenario : scenarios) {
    PlanEvaluator evaluator({spec, profile, scenario.cloud, deadline}, {});
    const PlannedJob fixed = PlanStatic(evaluator);
    const PlannedJob elastic = PlanGreedy(evaluator);
    const double gain =
        fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars();
    std::printf("%-34s %12s %12s %9.2fx%s\n", scenario.name,
                fixed.estimate.cost_mean.ToString().c_str(),
                elastic.estimate.cost_mean.ToString().c_str(), gain,
                elastic.feasible ? "" : "  (infeasible)");
  }

  std::printf("\nNotes: per-function billing removes straggler-idle cost entirely;\n"
              "high ingress prices penalize wide (many-instance) plans; slow\n"
              "provisioning discourages mid-job scale-up.\n");
  return 0;
}
