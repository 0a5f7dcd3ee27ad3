// Figure 10: impact of data-I/O pricing on overall experiment cost, for a
// large dataset (ImageNet, ~150 GB/instance) and a small one (CIFAR-10,
// ~150 MB/instance).
//
// SHA(n=64, r=4, R=508), ResNet-50 batch 512, p3.8xlarge workers; each
// provisioned instance downloads the dataset once from external storage.
// Expected shape: with ImageNet, ingress dominates and the elastic
// advantage vanishes (but never inverts); with CIFAR-10, elastic keeps a
// healthy margin even at $0.16/GB.

#include "bench/bench_util.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(64, 4, 508, 2);
  const Seconds deadline = Minutes(15);
  const double prices_per_gb[] = {0.0, 0.01, 0.02, 0.04, 0.08, 0.16};

  for (const Dataset& dataset : {ImageNet(), Cifar10()}) {
    Heading("Figure 10 (" + dataset.name + ", " + std::to_string(dataset.size_gb) +
            " GB/instance): total cost vs data price");
    std::printf("%-12s %14s %14s %10s\n", "$/GB", "fixed-cluster", "elastic", "gain");
    for (double price : prices_per_gb) {
      const ModelProfile profile = ResNet50Profile(4.0, 2.0, dataset.size_gb);
      CloudProfile cloud = P38Cloud();
      cloud.pricing.data_price_per_gb = Money::FromDollars(price);

      PlanEvaluator evaluator({spec, profile, cloud, deadline}, {});
      const PlannedJob fixed = PlanStatic(evaluator);
      const PlannedJob elastic = PlanGreedy(evaluator);
      const double gain =
          fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars();
      std::printf("%-12.2f %14s %14s %9.2fx\n", price,
                  fixed.estimate.cost_mean.ToString().c_str(),
                  elastic.estimate.cost_mean.ToString().c_str(), gain);
    }
  }
  std::printf("\n(when ingress dominates spending, elastic reallocation cannot help --\n"
              " but it never does worse than the fixed cluster)\n");
  return 0;
}
