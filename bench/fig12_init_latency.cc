// Figure 12: simulated cost of executing SHA on 512 ResNet-50 models over
// p3.8xlarge instances, with static and elastic policies, across instance
// initialization latencies of 1 s / 10 s / 100 s and time constraints from
// 90 to 160 minutes.
//
// SHA(n=512, r=4, R=4096), batch 2048, mean per-iteration latency 12 s.
// Expected shape: the elastic advantage is largest at the tightest
// constraints and shrinks as initialization latency grows (scaling up
// mid-job stops being worth its overhead).

#include "bench/bench_util.h"

int main() {
  using namespace rubberband;
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(512, 4, 4096, 2);

  for (double init_latency : {1.0, 10.0, 100.0}) {
    Heading("Figure 12 (" + std::to_string(static_cast<int>(init_latency)) +
            " s init latency): cost vs time constraint");
    std::printf("%-18s %14s %14s %10s\n", "constraint (min)", "fixed-cluster", "elastic", "gain");
    for (int minutes = 90; minutes <= 160; minutes += 10) {
      // Batch 2048 keeps 32 samples per GPU even at 64 workers, so this
      // workload scales much further than the batch-512 profile before
      // hitting the communication wall.
      ModelProfile profile = ResNet50Profile(12.0, 1.2);
      profile.scaling = ScalingFunction::FromPoints({{1, 1.0},
                                                     {2, 1.9},
                                                     {4, 3.6},
                                                     {8, 6.8},
                                                     {16, 12.0},
                                                     {32, 16.0},
                                                     {64, 17.0},
                                                     {128, 17.5}});
      const CloudProfile cloud = P38Cloud(5.0, init_latency);
      const Seconds deadline = Minutes(minutes);

      PlannerOptions options;
      options.sim_samples = 5;  // large DAG; keep the sweep brisk
      PlanEvaluator evaluator({spec, profile, cloud, deadline}, options);
      const PlannedJob fixed = PlanStatic(evaluator);
      const PlannedJob elastic = PlanGreedy(evaluator);
      const double gain =
          fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars();
      std::printf("%-18d %14s %14s %9.2fx%s\n", minutes,
                  fixed.estimate.cost_mean.ToString().c_str(),
                  elastic.estimate.cost_mean.ToString().c_str(), gain,
                  fixed.feasible ? "" : "  (static infeasible)");
    }
  }
  return 0;
}
