// Cross-module property tests over randomly generated (fair) allocation
// plans: the offline model and the online executor must agree, and cost
// structure invariants must hold regardless of the plan.

#include <gtest/gtest.h>

#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile TestCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

// A random plan whose every stage allocation is fair (factor or multiple of
// the stage's trial count), bounded to keep runtimes sane.
AllocationPlan RandomFairPlan(const ExperimentSpec& spec, Rng& rng) {
  std::vector<int> gpus;
  for (const Stage& stage : spec.stages()) {
    const int raw = static_cast<int>(rng.UniformInt(1, 4 * stage.num_trials));
    gpus.push_back(RoundUpToFairAllocation(raw, stage.num_trials));
  }
  return AllocationPlan(std::move(gpus));
}

class PlanProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  static ExperimentSpec Spec() { return MakeSha(8, 2, 14, 2); }
};

TEST_P(PlanProperties, SimulationPredictsExecutionForArbitraryPlans) {
  Rng rng(GetParam());
  const ExperimentSpec spec = Spec();
  const WorkloadSpec workload = ResNet101Cifar10();
  const ModelProfile profile = ProfileWorkload(workload).profile;
  const AllocationPlan plan = RandomFairPlan(spec, rng);

  PlannerOptions planner_options;
  planner_options.sim_samples = 50;
  const PlanEstimate estimate =
      PlanEvaluator({spec, profile, TestCloud(), Hours(10)}, planner_options).Evaluate(plan);

  ExecutorOptions executor_options;
  executor_options.seed = GetParam();
  const ExecutionReport report = ExecutePlan(spec, plan, workload, TestCloud(), executor_options);

  EXPECT_NEAR(report.jct, estimate.jct_mean, 0.25 * estimate.jct_mean)
      << "plan " << plan.ToString();
  EXPECT_NEAR(report.cost.Total().dollars(), estimate.cost_mean.dollars(),
              0.25 * estimate.cost_mean.dollars())
      << "plan " << plan.ToString();
}

TEST_P(PlanProperties, PerInstanceNeverCheaperThanPerFunction) {
  // Per-instance billing charges for everything per-function charges for
  // (busy GPUs), plus idle capacity and minimum charges.
  Rng rng(GetParam() ^ 0xBEEF);
  const ExperimentSpec spec = Spec();
  const ModelProfile profile = ProfileWorkload(ResNet101Cifar10()).profile;
  const AllocationPlan plan = RandomFairPlan(spec, rng);

  CloudProfile per_instance = TestCloud();
  CloudProfile per_function = TestCloud();
  per_function.pricing.billing = BillingModel::kPerFunction;

  PlannerOptions options;
  const PlanEstimate inst =
      PlanEvaluator({spec, profile, per_instance, Hours(10)}, options).Evaluate(plan);
  const PlanEstimate func =
      PlanEvaluator({spec, profile, per_function, Hours(10)}, options).Evaluate(plan);
  EXPECT_GE(inst.cost_mean.dollars(), func.cost_mean.dollars() - 1e-9)
      << "plan " << plan.ToString();
}

TEST_P(PlanProperties, PerFunctionCostBoundedBelowByTotalWork) {
  // Sub-linear scaling means g GPUs never deliver more than g times the
  // single-GPU throughput, so the busy GPU-seconds of any plan are at least
  // the spec's total work at single-GPU latency.
  Rng rng(GetParam() ^ 0xF00D);
  const ExperimentSpec spec = Spec();
  const ModelProfile profile = ProfileWorkload(ResNet101Cifar10()).profile;
  const AllocationPlan plan = RandomFairPlan(spec, rng);

  CloudProfile per_function = TestCloud();
  per_function.pricing.billing = BillingModel::kPerFunction;
  PlannerOptions options;
  const PlanEstimate estimate =
      PlanEvaluator({spec, profile, per_function, Hours(10)}, options).Evaluate(plan);

  const double min_gpu_seconds =
      static_cast<double>(spec.TotalWork()) * profile.iter_latency_1gpu.Mean();
  const double min_cost =
      per_function.instance.GpuSecondPrice().dollars() * min_gpu_seconds;
  EXPECT_GE(estimate.cost_mean.dollars(), 0.95 * min_cost) << "plan " << plan.ToString();
}

TEST_P(PlanProperties, ExecutorConservesTrials) {
  // Every trial either survives to the end or is terminated at exactly one
  // barrier; counts must reconcile with the spec.
  Rng rng(GetParam() ^ 0xCAFE);
  const ExperimentSpec spec = Spec();
  const AllocationPlan plan = RandomFairPlan(spec, rng);
  ExecutorOptions options;
  options.seed = GetParam();
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), TestCloud(), options);

  int expected_runs = 0;
  for (const Stage& stage : spec.stages()) {
    expected_runs += stage.num_trials;
  }
  EXPECT_EQ(report.trace.OfType(TraceEventType::kTrialComplete).size(),
            static_cast<size_t>(expected_runs));
  // Terminations happen at intermediate barriers only; the final stage's
  // runners-up are not "terminated", the best is simply selected.
  EXPECT_EQ(report.trace.OfType(TraceEventType::kTrialTerminated).size(),
            static_cast<size_t>(spec.stage(0).num_trials - spec.stages().back().num_trials));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperties, ::testing::Range<uint64_t>(0, 8));

// Straggler-detector properties over seeded random workloads: soundness
// (identically distributed instances are never flagged, whatever the noise)
// and completeness (a persistent straggler well past the threshold is
// always flagged, within a bounded number of syncs).

class StragglerDetectorProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StragglerDetectorProperties, NeverFlagsIdenticallyDistributedInstances) {
  Rng rng(GetParam() ^ 0x57A66);
  StragglerDetector detector(StragglerDetectorConfig{});
  const int instances = 4 + static_cast<int>(rng.UniformInt(0, 4));  // 4..8
  for (int sync = 0; sync < 300; ++sync) {
    for (InstanceId id = 0; id < instances; ++id) {
      // Same noisy distribution for everyone: latency ~ max(N(1, 0.15), 0.5).
      const double latency = std::max(0.5, rng.Normal(1.0, 0.15));
      EXPECT_FALSE(detector.Observe(id, latency))
          << "flagged instance " << id << " at sync " << sync << " (seed " << GetParam() << ")";
    }
  }
  EXPECT_EQ(detector.num_flagged(), 0);
}

TEST_P(StragglerDetectorProperties, AlwaysFlagsAPersistentStragglerPromptly) {
  Rng rng(GetParam() ^ 0xFA57);
  StragglerDetectorConfig config;
  config.min_observations = 3;
  StragglerDetector detector(config);
  const int instances = 4 + static_cast<int>(rng.UniformInt(0, 4));
  const InstanceId straggler = static_cast<InstanceId>(rng.UniformInt(0, instances - 1));
  // 2x the threshold over the healthy mean: factor 3 vs threshold 1.5.
  const double factor = 3.0;
  int flagged_at = 0;
  for (int sync = 1; sync <= 40 && flagged_at == 0; ++sync) {
    for (InstanceId id = 0; id < instances; ++id) {
      const double noise = std::max(0.5, rng.Normal(1.0, 0.1));
      const bool crossed = detector.Observe(id, id == straggler ? noise * factor : noise);
      if (crossed) {
        EXPECT_EQ(id, straggler) << "flagged a healthy instance (seed " << GetParam() << ")";
        flagged_at = sync;
      }
    }
  }
  ASSERT_GT(flagged_at, 0) << "straggler never flagged (seed " << GetParam() << ")";
  // Detection latency is bounded: hysteresis needs k syncs over threshold,
  // and the EWMA (seeded with the first observation, alpha 0.3) of a 3x
  // signal sits over 1.5x baseline from sync one — so k + 2 covers it.
  EXPECT_LE(flagged_at, StragglerDetector::kConsecutiveSyncs + 2)
      << "detection latency too high (seed " << GetParam() << ")";
  EXPECT_EQ(detector.num_flagged(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StragglerDetectorProperties, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace rubberband
