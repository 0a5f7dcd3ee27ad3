// Execution-DAG construction and Algorithm 1 simulation, verified against
// hand-computed critical paths and costs on deterministic profiles.

#include <gtest/gtest.h>

#include "src/dag/builder.h"
#include "src/dag/simulate.h"
#include "src/spec/sha.h"

namespace rubberband {
namespace {

// 10 s per iteration on one GPU, perfect halving at 2/4, startup 0, sync 0;
// everything constant so critical paths are exact.
ModelProfile DeterministicProfile() {
  ModelProfile profile;
  profile.iter_latency_1gpu = Distribution::Constant(10.0);
  profile.scaling = ScalingFunction::FromPoints({{1, 1.0}, {2, 2.0}, {4, 4.0}});
  return profile;
}

CloudProfile InstantCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();  // 4 GPUs
  cloud.provisioning = ProvisioningModel::Instant();
  return cloud;
}

int CountType(const ExecutionDag& dag, NodeType type) {
  int count = 0;
  for (int id = 0; id < dag.size(); ++id) {
    count += dag.type(id) == type ? 1 : 0;
  }
  return count;
}

TEST(GpusPerTrial, FairShareRules) {
  EXPECT_EQ(GpusPerTrial(8, 4), 2);
  EXPECT_EQ(GpusPerTrial(8, 8), 1);
  EXPECT_EQ(GpusPerTrial(4, 8), 1);   // queued: one GPU each
  EXPECT_EQ(GpusPerTrial(32, 1), 32);
  EXPECT_THROW(GpusPerTrial(0, 1), std::invalid_argument);
}

TEST(ColocatedCapacity, NodePackingArithmetic) {
  // 3-GPU gangs on 4-GPU nodes: one per node.
  EXPECT_EQ(ColocatedCapacity(10, 3, 8, 4), 8);
  // 2-GPU gangs: two per node.
  EXPECT_EQ(ColocatedCapacity(10, 2, 5, 4), 10);
  // Gangs bigger than a node are minimal-span by construction.
  EXPECT_EQ(ColocatedCapacity(3, 8, 6, 4), 3);
}

TEST(DagBuilder, ParallelStageShape) {
  ExperimentSpec spec;
  spec.AddStage(4, 6).AddStage(2, 12);
  const AllocationPlan plan({8, 4});
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), InstantCloud());

  // Stage 0: SCALE + 2 INIT (8 GPUs = 2 instances) + 4 TRAIN + SYNC.
  // Stage 1: no scale (shrinking) + 2 TRAIN + SYNC.
  EXPECT_EQ(CountType(dag, NodeType::kScale), 1);
  EXPECT_EQ(CountType(dag, NodeType::kInitInstance), 2);
  EXPECT_EQ(CountType(dag, NodeType::kTrain), 6);
  EXPECT_EQ(CountType(dag, NodeType::kSync), 2);

  ASSERT_EQ(dag.stages().size(), 2u);
  EXPECT_EQ(dag.stages()[0].instances, 2);
  EXPECT_EQ(dag.stages()[0].gpus_per_trial, 2);
  EXPECT_EQ(dag.stages()[1].instances, 1);
  EXPECT_EQ(dag.stages()[1].gpus_per_trial, 2);
  EXPECT_EQ(dag.TotalInstancesProvisioned(), 2);
}

TEST(DagBuilder, ScaleUpMidJobAddsNodes) {
  ExperimentSpec spec;
  spec.AddStage(2, 1).AddStage(1, 1);
  const AllocationPlan plan({2, 8});  // grows from 1 to 2 instances
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), InstantCloud());
  EXPECT_EQ(CountType(dag, NodeType::kScale), 2);
  EXPECT_EQ(CountType(dag, NodeType::kInitInstance), 2);  // 1 + 1
  EXPECT_EQ(dag.TotalInstancesProvisioned(), 2);
  // The second SCALE must depend on the first stage's SYNC.
  const int sync0 = dag.stages()[0].sync_node;
  const int scale1 = dag.stages()[1].scale_node;
  ASSERT_GE(scale1, 0);
  ASSERT_EQ(dag.deps(scale1).size(), 1u);
  EXPECT_EQ(dag.deps(scale1)[0], sync0);
}

TEST(DagBuilder, QueuedStageBuildsSerialChains) {
  ExperimentSpec spec;
  spec.AddStage(6, 5);
  const AllocationPlan plan({2});  // 2 GPU slots for 6 trials
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), InstantCloud());

  // 6 TRAIN nodes in 2 chains of 3.
  EXPECT_EQ(CountType(dag, NodeType::kTrain), 6);
  int chained = 0;
  for (int id = 0; id < dag.size(); ++id) {
    if (dag.type(id) == NodeType::kTrain) {
      EXPECT_EQ(dag.gpus(id), 1);
      for (int dep : dag.deps(id)) {
        chained += dag.type(dep) == NodeType::kTrain ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(chained, 4);  // 2 chain heads, 4 chained followers
}

TEST(DagBuilder, SingleGpuDegeneratesToFullSequence) {
  ExperimentSpec spec;
  spec.AddStage(4, 2);
  const AllocationPlan plan({1});
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), InstantCloud());
  const PlanEstimate estimate =
      SimulatePlan(dag, DeterministicProfile(), InstantCloud(), {1, 0});
  // 4 trials x 2 iters x 10 s, fully serial.
  EXPECT_NEAR(estimate.jct_mean, 80.0, 1e-9);
}

TEST(DagBuilder, SyncDependsOnWholeFrontier) {
  ExperimentSpec spec;
  spec.AddStage(3, 1);
  const AllocationPlan plan({3});
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), InstantCloud());
  const StageMeta& meta = dag.stages()[0];
  EXPECT_EQ(dag.deps(meta.sync_node).size(), 3u);
}

TEST(DagBuilder, FragmentedTrialsGetPenalizedLatency) {
  ModelProfile profile = DeterministicProfile();
  profile.cross_node_latency_factor = 2.0;
  ExperimentSpec spec;
  spec.AddStage(10, 1);
  const AllocationPlan plan({30});  // gpt=3 on 4-GPU nodes: 8 colocated, 2 split
  const ExecutionDag dag = BuildDag(spec, plan, profile, InstantCloud());
  EXPECT_EQ(dag.stages()[0].fragmented_trials, 2);
  const PlanEstimate estimate = SimulatePlan(dag, profile, InstantCloud(), {1, 0});
  // Critical path goes through a penalized trial: 10 s / speedup(3) * 2.
  const double expected = 10.0 / profile.scaling.Speedup(3) * 2.0;
  EXPECT_NEAR(estimate.jct_mean, expected, 1e-9);
}

TEST(DagBuilder, ValidatesInputs) {
  ExperimentSpec spec;
  spec.AddStage(2, 1);
  EXPECT_THROW(BuildDag(spec, AllocationPlan({2, 2}), DeterministicProfile(), InstantCloud()),
               std::invalid_argument);
  CloudProfile cpu_only = InstantCloud();
  cpu_only.instance = R5_4xlarge();
  EXPECT_THROW(BuildDag(spec, AllocationPlan({2}), DeterministicProfile(), cpu_only),
               std::invalid_argument);
}

TEST(DagSimulate, CriticalPathIncludesProvisioning) {
  CloudProfile cloud = InstantCloud();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  ExperimentSpec spec;
  spec.AddStage(2, 3);
  const AllocationPlan plan({2});
  const ExecutionDag dag = BuildDag(spec, plan, DeterministicProfile(), cloud);
  const PlanEstimate estimate = SimulatePlan(dag, DeterministicProfile(), cloud, {1, 0});
  // 15 s provisioning + 3 iters x 10 s (gpt=1).
  EXPECT_NEAR(estimate.jct_mean, 45.0, 1e-9);
}

TEST(DagSimulate, PerInstanceCostBillsStageSpans) {
  ExperimentSpec spec;
  spec.AddStage(4, 10).AddStage(1, 10);
  const AllocationPlan plan({4, 4});
  CloudProfile cloud = InstantCloud();
  cloud.pricing.minimum_billed_seconds = 0.0;
  const ModelProfile profile = DeterministicProfile();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  const PlanEstimate estimate = SimulatePlan(dag, profile, cloud, {1, 0});
  // Stage 0: 4 trials x 1 GPU x 100 s; stage 1: 1 trial x 4 GPUs x 25 s.
  EXPECT_NEAR(estimate.jct_mean, 125.0, 1e-9);
  // One instance alive for the full 125 s.
  const double expected_cost = 12.24 / 3600.0 * 125.0;
  EXPECT_NEAR(estimate.cost_mean.dollars(), expected_cost, 1e-6);
}

TEST(DagSimulate, PerInstanceReleasesInstancesOnScaleDown) {
  ExperimentSpec spec;
  spec.AddStage(8, 10).AddStage(1, 10);
  const AllocationPlan plan({8, 4});  // 2 instances then 1
  CloudProfile cloud = InstantCloud();
  cloud.pricing.minimum_billed_seconds = 0.0;
  const ModelProfile profile = DeterministicProfile();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  const PlanEstimate estimate = SimulatePlan(dag, profile, cloud, {1, 0});
  // Stage 0 is 100 s on 2 instances; stage 1 is 25 s on 1 instance.
  const double expected_cost = 12.24 / 3600.0 * (2 * 100.0 + 1 * 25.0);
  EXPECT_NEAR(estimate.cost_mean.dollars(), expected_cost, 1e-6);
}

TEST(DagSimulate, MinimumChargeAppliesPerAcquisition) {
  ExperimentSpec spec;
  spec.AddStage(4, 1);
  const AllocationPlan plan({4});
  CloudProfile cloud = InstantCloud();  // default 60 s minimum
  const ModelProfile profile = DeterministicProfile();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  const PlanEstimate estimate = SimulatePlan(dag, profile, cloud, {1, 0});
  EXPECT_NEAR(estimate.jct_mean, 10.0, 1e-9);
  // 10 s of use still bills 60 s.
  EXPECT_NEAR(estimate.cost_mean.dollars(), 12.24 / 3600.0 * 60.0, 1e-6);
}

TEST(DagSimulate, PerFunctionBillsOnlyTrainGpuSeconds) {
  ExperimentSpec spec;
  spec.AddStage(4, 10).AddStage(1, 10);
  const AllocationPlan plan({4, 4});
  CloudProfile cloud = InstantCloud();
  cloud.pricing.billing = BillingModel::kPerFunction;
  const ModelProfile profile = DeterministicProfile();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  const PlanEstimate estimate = SimulatePlan(dag, profile, cloud, {1, 0});
  // GPU-seconds: stage 0 = 4 x 1 x 100; stage 1 = 1 x 4 x 25. Rate =
  // 12.24 / (4 gpus x 3600).
  const double expected_cost = 12.24 / (4 * 3600.0) * (400.0 + 100.0);
  EXPECT_NEAR(estimate.cost_mean.dollars(), expected_cost, 1e-6);
}

TEST(DagSimulate, DataIngressChargedPerProvisionedInstance) {
  ModelProfile profile = DeterministicProfile();
  profile.dataset_gb = 150.0;
  CloudProfile cloud = InstantCloud();
  cloud.pricing.data_price_per_gb = Money::FromCents(1);
  ExperimentSpec spec;
  spec.AddStage(8, 1);
  const ExecutionDag dag = BuildDag(spec, AllocationPlan({8}), profile, cloud);
  const PlanEstimate estimate = SimulatePlan(dag, profile, cloud, {1, 0});
  EXPECT_NEAR(estimate.data_cost_mean.dollars(), 0.01 * 150.0 * 2, 1e-6);
}

TEST(DagSimulate, StragglersInflatePerInstanceButNotPerFunction) {
  // The Figure 9 mechanism: under per-instance billing every instance waits
  // for the slowest trial at the barrier; per-function releases resources
  // as each trial finishes.
  ModelProfile profile = DeterministicProfile();
  profile.iter_latency_1gpu = Distribution::TruncatedNormal(10.0, 8.0, 0.0);
  ExperimentSpec spec;
  spec.AddStage(16, 4);
  const AllocationPlan plan({16});
  CloudProfile per_instance = InstantCloud();
  per_instance.pricing.minimum_billed_seconds = 0.0;
  CloudProfile per_function = per_instance;
  per_function.pricing.billing = BillingModel::kPerFunction;

  const ExecutionDag dag = BuildDag(spec, plan, profile, per_instance);
  const PlanEstimate inst = SimulatePlan(dag, profile, per_instance, {200, 1});
  const PlanEstimate func = SimulatePlan(dag, profile, per_function, {200, 1});
  EXPECT_GT(inst.cost_mean.dollars(), 1.25 * func.cost_mean.dollars());
}

TEST(DagSimulate, SampleCountControlsEstimateStability) {
  ModelProfile profile = DeterministicProfile();
  profile.iter_latency_1gpu = Distribution::TruncatedNormal(10.0, 3.0, 0.0);
  ExperimentSpec spec;
  spec.AddStage(8, 8);
  const ExecutionDag dag = BuildDag(spec, AllocationPlan({8}), profile, InstantCloud());
  const PlanEstimate small = SimulatePlan(dag, profile, InstantCloud(), {5, 1});
  const PlanEstimate large = SimulatePlan(dag, profile, InstantCloud(), {500, 1});
  EXPECT_NEAR(small.jct_mean, large.jct_mean, 0.1 * large.jct_mean);
}

TEST(ExecutionDag, RejectsForwardDependencies) {
  ExecutionDag dag;
  const int forward[] = {5};
  NodeSpec node;
  node.deps = forward;
  EXPECT_THROW(dag.AddNode(node), std::logic_error);
  // The failed append must not leave a partial node behind.
  EXPECT_EQ(dag.size(), 0);
}

TEST(ExecutionDag, FrontierTracksSuccessorlessNodes) {
  ExecutionDag dag;
  const int a = dag.AddNode(NodeSpec{});
  const int first[] = {a};
  NodeSpec b;
  b.deps = first;
  const int b_id = dag.AddNode(b);
  EXPECT_EQ(dag.Frontier(), std::vector<int>{b_id});
}

TEST(ExecutionDag, ToStringListsNodes) {
  ExperimentSpec spec;
  spec.AddStage(2, 1);
  const ExecutionDag dag =
      BuildDag(spec, AllocationPlan({2}), DeterministicProfile(), InstantCloud());
  const std::string s = dag.ToString();
  EXPECT_NE(s.find("SCALE"), std::string::npos);
  EXPECT_NE(s.find("TRAIN"), std::string::npos);
  EXPECT_NE(s.find("SYNC"), std::string::npos);
}

}  // namespace
}  // namespace rubberband
