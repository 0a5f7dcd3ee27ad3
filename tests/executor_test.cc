#include "src/executor/executor.h"

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/executor/scheduler.h"
#include "src/executor/trial.h"
#include "src/spec/sha.h"

namespace rubberband {
namespace {

CloudProfile FastCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

TEST(StageSchedule, ParallelWhenGpusCoverTrials) {
  const StageSchedule schedule = BuildStageSchedule({0, 1, 2, 3}, 8);
  EXPECT_EQ(schedule.gpus_per_trial, 2);
  EXPECT_EQ(schedule.running.size(), 4u);
  EXPECT_TRUE(schedule.queued.empty());
}

TEST(StageSchedule, QueuesWhenGpusShort) {
  const StageSchedule schedule = BuildStageSchedule({0, 1, 2, 3, 4}, 2);
  EXPECT_EQ(schedule.gpus_per_trial, 1);
  EXPECT_EQ(schedule.running.size(), 2u);
  EXPECT_EQ(schedule.queued.size(), 3u);
  EXPECT_THROW(BuildStageSchedule({}, 2), std::invalid_argument);
}

TEST(Trial, LifecycleStates) {
  SearchSpace space;
  Rng rng(1);
  Trial trial(0, ResNet101Cifar10(), space.Sample(rng), 1);
  EXPECT_EQ(trial.state(), TrialState::kPending);
  trial.set_state(TrialState::kRunning);
  EXPECT_EQ(ToString(trial.state()), "RUNNING");
  trial.AssignStageWork(3);
  trial.CompleteIteration();
  EXPECT_EQ(trial.remaining_iters(), 2);
  EXPECT_THROW(trial.RestoreFromCheckpoint(), std::logic_error);
  trial.SaveCheckpoint();
  EXPECT_TRUE(trial.has_checkpoint());
  trial.RestoreFromCheckpoint();
}

TEST(Executor, RunsSpecToCompletion) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  const ExecutionReport report = ExecutePlan(spec, plan, workload, FastCloud());

  ASSERT_EQ(report.stage_log.size(), 3u);
  EXPECT_EQ(report.stage_log[0].num_trials, 8);
  EXPECT_EQ(report.stage_log[1].num_trials, 4);
  EXPECT_EQ(report.stage_log[2].num_trials, 2);
  EXPECT_GT(report.jct, 0.0);
  EXPECT_GT(report.best_accuracy, 0.0);
  // Stage boundaries are ordered and the job ends after the last stage.
  for (size_t i = 0; i < report.stage_log.size(); ++i) {
    EXPECT_LT(report.stage_log[i].start, report.stage_log[i].end);
    if (i > 0) {
      EXPECT_GE(report.stage_log[i].start, report.stage_log[i - 1].end);
    }
  }
  EXPECT_GE(report.jct, report.stage_log.back().end);
}

TEST(Executor, EpochRangesMatchSpecCumulativeIters) {
  const ExperimentSpec spec = MakeSha(32, 1, 50, 3);
  const AllocationPlan plan({32, 20, 12, 8});
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud());
  ASSERT_EQ(report.stage_log.size(), 4u);
  EXPECT_EQ(report.stage_log[0].start_cum_iters, 0);
  EXPECT_EQ(report.stage_log[0].end_cum_iters, 1);
  EXPECT_EQ(report.stage_log[1].end_cum_iters, 4);
  EXPECT_EQ(report.stage_log[2].end_cum_iters, 13);
  EXPECT_EQ(report.stage_log[3].end_cum_iters, 50);
}

TEST(Executor, ElasticPlanShrinksCluster) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({16, 8, 4});
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud());
  EXPECT_EQ(report.stage_log[0].instances, 4);
  EXPECT_EQ(report.stage_log[1].instances, 2);
  EXPECT_EQ(report.stage_log[2].instances, 1);
}

TEST(Executor, QueuedStageStillCompletesAllWork) {
  const ExperimentSpec spec = MakeSha(8, 1, 1, 8);  // single stage, 8 trials
  const AllocationPlan plan({2});                   // only 2 GPU slots
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud());
  EXPECT_EQ(report.stage_log[0].gpus_per_trial, 1);
  // 8 trials through 2 slots: at least 4 serial rounds of (startup + epoch).
  const WorkloadSpec workload = ResNet101Cifar10();
  EXPECT_GT(report.jct, 4.0 * workload.base_iter_seconds * 0.5);
}

TEST(Executor, CostUsesPerInstanceLedger) {
  const ExperimentSpec spec = MakeSha(4, 2, 6, 2);
  const AllocationPlan plan({4, 4});
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud());
  EXPECT_GT(report.cost.compute.dollars(), 0.0);
  EXPECT_EQ(report.cost.data, Money());  // data price defaults to zero
  // Rough cross-check: one instance for the whole job.
  const double expected = 12.24 / 3600.0 * report.jct;
  EXPECT_NEAR(report.cost.Total().dollars(), expected, 0.15 * expected);
}

TEST(Executor, PerFunctionBillingIsCheaperUnderStragglers) {
  const ExperimentSpec spec = MakeSha(16, 4, 28, 2);
  const AllocationPlan plan({16, 16, 16});
  CloudProfile per_instance = FastCloud();
  CloudProfile per_function = FastCloud();
  per_function.pricing.billing = BillingModel::kPerFunction;

  const ExecutionReport inst =
      ExecutePlan(spec, plan, ResNet101Cifar10(), per_instance);
  const ExecutionReport func =
      ExecutePlan(spec, plan, ResNet101Cifar10(), per_function);
  EXPECT_LT(func.cost.Total().dollars(), inst.cost.Total().dollars());
}

TEST(Executor, BetterConfigsWinUnderFullSha) {
  // With 16 configs and enough training, the surviving config should be
  // among the better half by latent quality.
  const ExperimentSpec spec = MakeSha(16, 2, 30, 2);
  const AllocationPlan plan = AllocationPlan::Uniform(spec.num_stages(), 16);
  ExecutorOptions options;
  options.seed = 3;
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), options);
  EXPECT_GT(report.best_config.quality, 0.3);
  EXPECT_GT(report.best_accuracy, 0.75);
}

TEST(Executor, DeterministicForFixedSeed) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions options;
  options.seed = 11;
  const ExecutionReport a = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), options);
  const ExecutionReport b = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), options);
  EXPECT_DOUBLE_EQ(a.jct, b.jct);
  EXPECT_EQ(a.cost.Total(), b.cost.Total());
  EXPECT_EQ(a.best_config.id, b.best_config.id);
}

TEST(Executor, SeedsChangeOutcomes) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions a_options;
  a_options.seed = 1;
  ExecutorOptions b_options;
  b_options.seed = 2;
  const ExecutionReport a = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), a_options);
  const ExecutionReport b = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), b_options);
  EXPECT_NE(a.jct, b.jct);
}

TEST(Executor, ThroughputRecordingCollectsPerTrialSamples) {
  const ExperimentSpec spec = MakeSha(4, 2, 6, 2);
  const AllocationPlan plan({8, 8});
  ExecutorOptions options;
  options.record_throughput = true;
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), options);
  // 4 trials in stage 0 + 2 in stage 1.
  EXPECT_EQ(report.trial_throughputs.size(), 6u);
  for (double tput : report.trial_throughputs) {
    EXPECT_GT(tput, 0.0);
  }
}

TEST(Executor, ScatterPlacementDegradesThroughput) {
  // Table 1's ablation mechanism: locality-unaware placement splits gangs
  // across nodes and the cross-node penalty cuts throughput.
  const ExperimentSpec spec = MakeSha(4, 1, 3, 2);
  const AllocationPlan plan({16, 16});  // 4-GPU gangs on 4-GPU nodes
  ExecutorOptions packed;
  packed.record_throughput = true;
  ExecutorOptions scattered;
  scattered.record_throughput = true;
  scattered.placement = PlacementStrategy::kScatter;

  const ExecutionReport a = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), packed);
  const ExecutionReport b = ExecutePlan(spec, plan, ResNet101Cifar10(), FastCloud(), scattered);
  EXPECT_GT(Mean(a.trial_throughputs), 1.8 * Mean(b.trial_throughputs));
}

TEST(Executor, RejectsMismatchedPlan) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  EXPECT_THROW(ExecutePlan(spec, AllocationPlan({8}), ResNet101Cifar10(), FastCloud()),
               std::invalid_argument);
}

}  // namespace
}  // namespace rubberband
