#include "src/planner/evaluator.h"

#include <gtest/gtest.h>

#include "src/spec/sha.h"
#include "src/trainer/model_zoo.h"

namespace rubberband {
namespace {

TEST(AllocationPlan, BasicsAndValidation) {
  AllocationPlan plan({8, 4, 2});
  EXPECT_EQ(plan.num_stages(), 3);
  EXPECT_EQ(plan.gpus(1), 4);
  EXPECT_EQ(plan.MaxGpus(), 8);
  EXPECT_FALSE(plan.IsStatic());
  EXPECT_TRUE(AllocationPlan::Uniform(3, 4).IsStatic());
  EXPECT_EQ(plan.ToString(), "[8, 4, 2]");
  EXPECT_THROW(plan.Validate(2), std::invalid_argument);
  EXPECT_THROW(AllocationPlan({0}).Validate(1), std::invalid_argument);
  plan.Validate(3);
}

TEST(FairAllocation, NextLowerSteps) {
  // Multiples of the trial count step down by whole trial-counts.
  EXPECT_EQ(NextLowerFairAllocation(32, 8), 24);
  EXPECT_EQ(NextLowerFairAllocation(16, 8), 8);
  // At the trial count, fall to the largest proper divisor.
  EXPECT_EQ(NextLowerFairAllocation(8, 8), 4);
  EXPECT_EQ(NextLowerFairAllocation(10, 10), 5);
  // Below the trial count: next lower divisor.
  EXPECT_EQ(NextLowerFairAllocation(5, 10), 2);
  EXPECT_EQ(NextLowerFairAllocation(2, 10), 1);
  // 1 GPU is the floor.
  EXPECT_EQ(NextLowerFairAllocation(1, 10), 0);
  // Unaligned values snap to the next lower multiple.
  EXPECT_EQ(NextLowerFairAllocation(30, 8), 24);
}

TEST(FairAllocation, RoundUpAndFloor) {
  EXPECT_EQ(RoundUpToFairAllocation(5, 10), 5);
  EXPECT_EQ(RoundUpToFairAllocation(6, 10), 10);
  EXPECT_EQ(RoundUpToFairAllocation(11, 10), 20);
  EXPECT_EQ(RoundUpToFairAllocation(0, 10), 1);
  EXPECT_EQ(FairFloorAllocation(6, 10), 5);
  EXPECT_EQ(FairFloorAllocation(19, 10), 10);
  EXPECT_EQ(FairFloorAllocation(25, 10), 20);
  EXPECT_EQ(FairFloorAllocation(0, 10), 0);
}

TEST(FairAllocation, SingleTrialStage) {
  // With one trial every positive GPU count is a multiple of the trial
  // count, so the fair lattice is just the integers.
  EXPECT_EQ(NextLowerFairAllocation(5, 1), 4);
  EXPECT_EQ(NextLowerFairAllocation(2, 1), 1);
  EXPECT_EQ(NextLowerFairAllocation(1, 1), 0);
  EXPECT_EQ(RoundUpToFairAllocation(3, 1), 3);
  EXPECT_EQ(RoundUpToFairAllocation(0, 1), 1);
  EXPECT_EQ(FairFloorAllocation(3, 1), 3);
  EXPECT_EQ(FairFloorAllocation(0, 1), 0);
  EXPECT_EQ(NextHigherFairAllocation(3, 1), 4);
}

TEST(FairAllocation, PrimeTrialCountHasOnlyTrivialDivisors) {
  // 13 trials: below the trial count only 1 is fair; above it, multiples.
  EXPECT_EQ(NextLowerFairAllocation(13, 13), 1);
  EXPECT_EQ(NextLowerFairAllocation(26, 13), 13);
  EXPECT_EQ(RoundUpToFairAllocation(2, 13), 13);
  EXPECT_EQ(RoundUpToFairAllocation(5, 13), 13);
  EXPECT_EQ(RoundUpToFairAllocation(14, 13), 26);
  EXPECT_EQ(FairFloorAllocation(12, 13), 1);
  EXPECT_EQ(FairFloorAllocation(13, 13), 13);
  EXPECT_EQ(NextHigherFairAllocation(1, 13), 13);
  EXPECT_EQ(NextHigherFairAllocation(13, 13), 26);
}

// Every fair value divides or is divided by the trial count.
class FairStepProperty : public ::testing::TestWithParam<int> {};

TEST_P(FairStepProperty, ChainReachesOneAndStaysFair) {
  const int trials = GetParam();
  int current = trials * 7;
  int steps = 0;
  while (current > 1) {
    const int next = NextLowerFairAllocation(current, trials);
    ASSERT_GT(next, 0);
    ASSERT_LT(next, current);
    EXPECT_TRUE(next % trials == 0 || trials % next == 0)
        << "next=" << next << " trials=" << trials;
    current = next;
    ASSERT_LT(++steps, 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(TrialCounts, FairStepProperty,
                         ::testing::Values(1, 2, 3, 7, 10, 12, 32, 100, 512));

PlannerInputs TestInputs(Seconds deadline) {
  PlannerInputs inputs;
  inputs.spec = MakeSha(8, 2, 14, 2);
  inputs.model.iter_latency_1gpu = Distribution::Constant(30.0);
  inputs.model.scaling = ScalingFunction::FromPoints({{1, 1.0}, {2, 1.8}, {4, 3.0}, {8, 4.0}});
  inputs.model.trial_startup_seconds = 2.0;
  inputs.model.sync_seconds = 1.0;
  inputs.cloud.instance = P3_8xlarge();
  inputs.cloud.provisioning = ProvisioningModel::Fixed(2.0, 5.0);
  inputs.deadline = deadline;
  return inputs;
}

TEST(StaticPlanner, FindsCheapestFeasibleCluster) {
  const PlannerInputs inputs = TestInputs(Minutes(30));
  PlanEvaluator evaluator(inputs, {});
  const PlannedJob job = PlanStatic(evaluator);
  ASSERT_TRUE(job.feasible);
  EXPECT_TRUE(job.plan.IsStatic());
  EXPECT_LE(job.estimate.jct_mean, inputs.deadline);

  // Brute-force verification over the same candidate space: no static size
  // from 1..32 beats the chosen one.
  for (int gpus = 1; gpus <= 32; ++gpus) {
    const PlanEstimate other =
        evaluator.Evaluate(AllocationPlan::Uniform(inputs.spec.num_stages(), gpus));
    if (other.MeetsDeadline(inputs.deadline)) {
      EXPECT_GE(other.cost_mean, job.estimate.cost_mean) << "gpus=" << gpus;
    }
  }
}

TEST(StaticPlanner, InfeasibleDeadlineReturnsFastest) {
  PlanEvaluator evaluator(TestInputs(1.0), {});
  const PlannedJob job = PlanStatic(evaluator);
  EXPECT_FALSE(job.feasible);
  EXPECT_GT(job.estimate.jct_mean, 1.0);
}

TEST(GreedyPlanner, NeverWorseThanStatic) {
  for (double minutes : {10.0, 15.0, 20.0, 30.0, 60.0}) {
    const PlannerInputs inputs = TestInputs(Minutes(minutes));
    PlanEvaluator evaluator(inputs, {});
    const PlannedJob fixed = PlanStatic(evaluator);
    const PlannedJob elastic = PlanGreedy(evaluator);
    if (!fixed.feasible) {
      continue;
    }
    ASSERT_TRUE(elastic.feasible) << minutes;
    EXPECT_LE(elastic.estimate.cost_mean.dollars(), fixed.estimate.cost_mean.dollars() + 1e-6)
        << "deadline " << minutes << " min";
    EXPECT_LE(elastic.estimate.jct_mean, inputs.deadline);
  }
}

TEST(GreedyPlanner, LooseDeadlineStillNeverWorseThanStatic) {
  // Regression: warm starts are rounded *up* to per-stage fair allocations
  // (e.g. 4 GPUs -> 5 for a 10-trial stage), so with a loose deadline the
  // greedy descent could terminate above the raw static optimum unless the
  // static plan stays in the candidate set.
  PlannerInputs inputs;
  inputs.spec = MakeSha(32, 1, 50, 3);  // stages of 32, 10, 3, 1 trials
  inputs.model.iter_latency_1gpu = Distribution::TruncatedNormal(88.0, 8.0, 0.0);
  inputs.model.scaling =
      ScalingFunction::FromPoints({{1, 1.0}, {2, 1.8}, {4, 3.2}, {8, 5.4}, {16, 5.6}});
  inputs.model.trial_startup_seconds = 15.0;
  inputs.model.sync_seconds = 5.0;
  inputs.cloud.instance = P3_8xlarge();
  inputs.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  inputs.deadline = Minutes(60);

  PlanEvaluator evaluator(inputs, {});
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob elastic = PlanGreedy(evaluator);
  ASSERT_TRUE(fixed.feasible);
  ASSERT_TRUE(elastic.feasible);
  EXPECT_LE(elastic.estimate.cost_mean.dollars(), fixed.estimate.cost_mean.dollars() + 1e-9);
}

TEST(GreedyPlanner, FrontLoadsUnderSublinearScaling) {
  PlanEvaluator evaluator(TestInputs(Minutes(25)), {});
  const PlannedJob job = PlanGreedy(evaluator);
  ASSERT_TRUE(job.feasible);
  // Early stages (many trials, efficient) should get at least as many GPUs
  // as the final stage (one trial, inefficient at scale).
  EXPECT_GE(job.plan.gpus(0), job.plan.gpus(job.plan.num_stages() - 1));
}

TEST(GreedyPlanner, InfeasibleDeadlinePropagates) {
  PlanEvaluator evaluator(TestInputs(1.0), {});
  const PlannedJob job = PlanGreedy(evaluator);
  EXPECT_FALSE(job.feasible);
}

TEST(GreedyPlanner, TighterDeadlineNeverCheaper) {
  PlanEvaluator evaluator(TestInputs(Minutes(12)), {});
  const PlannedJob tight = PlanGreedy(evaluator);
  evaluator.set_deadline(Minutes(40));
  const PlannedJob loose = PlanGreedy(evaluator);
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_GE(tight.estimate.cost_mean.dollars(), loose.estimate.cost_mean.dollars() - 1e-6);
}

TEST(NaiveElastic, ConstantGpusPerTrialShape) {
  const PlannerInputs inputs = TestInputs(Minutes(30));
  PlanEvaluator evaluator(inputs, {});
  const PlannedJob job = PlanNaiveElastic(evaluator);
  ASSERT_TRUE(job.feasible);
  const auto& spec = inputs.spec;
  const int t = job.plan.gpus(0) / spec.stage(0).num_trials;
  EXPECT_GE(t, 1);
  for (int i = 0; i < spec.num_stages(); ++i) {
    EXPECT_EQ(job.plan.gpus(i), t * spec.stage(i).num_trials) << "stage " << i;
  }
}

TEST(NaiveElastic, NeverBeatsRubberBand) {
  for (double minutes : {15.0, 20.0, 30.0}) {
    PlanEvaluator evaluator(TestInputs(Minutes(minutes)), {});
    const PlannedJob naive = PlanNaiveElastic(evaluator);
    const PlannedJob elastic = PlanGreedy(evaluator);
    if (naive.feasible && elastic.feasible) {
      EXPECT_GE(naive.estimate.cost_mean.dollars(),
                elastic.estimate.cost_mean.dollars() - 1e-6)
          << minutes;
    }
  }
}

TEST(Planner, MultiWarmStartCanBeatSingleWarmStart) {
  // With only the 1x warm start the plan can never allocate more than the
  // static optimum to any stage; multi-warm-starting explores wider early
  // stages (the Table 3 plan exceeds the static size in stage 0).
  PlannerInputs inputs = TestInputs(Minutes(15));
  PlannerOptions single;
  single.warm_start_multipliers = {1.0};
  PlannerOptions multi;  // default {1, 2, 3}
  PlanEvaluator narrow_evaluator(inputs, single);
  PlanEvaluator wide_evaluator(inputs, multi);
  const PlannedJob narrow = PlanGreedy(narrow_evaluator);
  const PlannedJob wide = PlanGreedy(wide_evaluator);
  if (narrow.feasible && wide.feasible) {
    EXPECT_LE(wide.estimate.cost_mean.dollars(), narrow.estimate.cost_mean.dollars() + 1e-6);
  }
}

TEST(Planner, EstimateIsDeterministicForFixedSeed) {
  const PlannerInputs inputs = TestInputs(Minutes(30));
  PlannerOptions options;
  const AllocationPlan plan = AllocationPlan::Uniform(inputs.spec.num_stages(), 8);
  // Two evaluators, so the second estimate is recomputed, not a memo hit.
  const PlanEstimate a = PlanEvaluator(inputs, options).Evaluate(plan);
  const PlanEstimate b = PlanEvaluator(inputs, options).Evaluate(plan);
  EXPECT_DOUBLE_EQ(a.jct_mean, b.jct_mean);
  EXPECT_EQ(a.cost_mean, b.cost_mean);
}

}  // namespace
}  // namespace rubberband
