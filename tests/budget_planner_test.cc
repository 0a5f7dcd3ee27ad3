// The dual planner: minimize JCT subject to a cost budget.

#include <gtest/gtest.h>

#include "src/planner/evaluator.h"
#include "src/spec/sha.h"

namespace rubberband {
namespace {

TEST(FairAllocation, NextHigherSteps) {
  EXPECT_EQ(NextHigherFairAllocation(0, 10), 1);
  EXPECT_EQ(NextHigherFairAllocation(1, 10), 2);
  EXPECT_EQ(NextHigherFairAllocation(2, 10), 5);
  EXPECT_EQ(NextHigherFairAllocation(5, 10), 10);
  EXPECT_EQ(NextHigherFairAllocation(10, 10), 20);
  EXPECT_EQ(NextHigherFairAllocation(25, 10), 30);  // snaps up to a multiple
  EXPECT_EQ(NextHigherFairAllocation(3, 7), 7);     // prime: divisors are 1, 7
}

PlannerInputs TestInputs() {
  PlannerInputs inputs;
  inputs.spec = MakeSha(8, 2, 14, 2);
  inputs.model.iter_latency_1gpu = Distribution::Constant(30.0);
  inputs.model.scaling = ScalingFunction::FromPoints({{1, 1.0}, {2, 1.8}, {4, 3.0}, {8, 4.0}});
  inputs.model.trial_startup_seconds = 2.0;
  inputs.model.sync_seconds = 1.0;
  inputs.cloud.instance = P3_8xlarge();
  inputs.cloud.provisioning = ProvisioningModel::Fixed(2.0, 5.0);
  return inputs;
}

TEST(BudgetPlanner, RespectsBudget) {
  PlanEvaluator evaluator(TestInputs(), {});
  for (double budget : {3.0, 5.0, 8.0, 15.0}) {
    const PlannedJob job = PlanGreedyMinTime(evaluator, Money::FromDollars(budget));
    if (job.feasible) {
      EXPECT_LE(job.estimate.cost_mean.dollars(), budget) << "budget " << budget;
    }
  }
}

TEST(BudgetPlanner, MoreBudgetNeverSlower) {
  PlanEvaluator evaluator(TestInputs(), {});
  double previous_jct = 0.0;
  bool have_previous = false;
  for (double budget : {3.0, 4.0, 6.0, 10.0, 20.0}) {
    const PlannedJob job = PlanGreedyMinTime(evaluator, Money::FromDollars(budget));
    if (!job.feasible) {
      continue;
    }
    if (have_previous) {
      EXPECT_LE(job.estimate.jct_mean, previous_jct + 1e-6) << "budget " << budget;
    }
    previous_jct = job.estimate.jct_mean;
    have_previous = true;
  }
  EXPECT_TRUE(have_previous);
}

TEST(BudgetPlanner, SpendsBudgetToGoFaster) {
  PlanEvaluator evaluator(TestInputs(), {});
  const PlannedJob tight = PlanGreedyMinTime(evaluator, Money::FromDollars(3.5));
  const PlannedJob loose = PlanGreedyMinTime(evaluator, Money::FromDollars(20.0));
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_LT(loose.estimate.jct_mean, tight.estimate.jct_mean);
  EXPECT_GE(loose.plan.MaxGpus(), tight.plan.MaxGpus());
}

TEST(BudgetPlanner, ImpossibleBudgetIsFlaggedInfeasible) {
  PlanEvaluator evaluator(TestInputs(), {});
  const PlannedJob job = PlanGreedyMinTime(evaluator, Money::FromCents(1));
  EXPECT_FALSE(job.feasible);
  EXPECT_GT(job.estimate.cost_mean.dollars(), 0.01);
}

TEST(BudgetPlanner, DualityWithCostPlanner) {
  // Plan for a deadline, then feed the resulting cost back as a budget: the
  // dual planner must achieve a JCT no worse than that deadline.
  PlannerInputs inputs = TestInputs();
  inputs.deadline = Minutes(20);
  PlanEvaluator evaluator(inputs, {});
  const PlannedJob cost_min = PlanGreedy(evaluator);
  ASSERT_TRUE(cost_min.feasible);
  const PlannedJob time_min = PlanGreedyMinTime(evaluator, cost_min.estimate.cost_mean);
  ASSERT_TRUE(time_min.feasible);
  EXPECT_LE(time_min.estimate.jct_mean, inputs.deadline + 1.0);
}

}  // namespace
}  // namespace rubberband
