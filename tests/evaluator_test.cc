// Equivalence and instrumentation tests for the planning path: the
// stage-incremental PlanEvaluator must be bit-identical to the full-DAG
// reference (SimulatePlan over BuildDag), serial or parallel, and its
// caches must be observable.

#include "src/planner/evaluator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "src/common/thread_pool.h"
#include "src/dag/builder.h"
#include "src/spec/sha.h"
#include "src/trainer/model_zoo.h"

namespace rubberband {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int sum = 0;
  pool.ParallelFor(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.ParallelFor(batch, [&](int) { ++total; });
  }
  EXPECT_EQ(total.load(), 49 * 50 / 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](int i) {
                                  if (i == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](int) { ++count; });
  EXPECT_EQ(count.load(), 16);
}

PlannerInputs TestInputs(Seconds deadline, BillingModel billing = BillingModel::kPerInstance) {
  PlannerInputs inputs;
  inputs.spec = MakeSha(8, 2, 14, 2);
  inputs.model.iter_latency_1gpu = Distribution::TruncatedNormal(30.0, 3.0, 0.0);
  inputs.model.scaling = ScalingFunction::FromPoints({{1, 1.0}, {2, 1.8}, {4, 3.0}, {8, 4.0}});
  inputs.model.trial_startup_seconds = 2.0;
  inputs.model.sync_seconds = 1.0;
  inputs.cloud.instance = P3_8xlarge();
  inputs.cloud.provisioning = ProvisioningModel::Fixed(2.0, 5.0);
  inputs.cloud.pricing.billing = billing;
  inputs.deadline = deadline;
  return inputs;
}

void ExpectSameEstimate(const PlanEstimate& a, const PlanEstimate& b) {
  EXPECT_EQ(a.jct_mean, b.jct_mean);
  EXPECT_EQ(a.jct_stddev, b.jct_stddev);
  EXPECT_EQ(a.cost_mean, b.cost_mean);
  EXPECT_EQ(a.compute_cost_mean, b.compute_cost_mean);
  EXPECT_EQ(a.data_cost_mean, b.data_cost_mean);
  EXPECT_EQ(a.cost_stddev_dollars, b.cost_stddev_dollars);
}

// The reference is SimulatePlan over a freshly built DAG: every sample
// re-drawn for every stage from fresh keyed streams, where the evaluator
// replays this thread's recorded streams. One evaluator scores all six
// plans, so later plans compose cached stages from earlier ones.
TEST(PlanEvaluator, IncrementalMatchesFreshBitForBit) {
  for (BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
    const PlannerInputs inputs = TestInputs(Minutes(30), billing);
    const PlannerOptions options;
    PlanEvaluator incremental(inputs, options);

    const int n = inputs.spec.num_stages();
    std::vector<AllocationPlan> plans = {
        AllocationPlan::Uniform(n, 1),  AllocationPlan::Uniform(n, 8),
        AllocationPlan::Uniform(n, 16), AllocationPlan({16, 8, 4}),
        AllocationPlan({8, 8, 2}),      AllocationPlan({2, 4, 8}),
    };
    for (const AllocationPlan& plan : plans) {
      ASSERT_EQ(plan.num_stages(), n);
      SCOPED_TRACE(plan.ToString());
      const ExecutionDag dag = BuildDag(inputs.spec, plan, inputs.model, inputs.cloud);
      const PlanEstimate reference =
          SimulatePlan(dag, inputs.model, inputs.cloud, {options.sim_samples, options.seed});
      ExpectSameEstimate(incremental.Evaluate(plan), reference);
    }
  }
}

// The same identity over the paths the default inputs miss. One evaluator
// scores every plan with one composer per plan, so per-instance plans that
// shrink and then grow, under a minimum charge longer than any stage and
// an ingress charge per provisioned instance, check that each sample
// starts from an empty plan. A truncated normal whose mean is its
// truncation point rejects half its draws; lognormal, exponential, uniform
// and empirical latencies sample out of line.
TEST(PlanEvaluator, IncrementalMatchesFreshOnEveryDistributionPath) {
  struct Case {
    const char* name;
    Distribution queuing;
    Distribution init;
    bool empirical_iter_latency;
  };
  const Case cases[] = {
      {"truncated at mean / lognormal", Distribution::TruncatedNormal(20.0, 8.0, 20.0),
       Distribution::LogNormal(std::log(40.0), 0.5), false},
      {"exponential / truncated at mean", Distribution::Exponential(15.0),
       Distribution::TruncatedNormal(60.0, 20.0, 60.0), true},
      {"uniform / exponential", Distribution::Uniform(5.0, 25.0), Distribution::Exponential(45.0),
       true},
  };
  for (const Case& c : cases) {
    for (BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
      SCOPED_TRACE(c.name);
      PlannerInputs inputs = TestInputs(Minutes(30), billing);
      inputs.cloud.provisioning = ProvisioningModel{c.queuing, c.init};
      inputs.cloud.pricing.minimum_billed_seconds = 1e5;
      // Ingress is charged per instance provisioned, so a sample that
      // inherited the last one's instance count would cost more.
      inputs.cloud.pricing.data_price_per_gb = Money::FromCents(9);
      inputs.model.dataset_gb = 12.5;
      if (c.empirical_iter_latency) {
        // What the profiler produces: a bag of observed iteration latencies.
        inputs.model.iter_latency_1gpu = Distribution::Empirical({27.5, 29.0, 30.0, 31.5, 36.0});
      }
      const PlannerOptions options;
      PlanEvaluator incremental(inputs, options);
      const std::vector<AllocationPlan> plans = {
          AllocationPlan({16, 4, 16}), AllocationPlan({8, 4, 8}), AllocationPlan({16, 4, 8}),
          AllocationPlan({4, 8, 16}),  AllocationPlan({16, 8, 4}), AllocationPlan({8, 2, 16}),
      };
      for (const AllocationPlan& plan : plans) {
        SCOPED_TRACE(plan.ToString());
        const ExecutionDag dag = BuildDag(inputs.spec, plan, inputs.model, inputs.cloud);
        const PlanEstimate reference =
            SimulatePlan(dag, inputs.model, inputs.cloud, {options.sim_samples, options.seed});
        ExpectSameEstimate(incremental.Evaluate(plan), reference);
      }
    }
  }
}

using PlannerFn = PlannedJob (*)(PlanEvaluator&);

void ExpectSamePlannedJob(const PlannedJob& a, const PlannedJob& b) {
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.planner, b.planner);
  ExpectSameEstimate(a.estimate, b.estimate);
}

TEST(PlanEvaluator, PlannersIdenticalSerialAndParallel) {
  const PlannerFn planners[] = {&PlanStatic, &PlanNaiveElastic, &PlanGreedy};
  for (BillingModel billing : {BillingModel::kPerInstance, BillingModel::kPerFunction}) {
    for (double minutes : {12.0, 30.0}) {
      const PlannerInputs inputs = TestInputs(Minutes(minutes), billing);
      for (PlannerFn planner : planners) {
        PlannerOptions parallel_options;
        parallel_options.eval_threads = 4;

        PlanEvaluator serial(inputs, PlannerOptions{});
        PlanEvaluator parallel(inputs, parallel_options);

        const PlannedJob from_serial = planner(serial);
        const PlannedJob from_parallel = planner(parallel);
        SCOPED_TRACE(from_serial.planner + " @ " + std::to_string(minutes) + " min");
        ExpectSamePlannedJob(from_serial, from_parallel);
      }
    }
  }
}

TEST(PlanEvaluator, MinTimePlannerIdenticalAcrossModes) {
  const PlannerInputs inputs = TestInputs(0.0);
  const Money budget = Money::FromDollars(100.0);
  PlannerOptions parallel_options;
  parallel_options.eval_threads = 4;

  PlanEvaluator serial(inputs, PlannerOptions{});
  PlanEvaluator parallel(inputs, parallel_options);
  ExpectSamePlannedJob(PlanGreedyMinTime(serial, budget), PlanGreedyMinTime(parallel, budget));
}

TEST(PlanEvaluator, PlanMemoAndStageCacheAreObservable) {
  const PlannerInputs inputs = TestInputs(Minutes(30));
  PlanEvaluator evaluator(inputs, PlannerOptions{});
  const int n = inputs.spec.num_stages();

  const AllocationPlan plan = AllocationPlan::Uniform(n, 8);
  evaluator.Evaluate(plan);
  EXPECT_EQ(evaluator.stats().plan_evaluations, 1);
  EXPECT_EQ(evaluator.stats().stage_evaluations, n);

  // Identical plan: pure memo hit, no stage work.
  evaluator.Evaluate(plan);
  EXPECT_EQ(evaluator.stats().plan_memo_hits, 1);
  EXPECT_EQ(evaluator.stats().stage_evaluations, n);

  // Changing only the last stage re-simulates exactly one stage; the
  // prefix (same gpus, same instance chain) is served from the cache.
  AllocationPlan tweaked = plan;
  tweaked.gpus(n - 1) = 4;
  evaluator.Evaluate(tweaked);
  const PlannerCacheStats stats = evaluator.stats();
  EXPECT_EQ(stats.plan_evaluations, 2);
  EXPECT_EQ(stats.stage_evaluations, n + 1);
  EXPECT_EQ(stats.stage_cache_hits, n - 1);
  EXPECT_DOUBLE_EQ(stats.PlanHitRate(), 1.0 / 3.0);
}

TEST(PlanEvaluator, SetDeadlinePreservesCaches) {
  const PlannerInputs inputs = TestInputs(Minutes(30));
  PlanEvaluator evaluator(inputs, PlannerOptions{});
  const AllocationPlan plan = AllocationPlan::Uniform(inputs.spec.num_stages(), 8);

  const PlanEstimate before = evaluator.Evaluate(plan);
  evaluator.set_deadline(Minutes(10));
  EXPECT_EQ(evaluator.inputs().deadline, Minutes(10));
  const PlanEstimate after = evaluator.Evaluate(plan);

  ExpectSameEstimate(before, after);
  EXPECT_EQ(evaluator.stats().plan_evaluations, 1);
  EXPECT_EQ(evaluator.stats().plan_memo_hits, 1);
}

TEST(PlanEvaluator, DuplicateWarmStartsAreSkipped) {
  // Multipliers {2, 2, 2} round to one distinct warm start; the dedup makes
  // the search do exactly the work of {2} — observable through the cache
  // counters — while returning the same plan.
  const PlannerInputs inputs = TestInputs(Minutes(20));
  PlannerOptions duplicated;
  duplicated.warm_start_multipliers = {2.0, 2.0, 2.0};
  PlannerOptions single;
  single.warm_start_multipliers = {2.0};

  PlanEvaluator dup_eval(inputs, duplicated);
  PlanEvaluator single_eval(inputs, single);
  const PlannedJob dup_job = PlanGreedy(dup_eval);
  const PlannedJob single_job = PlanGreedy(single_eval);

  ExpectSamePlannedJob(dup_job, single_job);
  EXPECT_EQ(dup_eval.stats().plan_evaluations, single_eval.stats().plan_evaluations);
  EXPECT_EQ(dup_eval.stats().plan_memo_hits, single_eval.stats().plan_memo_hits);
}

TEST(PlanEvaluator, StatsAggregate) {
  PlannerCacheStats a;
  a.plan_evaluations = 3;
  a.plan_memo_hits = 1;
  PlannerCacheStats b;
  b.plan_evaluations = 1;
  b.plan_memo_hits = 3;
  b.stage_evaluations = 2;
  a += b;
  EXPECT_EQ(a.plan_evaluations, 4);
  EXPECT_EQ(a.plan_memo_hits, 4);
  EXPECT_EQ(a.stage_evaluations, 2);
  EXPECT_DOUBLE_EQ(a.PlanHitRate(), 0.5);
  EXPECT_DOUBLE_EQ(PlannerCacheStats{}.PlanHitRate(), 0.0);
}

}  // namespace
}  // namespace rubberband
