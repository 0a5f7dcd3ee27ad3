// Time-minimizing planner under a cost budget — the dual of Algorithm 2.
//
// The cost-minimizing planner descends from a fast warm start, shedding
// allocation where it buys the most cost per second given up. This planner
// ascends from the *cheapest* plan, adding allocation where it buys the
// most time per dollar spent, until the budget is exhausted or extra GPUs
// stop helping (the scaling plateau).
//
// Like the descent planner, every estimate flows through a PlanEvaluator:
// each ascent iteration batch-evaluates its candidates and selects in
// generation order, so results are identical serial or parallel.

#include <algorithm>
#include <limits>
#include <utility>

#include "src/planner/evaluator.h"
#include "src/planner/planner.h"

namespace rubberband {
namespace {

struct Evaluated {
  AllocationPlan plan;
  PlanEstimate estimate;
};

// Cheapest static allocation ignoring any deadline (the ascent's floor).
Evaluated CheapestStatic(PlanEvaluator& evaluator) {
  const PlannerInputs& inputs = evaluator.inputs();
  const PlannerOptions& options = evaluator.options();
  std::vector<AllocationPlan> plans;
  for (int gpus = 1; gpus <= std::min(64, options.max_total_gpus); ++gpus) {
    plans.push_back(AllocationPlan::Uniform(inputs.spec.num_stages(), gpus));
  }
  const std::vector<PlanEstimate> estimates = evaluator.EvaluateBatch(plans);

  Evaluated best;
  bool have = false;
  for (size_t i = 0; i < plans.size(); ++i) {
    const PlanEstimate& estimate = estimates[i];
    if (!have || estimate.cost_mean < best.estimate.cost_mean ||
        (estimate.cost_mean == best.estimate.cost_mean &&
         estimate.jct_mean < best.estimate.jct_mean)) {
      best = Evaluated{plans[i], estimate};
      have = true;
    }
  }
  return best;
}

}  // namespace

PlannedJob PlanGreedyMinTime(PlanEvaluator& evaluator, Money budget) {
  const PlannerInputs& inputs = evaluator.inputs();
  const PlannerOptions& options = evaluator.options();
  inputs.spec.Validate();

  PlannedJob result;
  result.planner = "rubberband-min-time";

  Evaluated current = CheapestStatic(evaluator);
  if (current.estimate.cost_mean > budget) {
    // Even the cheapest plan busts the budget: best effort, flagged.
    result.plan = current.plan;
    result.estimate = current.estimate;
    result.feasible = false;
    return result;
  }

  constexpr int kMaxIterations = 10'000;
  const int gpg = inputs.cloud.gpus_per_instance();
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    std::vector<AllocationPlan> candidates;
    for (int i = 0; i < inputs.spec.num_stages(); ++i) {
      const int trials = inputs.spec.stage(i).num_trials;
      const int cur = current.plan.gpus(i);
      std::vector<int> steps;
      const int fair_step = NextHigherFairAllocation(cur, trials);
      const int cap = std::min(trials * kMaxGpusPerTrial, options.max_total_gpus);
      if (fair_step <= cap) {
        steps.push_back(fair_step);
      }
      // Instance-aligned step: jump to the smallest fair allocation that
      // engages one more instance (crosses flat per-instance cost regions).
      const int cur_instances = (cur + gpg - 1) / gpg;
      const int aligned = RoundUpToFairAllocation(cur_instances * gpg + 1, trials);
      if (aligned > cur && aligned <= cap && aligned != fair_step) {
        steps.push_back(aligned);
      }

      for (int higher : steps) {
        AllocationPlan candidate = current.plan;
        candidate.gpus(i) = higher;
        candidates.push_back(std::move(candidate));
      }
    }
    const std::vector<PlanEstimate> estimates = evaluator.EvaluateBatch(candidates);

    size_t best_index = 0;
    double best_marginal = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const PlanEstimate& estimate = estimates[c];
      if (estimate.cost_mean > budget) {
        continue;
      }
      const double time_saved = current.estimate.jct_mean - estimate.jct_mean;
      if (time_saved <= 0.0) {
        continue;
      }
      const double cost_added =
          estimate.cost_mean.dollars() - current.estimate.cost_mean.dollars();
      // A candidate that is faster *and* no more expensive dominates.
      const double marginal = cost_added <= 0.0 ? std::numeric_limits<double>::infinity()
                                                : time_saved / cost_added;
      if (!found || marginal > best_marginal) {
        best_index = c;
        best_marginal = marginal;
        found = true;
      }
    }

    if (!found) {
      break;
    }
    current = Evaluated{std::move(candidates[best_index]), estimates[best_index]};
  }

  result.plan = std::move(current.plan);
  result.estimate = current.estimate;
  result.feasible = true;
  return result;
}

}  // namespace rubberband
