// Cost-optimal static allocation (paper section 3.2).
//
// The naive fixed-cluster policy: provision the smallest (cheapest) static
// cluster whose expected JCT fits the constraint. The search space is one-
// dimensional, so candidate sizes are enumerated and evaluated with the
// simulator. This is both the paper's main baseline and the warm start for
// Algorithm 2.

#include <algorithm>
#include <set>

#include "src/planner/evaluator.h"
#include "src/planner/planner.h"

namespace rubberband {
namespace {

// Candidate static cluster sizes: every size up to a small bound (dense
// coverage of the cheap region), the divisors of the initial trial count
// (fair-share sweet spots), and its multiples (parallel headroom).
std::set<int> StaticCandidates(const ExperimentSpec& spec, const PlannerOptions& options) {
  const int initial_trials = spec.stage(0).num_trials;
  const int cap =
      std::min(options.max_total_gpus,
               std::max(initial_trials * kMaxGpusPerTrial, kMaxGpusPerTrial));
  std::set<int> candidates;
  for (int g = 1; g <= std::min(cap, 64); ++g) {
    candidates.insert(g);
  }
  for (int g = 1; g * g <= initial_trials; ++g) {
    if (initial_trials % g == 0) {
      candidates.insert(g);
      candidates.insert(initial_trials / g);
    }
  }
  for (int k = 1; k * initial_trials <= cap; ++k) {
    candidates.insert(k * initial_trials);
  }
  return candidates;
}

}  // namespace

PlannedJob PlanStatic(PlanEvaluator& evaluator) {
  const PlannerInputs& inputs = evaluator.inputs();
  inputs.spec.Validate();

  std::vector<AllocationPlan> plans;
  for (int gpus : StaticCandidates(inputs.spec, evaluator.options())) {
    plans.push_back(AllocationPlan::Uniform(inputs.spec.num_stages(), gpus));
  }
  const std::vector<PlanEstimate> estimates = evaluator.EvaluateBatch(plans);

  PlannedJob best;
  best.planner = "static";
  PlannedJob fastest;  // fallback when nothing meets the deadline
  fastest.planner = "static";
  bool have_best = false;
  bool have_fastest = false;

  // Selection sweeps in candidate (ascending size) order, independent of
  // which thread evaluated what — parallel batches select identically.
  for (size_t i = 0; i < plans.size(); ++i) {
    const PlanEstimate& estimate = estimates[i];
    if (!have_fastest || estimate.jct_mean < fastest.estimate.jct_mean) {
      fastest.plan = plans[i];
      fastest.estimate = estimate;
      have_fastest = true;
    }
    if (!estimate.MeetsDeadline(inputs.deadline)) {
      continue;
    }
    if (!have_best || estimate.cost_mean < best.estimate.cost_mean ||
        (estimate.cost_mean == best.estimate.cost_mean &&
         estimate.jct_mean < best.estimate.jct_mean)) {
      best.plan = plans[i];
      best.estimate = estimate;
      have_best = true;
    }
  }

  if (have_best) {
    best.feasible = true;
    return best;
  }
  fastest.feasible = false;
  return fastest;
}

}  // namespace rubberband
