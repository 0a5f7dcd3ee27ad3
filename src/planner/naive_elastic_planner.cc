// Naive elastic baseline (paper section 6.3.1).
//
// The cluster is resized elastically, but each trial's allocation is a
// constant number of GPUs across all stages (the strategy of prior work
// such as ASHA's elastic deployments): stage i gets t * trials_i GPUs. The
// planner enumerates t and returns the cheapest feasible choice. This
// policy front-loads enormous clusters under tight deadlines (512 GPUs in
// the paper's 20-minute experiment) because the only way to speed up the
// long final stages is to raise t for *every* stage.

#include "src/planner/evaluator.h"
#include "src/planner/planner.h"

namespace rubberband {

PlannedJob PlanNaiveElastic(PlanEvaluator& evaluator) {
  const PlannerInputs& inputs = evaluator.inputs();
  const PlannerOptions& options = evaluator.options();
  inputs.spec.Validate();

  std::vector<AllocationPlan> plans;
  for (int t = 1; t <= kMaxGpusPerTrial; ++t) {
    std::vector<int> stage_gpus;
    bool within_cap = true;
    for (const Stage& stage : inputs.spec.stages()) {
      const int gpus = t * stage.num_trials;
      if (gpus > options.max_total_gpus) {
        within_cap = false;
        break;
      }
      stage_gpus.push_back(gpus);
    }
    if (!within_cap) {
      break;
    }
    plans.emplace_back(std::move(stage_gpus));
  }
  const std::vector<PlanEstimate> estimates = evaluator.EvaluateBatch(plans);

  PlannedJob best;
  best.planner = "naive-elastic";
  PlannedJob fastest;
  fastest.planner = "naive-elastic";
  bool have_best = false;
  bool have_fastest = false;

  // Selection sweeps in t order regardless of evaluation thread count.
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
    if (!have_best || estimate.cost_mean < best.estimate.cost_mean) {
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
