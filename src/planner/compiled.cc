#include "src/planner/compiled.h"

#include <algorithm>

#include "src/planner/evaluator.h"

namespace rubberband {

Seconds CompiledPlannedExperiment::EstimatedJct() const {
  Seconds jct = 0.0;
  for (const PlannedJob& unit : units) {
    jct = std::max(jct, unit.estimate.jct_mean);
  }
  return jct;
}

Money CompiledPlannedExperiment::EstimatedCost() const {
  Money cost;
  for (const PlannedJob& unit : units) {
    cost += unit.estimate.cost_mean;
  }
  return cost;
}

CompiledPlannedExperiment PlanCompiledExperiment(const CompiledPlan& compiled,
                                                 const ModelProfile& model,
                                                 const CloudProfile& cloud, Seconds deadline,
                                                 const PlannerOptions& options) {
  CompiledPlannedExperiment planned;
  planned.feasible = true;
  for (const CompiledUnit& unit : compiled.units) {
    PlanEvaluator evaluator(PlannerInputs{unit.spec, model, cloud, deadline}, options);
    PlannedJob job = compiled.asha ? PlanStatic(evaluator) : PlanGreedy(evaluator);
    planned.feasible = planned.feasible && job.feasible;
    planned.units.push_back(std::move(job));
  }
  if (compiled.asha) {
    const int peak = planned.units.front().plan.MaxGpus();
    planned.asha_workers = std::max(1, peak / compiled.asha->gpus_per_trial);
  }
  return planned;
}

}  // namespace rubberband
