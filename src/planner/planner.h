// Resource allocation planners.
//
// All planners share one contract: given the experiment specification, the
// model scaling profile, the cloud profile and a time constraint, produce an
// allocation plan (GPUs per stage) minimizing predicted cost subject to the
// predicted JCT fitting the constraint. Three implementations:
//   * StaticPlanner      — cost-optimal fixed-size cluster (section 3.2
//                          baseline; also Algorithm 2's warm start);
//   * NaiveElasticPlanner — cost-optimal plan with a *constant GPUs per
//                          trial* across stages (elastic cluster, inelastic
//                          per-trial allocation — the prior-work baseline of
//                          section 6.3.1);
//   * GreedyPlanner      — RubberBand's iterative-greedy optimizer
//                          (Algorithm 2) with multi-warm-starting.
//
// Every candidate plan keeps the fair-division invariant: each stage's
// allocation is either a factor or a multiple of that stage's trial count,
// so resources always divide fairly among running trials.

#ifndef SRC_PLANNER_PLANNER_H_
#define SRC_PLANNER_PLANNER_H_

#include <string>
#include <vector>

#include "src/cloud/cloud_profile.h"
#include "src/common/time.h"
#include "src/dag/simulate.h"
#include "src/model/profile.h"
#include "src/planner/plan.h"
#include "src/spec/experiment_spec.h"

namespace rubberband {

struct PlannerInputs {
  ExperimentSpec spec;
  ModelProfile model;
  CloudProfile cloud;
  Seconds deadline = 0.0;
};

// Search bound of every planner: the largest GPUs-per-trial considered.
inline constexpr int kMaxGpusPerTrial = 32;

struct PlannerOptions {
  // Monte-Carlo samples per plan evaluation. All candidates are evaluated
  // with the same seed (common random numbers), so comparisons between
  // candidates are low-variance even at small sample counts.
  int sim_samples = 20;
  uint64_t seed = 42;

  // Search bound: the hard cap on any stage's total allocation.
  int max_total_gpus = 4096;

  // Warm-start multipliers applied to the optimal static allocation
  // (section 4.3, "Warm start": e.g. 1x, 2x, 3x).
  std::vector<double> warm_start_multipliers = {1.0, 2.0, 3.0};

  // Threads evaluating a candidate batch (1 = serial). Results are
  // bit-identical at any thread count: evaluations are pure and selection
  // breaks ties by generation order, not completion order.
  int eval_threads = 1;
};

struct PlannedJob {
  AllocationPlan plan;
  PlanEstimate estimate;
  std::string planner;
  // False when no plan meets the deadline; `plan` is then the fastest plan
  // found (best effort).
  bool feasible = false;
};

// Largest fair allocation strictly below `current` for a stage of `trials`
// (factor or multiple of `trials`); 0 when current is already 1. This
// defines Algorithm 2's variable step size.
int NextLowerFairAllocation(int current, int trials);

// Smallest fair allocation strictly above `current` for `trials`.
int NextHigherFairAllocation(int current, int trials);

// Smallest fair allocation >= `value` for `trials` (for warm-start rounding).
int RoundUpToFairAllocation(int value, int trials);

// Largest fair allocation <= `value` for `trials`; 0 when value < 1.
int FairFloorAllocation(int value, int trials);

// The planners. Every estimate flows through (and populates) the caller's
// PlanEvaluator, so planning the same job repeatedly — warm starts within
// one PlanGreedy call, static and elastic plans side by side, admission
// followed by dequeue re-planning in the tuning service, replans at stage
// boundaries — reuses prior stage simulations and whole-plan memo entries.
// Plans are identical whether the evaluator is fresh or shared.
class PlanEvaluator;
PlannedJob PlanStatic(PlanEvaluator& evaluator);
PlannedJob PlanNaiveElastic(PlanEvaluator& evaluator);
PlannedJob PlanGreedy(PlanEvaluator& evaluator);

// The dual problem (paper section 1, footnote 1): minimize job completion
// time subject to a cost budget. Greedy ascent from the cheapest static
// allocation: each step raises one stage's allocation to the next fair
// value, picking the candidate with the largest JCT reduction per dollar,
// while predicted cost stays within `budget`. The evaluator's deadline is
// ignored.
PlannedJob PlanGreedyMinTime(PlanEvaluator& evaluator, Money budget);

}  // namespace rubberband

#endif  // SRC_PLANNER_PLANNER_H_
