// RubberBand's iterative-greedy allocation planner (paper section 4.3,
// Algorithm 2).
//
// Warm-started from the cost-optimal static allocation (and 2x/3x scaled
// variants, to let early stages *exceed* the static size — the paper's
// Table 3 plan allocates 32 GPUs to stage 0 against a 24-GPU static
// optimum). Each greedy step generates one candidate per stage by stepping
// that stage's allocation down to the next fair value, evaluates all
// candidates with the simulator, and keeps the one with the largest
// cost-marginal benefit
//
//     m_i = (C(a*) - C(a_i)) / (T(a_i) - T(a*))
//
// normalizing cost reduction by the JCT increase it buys (step sizes vary,
// so raw cost deltas are not comparable). Terminates when the best
// candidate no longer improves cost or would violate the time constraint.
// The solution is therefore never predicted to be worse than the best warm
// start, i.e. never worse than the optimal static allocation.
//
// All estimates flow through the caller's PlanEvaluator: each descent
// iteration batch-evaluates its candidates (possibly on a thread pool) and
// then selects in generation order, so the chosen step — and hence the
// whole descent — is identical at any thread count. Consecutive descent
// iterations and overlapping warm starts mostly differ in one stage, which
// the evaluator's stage cache and plan memo turn into near-free lookups.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "src/planner/evaluator.h"
#include "src/planner/planner.h"

namespace rubberband {
namespace {

// Algorithm 2's delta: stop when the best candidate improves cost by less
// than this relative amount.
constexpr double kMinRelativeImprovement = 1e-6;

struct Evaluated {
  AllocationPlan plan;
  PlanEstimate estimate;
};

// One run of the greedy descent from a feasible warm start.
Evaluated Optimize(PlanEvaluator& evaluator, Evaluated current) {
  const PlannerInputs& inputs = evaluator.inputs();
  constexpr int kMaxIterations = 10'000;
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    // Candidate generation: decrement each stage independently to the next
    // fair allocation.
    std::vector<AllocationPlan> candidates;
    const int gpg = inputs.cloud.gpus_per_instance();
    for (int i = 0; i < inputs.spec.num_stages(); ++i) {
      const int trials = inputs.spec.stage(i).num_trials;
      const int cur = current.plan.gpus(i);
      // Two step candidates per stage: the paper's smallest fair step, and
      // the largest fair allocation that sheds a whole instance. The second
      // lets the descent cross the flat cost plateaus that per-instance
      // billing creates between instance boundaries (e.g. 20 -> 19 GPUs on
      // 4-GPU instances costs the same; 20 -> 16 is the useful move).
      std::vector<int> steps;
      const int fair_step = NextLowerFairAllocation(cur, trials);
      if (fair_step >= 1) {
        steps.push_back(fair_step);
      }
      const int cur_instances = (cur + gpg - 1) / gpg;
      if (cur_instances > 1) {
        const int aligned = FairFloorAllocation((cur_instances - 1) * gpg, trials);
        if (aligned >= 1 && aligned < cur && aligned != fair_step) {
          steps.push_back(aligned);
        }
      }
      for (int lower : steps) {
        AllocationPlan candidate = current.plan;
        candidate.gpus(i) = lower;
        candidates.push_back(std::move(candidate));
      }
    }
    const std::vector<PlanEstimate> estimates = evaluator.EvaluateBatch(candidates);

    // Selection in generation (stage, step) order with strict improvement,
    // matching a serial first-max sweep exactly.
    size_t best_index = 0;
    double best_marginal = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const PlanEstimate& estimate = estimates[c];
      if (!estimate.MeetsDeadline(inputs.deadline)) {
        continue;
      }
      const double cost_delta =
          current.estimate.cost_mean.dollars() - estimate.cost_mean.dollars();
      if (cost_delta <= 0.0) {
        continue;
      }
      const double jct_delta = estimate.jct_mean - current.estimate.jct_mean;
      // A candidate that is cheaper *and* no slower strictly dominates.
      const double marginal = jct_delta <= 0.0 ? std::numeric_limits<double>::infinity()
                                               : cost_delta / jct_delta;
      if (!found || marginal > best_marginal) {
        best_index = c;
        best_marginal = marginal;
        found = true;
      }
    }

    if (!found) {
      break;
    }
    const double relative_improvement =
        (current.estimate.cost_mean.dollars() - estimates[best_index].cost_mean.dollars()) /
        std::max(current.estimate.cost_mean.dollars(), 1e-9);
    current = Evaluated{std::move(candidates[best_index]), estimates[best_index]};
    if (relative_improvement < kMinRelativeImprovement) {
      break;
    }
  }
  return current;
}

}  // namespace

PlannedJob PlanGreedy(PlanEvaluator& evaluator) {
  const PlannerInputs& inputs = evaluator.inputs();
  const PlannerOptions& options = evaluator.options();
  inputs.spec.Validate();

  // Warm start: the cost-optimal static allocation (section 3.2). If even
  // that is infeasible, return it as the best-effort answer.
  const PlannedJob static_job = PlanStatic(evaluator);
  PlannedJob result;
  result.planner = "rubberband";
  if (!static_job.feasible) {
    result.plan = static_job.plan;
    result.estimate = static_job.estimate;
    result.feasible = false;
    return result;
  }

  const int static_gpus = static_job.plan.gpus(0);
  bool have_best = false;
  Evaluated best;

  // Distinct multipliers can round to the same warm plan (e.g. 2x and 3x
  // both hitting the per-trial cap); optimizing the same start twice cannot
  // change the answer, so duplicates are skipped outright.
  std::set<std::vector<int>> seen_warm_starts;

  for (double multiplier : options.warm_start_multipliers) {
    // Scale the static size and round each stage up to a fair allocation,
    // capped at kMaxGpusPerTrial per trial.
    std::vector<int> stage_gpus;
    for (const Stage& stage : inputs.spec.stages()) {
      const int scaled = static_cast<int>(std::lround(static_gpus * multiplier));
      int fair = RoundUpToFairAllocation(scaled, stage.num_trials);
      const int cap = std::min(stage.num_trials * kMaxGpusPerTrial,
                               options.max_total_gpus);
      if (fair > cap) {
        fair = RoundUpToFairAllocation(cap, stage.num_trials);
        while (fair > cap) {
          const int lower = NextLowerFairAllocation(fair, stage.num_trials);
          if (lower < 1) {
            fair = 1;
            break;
          }
          fair = lower;
        }
      }
      stage_gpus.push_back(fair);
    }
    if (!seen_warm_starts.insert(stage_gpus).second) {
      continue;
    }
    Evaluated warm;
    warm.plan = AllocationPlan{std::move(stage_gpus)};
    warm.estimate = evaluator.Evaluate(warm.plan);
    if (!warm.estimate.MeetsDeadline(inputs.deadline)) {
      continue;
    }
    Evaluated optimized = Optimize(evaluator, std::move(warm));
    if (!have_best || optimized.estimate.cost_mean < best.estimate.cost_mean ||
        (optimized.estimate.cost_mean == best.estimate.cost_mean &&
         optimized.estimate.jct_mean < best.estimate.jct_mean)) {
      best = std::move(optimized);
      have_best = true;
    }
  }

  // The optimal static allocation is itself a valid elastic plan. Keeping
  // it as a candidate makes the "never worse than static" guarantee
  // structural: warm starts are rounded up to per-stage fair allocations,
  // so a descent can in principle terminate above the raw static optimum.
  if (!have_best || static_job.estimate.cost_mean < best.estimate.cost_mean) {
    result.plan = static_job.plan;
    result.estimate = static_job.estimate;
    result.feasible = true;
    return result;
  }

  result.plan = std::move(best.plan);
  result.estimate = best.estimate;
  result.feasible = true;
  return result;
}

}  // namespace rubberband
