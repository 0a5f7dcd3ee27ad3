// Stage-incremental, memoized, parallel plan evaluation: the one way the
// planners (and everything else) score an allocation plan.
//
// SimulatePlan over a full BuildDag DAG sweeps every stage for every
// candidate; the greedy step mutates ONE stage, so almost all of that work
// re-derives results the previous candidate already computed.
// PlanEvaluator exploits the keyed sampling streams (see src/dag/simulate.h)
// to cache at two levels:
//   * stage cache — per (stage index, gpus, prev_instances): the resolved
//     StageBlock plus its `sim_samples` StageDraws. A candidate plan then
//     costs O(stages) cache lookups plus one composition pass, with only
//     changed stages re-simulated. A miss replays the stage's keyed
//     streams from the calling thread's recordings (Rng::RecordedStreams):
//     the seed is fixed, so every evaluator on a thread re-reads the same
//     few streams, and stored words and memoized normal decodes make a
//     re-read far cheaper than a fresh draw.
//   * plan memo — allocation vector -> PlanEstimate. Warm starts revisit
//     plans constantly (the static optimum is re-scored by every descent),
//     and the tuning service re-plans the same job at admission, dequeue,
//     and fault boundaries.
// Both caches survive set_deadline(): estimates do not depend on the
// deadline (feasibility is checked by the planners against inputs().deadline).
//
// Every estimate is bit-identical to SimulatePlan(BuildDag(...)) with the
// same seed and sample count (the tests' reference, which draws every
// stream fresh): both compose the same SampleStageDraw results with the
// same SampleComposer arithmetic in the same order. EvaluateBatch may fan
// candidates out over a ThreadPool; evaluation is pure, results land in
// per-index slots, and counters are mutex-guarded, so parallel runs are
// bit-identical to serial ones.

#ifndef SRC_PLANNER_EVALUATOR_H_
#define SRC_PLANNER_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dag/simulate.h"
#include "src/obs/metrics.h"
#include "src/planner/planner.h"

namespace rubberband {

// Cache instrumentation, aggregatable across evaluators (the tuning
// service sums per-job evaluators and per-replan evaluators into one
// service-level metric).
struct PlannerCacheStats {
  int64_t plan_evaluations = 0;  // plans actually composed (memo misses)
  int64_t plan_memo_hits = 0;    // plans served from the memo
  int64_t stage_evaluations = 0; // stage blocks sampled (cache misses)
  int64_t stage_cache_hits = 0;  // stage lookups served from the cache

  // Fraction of plan estimates served from the memo.
  double PlanHitRate() const {
    const int64_t total = plan_evaluations + plan_memo_hits;
    return total > 0 ? static_cast<double>(plan_memo_hits) / static_cast<double>(total) : 0.0;
  }
  // Fraction of stage lookups served from the stage cache.
  double StageHitRate() const {
    const int64_t total = stage_evaluations + stage_cache_hits;
    return total > 0 ? static_cast<double>(stage_cache_hits) / static_cast<double>(total) : 0.0;
  }

  PlannerCacheStats& operator+=(const PlannerCacheStats& other) {
    plan_evaluations += other.plan_evaluations;
    plan_memo_hits += other.plan_memo_hits;
    stage_evaluations += other.stage_evaluations;
    stage_cache_hits += other.stage_cache_hits;
    return *this;
  }
  PlannerCacheStats& operator-=(const PlannerCacheStats& other) {
    plan_evaluations -= other.plan_evaluations;
    plan_memo_hits -= other.plan_memo_hits;
    stage_evaluations -= other.stage_evaluations;
    stage_cache_hits -= other.stage_cache_hits;
    return *this;
  }
};

// Exports accumulated cache statistics into a metrics scope (typically
// "planner"): absolute counters plus the two hit-rate gauges. Add-based, so
// repeated publishes from different evaluators aggregate naturally.
void PublishCacheStats(const PlannerCacheStats& stats, const MetricsScope& scope);

class PlanEvaluator {
 public:
  // Candidate batches run on `pool` when one is given (evaluators driven
  // from one thread may share it; ParallelFor is not reentrant), else on a
  // private pool when options.eval_threads > 1.
  PlanEvaluator(const PlannerInputs& inputs, const PlannerOptions& options,
                std::shared_ptr<ThreadPool> pool = nullptr);
  ~PlanEvaluator();

  PlanEvaluator(const PlanEvaluator&) = delete;
  PlanEvaluator& operator=(const PlanEvaluator&) = delete;

  const PlannerInputs& inputs() const { return inputs_; }
  const PlannerOptions& options() const { return options_; }

  // Re-aims the evaluator at a new deadline without dropping any cache:
  // sampled spans and costs are deadline-independent, only the planners'
  // feasibility filter changes. This is what lets one evaluator serve a
  // job's admission plan and its (tighter-deadline) dequeue re-plan.
  void set_deadline(Seconds deadline) { inputs_.deadline = deadline; }

  PlanEstimate Evaluate(const AllocationPlan& plan);

  // Evaluates a candidate batch, preserving order; runs on the evaluator's
  // thread pool when it has one.
  std::vector<PlanEstimate> EvaluateBatch(const std::vector<AllocationPlan>& plans);

  PlannerCacheStats stats() const;

 private:
  // A cached stage: its resolved block and one draw per simulation sample.
  // Entries are immutable once published and the map's nodes never move,
  // so lookups can hold bare pointers across the (mutex-released)
  // composition pass.
  struct StageEntry {
    StageBlock block;
    std::vector<StageDraw> draws;
  };

  struct VectorHash {
    size_t operator()(const std::vector<int>& v) const;
  };

  const StageEntry* GetStage(int stage_index, int gpus, int prev_instances);
  // Risk-aware scoring under a preemptible market: prices each stage's
  // expected rework (restart latency + warning-bounded lost work, times the
  // stage's expected preemption count) into the estimate before it enters
  // the memo, so memo hits return it unchanged; a no-op unless the cloud
  // profile's spot market has a preemption hazard, so on-demand planning is
  // unperturbed.
  void ApplyRiskAdjustment(const AllocationPlan& plan, PlanEstimate* estimate) const;

  PlannerInputs inputs_;
  PlannerOptions options_;
  std::shared_ptr<ThreadPool> pool_;  // null: batches run serially

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, StageEntry> stage_cache_;
  std::unordered_map<std::vector<int>, PlanEstimate, VectorHash> memo_;
  PlannerCacheStats stats_;
};

}  // namespace rubberband

#endif  // SRC_PLANNER_EVALUATOR_H_
