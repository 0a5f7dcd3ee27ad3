// Plan simulation (paper section 4.2, "Simulation", and Algorithm 1).
//
// The execution DAG is a chain of stage blocks separated by SYNC barriers,
// so a stage's sampled behavior is fully described relative to its entry
// (the previous barrier's completion): a StageDraw carries the stage's
// span, the relative completion time of its SCALE request, and its billable
// TRAIN GPU-seconds. Sampling a whole plan composes stage draws in order
// (SampleComposer), which is equivalent to Algorithm 1's forward sweep over
// topologically ordered nodes but touches O(stages) state per sample.
//
// Randomness is keyed, not sequential: stage s of sample i draws from
// Rng::ForStream(seed, s, i), so a stage's draw depends only on its own
// block — not on which other stages exist. This makes per-stage results
// exactly reusable across candidate plans (the stage-incremental
// PlanEvaluator caches them) while keeping every path bit-identical: the
// reference sweep here and the evaluator's cache both call SampleStageDraw.
// The sweep here draws each stream fresh; the evaluator replays the
// calling thread's recording of it (Rng::RecordedStreams), which serves the
// same draws from stored engine words and memoized normal decodes, so the
// sweep stays the reference the evaluator is tested against.
//
// Cost, per sample:
//   * per-function billing sums each billable TRAIN node's GPU-seconds at
//     the GPU-second rate — resources are released the moment a trial
//     finishes, so stragglers do not inflate cost;
//   * per-instance billing reconstructs each instance's launch->release
//     interval: instances launch when their stage's SCALE completes, are
//     held through every stage that needs them (billed through the stage's
//     SYNC — the critical path *within* the stage — which is how
//     straggler-induced idling shows up as cost), are released at stage
//     boundaries when the plan shrinks, and pay the per-acquisition minimum
//     charge;
//   * data ingress is charged once per instance ever provisioned.

#ifndef SRC_DAG_SIMULATE_H_
#define SRC_DAG_SIMULATE_H_

#include <cstdint>
#include <vector>

#include "src/cloud/cloud_profile.h"
#include "src/common/money.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/dag/node.h"
#include "src/model/profile.h"

namespace rubberband {

struct PlanEstimate {
  Seconds jct_mean = 0.0;
  Seconds jct_stddev = 0.0;
  Money cost_mean;
  Money compute_cost_mean;
  Money data_cost_mean;
  double cost_stddev_dollars = 0.0;

  bool MeetsDeadline(Seconds deadline) const { return jct_mean <= deadline; }
};

struct SimulateOptions {
  int num_samples = 20;
  uint64_t seed = 42;
};

// One Monte-Carlo draw of (duration, cost) for the DAG.
struct PlanSample {
  Seconds duration = 0.0;
  Money cost;
  Money compute_cost;
  Money data_cost;
};

// One stage's Monte-Carlo draw, everything relative to the stage's entry.
struct StageDraw {
  Seconds span = 0.0;        // entry -> this stage's SYNC completion
  Seconds scale_done = 0.0;  // entry -> SCALE served (0 without scale-up)
  double train_gpu_seconds = 0.0;  // billable under per-function pricing
};

// Draws stage `block` for sample `sample_index` from a fresh keyed stream
// (seed, block.index, sample_index). Pure: same arguments, same draw.
StageDraw SampleStageDraw(const StageBlock& block, uint64_t seed, int sample_index);

// Draws stage `block` from `rng`, which must be at the start of the stage's
// keyed stream: Rng::ForStream, or a replay of its Rng::RecordedStreams tape.
StageDraw SampleStageDraw(const StageBlock& block, Rng& rng);

// Folds stage draws into one plan sample: advances the stage clock and
// reconstructs per-instance billing intervals (or accumulates per-function
// GPU-seconds). Feed stages in plan order, then call Finish(), which
// returns the sample and resets the composer to an empty plan: one composer
// composes every sample of a plan, and its launch list stops allocating
// after the first.
//
// Alive instances are kept as launches, one per scale-up with its instance
// count: the instances of one launch bill the same interval, so one rounded
// charge times the count is exactly the sum of their charges (money is
// integral), at one rounding per launch instead of one per instance.
class SampleComposer {
 public:
  SampleComposer(const ModelProfile& model, const CloudProfile& cloud);

  void AddStage(const StageBlock& block, const StageDraw& draw);
  PlanSample Finish();

 private:
  struct Launch {
    Seconds time = 0.0;  // when the provider served the SCALE request
    int count = 0;       // of its instances still alive
  };

  // Bills `count` instances held from `launch` to `release`.
  void Bill(Seconds launch, Seconds release, int count);

  const ModelProfile& model_;
  const CloudProfile& cloud_;
  const bool per_instance_;
  const Money per_second_;
  const Money gpu_second_;
  const Seconds min_billed_;
  Seconds clock_ = 0.0;  // completion time of the last composed barrier
  std::vector<Launch> launches_;  // oldest first
  int alive_ = 0;                 // instances over all launches
  Money compute_;
  int total_provisioned_ = 0;
};

// Folds plan samples into a PlanEstimate. SimulatePlan and PlanEvaluator
// both summarize through it, so equal samples give equal estimates.
class EstimateAccumulator {
 public:
  void Add(const PlanSample& sample);
  PlanEstimate Finish() const;

 private:
  RunningStats jct_;
  RunningStats cost_;
  RunningStats compute_;
  RunningStats data_;
};

// One full-plan draw for `sample_index` under keyed streams. Requires a
// BuildDag-produced DAG (the stage blocks drive the sampling).
PlanSample SamplePlan(const ExecutionDag& dag, const ModelProfile& model,
                      const CloudProfile& cloud, uint64_t seed, int sample_index);

// The reference estimate: every sample drawn from the full DAG. The
// planners score through PlanEvaluator, whose cached path the tests hold
// bit-identical to this one.
PlanEstimate SimulatePlan(const ExecutionDag& dag, const ModelProfile& model,
                          const CloudProfile& cloud, const SimulateOptions& options = {});

// Deterministic forward pass using every node's mean latency; returns each
// node's finish time (indexed by node id). Used for rendering plans and for
// tests that need exact expected timings.
std::vector<Seconds> MeanFinishTimes(const ExecutionDag& dag);

}  // namespace rubberband

#endif  // SRC_DAG_SIMULATE_H_
