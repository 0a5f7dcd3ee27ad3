// Declarative experiment specification (paper Figure 6).
//
// An early-stopping hyperparameter tuning job is a sequence of stages; each
// stage runs `num_trials` surviving trials for `iters_per_trial` additional
// iterations and ends with a synchronization barrier that ranks trials and
// promotes the survivors into the next stage. Because the specification is
// declarative, the whole structure is known before runtime, which is what
// lets RubberBand plan resource allocation offline.

#ifndef SRC_SPEC_EXPERIMENT_SPEC_H_
#define SRC_SPEC_EXPERIMENT_SPEC_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace rubberband {

struct Stage {
  int num_trials = 0;
  // Incremental training iterations assigned to each surviving trial in
  // this stage (not cumulative).
  int64_t iters_per_trial = 0;

  auto operator<=>(const Stage&) const = default;
};

class ExperimentSpec {
 public:
  ExperimentSpec() = default;

  // Fluent builder mirroring the paper's
  //   rb.EmptyExperimentSpec().add_stage(num_trials=.., iters=..)...
  ExperimentSpec& AddStage(int num_trials, int64_t iters_per_trial);

  int num_stages() const { return static_cast<int>(stages_.size()); }
  const Stage& stage(int index) const { return stages_.at(static_cast<size_t>(index)); }
  const std::vector<Stage>& stages() const { return stages_; }

  bool empty() const { return stages_.empty(); }

  // Total trial-iterations across the job: sum_i trials_i * iters_i. This is
  // the work lower bound any allocation plan must execute.
  int64_t TotalWork() const;

  // Cumulative iterations a trial surviving through stage `index` has
  // trained for (inclusive).
  int64_t CumulativeIters(int index) const;

  int MaxTrials() const;

  // Validates SHA-style structure: at least one stage, positive trial counts
  // and iteration counts, and non-increasing trial counts (early-stopping
  // only ever terminates trials). Throws std::invalid_argument otherwise.
  void Validate() const;

  std::string ToString() const;

 private:
  std::vector<Stage> stages_;
};

}  // namespace rubberband

#endif  // SRC_SPEC_EXPERIMENT_SPEC_H_
