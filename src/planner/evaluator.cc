#include "src/planner/evaluator.h"

#include <algorithm>
#include <utility>

#include "src/dag/builder.h"

namespace rubberband {
namespace {

// Packed stage-cache key. Stage indices fit 16 bits and allocations fit 24
// bits with room to spare: specs are validated to far fewer than 65k
// stages, and instance counts are bounded by the GPU allocation, which the
// planners cap at max_total_gpus (default 4096).
uint64_t StageKey(int stage_index, int gpus, int prev_instances) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(stage_index)) << 48) |
         ((static_cast<uint64_t>(static_cast<uint32_t>(gpus)) & 0xFFFFFFULL) << 24) |
         (static_cast<uint64_t>(static_cast<uint32_t>(prev_instances)) & 0xFFFFFFULL);
}

}  // namespace

size_t PlanEvaluator::VectorHash::operator()(const std::vector<int>& v) const {
  // FNV-1a over the allocation vector.
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (int value : v) {
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(value));
    hash *= 0x100000001B3ULL;
  }
  return static_cast<size_t>(hash);
}

PlanEvaluator::PlanEvaluator(const PlannerInputs& inputs, const PlannerOptions& options,
                             std::shared_ptr<ThreadPool> pool)
    : inputs_(inputs), options_(options), pool_(std::move(pool)) {
  if (pool_ == nullptr && options_.eval_threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options_.eval_threads);
  }
}

PlanEvaluator::~PlanEvaluator() = default;

PlannerCacheStats PlanEvaluator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

const PlanEvaluator::StageEntry* PlanEvaluator::GetStage(int stage_index, int gpus,
                                                         int prev_instances) {
  const uint64_t key = StageKey(stage_index, gpus, prev_instances);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stage_cache_.find(key);
    if (it != stage_cache_.end()) {
      ++stats_.stage_cache_hits;
      return &it->second;
    }
  }

  // Miss: sample the stage outside the lock (the expensive part), then
  // publish. A racing thread may have published first; its entry wins and
  // is identical anyway (sampling is pure).
  StageEntry entry;
  entry.block = MakeStageBlock(inputs_.spec.stage(stage_index), stage_index, gpus,
                               prev_instances, inputs_.model, inputs_.cloud);
  entry.draws.reserve(static_cast<size_t>(options_.sim_samples));
  const std::span<StreamTape> tapes = Rng::RecordedStreams(
      options_.seed, static_cast<uint64_t>(stage_index), options_.sim_samples);
  for (StreamTape& tape : tapes) {
    Rng rng(tape);
    entry.draws.push_back(SampleStageDraw(entry.block, rng));
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = stage_cache_.try_emplace(key, std::move(entry));
  ++stats_.stage_evaluations;
  return &it->second;
}

void PlanEvaluator::ApplyRiskAdjustment(const AllocationPlan& plan,
                                        PlanEstimate* estimate) const {
  const SpotMarket& spot = inputs_.cloud.spot;
  if (!spot.enabled || !spot.HazardEnabled() || estimate->jct_mean <= 0.0) {
    return;
  }
  // Closed-form expected-rework model. Per-stage spans are approximated as
  // shares of the estimated JCT weighted by serial iteration volume; each
  // stage then expects (instances x span / MTTP) preemptions, and each
  // preemption costs a replacement wait plus the lost work — bounded by the
  // reclamation warning window when the provider gives one (the executor
  // checkpoints eagerly inside it), half the stage span otherwise.
  const int num_stages = inputs_.spec.num_stages();
  const int gpg = inputs_.cloud.gpus_per_instance();
  double total_iters = 0.0;
  for (int i = 0; i < num_stages; ++i) {
    total_iters += static_cast<double>(inputs_.spec.stage(i).iters_per_trial);
  }
  if (total_iters <= 0.0) {
    return;
  }
  double expected_delay = 0.0;
  for (int i = 0; i < num_stages; ++i) {
    const double span = estimate->jct_mean *
                        static_cast<double>(inputs_.spec.stage(i).iters_per_trial) / total_iters;
    const int instances = (plan.gpus(i) + gpg - 1) / gpg;
    const double expected_preemptions = instances * span / spot.mean_time_to_preemption;
    const double rework = spot.reclamation_warning_s > 0.0
                              ? std::min(span, spot.reclamation_warning_s)
                              : 0.5 * span;
    expected_delay +=
        expected_preemptions * (rework + inputs_.cloud.provisioning.MeanReadyLatency());
  }
  // The rework runs on billing instances, so it burns money at the plan's
  // average rate as well as time.
  const double burn_rate = estimate->cost_mean.dollars() / estimate->jct_mean;
  const Money extra = Money::FromDollars(expected_delay * burn_rate);
  estimate->jct_mean += expected_delay;
  estimate->cost_mean += extra;
  estimate->compute_cost_mean += extra;  // rework is pure compute
}

PlanEstimate PlanEvaluator::Evaluate(const AllocationPlan& plan) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(plan.stage_gpus());
    if (it != memo_.end()) {
      ++stats_.plan_memo_hits;
      return it->second;
    }
    ++stats_.plan_evaluations;
  }

  plan.Validate(inputs_.spec.num_stages());
  const int num_stages = inputs_.spec.num_stages();
  // Reused by every plan this thread scores, so it allocates only when a
  // plan has more stages than any before it.
  thread_local std::vector<const StageEntry*> entries;
  entries.resize(static_cast<size_t>(num_stages));
  int prev_instances = 0;
  for (int i = 0; i < num_stages; ++i) {
    const StageEntry* entry = GetStage(i, plan.gpus(i), prev_instances);
    entries[static_cast<size_t>(i)] = entry;
    prev_instances = entry->block.instances;
  }

  // Identical composition to SimulatePlan's sweep: same draws, same
  // arithmetic, same order — so the two match bit for bit. Finish() resets
  // the composer, so one serves every sample.
  EstimateAccumulator accumulator;
  SampleComposer composer(inputs_.model, inputs_.cloud);
  for (int s = 0; s < options_.sim_samples; ++s) {
    for (const StageEntry* entry : entries) {
      composer.AddStage(entry->block, entry->draws[static_cast<size_t>(s)]);
    }
    accumulator.Add(composer.Finish());
  }
  PlanEstimate estimate = accumulator.Finish();
  ApplyRiskAdjustment(plan, &estimate);

  std::lock_guard<std::mutex> lock(mu_);
  memo_.try_emplace(plan.stage_gpus(), estimate);
  return estimate;
}

std::vector<PlanEstimate> PlanEvaluator::EvaluateBatch(const std::vector<AllocationPlan>& plans) {
  std::vector<PlanEstimate> estimates(plans.size());
  const auto evaluate_one = [&](int i) {
    estimates[static_cast<size_t>(i)] = Evaluate(plans[static_cast<size_t>(i)]);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(static_cast<int>(plans.size()), evaluate_one);
  } else {
    for (int i = 0; i < static_cast<int>(plans.size()); ++i) {
      evaluate_one(i);
    }
  }
  return estimates;
}

void PublishCacheStats(const PlannerCacheStats& stats, const MetricsScope& scope) {
  if (!scope.live()) {
    return;
  }
  Counter* plan_evaluations = scope.GetCounter("plan_evaluations");
  Counter* plan_memo_hits = scope.GetCounter("plan_memo_hits");
  Counter* stage_evaluations = scope.GetCounter("stage_evaluations");
  Counter* stage_cache_hits = scope.GetCounter("stage_cache_hits");
  plan_evaluations->Add(stats.plan_evaluations);
  plan_memo_hits->Add(stats.plan_memo_hits);
  stage_evaluations->Add(stats.stage_evaluations);
  stage_cache_hits->Add(stats.stage_cache_hits);
  // Rates derived from the cumulative counters, so repeated publishes keep
  // the gauges consistent with the running totals.
  PlannerCacheStats total;
  total.plan_evaluations = plan_evaluations->value();
  total.plan_memo_hits = plan_memo_hits->value();
  total.stage_evaluations = stage_evaluations->value();
  total.stage_cache_hits = stage_cache_hits->value();
  scope.GetGauge("plan_hit_rate")->Set(total.PlanHitRate());
  scope.GetGauge("stage_hit_rate")->Set(total.StageHitRate());
}

}  // namespace rubberband
