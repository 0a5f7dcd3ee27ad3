#include "src/dag/simulate.h"

#include <algorithm>

namespace rubberband {

StageDraw SampleStageDraw(const StageBlock& block, uint64_t seed, int sample_index) {
  Rng rng = Rng::ForStream(seed, static_cast<uint64_t>(block.index),
                           static_cast<uint64_t>(sample_index));
  return SampleStageDraw(block, rng);
}

StageDraw SampleStageDraw(const StageBlock& block, Rng& rng) {
  StageDraw draw;

  // Fixed draw order within the stage: SCALE, each INIT, each TRAIN in
  // trial order. The SYNC barrier is a constant and consumes no draws.
  Seconds entry = 0.0;
  if (block.new_instances > 0) {
    draw.scale_done = block.scale_latency.Sample(rng);
    Seconds slowest_init = 0.0;
    for (int k = 0; k < block.new_instances; ++k) {
      slowest_init = std::max(slowest_init, block.init_latency.Sample(rng));
    }
    entry = draw.scale_done + slowest_init;
  }

  Seconds tail = 0.0;
  if (block.gpus >= block.trials) {
    for (int t = 0; t < block.trials; ++t) {
      const Distribution& latency =
          t < block.colocated ? block.train_latency : block.fragmented_latency;
      const double duration = latency.Sample(rng);
      draw.train_gpu_seconds += static_cast<double>(block.gpus_per_trial) * duration;
      tail = std::max(tail, entry + duration);
    }
  } else {
    // Queued: `gpus` one-GPU slots; slot s runs trials s, s+gpus, ...
    // serially, so each slot's finish time accumulates. The slot list is
    // the thread's, reused from draw to draw.
    thread_local std::vector<Seconds> slot_done;
    slot_done.assign(static_cast<size_t>(block.gpus), entry);
    for (int t = 0; t < block.trials; ++t) {
      const double duration = block.train_latency.Sample(rng);
      draw.train_gpu_seconds += duration;
      Seconds& done = slot_done[static_cast<size_t>(t % block.gpus)];
      done += duration;
      tail = std::max(tail, done);
    }
  }
  draw.span = tail + block.sync_seconds;
  return draw;
}

SampleComposer::SampleComposer(const ModelProfile& model, const CloudProfile& cloud)
    : model_(model),
      cloud_(cloud),
      per_instance_(cloud.pricing.billing == BillingModel::kPerInstance),
      per_second_(cloud.instance.PricePerSecond()),
      gpu_second_(cloud.instance.GpuSecondPrice()),
      min_billed_(cloud.pricing.minimum_billed_seconds) {}

void SampleComposer::Bill(Seconds launch, Seconds release, int count) {
  const Money each = per_second_ * std::max(release - launch, min_billed_);
  compute_ += Money::FromMicros(each.micros() * count);
}

void SampleComposer::AddStage(const StageBlock& block, const StageDraw& draw) {
  total_provisioned_ += block.new_instances;
  if (per_instance_) {
    const int needed = block.instances;
    if (needed > alive_) {
      // New instances launch when the provider serves the SCALE request.
      const Seconds launch =
          block.new_instances > 0 ? clock_ + draw.scale_done : clock_;
      launches_.push_back({launch, needed - alive_});
    } else if (needed < alive_) {
      // Shrink at the stage boundary; release the most recently launched
      // instances first (they have accrued the least minimum-charge value).
      for (int released = alive_ - needed; released > 0;) {
        Launch& last = launches_.back();
        const int count = std::min(released, last.count);
        Bill(last.time, clock_, count);
        released -= count;
        last.count -= count;
        if (last.count == 0) {
          launches_.pop_back();
        }
      }
    }
    alive_ = needed;
  } else {
    compute_ += gpu_second_ * draw.train_gpu_seconds;
  }
  clock_ += draw.span;
}

PlanSample SampleComposer::Finish() {
  for (const Launch& launch : launches_) {
    Bill(launch.time, clock_, launch.count);
  }
  PlanSample sample;
  sample.duration = clock_;
  sample.compute_cost = compute_;
  sample.data_cost = cloud_.pricing.data_price_per_gb *
                     (model_.dataset_gb * static_cast<double>(total_provisioned_));
  sample.cost = sample.compute_cost + sample.data_cost;
  // Back to an empty plan; the launch list keeps its capacity for the next.
  clock_ = 0.0;
  launches_.clear();
  alive_ = 0;
  compute_ = Money();
  total_provisioned_ = 0;
  return sample;
}

PlanSample SamplePlan(const ExecutionDag& dag, const ModelProfile& model,
                      const CloudProfile& cloud, uint64_t seed, int sample_index) {
  SampleComposer composer(model, cloud);
  for (const StageMeta& meta : dag.stages()) {
    composer.AddStage(meta.block, SampleStageDraw(meta.block, seed, sample_index));
  }
  return composer.Finish();
}

std::vector<Seconds> MeanFinishTimes(const ExecutionDag& dag) {
  std::vector<Seconds> finish(static_cast<size_t>(dag.size()), 0.0);
  for (int id = 0; id < dag.size(); ++id) {
    double start = 0.0;
    for (int dep : dag.deps(id)) {
      start = std::max(start, finish[static_cast<size_t>(dep)]);
    }
    finish[static_cast<size_t>(id)] = start + dag.latency(id).Mean();
  }
  return finish;
}

void EstimateAccumulator::Add(const PlanSample& sample) {
  jct_.Add(sample.duration);
  cost_.Add(sample.cost.dollars());
  compute_.Add(sample.compute_cost.dollars());
  data_.Add(sample.data_cost.dollars());
}

PlanEstimate EstimateAccumulator::Finish() const {
  PlanEstimate estimate;
  estimate.jct_mean = jct_.mean();
  estimate.jct_stddev = jct_.stddev();
  estimate.cost_mean = Money::FromDollars(cost_.mean());
  estimate.compute_cost_mean = Money::FromDollars(compute_.mean());
  estimate.data_cost_mean = Money::FromDollars(data_.mean());
  estimate.cost_stddev_dollars = cost_.stddev();
  return estimate;
}

PlanEstimate SimulatePlan(const ExecutionDag& dag, const ModelProfile& model,
                          const CloudProfile& cloud, const SimulateOptions& options) {
  EstimateAccumulator accumulator;
  for (int i = 0; i < options.num_samples; ++i) {
    accumulator.Add(SamplePlan(dag, model, cloud, options.seed, i));
  }
  return accumulator.Finish();
}

}  // namespace rubberband
