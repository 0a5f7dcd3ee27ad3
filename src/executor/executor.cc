#include "src/executor/executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/dag/builder.h"
#include "src/executor/job_metrics.h"
#include "src/planner/planner.h"

namespace rubberband {

namespace {

// The backoff jitter stream must differ across jobs even when callers leave
// the policy's seed at its default, so mix the job seed in.
RetryPolicy MergedRetry(const ExecutorOptions& options) {
  RetryPolicy retry = options.retry;
  retry.seed ^= options.seed * 0x9E3779B97F4A7C15ull;
  return retry;
}

// Spot-market hedging (MaybeSwitchMarket): at a stage boundary a job on
// spot goes on-demand at or above the fallback price multiplier, or when
// realized preemptions exceed kHazardTolerance x what the profile's mean
// time to preemption predicts; it returns at or below the give-back
// multiplier. At most kMaxMarketFallbacks switches to on-demand, so a
// flapping market cannot thrash the job.
constexpr double kFallbackPriceMultiplier = 1.6;
constexpr double kGiveBackPriceMultiplier = 1.2;
constexpr double kHazardTolerance = 3.0;
constexpr int kMaxMarketFallbacks = 8;

}  // namespace

Executor::Executor(const ExperimentSpec& spec, const AllocationPlan& plan,
                   const WorkloadSpec& workload, const ClusterContext& context,
                   const ExecutorOptions& options)
    : spec_(spec),
      plan_(plan),
      workload_(workload),
      options_(options),
      sim_(*context.sim),
      cloud_(*context.cloud),
      gpu_cap_(context.gpu_cap),
      manager_(sim_, *context.source, workload.dataset.size_gb, MergedRetry(options)),
      placement_(cloud_.profile().gpus_per_instance(), options.placement),
      checkpoint_faults_(cloud_.profile().fault, Rng(options.seed ^ 0xFA177EDull)) {
  spec_.Validate();
  plan_.Validate(spec_.num_stages());
  if (options_.straggler.detect || options_.straggler.mitigate) {
    detector_ = std::make_unique<StragglerDetector>(StragglerDetectorConfig{});
  }
  if (options_.observe) {
    sync_wait_ = std::make_unique<Histogram>(DefaultLatencyBucketsNs());
    stage_seconds_ = std::make_unique<Histogram>(DefaultLatencyBucketsNs());
  }
}

void Executor::Span(const char* name, Seconds start, Seconds end, int stage, int trial,
                    int64_t instance) {
  if (!options_.observe) {
    return;
  }
  timeline_.Record(TimelineSpan{name, "executor", start, end, 1, stage, trial, instance});
}

int Executor::EffectiveStageGpus(int stage) const {
  const int planned = plan_.gpus(stage);
  if (!gpu_cap_) {
    return planned;
  }
  const int cap = std::max(1, gpu_cap_());
  if (cap >= planned) {
    return planned;
  }
  // Clamp while keeping the fair-division invariant (factor or multiple of
  // the stage's trial count) so the stage still divides evenly.
  return std::max(1, FairFloorAllocation(cap, spec_.stage(stage).num_trials));
}

int Executor::DesiredInstances() const {
  const int gpg = cloud_.profile().gpus_per_instance();
  return (stage_gpus_ + gpg - 1) / gpg;
}

void Executor::RecordUsage(int gpus, Seconds duration) {
  cloud_.RecordFunctionUsage(gpus, duration);
  job_meter_.RecordFunctionUsage(gpus, duration);
}

void Executor::NoteAcquired(InstanceId id) {
  acquired_at_[id] = sim_.now();
  if (cloud_.profile().spot.enabled) {
    acquired_market_[id] = cloud_.InstanceMarket(id);
  }
}

bool Executor::RegisterNode(InstanceId id) {
  if (std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(), id) !=
      nodes_in_controller_.end()) {
    return false;
  }
  placement_.AddNode(id);
  nodes_in_controller_.push_back(id);
  NoteAcquired(id);
  return true;
}

double Executor::HeldMultiplier(InstanceId id, Seconds acquired) const {
  const SpotMarket& spot = cloud_.profile().spot;
  if (!spot.enabled) {
    return 1.0;
  }
  auto it = acquired_market_.find(id);
  if (it == acquired_market_.end() || it->second != Market::kSpot) {
    return 1.0;  // on-demand (fallback) capacity bills at full rate
  }
  return spot.discount * cloud_.SpotAverageMultiplier(acquired, sim_.now());
}

void Executor::NoteReleased(InstanceId id) {
  if (detector_) {
    detector_->Forget(id);  // covers every release path (quarantine, loss,
                            // deprovision, end-of-job)
  }
  auto it = acquired_at_.find(id);
  if (it == acquired_at_.end()) {
    return;  // never registered (e.g. reclaimed before first use)
  }
  job_meter_.RecordInstanceUsage(it->second, sim_.now(), HeldMultiplier(id, it->second), false);
  acquired_at_.erase(it);
  acquired_market_.erase(id);
}

void Executor::Start(std::function<void(ExecutionReport&)> on_done) {
  if (current_stage_ >= 0) {
    throw std::logic_error("Executor may only be started once");
  }
  on_done_ = std::move(on_done);
  // Provisioning-failure accounting and shortfall degradation: the manager
  // reports every failed slot; an abandoned one (retries exhausted) means
  // capacity is not coming and the executor must degrade around the hole.
  manager_.SetFaultObserver([this](bool will_retry) {
    report_.trace.Record(sim_.now(), TraceEventType::kProvisionFailure, current_stage_);
    // Spot capacity rejection: the observer runs before the retry is
    // scheduled, so flipping the market here redirects the retry itself —
    // re-asking a market with no machines would burn the whole backoff
    // schedule for nothing. (On a shared cloud the rejection counter moves
    // for every tenant; a fallback prompted by a neighbour's rejection is
    // a benign over-reaction while the family is exhausted anyway.)
    if (cloud_.profile().spot.enabled && manager_.market() == Market::kSpot &&
        cloud_.num_capacity_rejections() > capacity_rejections_seen_) {
      capacity_rejections_seen_ = cloud_.num_capacity_rejections();
      MarketFallback();
    }
    if (will_retry) {
      report_.trace.Record(sim_.now(), TraceEventType::kProvisionRetry, current_stage_);
    } else {
      report_.trace.Record(sim_.now(), TraceEventType::kProvisionGiveUp, current_stage_);
      HandleShortfall();
    }
  });
  // One configuration per initial trial, from the options' source (by
  // default the same random-search stream this loop always drew inline).
  const int initial_trials = spec_.stage(0).num_trials;
  const std::vector<HyperparameterConfig> configs =
      options_.configs.Materialize(initial_trials, options_.seed);
  for (int i = 0; i < initial_trials; ++i) {
    trials_.emplace_back(i, workload_, configs[static_cast<size_t>(i)],
                         options_.seed * 7919 + static_cast<uint64_t>(i));
    survivors_.push_back(i);
  }

  if (options_.observe) {
    // Rough upper bound — a few spans per trial (checkpoint/restore) plus a
    // few per stage (provision/plan/stage-run/sync/total) — so the timeline
    // backing store is allocated once.
    timeline_.Reserve(static_cast<size_t>(8 * initial_trials + 8 * spec_.num_stages()));
  }

  StartStage(0);
}

void Executor::OnPriceChange(double multiplier) {
  // The multiplier rides in the instance column, in basis points, so the
  // trace CSV stays integral.
  report_.trace.Record(sim_.now(), TraceEventType::kSpotPriceChange, current_stage_, -1,
                       static_cast<int64_t>(std::lround(multiplier * 10000.0)));
}

bool Executor::OwnsInstance(InstanceId instance) const {
  const std::vector<InstanceId>& held = manager_.ready_instances();
  return std::find(held.begin(), held.end(), instance) != held.end();
}

void Executor::StartStage(int stage) {
  current_stage_ = stage;
  stage_gpus_ = EffectiveStageGpus(stage);
  completed_in_stage_ = 0;
  replacements_exhausted_ = false;
  stage_degradation_reported_ = false;
  stage_open_at_ = sim_.now();
  stage_completed_at_.clear();
  // Boundary checkpoints taken below supersede any warning-window saves
  // from the previous stage.
  eager_checkpoint_remaining_.clear();
  const Stage& spec_stage = spec_.stage(stage);
  if (static_cast<int>(survivors_.size()) != spec_stage.num_trials) {
    throw std::logic_error("survivor count does not match the specification");
  }
  for (TrialId id : survivors_) {
    Trial& trial = trials_[static_cast<size_t>(id)];
    trial.AssignStageWork(spec_stage.iters_per_trial);
    // Checkpoint at the stage boundary (one worker serializes into the
    // driver's object store): migrations restore from here, and if a spot
    // instance is reclaimed mid-stage the interrupted trial restarts here.
    trial.SaveCheckpoint();
    const Seconds save = checkpoint_store_.Save(id, workload_.checkpoint_gb);
    Span("checkpoint", sim_.now(), sim_.now() + save, stage, id);
  }

  manager_.EnsureInstances(DesiredInstances(), [this, stage] { BeginTraining(stage); });
}

void Executor::BeginTraining(int stage) {
  // Register any newly provisioned instances with the placement controller.
  for (InstanceId id : manager_.ready_instances()) {
    if (RegisterNode(id)) {
      report_.trace.Record(sim_.now(), TraceEventType::kInstanceReady, stage, -1, id);
    }
  }

  // The cluster may be smaller than planned (capacity shortfall after
  // exhausted provisioning retries lowered the wait target); run the stage
  // on what actually arrived rather than stalling on instances that are
  // not coming.
  const int gpg = cloud_.profile().gpus_per_instance();
  const int available = manager_.num_ready() * gpg;
  if (available < stage_gpus_) {
    stage_gpus_ =
        std::max(1, FairFloorAllocation(available, static_cast<int>(survivors_.size())));
    stage_degradation_reported_ = true;
    report_.trace.Record(sim_.now(), TraceEventType::kStageDegraded, stage);
  }

  const int gpus = stage_gpus_;
  const StageSchedule schedule = BuildStageSchedule(survivors_, gpus);
  gpus_per_trial_ = schedule.gpus_per_trial;
  queued_.assign(schedule.queued.begin(), schedule.queued.end());

  allocations_.clear();
  for (TrialId id : schedule.running) {
    allocations_[id] = gpus_per_trial_;
  }
  // Stage boundaries are migration points (every survivor restores from its
  // checkpoint onto a fresh worker gang anyway), so re-pack from scratch:
  // bin-packing before scale-down is what frees whole nodes for safe
  // deprovisioning (paper Figure 5). Within a stage, placements are
  // preserved.
  placement_.Place({});
  const PlacementResult placed = placement_.Place(allocations_);
  for (TrialId id : placed.unplaced) {
    // Cluster cannot fit the trial right now (possible under the scatter
    // strategy); queue it behind the others.
    allocations_.erase(id);
    queued_.push_back(id);
  }

  // Bin-packing done: retire surplus idle nodes so the cluster matches the
  // plan (deprovisioning is safe because no trial holds GPUs on them).
  const int desired_instances = DesiredInstances();
  for (PlacementNodeId idle : placement_.IdleNodes()) {
    if (manager_.num_ready() <= desired_instances) {
      break;
    }
    placement_.RemoveNode(idle);
    nodes_in_controller_.erase(
        std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(), idle));
    manager_.Deprovision({idle});
    NoteReleased(idle);
    report_.trace.Record(sim_.now(), TraceEventType::kInstanceReleased, stage, -1, idle);
  }

  report_.trace.Record(sim_.now(), TraceEventType::kStageStart, stage);
  // Everything between the stage opening (previous SYNC) and here was
  // checkpointing + provisioning/bin-packing wait.
  training_begin_at_ = sim_.now();
  Span("provision", stage_open_at_, sim_.now(), stage);

  StageLogEntry log;
  log.stage = stage;
  log.num_trials = static_cast<int>(survivors_.size());
  log.gpus = gpus;
  log.gpus_per_trial = gpus_per_trial_;
  log.instances = manager_.num_ready();
  log.start_cum_iters = stage > 0 ? spec_.CumulativeIters(stage - 1) : 0;
  log.end_cum_iters = spec_.CumulativeIters(stage);
  log.start = sim_.now();
  report_.stage_log.push_back(log);

  for (TrialId id : schedule.running) {
    if (allocations_.count(id) > 0) {
      StartTrialOnStage(id, gpus_per_trial_);
    }
  }
}

void Executor::StartTrialOnStage(TrialId id, int gpus) {
  Trial& trial = trials_[static_cast<size_t>(id)];
  Seconds startup = workload_.trial_startup_seconds;
  if (trial.has_checkpoint()) {
    trial.RestoreFromCheckpoint();
    // The fresh gang fetches the checkpoint from the driver's object store
    // (recovering from transfer failures or a missing object).
    const Seconds fetch = FetchCheckpoint(id);
    Span("restore", sim_.now(), sim_.now() + fetch, current_stage_, id);
    startup += fetch;
  }
  trial.set_state(TrialState::kRunning);
  trial.trainer().Configure(gpus, placement_.IsColocated(id));
  SetupGang(id);
  busy_start_[id] = sim_.now();
  report_.trace.Record(sim_.now(), TraceEventType::kTrialStart, current_stage_, id);
  const int generation = ++generation_[id];
  CancelTrialEvent(id);
  // Worker gang startup: checkpoint fetch + peer rendezvous.
  pending_trial_event_[id] = sim_.ScheduleIn(startup, [this, id, generation] {
    if (generation_[id] == generation) {
      ScheduleNextIteration(id);
    }
  });
}

void Executor::CancelTrialEvent(TrialId id) {
  auto it = pending_trial_event_.find(id);
  if (it != pending_trial_event_.end()) {
    sim_.Cancel(it->second);
    pending_trial_event_.erase(it);
  }
}

void Executor::SetupGang(TrialId id) {
  Trial& trial = trials_[static_cast<size_t>(id)];
  std::vector<InstanceId> instances;
  for (const WorkerAssignment& assignment : placement_.plan().Assignments(id)) {
    if (std::find(instances.begin(), instances.end(), assignment.node) == instances.end()) {
      instances.push_back(assignment.node);
    }
  }
  std::vector<double> slowdowns;
  if (cloud_.profile().fault.straggler_rate > 0.0) {
    // Per-worker latency draws only when stragglers can exist: with the
    // vector left empty the trainer keeps its original single-draw path and
    // rate-zero runs stay bit-identical.
    slowdowns.reserve(instances.size());
    for (InstanceId instance : instances) {
      slowdowns.push_back(cloud_.StragglerFactor(instance));
    }
  }
  trial.trainer().SetWorkerSlowdowns(std::move(slowdowns));
  trial_instances_[id] = std::move(instances);
}

void Executor::ScheduleNextIteration(TrialId id) {
  Trial& trial = trials_[static_cast<size_t>(id)];
  if (trial.remaining_iters() <= 0) {
    OnTrialStageDone(id);
    return;
  }
  const Seconds latency = trial.trainer().SampleIterLatency();
  const int generation = generation_[id];
  pending_trial_event_[id] = sim_.ScheduleIn(latency, [this, id, generation] {
    if (generation_[id] != generation) {
      return;  // this worker gang was destroyed (preemption/migration)
    }
    Trial& t = trials_[static_cast<size_t>(id)];
    t.trainer().Advance(1);
    t.CompleteIteration();
    if (detector_) {
      RecordIterationObservations(id);
      if (generation_[id] != generation) {
        return;  // a quarantine just tore this gang down
      }
    }
    ScheduleNextIteration(id);
  });
}

void Executor::RecordIterationObservations(TrialId id) {
  Trial& trial = trials_[static_cast<size_t>(id)];
  // Copies: a quarantine triggered below mutates both source containers.
  const std::vector<double> latencies = trial.trainer().last_worker_latencies();
  auto it = trial_instances_.find(id);
  if (it == trial_instances_.end() || latencies.empty()) {
    return;
  }
  const std::vector<InstanceId> instances = it->second;
  const Seconds expected = trial.trainer().MeanIterLatency();
  if (expected <= 0.0) {
    return;
  }
  std::vector<InstanceId> flagged;
  for (size_t i = 0; i < instances.size(); ++i) {
    // Single-draw mode yields one gang latency; attribute it to every host
    // (they all look alike, which is exactly right — nothing to tell apart).
    const double observed =
        latencies.size() == instances.size() ? latencies[i] : latencies.front();
    if (detector_->Observe(instances[i], observed / expected)) {
      flagged.push_back(instances[i]);
    }
  }
  for (InstanceId instance : flagged) {
    OnStragglerFlagged(instance);
  }
}

void Executor::OnStragglerFlagged(InstanceId instance) {
  report_.straggler_detection_syncs += detector_->ObservationsAtFlag(instance);
  report_.trace.Record(sim_.now(), TraceEventType::kStragglerDetected, current_stage_, -1,
                       instance);
  // Ground truth consulted to *grade* the detector, never to drive it: the
  // flag above was produced from observed latencies alone.
  if (cloud_.StragglerFactor(instance) <= 1.0) {
    report_.trace.Record(sim_.now(), TraceEventType::kStragglerFalsePositive, current_stage_,
                         -1, instance);
  }
  if (!options_.straggler.mitigate ||
      report_.trace.Count(TraceEventType::kStragglerQuarantined) >=
          options_.straggler.max_quarantines) {
    return;
  }
  QuarantineInstance(instance);
}

void Executor::QuarantineInstance(InstanceId instance) {
  const auto tracked = std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(),
                                 instance);
  if (tracked == nodes_in_controller_.end()) {
    return;  // lost to a crash/preemption in the meantime
  }
  report_.trace.Record(sim_.now(), TraceEventType::kStragglerQuarantined, current_stage_, -1,
                       instance);
  const double factor = cloud_.StragglerFactor(instance);
  Seconds quarantine_cost = 0.0;
  // Slowdown-avoided estimate, accumulated below: expected iteration
  // seconds the instance would still have dragged, each taxed by
  // (factor - 1) — its trials' remaining stage work, plus each later
  // stage's per-trial work at that stage's planned gang size, weighted by
  // the chance the node survives the stage-boundary scale-downs.
  Seconds dragged_iter_seconds = 0.0;
  // Exclude the node from new placements, then evict its gangs outright.
  placement_.SetUnschedulable(instance, true);
  for (TrialId id : placement_.EvictNode(instance)) {
    Trial& trial = trials_[static_cast<size_t>(id)];
    if (trial.state() != TrialState::kRunning) {
      continue;
    }
    ++generation_[id];  // invalidate in-flight iteration events
    CancelTrialEvent(id);
    const int gpus = allocations_.count(id) > 0 ? allocations_[id] : gpus_per_trial_;
    RecordUsage(gpus, sim_.now() - busy_start_[id]);
    allocations_.erase(id);
    trial.set_state(TrialState::kPending);
    // The node is slow, not dead: unlike the crash path, the trial's
    // *current* progress is checkpointed before the gang is torn down, so
    // mitigation loses no completed iterations (only the save + restart
    // wait, billed to mitigation below and in NoteRestarted).
    trial.SaveCheckpoint();
    const Seconds save = checkpoint_store_.Save(id, workload_.checkpoint_gb);
    report_.straggler_mitigation_seconds += save;
    quarantine_cost += save;
    dragged_iter_seconds +=
        trial.trainer().MeanIterLatency() * static_cast<double>(trial.remaining_iters());
    pending_restart_.push_back(id);
    pending_since_[id] = sim_.now();
    quarantine_pending_.insert(id);
    report_.trace.Record(sim_.now(), TraceEventType::kTrialRestart, current_stage_, id);
  }
  Span("quarantine", sim_.now(), sim_.now() + quarantine_cost, current_stage_, -1, instance);
  if (factor > 1.0) {
    const int gpg = cloud_.profile().gpus_per_instance();
    const int instances_now = std::max(1, manager_.num_ready());  // still includes this one
    Seconds tail_iter_seconds = 0.0;
    for (int s = current_stage_ + 1; s < spec_.num_stages(); ++s) {
      const int stage_gpus = plan_.gpus(s);
      const int gpt = std::max(1, stage_gpus / std::max(1, spec_.stage(s).num_trials));
      const int stage_instances = (stage_gpus + gpg - 1) / gpg;
      const double retained =
          std::min(1.0, static_cast<double>(stage_instances) / instances_now);
      tail_iter_seconds += retained * static_cast<double>(spec_.stage(s).iters_per_trial) *
                           workload_.base_iter_seconds * workload_.true_scaling.LatencyFactor(gpt);
    }
    report_.straggler_slowdown_avoided +=
        (factor - 1.0) * (dragged_iter_seconds + tail_iter_seconds);
  }
  nodes_in_controller_.erase(std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(),
                                       instance));
  // Blacklist + discard: terminated at the source (never parked for reuse).
  manager_.Quarantine(instance);
  NoteReleased(instance);
  if (!manager_.awaiting_scale()) {
    RequestReplacement();
  }
  TryRestartPending();
}

void Executor::OnTrialStageDone(TrialId id) {
  Trial& trial = trials_[static_cast<size_t>(id)];
  trial.set_state(TrialState::kCompleted);
  ++completed_in_stage_;
  if (options_.observe) {
    stage_completed_at_.push_back(sim_.now());
  }
  report_.trace.Record(sim_.now(), TraceEventType::kTrialComplete, current_stage_, id);

  const Seconds busy = sim_.now() - busy_start_[id];
  const int gpus = allocations_.count(id) > 0 ? allocations_[id] : gpus_per_trial_;
  RecordUsage(gpus, busy);

  if (options_.record_throughput) {
    const Seconds training_time = busy - workload_.trial_startup_seconds;
    const int64_t iters = spec_.stage(current_stage_).iters_per_trial;
    if (training_time > 0.0 && iters > 0) {
      report_.trial_throughputs.push_back(static_cast<double>(workload_.batch_size * iters) /
                                          training_time);
    }
  }

  allocations_.erase(id);
  if (!queued_.empty()) {
    const TrialId next = queued_.front();
    queued_.pop_front();
    allocations_[next] = gpus_per_trial_;
    const PlacementResult placed = placement_.Place(allocations_);
    if (!placed.unplaced.empty()) {
      // The freed slot may have been on a since-preempted node; requeue and
      // wait for capacity (the next completion or a replacement instance).
      allocations_.erase(next);
      queued_.push_front(next);
    } else {
      StartTrialOnStage(next, gpus_per_trial_);
      return;
    }
  }

  // Once replacements are exhausted no instance arrival will drain the
  // pending queue, so freed capacity from completions has to.
  if (replacements_exhausted_ && !pending_restart_.empty()) {
    DegradePendingRestarts();
  }

  if (completed_in_stage_ == static_cast<int>(survivors_.size())) {
    const int stage = current_stage_;
    stage_run_end_ = sim_.now();
    if (options_.observe) {
      // How long each survivor idled at the barrier waiting for the last
      // trial (zero for the trial that closed the stage).
      for (const Seconds completed_at : stage_completed_at_) {
        obs::ObserveSeconds(sync_wait_.get(), stage_run_end_ - completed_at);
      }
    }
    sim_.ScheduleIn(workload_.sync_seconds, [this, stage] { Sync(stage); });
    return;
  }

  if (options_.reallocate_freed_resources && queued_.empty()) {
    ReallocateFreedResources();
  }
}

void Executor::ReallocateFreedResources() {
  std::vector<TrialId> running;
  for (const auto& [id, gpus] : allocations_) {
    running.push_back(id);
  }
  if (running.empty()) {
    return;
  }
  const int new_share = GpusPerTrial(stage_gpus_, static_cast<int>(running.size()));
  // Hysteresis: resizing destroys and recreates every running gang (each
  // paying startup again), so only act when the fair share has at least
  // doubled — otherwise completion-by-completion churn thrashes the stage.
  bool worthwhile = false;
  for (TrialId id : running) {
    worthwhile = worthwhile || new_share >= 2 * allocations_[id];
  }
  if (!worthwhile) {
    return;
  }

  // Resize every running gang: checkpoint, settle the finished billing
  // segment, destroy the gang (generation bump inside StartTrialOnStage)
  // and restart at the new size — including a fresh startup cost, which is
  // part of why this policy underdelivers.
  for (TrialId id : running) {
    Trial& trial = trials_[static_cast<size_t>(id)];
    trial.SaveCheckpoint();
    checkpoint_store_.Save(id, workload_.checkpoint_gb);
    RecordUsage(allocations_[id], sim_.now() - busy_start_[id]);
    allocations_[id] = new_share;
  }
  const PlacementResult placed = placement_.Place(allocations_);
  for (TrialId id : running) {
    const bool unplaced =
        std::find(placed.unplaced.begin(), placed.unplaced.end(), id) != placed.unplaced.end();
    if (unplaced) {
      // Could not fit at the larger size (fragmentation); keep it running
      // at one GPU on whatever fits.
      allocations_[id] = 1;
      placement_.Place(allocations_);
    }
    StartTrialOnStage(id, allocations_[id]);
  }
}

void Executor::OnPreemption(InstanceId instance) { OnInstanceLost(instance, false); }

void Executor::OnCrash(InstanceId instance) { OnInstanceLost(instance, true); }

void Executor::OnPreemptionWarning(InstanceId instance) {
  if (finished_) {
    return;
  }
  const bool tracked = std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(),
                                 instance) != nodes_in_controller_.end();
  if (!tracked) {
    return;  // warned before the executor ever used it (mid-scale-up)
  }
  report_.trace.Record(sim_.now(), TraceEventType::kPreemptionWarning, current_stage_, -1,
                       instance);
  // Eagerly checkpoint every running trial whose gang spans the doomed
  // instance, at its *current* progress. The gang keeps training through
  // the warning window (those iterations may still land); when the
  // reclamation arrives, the loss path restores from here, so at most the
  // window's work is redone instead of the whole stage.
  for (const auto& [id, instances] : trial_instances_) {
    if (std::find(instances.begin(), instances.end(), instance) == instances.end()) {
      continue;
    }
    Trial& trial = trials_[static_cast<size_t>(id)];
    if (trial.state() != TrialState::kRunning) {
      continue;
    }
    trial.SaveCheckpoint();
    const Seconds save = checkpoint_store_.Save(id, workload_.checkpoint_gb);
    Span("eager-checkpoint", sim_.now(), sim_.now() + save, current_stage_, id, instance);
    eager_checkpoint_remaining_[id] = trial.remaining_iters();
    ++report_.eager_checkpoints;
  }
}

void Executor::OnInstanceLost(InstanceId instance, bool crashed) {
  if (finished_) {
    return;
  }
  report_.trace.Record(sim_.now(),
                       crashed ? TraceEventType::kInstanceCrash : TraceEventType::kPreemption,
                       current_stage_, -1, instance);
  manager_.OnInstanceLost(instance);
  NoteReleased(instance);
  const bool tracked = std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(),
                                 instance) != nodes_in_controller_.end();
  if (!tracked) {
    // Reclaimed before the executor ever used it (mid-scale-up): the
    // manager already re-requested the lost capacity for its waiter.
    return;
  }
  nodes_in_controller_.erase(
      std::find(nodes_in_controller_.begin(), nodes_in_controller_.end(), instance));

  // Every trial with workers on the lost node loses its gang; roll it
  // back to the stage-start checkpoint and queue it for restart.
  for (TrialId id : placement_.EvictNode(instance)) {
    Trial& trial = trials_[static_cast<size_t>(id)];
    if (trial.state() != TrialState::kRunning) {
      continue;  // already finished its stage work; ranking state is safe
    }
    ++generation_[id];  // invalidate in-flight iteration events
    CancelTrialEvent(id);
    const int gpus = allocations_.count(id) > 0 ? allocations_[id] : gpus_per_trial_;
    RecordUsage(gpus, sim_.now() - busy_start_[id]);
    allocations_.erase(id);
    trial.set_state(TrialState::kPending);
    // Roll back to the newest checkpoint: a warning-window eager save (the
    // trial resumes the remaining work recorded at save time) when one
    // exists, the stage-start boundary checkpoint (full stage redone)
    // otherwise. The difference between the rolled-back-to point and the
    // progress at loss is rework the preemption cost us.
    trial.RestoreFromCheckpoint();
    auto eager = eager_checkpoint_remaining_.find(id);
    const int64_t checkpoint_iters = eager != eager_checkpoint_remaining_.end()
                                         ? eager->second
                                         : spec_.stage(current_stage_).iters_per_trial;
    if (!crashed) {
      const int64_t lost_iters = std::max<int64_t>(0, checkpoint_iters - trial.remaining_iters());
      report_.spot_rework_seconds +=
          static_cast<double>(lost_iters) * trial.trainer().MeanIterLatency();
    }
    trial.AssignStageWork(checkpoint_iters);
    if (eager != eager_checkpoint_remaining_.end()) {
      eager_checkpoint_remaining_.erase(eager);
    }
    pending_restart_.push_back(id);
    pending_since_[id] = sim_.now();
    report_.trace.Record(sim_.now(), TraceEventType::kTrialRestart, current_stage_, id);
  }

  // A reclamation storm just swept the family: replacement capacity (and
  // everything after) goes on-demand rather than back into the blast zone.
  if (!crashed && cloud_.profile().spot.enabled &&
      manager_.market() == Market::kSpot && cloud_.num_storms() > storms_seen_) {
    storms_seen_ = cloud_.num_storms();
    MarketFallback();
  }

  // Ask for a replacement to keep the cluster at the planned size; restart
  // what we can as soon as it arrives (or immediately, if spare capacity
  // remains). While a scale request is outstanding the manager already
  // re-requested the lost capacity, so don't double-provision.
  if (!manager_.awaiting_scale()) {
    RequestReplacement();
  }
  TryRestartPending();
}

void Executor::RequestReplacement() {
  manager_.RequestExtra(1, [this](InstanceId replacement) {
    if (finished_) {
      // The job ended while the replacement was provisioning: release it
      // immediately so it does not sit in the manager billing forever
      // (on a shared cluster it goes back to the pool for the next job).
      manager_.Deprovision({replacement});
      return;
    }
    revival_cycles_ = 0;  // capacity came back; future losses retry afresh
    RegisterNode(replacement);
    TryRestartPending();
  });
}

void Executor::HandleShortfall() {
  if (finished_) {
    return;
  }
  if (manager_.awaiting_scale()) {
    // Stage-boundary scale-up stalled: settle for the size the cluster can
    // actually reach so the stage starts (degraded) instead of hanging.
    manager_.ReduceWaitTarget(std::max(1, manager_.num_ready() + manager_.num_inflight()));
    return;
  }
  // A mid-stage replacement was abandoned: no more capacity is coming, so
  // restart pending trials at whatever gang sizes the survivors can host.
  // That IS a degradation of the running stage — it proceeds below its
  // planned GPUs from here on — so report it like one (at most once per
  // stage, even if several replacement slots are abandoned).
  replacements_exhausted_ = true;
  if (!stage_degradation_reported_) {
    stage_degradation_reported_ = true;
    report_.trace.Record(sim_.now(), TraceEventType::kStageDegraded, current_stage_);
  }
  DegradePendingRestarts();

  // Total capacity loss: nothing is running, nothing is in flight, and
  // work remains. Degrading cannot help — there is no node to shrink onto
  // and no completion event will ever retry — so open a fresh replacement
  // cycle rather than strand the job. Bounded so a permanent provider
  // blackout still drains (and surfaces) instead of retrying forever.
  constexpr int kMaxRevivalCycles = 8;
  if (manager_.num_ready() == 0 && manager_.num_inflight() == 0 &&
      !pending_restart_.empty() && revival_cycles_ < kMaxRevivalCycles) {
    ++revival_cycles_;
    replacements_exhausted_ = false;
    RequestReplacement();
  }
}

void Executor::TryRestartPending() {
  while (!pending_restart_.empty()) {
    const TrialId id = pending_restart_.front();
    allocations_[id] = gpus_per_trial_;
    const PlacementResult placed = placement_.Place(allocations_);
    if (!placed.unplaced.empty()) {
      allocations_.erase(id);
      break;  // no capacity yet; wait for the replacement instance
    }
    pending_restart_.pop_front();
    NoteRestarted(id);
    StartTrialOnStage(id, gpus_per_trial_);
  }
}

void Executor::DegradePendingRestarts() {
  while (!pending_restart_.empty()) {
    const TrialId id = pending_restart_.front();
    // Try the planned gang size first, then progressively halve: a smaller
    // gang trains slower but a pending trial makes no progress at all.
    int gpus = gpus_per_trial_;
    bool fits = false;
    while (gpus >= 1) {
      allocations_[id] = gpus;
      const PlacementResult placed = placement_.Place(allocations_);
      if (placed.unplaced.empty()) {
        fits = true;
        break;
      }
      allocations_.erase(id);
      gpus /= 2;
    }
    if (!fits) {
      return;  // not even one GPU free; the next completion retries
    }
    pending_restart_.pop_front();
    NoteRestarted(id);
    StartTrialOnStage(id, allocations_[id]);
  }
}

Seconds Executor::FetchCheckpoint(TrialId id) {
  constexpr int kMaxFetchAttempts = 3;
  Seconds total = 0.0;
  for (int attempt = 0;; ++attempt) {
    std::optional<Seconds> latency = checkpoint_store_.Fetch(id);
    if (!latency.has_value()) {
      // The store holds no object for this trial (evicted or lost): a
      // recoverable condition — re-serialize from the driver's in-memory
      // replica (the trial itself restored from its last rung boundary)
      // and fetch the fresh object.
      report_.trace.Record(sim_.now(), TraceEventType::kCheckpointRetry, current_stage_, id);
      total += checkpoint_store_.Save(id, workload_.checkpoint_gb);
      latency = checkpoint_store_.Fetch(id);
    }
    total += latency.value();
    if (attempt + 1 >= kMaxFetchAttempts || !checkpoint_faults_.CheckpointFetchFails()) {
      return total;
    }
    // Transfer failed mid-flight: the gang pays the latency again.
    report_.trace.Record(sim_.now(), TraceEventType::kCheckpointRetry, current_stage_, id);
  }
}

void Executor::NoteRestarted(TrialId id) {
  auto it = pending_since_.find(id);
  if (it == pending_since_.end()) {
    return;
  }
  const Seconds waited = sim_.now() - it->second;
  if (quarantine_pending_.erase(id) > 0) {
    report_.straggler_mitigation_seconds += waited;  // mitigation's own bill
  } else {
    report_.recovery_seconds += waited;
  }
  pending_since_.erase(it);
}

void Executor::MaybeReplan(int next_stage) {
  // Gated on an observed fault (a loss, provisioning failure, quarantine or
  // checkpoint retry in the trace): a fault-free run never re-estimates, so
  // enabling re-planning cannot perturb it.
  using T = TraceEventType;
  constexpr T kFaults[] = {T::kProvisionFailure, T::kStragglerQuarantined, T::kPreemption,
                           T::kInstanceCrash, T::kCheckpointRetry};
  if (!options_.replan.enabled || next_stage >= spec_.num_stages() ||
      std::ranges::none_of(kFaults, [this](T type) { return report_.trace.Count(type) > 0; })) {
    return;
  }
  const Seconds remaining = options_.replan.deadline - sim_.now();
  ExperimentSpec rest;
  std::vector<int> tail_gpus;
  for (int s = next_stage; s < spec_.num_stages(); ++s) {
    rest.AddStage(spec_.stage(s).num_trials, spec_.stage(s).iters_per_trial);
    tail_gpus.push_back(plan_.gpus(s));
  }
  PlannerInputs inputs;
  inputs.spec = rest;
  inputs.model = options_.replan.model;
  inputs.cloud = cloud_.profile();
  inputs.deadline = std::max<Seconds>(remaining, 1.0);
  // One evaluator serves both the keep-the-plan check and (if needed) the
  // full re-plan: the tail estimate seeds the plan memo the greedy search
  // then draws from.
  PlanEvaluator evaluator(inputs, options_.replan.planner);
  // If the tail of the original plan still fits the time left, the slack
  // absorbed the fault delay — keep the plan.
  const PlanEstimate estimate = evaluator.Evaluate(AllocationPlan(tail_gpus));
  if (estimate.jct_mean <= remaining) {
    report_.planner_cache += evaluator.stats();
    return;
  }
  // Slack is gone: re-plan the remaining stages against the time actually
  // left (Algorithm 2 over the remaining sub-experiment). An infeasible
  // remainder still yields the fastest plan found — deadline-aware
  // degradation: run as fast as possible rather than stalling.
  const PlannedJob replanned = PlanGreedy(evaluator);
  report_.planner_cache += evaluator.stats();
  for (int s = next_stage; s < spec_.num_stages(); ++s) {
    plan_.gpus(s) = replanned.plan.gpus(s - next_stage);
  }
  Span("plan", sim_.now(), sim_.now(), next_stage);
  report_.trace.Record(sim_.now(), TraceEventType::kReplan, next_stage);
}

void Executor::MarketFallback() {
  if (report_.trace.Count(TraceEventType::kMarketFallback) >= kMaxMarketFallbacks ||
      manager_.market() != Market::kSpot) {
    return;
  }
  manager_.set_market(Market::kOnDemand);
  report_.trace.Record(sim_.now(), TraceEventType::kMarketFallback, current_stage_);
}

void Executor::MaybeSwitchMarket() {
  const SpotMarket& spot = cloud_.profile().spot;
  if (!spot.enabled) {
    return;
  }
  const double price = cloud_.SpotPriceMultiplier();
  if (manager_.market() == Market::kSpot) {
    // Hostile-market check at the stage boundary (the natural reallocation
    // point): a price spike, or realized preemptions far above what the
    // profile's mean time to preemption predicts.
    bool hostile = price >= kFallbackPriceMultiplier;
    if (!hostile && spot.HazardEnabled()) {
      const double expected = sim_.now() / spot.mean_time_to_preemption *
                              std::max(1, manager_.num_ready());
      hostile = static_cast<double>(report_.trace.Count(TraceEventType::kPreemption)) >
                kHazardTolerance * std::max(expected, 1.0);
    }
    if (hostile) {
      MarketFallback();
    }
  } else if (price <= kGiveBackPriceMultiplier) {
    // The market calmed down: future capacity goes back to spot. Absorb
    // any storms/rejections that happened while we were away so stale
    // events cannot immediately re-trigger the fallback.
    manager_.set_market(Market::kSpot);
    storms_seen_ = cloud_.num_storms();
    capacity_rejections_seen_ = cloud_.num_capacity_rejections();
  }
}

void Executor::Sync(int stage) {
  report_.stage_log.back().end = sim_.now();
  report_.trace.Record(sim_.now(), TraceEventType::kSync, stage);
  // The stage-total spans tile [0, JCT]: stage i opens at SYNC(i-1) (stage
  // 0 at t=0) and closes here; StartStage(i+1) runs below at this same
  // instant, and Finish() stamps jct = now after the last SYNC.
  Span("stage-run", training_begin_at_, stage_run_end_, stage);
  Span("sync-barrier", stage_run_end_, sim_.now(), stage);
  Span("stage-total", stage_open_at_, sim_.now(), stage);
  obs::ObserveSeconds(stage_seconds_.get(), sim_.now() - stage_open_at_);

  // Evaluate every trial that ran this stage and rank them.
  for (TrialId id : survivors_) {
    Trial& trial = trials_[static_cast<size_t>(id)];
    trial.set_last_accuracy(trial.trainer().Evaluate());
  }
  std::vector<TrialId> ranked = survivors_;
  std::sort(ranked.begin(), ranked.end(), [this](TrialId a, TrialId b) {
    const double accuracy_a = trials_[static_cast<size_t>(a)].last_accuracy();
    const double accuracy_b = trials_[static_cast<size_t>(b)].last_accuracy();
    return accuracy_a != accuracy_b ? accuracy_a > accuracy_b : a < b;
  });

  if (stage + 1 >= spec_.num_stages()) {
    Finish(stage);
    return;
  }

  // Promote the top performers; terminate the rest.
  const int keep = spec_.stage(stage + 1).num_trials;
  survivors_.assign(ranked.begin(), ranked.begin() + keep);
  for (size_t i = static_cast<size_t>(keep); i < ranked.size(); ++i) {
    trials_[static_cast<size_t>(ranked[i])].set_state(TrialState::kTerminated);
    checkpoint_store_.Evict(ranked[i]);  // free driver memory
    report_.trace.Record(sim_.now(), TraceEventType::kTrialTerminated, stage, ranked[i]);
  }
  // Survivors are checkpointed so their next worker gang (possibly on
  // different instances, at a different size) can restore them.
  for (TrialId id : survivors_) {
    trials_[static_cast<size_t>(id)].SaveCheckpoint();
    trials_[static_cast<size_t>(id)].set_state(TrialState::kPaused);
  }
  // Stage boundaries are also market-choice points: re-decide spot vs
  // on-demand from the observed price and preemption rate before scaling.
  MaybeSwitchMarket();
  // Deadline-aware self-healing: if accumulated fault delay burned the
  // slack, re-plan the remaining stages before committing to the next one.
  MaybeReplan(stage + 1);
  StartStage(stage + 1);
}

void Executor::Finish(int final_stage) {
  (void)final_stage;
  const TrialId best = *std::max_element(
      survivors_.begin(), survivors_.end(), [this](TrialId a, TrialId b) {
        return trials_[static_cast<size_t>(a)].last_accuracy() <
               trials_[static_cast<size_t>(b)].last_accuracy();
      });
  const Trial& winner = trials_[static_cast<size_t>(best)];
  report_.best_accuracy = winner.last_accuracy();
  report_.best_config = winner.config();
  report_.jct = sim_.now();

  // Release the whole cluster and settle the bill.
  placement_.Place({});
  for (InstanceId id : nodes_in_controller_) {
    placement_.RemoveNode(id);
  }
  nodes_in_controller_.clear();
  const std::vector<InstanceId> remaining = manager_.ready_instances();
  manager_.Deprovision(remaining);
  for (InstanceId id : remaining) {
    NoteReleased(id);
    report_.trace.Record(sim_.now(), TraceEventType::kInstanceReleased, final_stage, -1, id);
  }
  // The account may bill other tenants and the warm pool's idle time too,
  // so the report prices this job's attributed slice: per-instance
  // intervals carry their own rate multiplier (spot discount x price
  // trace), per-function records the flat discounted rate. A cluster of one
  // (ExecutePlan) re-settles against the account ledger in on_done_.
  const CloudProfile& profile = cloud_.profile();
  report_.cost = job_meter_.Price(profile.LedgerInstance(), profile.pricing);
  report_.checkpoint_saves = checkpoint_store_.saves();
  report_.checkpoint_fetches = checkpoint_store_.fetches();
  report_.checkpoint_gb_moved = checkpoint_store_.gb_moved();
  // Ground truth for grading: how many stragglers the provider launched.
  // Cloud-wide, so on a multi-tenant cluster this counts every tenant's.
  report_.stragglers_injected = cloud_.num_straggler_instances();
  report_.realized_utilization = job_meter_.Utilization(profile.gpus_per_instance());
  if (profile.spot.enabled) {
    // What this usage would have cost on-demand, minus what it billed:
    // the job's realized spot savings (net of price-trace drift; the
    // rework above is its time-side cost).
    report_.spot_savings =
        job_meter_.PriceAtFullRate(profile.instance, profile.pricing).Total() -
        report_.cost.Total();
  }

  report_.staged_metrics = true;
  report_.spot_metrics = profile.spot.enabled;
  if (options_.observe) {
    report_.metrics.histograms["executor.sync_wait_seconds"] = sync_wait_->Snapshot();
    report_.metrics.histograms["executor.stage_seconds"] = stage_seconds_->Snapshot();
  }
  report_.timeline = std::move(timeline_);
  // Whatever handles remain are stale (their events fired); Cancel no-ops
  // on those, and drops any straggling pending one with the job.
  for (auto& entry : pending_trial_event_) {
    sim_.Cancel(entry.second);
  }
  pending_trial_event_.clear();
  finished_ = true;
  if (on_done_) {
    on_done_(report_);
  }
}

ExecutionReport ExecutePlan(const ExperimentSpec& spec, const AllocationPlan& plan,
                            const WorkloadSpec& workload, const CloudProfile& cloud_profile,
                            const ExecutorOptions& options) {
  Simulation sim(options.seed);
  SimulatedCloud cloud(sim, cloud_profile);
  ClusterContext context;
  context.sim = &sim;
  context.cloud = &cloud;
  context.source = &cloud;
  Executor executor(spec, plan, workload, context, options);
  // The only tenant holds every instance, so losses route unfiltered.
  cloud.SetPreemptionHandler([&](InstanceId id) { executor.OnPreemption(id); });
  cloud.SetCrashHandler([&](InstanceId id) { executor.OnCrash(id); });
  cloud.SetPreemptionWarningHandler([&](InstanceId id) { executor.OnPreemptionWarning(id); });
  cloud.SetPriceChangeHandler([&](double multiplier) { executor.OnPriceChange(multiplier); });

  ExecutionReport* finished = nullptr;
  executor.Start([&](ExecutionReport& report) {
    // Settle at the finish instant, before any late provisioning callback
    // can reach the ledger. The account bills only this job, so its ledger
    // is exact, init-time billing and acquisition minimums included.
    report.cost = cloud.Cost();
    report.realized_utilization = cloud.meter().Utilization(cloud_profile.gpus_per_instance());
    if (cloud_profile.spot.enabled) {
      report.spot_savings = cloud.OnDemandEquivalentCost().Total() - report.cost.Total();
    }
    finished = &report;
  });
  sim.Run();
  if (finished == nullptr) {
    throw std::logic_error("simulation drained without completing the experiment");
  }
  // Export once drained: provisioning callbacks that fire after the finish
  // still append to the trace, and the metrics count the whole trace.
  ExportSumOfOne(cloud, finished);
  // The executor is done, so hand its report (trace, timeline, metrics
  // snapshot) to the caller without a deep copy.
  return std::move(*finished);
}

}  // namespace rubberband
