// Executor: end-to-end elastic execution of a planned experiment (paper
// section 5).
//
// Drives the discrete-event runtime: samples trial configurations from the
// search space, walks the specification stage by stage following the
// allocation plan — scaling the cluster through the cluster manager,
// placing worker gangs through the placement controller, running trial
// iterations (with straggler noise from the synthetic trainer), queueing
// trials when the allocation is smaller than the stage, ranking trials at
// each SYNC barrier and terminating the losers, and checkpoint/restoring
// survivors across stage migrations. Produces the "real" columns of
// Table 2: realized JCT, realized cost (from the provider's billing
// ledger), and the accuracy of the winning configuration.
//
// An executor always joins a ClusterContext: the tuning service runs one
// per job on its shared cluster, and ExecutePlan runs a standalone
// experiment as a cluster of one.

#ifndef SRC_EXECUTOR_EXECUTOR_H_
#define SRC_EXECUTOR_EXECUTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/cloud/simulated_cloud.h"
#include "src/executor/checkpoint_store.h"
#include "src/executor/cluster_manager.h"
#include "src/executor/scheduler.h"
#include "src/executor/straggler_detector.h"
#include "src/executor/trace.h"
#include "src/executor/trial.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/placement/controller.h"
#include "src/planner/evaluator.h"
#include "src/planner/plan.h"
#include "src/planner/planner.h"
#include "src/spec/compile.h"
#include "src/spec/experiment_spec.h"
#include "src/trainer/model_zoo.h"
#include "src/trainer/search_space.h"

namespace rubberband {

// Deadline-aware self-healing: when enabled, the executor checks at every
// stage boundary — once any fault has cost it time — whether the remaining
// stages still fit the deadline under the current plan, and if the
// accumulated fault delay burned the slack, re-plans the remaining stages
// against the time actually left (Algorithm 2 over the remaining
// sub-experiment). An infeasible remainder degrades to the fastest plan
// found (best effort, never silently idle).
struct ReplanPolicy {
  bool enabled = false;
  Seconds deadline = 0.0;  // absolute deadline on the executor's timeline
  ModelProfile model;      // scaling profile the re-planner plans against
  PlannerOptions planner;
};

// Gray-failure handling. Detection watches per-instance iteration latencies
// at gang-sync boundaries (never the injector's ground truth); mitigation
// checkpoints trials off a flagged instance at their *current* progress,
// discards the instance (barred from warm-pool reuse), and restarts the
// trials on a replacement — bounded by an explicit quarantine budget so a
// misbehaving detector cannot thrash the cluster.
struct StragglerPolicy {
  bool detect = false;
  bool mitigate = false;  // implies detection
  // Max instances quarantined per job (mitigation budget).
  int max_quarantines = 4;
};

struct ExecutorOptions {
  uint64_t seed = 0;
  // Table 1 ablation: kScatter disables locality-aware placement.
  PlacementStrategy placement = PlacementStrategy::kPacked;
  // Collect per-trial training throughput samples (Table 1's metric).
  bool record_throughput = false;
  // HyperSched-style policy (paper sections 2.1/3.2): when a trial finishes
  // its stage work early, immediately reallocate the freed GPUs to the
  // trials still running — each survivor is checkpointed, its gang
  // destroyed, and a larger gang created (paying startup again). The paper
  // argues this is worse than deprovisioning: sub-linear scaling means the
  // extra GPUs add little throughput while the instances keep billing.
  bool reallocate_freed_resources = false;
  // Backoff schedule for failed provisioning requests.
  RetryPolicy retry;
  // Mid-experiment re-planning of the remaining stages under faults.
  ReplanPolicy replan;
  // Persistent-straggler detection and checkpoint-based mitigation.
  StragglerPolicy straggler;
  // Where the initial trial configurations come from. The default replays
  // the executor's historical random sampling bit-identically; compiled
  // plans substitute their own source (grid points, custom bounds).
  ConfigSource configs;
  // Timeline spans + latency histograms (the Chrome-trace profile). The
  // trace and the report's counters are always kept; this knob only adds
  // the optional depth. Off by default so existing runs stay bit-identical.
  bool observe = false;
};

struct StageLogEntry {
  int stage = 0;
  int num_trials = 0;
  int gpus = 0;
  int gpus_per_trial = 0;
  int instances = 0;
  int64_t start_cum_iters = 0;  // "epoch range" bounds, as in Table 3
  int64_t end_cum_iters = 0;
  Seconds start = 0.0;
  Seconds end = 0.0;
};

struct ExecutionReport {
  Seconds jct = 0.0;
  CostBreakdown cost;
  double best_accuracy = 0.0;
  HyperparameterConfig best_config;
  std::vector<StageLogEntry> stage_log;
  std::vector<double> trial_throughputs;  // samples/second, per trial-stage
  // Losses, restarts, faults, straggler flags, warnings and market switches
  // are counted from `trace` (Count(type)); the fields below hold what no
  // event records. Spot-market statistics (zero on on-demand runs):
  int eager_checkpoints = 0;     // mid-stage saves taken inside warning windows
  // Training seconds redone because preemptions rolled trials back to a
  // checkpoint (warning-window saves shrink this).
  Seconds spot_rework_seconds = 0.0;
  // Billed cost versus the on-demand counterfactual of the same usage
  // (positive = the spot market paid off despite the rework above).
  Money spot_savings;
  // Cache effectiveness of the fault-replan evaluators (one per replan
  // check); the tuning service folds this into its service-wide metric.
  PlannerCacheStats planner_cache;
  Seconds recovery_seconds = 0.0; // total trial time spent awaiting restart
  // Gray-failure statistics (zero unless stragglers are injected/detected).
  int stragglers_injected = 0;       // instances launched with a slowdown tag
                                     // (cloud-wide: on a multi-tenant cluster
                                     // this counts every tenant's stragglers)
  int64_t straggler_detection_syncs = 0;  // summed syncs-to-flag (latency)
  // Estimated gang time the quarantines saved: each evicted instance's
  // (factor-1) tax over the iterations it would still have hosted — its
  // trials' remaining stage work plus every later stage's per-trial work.
  Seconds straggler_slowdown_avoided = 0.0;
  // What mitigation cost: checkpoint saves plus restart waits it caused.
  Seconds straggler_mitigation_seconds = 0.0;
  // Busy GPU-seconds over provisioned GPU-seconds: the utilization the
  // paper's whole argument is about (elastic plans waste less).
  double realized_utilization = 0.0;
  // Checkpoint-store traffic (saves at stage boundaries, fetches on every
  // gang (re)start).
  int64_t checkpoint_saves = 0;
  int64_t checkpoint_fetches = 0;
  double checkpoint_gb_moved = 0.0;
  // ASHA runs only: configurations sampled, promotions made, and the
  // plan's rungs.
  int64_t asha_configurations_sampled = 0;
  int64_t asha_promotions = 0;
  int asha_rungs = 0;
  // The metric families the fields above and the trace's counts export
  // (JobMetricsSum): a staged executor's executor.* and planner.* (spot.*
  // too on a spot-market cloud), an ASHA engine's asha.* and outcome gauges.
  bool staged_metrics = false;
  bool spot_metrics = false;
  bool asha_metrics = false;
  // Everything the job did, in order; the count of each kind of event.
  ExecutionTrace trace;
  // As the executor finishes: only the observe-mode executor.* histograms,
  // since the cluster's owner sums the fields itself. ExecutePlan's report
  // carries the run's fields, named, beside its own cloud's cloud.* metrics.
  MetricsSnapshot metrics;
  // Phase spans (plan/provision/stage-run/sync/checkpoint/restore/
  // quarantine); empty unless ExecutorOptions::observe.
  Timeline timeline;
};

// Cluster execution context: the timeline and instance provider an
// executor runs on. Many executors (one per tuning job) may share one
// context — the multi-tenant service substrate — and a standalone run is a
// cluster of one (ExecutePlan). The caller owns the simulation, the billing
// account, and the instance source (the cloud itself, or a WarmPool
// recycling instances across jobs), drives the event loop, and routes each
// instance loss, reclamation warning and price change to the executor that
// owns the instance.
struct ClusterContext {
  Simulation* sim = nullptr;
  SimulatedCloud* cloud = nullptr;
  InstanceSource* source = nullptr;
  // Fair-share arbiter hook: the job's current GPU cap, re-read at every
  // stage boundary. Null means uncapped.
  std::function<int()> gpu_cap;
};

class Executor {
 public:
  // Joins the context's timeline and instance source. Use Start(); the
  // context owner drives the simulation.
  Executor(const ExperimentSpec& spec, const AllocationPlan& plan, const WorkloadSpec& workload,
           const ClusterContext& context, const ExecutorOptions& options = {});

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Kicks the experiment off asynchronously; `on_done` fires (on the
  // simulation timeline) when the final stage's barrier completes, with a
  // report that prices only this job's attributed usage. The owner may
  // settle the report in place there (ExecutePlan prices it against the
  // account ledger); it stays the executor's, and late provisioning
  // callbacks may still append trace events to it until the timeline
  // drains.
  void Start(std::function<void(ExecutionReport&)> on_done);

  // Instance-loss entry points — spot preemption and hardware crash follow
  // the same unified recovery path (checkpoint restore + replacement
  // request), differing only in attribution. The context owner routes each
  // loss to the executor holding the instance.
  void OnPreemption(InstanceId instance);
  void OnCrash(InstanceId instance);

  // Reclamation warning: the provider announced it will take `instance`
  // back shortly. Every running trial with workers on it is checkpointed at
  // its *current* progress, so the reclamation (when it lands) rolls back
  // only the warning window instead of the whole stage. The context owner
  // routes each warning to the executor holding the instance.
  void OnPreemptionWarning(InstanceId instance);

  // Spot price change: a SPOT_PRICE_CHANGE trace event carrying the new
  // multiplier.
  void OnPriceChange(double multiplier);

  // True while this job's cluster holds the instance (loss routing).
  bool OwnsInstance(InstanceId instance) const;

  bool finished() const { return finished_; }

  // True once the job is finished AND no in-flight provisioning callback
  // can still fire (nothing pending captures this executor): the owner may
  // destroy it. The tuning service frees quiescent executors as their jobs
  // complete so a 100k-job trace does not hold 100k dead executors.
  bool Quiescent() const {
    return finished_ && !manager_.awaiting_scale() && manager_.num_inflight() == 0;
  }

 private:
  void StartStage(int stage);
  void BeginTraining(int stage);
  void StartTrialOnStage(TrialId id, int gpus);
  void ScheduleNextIteration(TrialId id);
  void OnTrialStageDone(TrialId id);
  void Sync(int stage);
  void Finish(int final_stage);
  void TryRestartPending();
  void ReallocateFreedResources();
  // Unified instance-loss recovery (crash or preemption): roll affected
  // trials back to their checkpoints and request a replacement.
  void OnInstanceLost(InstanceId instance, bool crashed);
  // A provisioning slot was abandoned (retries exhausted): lower the
  // outstanding scale target, or degrade pending restarts to what fits.
  void HandleShortfall();
  // Start a replacement-instance request cycle for a lost node; the
  // arriving instance joins the placement controller and restarts pending
  // trials.
  void RequestReplacement();
  // Restart pending trials at progressively smaller gang sizes once no
  // replacement is coming.
  void DegradePendingRestarts();
  // Fetches a trial's checkpoint, recovering from transfer failures and
  // missing objects; returns the total startup latency paid.
  Seconds FetchCheckpoint(TrialId id);
  // Re-plan the stages from `next_stage` on if fault delay burned the
  // deadline slack (no-op while fault-free or when re-planning is off).
  void MaybeReplan(int next_stage);
  // Stage-boundary market re-choice: fall back to on-demand when the spot
  // price or the realized preemption rate turned hostile; return to spot
  // once the price calms down. No-op unless the profile has a spot market.
  void MaybeSwitchMarket();
  // Point future provisioning at the on-demand market (capacity rejection,
  // storm, or price spike); bounded by kMaxMarketFallbacks (executor.cc).
  void MarketFallback();
  // Billing multiplier of this job's hold of `id` over [acquired, now]:
  // spot discount x the trace's average price for spot instances, 1.0
  // otherwise.
  double HeldMultiplier(InstanceId id, Seconds acquired) const;
  // A trial left `pending_restart_`; attribute its wait to recovery time
  // (or to mitigation time, if quarantine put it there).
  void NoteRestarted(TrialId id);
  // Cancels the trial's in-flight startup/iteration event, if any (gang
  // teardown).
  void CancelTrialEvent(TrialId id);
  // Records the gang's instance list and (when stragglers are injected)
  // hands the trainer its per-worker slowdown factors. Called on every gang
  // (re)creation.
  void SetupGang(TrialId id);
  // Feeds the completed iteration's per-worker latencies to the detector
  // and handles any instance it flags.
  void RecordIterationObservations(TrialId id);
  // The detector condemned an instance: trace/attribute it, then quarantine
  // if mitigation is on and the budget allows.
  void OnStragglerFlagged(InstanceId instance);
  // Checkpoint every trial on the instance at its current progress, discard
  // the instance (blacklisted at the manager, terminated at the source) and
  // restart the trials on replacement capacity.
  void QuarantineInstance(InstanceId instance);
  // The stage's planned allocation clamped to the fair-share cap (snapshot
  // taken at the stage boundary, the paper's natural reallocation point).
  int EffectiveStageGpus(int stage) const;
  int DesiredInstances() const;
  // Billing attribution: busy GPU-seconds to both the account-level meter
  // and this job's own meter.
  void RecordUsage(int gpus, Seconds duration);
  void NoteAcquired(InstanceId id);
  void NoteReleased(InstanceId id);
  // Joins a ready instance to the placement controller and starts its
  // billing interval; false if it is already registered. Both the stage
  // scale-up and the replacement callback may reach the same instance: a
  // replacement that completes a pending scale-up fires the waiter (and
  // BeginTraining) before its own callback runs.
  bool RegisterNode(InstanceId id);
  // Records a phase span on the timeline; no-op unless options_.observe.
  void Span(const char* name, Seconds start, Seconds end, int stage, int trial = -1,
            int64_t instance = -1);

  ExperimentSpec spec_;
  AllocationPlan plan_;
  WorkloadSpec workload_;
  ExecutorOptions options_;

  Simulation& sim_;
  SimulatedCloud& cloud_;
  std::function<int()> gpu_cap_;
  std::function<void(ExecutionReport&)> on_done_;
  // This job's slice of the (possibly shared) billing account: instance
  // time from acquisition to release and busy GPU-seconds. Per-instance
  // init time and acquisition minimums stay on the account-level ledger.
  BillingMeter job_meter_;
  std::map<InstanceId, Seconds> acquired_at_;
  // Market each held instance was acquired on, captured at acquisition:
  // by release-after-loss time the provider has already forgotten the
  // instance, so asking then would misattribute preempted spot capacity.
  std::map<InstanceId, Market> acquired_market_;

  ClusterManager manager_;
  PlacementController placement_;
  CheckpointStore checkpoint_store_;

  std::deque<Trial> trials_;  // indexed by TrialId
  std::vector<TrialId> survivors_;
  std::deque<TrialId> queued_;
  std::map<TrialId, int> allocations_;
  std::map<TrialId, Seconds> busy_start_;
  // Bumped every time a trial's worker gang is (re)created; in-flight
  // iteration events from a destroyed gang check it and become no-ops.
  std::map<TrialId, int> generation_;
  std::deque<TrialId> pending_restart_;
  std::map<TrialId, Seconds> pending_since_;
  // Each running trial's in-flight startup/iteration event. Cancelled when
  // the gang is destroyed (quarantine, instance loss, reallocation), so a
  // torn-down trial's events leave the queue instead of firing as
  // generation-guarded tombstones. The generation check remains the
  // correctness backstop; cancellation is queue hygiene.
  std::map<TrialId, EventHandle> pending_trial_event_;
  std::vector<InstanceId> nodes_in_controller_;

  // Gray-failure detection state. The detector exists only when the policy
  // asks for it; trial_instances_ snapshots each gang's hosting instances
  // at creation (the list observations are attributed to). Trials parked in
  // pending_restart_ by a quarantine are tracked so their wait is billed to
  // mitigation rather than fault recovery.
  std::unique_ptr<StragglerDetector> detector_;
  std::map<TrialId, std::vector<InstanceId>> trial_instances_;
  std::set<TrialId> quarantine_pending_;

  // Spot-survival state. eager_checkpoint_remaining_ records, per trial,
  // the remaining stage iterations at the moment a warning-window save was
  // taken: the loss path restores that much work instead of the whole
  // stage. Cleared at stage boundaries (boundary checkpoints supersede).
  // The *_seen_ counters are snapshots of provider-wide event counts so
  // fallback triggers fire once per new event, not once per observation.
  std::map<TrialId, int64_t> eager_checkpoint_remaining_;
  int storms_seen_ = 0;
  int capacity_rejections_seen_ = 0;

  // Checkpoint-transfer fault stream: seeded from the job seed, so it is
  // independent of the cloud's streams and deterministic per run.
  FaultInjector checkpoint_faults_;
  // Set when a replacement request was abandoned this stage: completions
  // then restart pending trials at degraded sizes instead of waiting for
  // capacity that is not coming.
  bool replacements_exhausted_ = false;
  // A stage is reported degraded at most once, whether it started short
  // (BeginTraining) or lost capacity for good mid-stage (HandleShortfall).
  bool stage_degradation_reported_ = false;
  // Fresh replacement cycles issued after total capacity loss (nothing
  // ready, nothing in flight, work pending). Bounded so a permanent
  // provider blackout still terminates instead of retrying forever.
  int revival_cycles_ = 0;

  int current_stage_ = -1;
  int stage_gpus_ = 0;  // effective (cap-clamped) allocation of the stage
  int gpus_per_trial_ = 1;
  int completed_in_stage_ = 0;
  bool finished_ = false;
  ExecutionReport report_;

  // Components count into report_'s trace and plain fields; names are
  // bound only at export (JobMetricsSum), by the cluster's owner. Latency
  // histograms are null unless options_.observe (profile depth, not report
  // fields).
  std::unique_ptr<Histogram> sync_wait_;
  std::unique_ptr<Histogram> stage_seconds_;

  // Phase-span bookkeeping (observe mode): when the stage opened, when its
  // gangs actually started training, and when its last trial finished (the
  // sync barrier's left edge). stage_completed_at_ remembers each
  // survivor's completion time for the sync-wait histogram.
  Timeline timeline_;
  Seconds stage_open_at_ = 0.0;
  Seconds training_begin_at_ = 0.0;
  Seconds stage_run_end_ = 0.0;
  // Just the completion times: entries only feed the (order-independent)
  // sync-wait histogram, which doesn't care which trial finished when.
  std::vector<Seconds> stage_completed_at_;
};

// Runs the plan as a one-tenant cluster: a fresh simulation and simulated
// cloud built from `cloud_profile`, driven until it drains. The report is
// settled against the cloud's own ledger at the finish instant (exact,
// including init-time billing and acquisition minimums) and carries the
// run's metrics beside the cloud's cloud.* metrics.
ExecutionReport ExecutePlan(const ExperimentSpec& spec, const AllocationPlan& plan,
                            const WorkloadSpec& workload, const CloudProfile& cloud_profile,
                            const ExecutorOptions& options = {});

}  // namespace rubberband

#endif  // SRC_EXECUTOR_EXECUTOR_H_
