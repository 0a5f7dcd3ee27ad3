// Multi-tenant tuning service: a long-running control plane that accepts a
// stream of tuning-job requests and executes them concurrently on one
// shared elastic cluster.
//
// Three mechanisms on top of the single-job pipeline:
//   * admission control — the planner (Algorithm 2) runs at submit time;
//     jobs whose deadline no plan can meet, or whose cheapest feasible plan
//     exceeds their budget, are rejected up front (never silently late).
//     Feasible jobs start immediately when their plan's peak allocation
//     fits in the unreserved capacity, and queue FIFO otherwise; a queued
//     job is re-planned against its remaining time when capacity frees up,
//     and rejected as stale if waiting made the deadline infeasible.
//   * warm-instance reuse — every executor draws machines from one
//     WarmPool, so a finishing job's still-billed instances serve the next
//     job's scale-up with zero queuing/init delay (the Figure 12 tax).
//   * fair sharing — a weighted max-min arbiter caps each running job's
//     cluster slice; executors clamp their per-stage allocations to the cap
//     at stage boundaries. At overcommit 1.0 admission reserves each job's
//     peak, so caps only bind when the operator overcommits capacity.
//
// Everything runs on one discrete-event Simulation, so an entire
// multi-tenant day replays deterministically from a seed. There is one
// timeline and one way to drive it: SubmitLive schedules an arrival the
// moment it is called, AdvanceUntil moves the clock, and Run() drives it
// to the end. Replaying a pre-submitted trace is SubmitLive for every job
// and then Run(); the serving front door interleaves the same calls with
// requests. A run is a pure function of (seed, config, the stamped
// operation sequence), so a journal of SubmitLive/CancelLive/AdvanceUntil
// calls replays bit-identically — the serving snapshot/restore contract.
// A replay that hands SubmitLive the journaled arrival decisions
// reproduces the same run without planning them; in fleet mode only its
// planner-cache counters can read higher (see ServiceRunner).

#ifndef SRC_SERVICE_TUNING_SERVICE_H_
#define SRC_SERVICE_TUNING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cloud/warm_pool.h"
#include "src/executor/asha_engine.h"
#include "src/executor/executor.h"
#include "src/executor/job_metrics.h"
#include "src/model/profiler.h"
#include "src/obs/json.h"
#include "src/planner/evaluator.h"
#include "src/planner/planner.h"
#include "src/service/fair_share.h"
#include "src/spec/compile.h"

namespace rubberband {

// One tenant's request: what to tune, when it arrives, and its SLOs.
struct JobRequest {
  std::string name;
  ExperimentSpec spec;
  WorkloadSpec workload;
  Seconds submit_at = 0.0;  // arrival time on the service timeline
  Seconds deadline = 0.0;   // completion SLO, relative to submission
  Money budget;             // max acceptable predicted cost; <= 0 = unbounded
  double weight = 1.0;      // fair-share weight
  // Per-job retry policy for failed provisioning (backoff schedule and
  // give-up point); the default suits most tenants.
  RetryPolicy retry;
  // Where the executor's initial trial configurations come from. The
  // default replays the executor's historical sampling stream, so requests
  // that never touch this field behave bit-identically to before.
  ConfigSource configs;
  // Set for compiled-ASHA jobs: `spec` is then the planning envelope and
  // execution runs on an AshaEngine instead of a staged Executor.
  std::shared_ptr<const AshaPlan> asha;
};

// A scheduler-level request: a declarative experiment the service compiles
// and admits as one job per compiled unit (a Hyperband experiment becomes
// one job per bracket, all sharing the deadline; every other scheduler
// lowers to a single job).
struct ExperimentRequest {
  std::string name;
  ExperimentIR ir;
  WorkloadSpec workload;
  Seconds submit_at = 0.0;
  Seconds deadline = 0.0;
  Money budget;  // split across units in proportion to their training work
  double weight = 1.0;
  RetryPolicy retry;
};

enum class JobState {
  kPending,             // submitted, arrival not reached yet
  kQueued,              // admitted but waiting for capacity
  kRunning,
  kCompleted,
  kRejectedInfeasible,  // no plan meets the deadline (reported at admission)
  kRejectedOverBudget,  // cheapest feasible plan costs more than the budget
  kRejectedStale,       // queue wait made the deadline infeasible
  kCancelled,           // withdrawn by the tenant before it started
};

std::string ToString(JobState state);

struct JobOutcome {
  std::string name;
  JobState state = JobState::kPending;
  AllocationPlan plan;
  Seconds submitted_at = 0.0;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;
  Seconds queue_wait = 0.0;
  Seconds deadline_at = 0.0;  // absolute
  bool met_deadline = false;
  Seconds jct = 0.0;  // submission -> completion, queue wait included
  Money cost;         // this job's attributed compute cost
  double best_accuracy = 0.0;
  int preemptions = 0;
  // Spot-market attribution (zero when the market is off): warnings routed
  // to this job, its market switches, what the discount saved it against
  // the on-demand counterfactual, and the training it had to redo.
  int preemption_warnings = 0;
  int market_fallbacks = 0;
  Money spot_savings;
  Seconds spot_rework_seconds = 0.0;
  // Fault attribution: what the provider did to this job and what the
  // recovery cost it (per-tenant blast-radius accounting).
  int crashes = 0;
  int trial_restarts = 0;
  int provision_failures = 0;
  int replans = 0;
  Seconds recovery_seconds = 0.0;
  // Gray-failure attribution (zero unless the service's straggler policy
  // and the cloud's injection are enabled).
  int stragglers_detected = 0;
  int stragglers_quarantined = 0;
  int straggler_false_positives = 0;
  Seconds straggler_mitigation_seconds = 0.0;
  // Largest cluster the job actually held — under an overcommitted arbiter
  // this lands below the plan's peak (the cap binding is observable).
  int peak_instances = 0;
  // The job's raw event trace and phase spans (timeline empty unless
  // ServiceConfig::observe); the Chrome exporter draws each job as its own
  // process (pid = job index + 1).
  ExecutionTrace trace;
  Timeline timeline;
};

// One admission decision as planning made it: the plan with its estimate,
// and the planner-cache counters that planning added. The serving journal
// stores it with the submit whose arrival it decided, so recovery applies
// it instead of planning again (ServiceRunner::Open).
struct AdmissionDecision {
  PlannedJob planned;
  PlannerCacheStats cache;

  // Money as integer micros; doubles round-trip through the JSON writer.
  JsonValue ToJson() const;
  // Parses ToJson's form. Returns false with `*error` naming the field
  // that is missing, mistyped or not finite.
  static bool FromJson(const JsonValue& json, AdmissionDecision* decision, std::string* error);
};

struct ServiceConfig {
  CloudProfile cloud;
  // Total GPUs the service provisions across tenants. Admission reserves
  // each running job's plan peak against capacity * overcommit.
  int capacity_gpus = 64;
  // 1.0 = strict reservation (admitted deadlines hold); > 1.0 admits more
  // aggressively and relies on the fair-share arbiter to clamp jobs.
  double overcommit = 1.0;
  WarmPoolConfig warm_pool;  // max_parked = 0 gives the cold baseline
  PlannerOptions planner;
  ProfilerOptions profiler;
  uint64_t seed = 0;
  // Enable each executor's deadline-aware re-planning: once a fault has
  // cost a job time, its remaining stages are re-planned against the time
  // left to its SLO.
  bool replan_on_faults = false;
  // Per-executor persistent-straggler detection/mitigation policy, applied
  // to every tenant (quarantined instances are terminated for real — the
  // warm pool never re-parks known-slow hardware).
  StragglerPolicy straggler;
  // Timeline spans + per-executor latency histograms for every tenant (the
  // Chrome-trace profile). Counters always flow regardless.
  bool observe = false;

  // ---- Fleet-scale knobs (100k-job arrival traces) ---------------------
  // All default off/keep: the small-N service behaves exactly as before.

  // Draw admission/dequeue plans from one PlanEvaluator per distinct
  // (workload, spec) shape instead of one evaluator per job: a fleet of
  // identical tenants plans each shape once and re-plans queued jobs from
  // warm memo caches. Identical plans come out either way (the evaluator is
  // deterministic); only the cache sharing — and therefore the reported
  // planner-cache hit rate — changes, which is why it is opt-in.
  bool share_admission_evaluator = false;
  // Keep each job's raw event trace and timeline in its outcome. Off at
  // fleet scale: 100k retained traces dominate memory.
  bool keep_job_artifacts = true;
  // Publish the per-tenant cost gauge (tenant.<name>.cost_dollars). Off at
  // fleet scale: one registry entry per job name.
  bool per_tenant_metrics = true;
};

struct ServiceReport {
  std::vector<JobOutcome> jobs;
  int completed = 0;
  int rejected = 0;
  int cancelled = 0;        // withdrawn before start
  int in_flight = 0;        // pending/queued/running (interim reports only)
  int deadline_misses = 0;  // admitted jobs that finished late (never silent)
  Seconds makespan = 0.0;   // time of the last job completion
  Seconds mean_queue_wait = 0.0;
  // Exact aggregate from the shared account ledger: every tenant's compute,
  // init time, acquisition minimums, and the pool's parked idle time.
  CostBreakdown total_cost;
  Money cost_per_completed_job;
  int instance_launches = 0;  // real provisioning events (init paid)
  WarmPoolStats warm;
  double aggregate_utilization = 0.0;  // busy GPU-s / provisioned GPU-s
  // Fleet-wide spot-market totals (sums of the per-job attributions; all
  // zero when the spot market is off).
  int total_preemptions = 0;
  int total_preemption_warnings = 0;
  int total_market_fallbacks = 0;
  Money total_spot_savings;
  Seconds total_spot_rework_seconds = 0.0;
  // Fleet-wide fault totals (sums of the per-job attributions).
  int total_crashes = 0;
  int total_provision_failures = 0;
  int total_replans = 0;
  Seconds total_recovery_seconds = 0.0;
  // Fleet-wide gray-failure totals.
  int stragglers_injected = 0;  // instances the provider launched slow
  int total_stragglers_detected = 0;
  int total_stragglers_quarantined = 0;
  int total_straggler_false_positives = 0;
  Seconds total_straggler_mitigation_seconds = 0.0;
  // Aggregate planner-cache effectiveness: per-job admission/dequeue
  // evaluators plus every executor's fault-replan evaluators. The plan hit
  // rate is the fraction of plan estimates the service never had to
  // recompute.
  PlannerCacheStats planner_cache;
  // Fleet-wide registry snapshot: service.* admission/queue metrics,
  // cloud.* provider metrics (the shared registry), and the merged
  // executor.* metrics of every job.
  MetricsSnapshot metrics;
  // Service-level spans ("job", "queue-wait", one pid per job); empty
  // unless ServiceConfig::observe.
  Timeline timeline;
};

class TuningService {
 public:
  explicit TuningService(const ServiceConfig& config);

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  // Schedules one arrival at max(request.submit_at, now()) and returns the
  // job's index. Throws std::invalid_argument for a non-positive deadline,
  // a negative arrival time or an invalid spec. The admission decision
  // lands once the clock passes the arrival time (same-tick submissions
  // admit in submission order). With a journaled `decision` (WAL recovery)
  // the arrival applies it instead of planning: its counters count as
  // planned, and in fleet mode it becomes the arrival-plan memo entry for
  // the job's shape and deadline.
  size_t SubmitLive(JobRequest request, std::optional<AdmissionDecision> decision = {});

  // Compiles `request.ir` and submits one job per compiled unit through
  // SubmitLive (multi-unit experiments suffix each job name with
  // "/<unit>"; the budget splits in proportion to unit work), and returns
  // the submitted job indices in unit order. A sha experiment submitted
  // this way is indistinguishable from the equivalent SubmitLive.
  std::vector<size_t> SubmitExperiment(const ExperimentRequest& request);

  // Drives the timeline to the end (FinishLive) and returns the settled
  // report. The service stays usable: a later submit starts a new stretch
  // of the same timeline, and the next Run() settles it too.
  ServiceReport Run();

  // Does nothing: every service is live from its constructor. Kept only
  // because perfbench/src/main.cc still calls it.
  void StartLive() {}

  // Runs events up to `until` (capping work at `max_events` when nonzero;
  // an early stop still finishes the same-timestamp group) and returns the
  // number of events processed.
  size_t AdvanceUntil(Seconds until, size_t max_events = 0);

  // Withdraws a job that has not started (pending or queued). Returns
  // false with `*error` set when the job is running or already settled.
  bool CancelLive(size_t index, std::string* error);

  // Runs the simulation to quiescence: every scheduled arrival served,
  // every admitted job finished, and every parked instance expired.
  void FinishLive();

  // True when nothing is running, queued, or scheduled to arrive.
  bool LiveIdle() const { return running_ == 0 && queue_.empty() && arrivals_outstanding_ == 0; }
  bool HasPendingEvents() const { return !sim_.queue().empty(); }
  Seconds now() const { return sim_.now(); }

  size_t num_jobs() const { return jobs_.size(); }
  const JobOutcome& outcome(size_t index) const { return jobs_.at(index).outcome; }
  const PlannedJob& planned(size_t index) const { return jobs_.at(index).planned; }
  const JobRequest& request(size_t index) const { return jobs_.at(index).request; }
  // The job's arrival decision, for the journal: set only once the arrival
  // was decided by planning (not by the fleet arrival-plan memo or a
  // journaled decision) and the job did not queue. A queued job's dequeue
  // re-plan reads the evaluator its arrival planning warmed.
  std::optional<AdmissionDecision> ArrivalDecision(size_t index) const;
  // Current fair-share cap (recomputes lazily if membership changed).
  int share_cap(size_t index) {
    EnsureShares();
    return jobs_.at(index).share_cap;
  }
  // Index of the most recent job submitted under `name`; npos when unknown.
  static constexpr size_t kNoJob = static_cast<size_t>(-1);
  size_t FindJob(const std::string& name) const;

  // Fleet metrics right now: the service registry plus the fleet sum of
  // every finished job. planner.* reads as of the last report: a report
  // publishes the planner-cache totals into the registry.
  MetricsSnapshot MetricsNow() const;

  // Report as of now; unsettled jobs are reported in their current state
  // instead of throwing. Callable repeatedly.
  ServiceReport SnapshotReport();

 private:
  // A job's shape as fleet mode keys its shared evaluator: the workload,
  // the stages, and whether an ASHA engine runs it (an envelope shaped
  // like a plain SHA job must not inherit its memoized greedy plan).
  struct ShapeKey {
    bool asha = false;
    std::string workload;
    std::vector<Stage> stages;
    auto operator<=>(const ShapeKey&) const = default;
  };
  // The arrival-plan memo key: a shape and the exact bits of the deadline.
  // Deadlines a hair apart are different planning problems, and a plan
  // that just meets one can miss the other.
  using ArrivalKey = std::pair<ShapeKey, uint64_t>;
  static ArrivalKey ArrivalKeyOf(const JobRequest& request);

  struct Job {
    JobRequest request;
    JobOutcome outcome;
    PlannedJob planned;
    std::unique_ptr<Executor> executor;
    // Exactly one of executor / asha_engine runs a started job; ASHA jobs
    // (request.asha set) execute rung events instead of gang barriers.
    std::unique_ptr<AshaEngine> asha_engine;
    // One evaluator per job from arrival until the job starts, is rejected
    // or is cancelled: dequeue re-planning only moves the deadline, so
    // every stage simulation and plan memo entry from admission is reused
    // verbatim. RetireEvaluator then frees it and folds its stats into
    // retired_cache_.
    std::unique_ptr<PlanEvaluator> evaluator;
    // The planner-cache counters of the arrival's decision: what planning
    // it added, or what the journaled decision carries.
    PlannerCacheStats arrival_cache;
    // `planned` holds a journaled decision for OnArrival to apply.
    bool journaled = false;
    // The arrival was decided by planning and did not queue.
    bool arrival_journalable = false;
    int share_cap = 0;  // current fair-share GPU cap
  };

  ServiceReport BuildReport(bool require_settled);
  void OnArrival(size_t index);
  void StartJob(size_t index);
  void OnJobDone(size_t index, const ExecutionReport& report);
  void PumpQueue();
  // Lazily recomputes fair-share caps if the running set changed since the
  // last read. While the running jobs' demands (reserved_gpus_) fit in
  // capacity, weighted max-min gives every job its whole demand, so a start
  // only sets the newcomer's cap and a finish changes nothing. Otherwise
  // start/finish flip a dirty flag (a completion burst re-arbitrates once,
  // not once per event) and the recompute runs FairShares over the running
  // set, so the caps any reader observes equal the eager per-event values.
  void EnsureShares();
  // The job's claim on the fair share: its plan's peak, at its weight.
  static ShareRequest ShareRequestOf(const Job& job);
  // Frees executors retired on earlier events (never the one whose
  // completion callback is on the stack right now).
  void SweepRetiredExecutors();
  // Overlays the DES kernel's intrinsic counters (sim.events.*, queue
  // depth, callback heap fallbacks) onto a registry snapshot so kernel
  // throughput shows up in --metrics-json without per-event registry costs.
  void InjectSimStats(MetricsSnapshot* snapshot) const;
  // Routes a provider-initiated instance loss (spot reclamation or hardware
  // crash) to the pool or the owning tenant's executor.
  void RouteInstanceLoss(InstanceId id, bool crashed);
  // Routes a reclamation warning: a parked instance leaves the pool (no
  // point holding doomed capacity warm); a held one reaches its tenant's
  // executor for an eager checkpoint.
  void RouteWarning(InstanceId id);
  const ModelProfile& ProfileFor(const WorkloadSpec& workload);
  std::unique_ptr<PlanEvaluator> MakeEvaluator(const JobRequest& request, Seconds deadline);
  // Plans `job` against `time_left`, returning the plan with the cache
  // counters the planning added. `*memo_hit` (when given) reports whether
  // the fleet arrival-plan memo served it without planning.
  AdmissionDecision PlanFor(Job& job, Seconds time_left, bool* memo_hit = nullptr);
  void RetireEvaluator(Job& job);
  int ReservationLimit() const;

  ServiceConfig config_;
  Simulation sim_;
  // Declared before the cloud/pool so the shared registry outlives (and is
  // constructible before) the components recording into it.
  MetricsRegistry metrics_;
  MetricsScope svc_;  // "service." scope over metrics_
  SimulatedCloud cloud_;
  WarmPool pool_;
  // Every finished job's report, added in completion order; the names are
  // bound only when a report or MetricsNow exports the sum. It leaves out
  // the planner.* family: the executors' fault-replan statistics reach the
  // registry's planner.* through retired_cache_ instead.
  JobMetricsSum fleet_metrics_{/*planner_metrics=*/false};
  Timeline timeline_;
  std::vector<Job> jobs_;
  std::deque<size_t> queue_;
  std::map<std::string, ModelProfile> profiles_;  // keyed by workload name
  std::map<std::string, size_t> index_by_name_;   // latest submission wins
  // Cached service.* registry handles: per-event GetCounter string lookups
  // were a measurable control-plane cost at fleet scale.
  struct SvcHandles {
    Counter* arrived = nullptr;
    Counter* admitted = nullptr;
    Counter* completed = nullptr;
    Counter* queued = nullptr;
    Counter* rejected_infeasible = nullptr;
    Counter* rejected_over_budget = nullptr;
    Counter* cancelled = nullptr;
    Counter* deadline_misses = nullptr;
    Histogram* queue_wait = nullptr;
  };
  SvcHandles h_;
  // Fair-share state: indices of RUNNING jobs in ascending order (the same
  // order the eager full scan visited them) plus the dirty flag; while it is
  // clear, every running job's share_cap is FairShares' current answer.
  std::vector<size_t> running_set_;
  bool shares_dirty_ = false;
  // The evaluators' shared planner pool, alive while any evaluator holds it.
  std::weak_ptr<ThreadPool> planner_pool_;
  // Pooled admission evaluators, keyed by shape
  // (ServiceConfig::share_admission_evaluator).
  std::map<ShapeKey, std::unique_ptr<PlanEvaluator>> shared_evaluators_;
  // Memoized arrival-time planning decisions: two jobs with the same shape
  // and the same full deadline get the same plan, so a fleet of identical
  // tenants runs the greedy planner once, not 100k times. Dequeue re-plans
  // (time_left < deadline, unbounded distinct values) bypass this cache and
  // go to the shared evaluator's warm memos instead.
  std::map<ArrivalKey, PlannedJob> admission_plans_;
  // Completed jobs whose executors await the deferred free.
  std::vector<size_t> retired_executors_;
  // EventCallback heap fallbacks at construction (the sim.* injection
  // reports this service's delta, not the process-wide total).
  int64_t heap_fallback_baseline_ = 0;
  // Summed from retired job evaluators, finished executors and applied
  // journaled decisions.
  PlannerCacheStats retired_cache_;
  // Cache counters already pushed to the registry: repeated SnapshotReport
  // calls publish only the delta (the registry counters accumulate).
  PlannerCacheStats published_cache_;
  int reserved_gpus_ = 0;
  int running_ = 0;
  int arrivals_outstanding_ = 0;
  Seconds makespan_ = 0.0;
};

}  // namespace rubberband

#endif  // SRC_SERVICE_TUNING_SERVICE_H_
