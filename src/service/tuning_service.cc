#include "src/service/tuning_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/service/fair_share.h"

namespace rubberband {

std::string ToString(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "PENDING";
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kCompleted:
      return "COMPLETED";
    case JobState::kRejectedInfeasible:
      return "REJECTED_INFEASIBLE";
    case JobState::kRejectedOverBudget:
      return "REJECTED_OVER_BUDGET";
    case JobState::kRejectedStale:
      return "REJECTED_STALE";
    case JobState::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

namespace {

// The cache counters and their JSON names, for AdmissionDecision.
constexpr std::pair<const char*, int64_t PlannerCacheStats::*> kCacheFields[] = {
    {"plan_evaluations", &PlannerCacheStats::plan_evaluations},
    {"plan_memo_hits", &PlannerCacheStats::plan_memo_hits},
    {"stage_evaluations", &PlannerCacheStats::stage_evaluations},
    {"stage_cache_hits", &PlannerCacheStats::stage_cache_hits},
};

JsonValue Num(double value) { return JsonValue::MakeNumber(value); }
JsonValue Micros(Money money) { return Num(static_cast<double>(money.micros())); }

// Reads `value`, the decision's field `name`, as a finite number;
// `integral` also refuses fractions and magnitudes past 2^53, where
// doubles stop holding every integer.
bool ReadNumber(const JsonValue& value, const std::string& name, bool integral, double* out,
                std::string* error) {
  const double number = value.number();
  if (!value.is_number() || !std::isfinite(number) ||
      (integral && (number != std::floor(number) || std::fabs(number) > 0x1p53))) {
    *error = "decision field '" + name + "' is missing or not a finite " +
             (integral ? "integer" : "number");
    return false;
  }
  *out = number;
  return true;
}

// `json[key]`, or null when `json` is no object or lacks `key`.
const JsonValue& Field(const JsonValue& json, const std::string& key) {
  static const JsonValue kMissing;
  return json.is_object() && json.Has(key) ? json.at(key) : kMissing;
}

}  // namespace

JsonValue AdmissionDecision::ToJson() const {
  JsonValue plan = JsonValue::MakeArray();
  for (const int gpus : planned.plan.stage_gpus()) {
    plan.Append(Num(gpus));
  }
  const PlanEstimate& estimate = planned.estimate;
  JsonValue json = JsonValue::MakeObject();
  json.Set("plan", std::move(plan));
  json.Set("jct_mean_s", Num(estimate.jct_mean));
  json.Set("jct_stddev_s", Num(estimate.jct_stddev));
  json.Set("cost_mean_micros", Micros(estimate.cost_mean));
  json.Set("compute_cost_mean_micros", Micros(estimate.compute_cost_mean));
  json.Set("data_cost_mean_micros", Micros(estimate.data_cost_mean));
  json.Set("cost_stddev_dollars", Num(estimate.cost_stddev_dollars));
  json.Set("planner", JsonValue::MakeString(planned.planner));
  json.Set("feasible", JsonValue::MakeBool(planned.feasible));
  JsonValue counters = JsonValue::MakeObject();
  for (const auto& [name, field] : kCacheFields) {
    counters.Set(name, Num(static_cast<double>(cache.*field)));
  }
  json.Set("cache", std::move(counters));
  return json;
}

bool AdmissionDecision::FromJson(const JsonValue& json, AdmissionDecision* decision,
                                 std::string* error) {
  if (!Field(json, "plan").is_array()) {
    *error = "decision field 'plan' is missing or not an array";
    return false;
  }
  AdmissionDecision parsed;
  double value = 0.0;
  std::vector<int> stage_gpus;
  for (const JsonValue& gpus : json.at("plan").array()) {
    if (!ReadNumber(gpus, "plan", /*integral=*/true, &value, error)) {
      return false;
    }
    if (std::fabs(value) > std::numeric_limits<int>::max()) {
      *error = "decision field 'plan' holds a GPU count past the int range";
      return false;
    }
    stage_gpus.push_back(static_cast<int>(value));
  }
  parsed.planned.plan = AllocationPlan(std::move(stage_gpus));
  PlanEstimate& estimate = parsed.planned.estimate;
  const std::pair<const char*, double*> doubles[] = {
      {"jct_mean_s", &estimate.jct_mean},
      {"jct_stddev_s", &estimate.jct_stddev},
      {"cost_stddev_dollars", &estimate.cost_stddev_dollars}};
  for (const auto& [key, field] : doubles) {
    if (!ReadNumber(Field(json, key), key, /*integral=*/false, field, error)) {
      return false;
    }
  }
  const std::pair<const char*, Money*> money[] = {
      {"cost_mean_micros", &estimate.cost_mean},
      {"compute_cost_mean_micros", &estimate.compute_cost_mean},
      {"data_cost_mean_micros", &estimate.data_cost_mean}};
  for (const auto& [key, field] : money) {
    if (!ReadNumber(Field(json, key), key, /*integral=*/true, &value, error)) {
      return false;
    }
    *field = Money::FromMicros(static_cast<int64_t>(value));
  }
  for (const auto& [key, field] : kCacheFields) {
    if (!ReadNumber(Field(Field(json, "cache"), key), key, /*integral=*/true, &value, error)) {
      return false;
    }
    parsed.cache.*field = static_cast<int64_t>(value);
  }
  const JsonValue& planner = Field(json, "planner");
  const JsonValue& feasible = Field(json, "feasible");
  if (!planner.is_string() || !feasible.is_bool()) {
    *error = "decision fields 'planner' and 'feasible' must be a string and a bool";
    return false;
  }
  parsed.planned.planner = planner.string();
  parsed.planned.feasible = feasible.bool_value();
  *decision = std::move(parsed);
  return true;
}

TuningService::TuningService(const ServiceConfig& config)
    : config_(config), sim_(config.seed), svc_(&metrics_, "service"),
      cloud_(sim_, config.cloud, &metrics_), pool_(sim_, cloud_, config.warm_pool, &metrics_) {
  if (config_.capacity_gpus < config_.cloud.gpus_per_instance()) {
    throw std::invalid_argument("service capacity is smaller than one instance");
  }
  h_.arrived = svc_.GetCounter("jobs_arrived");
  h_.admitted = svc_.GetCounter("jobs_admitted");
  h_.completed = svc_.GetCounter("jobs_completed");
  h_.queued = svc_.GetCounter("jobs_queued");
  h_.rejected_infeasible = svc_.GetCounter("jobs_rejected_infeasible");
  h_.rejected_over_budget = svc_.GetCounter("jobs_rejected_over_budget");
  h_.cancelled = svc_.GetCounter("jobs_cancelled");
  h_.deadline_misses = svc_.GetCounter("deadline_misses");
  h_.queue_wait = svc_.GetHistogram("queue_wait_seconds");
  // planner.* exists from the start, so MetricsNow before the first report
  // reads zeros rather than nothing.
  PublishCacheStats(PlannerCacheStats{}, metrics_.scope("planner"));
  heap_fallback_baseline_ = EventCallback::HeapConstructions();
  cloud_.SetPreemptionHandler([this](InstanceId id) { RouteInstanceLoss(id, false); });
  cloud_.SetCrashHandler([this](InstanceId id) { RouteInstanceLoss(id, true); });
  cloud_.SetPreemptionWarningHandler([this](InstanceId id) { RouteWarning(id); });
}

std::vector<size_t> TuningService::SubmitExperiment(const ExperimentRequest& request) {
  const CompiledPlan compiled = CompileExperiment(request.ir);
  const int64_t total_work = compiled.TotalWork();
  std::vector<size_t> indices;
  indices.reserve(compiled.units.size());
  for (const CompiledUnit& unit : compiled.units) {
    JobRequest job;
    // A single-unit experiment keeps the tenant's name verbatim, so a sha
    // experiment is indistinguishable from the equivalent plain SubmitLive.
    job.name = compiled.units.size() > 1 ? request.name + "/" + unit.name : request.name;
    job.spec = unit.spec;
    job.workload = request.workload;
    job.submit_at = request.submit_at;
    job.deadline = request.deadline;
    if (request.budget.dollars() > 0.0 && total_work > 0) {
      job.budget = Money::FromDollars(request.budget.dollars() *
                                      static_cast<double>(unit.spec.TotalWork()) /
                                      static_cast<double>(total_work));
    }
    job.weight = request.weight;
    job.retry = request.retry;
    job.configs = unit.configs;
    job.asha = compiled.asha;
    indices.push_back(SubmitLive(std::move(job)));
  }
  return indices;
}

size_t TuningService::FindJob(const std::string& name) const {
  const auto it = index_by_name_.find(name);
  return it == index_by_name_.end() ? kNoJob : it->second;
}

int TuningService::ReservationLimit() const {
  return static_cast<int>(config_.capacity_gpus * std::max(1.0, config_.overcommit));
}

TuningService::ArrivalKey TuningService::ArrivalKeyOf(const JobRequest& request) {
  return {ShapeKey{request.asha != nullptr, request.workload.name, request.spec.stages()},
          std::bit_cast<uint64_t>(request.deadline)};
}

const ModelProfile& TuningService::ProfileFor(const WorkloadSpec& workload) {
  auto it = profiles_.find(workload.name);
  if (it == profiles_.end()) {
    ProfilerOptions options = config_.profiler;
    options.seed = config_.seed;
    it = profiles_.emplace(workload.name, ProfileWorkload(workload, options).profile).first;
  }
  return it->second;
}

std::unique_ptr<PlanEvaluator> TuningService::MakeEvaluator(const JobRequest& request,
                                                            Seconds deadline) {
  PlannerOptions options = config_.planner;
  options.max_total_gpus = std::min(options.max_total_gpus, config_.capacity_gpus);
  // Every evaluator plans on the one service thread, so they take turns on
  // one pool: eval_threads - 1 workers in all, however many evaluators are
  // alive, freed when the last of them is.
  std::shared_ptr<ThreadPool> pool = planner_pool_.lock();
  if (pool == nullptr && options.eval_threads > 1) {
    pool = std::make_shared<ThreadPool>(options.eval_threads);
    planner_pool_ = pool;
  }
  const PlannerInputs inputs{request.spec, ProfileFor(request.workload), config_.cloud, deadline};
  return std::make_unique<PlanEvaluator>(inputs, options, std::move(pool));
}

AdmissionDecision TuningService::PlanFor(Job& job, Seconds time_left, bool* memo_hit) {
  // ASHA jobs plan their envelope *statically*: the engine executes on a
  // fixed worker pool whose size the plan's peak chooses, so an elastic
  // per-stage schedule would promise scaling the engine never does.
  const bool asha = job.request.asha != nullptr;
  AdmissionDecision decision;
  if (memo_hit != nullptr) {
    *memo_hit = false;
  }
  if (config_.share_admission_evaluator) {
    // Fleet mode: all jobs with this (workload, spec) shape plan through
    // one evaluator — the first arrival pays the stage simulations, every
    // later arrival and queued-job re-plan is memo hits. Deadlines differ
    // per call, but the plan memo is keyed by allocation, not deadline, so
    // the caches survive set_deadline (the same property the per-job
    // dequeue re-plan has always relied on).
    ArrivalKey arrival = ArrivalKeyOf(job.request);
    const ShapeKey& key = arrival.first;
    const bool at_arrival = time_left == job.request.deadline;
    if (at_arrival) {
      // Arrival-time planning is a pure function of (shape, deadline):
      // memoize the whole decision, not just the evaluator caches.
      const auto cached = admission_plans_.find(arrival);
      if (cached != admission_plans_.end()) {
        if (memo_hit != nullptr) {
          *memo_hit = true;
        }
        decision.planned = cached->second;
        return decision;
      }
    }
    auto it = shared_evaluators_.find(key);
    if (it == shared_evaluators_.end()) {
      it = shared_evaluators_.emplace(key, MakeEvaluator(job.request, time_left)).first;
    } else {
      it->second->set_deadline(time_left);
      decision.cache -= it->second->stats();
    }
    decision.planned = asha ? PlanStatic(*it->second) : PlanGreedy(*it->second);
    decision.cache += it->second->stats();
    if (at_arrival) {
      admission_plans_.emplace(std::move(arrival), decision.planned);
    }
    return decision;
  }
  if (job.evaluator == nullptr) {
    job.evaluator = MakeEvaluator(job.request, time_left);
  } else {
    // Re-plan (dequeue after queueing): only the deadline moved, so the
    // evaluator's caches stay valid and the search is mostly memo hits.
    job.evaluator->set_deadline(time_left);
    decision.cache -= job.evaluator->stats();
  }
  decision.planned = asha ? PlanStatic(*job.evaluator) : PlanGreedy(*job.evaluator);
  decision.cache += job.evaluator->stats();
  return decision;
}

void TuningService::RetireEvaluator(Job& job) {
  if (job.evaluator != nullptr) {
    retired_cache_ += job.evaluator->stats();
    job.evaluator.reset();
  }
}

void TuningService::OnArrival(size_t index) {
  SweepRetiredExecutors();
  --arrivals_outstanding_;
  Job& job = jobs_[index];
  if (job.outcome.state == JobState::kCancelled) {
    return;  // withdrawn before the arrival event fired
  }
  obs::Inc(h_.arrived);
  if (job.journaled) {
    // Recovery: the journal holds what planning decided here before; apply
    // it, count its planning as done, and serve later same-shape arrivals
    // from the memo exactly as the planned run did.
    retired_cache_ += job.arrival_cache;
    if (config_.share_admission_evaluator) {
      admission_plans_.emplace(ArrivalKeyOf(job.request), job.planned);
    }
  } else {
    bool memo_hit = false;
    AdmissionDecision decision = PlanFor(job, job.request.deadline, &memo_hit);
    job.planned = std::move(decision.planned);
    job.arrival_cache = decision.cache;
    job.arrival_journalable = !memo_hit;
  }
  job.outcome.plan = job.planned.plan;
  if (!job.planned.feasible) {
    job.outcome.state = JobState::kRejectedInfeasible;
    obs::Inc(h_.rejected_infeasible);
    RetireEvaluator(job);
    return;
  }
  if (job.request.budget.dollars() > 0.0 &&
      job.planned.estimate.cost_mean.dollars() > job.request.budget.dollars()) {
    job.outcome.state = JobState::kRejectedOverBudget;
    obs::Inc(h_.rejected_over_budget);
    RetireEvaluator(job);
    return;
  }
  if (reserved_gpus_ + job.planned.plan.MaxGpus() <= ReservationLimit()) {
    StartJob(index);
  } else {
    job.outcome.state = JobState::kQueued;
    job.arrival_journalable = false;
    obs::Inc(h_.queued);
    queue_.push_back(index);
  }
}

std::optional<AdmissionDecision> TuningService::ArrivalDecision(size_t index) const {
  const Job& job = jobs_.at(index);
  if (!job.arrival_journalable) {
    return std::nullopt;
  }
  return AdmissionDecision{job.planned, job.arrival_cache};
}

void TuningService::StartJob(size_t index) {
  Job& job = jobs_[index];
  RetireEvaluator(job);
  job.outcome.state = JobState::kRunning;
  job.outcome.started_at = sim_.now();
  job.outcome.queue_wait = sim_.now() - job.outcome.submitted_at;
  obs::Inc(h_.admitted);
  obs::ObserveSeconds(h_.queue_wait, job.outcome.queue_wait);
  reserved_gpus_ += job.planned.plan.MaxGpus();
  ++running_;
  running_set_.insert(std::lower_bound(running_set_.begin(), running_set_.end(), index), index);
  if (!shares_dirty_ && reserved_gpus_ <= config_.capacity_gpus) {
    // Every running job already holds its whole demand and the newcomer
    // fits beside them: only the newcomer's cap changes.
    job.share_cap = UncontendedShare(ShareRequestOf(job));
  } else {
    shares_dirty_ = true;
  }

  ClusterContext context;
  context.sim = &sim_;
  context.cloud = &cloud_;
  context.source = &pool_;
  context.gpu_cap = [this, index] {
    EnsureShares();
    return jobs_[index].share_cap;
  };

  if (job.request.asha != nullptr) {
    // Compiled ASHA: rung events on a fixed worker pool sized from the
    // envelope's static plan, sharing the service's cloud and warm pool.
    AshaEngineOptions engine_options;
    engine_options.num_workers =
        std::max(1, job.planned.plan.MaxGpus() / job.request.asha->gpus_per_trial);
    engine_options.seed = config_.seed + 1000003 * (static_cast<uint64_t>(index) + 1);
    engine_options.observe = config_.observe;
    job.asha_engine = std::make_unique<AshaEngine>(*job.request.asha, job.request.workload,
                                                   context, engine_options);
    job.asha_engine->Start(
        [this, index](const ExecutionReport& report) { OnJobDone(index, report); });
    return;
  }

  ExecutorOptions options;
  options.seed = config_.seed + 1000003 * (static_cast<uint64_t>(index) + 1);
  options.retry = job.request.retry;
  options.straggler = config_.straggler;
  options.observe = config_.observe;
  options.configs = job.request.configs;
  if (config_.replan_on_faults) {
    options.replan.enabled = true;
    options.replan.deadline = job.outcome.deadline_at;
    options.replan.model = ProfileFor(job.request.workload);
    options.replan.planner = config_.planner;
    options.replan.planner.max_total_gpus =
        std::min(config_.planner.max_total_gpus, config_.capacity_gpus);
  }

  // The newcomer's cap lands before the executor reads it in StartStage:
  // the gpu_cap hook recomputes the dirty shares on first read.
  job.executor = std::make_unique<Executor>(job.request.spec, job.planned.plan,
                                            job.request.workload, context, options);
  job.executor->Start([this, index](const ExecutionReport& report) { OnJobDone(index, report); });
}

void TuningService::OnJobDone(size_t index, const ExecutionReport& report) {
  SweepRetiredExecutors();  // frees executors retired on earlier events
  Job& job = jobs_[index];
  job.outcome.state = JobState::kCompleted;
  job.outcome.finished_at = sim_.now();
  job.outcome.jct = sim_.now() - job.outcome.submitted_at;
  job.outcome.met_deadline = sim_.now() <= job.outcome.deadline_at + 1e-9;
  job.outcome.cost = report.cost.Total();
  job.outcome.best_accuracy = report.best_accuracy;
  const ExecutionTrace& trace = report.trace;
  job.outcome.preemptions = trace.Count(TraceEventType::kPreemption);
  job.outcome.preemption_warnings = trace.Count(TraceEventType::kPreemptionWarning);
  job.outcome.market_fallbacks = trace.Count(TraceEventType::kMarketFallback);
  job.outcome.spot_savings = report.spot_savings;
  job.outcome.spot_rework_seconds = report.spot_rework_seconds;
  job.outcome.crashes = trace.Count(TraceEventType::kInstanceCrash);
  job.outcome.trial_restarts = trace.Count(TraceEventType::kTrialRestart);
  job.outcome.provision_failures = trace.Count(TraceEventType::kProvisionFailure);
  job.outcome.replans = trace.Count(TraceEventType::kReplan);
  job.outcome.recovery_seconds = report.recovery_seconds;
  job.outcome.stragglers_detected = trace.Count(TraceEventType::kStragglerDetected);
  job.outcome.stragglers_quarantined = trace.Count(TraceEventType::kStragglerQuarantined);
  job.outcome.straggler_false_positives = trace.Count(TraceEventType::kStragglerFalsePositive);
  job.outcome.straggler_mitigation_seconds = report.straggler_mitigation_seconds;
  retired_cache_ += report.planner_cache;
  for (const StageLogEntry& stage : report.stage_log) {
    job.outcome.peak_instances = std::max(job.outcome.peak_instances, stage.instances);
  }
  makespan_ = std::max(makespan_, sim_.now());

  obs::Inc(h_.completed);
  if (!job.outcome.met_deadline) {
    obs::Inc(h_.deadline_misses);
  }
  if (config_.per_tenant_metrics) {
    obs::Set(svc_.GetGauge("tenant." + job.outcome.name + ".cost_dollars"),
             job.outcome.cost.dollars());
  }
  // Add this job's counters into the fleet sum (completion order: the
  // double gauges depend on it), and keep its trace/timeline for the
  // per-process Chrome export.
  fleet_metrics_.Add(report);
  if (config_.keep_job_artifacts) {
    job.outcome.trace = report.trace;
    job.outcome.timeline = report.timeline;
  }
  if (config_.observe) {
    const int pid = static_cast<int>(index) + 1;
    timeline_.Record(TimelineSpan{"queue-wait", "service", job.outcome.submitted_at,
                                  job.outcome.started_at, pid});
    timeline_.Record(
        TimelineSpan{"job", "service", job.outcome.started_at, job.outcome.finished_at, pid});
  }

  // Under capacity every running job holds its whole demand, and still
  // does once this one leaves; only an overcommitted set re-arbitrates.
  if (reserved_gpus_ > config_.capacity_gpus) {
    shares_dirty_ = true;
  }
  reserved_gpus_ -= job.planned.plan.MaxGpus();
  --running_;
  running_set_.erase(std::lower_bound(running_set_.begin(), running_set_.end(), index));
  // This executor's Finish frame is on the stack right now; park it and
  // free on a later event once nothing in flight can reach it.
  retired_executors_.push_back(index);
  PumpQueue();
  if (running_ == 0 && queue_.empty() && arrivals_outstanding_ == 0) {
    // The trace is fully served: stop paying for warm capacity.
    pool_.Drain();
  }
}

void TuningService::SweepRetiredExecutors() {
  if (retired_executors_.empty()) {
    return;
  }
  size_t kept = 0;
  for (const size_t index : retired_executors_) {
    Job& job = jobs_[index];
    if (job.executor && job.executor->Quiescent()) {
      job.executor.reset();
    } else if (job.asha_engine && job.asha_engine->Quiescent()) {
      job.asha_engine.reset();
    } else if (job.executor || job.asha_engine) {
      // A replacement request is still in flight (fault paths); keep the
      // executor until it quiesces.
      retired_executors_[kept++] = index;
    }
  }
  retired_executors_.resize(kept);
}

void TuningService::PumpQueue() {
  while (!queue_.empty()) {
    const size_t index = queue_.front();
    Job& job = jobs_[index];
    const Seconds time_left = job.outcome.deadline_at - sim_.now();
    PlannedJob replanned = PlanFor(job, time_left).planned;
    if (!replanned.feasible) {
      // Queueing consumed the job's slack; rejecting now is the service's
      // "never silently late" contract — the job is reported, not run.
      job.outcome.state = JobState::kRejectedStale;
      RetireEvaluator(job);
      queue_.pop_front();
      continue;
    }
    if (reserved_gpus_ + replanned.plan.MaxGpus() > ReservationLimit()) {
      break;  // FIFO head-of-line blocking; capacity frees as jobs finish
    }
    job.planned = std::move(replanned);
    job.outcome.plan = job.planned.plan;
    queue_.pop_front();
    StartJob(index);
  }
}

void TuningService::EnsureShares() {
  if (!shares_dirty_) {
    return;
  }
  shares_dirty_ = false;
  if (reserved_gpus_ <= config_.capacity_gpus) {
    // The demands fit: weighted max-min gives every job its whole demand.
    for (const size_t i : running_set_) {
      jobs_[i].share_cap = UncontendedShare(ShareRequestOf(jobs_[i]));
    }
    return;
  }
  // running_set_ is maintained in ascending index order — the same order
  // the old eager full-scan visited jobs — so the arbiter sees an
  // identical request vector and produces identical caps.
  std::vector<ShareRequest> requests;
  requests.reserve(running_set_.size());
  for (const size_t i : running_set_) {
    requests.push_back(ShareRequestOf(jobs_[i]));
  }
  const std::vector<int> shares = FairShares(config_.capacity_gpus, requests);
  for (size_t k = 0; k < running_set_.size(); ++k) {
    jobs_[running_set_[k]].share_cap = shares[k];
  }
}

ShareRequest TuningService::ShareRequestOf(const Job& job) {
  return ShareRequest{job.planned.plan.MaxGpus(), job.request.weight};
}

void TuningService::RouteInstanceLoss(InstanceId id, bool crashed) {
  if (pool_.OnPreempted(id)) {
    return;  // was parked; the pool dropped it (crash and reclaim alike)
  }
  for (Job& job : jobs_) {
    if (job.executor && !job.executor->finished() && job.executor->OwnsInstance(id)) {
      if (crashed) {
        job.executor->OnCrash(id);
      } else {
        job.executor->OnPreemption(id);
      }
      return;
    }
    if (job.asha_engine && !job.asha_engine->finished() && job.asha_engine->OwnsInstance(id)) {
      if (crashed) {
        job.asha_engine->OnCrash(id);
      } else {
        job.asha_engine->OnPreemption(id);
      }
      return;
    }
  }
  // Lost in a handover window (no tenant held it yet); the provider
  // already closed its billing interval, so there is nothing to clean up.
}

void TuningService::RouteWarning(InstanceId id) {
  if (pool_.OnWarned(id)) {
    return;  // was parked; the pool released it ahead of the reclamation
  }
  for (Job& job : jobs_) {
    if (job.executor && !job.executor->finished() && job.executor->OwnsInstance(id)) {
      job.executor->OnPreemptionWarning(id);
      return;
    }
    if (job.asha_engine && !job.asha_engine->finished() && job.asha_engine->OwnsInstance(id)) {
      job.asha_engine->OnPreemptionWarning(id);
      return;
    }
  }
  // In a handover window (no tenant holds it yet); the reclamation that
  // follows is routed — and cleaned up — by RouteInstanceLoss.
}

ServiceReport TuningService::Run() {
  FinishLive();
  return BuildReport(/*require_settled=*/true);
}

size_t TuningService::SubmitLive(JobRequest request, std::optional<AdmissionDecision> decision) {
  if (request.deadline <= 0.0) {
    throw std::invalid_argument("job '" + request.name + "' needs a positive deadline");
  }
  if (request.submit_at < 0.0) {
    throw std::invalid_argument("job '" + request.name + "' has a negative arrival time");
  }
  request.spec.Validate();
  // Stamp the arrival: never in the simulation's past, so the operation
  // sequence (and therefore a journal replay of it) is causally ordered.
  request.submit_at = std::max(request.submit_at, sim_.now());
  const size_t index = jobs_.size();
  Job& job = jobs_.emplace_back();
  job.outcome.name = request.name;
  job.outcome.submitted_at = request.submit_at;
  job.outcome.deadline_at = request.submit_at + request.deadline;
  job.request = std::move(request);
  if (decision.has_value()) {
    job.planned = std::move(decision->planned);
    job.arrival_cache = decision->cache;
    job.journaled = true;
  }
  index_by_name_[job.outcome.name] = index;
  ++arrivals_outstanding_;
  sim_.ScheduleAt(job.request.submit_at, [this, index] { OnArrival(index); });
  return index;
}

size_t TuningService::AdvanceUntil(Seconds until, size_t max_events) {
  if (until < sim_.now()) {
    return 0;
  }
  const size_t run = sim_.RunUntilCapped(
      until, max_events == 0 ? std::numeric_limits<size_t>::max() : max_events);
  SweepRetiredExecutors();
  return run;
}

bool TuningService::CancelLive(size_t index, std::string* error) {
  if (index >= jobs_.size()) {
    if (error != nullptr) {
      *error = "unknown job index";
    }
    return false;
  }
  Job& job = jobs_[index];
  switch (job.outcome.state) {
    case JobState::kPending:
      // The arrival event is still scheduled; OnArrival sees the cancelled
      // state and no-ops.
      job.outcome.state = JobState::kCancelled;
      obs::Inc(h_.cancelled);
      return true;
    case JobState::kQueued:
      queue_.erase(std::find(queue_.begin(), queue_.end(), index));
      job.outcome.state = JobState::kCancelled;
      RetireEvaluator(job);
      obs::Inc(h_.cancelled);
      // Cancelling the queue head may unblock jobs behind it.
      PumpQueue();
      return true;
    default:
      if (error != nullptr) {
        *error = "job '" + job.outcome.name + "' is " + ToString(job.outcome.state) +
                 " and cannot be cancelled";
      }
      return false;
  }
}

void TuningService::FinishLive() {
  // Run returns only once the queue is empty, so every parked instance's
  // idle-TTL event has fired and taken it out of the pool.
  sim_.Run();
  SweepRetiredExecutors();
}

MetricsSnapshot TuningService::MetricsNow() const {
  MetricsSnapshot snapshot = metrics_.Snapshot();
  fleet_metrics_.ExportTo(&snapshot);
  InjectSimStats(&snapshot);
  return snapshot;
}

void TuningService::InjectSimStats(MetricsSnapshot* snapshot) const {
  // The kernel keeps plain intrinsic counters (src/sim cannot depend on
  // src/obs, and per-event atomics would tax the hot path); the service
  // overlays them as absolute values at snapshot time, so they behave like
  // registry counters in --metrics-json without per-event cost.
  const EventQueue::Stats& stats = sim_.queue().stats();
  snapshot->counters["sim.events.scheduled"] = static_cast<int64_t>(stats.scheduled);
  snapshot->counters["sim.events.run"] = static_cast<int64_t>(stats.run);
  snapshot->counters["sim.events.cancelled"] = static_cast<int64_t>(stats.cancelled);
  snapshot->counters["sim.callback_heap_fallbacks"] =
      EventCallback::HeapConstructions() - heap_fallback_baseline_;
  snapshot->gauges["sim.queue.depth_high_water"] =
      static_cast<double>(stats.depth_high_water);
}

ServiceReport TuningService::SnapshotReport() {
  return BuildReport(/*require_settled=*/false);
}

ServiceReport TuningService::BuildReport(bool require_settled) {
  ServiceReport report;
  report.makespan = makespan_;
  Seconds total_wait = 0.0;
  int started = 0;
  for (Job& job : jobs_) {
    switch (job.outcome.state) {
      case JobState::kCompleted:
        ++report.completed;
        ++started;
        total_wait += job.outcome.queue_wait;
        if (!job.outcome.met_deadline) {
          ++report.deadline_misses;
        }
        break;
      case JobState::kRejectedInfeasible:
      case JobState::kRejectedOverBudget:
      case JobState::kRejectedStale:
        ++report.rejected;
        break;
      case JobState::kCancelled:
        ++report.cancelled;
        break;
      case JobState::kPending:
      case JobState::kQueued:
      case JobState::kRunning:
        if (require_settled) {
          throw std::logic_error("job '" + job.outcome.name +
                                 "' did not settle; the simulation drained early");
        }
        ++report.in_flight;
        break;
    }
    report.total_preemptions += job.outcome.preemptions;
    report.total_preemption_warnings += job.outcome.preemption_warnings;
    report.total_market_fallbacks += job.outcome.market_fallbacks;
    report.total_spot_savings += job.outcome.spot_savings;
    report.total_spot_rework_seconds += job.outcome.spot_rework_seconds;
    report.total_crashes += job.outcome.crashes;
    report.total_provision_failures += job.outcome.provision_failures;
    report.total_replans += job.outcome.replans;
    report.total_recovery_seconds += job.outcome.recovery_seconds;
    report.total_stragglers_detected += job.outcome.stragglers_detected;
    report.total_stragglers_quarantined += job.outcome.stragglers_quarantined;
    report.total_straggler_false_positives += job.outcome.straggler_false_positives;
    report.total_straggler_mitigation_seconds += job.outcome.straggler_mitigation_seconds;
    report.jobs.push_back(job.outcome);
    if (job.evaluator != nullptr) {
      report.planner_cache += job.evaluator->stats();
    }
  }
  for (const auto& entry : shared_evaluators_) {
    report.planner_cache += entry.second->stats();
  }
  report.planner_cache += retired_cache_;
  report.mean_queue_wait = started > 0 ? total_wait / started : 0.0;
  report.total_cost = cloud_.Cost();
  report.cost_per_completed_job =
      report.completed > 0
          ? Money::FromDollars(report.total_cost.Total().dollars() / report.completed)
          : Money();
  report.instance_launches = cloud_.meter().num_acquisitions();
  report.stragglers_injected = cloud_.num_straggler_instances();
  report.warm = pool_.stats();
  report.aggregate_utilization = cloud_.meter().Utilization(config_.cloud.gpus_per_instance());

  // Settle the service-wide registry: outcome gauges, the aggregate
  // planner-cache counters, then one snapshot with the fleet sum's
  // executor.* metrics exported into it.
  obs::Set(svc_.GetGauge("makespan_seconds"), report.makespan);
  obs::Set(svc_.GetGauge("mean_queue_wait_seconds"), report.mean_queue_wait);
  obs::Set(svc_.GetGauge("total_cost_dollars"), report.total_cost.Total().dollars());
  obs::Set(svc_.GetGauge("cost_per_completed_job_dollars"),
           report.cost_per_completed_job.dollars());
  obs::Set(svc_.GetGauge("aggregate_utilization"), report.aggregate_utilization);
  // Fleet spot.* totals need no service-side gauges: every finished job's
  // report carries its spot.* family, and the fleet sum adds them into
  // exactly the report's totals.
  // The registry counters accumulate, so repeated reports publish
  // only what changed since the last publish.
  PlannerCacheStats cache_delta = report.planner_cache;
  cache_delta -= published_cache_;
  PublishCacheStats(cache_delta, metrics_.scope("planner"));
  published_cache_ = report.planner_cache;
  report.metrics = metrics_.Snapshot();
  fleet_metrics_.ExportTo(&report.metrics);
  InjectSimStats(&report.metrics);
  report.timeline = timeline_;
  return report;
}

}  // namespace rubberband
