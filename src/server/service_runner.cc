#include "src/server/service_runner.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "src/common/report_format.h"
#include "src/obs/chrome_trace.h"

namespace rubberband {

namespace {

constexpr int kWalVersion = 1;

// Event budget per Tick(), so one tick through a busy simulation cannot
// stall queued requests. A capped tick still finishes the current
// same-timestamp group (the replay-determinism invariant).
constexpr size_t kMaxEventsPerTick = 4096;

JsonValue Num(double value) { return JsonValue::MakeNumber(value); }
JsonValue Str(std::string value) { return JsonValue::MakeString(std::move(value)); }

// The config fields a WAL header pins. Replay only reproduces the original
// run under the original seed/capacity/cloud shape, so a resume refuses a
// drifted config instead of silently diverging.
JsonValue ConfigFingerprint(const ServiceConfig& config) {
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("seed", Num(static_cast<double>(config.seed)));
  fp.Set("capacity_gpus", Num(config.capacity_gpus));
  fp.Set("overcommit", Num(config.overcommit));
  fp.Set("warm_max_parked", Num(config.warm_pool.max_parked));
  fp.Set("warm_ttl_s", Num(config.warm_pool.max_idle_seconds));
  fp.Set("replan_on_faults", JsonValue::MakeBool(config.replan_on_faults));
  fp.Set("instance", Str(config.cloud.instance.name));
  fp.Set("instance_price_micros",
         Num(static_cast<double>(config.cloud.instance.price_per_hour.micros())));
  return fp;
}

// Member `key` of a journal record, which must hold a `type` value. Replay
// reads every record field through this, so a CRC-valid record that lacks
// a field, or holds it with another type, is refused naming the record and
// the field.
const JsonValue& RecordField(const JsonValue& record, const std::string& key,
                             JsonValue::Type type, const std::string& where) {
  static const char* const kTypeNames[] = {"null", "bool", "number", "string", "array", "object"};
  if (!record.Has(key) || record.at(key).type() != type) {
    throw std::runtime_error(where + ": corrupt journal: field '" + key +
                             "' is missing or not a JSON " + kTypeNames[static_cast<int>(type)]);
  }
  return record.at(key);
}

}  // namespace

OpResult OpResult::Ok(JsonValue body) {
  OpResult result;
  result.body = std::move(body);
  return result;
}

OpResult OpResult::Error(std::string code, std::string message, int64_t retry_after_ms) {
  OpResult result;
  result.ok = false;
  result.code = std::move(code);
  result.message = std::move(message);
  result.retry_after_ms = retry_after_ms;
  return result;
}

ServiceRunner::ServiceRunner(const RunnerOptions& options)
    : options_(options), service_(std::make_unique<TuningService>(options.service)) {
  if (!options_.wal_path.empty()) {
    std::string error;
    if (!wal_.Create(options_.wal_path, options_.wal, &error)) {
      throw std::runtime_error(error);
    }
    JsonValue header = JsonValue::MakeObject();
    header.Set("kind", Str("header"));
    header.Set("version", Num(kWalVersion));
    header.Set("config", ConfigFingerprint(options_.service));
    if (!wal_.Append(header.ToJson(), &error) || !wal_.Sync(&error)) {
      throw std::runtime_error(error);
    }
  }
}

std::unique_ptr<ServiceRunner> ServiceRunner::Open(const RunnerOptions& options) {
  if (options.wal_path.empty()) {
    return std::make_unique<ServiceRunner>(options);
  }
  WalReadResult wal;
  std::string error;
  if (!ReadWal(options.wal_path, &wal, &error)) {
    throw std::runtime_error(error);
  }
  if (wal.records.empty()) {
    // Absent, empty, or nothing but a torn first record: a fresh journal.
    return std::make_unique<ServiceRunner>(options);
  }

  // Replay without a WAL attached (the constructor with a wal_path would
  // truncate the very journal we are recovering).
  RunnerOptions replay_options = options;
  replay_options.wal_path.clear();
  auto runner = std::make_unique<ServiceRunner>(replay_options);

  JsonValue header;
  try {
    header = JsonValue::Parse(wal.records[0]);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("wal header unparseable: ") + e.what());
  }
  if (!header.is_object() || !header.Has("kind") || header.at("kind").string() != "header" ||
      !header.Has("version") || header.at("version").number() != kWalVersion) {
    throw std::runtime_error("wal header missing or unsupported version");
  }
  if (!header.Has("config") ||
      header.at("config") != ConfigFingerprint(options.service)) {
    throw std::runtime_error(
        "wal config does not match the server's (seed/capacity/cloud must be "
        "identical to resume)");
  }

  for (size_t i = 1; i < wal.records.size(); ++i) {
    const std::string where = "wal record " + std::to_string(i);
    JsonValue record;
    try {
      record = JsonValue::Parse(wal.records[i]);
    } catch (const std::exception& e) {
      throw std::runtime_error(where + " unparseable: " + e.what());
    }
    runner->ReplayWalRecord(record, where);
  }

  runner->wal_stats_.recovered = true;
  if (wal.torn_tail) {
    if (!TruncateWal(options.wal_path, wal.valid_bytes, &error)) {
      throw std::runtime_error(error);
    }
    runner->wal_stats_.torn_tail_truncated = true;
    runner->wal_stats_.torn_offset = wal.torn_offset;
  }
  runner->options_.wal_path = options.wal_path;
  runner->options_.wal = options.wal;
  if (!runner->wal_.OpenAppend(options.wal_path, options.wal, &error)) {
    throw std::runtime_error(error);
  }
  // Jobs that completed before the crash but after the last digest record
  // get their outcome digested now.
  runner->JournalNewOutcomes();
  return runner;
}

void ServiceRunner::ReplayWalRecord(const JsonValue& record, const std::string& where) {
  if (!record.is_object() || !record.Has("kind") || !record.at("kind").is_string()) {
    throw std::runtime_error(where + ": record has no kind");
  }
  const std::string& kind = record.at("kind").string();
  const auto field = [&record, &where](const std::string& key,
                                       JsonValue::Type type) -> const JsonValue& {
    return RecordField(record, key, type, where);
  };
  using Type = JsonValue::Type;
  TuningService& service = *service_;
  if (kind == "clock") {
    // Settled completions, or a drain: either way the live clock stood here.
    service.AdvanceUntil(field("at_s", Type::kNumber).number());
    return;
  }
  if (kind == "outcome") {
    const std::string& name = field("job", Type::kString).string();
    const double jct = field("jct_s", Type::kNumber).number();
    const double cost_micros = field("cost_micros", Type::kNumber).number();
    const size_t index = service.FindJob(name);
    if (index == TuningService::kNoJob) {
      throw std::runtime_error(where + ": replay diverged: completed job '" + name +
                               "' unknown");
    }
    const JobOutcome& outcome = service.outcome(index);
    if (outcome.state != JobState::kCompleted || outcome.jct != jct ||
        static_cast<double>(outcome.cost.micros()) != cost_micros) {
      throw std::runtime_error(where + ": replay diverged on job '" + name +
                               "' (outcome differs from journaled digest)");
    }
    if (index >= outcome_digested_.size()) {
      outcome_digested_.resize(index + 1, false);
    }
    outcome_digested_[index] = true;
    ++wal_stats_.outcomes_verified;
    return;
  }
  if (kind != "submit" && kind != "cancel") {
    throw std::runtime_error(where + ": unknown op kind '" + kind + "'");
  }

  // Replay: advance to the op's application time, then re-apply it. The
  // pre-op advance processes exactly the events the live run had processed
  // before that op, so arrivals and stage events re-enter the heap in the
  // original (time, seq) order.
  const Seconds at = field("at_s", Type::kNumber).number();
  const JsonValue& params = field("params", Type::kObject);
  service.AdvanceUntil(at);
  if (kind == "submit") {
    JobRequest job;
    std::string error;
    if (!ParseJobRequest(params, &job, &error)) {
      throw std::runtime_error(where + ": corrupt journal submit: " + error);
    }
    // A journaled admission decision is authoritative: the arrival applies
    // it instead of planning again.
    std::optional<AdmissionDecision> decision;
    if (record.Has("decision")) {
      decision.emplace();
      if (!AdmissionDecision::FromJson(record.at("decision"), &*decision, &error)) {
        throw std::runtime_error(where + ": corrupt journal decision: " + error);
      }
      try {
        decision->planned.plan.Validate(job.spec.num_stages());
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error(where + ": corrupt journal decision: " + e.what());
      }
      ++wal_stats_.decisions_applied;
    }
    service.SubmitLive(std::move(job), std::move(decision));
  } else {
    const size_t index = service.FindJob(RecordField(params, "job", Type::kString, where).string());
    if (index == TuningService::kNoJob) {
      throw std::runtime_error(where + ": corrupt journal: cancel of unknown job");
    }
    std::string error;
    if (!service.CancelLive(index, &error)) {
      throw std::runtime_error(where + ": journal cancel no longer applies: " + error);
    }
  }
  ++wal_stats_.ops_replayed;
  if (record.Has("idem")) {
    idem_index_[field("idem", Type::kString).string()] =
        field("response", Type::kObject).ToJson();
  }
}

void ServiceRunner::CommitOp(const char* kind, Seconds at, const Request& request,
                             JsonValue params, const JsonValue& response,
                             const AdmissionDecision* decision) {
  if (wal_.is_open()) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("kind", Str(kind));
    entry.Set("at_s", Num(at));
    entry.Set("tenant", Str(request.tenant));
    entry.Set("params", std::move(params));
    if (decision != nullptr) {
      entry.Set("decision", decision->ToJson());
    }
    if (!request.idem.empty()) {
      entry.Set("idem", Str(request.idem));
    }
    entry.Set("response", response);
    std::string error;
    if (!wal_.Append(entry.ToJson(), &error)) {
      // The op is already applied; failing to journal it means a restart
      // would replay a shorter history than clients observed. Surfacing a
      // hard error (the client sees INTERNAL, not an ack) is the only
      // honest option — an unacknowledged op may be absent after recovery.
      throw std::runtime_error("wal append failed: " + error);
    }
  }
  if (!request.idem.empty()) {
    idem_index_[request.idem] = response.ToJson();
  }
}

const std::string* ServiceRunner::FindIdempotent(const std::string& key) const {
  if (key.empty()) {
    return nullptr;
  }
  const auto it = idem_index_.find(key);
  return it == idem_index_.end() ? nullptr : &it->second;
}

void ServiceRunner::JournalNewOutcomes(bool pin_clock) {
  if (!wal_.is_open()) {
    return;
  }
  if (outcome_digested_.size() < service_->num_jobs()) {
    outcome_digested_.resize(service_->num_jobs(), false);
  }
  std::vector<size_t> fresh;
  for (size_t i = 0; i < service_->num_jobs(); ++i) {
    if (!outcome_digested_[i] && service_->outcome(i).state == JobState::kCompleted) {
      fresh.push_back(i);
    }
  }
  if (fresh.empty() && !pin_clock) {
    return;
  }
  std::string error;
  // The clock record pins the simulation time at which these completions
  // are known to have settled; recovery advances to it before verifying.
  JsonValue clock = JsonValue::MakeObject();
  clock.Set("kind", Str("clock"));
  clock.Set("at_s", Num(service_->now()));
  if (!wal_.Append(clock.ToJson(), &error)) {
    throw std::runtime_error("wal append failed: " + error);
  }
  for (size_t index : fresh) {
    const JobOutcome& outcome = service_->outcome(index);
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("kind", Str("outcome"));
    entry.Set("job", Str(outcome.name));
    entry.Set("jct_s", Num(outcome.jct));
    entry.Set("cost_micros", Num(static_cast<double>(outcome.cost.micros())));
    entry.Set("best_accuracy", Num(outcome.best_accuracy));
    if (!wal_.Append(entry.ToJson(), &error)) {
      throw std::runtime_error("wal append failed: " + error);
    }
    outcome_digested_[index] = true;
  }
}

void ServiceRunner::AbandonWal() { wal_.Abandon(); }

OpResult ServiceRunner::Handle(const Request& request, const MetricsSnapshot* server_metrics) {
  try {
    OpResult result;
    if (request.method == "submit") {
      result = HandleSubmit(request);
    } else if (request.method == "cancel") {
      result = HandleCancel(request);
    } else if (request.method == "status") {
      result = HandleStatus(request);
    } else if (request.method == "report") {
      result = HandleReport();
    } else if (request.method == "metrics") {
      result = HandleMetrics(server_metrics);
    } else if (request.method == "trace") {
      result = HandleTrace();
    } else if (request.method == "advance") {
      result = HandleAdvance(request);
    } else if (request.method == "drain") {
      result = HandleDrain(request);
    } else if (request.method == "ping") {
      JsonValue pong = JsonValue::MakeObject();
      pong.Set("now_s", Num(service_->now()));
      result = OpResult::Ok(std::move(pong));
    } else {
      return OpResult::Error(kErrBadRequest, "unknown method '" + request.method + "'");
    }
    // Digest any jobs this op drove to completion, so a crash right after
    // the response still verifies them on recovery.
    JournalNewOutcomes();
    return result;
  } catch (const std::exception& e) {
    return OpResult::Error(kErrInternal, e.what());
  }
}

OpResult ServiceRunner::HandleSubmit(const Request& request) {
  // A retry of an op that already happened must answer with the original
  // decision, even across a restart — checked before the draining gate,
  // because "already applied" beats "no longer accepting".
  if (const std::string* original = FindIdempotent(request.idem)) {
    ++idem_duplicates_;
    return OpResult::Ok(JsonValue::Parse(*original));
  }
  if (draining_) {
    return OpResult::Error(kErrDraining, "server is draining; resubmit after restart");
  }
  JobRequest job;
  std::string error;
  if (!ParseJobRequest(request.params, &job, &error)) {
    return OpResult::Error(kErrBadRequest, error);
  }

  // Settle the pending same-time event group BEFORE scheduling the arrival.
  // Replay applies each journaled op as `AdvanceUntil(op.at); apply(op)`,
  // so the live run must interleave clock and op identically — otherwise
  // same-timestamp events would carry different sequence numbers live vs
  // replayed and the heaps could pop in different orders.
  service_->AdvanceUntil(service_->now());

  const Seconds at = service_->now();
  JsonValue params = JobRequestToParams(job);
  const size_t index = service_->SubmitLive(std::move(job));
  // Run the freshly scheduled group so an immediate arrival's admission
  // decision lands before we answer (submit is synchronous up to the
  // decision, asynchronous for execution). Replay reproduces this with the
  // next op's pre-advance.
  service_->AdvanceUntil(service_->now());

  const JobOutcome& outcome = service_->outcome(index);
  JsonValue result = JobStatusJson(outcome);
  result.Set("index", Num(static_cast<double>(index)));
  result.Set("now_s", Num(service_->now()));
  // Journal op + decision (write-ahead of the acknowledgement), then reply.
  // An arrival this op decided by planning also journals the plan, so
  // recovery applies it instead of planning again.
  const std::optional<AdmissionDecision> decision =
      wal_.is_open() ? service_->ArrivalDecision(index) : std::nullopt;
  CommitOp("submit", at, request, std::move(params), result,
           decision.has_value() ? &*decision : nullptr);
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleCancel(const Request& request) {
  if (const std::string* original = FindIdempotent(request.idem)) {
    ++idem_duplicates_;
    return OpResult::Ok(JsonValue::Parse(*original));
  }
  if (!request.params.Has("job") || !request.params.at("job").is_string()) {
    return OpResult::Error(kErrBadRequest, "cancel needs a string field 'job'");
  }
  const std::string& name = request.params.at("job").string();
  const size_t index = service_->FindJob(name);
  if (index == TuningService::kNoJob) {
    return OpResult::Error(kErrNotFound, "no job named '" + name + "'");
  }
  // Same clock/op interleaving as replay (see HandleSubmit).
  service_->AdvanceUntil(service_->now());

  const Seconds at = service_->now();
  std::string error;
  if (!service_->CancelLive(index, &error)) {
    return OpResult::Error(kErrConflict, error);
  }

  JsonValue result = JobStatusJson(service_->outcome(index));
  JsonValue params = JsonValue::MakeObject();
  params.Set("job", Str(name));
  CommitOp("cancel", at, request, std::move(params), result);
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleStatus(const Request& request) {
  if (request.params.Has("job")) {
    if (!request.params.at("job").is_string()) {
      return OpResult::Error(kErrBadRequest, "field 'job' must be a string");
    }
    const std::string& name = request.params.at("job").string();
    const size_t index = service_->FindJob(name);
    if (index == TuningService::kNoJob) {
      return OpResult::Error(kErrNotFound, "no job named '" + name + "'");
    }
    JsonValue result = JobStatusJson(service_->outcome(index));
    result.Set("now_s", Num(service_->now()));
    return OpResult::Ok(std::move(result));
  }
  JsonValue jobs = JsonValue::MakeArray();
  for (size_t i = 0; i < service_->num_jobs(); ++i) {
    jobs.Append(JobStatusJson(service_->outcome(i)));
  }
  JsonValue result = JsonValue::MakeObject();
  result.Set("jobs", std::move(jobs));
  result.Set("now_s", Num(service_->now()));
  result.Set("draining", JsonValue::MakeBool(draining_));
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleReport() {
  ServiceReport report = service_->SnapshotReport();
  JsonValue result = JsonValue::MakeObject();
  result.Set("now_s", Num(service_->now()));
  result.Set("completed", Num(report.completed));
  result.Set("rejected", Num(report.rejected));
  result.Set("cancelled", Num(report.cancelled));
  result.Set("in_flight", Num(report.in_flight));
  result.Set("deadline_misses", Num(report.deadline_misses));
  result.Set("total_cost_dollars", Num(report.total_cost.Total().dollars()));
  result.Set("aggregate_utilization", Num(report.aggregate_utilization));
  // The same renderer the CLI uses, so the wire report and the terminal
  // report cannot drift.
  result.Set("text", Str(FormatServiceJobTable(report) +
                         FormatServiceSummary(report, options_.service.cloud)));
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleMetrics(const MetricsSnapshot* server_metrics) {
  MetricsSnapshot merged = service_->MetricsNow();
  if (server_metrics != nullptr) {
    merged.Merge(*server_metrics);
  }
  JsonValue result = JsonValue::MakeObject();
  result.Set("now_s", Num(service_->now()));
  result.Set("metrics", JsonValue::Parse(merged.ToJson()));
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleTrace() {
  ServiceReport report = service_->SnapshotReport();
  JsonValue result = JsonValue::MakeObject();
  result.Set("now_s", Num(service_->now()));
  result.Set("chrome_trace", Str(ChromeTraceFromService(report)));
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleAdvance(const Request& request) {
  double seconds = 0.0;
  if (request.params.Has("seconds")) {
    if (!request.params.at("seconds").is_number() ||
        request.params.at("seconds").number() < 0.0) {
      return OpResult::Error(kErrBadRequest, "field 'seconds' must be a number >= 0");
    }
    seconds = request.params.at("seconds").number();
  }
  const Seconds target = service_->now() + seconds;
  if (!(target <= kMaxWireSeconds)) {
    return OpResult::Error(kErrBadRequest, "field 'seconds' moves the clock past 1e12 s");
  }
  const size_t events = service_->AdvanceUntil(target);
  JsonValue result = JsonValue::MakeObject();
  result.Set("now_s", Num(service_->now()));
  result.Set("events", Num(static_cast<double>(events)));
  result.Set("idle", JsonValue::MakeBool(service_->LiveIdle()));
  return OpResult::Ok(std::move(result));
}

OpResult ServiceRunner::HandleDrain(const Request& request) {
  std::string mode = "snapshot";
  if (request.params.Has("mode")) {
    if (!request.params.at("mode").is_string()) {
      return OpResult::Error(kErrBadRequest, "field 'mode' must be a string");
    }
    mode = request.params.at("mode").string();
  }
  if (mode != "snapshot" && mode != "finish") {
    return OpResult::Error(kErrBadRequest, "drain mode must be 'snapshot' or 'finish'");
  }
  draining_ = true;
  if (mode == "finish") {
    // Run every admitted job to completion before stopping; nothing is
    // left to resume but the completed history.
    service_->FinishLive();
  }
  const ServiceReport report = service_->SnapshotReport();
  JsonValue result = JsonValue::MakeObject();
  result.Set("completed", Num(report.completed));
  result.Set("in_flight", Num(report.in_flight));
  result.Set("mode", Str(mode));
  result.Set("now_s", Num(service_->now()));
  // Pin the drain time (and digest anything that just settled), durably,
  // before the ack: Open() on this WAL resumes at exactly this clock.
  JournalNewOutcomes(/*pin_clock=*/true);
  if (wal_.is_open()) {
    std::string error;
    if (!wal_.Sync(&error)) {
      throw std::runtime_error("wal sync failed: " + error);
    }
    result.Set("wal_path", Str(options_.wal_path));
  }
  return OpResult::Ok(std::move(result));
}

void ServiceRunner::Tick() {
  if (options_.auto_advance_step <= 0.0) {
    return;
  }
  if (service_->LiveIdle() && !service_->HasPendingEvents()) {
    return;  // an idle service's clock does not free-run
  }
  service_->AdvanceUntil(service_->now() + options_.auto_advance_step,
                         kMaxEventsPerTick);
  JournalNewOutcomes();
}

}  // namespace rubberband
