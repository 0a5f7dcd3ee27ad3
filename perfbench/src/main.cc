// End-to-end benchmark program: one workload (a tenant traffic mix) through
// the three ways the tuning service is used.
//
//   setup    generate the scenario, profile its models, build the replay
//            service, start the front door with a fresh WAL, connect the
//            clients and serve a warm-up slice (timed several times)
//   journal  the last set-up's server takes the rest of a fixed count of
//            serve-stream submits, the generator owning the simulated clock
//            (one `advance` per block), then is killed
//   rounds   interleaved: replay the whole trace in-process
//            (TuningService::Run), reopen a copy of the killed server's WAL,
//            serve a slice of open-loop submits and status polls over framed
//            TCP to a second front door, and send it a closed-loop submit burst
//
//   rbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Any failed self-check is named on stderr and the exit
// code is 1.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/scenario.h"
#include "perfbench/src/spans.h"
#include "src/model/profiler.h"
#include "src/planner/evaluator.h"
#include "src/server/client.h"
#include "src/server/journal.h"
#include "src/server/server.h"
#include "src/spec/compile.h"

namespace perfbench {
namespace {

using rubberband::Client;
using rubberband::JobOutcome;
using rubberband::JobState;
using rubberband::JsonValue;
using rubberband::MetricsSnapshot;
using rubberband::Request;
using rubberband::Server;
using rubberband::ServerOptions;
using rubberband::ServiceReport;
using rubberband::ServiceRunner;
using rubberband::TuningService;

constexpr int kSetups = 5;        // set-up repeats (setup_s is their median)
constexpr double kWarmupS = 0.5;  // warm-up slice of serve traffic, wall seconds
constexpr double kServeShare = 0.25;  // share of --seconds spent in the serve slices
constexpr double kFailedMs = 1e9;     // latency recorded for a failed operation
constexpr double kUnpaced = 1e12;     // a submit rate no generator reaches: closed loop

double Seconds(int64_t begin_ns, int64_t end_ns) { return (end_ns - begin_ns) / 1e9; }

// CPU time of every thread of this process (client and server alike).
int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Linear interpolation between closest ranks (Python's statistics
// "inclusive" method); 0 on an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// Self-checks; each failure is named.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail = "") {
    if (!ok) {
      failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
    }
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Exact simulated outcomes.

struct Outcomes {
  int64_t submitted = 0;
  int64_t admitted = 0;   // started running
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t in_flight = 0;
  int64_t met_deadline = 0;
  int64_t cost_micros = 0;  // attributed cost of completed jobs
  int64_t faulted = 0;      // completed jobs touched by a fault or preemption

  double CostPerJob() const { return completed > 0 ? cost_micros / 1e6 / completed : 0.0; }
  double DeadlineHitRatio() const {
    return completed > 0 ? static_cast<double>(met_deadline) / completed : 0.0;
  }
  double AdmittedRatio() const {
    return submitted > 0 ? static_cast<double>(admitted) / submitted : 0.0;
  }
  bool Terminal() const { return completed + rejected + cancelled == submitted; }
  bool operator==(const Outcomes&) const = default;
};

void Count(const JobOutcome& job, Outcomes* out) {
  ++out->submitted;
  switch (job.state) {
    case JobState::kCompleted:
      ++out->admitted;
      ++out->completed;
      out->cost_micros += job.cost.micros();
      out->met_deadline += job.met_deadline ? 1 : 0;
      out->faulted += job.preemptions + job.preemption_warnings + job.crashes +
                              job.trial_restarts + job.provision_failures + job.replans +
                              job.stragglers_detected >
                          0;
      break;
    case JobState::kRunning:
      ++out->admitted;
      ++out->in_flight;
      break;
    case JobState::kRejectedInfeasible:
    case JobState::kRejectedOverBudget:
    case JobState::kRejectedStale:
      ++out->rejected;
      break;
    case JobState::kCancelled:
      ++out->cancelled;
      break;
    case JobState::kPending:
    case JobState::kQueued:
      ++out->in_flight;
      break;
  }
}

Outcomes Summarize(const std::vector<JobOutcome>& jobs) {
  Outcomes out;
  for (const JobOutcome& job : jobs) {
    Count(job, &out);
  }
  return out;
}

Outcomes Summarize(TuningService& service) {
  Outcomes out;
  for (size_t i = 0; i < service.num_jobs(); ++i) {
    Count(service.outcome(i), &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Load generator: two connections (submits + clock, status polls), both open
// loop, every operation timed from the moment it was due.

struct Traffic {
  std::vector<double> submit_ms;
  std::vector<double> status_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double late_max_ms = 0.0;  // how far behind schedule the generator ran
  std::vector<std::string> errors;

  void Add(const Traffic& other) {
    attempted += other.attempted;
    failed += other.failed;
    late_max_ms = std::max(late_max_ms, other.late_max_ms);
    for (const std::string& e : other.errors) {
      if (errors.size() < 5) {
        errors.push_back(e);
      }
    }
  }
};

// One logged wire operation (traced runs replay them through Handle).
struct LoggedOp {
  Request request;
  bool submit_connection = true;
};

class Generator {
 public:
  Generator(const Scenario& scenario, SpanRecorder& spans, bool log_ops)
      : s_(scenario), spans_(spans), log_ops_(log_ops) {}

  bool Connect(int port, std::string* error) {
    return submit_client_.Connect("127.0.0.1", port, error) &&
           status_client_.Connect("127.0.0.1", port, error);
  }

  // Sends the next `submits` serve-stream submits at `submit_rps` (plus the
  // block advances they imply) and, concurrently, `statuses` status polls at
  // `status_rps`. A rate of kUnpaced sends closed loop.
  Traffic Run(int submits, double submit_rps, int statuses, double status_rps) {
    Traffic submit_side;
    Traffic status_side;
    const int64_t t0 = NowNs() + 2'000'000;  // both loops start on the same due clock
    std::thread status_thread([&] { StatusLoop(statuses, status_rps, t0, &status_side); });
    SubmitLoop(submits, submit_rps, t0, &submit_side);
    status_thread.join();
    submit_side.status_ms = std::move(status_side.status_ms);
    submit_side.Add(status_side);
    return submit_side;
  }

  // Every job's status, on the submit connection (the pre-kill report).
  bool AllStatuses(JsonValue* jobs, std::string* error) {
    JsonValue result;
    if (!Call(submit_client_, "status", JsonValue::MakeObject(), "default", &result, error)) {
      return false;
    }
    *jobs = result.at("jobs");
    return true;
  }

  size_t position() const { return next_; }
  const std::vector<LoggedOp>& ops() const { return ops_; }

 private:
  bool Call(Client& client, const std::string& method, const JsonValue& params,
            const std::string& tenant, JsonValue* result, std::string* error) {
    if (log_ops_) {
      std::lock_guard<std::mutex> lock(log_mu_);
      LoggedOp op;
      op.request.method = method;
      op.request.params = params;
      op.request.tenant = tenant;
      op.submit_connection = &client == &submit_client_;
      ops_.push_back(std::move(op));
    }
    JsonValue response;
    if (!client.Call(method, params, tenant, &response, error)) {
      return false;
    }
    if (!response.at("ok").bool_value()) {
      *error = method + " " + response.at("error").at("code").string() + ": " +
               response.at("error").at("message").string();
      return false;
    }
    *result = response.at("result");
    return true;
  }

  static void SleepUntil(int64_t due_ns) {
    const int64_t now = NowNs();
    if (due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    }
  }

  // One attempted op: counts it and records the error when it failed.
  static bool Track(bool ok, const std::string& error, Traffic* out) {
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      if (out->errors.size() < 5) {
        out->errors.push_back(error);
      }
    }
    return ok;
  }

  void SubmitLoop(int submits, double rate, int64_t t0, Traffic* out) {
    const double interval_ns = 1e9 / rate;
    for (int k = 0; k < submits && next_ < s_.serve.size(); ++k) {
      const size_t i = next_++;
      const WireSubmit& submit = s_.serve[i];
      const int64_t due = t0 + static_cast<int64_t>(k * interval_ns);
      SleepUntil(due);
      if (rate < kUnpaced) {
        out->late_max_ms = std::max(out->late_max_ms, (NowNs() - due) / 1e6);
      }
      JsonValue result;
      std::string error;
      bool ok;
      {
        ScopedSpan span(spans_, "serve.submit", static_cast<int64_t>(i) + 1);
        ok = Call(submit_client_, "submit", submit.params, submit.tenant, &result, &error);
      }
      out->submit_ms.push_back(Track(ok, error, out) ? (NowNs() - due) / 1e6 : kFailedMs);
      acked_.store(i + 1, std::memory_order_release);
      if ((i + 1) % static_cast<size_t>(s_.advance_every) == 0) {
        EndBlock(i + 1, out);
      }
    }
  }

  // Block boundary: move the simulated clock to the next block's due time.
  void EndBlock(size_t next, Traffic* out) {
    if (next >= s_.serve.size()) {
      return;
    }
    const size_t block_start = next - static_cast<size_t>(s_.advance_every);
    JsonValue params = JsonValue::MakeObject();
    params.Set("seconds", JsonValue::MakeNumber(
                              std::max(0.0, s_.serve[next].at_s - s_.serve[block_start].at_s)));
    JsonValue advanced;
    std::string error;
    ScopedSpan span(spans_, "serve.advance");
    Track(Call(submit_client_, "advance", params, "default", &advanced, &error), error, out);
  }

  void StatusLoop(int statuses, double rate, int64_t t0, Traffic* out) {
    const double interval_ns = 1e9 / rate;
    for (int k = 0; k < statuses; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(k * interval_ns);
      SleepUntil(due);
      ++serial_;
      JsonValue result;
      std::string error;
      // Poll a job that has been acknowledged, spread over the history; a
      // ping stands in until the first submit is acknowledged.
      const size_t acked = acked_.load(std::memory_order_acquire);
      if (acked == 0) {
        Track(Call(status_client_, "ping", JsonValue::MakeObject(), "default", &result, &error),
              error, out);
        continue;
      }
      const size_t pick = static_cast<size_t>(serial_ * 2654435761ULL) % acked;
      JsonValue params = JsonValue::MakeObject();
      params.Set("job", s_.serve[pick].params.at("name"));
      bool ok;
      {
        ScopedSpan span(spans_, "serve.status", static_cast<int64_t>(pick) + 1);
        ok = Call(status_client_, "status", params, s_.serve[pick].tenant, &result, &error);
      }
      out->status_ms.push_back(Track(ok, error, out) ? (NowNs() - due) / 1e6 : kFailedMs);
    }
  }

  const Scenario& s_;
  SpanRecorder& spans_;
  bool log_ops_;
  Client submit_client_;
  Client status_client_;
  size_t next_ = 0;
  uint64_t serial_ = 0;
  std::atomic<size_t> acked_{0};
  std::mutex log_mu_;
  std::vector<LoggedOp> ops_;
};

ServerOptions MakeServerOptions(const Scenario& s, const std::string& wal_path) {
  ServerOptions options;
  options.port = 0;
  options.runner.service = s.config;
  options.runner.auto_advance_step = 0.0;  // the generator owns the clock
  options.runner.wal_path = wal_path;
  options.runner.wal.fsync = rubberband::FsyncPolicy::kOff;
  return options;
}

double HistogramQuantileMs(const MetricsSnapshot& snapshot, const std::string& name, double q) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.QuantileNs(q) / 1e6;
}

int64_t CounterOr0(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double GaugeOr0(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------------

int RunBenchmark(const Args& args) {
  namespace fs = std::filesystem;
  SpanRecorder spans(args.trace);
  Checks checks;
  Traffic ops;  // every wire operation the run attempted
  int64_t replay_attempted = 0;

  // ---- setup, kSetups times ----------------------------------------------
  // Each set-up walks the full path to the first timed operation. All but
  // the last are torn down; the last one's server writes the journal below.
  std::vector<double> setup_s;
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<Server> server;
  std::unique_ptr<Generator> gen;
  const std::string journal_wal = args.work_dir + "/journal.wal";
  auto start_front_door = [&](const Scenario& sc, const std::string& wal, bool log_ops,
                              std::unique_ptr<Server>* srv, std::unique_ptr<Generator>* g) {
    std::error_code ignored;
    fs::remove(wal, ignored);
    *srv = std::make_unique<Server>(MakeServerOptions(sc, wal));
    std::string error;
    if (!(*srv)->Start(&error)) {
      throw std::runtime_error("server start: " + error);
    }
    *g = std::make_unique<Generator>(sc, spans, log_ops);
    if (!(*g)->Connect((*srv)->port(), &error)) {
      throw std::runtime_error("connect: " + error);
    }
    ops.Add((*g)->Run(static_cast<int>(std::lround(sc.submit_rps * kWarmupS)), sc.submit_rps,
                      static_cast<int>(std::lround(sc.status_rps * kWarmupS)), sc.status_rps));
  };
  for (int k = 0; k < kSetups; ++k) {
    const int64_t t0 = NowNs();
    std::unique_ptr<TuningService> service;
    std::unique_ptr<Server> srv;
    std::unique_ptr<Generator> g;
    {
      ScopedSpan setup_span(spans, "setup");
      scenario = std::make_unique<Scenario>(MakeScenario(args.workload, args.seed));
      {
        ScopedSpan span(spans, "setup.profile");
        std::set<std::string> models;
        for (const auto& e : scenario->experiments) {
          if (models.insert(e.workload.name).second) {
            rubberband::ProfilerOptions options = scenario->config.profiler;
            options.seed = scenario->config.seed;
            rubberband::ProfileWorkload(e.workload, options);
          }
        }
      }
      service = std::make_unique<TuningService>(scenario->config);
      {
        ScopedSpan span(spans, "setup.submit_trace");
        for (const auto& e : scenario->experiments) {
          service->SubmitExperiment(e);
        }
      }
      start_front_door(*scenario, journal_wal, false, &srv, &g);
    }
    setup_s.push_back(Seconds(t0, NowNs()));
    if (k + 1 < kSetups) {
      g.reset();
      srv->Stop();
    } else {
      server = std::move(srv);
      gen = std::move(g);
    }
  }
  const Scenario& s = *scenario;

  // ---- journal -----------------------------------------------------------
  // The rest of a fixed count of serve-stream submits, closed loop, then a
  // kill. The generator owns the simulated clock, so the journal, and with
  // it every recovery's work, is the same whatever the pacing.
  std::string error;
  {
    ScopedSpan span(spans, "journal.fill");
    ops.Add(gen->Run(s.journal_submits - static_cast<int>(gen->position()), kUnpaced, 0, 1.0));
  }
  const size_t journal_submitted = gen->position();
  JsonValue before_kill;
  checks.Expect(gen->AllStatuses(&before_kill, &error), "serve.final_status", error);
  ++ops.attempted;
  gen.reset();
  server->Kill();
  const int64_t wal_appends = server->runner()->wal_appends();
  server.reset();
  std::error_code size_error;
  const double wal_bytes = static_cast<double>(fs::file_size(journal_wal, size_error));

  // ---- rounds: replay, recovery, serve slice and capacity, interleaved ---
  // Round k replays the trace in-process, reopens copy k of the journal,
  // serves an open-loop slice of submits and status polls to a second front
  // door, and sends it one closed-loop burst of the next submits.
  // Interleaving spreads every timed metric's samples over the whole run,
  // so a slow stretch of the host moves each a little rather than one a lot.
  // Round 0 only warms the allocator, the caches and the server.
  const double slice_s = kServeShare * args.seconds / s.rounds;
  const int slice_submits = static_cast<int>(std::lround(s.submit_rps * slice_s));
  const int slice_statuses = static_cast<int>(std::lround(s.status_rps * slice_s));
  const size_t stream_needed = static_cast<size_t>(std::lround(s.submit_rps * kWarmupS)) +
                               static_cast<size_t>(s.rounds + 1) *
                                   static_cast<size_t>(slice_submits + s.capacity_burst);
  if (stream_needed > s.serve.size()) {
    throw std::runtime_error("serve stream too short for --seconds " +
                             std::to_string(args.seconds) + ": " + std::to_string(stream_needed) +
                             " submits needed, " + std::to_string(s.serve.size()) + " made");
  }
  start_front_door(s, args.work_dir + "/live.wal", args.trace, &server, &gen);

  std::vector<double> replay_jobs_per_s;
  std::vector<double> replay_wall_s;
  ServiceReport first_report;
  Outcomes replay_outcomes;
  std::vector<double> restart_s;
  std::vector<double> read_s;
  std::unique_ptr<ServiceRunner> recovered;
  Outcomes recovered_outcomes;
  std::vector<double> submit_ms, status_ms;  // the timed slices' samples, pooled
  std::vector<double> burst_rps;
  std::vector<double> burst_cpu_us;
  for (int k = 0; k <= s.rounds; ++k) {
    // Replay.
    auto service = std::make_unique<TuningService>(s.config);
    for (const auto& e : s.experiments) {
      service->SubmitExperiment(e);
    }
    int64_t t0 = NowNs();
    ServiceReport report;
    {
      ScopedSpan span(spans, "replay.run");
      report = service->Run();
    }
    const double wall = Seconds(t0, NowNs());
    service.reset();
    const Outcomes outcomes = Summarize(report.jobs);
    replay_attempted += outcomes.submitted;
    checks.Expect(outcomes.Terminal(), "replay.terminal_states",
                  "completed + rejected + cancelled != submitted");
    checks.Expect(CounterOr0(report.metrics, "sim.callback_heap_fallbacks") == 0,
                  "sim.callback_heap_fallbacks");
    if (k == 0) {
      replay_outcomes = outcomes;
      first_report = std::move(report);
    } else {
      replay_wall_s.push_back(wall);
      replay_jobs_per_s.push_back(outcomes.submitted / wall);
      checks.Expect(outcomes == replay_outcomes, "replay.outcomes_identical",
                    "replay " + std::to_string(k) + " differs from replay 0");
    }

    // Recovery.
    const std::string copy = args.work_dir + "/recover-" + std::to_string(k) + ".wal";
    fs::copy_file(journal_wal, copy, fs::copy_options::overwrite_existing);
    if (args.trace && k > 0) {
      // Read share of a recovery, timed on its own (traced runs only).
      rubberband::WalReadResult wal;
      const int64_t r0 = NowNs();
      {
        ScopedSpan span(spans, "recover.read_wal");
        rubberband::ReadWal(copy, &wal, &error);
      }
      read_s.push_back(Seconds(r0, NowNs()));
    }
    recovered.reset();
    t0 = NowNs();
    try {
      ScopedSpan span(spans, "recover.open");
      recovered = ServiceRunner::Open(MakeServerOptions(s, copy).runner);
    } catch (const std::exception& e) {
      checks.Expect(false, "recover.open", e.what());
      break;
    }
    const double open_s = Seconds(t0, NowNs());
    const Outcomes reopened = Summarize(recovered->service());
    if (k == 0) {
      recovered_outcomes = reopened;
    } else {
      restart_s.push_back(open_s);
      checks.Expect(reopened == recovered_outcomes, "recover.outcomes_identical",
                    "recovery " + std::to_string(k) + " differs from recovery 0");
    }

    // Serve slice at the nominal rates.
    Traffic slice;
    {
      ScopedSpan span(spans, "serve.slice");
      slice = gen->Run(slice_submits, s.submit_rps, slice_statuses, s.status_rps);
    }
    ops.Add(slice);
    if (k > 0) {
      submit_ms.insert(submit_ms.end(), slice.submit_ms.begin(), slice.submit_ms.end());
      status_ms.insert(status_ms.end(), slice.status_ms.begin(), slice.status_ms.end());
    }

    // Capacity burst: wall time and the CPU time of the whole process
    // (client and server threads) per submit.
    ScopedSpan span(spans, "capacity.burst");
    t0 = NowNs();
    const int64_t cpu0 = ProcessCpuNs();
    const Traffic burst = gen->Run(s.capacity_burst, kUnpaced, 0, 1.0);
    const double burst_s = Seconds(t0, NowNs());
    const double burst_cpu_s = (ProcessCpuNs() - cpu0) / 1e9;
    ops.Add(burst);
    if (k > 0) {
      burst_rps.push_back(s.capacity_burst / burst_s);
      burst_cpu_us.push_back(burst_cpu_s * 1e6 / s.capacity_burst);
    }
  }
  const MetricsSnapshot server_metrics = server->ServerMetrics();
  const std::vector<LoggedOp> logged = gen->ops();
  gen.reset();
  server->Stop();
  server.reset();

  rubberband::WalRecoveryStats wal_stats;
  std::map<std::string, double> obs_ms;
  if (recovered != nullptr) {
    wal_stats = recovered->wal_stats();
    TuningService& service = recovered->service();
    // Every job settled before the kill reads back identically.
    int64_t settled = 0;
    int64_t mismatched = 0;
    for (const JsonValue& job : before_kill.array()) {
      const std::string& state = job.at("state").string();
      if (state == "PENDING" || state == "QUEUED" || state == "RUNNING") {
        continue;
      }
      ++settled;
      const size_t index = service.FindJob(job.at("job").string());
      if (index == TuningService::kNoJob ||
          rubberband::JobStatusJson(service.outcome(index)) != job) {
        ++mismatched;
      }
    }
    checks.Expect(mismatched == 0, "recover.settled_jobs_match",
                  std::to_string(mismatched) + " of " + std::to_string(settled) + " differ");
    checks.Expect(service.num_jobs() == journal_submitted, "recover.job_count",
                  std::to_string(service.num_jobs()) + " jobs, " +
                      std::to_string(journal_submitted) + " submitted");
    if (args.trace) {
      // The report and metrics views, through Handle and directly.
      std::vector<double> report_ms, metrics_ms, snapshot_ms, metrics_now_ms;
      for (int k = 0; k < 5; ++k) {
        Request request;
        request.method = "report";
        int64_t t0 = NowNs();
        recovered->Handle(request);
        report_ms.push_back(Seconds(t0, NowNs()) * 1e3);
        request.method = "metrics";
        t0 = NowNs();
        recovered->Handle(request);
        metrics_ms.push_back(Seconds(t0, NowNs()) * 1e3);
        t0 = NowNs();
        service.SnapshotReport();
        snapshot_ms.push_back(Seconds(t0, NowNs()) * 1e3);
        t0 = NowNs();
        service.MetricsNow();
        metrics_now_ms.push_back(Seconds(t0, NowNs()) * 1e3);
      }
      obs_ms["obs.report_json_ms"] = Median(report_ms);
      obs_ms["obs.metrics_json_ms"] = Median(metrics_ms);
      obs_ms["service.snapshot_report_ms"] = Median(snapshot_ms);
      obs_ms["service.metrics_now_ms"] = Median(metrics_now_ms);
    }
    // Drained, every submitted job is in exactly one terminal state.
    service.FinishLive();
    const Outcomes drained = Summarize(service);
    checks.Expect(drained.Terminal() && drained.in_flight == 0,
                  "recover.terminal_states_after_drain");
    recovered.reset();
  }

  // ---- traced per-layer extras -------------------------------------------
  std::map<std::string, double> layer;
  if (args.trace) {
    // Planner and spec: each admission plan of the replay trace again,
    // through the public entries, over evaluators shared per shape as the
    // service shares them.
    std::map<std::string, rubberband::ModelProfile> profiles;
    std::map<std::string, std::unique_ptr<rubberband::PlanEvaluator>> evaluators;
    std::vector<double> plan_ms, compile_us;
    double plan_busy_s = 0.0;
    for (const rubberband::ExperimentRequest& e : s.experiments) {
      int64_t t0 = NowNs();
      rubberband::CompiledPlan compiled;
      {
        ScopedSpan span(spans, "spec.compile");
        compiled = rubberband::CompileExperiment(e.ir);
      }
      compile_us.push_back(Seconds(t0, NowNs()) * 1e6);
      auto profile = profiles.find(e.workload.name);
      if (profile == profiles.end()) {
        rubberband::ProfilerOptions options = s.config.profiler;
        options.seed = s.config.seed;
        profile = profiles
                      .emplace(e.workload.name,
                               rubberband::ProfileWorkload(e.workload, options).profile)
                      .first;
      }
      for (const rubberband::CompiledUnit& unit : compiled.units) {
        rubberband::JobRequest job;
        job.spec = unit.spec;
        job.workload = e.workload;
        job.asha = compiled.asha;
        const std::string key = ShapeKey(job);
        t0 = NowNs();
        {
          ScopedSpan span(spans, "planner.plan");
          auto it = evaluators.find(key);
          if (it == evaluators.end()) {
            rubberband::PlannerOptions options = s.config.planner;
            options.max_total_gpus = std::min(options.max_total_gpus, s.config.capacity_gpus);
            const rubberband::PlannerInputs inputs{job.spec, profile->second, s.config.cloud,
                                                   e.deadline};
            it = evaluators
                     .emplace(key, std::make_unique<rubberband::PlanEvaluator>(inputs, options))
                     .first;
          } else {
            it->second->set_deadline(e.deadline);
          }
          if (job.asha != nullptr) {
            rubberband::PlanStatic(*it->second);
          } else {
            rubberband::PlanGreedy(*it->second);
          }
        }
        const double wall = Seconds(t0, NowNs());
        plan_busy_s += wall;
        plan_ms.push_back(wall * 1e3);
      }
    }
    layer["planner.plan_ms_p50"] = Quantile(plan_ms, 0.5);
    layer["planner.plan_ms_p99"] = Quantile(plan_ms, 0.99);
    layer["planner.busy_s"] = plan_busy_s;
    layer["planner.plans_timed"] = static_cast<double>(plan_ms.size());
    layer["spec.compiles"] = static_cast<double>(compile_us.size());
    layer["spec.compile_us_p50"] = Quantile(compile_us, 0.5);

    // Server: the same op sequence through an in-process runner (no
    // sockets), submit-connection order kept, status ops interleaved in
    // their logged order.
    std::vector<double> handle_submit_us, handle_status_us;
    {
      rubberband::RunnerOptions options = MakeServerOptions(s, args.work_dir + "/handle.wal").runner;
      ServiceRunner runner(options);
      for (const LoggedOp& op : logged) {
        const int64_t t0 = NowNs();
        const rubberband::OpResult result = [&] {
          ScopedSpan span(spans, "server.handle");
          return runner.Handle(op.request);
        }();
        const double us = Seconds(t0, NowNs()) * 1e6;
        if (op.request.method == "submit") {
          handle_submit_us.push_back(us);
        } else if (op.request.method == "status" && !op.submit_connection) {
          handle_status_us.push_back(us);
        }
      }
    }
    layer["server.handle_submit_us_p50"] = Quantile(handle_submit_us, 0.5);
    layer["server.handle_status_us_p50"] = Quantile(handle_status_us, 0.5);

    // Service: SubmitLive alone, over the first serve submits.
    std::vector<double> submit_live_us;
    {
      TuningService live(s.config);
      live.StartLive();
      for (size_t i = 0; i < std::min<size_t>(s.serve.size(), 2000); ++i) {
        rubberband::JobRequest job;
        rubberband::ParseJobRequest(s.serve[i].params, &job, &error);
        live.AdvanceUntil(live.now());
        const int64_t t0 = NowNs();
        live.SubmitLive(std::move(job));
        submit_live_us.push_back(Seconds(t0, NowNs()) * 1e6);
        live.AdvanceUntil(live.now());
        if ((i + 1) % static_cast<size_t>(s.advance_every) == 0 && i + 1 < s.serve.size()) {
          live.AdvanceUntil(live.now() + s.serve[i + 1].at_s -
                            s.serve[i + 1 - static_cast<size_t>(s.advance_every)].at_s);
        }
      }
    }
    layer["service.submit_live_us_p50"] = Quantile(submit_live_us, 0.5);
    for (const auto& [name, value] : obs_ms) {
      layer[name] = value;
    }
  }

  // ---- metrics -----------------------------------------------------------
  const double submit_ms_p50 = Quantile(submit_ms, 0.5);
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", Median(setup_s)},
      {"replay_jobs_per_s", "1/s", Median(replay_jobs_per_s)},
      {"restart_s", "s", Median(restart_s)},
      {"cost_per_job_usd", "USD", replay_outcomes.CostPerJob()},
      {"deadline_hit_ratio", "ratio", replay_outcomes.DeadlineHitRatio()},
      {"admitted_ratio", "ratio", replay_outcomes.AdmittedRatio()},
      {"peak_rss_mb", "MB", 0.0},  // filled below
  };

  std::printf("workload %s seed %llu: %zu experiments -> %lld jobs replayed, %zu journal "
              "submits, %d rounds of %d submits + %d polls and a %d-submit burst\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              s.experiments.size(), static_cast<long long>(replay_outcomes.submitted),
              journal_submitted, s.rounds, slice_submits, slice_statuses, s.capacity_burst);
  std::printf("timed serve samples: %zu submits, %zu status polls; generator late max %.2f ms\n",
              submit_ms.size(), status_ms.size(), ops.late_max_ms);
  const auto print_series = [](const char* name, const std::vector<double>& values) {
    std::printf("%s:", name);
    for (double v : values) {
      std::printf(" %.4g", v);
    }
    std::printf("\n");
  };
  print_series("setup s", setup_s);
  print_series("replay wall s", replay_wall_s);
  print_series("restart s", restart_s);
  print_series("burst rps", burst_rps);
  print_series("burst cpu us", burst_cpu_us);
  std::printf("serve outcomes after recovery: %lld submitted, %lld completed, %lld rejected, "
              "%lld cancelled, %lld in flight, cost/job %.6f, deadline hits %.6f\n",
              static_cast<long long>(recovered_outcomes.submitted),
              static_cast<long long>(recovered_outcomes.completed),
              static_cast<long long>(recovered_outcomes.rejected),
              static_cast<long long>(recovered_outcomes.cancelled),
              static_cast<long long>(recovered_outcomes.in_flight),
              recovered_outcomes.CostPerJob(), recovered_outcomes.DeadlineHitRatio());

  // Property shares of the workload, each with its base.
  const MetricsSnapshot& rm = first_report.metrics;
  int64_t memo_hits = 0;
  std::set<std::string> shapes;
  {
    std::set<std::string> seen;
    for (const rubberband::ExperimentRequest& e : s.experiments) {
      const rubberband::CompiledPlan compiled = rubberband::CompileExperiment(e.ir);
      for (const rubberband::CompiledUnit& unit : compiled.units) {
        rubberband::JobRequest job;
        job.spec = unit.spec;
        job.workload = e.workload;
        job.asha = compiled.asha;
        const std::string key = ShapeKey(job) + "|" + std::to_string(e.deadline);
        memo_hits += seen.insert(key).second ? 0 : 1;
      }
    }
    shapes = std::move(seen);
  }
  const double jobs = static_cast<double>(replay_outcomes.submitted);
  const std::vector<Metric> shares = {
      {"share.memo_admissions", "ratio", Ratio(memo_hits, jobs)},
      {"share.distinct_shapes", "ratio", Ratio(static_cast<double>(shapes.size()), jobs)},
      {"share.faulted_jobs", "ratio",
       Ratio(replay_outcomes.faulted, static_cast<double>(replay_outcomes.completed))},
      {"share.queued_jobs", "ratio", Ratio(CounterOr0(rm, "service.jobs_queued"), jobs)},
      {"share.cancelled_jobs", "ratio", Ratio(replay_outcomes.cancelled, jobs)},
      {"share.base_jobs", "count", jobs},
      {"share.base_completed", "count", static_cast<double>(replay_outcomes.completed)},
  };
  for (const Metric& m : shares) {
    std::printf("property %-28s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<Metric> report;
  if (!args.trace) {
    report = end_to_end;
    report.back().value = peak_rss_mb;
  } else {
    const rubberband::PlannerCacheStats& cache = first_report.planner_cache;
    const double advance_busy_s = Median(replay_wall_s);
    const double events = static_cast<double>(CounterOr0(rm, "sim.events.run"));
    const double warm_hits = static_cast<double>(CounterOr0(rm, "cloud.warm.warm_hits"));
    const double warm_requests = static_cast<double>(CounterOr0(rm, "cloud.warm.requests"));
    const double read = Median(read_s);
    report = {
        {"planner.plan_evaluations", "count", static_cast<double>(cache.plan_evaluations)},
        {"planner.stage_evaluations", "count", static_cast<double>(cache.stage_evaluations)},
        {"planner.plan_memo_hit_ratio", "ratio", cache.PlanHitRate()},
        {"planner.plan_lookups", "count",
         static_cast<double>(cache.plan_evaluations + cache.plan_memo_hits)},
        {"planner.stage_hit_ratio", "ratio", cache.StageHitRate()},
        {"planner.stage_lookups", "count",
         static_cast<double>(cache.stage_evaluations + cache.stage_cache_hits)},
        {"planner.plan_ms_p50", "ms", layer["planner.plan_ms_p50"]},
        {"planner.plan_ms_p99", "ms", layer["planner.plan_ms_p99"]},
        {"planner.busy_s", "s", layer["planner.busy_s"]},
        {"planner.plans_timed", "count", layer["planner.plans_timed"]},
        {"spec.compiles", "count", layer["spec.compiles"]},
        {"spec.compile_us_p50", "us", layer["spec.compile_us_p50"]},
        {"service.advance_busy_s", "s", advance_busy_s},
        {"service.submit_live_us_p50", "us", layer["service.submit_live_us_p50"]},
        {"service.jobs_admitted", "count",
         static_cast<double>(CounterOr0(rm, "service.jobs_admitted"))},
        {"service.jobs_queued", "count",
         static_cast<double>(CounterOr0(rm, "service.jobs_queued"))},
        {"service.jobs_rejected", "count", static_cast<double>(replay_outcomes.rejected)},
        {"service.jobs_cancelled", "count", static_cast<double>(replay_outcomes.cancelled)},
        {"service.queue_wait_s_mean", "s", first_report.mean_queue_wait},
        {"service.snapshot_report_ms", "ms", layer["service.snapshot_report_ms"]},
        {"service.metrics_now_ms", "ms", layer["service.metrics_now_ms"]},
        {"sim.events_run", "count", events},
        {"sim.events_cancelled", "count",
         static_cast<double>(CounterOr0(rm, "sim.events.cancelled"))},
        {"sim.queue_depth_high_water", "count", GaugeOr0(rm, "sim.queue.depth_high_water")},
        {"sim.callback_heap_fallbacks", "count",
         static_cast<double>(CounterOr0(rm, "sim.callback_heap_fallbacks"))},
        {"sim.events_per_busy_s", "1/s", Ratio(events, advance_busy_s)},
        {"executor.checkpoint_saves", "count",
         static_cast<double>(CounterOr0(rm, "executor.checkpoint_saves"))},
        {"executor.trial_restarts", "count",
         static_cast<double>(CounterOr0(rm, "executor.trial_restarts"))},
        {"executor.replans", "count", static_cast<double>(CounterOr0(rm, "executor.replans"))},
        {"executor.preemptions", "count",
         static_cast<double>(CounterOr0(rm, "executor.preemptions"))},
        {"executor.stragglers_quarantined", "count",
         static_cast<double>(CounterOr0(rm, "executor.stragglers_quarantined"))},
        {"executor.recovery_s", "s", GaugeOr0(rm, "executor.recovery_seconds")},
        {"cloud.instances_launched", "count",
         static_cast<double>(CounterOr0(rm, "cloud.instances_launched"))},
        {"cloud.warm_hit_ratio", "ratio", Ratio(warm_hits, warm_requests)},
        {"cloud.warm_requests", "count", warm_requests},
        {"cloud.instances_crashed", "count",
         static_cast<double>(CounterOr0(rm, "cloud.instances_crashed"))},
        {"spot.market_fallbacks", "count",
         static_cast<double>(CounterOr0(rm, "spot.market_fallbacks"))},
        {"spot.eager_checkpoints", "count",
         static_cast<double>(CounterOr0(rm, "spot.eager_checkpoints"))},
        {"server.client_submit_ms_p50", "ms", submit_ms_p50},
        {"server.frontdoor_max_rps", "1/s", Median(burst_rps)},
        {"server.frontdoor_cpu_us_per_submit", "us", Median(burst_cpu_us)},
        {"server.client_status_ms_p50", "ms", Quantile(status_ms, 0.5)},
        {"server.client_submit_ms_p99", "ms", Quantile(submit_ms, 0.99)},
        {"server.client_status_ms_p99", "ms", Quantile(status_ms, 0.99)},
        {"server.decision_ms_p50", "ms",
         HistogramQuantileMs(server_metrics, "server.submit.decision_ns", 0.5)},
        {"server.decision_ms_p99", "ms",
         HistogramQuantileMs(server_metrics, "server.submit.decision_ns", 0.99)},
        {"server.handle_submit_us_p50", "us", layer["server.handle_submit_us_p50"]},
        {"server.handle_status_us_p50", "us", layer["server.handle_status_us_p50"]},
        {"server.wire_ms_p50", "ms", submit_ms_p50 - layer["server.handle_submit_us_p50"] / 1e3},
        {"server.ops_attempted", "count", static_cast<double>(ops.attempted)},
        {"server.ops_failed", "count", static_cast<double>(ops.failed)},
        {"server.generator_late_ms_max", "ms", ops.late_max_ms},
        {"journal.appends", "count", static_cast<double>(wal_appends)},
        {"journal.bytes", "bytes", wal_bytes},
        {"journal.bytes_per_op", "bytes", Ratio(wal_bytes, static_cast<double>(wal_appends))},
        {"journal.read_s", "s", read},
        {"recover.replay_s", "s", Median(restart_s) - read},
        {"recover.ops_replayed", "count", static_cast<double>(wal_stats.ops_replayed)},
        {"recover.outcomes_verified", "count", static_cast<double>(wal_stats.outcomes_verified)},
        {"obs.report_json_ms", "ms", layer["obs.report_json_ms"]},
        {"obs.metrics_json_ms", "ms", layer["obs.metrics_json_ms"]},
    };
    report.insert(report.end(), shares.begin(), shares.end());

    // Self time per benchmark span, written out with the spans.
    const auto totals = spans.Finish(args.work_dir + "/spans-" + args.workload + ".jsonl");
    std::printf("\nspan %-24s %8s %10s %10s\n", "name", "count", "total_s", "self_s");
    for (const auto& [name, t] : totals) {
      std::printf("span %-24s %8lld %10.4f %10.4f\n", name.c_str(), static_cast<long long>(t.count),
                  t.total_s, t.self_s);
    }
    std::printf("\nend-to-end figures of this traced run (compare with an untraced run):\n");
    for (const Metric& m : end_to_end) {
      std::printf("  traced %-28s %.17g %s\n", m.name.c_str(),
                  m.name == "peak_rss_mb" ? peak_rss_mb : m.value, m.unit.c_str());
    }
  }

  for (const std::string& e : ops.errors) {
    std::fprintf(stderr, "operation failed: %s\n", e.c_str());
  }

  std::printf("\n");
  for (const Metric& m : report) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "self-check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              checks.ok() ? "true" : "false",
              static_cast<long long>(ops.attempted + replay_attempted +
                                     static_cast<int64_t>(restart_s.size())),
              static_cast<long long>(ops.failed));
  for (size_t i = 0; i < report.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                report[i].name.c_str(), report[i].value, report[i].unit.c_str());
  }
  std::printf("}}\n");
  return checks.ok() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rbbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  try {
    return perfbench::RunBenchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
