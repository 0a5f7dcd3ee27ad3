// rubberband — command-line front end.
//
//   rubberband plan    [flags]   compile + compare plans for one job
//   rubberband execute [flags]   compile the elastic plan and run end-to-end
//   rubberband sweep   [flags]   cost vs deadline exploration
//   rubberband asha    [flags]   run the time-limited ASHA baseline on a
//                                fixed pool (--workers, --gpus-per-trial);
//                                execute --scheduler=asha instead plans and
//                                bills ASHA like any other job
//   rubberband serve   [flags]   replay a job-arrival trace on the service
//   rubberband trace2chrome --in=<trace.csv> [--out=<trace.json>]
//                                convert a --trace-csv event log to Chrome
//                                trace-event JSON (chrome://tracing, Perfetto)
//
// Common flags:
//   --workload=resnet101-cifar10   (see FindWorkload for the catalog)
//   --scheduler=sha|hyperband|asha|random|grid   experiment front end (plan,
//                                  execute, and serve compile the experiment
//                                  IR; sha is the default and byte-identical
//                                  to the historical hard-coded path)
//   --spec-file=<experiment.json>  load the experiment IR from a JSON spec
//                                  instead of flags (see examples/)
//   --grid-lr-points=4 --grid-wd-points=4 --grid-momentum-points=2
//                                  grid axis resolution (--scheduler=grid)
//   --trials=32 --min-iters=1 --max-iters=50 --eta=3      SHA parameters
//   --deadline-min=20                                     time constraint
//   --instance=p3.8xlarge --billing=per-instance|per-function
//   --data-price-gb=0.0 --queue-s=5 --init-s=10
//   --spot --spot-mttp-s=14400 --seed=1
//   Spot market (all take effect only with --spot):
//   --spot-discount=0.3            spot price as a fraction of on-demand
//   --spot-volatility=0.0          per-step stddev of the price random walk
//   --spot-price-interval-s=300    seconds between price-trace steps
//   --spot-hazard-coupling=0.0     preemption-hazard exponent on the price
//                                  level (cheap capacity reclaims faster)
//   --spot-storm-interval-s=0      mean seconds between reclamation storms
//                                  (0 = storms off)
//   --spot-storm-fraction=0.25     fraction of the family a storm sweeps
//   --spot-capacity=0              family capacity limit (0 = unlimited);
//                                  over-limit requests are rejected outright
//   --spot-warning-s=120           reclamation warning the executor uses to
//                                  checkpoint eagerly before the reclaim
//   --plan-threads=4               parallel candidate evaluation inside the
//                                  planner (identical plans at any count;
//                                  at most the host's hardware threads)
//   Fault injection (all default off; runs stay deterministic per seed):
//   --provision-failure-rate=0.1   provider rejects requests at this rate
//   --init-failure-rate=0.05       launched instances die during init (billed)
//   --mtbf=3600                    mean seconds between hardware crashes
//   --ckpt-failure-rate=0.02       checkpoint fetches fail and retry
//   --straggler-rate=0.2           instances launch persistently slow at this
//                                  rate (gray failure; factor drawn per instance)
//   --straggler-factor=3           slowdown factor of a straggling instance
//                                  (sets the min=max of the draw; default 2-4x)
//   --mitigate-stragglers          detect stragglers from observed iteration
//                                  times and quarantine them (checkpoint out,
//                                  discard instance, restart on a replacement)
//   Observability (execute and serve):
//   --metrics-json=<path>          write the metrics registry snapshot as JSON
//   --chrome-trace=<path>          write a Chrome trace-event JSON timeline
//   --top-phases                   print phases ranked by total time
// plan:     --render (ASCII chart), --budget=<dollars> (adds the min-time dual)
// execute:  --trace-csv (dump the event log)
//           --replan (re-plan remaining stages when faults burn deadline slack)
// sweep:    --from-min=15 --to-min=60 --step-min=5
// serve:    --jobs=4 --gap-s=120 --capacity-gpus=64 --overcommit=1.0
//           --warm --pool-max=16 --warm-ttl-s=300 --budget=<dollars per job>
//           (each job runs the common SHA spec/deadline; arrivals --gap-s apart)
//           --listen turns serve into the networked front door:
//           --host=127.0.0.1 --port=8787 --rate=<submits/s per tenant>
//           --burst=8 --queue-cap=256 --auto-advance-s=1
//           --wal=rubberband.wal --wal-fsync=always|batch|off
//           (a restart with the same --wal resumes where the last server
//           drained or died)
// client:   rubberband client <action> --host=.. --port=.. --tenant=..
//           actions: submit (--name --workload --trials --min-iters
//           --max-iters --eta --deadline-min --budget --weight), status
//           [--job], cancel --job, report, metrics, trace [--out], advance
//           --seconds, drain [--mode=snapshot|finish], ping

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/common/report_format.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/rubberband.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace rubberband {
namespace {

struct CliSetup {
  WorkloadSpec workload;
  // The declarative experiment (from --scheduler flags or --spec-file) and
  // its compiled lowering; `spec` is the first compiled unit — for sha the
  // exact MakeSha spec the CLI always built, so the legacy single-spec
  // commands stay byte-identical.
  ExperimentIR ir;
  CompiledPlan compiled;
  ExperimentSpec spec;
  ModelProfile profile;
  CloudProfile cloud;
  Seconds deadline = 0.0;
  uint64_t seed = 0;
  PlannerOptions planner;
  bool mitigate_stragglers = false;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Warns about every flag no accessor has read (typos, retired flags), then
// marks each read so a later call does not warn about it again.
void WarnUnusedFlags(const Flags& flags) {
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
    flags.GetString(key);
  }
}

// Observability outputs shared by execute and serve. Any of the flags turns
// on span/histogram recording (--observe alone records without exporting).
struct ObsFlags {
  std::string metrics_json;
  std::string chrome_trace;
  bool top_phases = false;
  bool observe = false;

  bool Enabled() const {
    return observe || top_phases || !metrics_json.empty() || !chrome_trace.empty();
  }
};

ObsFlags ParseObsFlags(const Flags& flags) {
  ObsFlags obs;
  obs.metrics_json = flags.GetString("metrics-json", "");
  obs.chrome_trace = flags.GetString("chrome-trace", "");
  obs.top_phases = flags.GetBool("top-phases");
  obs.observe = flags.GetBool("observe");
  return obs;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: failed to write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

// Writes the metrics/chrome-trace artifacts and prints the phase summary.
// Returns 0, or 1 if any file write failed.
int EmitObservability(const ObsFlags& obs, const MetricsSnapshot& metrics,
                      const Timeline& timeline, const std::string& chrome_json) {
  int status = 0;
  if (!obs.metrics_json.empty()) {
    if (WriteFile(obs.metrics_json, metrics.ToJson())) {
      std::printf("metrics: wrote %s\n", obs.metrics_json.c_str());
    } else {
      status = 1;
    }
  }
  if (!obs.chrome_trace.empty()) {
    if (WriteFile(obs.chrome_trace, chrome_json)) {
      std::printf("chrome trace: wrote %s (open in chrome://tracing or Perfetto)\n",
                  obs.chrome_trace.c_str());
    } else {
      status = 1;
    }
  }
  if (obs.top_phases) {
    std::printf("\n%s", TopPhasesSummary(timeline).c_str());
  }
  return status;
}

bool BuildSetup(const Flags& flags, CliSetup& setup) {
  const std::string workload_name = flags.GetString("workload", "resnet101-cifar10");
  const auto workload = FindWorkload(workload_name);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return false;
  }
  setup.workload = *workload;

  const std::string spec_file = flags.GetString("spec-file", "");
  try {
    if (!spec_file.empty()) {
      setup.ir = LoadExperimentIR(spec_file);
    } else {
      setup.ir.scheduler = ParseSchedulerKind(flags.GetString("scheduler", "sha"));
      setup.ir.num_trials = flags.GetInt("trials", 32);
      setup.ir.min_iters = flags.GetInt64("min-iters", 1);
      setup.ir.max_iters = flags.GetInt64("max-iters", 50);
      setup.ir.reduction_factor = flags.GetInt("eta", 3);
      setup.ir.grid.lr_points = flags.GetInt("grid-lr-points", setup.ir.grid.lr_points);
      setup.ir.grid.wd_points = flags.GetInt("grid-wd-points", setup.ir.grid.wd_points);
      setup.ir.grid.momentum_points =
          flags.GetInt("grid-momentum-points", setup.ir.grid.momentum_points);
    }
    setup.compiled = CompileExperiment(setup.ir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  setup.spec = setup.compiled.units.front().spec;

  const std::string instance_name = flags.GetString("instance", "p3.8xlarge");
  const auto instance = FindInstanceType(instance_name);
  if (!instance.has_value() || instance->gpus < 1) {
    std::fprintf(stderr, "unknown or CPU-only instance type '%s'\n", instance_name.c_str());
    return false;
  }
  setup.cloud.instance = *instance;
  setup.cloud.provisioning =
      ProvisioningModel::Fixed(flags.GetDouble("queue-s", 5.0), flags.GetDouble("init-s", 10.0));
  const std::string billing = flags.GetString("billing", "per-instance");
  if (billing == "per-function") {
    setup.cloud.pricing.billing = BillingModel::kPerFunction;
  } else if (billing != "per-instance") {
    std::fprintf(stderr, "unknown billing model '%s'\n", billing.c_str());
    return false;
  }
  setup.cloud.pricing.data_price_per_gb =
      Money::FromDollars(flags.GetDouble("data-price-gb", 0.0));
  if (flags.GetBool("spot")) {
    SpotMarket& spot = setup.cloud.spot;
    spot.enabled = true;
    spot.mean_time_to_preemption = flags.GetDouble("spot-mttp-s", 14'400.0);
    spot.discount = flags.GetDouble("spot-discount", spot.discount);
    spot.volatility = flags.GetDouble("spot-volatility", spot.volatility);
    spot.price_interval_s = flags.GetDouble("spot-price-interval-s", spot.price_interval_s);
    spot.hazard_coupling = flags.GetDouble("spot-hazard-coupling", spot.hazard_coupling);
    spot.storm_mean_interval_s =
        flags.GetDouble("spot-storm-interval-s", spot.storm_mean_interval_s);
    spot.storm_fraction = flags.GetDouble("spot-storm-fraction", spot.storm_fraction);
    spot.capacity_limit = flags.GetInt("spot-capacity", spot.capacity_limit);
    spot.reclamation_warning_s = flags.GetDouble("spot-warning-s", spot.reclamation_warning_s);
  }
  setup.cloud.fault.provision_failure_rate = flags.GetDouble("provision-failure-rate", 0.0);
  setup.cloud.fault.init_failure_rate = flags.GetDouble("init-failure-rate", 0.0);
  setup.cloud.fault.mtbf = flags.GetDouble("mtbf", 0.0);
  setup.cloud.fault.checkpoint_failure_rate = flags.GetDouble("ckpt-failure-rate", 0.0);
  setup.cloud.fault.straggler_rate = flags.GetDouble("straggler-rate", 0.0);
  if (flags.Has("straggler-factor")) {
    const double factor = flags.GetDouble("straggler-factor", 3.0);
    setup.cloud.fault.straggler_factor_min = factor;
    setup.cloud.fault.straggler_factor_max = factor;
  }
  setup.mitigate_stragglers = flags.GetBool("mitigate-stragglers");

  setup.deadline = Minutes(flags.GetDouble("deadline-min", 20.0));
  setup.seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  // A planner pool starts eval_threads - 1 worker threads; more threads
  // than the host runs buy nothing, so the count is capped there.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const int max_plan_threads = hardware_threads > 0 ? static_cast<int>(hardware_threads) : 256;
  setup.planner.eval_threads = flags.GetInt("plan-threads", 1);
  if (setup.planner.eval_threads < 1 || setup.planner.eval_threads > max_plan_threads) {
    std::fprintf(stderr, "--plan-threads must be between 1 and %d\n", max_plan_threads);
    return false;
  }

  ProfilerOptions profiler_options;
  profiler_options.seed = setup.seed;
  setup.profile = ProfileWorkload(setup.workload, profiler_options).profile;

  // sha keeps the historical spec banner byte for byte; the other
  // schedulers describe the whole experiment.
  const std::string description = setup.compiled.scheduler == SchedulerKind::kSha
                                      ? setup.spec.ToString()
                                      : setup.ir.ToString();
  std::printf("workload %s | %s | deadline %s | %s, %s\n", setup.workload.name.c_str(),
              description.c_str(), FormatDuration(setup.deadline).c_str(),
              setup.cloud.instance.name.c_str(), ToString(setup.cloud.pricing.billing).c_str());
  return true;
}

void PrintJob(const char* name, const PlannedJob& job) {
  std::printf("%-14s %-28s JCT %8s  cost %8s%s\n", name, job.plan.ToString().c_str(),
              FormatDuration(job.estimate.jct_mean).c_str(),
              job.estimate.cost_mean.ToString().c_str(), job.feasible ? "" : "  [infeasible]");
}

// The executor options `execute` runs with, for every scheduler.
ExecutorOptions ExecuteOptions(const Flags& flags, const CliSetup& setup, bool observe) {
  ExecutorOptions options;
  options.seed = setup.seed;
  options.observe = observe;
  if (setup.mitigate_stragglers) {
    options.straggler.detect = true;
    options.straggler.mitigate = true;
  }
  if (flags.GetBool("replan")) {
    options.replan.enabled = true;
    options.replan.deadline = setup.deadline;
    options.replan.model = setup.profile;
    options.replan.planner = setup.planner;
  }
  return options;
}

// plan/execute for every scheduler beyond sha: one planned job per compiled
// unit, with an aggregate experiment line (units run concurrently).
int RunPlanCompiled(CliSetup& setup) {
  const CompiledPlannedExperiment planned = PlanCompiledExperiment(
      setup.compiled, setup.profile, setup.cloud, setup.deadline, setup.planner);
  for (size_t i = 0; i < planned.units.size(); ++i) {
    PrintJob(setup.compiled.units[i].name.c_str(), planned.units[i]);
  }
  std::printf("%-14s %-28s JCT %8s  cost %8s%s\n", "experiment", "",
              FormatDuration(planned.EstimatedJct()).c_str(),
              planned.EstimatedCost().ToString().c_str(),
              planned.feasible ? "" : "  [infeasible]");
  if (setup.compiled.asha) {
    std::printf("asha: %d worker gangs on the envelope's static plan\n", planned.asha_workers);
  }
  return 0;
}

int RunExecuteCompiled(const Flags& flags, CliSetup& setup) {
  const CompiledPlannedExperiment planned = PlanCompiledExperiment(
      setup.compiled, setup.profile, setup.cloud, setup.deadline, setup.planner);
  for (size_t i = 0; i < planned.units.size(); ++i) {
    PrintJob(setup.compiled.units[i].name.c_str(), planned.units[i]);
  }
  if (setup.compiled.asha) {
    std::printf("asha: %d worker gangs on the envelope's static plan\n", planned.asha_workers);
  }

  const ObsFlags obs = ParseObsFlags(flags);
  const ExecutorOptions options = ExecuteOptions(flags, setup, obs.Enabled());
  const CompiledExecutionReport report =
      ExecuteCompiled(setup.compiled, planned, setup.workload, setup.cloud, options);

  if (report.units.size() == 1) {
    std::fputs(FormatExecutionSummary(report.units[0], setup.cloud, setup.deadline).c_str(),
               stdout);
    std::fputs(FormatStageTable(report.units[0]).c_str(), stdout);
  } else {
    for (size_t i = 0; i < report.units.size(); ++i) {
      const ExecutionReport& unit = report.units[i];
      std::printf("%-14s JCT %8s  cost %8s  best %.1f%%\n",
                  setup.compiled.units[i].name.c_str(), FormatDuration(unit.jct).c_str(),
                  unit.cost.Total().ToString().c_str(), 100.0 * unit.best_accuracy);
    }
  }
  std::printf("experiment: JCT %s, cost %s, best %s at %.1f%%\n",
              FormatDuration(report.jct).c_str(), report.cost.Total().ToString().c_str(),
              report.best_config.ToString().c_str(), 100.0 * report.best_accuracy);
  if (flags.GetBool("trace-csv")) {
    for (const ExecutionReport& unit : report.units) {
      std::printf("\n%s", unit.trace.ToCsv().c_str());
    }
  }

  // The multi-unit fleet view mirrors serve's: one pid per unit.
  MetricsSnapshot metrics;
  Timeline fleet;
  ChromeTraceBuilder chrome;
  for (size_t i = 0; i < report.units.size(); ++i) {
    const int pid = static_cast<int>(i) + 1;
    metrics.Merge(report.units[i].metrics);
    fleet.Append(report.units[i].timeline, pid);
    if (!obs.chrome_trace.empty()) {
      chrome.SetProcessName(pid, setup.compiled.units[i].name);
      chrome.AddTimeline(report.units[i].timeline, pid);
      chrome.AddExecutionTrace(report.units[i].trace, pid);
    }
  }
  return EmitObservability(obs, metrics, fleet,
                           obs.chrome_trace.empty() ? std::string() : chrome.ToJson());
}

int RunPlan(const Flags& flags, CliSetup& setup) {
  if (setup.compiled.scheduler != SchedulerKind::kSha) {
    return RunPlanCompiled(setup);
  }
  // One evaluator scores all four plans: its memo is keyed by allocation,
  // not deadline, so the min-time ascent reuses the other searches' work.
  PlanEvaluator evaluator({setup.spec, setup.profile, setup.cloud, setup.deadline},
                          setup.planner);
  const PlannedJob fixed = PlanStatic(evaluator);
  const PlannedJob naive = PlanNaiveElastic(evaluator);
  const PlannedJob elastic = PlanGreedy(evaluator);
  PrintJob("static", fixed);
  PrintJob("naive-elastic", naive);
  PrintJob("rubberband", elastic);
  if (flags.Has("budget")) {
    const Money budget = Money::FromDollars(flags.GetDouble("budget", 0.0));
    PrintJob("min-time", PlanGreedyMinTime(evaluator, budget));
  }
  if (flags.GetBool("render")) {
    std::printf("\n%s", RenderComparison(setup.spec, fixed.plan, elastic.plan, setup.profile,
                                         setup.cloud)
                            .c_str());
  }
  return 0;
}

int RunExecute(const Flags& flags, CliSetup& setup) {
  if (setup.compiled.scheduler != SchedulerKind::kSha) {
    return RunExecuteCompiled(flags, setup);
  }
  PlanEvaluator evaluator({setup.spec, setup.profile, setup.cloud, setup.deadline},
                          setup.planner);
  const PlannedJob job = PlanGreedy(evaluator);
  PrintJob("rubberband", job);

  const ObsFlags obs = ParseObsFlags(flags);
  const ExecutorOptions options = ExecuteOptions(flags, setup, obs.Enabled());
  const ExecutionReport report = Execute(setup.spec, job.plan, setup.workload, setup.cloud,
                                         options);
  std::fputs(FormatExecutionSummary(report, setup.cloud, setup.deadline).c_str(), stdout);
  std::fputs(FormatStageTable(report).c_str(), stdout);
  if (flags.GetBool("trace-csv")) {
    std::printf("\n%s", report.trace.ToCsv().c_str());
  }
  return EmitObservability(obs, report.metrics, report.timeline,
                           obs.chrome_trace.empty() ? std::string()
                                                    : ChromeTraceFromReport(report));
}

int RunSweep(const Flags& flags, CliSetup& setup) {
  const double from = flags.GetDouble("from-min", 15.0);
  const double to = flags.GetDouble("to-min", 60.0);
  const double step = flags.GetDouble("step-min", 5.0);
  if (step <= 0.0 || to < from) {
    return Fail("sweep needs from-min <= to-min and step-min > 0");
  }
  std::printf("%-12s %12s %12s %10s\n", "deadline", "static $", "rubberband $", "gain");
  // Estimates do not depend on the deadline, so one evaluator serves the
  // whole sweep and each later deadline is mostly memo hits.
  PlanEvaluator evaluator({setup.spec, setup.profile, setup.cloud, Minutes(from)},
                          setup.planner);
  for (double minutes = from; minutes <= to + 1e-9; minutes += step) {
    evaluator.set_deadline(Minutes(minutes));
    const PlannedJob fixed = PlanStatic(evaluator);
    const PlannedJob elastic = PlanGreedy(evaluator);
    if (!elastic.feasible) {
      std::printf("%-12.0f %12s %12s %10s\n", minutes, "-", "-", "infeasible");
      continue;
    }
    std::printf("%-12.0f %12s %12s %9.2fx\n", minutes,
                fixed.estimate.cost_mean.ToString().c_str(),
                elastic.estimate.cost_mean.ToString().c_str(),
                fixed.estimate.cost_mean.dollars() / elastic.estimate.cost_mean.dollars());
  }
  return 0;
}

// The ASHA baseline: the compiled kAsha rung ladder on AshaEngine's
// time-limited mode (no sample cap; workers sample until the deadline,
// then in-flight runs drain) on a fixed pool of --workers gangs.
int RunBaselineAsha(const Flags& flags, const CliSetup& setup) {
  ExperimentIR ir = setup.ir;
  ir.scheduler = SchedulerKind::kAsha;
  AshaPlan plan;
  try {
    plan = *CompileExperiment(ir).asha;
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  plan.num_trials = 0;
  plan.gpus_per_trial = flags.GetInt("gpus-per-trial", 1);
  AshaEngineOptions options;
  options.num_workers = flags.GetInt("workers", 8);
  options.time_limit = setup.deadline;
  options.seed = setup.seed;
  AshaEngine engine(plan, setup.workload, setup.cloud, options);
  const ExecutionReport report = engine.Run();
  std::printf("ASHA: %d configurations, JCT %s, cost %s\n", engine.configurations_sampled(),
              FormatDuration(report.jct).c_str(), report.cost.Total().ToString().c_str());
  std::printf("best: %s at %lld iters, accuracy %.1f%%\n",
              report.best_config.ToString().c_str(),
              static_cast<long long>(engine.best_config_cum_iters()),
              100.0 * report.best_accuracy);
  for (size_t r = 0; r < engine.rung_stats().size(); ++r) {
    std::printf("rung %zu: %d completed, %d promoted\n", r, engine.rung_stats()[r].completed,
                engine.rung_stats()[r].promoted);
  }
  return 0;
}

ServiceConfig BuildServiceConfig(const Flags& flags, const CliSetup& setup,
                                 const ObsFlags& obs) {
  ServiceConfig config;
  config.cloud = setup.cloud;
  config.observe = obs.Enabled();
  config.capacity_gpus = flags.GetInt("capacity-gpus", 64);
  config.overcommit = flags.GetDouble("overcommit", 1.0);
  if (flags.GetBool("warm")) {
    config.warm_pool.max_parked = flags.GetInt("pool-max", 16);
    config.warm_pool.max_idle_seconds = flags.GetDouble("warm-ttl-s", 300.0);
  }
  config.planner = setup.planner;
  config.seed = setup.seed;
  config.replan_on_faults = flags.GetBool("replan");
  if (setup.mitigate_stragglers) {
    config.straggler.detect = true;
    config.straggler.mitigate = true;
  }
  return config;
}

// `serve --listen`: the networked front door. Blocks until a client drains
// the server (drain time durable in --wal) or the process is killed.
int RunServeListen(const Flags& flags, const ServiceConfig& config) {
  ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = flags.GetInt("port", 8787);
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue-cap", 256));
  options.rate.rate_per_second = flags.GetDouble("rate", 0.0);
  options.rate.burst = flags.GetDouble("burst", 8.0);
  options.runner.service = config;
  options.runner.auto_advance_step = flags.GetDouble("auto-advance-s", 1.0);
  // Durability: every submit/cancel is journaled (and fsynced per
  // --wal-fsync) before its ack, a drain pins its clock there, and a
  // restart with the same --wal resumes from the journal automatically.
  options.runner.wal_path = flags.GetString("wal", "rubberband.wal");
  if (flags.Has("wal-fsync")) {
    if (!ParseFsyncPolicy(flags.GetString("wal-fsync", "always"), &options.runner.wal.fsync)) {
      return Fail("--wal-fsync must be always, batch, or off");
    }
  }
  options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 300'000);
  options.frame_timeout_ms = flags.GetInt("frame-timeout-ms", 30'000);
  // Every flag the server reads is read by now; a typo should be visible
  // while it runs, not only after it exits.
  WarnUnusedFlags(flags);

  Server server(options);
  std::string error;
  bool started = false;
  try {
    started = server.Start(&error);
  } catch (const std::exception& e) {
    return Fail(std::string("wal resume failed: ") + e.what());
  }
  if (!started) {
    return Fail(error);
  }
  std::fprintf(stderr, "serving on %s:%d (drain with: rubberband client drain)\n",
               options.host.c_str(), server.port());
  server.Wait();
  server.Stop();
  if (server.draining()) {
    std::fprintf(stderr, "drained; resume with --wal=%s\n", options.runner.wal_path.c_str());
  }
  return 0;
}

int RunServe(const Flags& flags, CliSetup& setup) {
  const ObsFlags obs = ParseObsFlags(flags);
  const ServiceConfig config = BuildServiceConfig(flags, setup, obs);
  if (flags.GetBool("listen")) {
    return RunServeListen(flags, config);
  }

  const int num_jobs = flags.GetInt("jobs", 4);
  const double gap = flags.GetDouble("gap-s", 120.0);
  if (num_jobs < 1 || gap < 0.0) {
    return Fail("serve needs --jobs >= 1 and --gap-s >= 0");
  }

  TuningService service(config);
  for (int i = 0; i < num_jobs; ++i) {
    // Every scheduler goes through the experiment front end; a sha
    // experiment submits exactly the job the old hard-coded loop did.
    ExperimentRequest job;
    job.name = "job-" + std::to_string(i);
    job.ir = setup.ir;
    job.workload = setup.workload;
    job.submit_at = gap * i;
    job.deadline = setup.deadline;
    job.budget = Money::FromDollars(flags.GetDouble("budget", 0.0));
    service.SubmitExperiment(job);
  }
  const ServiceReport report = service.Run();

  std::fputs(FormatServiceJobTable(report).c_str(), stdout);
  std::fputs(FormatServiceSummary(report, setup.cloud).c_str(), stdout);
  // The fleet view: service-level spans plus every job's executor phases
  // (each job keeps its own pid, matching the Chrome export's process map).
  Timeline fleet = report.timeline;
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    fleet.Append(report.jobs[i].timeline, static_cast<int>(i) + 1);
  }
  return EmitObservability(obs, report.metrics, fleet,
                           obs.chrome_trace.empty() ? std::string()
                                                    : ChromeTraceFromService(report));
}

// `rubberband client <action> [--flags]`: one request against a running
// `serve --listen` server. Prints the response; exit 0 on ok, 1 on a
// protocol error, 2 on transport failure.
int RunClient(const std::string& action, const Flags& flags) {
  ClientOptions client_options;
  client_options.connect_timeout_ms = flags.GetInt("connect-timeout-ms", 10'000);
  client_options.io_timeout_ms = flags.GetInt("timeout-ms", 30'000);
  client_options.max_attempts = flags.GetInt("retries", 1);
  Client client(client_options);
  std::string error;
  if (!client.Connect(flags.GetString("host", "127.0.0.1"), flags.GetInt("port", 8787),
                      &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  JsonValue params = JsonValue::MakeObject();
  if (action == "submit") {
    params.Set("name", JsonValue::MakeString(flags.GetString("name", "job")));
    params.Set("workload",
               JsonValue::MakeString(flags.GetString("workload", "resnet101-cifar10")));
    params.Set("trials", JsonValue::MakeNumber(flags.GetInt("trials", 32)));
    params.Set("min_iters",
               JsonValue::MakeNumber(static_cast<double>(flags.GetInt64("min-iters", 1))));
    params.Set("max_iters",
               JsonValue::MakeNumber(static_cast<double>(flags.GetInt64("max-iters", 50))));
    params.Set("eta", JsonValue::MakeNumber(flags.GetInt("eta", 3)));
    params.Set("deadline_s", JsonValue::MakeNumber(flags.GetDouble("deadline-min", 20.0) * 60.0));
    params.Set("budget_dollars", JsonValue::MakeNumber(flags.GetDouble("budget", 0.0)));
    params.Set("weight", JsonValue::MakeNumber(flags.GetDouble("weight", 1.0)));
  } else if (action == "status" || action == "cancel") {
    if (flags.Has("job")) {
      params.Set("job", JsonValue::MakeString(flags.GetString("job", "")));
    } else if (action == "cancel") {
      return Fail("client cancel needs --job=<name>");
    }
  } else if (action == "advance") {
    params.Set("seconds", JsonValue::MakeNumber(flags.GetDouble("seconds", 60.0)));
  } else if (action == "drain") {
    params.Set("mode", JsonValue::MakeString(flags.GetString("mode", "snapshot")));
  } else if (action != "report" && action != "metrics" && action != "trace" &&
             action != "ping") {
    return Fail("unknown client action '" + action +
                "' (submit|status|cancel|report|metrics|trace|advance|drain|ping)");
  }

  // --idem gives retried submits/cancels at-most-once semantics: the
  // server journals the first decision under the key and answers retries
  // with it verbatim, even across a crash-restart.
  JsonValue response;
  if (!client.CallIdempotent(action, params, flags.GetString("tenant", "default"),
                             flags.GetString("idem", ""), &response, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const bool ok = response.Has("ok") && response.at("ok").bool_value();
  if (!ok) {
    std::fprintf(stderr, "%s\n", response.ToJson().c_str());
    return 1;
  }
  const JsonValue& result = response.at("result");
  // The report's human rendering comes through as a text field — print it
  // as a terminal report, not an escaped JSON string.
  if (action == "report" && result.Has("text")) {
    std::printf("%s", result.at("text").string().c_str());
  } else if (action == "metrics" && result.Has("metrics")) {
    std::printf("%s\n", result.at("metrics").ToJson().c_str());
  } else if (action == "trace" && result.Has("chrome_trace")) {
    const std::string out_path = flags.GetString("out", "");
    if (out_path.empty()) {
      std::printf("%s", result.at("chrome_trace").string().c_str());
    } else if (!WriteFile(out_path, result.at("chrome_trace").string())) {
      return 1;
    } else {
      std::fprintf(stderr, "chrome trace: wrote %s\n", out_path.c_str());
    }
  } else {
    std::printf("%s\n", result.ToJson().c_str());
  }
  return 0;
}

int RunTraceToChrome(const Flags& flags) {
  const std::string in_path = flags.GetString("in", "");
  if (in_path.empty()) {
    return Fail("trace2chrome needs --in=<trace.csv> (output of execute --trace-csv)");
  }
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    return Fail("cannot read '" + in_path + "'");
  }
  std::ostringstream csv;
  csv << in.rdbuf();

  int parse_errors = 0;
  ExecutionTrace trace;
  try {
    trace = ExecutionTrace::FromCsv(csv.str(), &parse_errors);
  } catch (const std::exception& e) {
    return Fail(std::string("unparseable trace CSV: ") + e.what());
  }
  std::fprintf(stderr, "trace2chrome: %zu events from %s", trace.events().size(),
               in_path.c_str());
  if (parse_errors > 0) {
    std::fprintf(stderr, " (%d malformed row%s skipped)", parse_errors,
                 parse_errors == 1 ? "" : "s");
  }
  std::fprintf(stderr, "\n");

  ChromeTraceBuilder builder;
  builder.SetProcessName(1, "job");
  builder.AddExecutionTrace(trace, 1);
  const std::string json = builder.ToJson();

  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::printf("%s", json.c_str());
  } else if (!WriteFile(out_path, json)) {
    return 1;
  } else {
    std::fprintf(stderr, "trace2chrome: wrote %s\n", out_path.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s plan|execute|sweep|asha|serve|client|trace2chrome [--flags]\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];

  // client is a pure network front end — no workload setup, and its action
  // word comes before the flags.
  if (command == "client") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s client submit|status|cancel|report|metrics|trace|advance|"
                   "drain|ping [--host=.. --port=.. --tenant=..]\n",
                   argv[0]);
      return 2;
    }
    const std::string action = argv[2];
    const Flags client_flags = Flags::Parse(argc - 3, argv + 3);
    const int status = RunClient(action, client_flags);
    WarnUnusedFlags(client_flags);
    return status;
  }

  const Flags flags = Flags::Parse(argc - 2, argv + 2);

  // trace2chrome is a pure file converter — no workload setup (or banner).
  if (command == "trace2chrome") {
    const int status = RunTraceToChrome(flags);
    WarnUnusedFlags(flags);
    return status;
  }

  CliSetup setup;
  if (!BuildSetup(flags, setup)) {
    return 1;
  }

  int status = 2;
  if (command == "plan") {
    status = RunPlan(flags, setup);
  } else if (command == "execute") {
    status = RunExecute(flags, setup);
  } else if (command == "sweep") {
    status = RunSweep(flags, setup);
  } else if (command == "asha") {
    status = RunBaselineAsha(flags, setup);
  } else if (command == "serve") {
    status = RunServe(flags, setup);
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }

  WarnUnusedFlags(flags);
  return status;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
