// Service throughput: the multi-tenant control plane replaying the same
// job-arrival trace cold (every release terminates) and warm (releases
// park in the WarmPool) at 1, 4, and 16 jobs.
//
// The cold column is what N independent RubberBand runs would pay; the
// warm column is the service's pitch — successor jobs inherit their
// predecessors' still-billed instances, so real provisioning events (and
// the init time billed with them) drop as the trace gets busier.
//
// A second, fleet-scale section replays 1k/10k/100k-job synthetic arrival
// traces against a wide cluster with the fleet knobs on (shared admission
// evaluator, no retained traces, no per-tenant gauges) and reports control
// plane throughput: jobs/s and DES events/s of wall clock. This is the
// proof row for the allocation-free kernel — the same table also reports
// EventCallback heap fallbacks, which must stay zero.
//
// A third section measures restart cost against journal length: it
// journals N distinct-shape SHA submits (N = 50, 200, 800) through a
// ServiceRunner with a write-ahead journal, then times ServiceRunner::Open
// on a fresh copy of that journal 5 times (median/min/max, with the build
// type and core count). The checked-in BENCH_service.json also holds, as
// `restart_before`, the same section built against the commit before
// submits journaled their admission decisions, run on the same host.
//
//   --json <path>   additionally write the table as JSON (BENCH_service.json)
//   --seed <n>      service RNG seed (default 7, the checked-in baseline)
//   --fleet <n>     run ONLY the n-job fleet trace (the --perf CI tier)
//   --budget-s <s>  with --fleet: fail (exit 1) if wall clock exceeds s

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/server/service_runner.h"

#ifndef RB_BUILD_TYPE
#define RB_BUILD_TYPE "unknown"
#endif

namespace rubberband {
namespace {

struct Row {
  int jobs = 0;
  std::string mode;
  int completed = 0;
  int launches = 0;
  double hit_rate = 0.0;
  Seconds makespan = 0.0;
  Seconds mean_queue_wait = 0.0;
  double total_cost = 0.0;
  double cost_per_job = 0.0;
};

ServiceReport Replay(int num_jobs, const WarmPoolConfig& pool, uint64_t seed) {
  ServiceConfig config;
  config.cloud = bench::P38Cloud(/*queuing_seconds=*/30.0, /*init_seconds=*/120.0);
  // One 4-GPU job slot: arrivals burst in and the queue serializes them,
  // so every job-to-job hand-off is a warm-reuse opportunity.
  config.capacity_gpus = 4;
  config.warm_pool = pool;
  config.seed = seed;

  TuningService service(config);
  for (int i = 0; i < num_jobs; ++i) {
    JobRequest job;
    job.name = "job-" + std::to_string(i);
    job.spec = MakeSha(/*num_trials=*/8, /*min_iters=*/2, /*max_iters=*/14,
                       /*reduction_factor=*/2);
    job.workload = ResNet101Cifar10();
    job.submit_at = 60.0 * i;
    job.deadline = 1800.0 * num_jobs;  // covers the serialized backlog
    service.SubmitLive(job);
  }
  return service.Run();
}

struct FleetRow {
  int jobs = 0;  // submissions: jobs (sha trace) or experiments (mixed trace)
  std::string mode = "sha";
  int completed = 0;
  int rejected = 0;
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
  int64_t events = 0;
  double events_per_s = 0.0;
  int64_t heap_fallbacks = 0;
  double hit_rate = 0.0;
  Seconds makespan = 0.0;
};

// Mixed-scheduler fleet shape: submissions cycle through every scheduler
// kind the plan compiler lowers, so the trace also covers experiment
// compilation, bracket fan-out, and the ASHA engine's rung events.
ExperimentIR FleetIr(int i) {
  ExperimentIR ir;
  ir.reduction_factor = 2;
  switch (i % 5) {
    case 0:
      ir.scheduler = SchedulerKind::kSha;
      ir.num_trials = 4;
      ir.max_iters = 4;
      break;
    case 1:
      ir.scheduler = SchedulerKind::kHyperband;  // 3 brackets per experiment
      ir.max_iters = 4;
      break;
    case 2:
      ir.scheduler = SchedulerKind::kAsha;
      ir.num_trials = 4;
      ir.max_iters = 4;
      break;
    case 3:
      ir.scheduler = SchedulerKind::kRandom;
      ir.num_trials = 3;
      ir.max_iters = 4;
      break;
    default:
      ir.scheduler = SchedulerKind::kGrid;
      ir.max_iters = 4;
      ir.grid = GridShape{2, 1, 1};
      break;
  }
  return ir;
}

// Fleet trace: many small jobs arriving at a steady rate on a wide shared
// cluster. The job shape is deliberately tiny (a few trials, 1..4
// iterations) so the trace exercises control-plane and kernel throughput —
// admission, fair-share arbitration, queue pumping, warm handoffs — rather
// than simulated training time. The sha trace submits the legacy JobRequest
// shape; the mixed trace submits compiled experiments cycling all five
// scheduler kinds (hyperband experiments fan out into three bracket jobs).
FleetRow FleetReplay(int num_jobs, uint64_t seed, bool mixed = false) {
  ServiceConfig config;
  config.cloud = bench::P38Cloud(/*queuing_seconds=*/30.0, /*init_seconds=*/120.0);
  config.capacity_gpus = 1024;
  config.warm_pool.max_parked = 256;
  config.warm_pool.max_idle_seconds = 600.0;
  config.seed = seed;
  config.share_admission_evaluator = true;
  config.keep_job_artifacts = false;
  config.per_tenant_metrics = false;

  TuningService service(config);
  for (int i = 0; i < num_jobs; ++i) {
    if (mixed) {
      ExperimentRequest request;
      request.name = "fleet-" + std::to_string(i);
      request.ir = FleetIr(i);
      request.workload = ResNet101Cifar10();
      request.submit_at = 2.0 * i;  // steady arrivals below the service rate
      request.deadline = 4.0 * 3600.0;
      service.SubmitExperiment(request);
    } else {
      JobRequest job;
      job.name = "fleet-" + std::to_string(i);
      job.spec = MakeSha(/*num_trials=*/4, /*min_iters=*/1, /*max_iters=*/4,
                         /*reduction_factor=*/2);
      job.workload = ResNet101Cifar10();
      job.submit_at = 2.0 * i;  // steady arrivals below the service rate
      job.deadline = 4.0 * 3600.0;
      service.SubmitLive(job);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const ServiceReport report = service.Run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  FleetRow row;
  row.jobs = num_jobs;
  row.mode = mixed ? "mixed" : "sha";
  row.completed = report.completed;
  row.rejected = report.rejected;
  row.wall_s = wall.count();
  row.jobs_per_s = row.wall_s > 0.0 ? num_jobs / row.wall_s : 0.0;
  const auto events = report.metrics.counters.find("sim.events.run");
  row.events = events != report.metrics.counters.end() ? events->second : 0;
  row.events_per_s = row.wall_s > 0.0 ? static_cast<double>(row.events) / row.wall_s : 0.0;
  const auto fallbacks = report.metrics.counters.find("sim.callback_heap_fallbacks");
  row.heap_fallbacks = fallbacks != report.metrics.counters.end() ? fallbacks->second : 0;
  row.hit_rate = report.warm.HitRate();
  row.makespan = report.makespan;
  return row;
}

struct RestartRow {
  int submits = 0;
  int64_t wal_bytes = 0;
  int64_t ops_replayed = 0;
  int reps = 0;
  double open_s_median = 0.0;
  double open_s_min = 0.0;
  double open_s_max = 0.0;
};

// Submit `i` of the restart trace, shaped like the end-to-end benchmark's
// mixed serve stream (three models, eta 2 or 3, one deadline in eight too
// tight for any plan) but with a distinct (trials, max_iters) per submit
// up to 812 submits, so no two share an admission plan.
JsonValue RestartSubmit(int i) {
  static const char* const kModels[] = {"resnet101-cifar10", "resnet152-cifar100", "bert-rte"};
  const double jitter = std::fmod(0.618033988749895 * (i + 1), 1.0);
  const int deadline_class = i % 8;
  const double hours = 1.0 + deadline_class;
  const double deadline_s = deadline_class == 0 ? std::floor(120.0 + 480.0 * jitter)
                                                : std::floor(hours * 3600.0 * (0.9 + 0.2 * jitter));
  JsonValue params = JsonValue::MakeObject();
  params.Set("name", JsonValue::MakeString("r" + std::to_string(i)));
  params.Set("workload", JsonValue::MakeString(kModels[i % 3]));
  params.Set("trials", JsonValue::MakeNumber(4 + i % 29));
  params.Set("min_iters", JsonValue::MakeNumber(1));
  params.Set("max_iters", JsonValue::MakeNumber(4 + (i / 29) % 28));
  params.Set("eta", JsonValue::MakeNumber(2 + i % 2));
  params.Set("deadline_s", JsonValue::MakeNumber(deadline_s));
  return params;
}

// Journals `submits` submits, one per 30 simulated seconds with an advance
// after every fourth, then reopens the journal `reps` times.
RestartRow MeasureRestart(int submits, uint64_t seed, int reps) {
  RunnerOptions options;
  ServiceConfig& config = options.service;
  config.cloud = bench::P38Cloud(/*queuing_seconds=*/30.0, /*init_seconds=*/120.0);
  config.capacity_gpus = 512;
  config.warm_pool.max_parked = 32;
  config.warm_pool.max_idle_seconds = 300.0;
  config.seed = seed;
  config.share_admission_evaluator = true;
  config.keep_job_artifacts = false;
  config.per_tenant_metrics = false;
  config.planner.eval_threads = 1;
  options.wal.fsync = FsyncPolicy::kOff;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string journal = (dir / ("rb_restart_" + std::to_string(submits) + ".wal")).string();
  const std::string copy = journal + ".open";
  options.wal_path = journal;
  {
    ServiceRunner runner(options);
    Request advance;
    advance.method = "advance";
    advance.params.Set("seconds", JsonValue::MakeNumber(120.0));
    for (int i = 0; i < submits; ++i) {
      Request submit;
      submit.method = "submit";
      submit.params = RestartSubmit(i);
      const OpResult result = runner.Handle(submit);
      if (!result.ok) {
        throw std::runtime_error("restart trace submit failed: " + result.message);
      }
      if (i % 4 == 3) {
        runner.Handle(advance);
      }
    }
  }

  RestartRow row;
  row.submits = submits;
  row.reps = reps;
  row.wal_bytes = static_cast<int64_t>(std::filesystem::file_size(journal));
  options.wal_path = copy;
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::copy_file(journal, copy, std::filesystem::copy_options::overwrite_existing);
    const auto start = std::chrono::steady_clock::now();
    const std::unique_ptr<ServiceRunner> recovered = ServiceRunner::Open(options);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    seconds.push_back(wall.count());
    row.ops_replayed = recovered->wal_stats().ops_replayed;
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(copy);
  std::sort(seconds.begin(), seconds.end());
  row.open_s_median = seconds[seconds.size() / 2];
  row.open_s_min = seconds.front();
  row.open_s_max = seconds.back();
  return row;
}

Row MakeRow(int jobs, const std::string& mode, const ServiceReport& report) {
  Row row;
  row.jobs = jobs;
  row.mode = mode;
  row.completed = report.completed;
  row.launches = report.instance_launches;
  row.hit_rate = report.warm.HitRate();
  row.makespan = report.makespan;
  row.mean_queue_wait = report.mean_queue_wait;
  row.total_cost = report.total_cost.Total().dollars();
  row.cost_per_job = report.cost_per_completed_job.dollars();
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               const std::vector<FleetRow>& fleet, const std::vector<RestartRow>& restart) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"service_throughput\",\n  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(file,
                 "    {\"jobs\": %d, \"mode\": \"%s\", \"completed\": %d, "
                 "\"instance_launches\": %d, \"warm_hit_rate\": %.4f, "
                 "\"makespan_s\": %.1f, \"mean_queue_wait_s\": %.1f, "
                 "\"total_cost_usd\": %.2f, \"cost_per_job_usd\": %.2f}%s\n",
                 row.jobs, row.mode.c_str(), row.completed, row.launches, row.hit_rate,
                 row.makespan, row.mean_queue_wait, row.total_cost, row.cost_per_job,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"fleet\": [\n");
  for (size_t i = 0; i < fleet.size(); ++i) {
    const FleetRow& row = fleet[i];
    std::fprintf(file,
                 "    {\"jobs\": %d, \"mode\": \"%s\", \"completed\": %d, \"rejected\": %d, "
                 "\"wall_s\": %.3f, \"jobs_per_s\": %.0f, \"events\": %lld, "
                 "\"events_per_s\": %.0f, \"callback_heap_fallbacks\": %lld, "
                 "\"warm_hit_rate\": %.4f, \"sim_makespan_s\": %.1f}%s\n",
                 row.jobs, row.mode.c_str(), row.completed, row.rejected, row.wall_s,
                 row.jobs_per_s, static_cast<long long>(row.events), row.events_per_s,
                 static_cast<long long>(row.heap_fallbacks), row.hit_rate, row.makespan,
                 i + 1 < fleet.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"restart\": [\n");
  const unsigned nproc = std::thread::hardware_concurrency();
  for (size_t i = 0; i < restart.size(); ++i) {
    const RestartRow& row = restart[i];
    std::fprintf(file,
                 "    {\"submits\": %d, \"wal_bytes\": %lld, \"ops_replayed\": %lld, "
                 "\"reps\": %d, \"open_s_median\": %.4f, \"open_s_min\": %.4f, "
                 "\"open_s_max\": %.4f, \"build_type\": \"%s\", \"nproc\": %u}%s\n",
                 row.submits, static_cast<long long>(row.wal_bytes),
                 static_cast<long long>(row.ops_replayed), row.reps, row.open_s_median,
                 row.open_s_min, row.open_s_max, RB_BUILD_TYPE, nproc,
                 i + 1 < restart.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

void PrintFleetRow(const FleetRow& row) {
  std::printf("%7d %6s %9d %8d %8.2fs %9.0f %11lld %12.2fM %9lld %8.0f%%\n", row.jobs,
              row.mode.c_str(), row.completed, row.rejected, row.wall_s, row.jobs_per_s,
              static_cast<long long>(row.events), row.events_per_s / 1e6,
              static_cast<long long>(row.heap_fallbacks), 100.0 * row.hit_rate);
}

void FleetHeading() {
  bench::Heading("fleet traces: control-plane + DES kernel throughput");
  std::printf("%7s %6s %9s %8s %9s %9s %11s %13s %9s %9s\n", "jobs", "mode", "completed",
              "rejected", "wall", "jobs/s", "events", "events/s", "heapfall", "hit rate");
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 7));

  if (flags.Has("fleet")) {
    // CI perf tier: one fleet trace under a wall-clock budget; any
    // EventCallback heap fallback is a hot-path allocation regression.
    const int jobs = static_cast<int>(flags.GetInt64("fleet", 10000));
    FleetHeading();
    // The sha trace gates the legacy control-plane path; the mixed trace
    // (one fifth the submissions) gates the compiled-experiment path —
    // compilation, bracket fan-out, and ASHA rung events included.
    const std::vector<FleetRow> rows = {FleetReplay(jobs, seed),
                                        FleetReplay(jobs / 5, seed, /*mixed=*/true)};
    double total_wall = 0.0;
    for (const FleetRow& row : rows) {
      PrintFleetRow(row);
      total_wall += row.wall_s;
      if (row.heap_fallbacks > 0) {
        std::fprintf(stderr, "error: %lld event callbacks overflowed the inline buffer\n",
                     static_cast<long long>(row.heap_fallbacks));
        return 1;
      }
    }
    if (flags.Has("budget-s")) {
      const double budget = static_cast<double>(flags.GetInt64("budget-s", 60));
      if (total_wall > budget) {
        std::fprintf(stderr, "error: %d-job traces took %.2fs (budget %.0fs)\n", jobs, total_wall,
                     budget);
        return 1;
      }
      std::printf("within budget: %.2fs <= %.0fs\n", total_wall, budget);
    }
    return 0;
  }

  bench::Heading("tuning service throughput: cold vs warm pool");
  std::printf("%5s %6s %10s %9s %9s %10s %11s %10s %8s\n", "jobs", "mode", "completed",
              "launches", "hit rate", "makespan", "queue wait", "total $", "$/job");

  std::vector<Row> rows;
  for (int jobs : {1, 4, 16}) {
    for (const bool warm : {false, true}) {
      WarmPoolConfig pool;
      if (warm) {
        pool.max_parked = 16;
        pool.max_idle_seconds = 300.0;
      }
      const ServiceReport report = Replay(jobs, pool, seed);
      const Row row = MakeRow(jobs, warm ? "warm" : "cold", report);
      rows.push_back(row);
      std::printf("%5d %6s %10d %9d %8.0f%% %10s %11s %10.2f %8.2f\n", row.jobs,
                  row.mode.c_str(), row.completed, row.launches, 100.0 * row.hit_rate,
                  FormatDuration(row.makespan).c_str(),
                  FormatDuration(row.mean_queue_wait).c_str(), row.total_cost,
                  row.cost_per_job);
    }
  }

  FleetHeading();
  std::vector<FleetRow> fleet;
  for (const int jobs : {1000, 10000, 100000}) {
    const FleetRow row = FleetReplay(jobs, seed);
    fleet.push_back(row);
    PrintFleetRow(row);
  }
  // Mixed-scheduler trace: 2000 experiments compile into ~2800 jobs across
  // all five scheduler kinds.
  const FleetRow mixed = FleetReplay(2000, seed, /*mixed=*/true);
  fleet.push_back(mixed);
  PrintFleetRow(mixed);

  bench::Heading("restart: ServiceRunner::Open against journal length");
  std::printf("%8s %10s %8s %10s %10s %10s\n", "submits", "wal bytes", "ops", "median",
              "min", "max");
  std::vector<RestartRow> restart;
  for (const int submits : {50, 200, 800}) {
    const RestartRow row = MeasureRestart(submits, seed, /*reps=*/5);
    restart.push_back(row);
    std::printf("%8d %10lld %8lld %9.4fs %9.4fs %9.4fs\n", row.submits,
                static_cast<long long>(row.wal_bytes), static_cast<long long>(row.ops_replayed),
                row.open_s_median, row.open_s_min, row.open_s_max);
  }

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, rows, fleet, restart)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
