// Fault sweep: cost, JCT and deadline-hit-rate of the self-healing
// executor as provider faults get worse.
//
// One fixed SHA job is planned fault-free (the planner models the provider
// the paper assumes: provisioning always succeeds), then executed under
// increasing fault severity — provisioning-failure rate and hardware MTBF
// move together from none to severe — across several seeds per level. The
// "baseline" row runs with no fault profile and no re-planning enabled;
// the 0.00-rate row runs the full self-healing stack with every fault
// class disabled and must match the baseline exactly (the fault layer and
// the re-plan gate are free when nothing fails).
//
//   --json <path>   additionally write the table as JSON (BENCH_faults.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"

namespace rubberband {
namespace {

constexpr Seconds kDeadline = 1800.0;
constexpr int kSeeds = 5;

struct Level {
  const char* label;
  double provision_failure_rate;
  Seconds mtbf;
};

struct Row {
  std::string label;
  double rate = 0.0;
  Seconds mtbf = 0.0;
  int deadline_hits = 0;
  int runs = 0;
  double mean_jct = 0.0;
  double mean_cost = 0.0;
  double mean_crashes = 0.0;
  double mean_provision_failures = 0.0;
  double mean_restarts = 0.0;
  double mean_replans = 0.0;
  double mean_recovery_s = 0.0;
};

Row Sweep(const std::string& label, const ExperimentSpec& spec, const AllocationPlan& plan,
          const WorkloadSpec& workload, const ModelProfile& profile, const Level& level,
          bool self_healing, uint64_t seed_base) {
  Row row;
  row.label = label;
  row.rate = level.provision_failure_rate;
  row.mtbf = level.mtbf;
  row.runs = kSeeds;
  for (int seed = 0; seed < kSeeds; ++seed) {
    CloudProfile cloud = bench::P38Cloud();
    cloud.fault.provision_failure_rate = level.provision_failure_rate;
    cloud.fault.mtbf = level.mtbf;
    ExecutorOptions options;
    options.seed = seed_base + static_cast<uint64_t>(seed);
    if (self_healing) {
      options.replan.enabled = true;
      options.replan.deadline = kDeadline;
      options.replan.model = profile;
    }
    const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
    row.mean_jct += report.jct / kSeeds;
    row.mean_cost += report.cost.Total().dollars() / kSeeds;
    const ExecutionTrace& trace = report.trace;
    row.mean_crashes += static_cast<double>(trace.Count(TraceEventType::kInstanceCrash)) / kSeeds;
    row.mean_provision_failures +=
        static_cast<double>(trace.Count(TraceEventType::kProvisionFailure)) / kSeeds;
    row.mean_restarts += static_cast<double>(trace.Count(TraceEventType::kTrialRestart)) / kSeeds;
    row.mean_replans += static_cast<double>(trace.Count(TraceEventType::kReplan)) / kSeeds;
    row.mean_recovery_s += report.recovery_seconds / kSeeds;
    if (report.jct <= kDeadline) {
      ++row.deadline_hits;
    }
  }
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"fault_sweep\",\n  \"deadline_s\": %.1f,\n"
               "  \"results\": [\n", kDeadline);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(file,
                 "    {\"label\": \"%s\", \"provision_failure_rate\": %.2f, "
                 "\"mtbf_s\": %.0f, \"deadline_hits\": %d, \"runs\": %d, "
                 "\"mean_jct_s\": %.3f, \"mean_cost_usd\": %.4f, "
                 "\"mean_crashes\": %.2f, \"mean_provision_failures\": %.2f, "
                 "\"mean_trial_restarts\": %.2f, \"mean_replans\": %.2f, "
                 "\"mean_recovery_s\": %.1f}%s\n",
                 row.label.c_str(), row.rate, row.mtbf, row.deadline_hits, row.runs,
                 row.mean_jct, row.mean_cost, row.mean_crashes, row.mean_provision_failures,
                 row.mean_restarts, row.mean_replans, row.mean_recovery_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  // Base seed for the per-level seed loop (seeds seed..seed+kSeeds-1); the
  // default reproduces the checked-in BENCH_faults.json exactly.
  const uint64_t seed_base = static_cast<uint64_t>(flags.GetInt64("seed", 1));

  const ExperimentSpec spec = MakeSha(/*num_trials=*/8, /*min_iters=*/2, /*max_iters=*/14,
                                      /*reduction_factor=*/2);
  const WorkloadSpec workload = ResNet101Cifar10();
  ProfilerOptions profiler_options;
  profiler_options.seed = 1;
  const ModelProfile profile = ProfileWorkload(workload, profiler_options).profile;
  PlanEvaluator evaluator({spec, profile, bench::P38Cloud(), kDeadline}, {});
  const PlannedJob job = PlanGreedy(evaluator);

  bench::Heading("fault sweep: self-healing executor vs provider fault severity");
  std::printf("plan %s, deadline %s, %d seeds per level\n\n", job.plan.ToString().c_str(),
              FormatDuration(kDeadline).c_str(), kSeeds);
  std::printf("%10s %6s %8s %9s %10s %9s %8s %9s %9s %8s %10s\n", "level", "rate", "mtbf",
              "deadline", "mean JCT", "mean $", "crashes", "prov.fail", "restarts", "replans",
              "recovery");

  std::vector<Row> rows;
  rows.push_back(Sweep("baseline", spec, job.plan, workload, profile,
                       Level{"baseline", 0.0, 0.0}, /*self_healing=*/false, seed_base));
  const Level levels[] = {
      {"none", 0.0, 0.0},
      {"mild", 0.1, 3600.0},
      {"moderate", 0.3, 1200.0},
      {"severe", 0.5, 600.0},
  };
  for (const Level& level : levels) {
    rows.push_back(Sweep(level.label, spec, job.plan, workload, profile, level,
                         /*self_healing=*/true, seed_base));
  }
  for (const Row& row : rows) {
    std::printf("%10s %6.2f %8.0f %6d/%-2d %10s %9.2f %8.1f %9.1f %9.1f %8.1f %9.0fs\n",
                row.label.c_str(), row.rate, row.mtbf, row.deadline_hits, row.runs,
                FormatDuration(row.mean_jct).c_str(), row.mean_cost, row.mean_crashes,
                row.mean_provision_failures, row.mean_restarts, row.mean_replans,
                row.mean_recovery_s);
  }
  if (rows[0].mean_jct != rows[1].mean_jct || rows[0].mean_cost != rows[1].mean_cost) {
    std::fprintf(stderr,
                 "error: zero-fault row diverged from the fault-free baseline "
                 "(the fault layer is supposed to be free when disabled)\n");
    return 1;
  }
  std::printf("\nzero-fault row matches the fault-free baseline exactly\n");

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, rows)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
