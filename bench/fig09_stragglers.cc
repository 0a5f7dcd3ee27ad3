// Figure 9: impact of stragglers on simulated cost under different billing
// regimes — plus the gray-failure extension: what persistent (gray-failed)
// stragglers cost at execution time, and what detection + checkpoint-based
// quarantine buys back.
//
// Part 1 (planning): SHA(n=64, r=4, R=508) over ResNet-50 (batch 512, mean
// per-iteration latency 4 s) on p3.8xlarge; straggler severity is the
// stddev of the training latency distribution, swept 1..10 s. Expected
// shape: per-instance billing is far more expensive than per-function at
// high variance (idle resources held at synchronization barriers).
//
// Part 2 (execution): one fixed SHA job planned fault-free, then executed
// while persistent stragglers are injected at increasing severity (the
// slowdown factor an afflicted instance pays on every iteration), with the
// detect/quarantine/restore loop off vs on, across several seeds. The
// zero-severity mitigation-on row must match the fault-free baseline
// exactly — arming the gray-failure stack costs nothing when nothing is
// gray — and mitigation must win JCT at >=2x severity.
//
//   --json <path>   additionally write part 2 as JSON (BENCH_stragglers.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"

namespace rubberband {
namespace {

constexpr Seconds kDeadline = 1500.0;
constexpr int kSeeds = 5;
constexpr double kStragglerRate = 0.3;

void PlanningTable() {
  using namespace rubberband::bench;

  const ExperimentSpec spec = MakeSha(64, 4, 508, 2);
  const Seconds deadline = Minutes(20);

  Heading("Figure 9: simulated cost vs straggler severity (sigma of 4 s mean iteration)");
  std::printf("%-8s | %-25s | %-25s\n", "", "(a) fixed-cluster policy", "(b) elastic policy");
  std::printf("%-8s | %12s %12s | %12s %12s\n", "sigma", "per-inst", "per-func", "per-inst",
              "per-func");

  for (int sigma = 1; sigma <= 10; ++sigma) {
    const ModelProfile profile = ResNet50Profile(4.0, sigma);
    CloudProfile per_instance = P38Cloud(0.0, 0.0);
    CloudProfile per_function = per_instance;
    per_function.pricing.billing = BillingModel::kPerFunction;

    std::printf("%-8d |", sigma);
    PlanEvaluator instance_billed({spec, profile, per_instance, deadline}, {});
    PlanEvaluator function_billed({spec, profile, per_function, deadline}, {});
    using PlannerFn = PlannedJob (*)(PlanEvaluator&);
    constexpr PlannerFn kStatic = &PlanStatic;
    constexpr PlannerFn kGreedy = &PlanGreedy;
    for (PlannerFn planner : {kStatic, kGreedy}) {
      // Plan under the per-instance model (the provider the job targets),
      // then price the same plan under both billing regimes.
      const PlannedJob job = planner(instance_billed);
      const PlanEstimate inst = instance_billed.Evaluate(job.plan);
      const PlanEstimate func = function_billed.Evaluate(job.plan);
      std::printf(" %12s %12s %s", inst.cost_mean.ToString().c_str(),
                  func.cost_mean.ToString().c_str(), planner == kStatic ? "|" : "");
    }
    std::printf("\n");
  }
  std::printf("\n(per-instance billing pays for straggler-idle GPUs at SYNC barriers;\n"
              " per-function releases them the moment each trial finishes)\n");
}

struct Row {
  std::string label;
  double factor = 0.0;  // persistent slowdown factor (0 = no injection)
  bool mitigate = false;
  int deadline_hits = 0;
  int runs = 0;
  double mean_jct = 0.0;
  double mean_cost = 0.0;
  double mean_injected = 0.0;
  double mean_detected = 0.0;
  double mean_quarantined = 0.0;
  double mean_false_positives = 0.0;
  double mean_mitigation_s = 0.0;
};

Row Sweep(const std::string& label, const ExperimentSpec& spec, const AllocationPlan& plan,
          const WorkloadSpec& workload, double factor, bool mitigate, uint64_t seed_base) {
  Row row;
  row.label = label;
  row.factor = factor;
  row.mitigate = mitigate;
  row.runs = kSeeds;
  for (int seed = 0; seed < kSeeds; ++seed) {
    CloudProfile cloud = bench::P38Cloud();
    if (factor > 0.0) {
      cloud.fault.straggler_rate = kStragglerRate;
      cloud.fault.straggler_factor_min = factor;
      cloud.fault.straggler_factor_max = factor;
    }
    ExecutorOptions options;
    options.seed = seed_base + static_cast<uint64_t>(seed);
    options.straggler.detect = mitigate;
    options.straggler.mitigate = mitigate;
    const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
    row.mean_jct += report.jct / kSeeds;
    row.mean_cost += report.cost.Total().dollars() / kSeeds;
    row.mean_injected += static_cast<double>(report.stragglers_injected) / kSeeds;
    const ExecutionTrace& trace = report.trace;
    row.mean_detected +=
        static_cast<double>(trace.Count(TraceEventType::kStragglerDetected)) / kSeeds;
    row.mean_quarantined +=
        static_cast<double>(trace.Count(TraceEventType::kStragglerQuarantined)) / kSeeds;
    row.mean_false_positives +=
        static_cast<double>(trace.Count(TraceEventType::kStragglerFalsePositive)) / kSeeds;
    row.mean_mitigation_s += report.straggler_mitigation_seconds / kSeeds;
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
  std::fprintf(file,
               "{\n  \"benchmark\": \"straggler_sweep\",\n  \"deadline_s\": %.1f,\n"
               "  \"straggler_rate\": %.2f,\n  \"results\": [\n",
               kDeadline, kStragglerRate);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(file,
                 "    {\"label\": \"%s\", \"factor\": %.1f, \"mitigate\": %s, "
                 "\"deadline_hits\": %d, \"runs\": %d, "
                 "\"mean_jct_s\": %.3f, \"mean_cost_usd\": %.4f, "
                 "\"mean_injected\": %.2f, \"mean_detected\": %.2f, "
                 "\"mean_quarantined\": %.2f, \"mean_false_positives\": %.2f, "
                 "\"mean_mitigation_s\": %.1f}%s\n",
                 row.label.c_str(), row.factor, row.mitigate ? "true" : "false",
                 row.deadline_hits, row.runs, row.mean_jct, row.mean_cost, row.mean_injected,
                 row.mean_detected, row.mean_quarantined, row.mean_false_positives,
                 row.mean_mitigation_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int ExecutionSweep(const Flags& flags) {
  // Base seed for the per-level seed loop (seeds seed..seed+kSeeds-1); the
  // default reproduces the checked-in BENCH_stragglers.json exactly.
  const uint64_t seed_base = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  // Large enough that the fault-free greedy plan is multi-instance in every
  // stage ([16, 16, 16] on 4-GPU p3.8xlarge = 4 instances): the detector
  // needs peers for a baseline, and a single-instance cluster would make
  // the whole sweep trivially detection-free.
  const ExperimentSpec spec = MakeSha(/*num_trials=*/16, /*min_iters=*/4, /*max_iters=*/28,
                                      /*reduction_factor=*/2);
  const WorkloadSpec workload = ResNet101Cifar10();
  ProfilerOptions profiler_options;
  profiler_options.seed = 1;
  const ModelProfile profile = ProfileWorkload(workload, profiler_options).profile;
  PlanEvaluator evaluator({spec, profile, bench::P38Cloud(), kDeadline}, {});
  const PlannedJob job = PlanGreedy(evaluator);

  bench::Heading("gray failures: persistent-straggler severity vs detection + quarantine");
  std::printf("plan %s, deadline %s, straggler rate %.2f, %d seeds per level\n\n",
              job.plan.ToString().c_str(), FormatDuration(kDeadline).c_str(), kStragglerRate,
              kSeeds);
  std::printf("%10s %7s %9s %9s %10s %9s %9s %9s %6s %7s %8s\n", "level", "factor", "mitigate",
              "deadline", "mean JCT", "mean $", "injected", "detected", "quar", "false+",
              "mit.cost");

  std::vector<Row> rows;
  rows.push_back(Sweep("baseline", spec, job.plan, workload, /*factor=*/0.0, false, seed_base));
  rows.push_back(Sweep("none", spec, job.plan, workload, /*factor=*/0.0, true, seed_base));
  for (double factor : {1.5, 2.0, 3.0, 4.0}) {
    const std::string label = "factor-" + std::to_string(factor).substr(0, 3);
    rows.push_back(Sweep(label, spec, job.plan, workload, factor, false, seed_base));
    rows.push_back(Sweep(label, spec, job.plan, workload, factor, true, seed_base));
  }
  for (const Row& row : rows) {
    std::printf("%10s %7.1f %9s %6d/%-2d %10s %9.2f %9.1f %9.1f %6.1f %7.1f %7.0fs\n",
                row.label.c_str(), row.factor, row.mitigate ? "on" : "off", row.deadline_hits,
                row.runs, FormatDuration(row.mean_jct).c_str(), row.mean_cost, row.mean_injected,
                row.mean_detected, row.mean_quarantined, row.mean_false_positives,
                row.mean_mitigation_s);
  }

  // Hard check 1: arming the gray-failure stack is free when no straggler
  // exists — the zero-severity mitigation-on row must be bit-identical to
  // the fault-free baseline.
  if (rows[0].mean_jct != rows[1].mean_jct || rows[0].mean_cost != rows[1].mean_cost) {
    std::fprintf(stderr,
                 "error: zero-straggler mitigation-on row diverged from the baseline "
                 "(the gray-failure stack is supposed to be free when disabled)\n");
    return 1;
  }
  std::printf("\nzero-straggler mitigation-on row matches the baseline exactly\n");

  // Hard check 2: at >=2x severity, mitigation must beat no-mitigation on
  // mean JCT and do no worse on deadline hits.
  for (size_t i = 2; i + 1 < rows.size(); i += 2) {
    const Row& off = rows[i];
    const Row& on = rows[i + 1];
    if (off.factor < 2.0) {
      continue;
    }
    if (on.mean_jct >= off.mean_jct || on.deadline_hits < off.deadline_hits) {
      std::fprintf(stderr,
                   "error: mitigation lost at factor %.1f (JCT %.1fs vs %.1fs, "
                   "deadline %d vs %d)\n",
                   off.factor, on.mean_jct, off.mean_jct, on.deadline_hits, off.deadline_hits);
      return 1;
    }
  }
  std::printf("mitigation beats no-mitigation at every severity >= 2x\n");

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

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  PlanningTable();
  std::printf("\n");
  return ExecutionSweep(flags);
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
