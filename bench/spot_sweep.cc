// Spot sweep: cost, JCT and deadline-hit-rate of the spot-surviving
// executor across price-volatility regimes.
//
// One fixed SHA job is planned on-demand, then executed on a spot market of
// increasing hostility — price volatility, price-coupled hazard, and
// reclamation storms move together from calm to wild — across several seeds
// per regime. Two anchor rows frame the sweep: the "on-demand" baseline
// (spot disabled) and the "self-check" row, which runs the full market
// plumbing with every knob zeroed (no discount, no hazard, no volatility,
// no storms, no caps) and must match the baseline exactly — the market
// layer is supposed to be free when it is inert.
//
//   --json <path>   additionally write the table as JSON (BENCH_spot.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"

namespace rubberband {
namespace {

constexpr Seconds kDeadline = 1800.0;
constexpr int kSeeds = 3;

struct Regime {
  const char* label;
  bool spot_enabled;
  double discount;
  Seconds mttp;
  double volatility;
  double hazard_coupling;
  Seconds storm_interval;
};

struct Row {
  std::string label;
  int deadline_hits = 0;
  int runs = 0;
  double mean_jct = 0.0;
  double mean_cost = 0.0;
  double mean_preemptions = 0.0;
  double mean_warnings = 0.0;
  double mean_eager = 0.0;
  double mean_fallbacks = 0.0;
  double mean_rework_s = 0.0;
  double mean_savings = 0.0;
};

Row Sweep(const ExperimentSpec& spec, const AllocationPlan& plan, const WorkloadSpec& workload,
          const ModelProfile& profile, const Regime& regime, uint64_t seed_base) {
  Row row;
  row.label = regime.label;
  row.runs = kSeeds;
  for (int seed = 0; seed < kSeeds; ++seed) {
    CloudProfile cloud = bench::P38Cloud();
    cloud.spot.enabled = regime.spot_enabled;
    cloud.spot.discount = regime.discount;
    cloud.spot.mean_time_to_preemption = regime.mttp;
    cloud.spot.volatility = regime.volatility;
    cloud.spot.hazard_coupling = regime.hazard_coupling;
    cloud.spot.storm_mean_interval_s = regime.storm_interval;
    ExecutorOptions options;
    options.seed = seed_base + static_cast<uint64_t>(seed);
    if (regime.spot_enabled) {
      // The risk-aware replanner prices expected rework into stage-boundary
      // replans; inert markets (the self-check) leave it with nothing to do.
      options.replan.enabled = true;
      options.replan.deadline = kDeadline;
      options.replan.model = profile;
    }
    const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
    row.mean_jct += report.jct / kSeeds;
    row.mean_cost += report.cost.Total().dollars() / kSeeds;
    const ExecutionTrace& trace = report.trace;
    row.mean_preemptions += static_cast<double>(trace.Count(TraceEventType::kPreemption)) / kSeeds;
    row.mean_warnings +=
        static_cast<double>(trace.Count(TraceEventType::kPreemptionWarning)) / kSeeds;
    row.mean_eager += static_cast<double>(report.eager_checkpoints) / kSeeds;
    row.mean_fallbacks +=
        static_cast<double>(trace.Count(TraceEventType::kMarketFallback)) / kSeeds;
    row.mean_rework_s += report.spot_rework_seconds / kSeeds;
    row.mean_savings += report.spot_savings.dollars() / kSeeds;
    if (report.jct <= kDeadline) {
      ++row.deadline_hits;
    }
  }
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows, double baseline_cost,
               double baseline_hit_rate) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file,
               "{\n  \"benchmark\": \"spot_sweep\",\n  \"deadline_s\": %.1f,\n"
               "  \"results\": [\n",
               kDeadline);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double cost_reduction =
        baseline_cost > 0.0 ? 100.0 * (1.0 - row.mean_cost / baseline_cost) : 0.0;
    const double hit_points =
        100.0 * (static_cast<double>(row.deadline_hits) / row.runs) - baseline_hit_rate;
    std::fprintf(file,
                 "    {\"label\": \"%s\", \"deadline_hits\": %d, \"runs\": %d, "
                 "\"mean_jct_s\": %.3f, \"mean_cost_usd\": %.4f, "
                 "\"cost_reduction_pct\": %.1f, \"deadline_hit_delta_points\": %.1f, "
                 "\"mean_preemptions\": %.2f, \"mean_warnings\": %.2f, "
                 "\"mean_eager_checkpoints\": %.2f, \"mean_market_fallbacks\": %.2f, "
                 "\"mean_rework_s\": %.1f, \"mean_savings_usd\": %.4f}%s\n",
                 row.label.c_str(), row.deadline_hits, row.runs, row.mean_jct, row.mean_cost,
                 cost_reduction, hit_points, row.mean_preemptions, row.mean_warnings,
                 row.mean_eager, row.mean_fallbacks, row.mean_rework_s, row.mean_savings,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  // Base seed for the per-regime seed loop (seeds seed..seed+kSeeds-1); the
  // default reproduces the checked-in BENCH_spot.json exactly.
  const uint64_t seed_base = static_cast<uint64_t>(flags.GetInt64("seed", 1));

  const ExperimentSpec spec = MakeSha(/*num_trials=*/8, /*min_iters=*/2, /*max_iters=*/14,
                                      /*reduction_factor=*/2);
  const WorkloadSpec workload = ResNet101Cifar10();
  ProfilerOptions profiler_options;
  profiler_options.seed = 1;
  const ModelProfile profile = ProfileWorkload(workload, profiler_options).profile;
  PlanEvaluator evaluator({spec, profile, bench::P38Cloud(), kDeadline}, {});
  const PlannedJob job = PlanGreedy(evaluator);

  bench::Heading("spot sweep: spot-surviving executor vs market hostility");
  std::printf("plan %s, deadline %s, %d seeds per regime\n\n", job.plan.ToString().c_str(),
              FormatDuration(kDeadline).c_str(), kSeeds);

  // The self-check regime keeps every market knob inert: same price as
  // on-demand, no hazard, flat trace, no storms, no caps.
  const Regime baseline{"on-demand", false, 1.0, 0.0, 0.0, 0.0, 0.0};
  const Regime self_check{"self-check", true, 1.0, 0.0, 0.0, 0.0, 0.0};
  const Regime regimes[] = {
      {"calm", true, 0.3, 4.0 * 3600.0, 0.1, 0.0, 0.0},
      {"moderate", true, 0.3, 2.0 * 3600.0, 0.4, 1.0, 0.0},
      {"wild", true, 0.3, 1200.0, 0.8, 2.0, 900.0},
  };

  std::vector<Row> rows;
  rows.push_back(Sweep(spec, job.plan, workload, profile, baseline, seed_base));
  rows.push_back(Sweep(spec, job.plan, workload, profile, self_check, seed_base));
  for (const Regime& regime : regimes) {
    rows.push_back(Sweep(spec, job.plan, workload, profile, regime, seed_base));
  }

  const double baseline_cost = rows[0].mean_cost;
  const double baseline_hit_rate =
      100.0 * (static_cast<double>(rows[0].deadline_hits) / rows[0].runs);
  std::printf("%10s %9s %10s %9s %8s %9s %8s %9s %9s %9s\n", "regime", "deadline", "mean JCT",
              "mean $", "vs od", "preempt", "warn", "eager", "fallback", "rework");
  for (const Row& row : rows) {
    const double cost_reduction =
        baseline_cost > 0.0 ? 100.0 * (1.0 - row.mean_cost / baseline_cost) : 0.0;
    std::printf("%10s %6d/%-2d %10s %9.2f %7.1f%% %9.1f %8.1f %9.1f %9.1f %8.0fs\n",
                row.label.c_str(), row.deadline_hits, row.runs,
                FormatDuration(row.mean_jct).c_str(), row.mean_cost, cost_reduction,
                row.mean_preemptions, row.mean_warnings, row.mean_eager, row.mean_fallbacks,
                row.mean_rework_s);
  }

  // Hard self-checks: the inert-market row must replay the on-demand
  // baseline exactly, and the moderate regime must deliver the headline
  // trade — a big cost cut without giving up the deadline.
  if (rows[0].mean_jct != rows[1].mean_jct || rows[0].mean_cost != rows[1].mean_cost) {
    std::fprintf(stderr,
                 "error: inert-market self-check diverged from the on-demand baseline "
                 "(the market layer is supposed to be free when disabled)\n");
    return 1;
  }
  std::printf("\ninert-market self-check matches the on-demand baseline exactly\n");
  const Row& moderate = rows[3];
  const double moderate_reduction = 100.0 * (1.0 - moderate.mean_cost / baseline_cost);
  const double moderate_hit_rate =
      100.0 * (static_cast<double>(moderate.deadline_hits) / moderate.runs);
  if (moderate_reduction < 25.0) {
    std::fprintf(stderr, "error: moderate-volatility cost reduction %.1f%% < 25%%\n",
                 moderate_reduction);
    return 1;
  }
  if (moderate_hit_rate + 5.0 < baseline_hit_rate) {
    std::fprintf(stderr, "error: moderate-volatility deadline hit rate %.0f%% more than "
                         "5 points under the baseline's %.0f%%\n",
                 moderate_hit_rate, baseline_hit_rate);
    return 1;
  }
  std::printf("moderate volatility: %.1f%% cheaper than on-demand, deadline hit rate "
              "%.0f%% (baseline %.0f%%)\n",
              moderate_reduction, moderate_hit_rate, baseline_hit_rate);

  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    if (path.empty()) {
      std::fprintf(stderr, "error: --json requires a path\n");
      return 2;
    }
    if (!WriteJson(path, rows, baseline_cost, baseline_hit_rate)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) { return rubberband::Main(argc, argv); }
