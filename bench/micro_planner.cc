// Microbenchmarks and ablations for the allocation planners: end-to-end
// planning latency for each policy, PlanEvaluator cold, warm and parallel,
// and the cost of Algorithm 2's multi-warm-start design choice (DESIGN.md
// ablation: single vs multi warm start, and simulator sample count vs plan
// quality). micro_simulator's BM_SimulatePlanEstimate20Samples times one
// full-DAG sweep, the reference the evaluator is held bit-identical to.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/planner/evaluator.h"

namespace rubberband {
namespace {

using bench::P38Cloud;
using bench::ResNet50Profile;

PlannerInputs Inputs(int trials, double deadline_minutes) {
  return PlannerInputs{MakeSha(trials, 4, 508, 2), ResNet50Profile(4.0, 0.4), P38Cloud(),
                       Minutes(deadline_minutes)};
}

void BM_PlanStatic(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(static_cast<int>(state.range(0)), 30.0);
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, PlannerOptions{});
    benchmark::DoNotOptimize(PlanStatic(evaluator));
  }
}
BENCHMARK(BM_PlanStatic)->Arg(16)->Arg(64)->Arg(256);

void BM_PlanNaiveElastic(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(static_cast<int>(state.range(0)), 30.0);
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, PlannerOptions{});
    benchmark::DoNotOptimize(PlanNaiveElastic(evaluator));
  }
}
BENCHMARK(BM_PlanNaiveElastic)->Arg(16)->Arg(64)->Arg(256);

// Plan estimates served per second: actual evaluations plus memo hits —
// the work Algorithm 2 asked for, whether or not the cache absorbed it.
void ReportEvalRate(benchmark::State& state, int64_t evals) {
  state.counters["evals_per_s"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kIsRate);
}

// Stage-incremental evaluation from a cold cache (one fresh evaluator per
// plan, as a single-shot CLI invocation would pay).
void BM_PlanGreedy(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(static_cast<int>(state.range(0)), 30.0);
  int64_t evals = 0;
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, PlannerOptions{});
    benchmark::DoNotOptimize(PlanGreedy(evaluator));
    const PlannerCacheStats stats = evaluator.stats();
    evals += stats.plan_evaluations + stats.plan_memo_hits;
  }
  ReportEvalRate(state, evals);
}
BENCHMARK(BM_PlanGreedy)->Arg(16)->Arg(64)->Arg(256);

// Re-planning against a persistent evaluator (the tuning service's steady
// state: admission, dequeue and fault replans share one cache per job).
void BM_PlanGreedyWarm(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(static_cast<int>(state.range(0)), 30.0);
  PlanEvaluator evaluator(inputs, PlannerOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanGreedy(evaluator));
  }
  const PlannerCacheStats stats = evaluator.stats();
  ReportEvalRate(state, stats.plan_evaluations + stats.plan_memo_hits);
  state.counters["plan_hit_rate"] = stats.PlanHitRate();
}
BENCHMARK(BM_PlanGreedyWarm)->Arg(16)->Arg(64)->Arg(256);

// Cold incremental evaluation with a 4-thread candidate batch pool.
void BM_PlanGreedyParallel(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(static_cast<int>(state.range(0)), 30.0);
  PlannerOptions options;
  options.eval_threads = 4;
  int64_t evals = 0;
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, options);
    benchmark::DoNotOptimize(PlanGreedy(evaluator));
    const PlannerCacheStats stats = evaluator.stats();
    evals += stats.plan_evaluations + stats.plan_memo_hits;
  }
  ReportEvalRate(state, evals);
}
BENCHMARK(BM_PlanGreedyParallel)->Arg(16)->Arg(64)->Arg(256);

// Ablation: warm-start multiplicity. Reports the found plan's predicted
// cost (lower is better) alongside the planning time.
void BM_GreedyWarmStarts(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(64, 20.0);
  PlannerOptions options;
  options.warm_start_multipliers.clear();
  for (int i = 1; i <= state.range(0); ++i) {
    options.warm_start_multipliers.push_back(static_cast<double>(i));
  }
  double cost = 0.0;
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, options);
    const PlannedJob job = PlanGreedy(evaluator);
    cost = job.estimate.cost_mean.dollars();
    benchmark::DoNotOptimize(job);
  }
  state.counters["plan_cost_$"] = cost;
}
BENCHMARK(BM_GreedyWarmStarts)->DenseRange(1, 3);

// Ablation: simulator samples per candidate evaluation vs plan quality.
void BM_GreedySimSamples(benchmark::State& state) {
  const PlannerInputs inputs = Inputs(64, 20.0);
  PlannerOptions options;
  options.sim_samples = static_cast<int>(state.range(0));
  double cost = 0.0;
  for (auto _ : state) {
    PlanEvaluator evaluator(inputs, options);
    const PlannedJob job = PlanGreedy(evaluator);
    cost = job.estimate.cost_mean.dollars();
    benchmark::DoNotOptimize(job);
  }
  state.counters["plan_cost_$"] = cost;
}
BENCHMARK(BM_GreedySimSamples)->Arg(1)->Arg(5)->Arg(20)->Arg(100);

}  // namespace
}  // namespace rubberband

// BENCHMARK_MAIN plus a "--json <path>" shorthand that expands to google-
// benchmark's --benchmark_out/--benchmark_out_format pair, so CI can
// collect machine-readable results the same way as bench/service_throughput.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  static std::string format_flag = "--benchmark_out_format=json";
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::string(args[i]) == "--json" && i + 1 < args.size()) {
      out_flag = std::string("--benchmark_out=") + args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      args.push_back(out_flag.data());
      args.push_back(format_flag.data());
      break;
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
