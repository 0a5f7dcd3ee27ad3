// Microbenchmarks for RubberBand's own hot paths: DAG construction,
// Algorithm 1 plan simulation, keyed random streams, and the DES kernel
// itself (EventQueue schedule/run/cancel). The planner calls the simulators
// in its inner loop, each drawing from keyed streams, and every
// runtime layer ticks on the kernel, so these throughputs bound everything
// above them.
//
//   --json <path>   skip google-benchmark and emit the kernel events/s
//                   baseline and the random-engine comparison as JSON
//                   (BENCH_sim.json). Fails (exit 1) if any inline-sized
//                   callback fell back to the heap — the allocation-free
//                   hot-path regression check — or if the in-tree engine
//                   loses its margin over std::mt19937_64 (see RngGate).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/dag/builder.h"
#include "src/sim/event_queue.h"

namespace rubberband {
namespace {

using bench::P38Cloud;
using bench::ResNet50Profile;

ExperimentSpec SpecForTrials(int trials) { return MakeSha(trials, 4, 508, 2); }

void BM_BuildDag(benchmark::State& state) {
  const ExperimentSpec spec = SpecForTrials(static_cast<int>(state.range(0)));
  const AllocationPlan plan = AllocationPlan::Uniform(spec.num_stages(), spec.stage(0).num_trials);
  const ModelProfile profile = ResNet50Profile(4.0, 0.4);
  const CloudProfile cloud = P38Cloud();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildDag(spec, plan, profile, cloud));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildDag)->Arg(16)->Arg(64)->Arg(256)->Arg(512)->Complexity();

void BM_SimulatePlanSample(benchmark::State& state) {
  const ExperimentSpec spec = SpecForTrials(static_cast<int>(state.range(0)));
  const AllocationPlan plan = AllocationPlan::Uniform(spec.num_stages(), spec.stage(0).num_trials);
  const ModelProfile profile = ResNet50Profile(4.0, 0.4);
  const CloudProfile cloud = P38Cloud();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  int sample_index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SamplePlan(dag, profile, cloud, 1, sample_index++));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimulatePlanSample)->Arg(16)->Arg(64)->Arg(256)->Arg(512)->Complexity();

void BM_SimulatePlanEstimate20Samples(benchmark::State& state) {
  const ExperimentSpec spec = SpecForTrials(64);
  const AllocationPlan plan = AllocationPlan::Uniform(spec.num_stages(), 64);
  const ModelProfile profile = ResNet50Profile(4.0, 0.4);
  const CloudProfile cloud = P38Cloud();
  const ExecutionDag dag = BuildDag(spec, plan, profile, cloud);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulatePlan(dag, profile, cloud, {20, 1}));
  }
}
BENCHMARK(BM_SimulatePlanEstimate20Samples);

// The plain/Observed pair quantifies the observability instrumentation
// overhead (timeline spans + latency histograms on top of the always-on
// counters), which the design budgets at <2% on realistic experiment sizes
// (fixed per-run costs — histogram setup, the final snapshot — amortize as
// the experiment grows, so the 16-trial point runs a little hotter).
void EndToEndExecution(benchmark::State& state, bool observe) {
  const int trials = static_cast<int>(state.range(0));
  const ExperimentSpec spec = MakeSha(trials, 2, 508, 2);
  const AllocationPlan plan = AllocationPlan::Uniform(spec.num_stages(), trials);
  const WorkloadSpec workload = ResNet101Cifar10();
  const CloudProfile cloud = P38Cloud();
  uint64_t seed = 0;
  for (auto _ : state) {
    ExecutorOptions options;
    options.seed = seed++;
    options.observe = observe;
    benchmark::DoNotOptimize(ExecutePlan(spec, plan, workload, cloud, options));
  }
}

void BM_EndToEndExecution(benchmark::State& state) { EndToEndExecution(state, false); }
BENCHMARK(BM_EndToEndExecution)->Arg(16)->Arg(64);

void BM_EndToEndExecutionObserved(benchmark::State& state) { EndToEndExecution(state, true); }
BENCHMARK(BM_EndToEndExecutionObserved)->Arg(16)->Arg(64);

// --- Keyed random streams -------------------------------------------------
//
// Stage s of sample i draws from the keyed stream (seed, s, i) and takes a
// handful of normals from it: fresh from Rng::ForStream in the reference
// sweep, replayed from Rng::RecordedStreams in the planner. Long streams (the
// simulation's own Rng, fault and spot traces) draw many words from one
// engine.

constexpr int kPlannerSamples = 20;  // PlannerOptions::sim_samples

void BM_KeyedStreamDraw(benchmark::State& state) {
  const int draws = static_cast<int>(state.range(0));
  uint64_t index = 0;
  for (auto _ : state) {
    Rng rng = Rng::ForStream(1, 3, index++);
    double sum = 0.0;
    for (int i = 0; i < draws; ++i) sum += rng.Normal(0.0, 1.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyedStreamDraw)->Arg(1)->Arg(8)->Arg(32)->Arg(100);

// The planner's steady state: the evaluator replays the same (stage,
// sample) streams from this thread's tapes, recorded by earlier iterations,
// so the normals come from memoized decodes of stored words.
void BM_RecordedStreamDraw(benchmark::State& state) {
  const int draws = static_cast<int>(state.range(0));
  uint64_t index = 0;
  for (auto _ : state) {
    Rng rng(Rng::RecordedStreams(1, 3, kPlannerSamples)[index++ % kPlannerSamples]);
    double sum = 0.0;
    for (int i = 0; i < draws; ++i) sum += rng.Normal(0.0, 1.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordedStreamDraw)->Arg(8);

void BM_LongStreamWords(benchmark::State& state) {
  Mt19937_64 engine(42);
  constexpr int kWordsPerIteration = 4096;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kWordsPerIteration; ++i) sink ^= engine();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerIteration);
}
BENCHMARK(BM_LongStreamWords);

// --- DES kernel microbenchmarks -------------------------------------------
//
// Three access patterns bracket how the layers above actually drive the
// queue: the executor schedules bursts and drains them (schedule/run), the
// warm pool schedules TTL timers it usually cancels (schedule/cancel), and
// steady-state simulation is a self-rescheduling chain (churn). All captures
// are inline-sized, so the runs double as the allocation-free check.

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  int64_t sink = 0;
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < batch; ++i) {
      queue.ScheduleAt(static_cast<Seconds>(i), [&sink, i] { sink += i; });
    }
    queue.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  std::vector<EventHandle> handles(static_cast<size_t>(batch));
  int64_t sink = 0;
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<size_t>(i)] =
          queue.ScheduleAt(static_cast<Seconds>(i), [&sink] { ++sink; });
    }
    for (int i = 0; i < batch; ++i) {
      queue.Cancel(handles[static_cast<size_t>(i)]);
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(1024)->Arg(16384);

void BM_EventQueueChurn(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    int remaining = chain;
    // Self-rescheduling chain: each event schedules its successor, the
    // steady state of the executor's iteration loop.
    struct Tick {
      EventQueue* queue;
      int* remaining;
      void operator()() const {
        if (--*(remaining) > 0) {
          queue->ScheduleAt(queue->now() + 1.0, Tick{queue, remaining});
        }
      }
    };
    queue.ScheduleAt(0.0, Tick{&queue, &remaining});
    queue.RunAll();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_EventQueueChurn)->Arg(1024)->Arg(16384);

// --- --json mode: checked-in kernel baseline (BENCH_sim.json) -------------

struct KernelResult {
  std::string name;
  int64_t events = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
};

template <typename Body>
KernelResult TimeKernel(const std::string& name, int64_t events, Body body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  KernelResult result;
  result.name = name;
  result.events = events;
  result.wall_s = wall.count();
  result.events_per_s = result.wall_s > 0.0 ? static_cast<double>(events) / result.wall_s : 0.0;
  return result;
}

// --- --json mode: in-tree engine vs std::mt19937_64, in one process --------
//
// Both engines run the same templated loops in one process, so the ratio
// isolates the engine and needs no per-host baseline. The gate fails when
// a fresh stream plus 8 normals is not at least 2x faster than with the
// standard engine, or when long-stream words/s is more than 10% slower.
// Both loops also fold their outputs into a checksum that must agree bit
// for bit. The planner's replayed streams are timed too (replayed_us, not
// gated), and their checksum must equal the same streams drawn fresh.

constexpr int kRngRepetitions = 5;
constexpr int kNewStreams = 50'000;
constexpr int kNewStreamNormals = 8;
constexpr int64_t kLongWords = 20'000'000;
constexpr double kMinFreshSpeedup = 2.0;
constexpr double kMinLongRatio = 0.9;

template <typename Engine>
uint64_t FreshStreams() {
  uint64_t checksum = 0;
  for (int s = 0; s < kNewStreams; ++s) {
    Engine engine(static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ULL);
    for (int i = 0; i < kNewStreamNormals; ++i) {
      const double draw = std::normal_distribution<double>(0.0, 1.0)(engine);
      checksum = checksum * 31 + std::bit_cast<uint64_t>(draw);
    }
  }
  return checksum;
}

// The planner's ~100 keyed streams (5 stages x 20 samples), cycled: replayed
// from this thread's tapes, or drawn fresh for the checksum.
constexpr int kPlannerStreams = 5 * kPlannerSamples;

template <bool kRecorded>
uint64_t PlannerStreams() {
  uint64_t checksum = 0;
  for (int s = 0; s < kNewStreams; ++s) {
    const uint64_t stream = static_cast<uint64_t>(s % kPlannerStreams / kPlannerSamples);
    const uint64_t index = static_cast<uint64_t>(s % kPlannerSamples);
    Rng rng = kRecorded ? Rng(Rng::RecordedStreams(1, stream, kPlannerSamples)[index])
                        : Rng::ForStream(1, stream, index);
    for (int i = 0; i < kNewStreamNormals; ++i) {
      checksum = checksum * 31 + std::bit_cast<uint64_t>(rng.Normal(0.0, 1.0));
    }
  }
  return checksum;
}

template <typename Engine>
uint64_t LongStream() {
  Engine engine(7);
  uint64_t checksum = 0;
  for (int64_t i = 0; i < kLongWords; ++i) checksum ^= engine() + static_cast<uint64_t>(i);
  return checksum;
}

template <typename Body>
double WallSeconds(Body body, uint64_t& checksum) {
  const auto start = std::chrono::steady_clock::now();
  checksum = body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct PairTiming {
  double lazy_s = 0.0;  // median wall seconds with the in-tree engine
  double std_s = 0.0;   // median wall seconds with std::mt19937_64
  bool checksums_match = true;
};

// Alternates the two engines rep by rep, so host drift hits both alike.
template <typename LazyBody, typename StdBody>
PairTiming MedianPair(LazyBody lazy_body, StdBody std_body) {
  std::vector<double> lazy, reference;
  PairTiming timing;
  for (int rep = 0; rep < kRngRepetitions; ++rep) {
    uint64_t lazy_sum = 0, std_sum = 0;
    lazy.push_back(WallSeconds(lazy_body, lazy_sum));
    reference.push_back(WallSeconds(std_body, std_sum));
    timing.checksums_match = timing.checksums_match && lazy_sum == std_sum;
  }
  std::sort(lazy.begin(), lazy.end());
  std::sort(reference.begin(), reference.end());
  timing.lazy_s = lazy[lazy.size() / 2];
  timing.std_s = reference[reference.size() / 2];
  return timing;
}

struct RngGate {
  double fresh_lazy_us = 0.0;  // per stream: construct + 8 normals
  double fresh_std_us = 0.0;
  double replayed_us = 0.0;    // per stream: 8 normals replayed from a tape
  double long_lazy_words_per_s = 0.0;
  double long_std_words_per_s = 0.0;
  bool checksums_match = false;

  double fresh_speedup() const { return fresh_std_us / fresh_lazy_us; }
  double long_ratio() const { return long_lazy_words_per_s / long_std_words_per_s; }
  bool ok() const {
    return checksums_match && fresh_speedup() >= kMinFreshSpeedup &&
           long_ratio() >= kMinLongRatio;
  }
};

RngGate MeasureRngGate() {
  const PairTiming fresh = MedianPair(FreshStreams<Mt19937_64>, FreshStreams<std::mt19937_64>);
  const PairTiming long_stream = MedianPair(LongStream<Mt19937_64>, LongStream<std::mt19937_64>);
  const PairTiming replayed = MedianPair(PlannerStreams<true>, PlannerStreams<false>);
  RngGate gate;
  gate.fresh_lazy_us = fresh.lazy_s * 1e6 / kNewStreams;
  gate.fresh_std_us = fresh.std_s * 1e6 / kNewStreams;
  gate.replayed_us = replayed.lazy_s * 1e6 / kNewStreams;
  gate.long_lazy_words_per_s = kLongWords / long_stream.lazy_s;
  gate.long_std_words_per_s = kLongWords / long_stream.std_s;
  gate.checksums_match =
      fresh.checksums_match && long_stream.checksums_match && replayed.checksums_match;
  return gate;
}

int JsonMain(const std::string& path) {
  // Sized so each bench runs long enough to time stably (~100ms+) but the
  // whole mode stays under a couple of seconds for CI.
  constexpr int kEvents = 2'000'000;
  constexpr int kBatch = 16384;  // bursts mirror the executor's fan-out width

  const int64_t fallbacks_before = EventCallback::HeapConstructions();
  std::vector<KernelResult> results;

  // schedule_run: burst-fill then drain, repeated. Exercises slab alloc,
  // pairing-heap meld, pop, and slot recycling across bursts.
  results.push_back(TimeKernel("schedule_run", kEvents, [] {
    EventQueue queue;
    int64_t sink = 0;
    for (int burst = 0; burst < kEvents / kBatch; ++burst) {
      for (int i = 0; i < kBatch; ++i) {
        queue.ScheduleAt(queue.now() + static_cast<Seconds>(i), [&sink, i] { sink += i; });
      }
      queue.RunAll();
    }
    if (sink < 0) std::abort();  // keep the work observable
  }));

  // schedule_cancel: every event is cancelled before it fires — the warm
  // pool's TTL-timer pattern. Measures handle validation + lazy pruning.
  results.push_back(TimeKernel("schedule_cancel", kEvents, [] {
    EventQueue queue;
    std::vector<EventHandle> handles(kBatch);
    int64_t sink = 0;
    for (int burst = 0; burst < kEvents / kBatch; ++burst) {
      for (int i = 0; i < kBatch; ++i) {
        handles[static_cast<size_t>(i)] =
            queue.ScheduleAt(queue.now() + 1.0 + i, [&sink] { ++sink; });
      }
      for (int i = 0; i < kBatch; ++i) {
        queue.Cancel(handles[static_cast<size_t>(i)]);
      }
      // Drain the tombstones so the slab stays bounded across bursts.
      queue.RunAll();
    }
    if (sink != 0) std::abort();  // every event was cancelled before firing
  }));

  // churn: a single self-rescheduling chain — queue depth stays at 1, so
  // this isolates per-event constant cost (alloc + meld + pop + invoke).
  results.push_back(TimeKernel("churn", kEvents, [] {
    EventQueue queue;
    int remaining = kEvents;
    struct Tick {
      EventQueue* queue;
      int* remaining;
      void operator()() const {
        if (--*(remaining) > 0) {
          queue->ScheduleAt(queue->now() + 1.0, Tick{queue, remaining});
        }
      }
    };
    queue.ScheduleAt(0.0, Tick{&queue, &remaining});
    queue.RunAll();
    if (remaining != 0) std::abort();
  }));

  const int64_t fallbacks = EventCallback::HeapConstructions() - fallbacks_before;

  std::printf("%-16s %12s %9s %13s\n", "bench", "events", "wall", "events/s");
  for (const KernelResult& result : results) {
    std::printf("%-16s %12lld %8.3fs %12.2fM\n", result.name.c_str(),
                static_cast<long long>(result.events), result.wall_s,
                result.events_per_s / 1e6);
  }
  std::printf("callback heap fallbacks: %lld\n", static_cast<long long>(fallbacks));

  if (fallbacks > 0) {
    std::fprintf(stderr, "error: %lld inline-sized callbacks heap-allocated\n",
                 static_cast<long long>(fallbacks));
    return 1;
  }

  const RngGate rng = MeasureRngGate();
  std::printf("fresh stream + %d normals: %.3f us (std::mt19937_64 %.3f us, %.2fx faster)\n",
              kNewStreamNormals, rng.fresh_lazy_us, rng.fresh_std_us, rng.fresh_speedup());
  std::printf("long-stream words/s: %.1fM (std::mt19937_64 %.1fM, ratio %.3f)\n",
              rng.long_lazy_words_per_s / 1e6, rng.long_std_words_per_s / 1e6,
              rng.long_ratio());
  std::printf("replayed stream + %d normals: %.3f us\n", kNewStreamNormals, rng.replayed_us);
  if (!rng.ok()) {
    std::fprintf(stderr,
                 "error: random-engine gate failed (checksums %s; need fresh speedup >= "
                 "%.1fx and long-stream ratio >= %.2f)\n",
                 rng.checksums_match ? "match" : "DIFFER", kMinFreshSpeedup, kMinLongRatio);
    return 1;
  }

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(file, "{\n  \"benchmark\": \"event_queue_kernel\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& result = results[i];
    std::fprintf(file,
                 "    {\"bench\": \"%s\", \"events\": %lld, \"wall_s\": %.3f, "
                 "\"events_per_s\": %.0f}%s\n",
                 result.name.c_str(), static_cast<long long>(result.events), result.wall_s,
                 result.events_per_s, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"callback_heap_fallbacks\": %lld,\n",
               static_cast<long long>(fallbacks));
  std::fprintf(file,
               "  \"rng\": {\"repetitions\": %d, \"nproc\": %u, "
               "\"fresh_stream_normals\": %d, \"fresh_lazy_us\": %.3f, "
               "\"fresh_std_us\": %.3f, \"fresh_speedup\": %.2f, "
               "\"long_lazy_words_per_s\": %.0f, \"long_std_words_per_s\": %.0f, "
               "\"long_ratio\": %.3f, \"replayed_us\": %.3f}\n}\n",
               kRngRepetitions, std::thread::hardware_concurrency(), kNewStreamNormals,
               rng.fresh_lazy_us, rng.fresh_std_us, rng.fresh_speedup(),
               rng.long_lazy_words_per_s, rng.long_std_words_per_s, rng.long_ratio(),
               rng.replayed_us);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace rubberband

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json requires a path\n");
        return 2;
      }
      return rubberband::JsonMain(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
