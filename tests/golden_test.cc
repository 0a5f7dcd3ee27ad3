// Golden-artifact tests: a fixed-seed run's Chrome trace JSON and metrics
// JSON are checked in under tests/golden/ and compared schema-aware — the
// JsonValue comparator ignores member order but not values, so formatting
// churn cannot break the test while a changed duration or counter will.
//
// To regenerate after an intentional behavior change:
//   RB_UPDATE_GOLDEN=1 ./rubberband_conformance_tests --gtest_filter='Golden*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/rubberband.h"

#ifndef RB_TEST_GOLDEN_DIR
#error "RB_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace rubberband {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(RB_TEST_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool UpdateGoldens() { return std::getenv("RB_UPDATE_GOLDEN") != nullptr; }

// The one fixed-seed scenario both goldens are generated from. Everything
// here is deterministic: seeded planner, seeded executor, simulated clock.
ExecutionReport GoldenRun() {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  ExecutorOptions options;
  options.seed = 3;
  options.observe = true;
  return ExecutePlan(spec, AllocationPlan({8, 8, 8}), workload, cloud, options);
}

void CompareAgainstGolden(const std::string& actual, const std::string& golden_name) {
  const std::string path = GoldenPath(golden_name);
  if (UpdateGoldens()) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to update " << path;
    GTEST_SKIP() << "updated " << path;
  }
  const std::string golden = ReadFileOrEmpty(path);
  ASSERT_FALSE(golden.empty()) << path
                               << " is missing; regenerate with RB_UPDATE_GOLDEN=1";
  // Schema-aware comparison: parse both sides and compare values. A
  // mismatch falls back to the raw strings so the diff is visible.
  const JsonValue actual_doc = JsonValue::Parse(actual);
  const JsonValue golden_doc = JsonValue::Parse(golden);
  if (actual_doc != golden_doc) {
    EXPECT_EQ(actual, golden) << golden_name
                              << " drifted from its golden; if intentional, regenerate with "
                                 "RB_UPDATE_GOLDEN=1";
  }
}

TEST(Golden, ChromeTraceMatchesCheckedInArtifact) {
  CompareAgainstGolden(ChromeTraceFromReport(GoldenRun()), "chrome_trace_seed3.json");
}

TEST(Golden, MetricsSnapshotMatchesCheckedInArtifact) {
  CompareAgainstGolden(GoldenRun().metrics.ToJson(), "metrics_seed3.json");
}

TEST(Golden, ArtifactsAreCrossConsistent) {
  // The two checked-in artifacts describe the same run, so they must agree
  // with each other: the Chrome trace's stage-total spans sum to the JCT
  // gauge in the metrics snapshot (microseconds vs seconds).
  const std::string chrome = ReadFileOrEmpty(GoldenPath("chrome_trace_seed3.json"));
  const std::string metrics = ReadFileOrEmpty(GoldenPath("metrics_seed3.json"));
  if (chrome.empty() || metrics.empty()) {
    GTEST_SKIP() << "goldens not generated yet";
  }
  const JsonValue trace_doc = JsonValue::Parse(chrome);
  const JsonValue metrics_doc = JsonValue::Parse(metrics);

  double stage_total_us = 0.0;
  for (const JsonValue& event : trace_doc.at("traceEvents").array()) {
    if (event.at("name").string() == "stage-total") {
      stage_total_us += event.at("dur").number();
    }
  }
  const double jct_seconds = metrics_doc.at("gauges").at("executor.jct_seconds").number();
  EXPECT_NEAR(stage_total_us / 1e6, jct_seconds, 1e-3);
  EXPECT_GT(jct_seconds, 0.0);
}

// ---- Service metrics goldens ---------------------------------------------
// The fleet snapshot a TuningService exports: service.*, cloud.* and
// planner.* from its registry plus every finished job's executor.*, spot.*
// and asha.* families, summed in completion order (the double gauges depend
// on that order, and ASHA engines and staged executors share the
// executor.jct_seconds / cost_dollars / best_accuracy slots). Each golden
// holds the final report's snapshot and a mid-run MetricsNow of the same
// trace replayed live.

// The fleet knobs of the end-to-end benchmark's replay (perfbench).
ServiceConfig FleetConfig(int capacity_gpus, bool observe) {
  ServiceConfig config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
  config.capacity_gpus = capacity_gpus;
  config.seed = 7;
  config.share_admission_evaluator = true;
  config.keep_job_artifacts = false;
  config.per_tenant_metrics = false;
  config.planner.eval_threads = 1;
  config.observe = observe;
  return config;
}

ExperimentRequest Experiment(const std::string& prefix, int index, SchedulerKind scheduler,
                             const WorkloadSpec& workload, int trials, int64_t max_iters,
                             int eta, Seconds submit_at, Seconds deadline) {
  ExperimentRequest request;
  // Two steps: GCC 12 flags `prefix + std::to_string(index)` with a false
  // -Wrestrict in Release builds.
  request.name = prefix;
  request.name += std::to_string(index);
  request.ir.scheduler = scheduler;
  request.ir.num_trials = scheduler == SchedulerKind::kHyperband ? 0 : trials;
  request.ir.min_iters = 1;
  request.ir.max_iters = max_iters;
  request.ir.reduction_factor = eta;
  request.workload = workload;
  request.submit_at = submit_at;
  request.deadline = deadline;
  return request;
}

// 40 identical tiny SHA jobs, one per 2 s slot at a fixed jitter.
std::vector<ExperimentRequest> UniformTrace() {
  std::vector<ExperimentRequest> trace;
  for (int i = 0; i < 40; ++i) {
    const Seconds submit_at = 2.0 * i + static_cast<double>((i * 379) % 1000) / 1000.0;
    trace.push_back(Experiment("u", i, SchedulerKind::kSha, ResNet101Cifar10(), 4, 4, 2,
                               submit_at, 4.0 * 3600.0));
  }
  return trace;
}

ServiceConfig UniformConfig(bool observe) {
  ServiceConfig config = FleetConfig(1024, observe);
  config.warm_pool.max_parked = 256;
  config.warm_pool.max_idle_seconds = 600.0;
  return config;
}

// SHA, ASHA and Hyperband experiments over three models, one per 90 s with
// tight deadlines, on an overcommitted cluster (fair-share caps bind) under
// spot reclamation, provisioning/init/checkpoint failures, crashes and
// stragglers, with fault re-planning and straggler quarantine on.
std::vector<ExperimentRequest> MixedTrace() {
  const WorkloadSpec models[] = {ResNet101Cifar10(), ResNet152Cifar100(), BertRte()};
  const SchedulerKind kinds[] = {SchedulerKind::kSha, SchedulerKind::kAsha,
                                 SchedulerKind::kHyperband};
  std::vector<ExperimentRequest> trace;
  for (int i = 0; i < 12; ++i) {
    const int size = i % 4;
    trace.push_back(Experiment("m", i, kinds[i % 3], models[(i / 3) % 3], 6 + 6 * size,
                               6 + 3 * size, 2 + i % 2, 90.0 * i, (1.0 + 0.5 * size) * 3600.0));
  }
  return trace;
}

ServiceConfig MixedConfig(bool observe) {
  ServiceConfig config = FleetConfig(48, observe);
  config.overcommit = 2.0;
  config.warm_pool.max_parked = 16;
  config.warm_pool.max_idle_seconds = 300.0;
  config.replan_on_faults = true;
  config.straggler.detect = true;
  config.straggler.mitigate = true;
  FaultProfile& fault = config.cloud.fault;
  fault.provision_failure_rate = 0.05;
  fault.init_failure_rate = 0.02;
  fault.checkpoint_failure_rate = 0.02;
  fault.mtbf = 20.0 * 3600.0;
  fault.straggler_rate = 0.3;
  SpotMarket& spot = config.cloud.spot;
  spot.enabled = true;
  spot.volatility = 0.3;
  spot.mean_time_to_preemption = 2.0 * 3600.0;
  return config;
}

// Submits the trace to one service, advances it to `mid_run`, then runs it
// to the end, and returns {"final": <report snapshot>, "mid_run":
// <MetricsNow>}. The final section is pinned by the same goldens a lone
// Run() produced: Run() after live steps continues the one timeline.
std::string ServiceMetricsJson(const ServiceConfig& config,
                               const std::vector<ExperimentRequest>& trace, Seconds mid_run) {
  TuningService service(config);
  for (const ExperimentRequest& request : trace) {
    service.SubmitExperiment(request);
  }
  service.AdvanceUntil(mid_run);
  const MetricsSnapshot mid = service.MetricsNow();
  const ServiceReport report = service.Run();
  // The mid-run cut must fall between the first and the last completion.
  const int64_t done_mid = mid.counters.at("service.jobs_completed");
  EXPECT_GT(done_mid, 0);
  EXPECT_LT(done_mid, report.completed);
  return "{\"final\": " + report.metrics.ToJson() + ", \"mid_run\": " + mid.ToJson() + "}\n";
}

TEST(GoldenServiceMetrics, UniformFleet) {
  CompareAgainstGolden(ServiceMetricsJson(UniformConfig(false), UniformTrace(), 490.0),
                       "service_uniform_metrics.json");
}

TEST(GoldenServiceMetrics, UniformFleetObserved) {
  CompareAgainstGolden(ServiceMetricsJson(UniformConfig(true), UniformTrace(), 490.0),
                       "service_uniform_observe_metrics.json");
}

TEST(GoldenServiceMetrics, MixedFaultyFleet) {
  CompareAgainstGolden(ServiceMetricsJson(MixedConfig(false), MixedTrace(), 2700.0),
                       "service_mixed_metrics.json");
}

TEST(GoldenServiceMetrics, MixedFaultyFleetObserved) {
  CompareAgainstGolden(ServiceMetricsJson(MixedConfig(true), MixedTrace(), 2700.0),
                       "service_mixed_observe_metrics.json");
}

// Every planner.* metric of a fleet report is its planner-cache total, the
// executors' fault-replan evaluators counted once (through the service's
// totals, not again through each job's own metrics).
TEST(ServiceMetrics, PlannerMetricsEqualTheReportsPlannerCache) {
  TuningService service(MixedConfig(false));
  for (const ExperimentRequest& request : MixedTrace()) {
    service.SubmitExperiment(request);
  }
  const ServiceReport report = service.Run();
  const PlannerCacheStats& cache = report.planner_cache;
  const std::map<std::string, int64_t>& counters = report.metrics.counters;
  EXPECT_EQ(counters.at("planner.plan_evaluations"), cache.plan_evaluations);
  EXPECT_EQ(counters.at("planner.plan_memo_hits"), cache.plan_memo_hits);
  EXPECT_EQ(counters.at("planner.stage_evaluations"), cache.stage_evaluations);
  EXPECT_EQ(counters.at("planner.stage_cache_hits"), cache.stage_cache_hits);
  EXPECT_EQ(report.metrics.gauges.at("planner.plan_hit_rate"), cache.PlanHitRate());
  EXPECT_EQ(report.metrics.gauges.at("planner.stage_hit_rate"), cache.StageHitRate());
}

}  // namespace
}  // namespace rubberband
