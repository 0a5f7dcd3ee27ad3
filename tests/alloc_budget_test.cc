// Heap-allocation budget of the fleet replay: a counting global operator
// new measures what one uniform SHA job costs the allocator while the
// tuning service takes and replays a 500-job trace with the fleet knobs of
// the end-to-end benchmark (one shared admission evaluator, no retained job
// artifacts, no per-tenant gauges). The budget covers both halves of a
// job's life, SubmitExperiment and Run, so work moved from one to the
// other does not change the count. Allocation is the largest single cost
// of the replay, so the budget fails loudly when per-job bookkeeping
// creeps back in (named registry handles, per-job snapshots and merges,
// whole-plan copies).
//
// Its own binary: replacing the global operator new is process-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/rubberband.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC's -Wmismatched-new-delete would otherwise see a
// new-expression's pointer reach std::free in the inlined delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rubberband {
namespace {

constexpr int kJobs = 500;
constexpr int64_t kBudgetPerJob = 200;

int64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// The fleet_uniform shape: tiny identical SHA jobs, one per 2 s slot at a
// fixed millisecond jitter.
std::vector<ExperimentRequest> UniformTrace() {
  std::vector<ExperimentRequest> trace;
  for (int i = 0; i < kJobs; ++i) {
    ExperimentRequest request;
    // Two steps: GCC 12 flags `"u" + std::to_string(i)` with a false
    // -Wrestrict in Release builds.
    const std::string index = std::to_string(i);
    request.name = "u" + index;
    request.ir.scheduler = SchedulerKind::kSha;
    request.ir.num_trials = 4;
    request.ir.min_iters = 1;
    request.ir.max_iters = 4;
    request.ir.reduction_factor = 2;
    request.workload = ResNet101Cifar10();
    request.submit_at = 2.0 * i + static_cast<double>((i * 379) % 1000) / 1000.0;
    request.deadline = 4.0 * 3600.0;
    trace.push_back(std::move(request));
  }
  return trace;
}

// A wide cluster with a warm pool.
ServiceConfig UniformFleetConfig() {
  ServiceConfig config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
  config.capacity_gpus = 1024;
  config.seed = 7;
  config.share_admission_evaluator = true;
  config.keep_job_artifacts = false;
  config.per_tenant_metrics = false;
  config.planner.eval_threads = 1;
  config.warm_pool.max_parked = 256;
  config.warm_pool.max_idle_seconds = 600.0;
  return config;
}

TEST(AllocationBudget, UniformFleetReplayStaysUnderBudgetPerJob) {
  const std::vector<ExperimentRequest> trace = UniformTrace();
  TuningService service(UniformFleetConfig());
  // Only the service's own work counts: the requests are built above.
  int64_t submit = 0;
  for (const ExperimentRequest& request : trace) {
    const int64_t before = Allocations();
    service.SubmitExperiment(request);
    submit += Allocations() - before;
  }
  const int64_t before_run = Allocations();
  const ServiceReport report = service.Run();
  const int64_t run = Allocations() - before_run;
  ASSERT_EQ(report.completed, kJobs);
  const double per_job = static_cast<double>(submit + run) / kJobs;
  std::printf(
      "%d uniform SHA jobs: %lld heap allocations in SubmitExperiment (%.1f per job) + %lld in "
      "Run (%.1f per job) = %.1f per job (budget %lld)\n",
      kJobs, static_cast<long long>(submit), static_cast<double>(submit) / kJobs,
      static_cast<long long>(run), static_cast<double>(run) / kJobs, per_job,
      static_cast<long long>(kBudgetPerJob));
  RecordProperty("allocations_per_job", std::to_string(std::lround(per_job)));
  EXPECT_LE(per_job, static_cast<double>(kBudgetPerJob));
}

}  // namespace
}  // namespace rubberband
