// Burst property tests: a bursty batch of same-tick submissions must
// leave the service's accounting consistent — queue-wait metrics agree
// with per-job outcomes, fair-share caps hold, warm-pool counters balance
// — and a run stepped through AdvanceUntil, as the serving front door
// drives it, must be bit-identical to one Run() over the same trace (the
// front door's correctness foundation).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/rubberband.h"
#include "src/service/tuning_service.h"

namespace rubberband {
namespace {

ServiceConfig BurstConfig(uint64_t seed, bool warm) {
  ServiceConfig config;
  config.cloud.instance = P3_8xlarge();
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 60.0);
  config.capacity_gpus = 16;  // small on purpose: a burst must queue
  config.seed = seed;
  if (warm) {
    config.warm_pool.max_parked = 8;
    config.warm_pool.max_idle_seconds = 300.0;
  }
  return config;
}

JobRequest BurstJob(int i, int burst) {
  JobRequest job;
  job.name = "burst-" + std::to_string(i);
  job.spec = MakeSha(/*num_trials=*/4, /*min_iters=*/1, /*max_iters=*/4,
                     /*reduction_factor=*/2);
  job.workload = ResNet101Cifar10();
  job.submit_at = 0.0;  // the whole burst lands on one tick
  job.deadline = 3600.0 * burst;
  return job;
}

ServiceReport RunLiveBurst(const ServiceConfig& config, int burst) {
  TuningService service(config);
  // Same-tick burst: every submission is scheduled before the clock moves,
  // exactly what the front door sees when N tenants hit submit at once.
  for (int i = 0; i < burst; ++i) {
    service.SubmitLive(BurstJob(i, burst));
  }
  // Then the clock moves in pacing steps, as the front door's ticks move it.
  for (Seconds t = 0.0; service.HasPendingEvents() && t < 1e7; t += 300.0) {
    service.AdvanceUntil(t);
  }
  service.FinishLive();
  return service.SnapshotReport();
}

ServiceReport RunBatchBurst(const ServiceConfig& config, int burst) {
  TuningService service(config);
  for (int i = 0; i < burst; ++i) {
    service.SubmitLive(BurstJob(i, burst));
  }
  return service.Run();
}

void CheckBurstInvariants(const ServiceReport& report, const ServiceConfig& config,
                          int burst) {
  // Every submission is accounted for in exactly one terminal bucket.
  ASSERT_EQ(static_cast<int>(report.jobs.size()), burst);
  EXPECT_EQ(report.completed + report.rejected + report.cancelled, burst);
  EXPECT_EQ(report.in_flight, 0);

  // Queue-wait accounting: each started job's wait is its started-at minus
  // submitted-at gap, the report mean matches the per-job values, and the
  // service.queue_wait_seconds histogram saw exactly the started jobs.
  int started = 0;
  double total_wait = 0.0;
  bool any_queued = false;
  for (const JobOutcome& job : report.jobs) {
    EXPECT_DOUBLE_EQ(job.submitted_at, 0.0) << job.name;
    if (job.state == JobState::kCompleted) {
      ++started;
      EXPECT_GE(job.queue_wait, 0.0) << job.name;
      EXPECT_DOUBLE_EQ(job.queue_wait, job.started_at - job.submitted_at) << job.name;
      total_wait += job.queue_wait;
      any_queued = any_queued || job.queue_wait > 0.0;
      // Fair-share cap: no job's peak fleet exceeds the service's capacity
      // (the arbiter clamps per-stage allocations to the tenant's slice).
      EXPECT_GE(job.peak_instances, 1) << job.name;
      EXPECT_LE(job.peak_instances * config.cloud.instance.gpus, config.capacity_gpus)
          << job.name;
    }
  }
  ASSERT_GT(started, 0);
  // When the burst's floor demand (one instance per job) oversubscribes
  // capacity, it cannot all start at once: someone must wait.
  if (burst * config.cloud.instance.gpus > config.capacity_gpus) {
    EXPECT_TRUE(any_queued);
  }
  EXPECT_NEAR(report.mean_queue_wait, total_wait / started, 1e-9);

  const auto wait_histogram = report.metrics.histograms.find("service.queue_wait_seconds");
  ASSERT_NE(wait_histogram, report.metrics.histograms.end());
  EXPECT_EQ(wait_histogram->second.count, started);
  EXPECT_NEAR(static_cast<double>(wait_histogram->second.sum_ns) / 1e9, total_wait, 1e-3);

  // Warm-pool ledger balances: every instance request was either a warm hit
  // or a cold miss, and cold misses are exactly the real launches paid for.
  EXPECT_EQ(report.warm.requests, report.warm.warm_hits + report.warm.cold_misses);
  EXPECT_EQ(report.instance_launches, static_cast<int>(report.warm.cold_misses));
  EXPECT_GE(report.warm.HitRate(), 0.0);
  EXPECT_LE(report.warm.HitRate(), 1.0);
  EXPECT_GE(report.warm.init_seconds_saved, 0.0);
  if (config.warm_pool.max_parked == 0) {
    EXPECT_EQ(report.warm.warm_hits, 0);
  }
}

void ExpectIdenticalReports(const ServiceReport& live, const ServiceReport& batch) {
  ASSERT_EQ(live.jobs.size(), batch.jobs.size());
  for (size_t i = 0; i < live.jobs.size(); ++i) {
    const JobOutcome& a = batch.jobs[i];
    const JobOutcome& b = live.jobs[i];
    EXPECT_EQ(b.state, a.state) << a.name;
    EXPECT_DOUBLE_EQ(b.queue_wait, a.queue_wait) << a.name;
    EXPECT_DOUBLE_EQ(b.jct, a.jct) << a.name;
    EXPECT_EQ(b.cost.micros(), a.cost.micros()) << a.name;
    EXPECT_DOUBLE_EQ(b.best_accuracy, a.best_accuracy) << a.name;
  }
  EXPECT_EQ(live.instance_launches, batch.instance_launches);
  EXPECT_EQ(live.warm.warm_hits, batch.warm.warm_hits);
  EXPECT_EQ(live.total_cost.Total().micros(), batch.total_cost.Total().micros());
  EXPECT_DOUBLE_EQ(live.makespan, batch.makespan);
}

TEST(ServiceBurstProperty, SameTickBurstKeepsAccountingConsistent) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    for (const int burst : {4, 9}) {
      for (const bool warm : {false, true}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " burst=" + std::to_string(burst) +
                     (warm ? " warm" : " cold"));
        const ServiceConfig config = BurstConfig(seed, warm);
        CheckBurstInvariants(RunLiveBurst(config, burst), config, burst);
      }
    }
  }
}

TEST(ServiceBurstProperty, LiveBurstIsBitIdenticalToBatchReplay) {
  // The snapshot/restore contract rests on a run being a pure function of
  // (seed, config, op sequence): stepping the same-tick burst's clock in
  // pacing steps must reproduce one Run() to the micro-dollar.
  for (const uint64_t seed : {7u, 21u}) {
    for (const bool warm : {false, true}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + (warm ? " warm" : " cold"));
      const ServiceConfig config = BurstConfig(seed, warm);
      ExpectIdenticalReports(RunLiveBurst(config, /*burst=*/6),
                             RunBatchBurst(config, /*burst=*/6));
    }
  }
}

TEST(ServiceBurstProperty, SameTickSubmissionsAdmitInSubmissionOrder) {
  // Determinism of the tie-break: jobs arriving on the same tick start in
  // submission order, every time (the front door's fairness floor).
  const ServiceConfig config = BurstConfig(/*seed=*/5, /*warm=*/false);
  const ServiceReport report = RunLiveBurst(config, /*burst=*/6);
  double last_start = -1.0;
  for (const JobOutcome& job : report.jobs) {
    if (job.state != JobState::kCompleted) {
      continue;
    }
    EXPECT_GE(job.started_at, last_start) << job.name;
    last_start = job.started_at;
  }
}

}  // namespace
}  // namespace rubberband
