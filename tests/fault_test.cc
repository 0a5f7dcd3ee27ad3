// Fault-injection framework and the self-healing control plane:
// provisioning failures with retry/backoff, init-time deaths, hardware
// crashes, checkpoint-transfer recovery, the scale-up waiter deadlock fix,
// and deadline-aware re-planning.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile TestCloud() {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  return cloud;
}

TEST(FaultInjector, DisabledClassesNeverFireAndNeverDraw) {
  FaultProfile profile;  // everything off
  EXPECT_FALSE(profile.Any());
  FaultInjector faults(profile, Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(faults.ProvisionFails());
    EXPECT_FALSE(faults.InitFails());
    EXPECT_FALSE(faults.CheckpointFetchFails());
  }
  EXPECT_FALSE(faults.crashes_enabled());
  EXPECT_EQ(faults.num_provision_failures(), 0);
  EXPECT_EQ(faults.num_init_failures(), 0);
  EXPECT_EQ(faults.num_checkpoint_failures(), 0);
}

TEST(FaultInjector, CertainFailureAlwaysFires) {
  FaultProfile profile;
  profile.provision_failure_rate = 1.0;
  FaultInjector faults(profile, Rng(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(faults.ProvisionFails());
  }
  EXPECT_EQ(faults.num_provision_failures(), 10);
}

TEST(FaultInjector, SampledFailuresAreDeterministicPerSeed) {
  FaultProfile profile;
  profile.provision_failure_rate = 0.4;
  profile.mtbf = 500.0;
  FaultInjector a(profile, Rng(9));
  FaultInjector b(profile, Rng(9));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ProvisionFails(), b.ProvisionFails());
    EXPECT_EQ(a.SampleTimeToCrash(), b.SampleTimeToCrash());
    EXPECT_GT(a.SampleTimeToCrash(), 0.0);
    (void)b.SampleTimeToCrash();
  }
  EXPECT_GT(a.num_provision_failures(), 0);
  EXPECT_LT(a.num_provision_failures(), 200);
}

TEST(SimulatedCloudFaults, RejectedRequestsFailAfterQueuingAndBillNothing) {
  Simulation sim(3);
  CloudProfile profile = TestCloud();
  profile.fault.provision_failure_rate = 1.0;
  SimulatedCloud cloud(sim, profile);
  int ready = 0;
  int failed = 0;
  cloud.RequestInstances(
      4, 0.0, [&](InstanceId) { ++ready; }, [&] { ++failed; });
  EXPECT_EQ(cloud.num_pending(), 4);
  sim.Run();
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(cloud.num_pending(), 0);
  EXPECT_EQ(cloud.num_provision_failures(), 4);
  // A rejection bills nothing — the instance never launched.
  EXPECT_EQ(cloud.meter().TotalInstanceSeconds(), 0.0);
  EXPECT_EQ(cloud.meter().num_acquisitions(), 0);
  // The rejection arrives after the queuing delay, not instantly.
  EXPECT_GE(sim.now(), 5.0);
}

TEST(SimulatedCloudFaults, InitDeathsBillTheLaunchToDeathInterval) {
  Simulation sim(3);
  CloudProfile profile = TestCloud();
  profile.fault.init_failure_rate = 1.0;
  SimulatedCloud cloud(sim, profile);
  int ready = 0;
  int failed = 0;
  cloud.RequestInstances(
      3, 0.0, [&](InstanceId) { ++ready; }, [&] { ++failed; });
  sim.Run();
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(failed, 3);
  EXPECT_EQ(cloud.num_init_failures(), 3);
  // The provider charges while init scripts run: launch -> death = init_s.
  EXPECT_NEAR(cloud.meter().TotalInstanceSeconds(), 3 * 10.0, 1e-9);
  EXPECT_EQ(cloud.meter().num_acquisitions(), 3);
}

TEST(SimulatedCloudFaults, ReadyInstancesCrashAtTheConfiguredMtbf) {
  Simulation sim(5);
  CloudProfile profile = TestCloud();
  profile.fault.mtbf = 100.0;
  SimulatedCloud cloud(sim, profile);
  std::vector<InstanceId> crashed;
  cloud.SetCrashHandler([&](InstanceId id) { crashed.push_back(id); });
  cloud.RequestInstances(10, 0.0, [](InstanceId) {});
  sim.RunUntil(10'000.0);  // 100 mean lifetimes: everything crashed
  EXPECT_EQ(crashed.size(), 10u);
  EXPECT_EQ(cloud.num_crashes(), 10);
  EXPECT_EQ(cloud.num_ready(), 0);
  // Crashed lifetimes are still billed (like spot reclamations).
  EXPECT_GT(cloud.meter().TotalInstanceSeconds(), 0.0);
}

TEST(SimulatedCloudFaults, TerminatedInstancesDoNotCrash) {
  Simulation sim(5);
  CloudProfile profile = TestCloud();
  profile.fault.mtbf = 100.0;
  SimulatedCloud cloud(sim, profile);
  std::vector<InstanceId> ids;
  cloud.SetCrashHandler([&](InstanceId) { FAIL() << "crashed a terminated instance"; });
  cloud.RequestInstances(5, 0.0, [&](InstanceId id) { ids.push_back(id); });
  sim.RunUntil(16.0);  // all ready at t=15
  for (InstanceId id : ids) {
    cloud.TerminateInstance(id);
  }
  sim.Run();  // drain the now-stale crash events
  EXPECT_EQ(cloud.num_crashes(), 0);
}

TEST(SimulatedCloudFaults, TerminateAllCancelsInFlightRequests) {
  Simulation sim(0);
  SimulatedCloud cloud(sim, TestCloud());  // queue 5s, init 10s
  int ready = 0;
  int failed = 0;
  cloud.RequestInstances(
      4, 0.0, [&](InstanceId) { ++ready; }, [&] { ++failed; });
  // t=7: all four slots launched (t=5) but still initializing (ready t=15).
  sim.ScheduleAt(7.0, [&] { cloud.TerminateAll(); });
  sim.Run();
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(failed, 0);  // cancelled slots fire neither callback
  EXPECT_EQ(cloud.num_pending(), 0);
  EXPECT_EQ(cloud.num_ready(), 0);
  // Each launched-but-initializing instance billed launch (5s) -> cancel (7s).
  EXPECT_NEAR(cloud.meter().TotalInstanceSeconds(), 4 * 2.0, 1e-9);
}

TEST(SimulatedCloudFaults, TerminateAllBeforeLaunchBillsNothing) {
  Simulation sim(0);
  SimulatedCloud cloud(sim, TestCloud());
  int ready = 0;
  cloud.RequestInstances(2, 0.0, [&](InstanceId) { ++ready; });
  sim.ScheduleAt(2.0, [&] { cloud.TerminateAll(); });  // still queued (launch t=5)
  sim.Run();
  EXPECT_EQ(ready, 0);
  EXPECT_EQ(cloud.num_pending(), 0);
  EXPECT_EQ(cloud.meter().TotalInstanceSeconds(), 0.0);
  EXPECT_EQ(cloud.meter().num_acquisitions(), 0);
}

// Scriptable source: fails the first `failures` slots, then delivers.
class FlakySource : public InstanceSource {
 public:
  FlakySource(Simulation& sim, int failures) : sim_(sim), failures_left_(failures) {}

  using InstanceSource::RequestInstances;
  void RequestInstances(int count, double dataset_gb, std::function<void(InstanceId)> on_ready,
                        std::function<void()> on_failure) override {
    (void)dataset_gb;
    for (int i = 0; i < count; ++i) {
      ++requests_;
      if (failures_left_ > 0) {
        --failures_left_;
        sim_.ScheduleIn(1.0, [on_failure] {
          if (on_failure) {
            on_failure();
          }
        });
      } else {
        const InstanceId id = next_id_++;
        sim_.ScheduleIn(1.0, [on_ready, id] { on_ready(id); });
      }
    }
  }

  void ReleaseInstance(InstanceId) override {}

  int requests() const { return requests_; }

 private:
  Simulation& sim_;
  int failures_left_;
  int requests_ = 0;
  InstanceId next_id_ = 0;
};

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_s = 2.0;
  retry.max_backoff_s = 8.0;
  retry.jitter = 0.0;  // deterministic timing for the assertions below
  return retry;
}

TEST(ClusterManagerRetry, BacksOffAndRecoversFromTransientFailures) {
  Simulation sim(0);
  FlakySource source(sim, /*failures=*/3);
  ClusterManager manager(sim, source, 0.0, FastRetry(/*max_attempts=*/6));
  int failures_seen = 0;
  manager.SetFaultObserver([&](bool will_retry) {
    ++failures_seen;
    EXPECT_TRUE(will_retry);
  });
  bool scaled = false;
  manager.EnsureInstances(2, [&] { scaled = true; });
  sim.Run();
  EXPECT_TRUE(scaled);
  EXPECT_EQ(manager.num_ready(), 2);
  EXPECT_EQ(failures_seen, 3);
  EXPECT_EQ(manager.num_provision_failures(), 3);
  EXPECT_EQ(manager.num_retries(), 3);
  EXPECT_EQ(manager.num_abandoned(), 0);
  // Each retry waits out an exponential backoff: 1s request latency per
  // attempt plus 2s, 4s, 2s of backoff (failures land on attempts 0, 1 and
  // a fresh slot's attempt 0) put completion well past the no-fault 1s.
  EXPECT_GT(sim.now(), 4.0);
}

TEST(ClusterManagerRetry, ExhaustedRetriesAreAbandonedAndReported) {
  Simulation sim(0);
  FlakySource source(sim, /*failures=*/1000);
  ClusterManager manager(sim, source, 0.0, FastRetry(/*max_attempts=*/3));
  int abandoned_signals = 0;
  int retry_signals = 0;
  manager.SetFaultObserver([&](bool will_retry) {
    if (will_retry) {
      ++retry_signals;
    } else {
      ++abandoned_signals;
    }
  });
  bool scaled = false;
  manager.EnsureInstances(1, [&] { scaled = true; });
  sim.Run();
  EXPECT_FALSE(scaled);  // the capacity never arrived
  EXPECT_EQ(manager.num_ready(), 0);
  EXPECT_EQ(retry_signals, 2);      // attempts 0 and 1 retried
  EXPECT_EQ(abandoned_signals, 1);  // attempt 2 gave up
  EXPECT_EQ(manager.num_abandoned(), 1);
  EXPECT_EQ(source.requests(), 3);
}

TEST(ClusterManagerRetry, ReduceWaitTargetFiresAStalledWaiter) {
  Simulation sim(0);
  FlakySource source(sim, /*failures=*/0);
  ClusterManager manager(sim, source, 0.0);
  int have = 0;
  manager.RequestExtra(2, [&](InstanceId) { ++have; });
  sim.Run();
  ASSERT_EQ(have, 2);
  bool scaled = false;
  manager.EnsureInstances(4, [&] { scaled = true; });
  EXPECT_TRUE(manager.awaiting_scale());
  // Degrade: settle for the 2 instances already held.
  manager.ReduceWaitTarget(2);
  EXPECT_TRUE(scaled);
  EXPECT_FALSE(manager.awaiting_scale());
  sim.Run();
}

TEST(ClusterManagerRetry, InstanceLossDuringScaleUpIsReRequested) {
  // The waiter deadlock: EnsureInstances computes `missing` once; capacity
  // lost while the request is outstanding must be re-requested or the
  // waiter hangs forever.
  Simulation sim(0);
  FlakySource source(sim, /*failures=*/0);
  ClusterManager manager(sim, source, 0.0);
  int have = 0;
  manager.RequestExtra(2, [&](InstanceId) { ++have; });
  sim.Run();
  ASSERT_EQ(manager.num_ready(), 2);

  bool scaled = false;
  manager.EnsureInstances(4, [&] { scaled = true; });  // 2 more in flight
  EXPECT_EQ(manager.num_inflight(), 2);
  // A held instance is reclaimed while the scale-up is outstanding.
  manager.OnInstanceLost(manager.ready_instances().front());
  EXPECT_EQ(manager.num_ready(), 1);
  sim.Run();
  EXPECT_TRUE(scaled) << "waiter hung: lost capacity was never re-requested";
  EXPECT_EQ(manager.num_ready(), 4);
}

TEST(ClusterManagerRetry, LossReportedForUnknownInstanceThrows) {
  Simulation sim(0);
  FlakySource source(sim, 0);
  ClusterManager manager(sim, source, 0.0);
  EXPECT_THROW(manager.OnInstanceLost(99), std::logic_error);
}

TEST(ExecutorFaults, SurvivesProvisioningFailuresAndCompletes) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  CloudProfile cloud = TestCloud();
  cloud.fault.provision_failure_rate = 0.7;
  ExecutorOptions options;
  options.seed = 11;
  const ExecutionReport report =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), cloud, options);
  EXPECT_GT(report.trace.Count(TraceEventType::kProvisionFailure), 0);
  EXPECT_GT(report.trace.Count(TraceEventType::kProvisionRetry), 0);
  EXPECT_GT(report.best_accuracy, 0.0);
  ASSERT_EQ(report.stage_log.size(), 3u);
  EXPECT_EQ(report.stage_log[2].num_trials, 2);
}

TEST(ExecutorFaults, RecoversCheckpointFetchFailures) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  CloudProfile cloud = TestCloud();
  cloud.fault.checkpoint_failure_rate = 0.5;
  ExecutorOptions options;
  options.seed = 5;
  const ExecutionReport faulty =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), cloud, options);
  const ExecutionReport clean =
      ExecutePlan(spec, AllocationPlan({8, 8, 8}), ResNet101Cifar10(), TestCloud(), options);
  EXPECT_GT(faulty.trace.Count(TraceEventType::kCheckpointRetry), 0);
  // Every retry re-pays transfer latency, so the faulty run fetches more
  // bytes and finishes no earlier.
  EXPECT_GT(faulty.checkpoint_fetches, clean.checkpoint_fetches);
  EXPECT_GE(faulty.jct, clean.jct);
  EXPECT_EQ(faulty.best_config.id, clean.best_config.id);  // recovery, not corruption
}

// The acceptance sweep: provisioning failures and hardware crashes at once.
TEST(ExecutorFaults, CompletesFullScheduleUnderCombinedFaults) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = TestCloud();
  cloud.fault.provision_failure_rate = 0.3;
  cloud.fault.mtbf = 600.0;
  ExecutorOptions options;
  options.seed = 11;

  const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
  // The full SHA schedule ran: every stage with its correct surviving count.
  ASSERT_EQ(report.stage_log.size(), 3u);
  EXPECT_EQ(report.stage_log[0].num_trials, 8);
  EXPECT_EQ(report.stage_log[1].num_trials, 4);
  EXPECT_EQ(report.stage_log[2].num_trials, 2);
  const ExecutionTrace& trace = report.trace;
  const int crashes = trace.Count(TraceEventType::kInstanceCrash);
  EXPECT_GT(crashes + trace.Count(TraceEventType::kProvisionFailure), 0);
  EXPECT_GT(report.best_accuracy, 0.0);
  if (crashes > 0) {
    EXPECT_GT(trace.Count(TraceEventType::kTrialRestart) + trace.Count(TraceEventType::kPreemption),
              0);
  }

  // Bit-identical replay from the same seed.
  const ExecutionReport replay = ExecutePlan(spec, plan, workload, cloud, options);
  EXPECT_EQ(report.jct, replay.jct);
  EXPECT_EQ(report.cost.Total(), replay.cost.Total());
  EXPECT_EQ(report.trace.ToCsv(), replay.trace.ToCsv());
}

// A source that forwards to the real cloud until sabotaged, then fails
// every slot — deterministic mid-stage capacity exhaustion.
class SaboteurSource : public InstanceSource {
 public:
  SaboteurSource(Simulation& sim, SimulatedCloud& cloud) : sim_(sim), cloud_(cloud) {}

  using InstanceSource::RequestInstances;
  void RequestInstances(int count, double dataset_gb, std::function<void(InstanceId)> on_ready,
                        std::function<void()> on_failure) override {
    if (sabotaged_) {
      for (int i = 0; i < count; ++i) {
        sim_.ScheduleIn(1.0, [on_failure] {
          if (on_failure) {
            on_failure();
          }
        });
      }
      return;
    }
    cloud_.RequestInstances(
        count, dataset_gb,
        [this, on_ready](InstanceId id) {
          delivered_.push_back(id);
          on_ready(id);
        },
        on_failure);
  }
  void ReleaseInstance(InstanceId id) override { cloud_.TerminateInstance(id); }

  void Sabotage() { sabotaged_ = true; }
  const std::vector<InstanceId>& delivered() const { return delivered_; }

 private:
  Simulation& sim_;
  SimulatedCloud& cloud_;
  bool sabotaged_ = false;
  std::vector<InstanceId> delivered_;
};

TEST(ExecutorFaults, MidStageAbandonDegradesTheRunningStageVisibly) {
  // Regression: a mid-stage replacement whose retries are exhausted shrinks
  // the running stage below its planned GPUs. That degradation must be
  // reported (degraded_stages + a STAGE_DEGRADED trace event on the stage
  // it hit), not silently absorbed — and at most once per stage.
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});

  Simulation sim(0);
  SimulatedCloud cloud(sim, TestCloud());
  SaboteurSource source(sim, cloud);
  ClusterContext context;
  context.sim = &sim;
  context.cloud = &cloud;
  context.source = &source;
  ExecutorOptions options;
  options.seed = 11;
  options.retry.max_attempts = 1;  // the first failed slot is abandoned
  Executor executor(spec, plan, workload, context, options);

  ExecutionReport report;
  bool done = false;
  executor.Start([&](const ExecutionReport& r) {
    report = r;
    done = true;
  });
  // Mid-stage-0: kill provisioning, then crash one held instance. The
  // replacement request fails, is abandoned, and the stage must degrade.
  sim.ScheduleAt(60.0, [&] {
    source.Sabotage();
    for (InstanceId id : source.delivered()) {
      if (executor.OwnsInstance(id)) {
        executor.OnCrash(id);
        return;
      }
    }
    FAIL() << "no owned instance to crash";
  });
  sim.Run();
  ASSERT_TRUE(done);

  EXPECT_EQ(report.trace.Count(TraceEventType::kInstanceCrash), 1);
  EXPECT_GT(report.trace.Count(TraceEventType::kProvisionGiveUp), 0);
  const std::vector<TraceEvent> degraded = report.trace.OfType(TraceEventType::kStageDegraded);
  ASSERT_FALSE(degraded.empty());
  // The first degradation is the mid-stage abandon on stage 0, stamped
  // after the crash — not a stage-boundary shortfall.
  EXPECT_EQ(degraded.front().stage, 0);
  EXPECT_GT(degraded.front().time, 60.0);
  // The job still completes its full schedule, just slower.
  ASSERT_EQ(report.stage_log.size(), 3u);
  EXPECT_EQ(report.stage_log[2].num_trials, 2);
  EXPECT_GT(report.best_accuracy, 0.0);
}

TEST(ExecutorFaults, ZeroFaultProfileIsBitIdenticalToBaseline) {
  // The whole fault layer must be free when disabled: an all-zero fault
  // profile (even with re-planning armed) reproduces the fault-free run
  // exactly, because no fault class ever draws from the Rng and the
  // re-plan check is gated on an observed fault.
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions baseline_options;
  baseline_options.seed = 17;
  const ExecutionReport baseline =
      ExecutePlan(spec, plan, workload, TestCloud(), baseline_options);

  ExecutorOptions armed = baseline_options;
  armed.replan.enabled = true;
  armed.replan.deadline = 1.0;  // absurdly tight, but gated on an observed fault
  const ExecutionReport armed_report = ExecutePlan(spec, plan, workload, TestCloud(), armed);

  EXPECT_EQ(baseline.jct, armed_report.jct);
  EXPECT_EQ(baseline.cost.Total(), armed_report.cost.Total());
  EXPECT_EQ(baseline.best_accuracy, armed_report.best_accuracy);
  EXPECT_EQ(baseline.trace.events().size(), armed_report.trace.events().size());
  EXPECT_EQ(armed_report.trace.Count(TraceEventType::kReplan), 0);
  EXPECT_EQ(armed_report.trace.Count(TraceEventType::kProvisionFailure), 0);
  EXPECT_EQ(armed_report.trace.Count(TraceEventType::kInstanceCrash), 0);
  EXPECT_EQ(armed_report.trace.Count(TraceEventType::kCheckpointRetry), 0);
}

TEST(ExecutorFaults, ReplanFiresWhenFaultDelayBurnsTheSlack) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions clean_options;
  clean_options.seed = 11;
  const ExecutionReport clean = ExecutePlan(spec, plan, workload, TestCloud(), clean_options);

  ProfilerOptions profiler_options;
  profiler_options.seed = 11;
  CloudProfile faulty = TestCloud();
  faulty.fault.provision_failure_rate = 0.5;
  faulty.fault.mtbf = 400.0;
  ExecutorOptions options = clean_options;
  options.replan.enabled = true;
  // A deadline with barely any slack over the fault-free JCT: the fault
  // delay exhausts it, so the remaining stages must be re-planned.
  options.replan.deadline = clean.jct * 1.02;
  options.replan.model = ProfileWorkload(workload, profiler_options).profile;

  const ExecutionReport report = ExecutePlan(spec, plan, workload, faulty, options);
  EXPECT_GT(report.trace.Count(TraceEventType::kReplan), 0);
  // Re-planning never breaks the schedule itself.
  ASSERT_EQ(report.stage_log.size(), 3u);
  EXPECT_EQ(report.stage_log[2].num_trials, 2);

  // Determinism holds with re-planning in the loop.
  const ExecutionReport replay = ExecutePlan(spec, plan, workload, faulty, options);
  EXPECT_EQ(report.jct, replay.jct);
  EXPECT_EQ(report.trace.ToCsv(), replay.trace.ToCsv());
}

TEST(ServiceFaults, AttributesFaultsPerJobAndCompletesTheTrace) {
  ServiceConfig config;
  config.cloud = TestCloud();
  config.cloud.fault.provision_failure_rate = 0.2;
  config.cloud.fault.mtbf = 1200.0;
  config.capacity_gpus = 8;
  config.seed = 3;
  config.replan_on_faults = true;

  TuningService service(config);
  for (int i = 0; i < 2; ++i) {
    JobRequest job;
    job.name = "job-" + std::to_string(i);
    job.spec = MakeSha(8, 2, 14, 2);
    job.workload = ResNet101Cifar10();
    job.submit_at = 60.0 * i;
    job.deadline = 7200.0;
    service.SubmitLive(job);
  }
  const ServiceReport report = service.Run();
  EXPECT_EQ(report.completed + report.rejected, 2);
  int attributed = 0;
  for (const JobOutcome& job : report.jobs) {
    attributed += job.crashes + job.provision_failures;
  }
  EXPECT_EQ(report.metrics.CounterOr0("executor.crashes") +
                report.metrics.CounterOr0("executor.provision_failures"),
            attributed);
}

TEST(ServiceFaults, MixedShapesSurviveCrashesDuringScaleUp) {
  // A crash replacement can arrive while a stage scale-up is pending: the
  // arrival fires the scale-up (which registers the new instance) before
  // the replacement's own callback runs, and registering it a second time
  // used to abort the run with "node already in cluster". Mixed shapes and
  // crashes make that overlap common; several of these seeds hit it.
  const char* const models[] = {"resnet101-cifar10", "resnet152-cifar100", "bert-rte"};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ServiceConfig config;
    config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
    config.cloud.fault.mtbf = 900.0;
    config.capacity_gpus = 32;
    config.seed = seed;
    config.replan_on_faults = true;
    config.warm_pool.max_parked = 8;
    config.warm_pool.max_idle_seconds = 300.0;
    TuningService service(config);
    for (int i = 0; i < 10; ++i) {
      ExperimentRequest request;
      const std::string index = std::to_string(i);
      request.name = "m" + index;
      request.workload = *FindWorkload(models[i % 3]);
      request.ir.scheduler = static_cast<SchedulerKind>(i % 5);
      request.ir.reduction_factor = 2 + i % 2;
      request.ir.max_iters = 6 + 3 * (i % 4);
      request.ir.num_trials = 6 * (1 + i % 4);
      if (request.ir.scheduler == SchedulerKind::kGrid) {
        request.ir.grid = GridShape{2, 2, 1};
      }
      request.submit_at = 30.0 * i;
      request.deadline = 4 * 3600.0;
      service.SubmitExperiment(request);
    }
    ServiceReport report;
    ASSERT_NO_THROW(report = service.Run()) << "seed " << seed;
    EXPECT_EQ(report.completed + report.rejected, static_cast<int>(report.jobs.size()))
        << "seed " << seed;
  }
}

TEST(ServiceFaults, AshaInstanceLossesAreTraceEvents) {
  // An ASHA job records each instance it loses in its trace, as a staged
  // job does: its outcome's crash and preemption counts are its trace's
  // INSTANCE_CRASH and PREEMPTION events, and the fleet metrics'
  // executor.crashes and executor.preemptions count them.
  ServiceConfig config;
  config.cloud.provisioning = ProvisioningModel::Fixed(30.0, 120.0);
  config.cloud.fault.mtbf = 900.0;
  config.capacity_gpus = 32;
  config.seed = 1;
  TuningService service(config);
  for (int i = 0; i < 3; ++i) {
    ExperimentRequest request;
    request.name = "asha" + std::to_string(i);
    request.workload = *FindWorkload("resnet101-cifar10");
    request.ir.scheduler = SchedulerKind::kAsha;
    request.ir.reduction_factor = 3;
    request.ir.max_iters = 27;
    request.ir.num_trials = 18;
    request.submit_at = 60.0 * i;
    request.deadline = 4 * 3600.0;
    service.SubmitExperiment(request);
  }
  const ServiceReport report = service.Run();
  ASSERT_EQ(report.completed, 3);
  int losses = 0;
  int64_t crash_events = 0;
  int64_t preemption_events = 0;
  for (const JobOutcome& job : report.jobs) {
    const size_t crashes = job.trace.OfType(TraceEventType::kInstanceCrash).size();
    const size_t preemptions = job.trace.OfType(TraceEventType::kPreemption).size();
    EXPECT_EQ(static_cast<size_t>(job.crashes), crashes) << job.name;
    EXPECT_EQ(static_cast<size_t>(job.preemptions), preemptions) << job.name;
    losses += job.crashes + job.preemptions;
    crash_events += static_cast<int64_t>(crashes);
    preemption_events += static_cast<int64_t>(preemptions);
  }
  EXPECT_GT(losses, 0);
  // Both counters are exported for ASHA jobs, not merely read as 0.
  ASSERT_TRUE(report.metrics.counters.contains("executor.crashes"));
  ASSERT_TRUE(report.metrics.counters.contains("executor.preemptions"));
  EXPECT_EQ(report.metrics.CounterOr0("executor.crashes"), crash_events);
  EXPECT_EQ(report.metrics.CounterOr0("executor.preemptions"), preemption_events);
}

}  // namespace
}  // namespace rubberband
