// Gray-failure robustness: persistent-straggler injection, the
// observation-only runtime detector, and checkpoint-based quarantine.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

// ---------------------------------------------------------------------------
// Injection: FaultInjector straggler class.
// ---------------------------------------------------------------------------

TEST(StragglerInjection, DisabledClassNeverStragglesAndNeverDraws) {
  FaultProfile profile;
  profile.checkpoint_failure_rate = 0.5;  // keep another class drawing
  EXPECT_TRUE(profile.Any());
  FaultInjector sampled(profile, Rng(9));
  FaultInjector control(profile, Rng(9));
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(sampled.SampleStragglerFactor(), 1.0);
  }
  EXPECT_FALSE(sampled.stragglers_enabled());
  EXPECT_EQ(sampled.num_stragglers(), 0);
  // The disabled class consumed nothing from the stream: both injectors
  // produce the same checkpoint-failure sequence from here on.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampled.CheckpointFetchFails(), control.CheckpointFetchFails());
  }
}

TEST(StragglerInjection, CertainRateAlwaysStragglesAtThePinnedFactor) {
  FaultProfile profile;
  profile.straggler_rate = 1.0;
  profile.straggler_factor_min = 3.5;
  profile.straggler_factor_max = 3.5;
  EXPECT_TRUE(profile.Any());
  FaultInjector faults(profile, Rng(1));
  EXPECT_TRUE(faults.stragglers_enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(faults.SampleStragglerFactor(), 3.5);
  }
  EXPECT_EQ(faults.num_stragglers(), 10);
}

TEST(StragglerInjection, SampledFactorsAreDeterministicPerSeedAndInBounds) {
  FaultProfile profile;
  profile.straggler_rate = 0.5;
  profile.straggler_factor_min = 2.0;
  profile.straggler_factor_max = 4.0;
  FaultInjector a(profile, Rng(9));
  FaultInjector b(profile, Rng(9));
  int healthy = 0;
  for (int i = 0; i < 200; ++i) {
    const double factor = a.SampleStragglerFactor();
    EXPECT_DOUBLE_EQ(factor, b.SampleStragglerFactor());
    if (factor == 1.0) {
      ++healthy;
    } else {
      EXPECT_GE(factor, 2.0);
      EXPECT_LE(factor, 4.0);
    }
  }
  EXPECT_GT(healthy, 0);
  EXPECT_LT(healthy, 200);
  EXPECT_EQ(a.num_stragglers(), 200 - healthy);
}

// ---------------------------------------------------------------------------
// Injection: SimulatedCloud tags stragglers at launch.
// ---------------------------------------------------------------------------

TEST(StragglerCloud, TagsEveryLaunchAtCertainRateAndClearsOnTerminate) {
  Simulation sim(3);
  CloudProfile profile = TestCloud();
  profile.fault.straggler_rate = 1.0;
  profile.fault.straggler_factor_min = 2.5;
  profile.fault.straggler_factor_max = 2.5;
  SimulatedCloud cloud(sim, profile);
  std::vector<InstanceId> ids;
  cloud.RequestInstances(4, 0.0, [&](InstanceId id) { ids.push_back(id); });
  sim.Run();
  ASSERT_EQ(ids.size(), 4u);
  for (InstanceId id : ids) {
    EXPECT_DOUBLE_EQ(cloud.StragglerFactor(id), 2.5);
  }
  EXPECT_EQ(cloud.num_straggler_instances(), 4);
  cloud.TerminateInstance(ids[0]);
  // The tag dies with the instance; the injection counter is cumulative.
  EXPECT_DOUBLE_EQ(cloud.StragglerFactor(ids[0]), 1.0);
  EXPECT_EQ(cloud.num_straggler_instances(), 4);
}

TEST(StragglerCloud, ZeroRateLeavesEveryInstanceClean) {
  Simulation sim(3);
  SimulatedCloud cloud(sim, TestCloud());
  std::vector<InstanceId> ids;
  cloud.RequestInstances(4, 0.0, [&](InstanceId id) { ids.push_back(id); });
  sim.Run();
  ASSERT_EQ(ids.size(), 4u);
  for (InstanceId id : ids) {
    EXPECT_DOUBLE_EQ(cloud.StragglerFactor(id), 1.0);
  }
  EXPECT_EQ(cloud.num_straggler_instances(), 0);
}

// ---------------------------------------------------------------------------
// Detection: the observation-only StragglerDetector.
// ---------------------------------------------------------------------------

TEST(StragglerDetector, FlagsAPersistentOutlierExactlyOnce) {
  StragglerDetector detector(StragglerDetectorConfig{});  // defaults: k=3, warmup=4
  int flagged_at = 0;
  for (int sync = 1; sync <= 8; ++sync) {
    for (InstanceId healthy = 1; healthy <= 3; ++healthy) {
      EXPECT_FALSE(detector.Observe(healthy, 1.0));
    }
    if (detector.Observe(/*id=*/42, /*normalized_latency=*/3.0)) {
      EXPECT_EQ(flagged_at, 0) << "Observe returned true twice";
      flagged_at = sync;
    }
  }
  // Consecutive-over reaches k=3 on sync 3 but warmup holds the flag until
  // min_observations=4.
  EXPECT_EQ(flagged_at, 4);
  EXPECT_TRUE(detector.IsFlagged(42));
  EXPECT_EQ(detector.ObservationsAtFlag(42), 4);
  EXPECT_EQ(detector.num_flagged(), 1);
  EXPECT_FALSE(detector.IsFlagged(1));
  EXPECT_DOUBLE_EQ(detector.Ewma(42), 3.0);  // EWMA of a constant signal
}

TEST(StragglerDetector, TransientSpikeRevertsWithoutFlagging) {
  StragglerDetector detector(StragglerDetectorConfig{});
  for (int sync = 0; sync < 30; ++sync) {
    for (InstanceId id = 1; id <= 3; ++id) {
      // Instance 3 spikes to 3x once at sync 10 and immediately recovers:
      // its EWMA pokes above threshold for one sync, then decays back under
      // before the k-consecutive hysteresis can condemn it.
      const double latency = (id == 3 && sync == 10) ? 3.0 : 1.0;
      EXPECT_FALSE(detector.Observe(id, latency)) << "flagged at sync " << sync;
    }
  }
  EXPECT_EQ(detector.num_flagged(), 0);
  EXPECT_FALSE(detector.IsFlagged(3));
}

TEST(StragglerDetector, NeedsABaselineOfAtLeastTwoInstances) {
  StragglerDetector detector(StragglerDetectorConfig{});
  for (int sync = 0; sync < 50; ++sync) {
    // However slow, a lone instance has no peers to be slower than.
    EXPECT_FALSE(detector.Observe(7, 10.0));
  }
  EXPECT_EQ(detector.num_flagged(), 0);
  EXPECT_EQ(detector.num_tracked(), 1);
}

TEST(StragglerDetector, BaselineIsTheLowerMedianOfTrackedEwmas) {
  StragglerDetector detector(StragglerDetectorConfig{});
  detector.Observe(1, 1.0);
  detector.Observe(2, 2.0);
  detector.Observe(3, 9.0);
  EXPECT_DOUBLE_EQ(detector.Baseline(), 2.0);
  // Even count: the lower median biases detection toward flagging.
  detector.Observe(4, 5.0);
  EXPECT_DOUBLE_EQ(detector.Baseline(), 2.0);
}

TEST(StragglerDetector, ForgetDropsTrackingState) {
  StragglerDetector detector(StragglerDetectorConfig{});
  for (int sync = 0; sync < 6; ++sync) {
    detector.Observe(1, 1.0);
    detector.Observe(2, 1.0);
    detector.Observe(42, 4.0);
  }
  ASSERT_TRUE(detector.IsFlagged(42));
  EXPECT_EQ(detector.num_tracked(), 3);
  detector.Forget(42);
  EXPECT_FALSE(detector.IsFlagged(42));
  EXPECT_EQ(detector.num_tracked(), 2);
  EXPECT_DOUBLE_EQ(detector.Ewma(42), 0.0);
  EXPECT_EQ(detector.ObservationsAtFlag(42), 0);
}

// ---------------------------------------------------------------------------
// Mitigation plumbing: ClusterManager quarantine and the warm-pool discard.
// ---------------------------------------------------------------------------

TEST(StragglerQuarantine, RemovesBlacklistsAndTerminatesTheInstance) {
  Simulation sim(1);
  SimulatedCloud cloud(sim, TestCloud());
  ClusterManager manager(sim, cloud, 0.0);
  bool scaled = false;
  manager.EnsureInstances(3, [&] { scaled = true; });
  sim.Run();
  ASSERT_TRUE(scaled);
  ASSERT_EQ(manager.num_ready(), 3);
  const InstanceId victim = manager.ready_instances().front();

  manager.Quarantine(victim);
  EXPECT_EQ(manager.num_ready(), 2);
  EXPECT_EQ(manager.num_quarantined(), 1);
  EXPECT_TRUE(manager.IsQuarantined(victim));
  EXPECT_FALSE(manager.IsQuarantined(manager.ready_instances().front()));
  EXPECT_EQ(cloud.num_ready(), 2);  // discarded = terminated for real

  // Quarantining hardware the manager does not hold is a logic error.
  EXPECT_THROW(manager.Quarantine(victim), std::logic_error);
}

// A source that hands out scripted instance ids synchronously — models a
// provider that recycles ids, which the manager's blacklist must defend
// against (the simulated cloud never reuses ids, so this needs a fake).
class ScriptedSource : public InstanceSource {
 public:
  explicit ScriptedSource(std::vector<InstanceId> script) : script_(std::move(script)) {}

  void RequestInstances(int count, double, std::function<void(InstanceId)> on_ready,
                        std::function<void()>) override {
    for (int i = 0; i < count; ++i) {
      ASSERT_LT(next_, script_.size()) << "scripted source ran out of instances";
      on_ready(script_[next_++]);
    }
  }
  void ReleaseInstance(InstanceId id) override { released_.push_back(id); }
  void DiscardInstance(InstanceId id) override { discarded_.push_back(id); }

  const std::vector<InstanceId>& released() const { return released_; }
  const std::vector<InstanceId>& discarded() const { return discarded_; }

 private:
  std::vector<InstanceId> script_;
  size_t next_ = 0;
  std::vector<InstanceId> released_;
  std::vector<InstanceId> discarded_;
};

TEST(StragglerQuarantine, BlacklistDefeatsASourceThatRecyclesIds) {
  Simulation sim(1);
  ScriptedSource source({7, 7, 8, 9});
  ClusterManager manager(sim, source, 0.0);
  manager.EnsureInstances(1, [] {});
  ASSERT_EQ(manager.num_ready(), 1);
  manager.Quarantine(7);
  EXPECT_EQ(source.discarded(), std::vector<InstanceId>({7}));

  // The source recycles id 7 on the next scale-up: the manager must throw
  // it away, keep the slot open, and still reach the waiter's target.
  bool scaled = false;
  manager.EnsureInstances(2, [&] { scaled = true; });
  EXPECT_TRUE(scaled);
  EXPECT_EQ(manager.num_ready(), 2);
  EXPECT_EQ(manager.ready_instances(), std::vector<InstanceId>({8, 9}));
  EXPECT_EQ(source.discarded(), std::vector<InstanceId>({7, 7}));
  EXPECT_TRUE(source.released().empty());
}

TEST(StragglerWarmPool, DiscardTerminatesInsteadOfParking) {
  Simulation sim(1);
  SimulatedCloud cloud(sim, TestCloud());
  WarmPool pool(sim, cloud, WarmPoolConfig{/*max_parked=*/4, /*max_idle_seconds=*/600.0});
  InstanceId id = -1;
  pool.RequestInstances(1, 0.0, [&](InstanceId ready) { id = ready; });
  sim.Run();
  ASSERT_GE(id, 0);

  // A plain release would park this instance for the next tenant; discard
  // must never hand known-slow hardware to anyone again.
  pool.DiscardInstance(id);
  EXPECT_EQ(pool.num_parked(), 0);
  EXPECT_EQ(cloud.num_ready(), 0);
  EXPECT_EQ(pool.stats().parked, 0);
  EXPECT_EQ(pool.stats().released_cold, 1);
}

// ---------------------------------------------------------------------------
// End-to-end: the executor's detect/quarantine/restore loop.
// ---------------------------------------------------------------------------

ExecutionReport RunExecutor(uint64_t seed, double rate, double factor, bool detect,
                            bool mitigate) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = TestCloud();
  cloud.fault.straggler_rate = rate;
  cloud.fault.straggler_factor_min = factor;
  cloud.fault.straggler_factor_max = factor;
  ExecutorOptions options;
  options.seed = seed;
  options.straggler.detect = detect;
  options.straggler.mitigate = mitigate;
  return ExecutePlan(spec, plan, workload, cloud, options);
}

TEST(StragglerExecutor, ZeroRateWithPolicyArmedIsBitIdenticalToBaseline) {
  // The whole gray-failure layer must be free when no stragglers exist:
  // arming detection AND mitigation at straggler_rate zero reproduces the
  // fault-free run exactly — no Rng draws, no behavioural change.
  const ExecutionReport baseline = RunExecutor(17, 0.0, 3.0, false, false);
  const ExecutionReport armed = RunExecutor(17, 0.0, 3.0, true, true);
  EXPECT_EQ(baseline.jct, armed.jct);
  EXPECT_EQ(baseline.cost.Total(), armed.cost.Total());
  EXPECT_EQ(baseline.best_accuracy, armed.best_accuracy);
  EXPECT_EQ(baseline.trace.events().size(), armed.trace.events().size());
  EXPECT_EQ(armed.stragglers_injected, 0);
  EXPECT_EQ(armed.trace.Count(TraceEventType::kStragglerDetected), 0);
  EXPECT_EQ(armed.trace.Count(TraceEventType::kStragglerQuarantined), 0);
  EXPECT_EQ(armed.trace.Count(TraceEventType::kStragglerFalsePositive), 0);
  EXPECT_EQ(armed.straggler_mitigation_seconds, 0.0);
}

TEST(StragglerExecutor, DetectionIsObservationOnly) {
  // The detector consumes iteration latencies and produces trace events —
  // nothing else. With mitigation off, a detect-armed run must match the
  // detector-free run on every execution outcome at any straggler rate,
  // while still finding the injected stragglers. (This is the no-oracle,
  // no-perturbation proof: if detection touched the Rng or the schedule,
  // these runs would diverge.)
  int total_injected = 0;
  int total_detected = 0;
  int total_false_positives = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ExecutionReport plain = RunExecutor(seed, 0.4, 3.0, false, false);
    const ExecutionReport watched = RunExecutor(seed, 0.4, 3.0, true, false);
    EXPECT_EQ(plain.jct, watched.jct) << "seed " << seed;
    EXPECT_EQ(plain.cost.Total(), watched.cost.Total()) << "seed " << seed;
    EXPECT_EQ(plain.best_accuracy, watched.best_accuracy) << "seed " << seed;
    EXPECT_EQ(plain.stragglers_injected, watched.stragglers_injected) << "seed " << seed;
    EXPECT_EQ(watched.trace.Count(TraceEventType::kStragglerQuarantined), 0);
    total_injected += watched.stragglers_injected;
    total_detected += watched.trace.Count(TraceEventType::kStragglerDetected);
    total_false_positives += watched.trace.Count(TraceEventType::kStragglerFalsePositive);
  }
  EXPECT_GT(total_injected, 0);
  EXPECT_GT(total_detected, 0);
  EXPECT_EQ(total_false_positives, 0);
}

TEST(StragglerExecutor, MitigationBeatsNoMitigationUnderSevereStragglers) {
  Seconds unmitigated_jct = 0.0;
  Seconds mitigated_jct = 0.0;
  int total_quarantined = 0;
  int total_false_positives = 0;
  Seconds total_mitigation_cost = 0.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ExecutionReport off = RunExecutor(seed, 0.4, 3.0, false, false);
    const ExecutionReport on = RunExecutor(seed, 0.4, 3.0, true, true);
    unmitigated_jct += off.jct;
    mitigated_jct += on.jct;
    total_quarantined += on.trace.Count(TraceEventType::kStragglerQuarantined);
    total_false_positives += on.trace.Count(TraceEventType::kStragglerFalsePositive);
    total_mitigation_cost += on.straggler_mitigation_seconds;
    const std::vector<TraceEvent> detected = on.trace.OfType(TraceEventType::kStragglerDetected);
    EXPECT_LE(static_cast<int>(detected.size()), on.stragglers_injected);
    // Every quarantine follows a detection of the same instance.
    for (const TraceEvent& quarantine : on.trace.OfType(TraceEventType::kStragglerQuarantined)) {
      EXPECT_TRUE(std::any_of(detected.begin(), detected.end(), [&](const TraceEvent& flag) {
        return flag.instance == quarantine.instance && flag.time <= quarantine.time;
      })) << "seed " << seed << " instance " << quarantine.instance;
    }
  }
  EXPECT_GT(total_quarantined, 0);
  EXPECT_EQ(total_false_positives, 0);
  // Cutting 3x-slow instances out must win on aggregate completion time,
  // and the checkpoint/restore tax must be small against the gain.
  EXPECT_LT(mitigated_jct, unmitigated_jct);
  EXPECT_LT(total_mitigation_cost, unmitigated_jct - mitigated_jct);
}

TEST(StragglerExecutor, MildSlowdownBelowThresholdIsNeverFlagged) {
  // Everybody straggles equally at 1.2x — well under the 1.5x relative
  // threshold. An oracle reading the injector's tags would flag them all;
  // the observation-only detector correctly sees a uniformly slow (i.e.
  // relatively healthy) fleet and flags nothing. Proves detection runs on
  // observations, not ground truth.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const ExecutionReport report = RunExecutor(seed, 1.0, 1.2, true, true);
    EXPECT_GT(report.stragglers_injected, 0) << "seed " << seed;
    EXPECT_EQ(report.trace.Count(TraceEventType::kStragglerDetected), 0) << "seed " << seed;
    EXPECT_EQ(report.trace.Count(TraceEventType::kStragglerQuarantined), 0) << "seed " << seed;
  }
}

TEST(StragglerExecutor, QuarantineBudgetBoundsMitigation) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = TestCloud();
  cloud.fault.straggler_rate = 0.6;
  cloud.fault.straggler_factor_min = 3.0;
  cloud.fault.straggler_factor_max = 3.0;
  ExecutorOptions options;
  options.seed = 2;
  options.straggler.detect = true;
  options.straggler.mitigate = true;
  options.straggler.max_quarantines = 1;
  const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
  EXPECT_LE(report.trace.Count(TraceEventType::kStragglerQuarantined), 1);
}

// ---------------------------------------------------------------------------
// Service plumbing: straggler policy and stats flow through the service.
// ---------------------------------------------------------------------------

ServiceReport RunService(double rate, bool mitigate) {
  ServiceConfig config;
  config.cloud = TestCloud();
  config.cloud.fault.straggler_rate = rate;
  config.cloud.fault.straggler_factor_min = 3.0;
  config.cloud.fault.straggler_factor_max = 3.0;
  config.capacity_gpus = 16;
  config.seed = 5;
  config.straggler.detect = mitigate;
  config.straggler.mitigate = mitigate;
  TuningService service(config);
  for (int j = 0; j < 3; ++j) {
    JobRequest request;
    request.name = "job-" + std::to_string(j);
    // Large enough (and deadline tight enough) that the planner picks
    // multi-instance plans — a one-instance job has no peer baseline for
    // the detector to compare against.
    request.spec = MakeSha(16, 4, 28, 2);
    request.workload = ResNet101Cifar10();
    request.submit_at = 200.0 * j;
    request.deadline = 2500.0;
    service.Submit(std::move(request));
  }
  return service.Run();
}

TEST(StragglerService, PolicyAndStatsFlowThroughTheService) {
  const ServiceReport report = RunService(/*rate=*/0.4, /*mitigate=*/true);
  EXPECT_EQ(report.completed + report.rejected, 3);
  EXPECT_GT(report.stragglers_injected, 0);
  EXPECT_GT(report.total_stragglers_detected, 0);
  EXPECT_GT(report.total_stragglers_quarantined, 0);
  int per_job_detected = 0;
  for (const JobOutcome& job : report.jobs) {
    per_job_detected += job.stragglers_detected;
  }
  EXPECT_EQ(per_job_detected, report.total_stragglers_detected);
}

TEST(StragglerService, ZeroRateWithPolicyArmedIsBitIdentical) {
  const ServiceReport baseline = RunService(/*rate=*/0.0, /*mitigate=*/false);
  const ServiceReport armed = RunService(/*rate=*/0.0, /*mitigate=*/true);
  EXPECT_EQ(baseline.makespan, armed.makespan);
  EXPECT_EQ(baseline.total_cost.Total(), armed.total_cost.Total());
  EXPECT_EQ(baseline.completed, armed.completed);
  EXPECT_EQ(armed.stragglers_injected, 0);
  EXPECT_EQ(armed.total_stragglers_detected, 0);
  EXPECT_EQ(armed.total_stragglers_quarantined, 0);
}

}  // namespace
}  // namespace rubberband
