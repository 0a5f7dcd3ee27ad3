// Spot-market extension: discounted pricing, provider-initiated
// preemptions, and checkpoint-based trial recovery in the executor — plus
// the market layer (price traces, storms, capacity limits, reclamation
// warnings) and the risk-aware planning / billing / warm-pool plumbing
// around it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/cloud/spot_price.h"
#include "src/cloud/warm_pool.h"
#include "src/planner/evaluator.h"
#include "src/rubberband.h"

namespace rubberband {
namespace {

CloudProfile SpotCloud(double mean_time_to_preemption) {
  CloudProfile cloud;
  cloud.instance = P3_8xlarge();
  cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  cloud.spot.enabled = true;
  cloud.spot.discount = 0.3;
  cloud.spot.mean_time_to_preemption = mean_time_to_preemption;
  return cloud;
}

TEST(Spot, BilledInstanceAppliesDiscount) {
  const CloudProfile cloud = SpotCloud(3600.0);
  EXPECT_EQ(cloud.BilledInstance().price_per_hour, Money::FromCents(1224) * 0.3);
  CloudProfile on_demand = cloud;
  on_demand.spot.enabled = false;
  EXPECT_EQ(on_demand.BilledInstance().price_per_hour, Money::FromCents(1224));
}

TEST(Spot, ProviderReclaimsInstancesOverTime) {
  Simulation sim(7);
  SimulatedCloud cloud(sim, SpotCloud(/*mean_time_to_preemption=*/100.0));
  int preempted = 0;
  cloud.SetPreemptionHandler([&](InstanceId) { ++preempted; });
  cloud.RequestInstances(10, 0.0, [](InstanceId) {});
  sim.RunUntil(10'000.0);  // 100 mean lifetimes: everything reclaimed
  EXPECT_EQ(preempted, 10);
  EXPECT_EQ(cloud.num_ready(), 0);
  EXPECT_EQ(cloud.num_preemptions(), 10);
  // Reclaimed lifetimes are still billed.
  EXPECT_GT(cloud.meter().TotalInstanceSeconds(), 0.0);
}

TEST(Spot, TerminatedInstancesAreNotPreempted) {
  Simulation sim(7);
  SimulatedCloud cloud(sim, SpotCloud(100.0));
  std::vector<InstanceId> ids;
  cloud.SetPreemptionHandler([&](InstanceId) { FAIL() << "preempted a terminated instance"; });
  cloud.RequestInstances(5, 0.0, [&](InstanceId id) { ids.push_back(id); });
  sim.RunUntil(16.0);  // all ready at t=15
  for (InstanceId id : ids) {
    cloud.TerminateInstance(id);
  }
  sim.Run();  // drain the now-stale preemption events
  EXPECT_EQ(cloud.num_preemptions(), 0);
}

TEST(Spot, ExecutorSurvivesPreemptionsAndCompletes) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});
  // Aggressive reclamation: mean lifetime ~4 minutes against a ~15-minute
  // job guarantees several preemptions.
  const CloudProfile cloud = SpotCloud(240.0);

  ExecutorOptions options;
  options.seed = 5;
  const ExecutionReport report = ExecutePlan(spec, plan, workload, cloud, options);
  EXPECT_GT(report.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_GT(report.trace.Count(TraceEventType::kTrialRestart), 0);
  EXPECT_GT(report.best_accuracy, 0.5);
  EXPECT_EQ(report.stage_log.size(), 3u);
}

TEST(Spot, PreemptionsExtendJctButDiscountCanStillWin) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const WorkloadSpec workload = ResNet101Cifar10();
  const AllocationPlan plan({8, 8, 8});

  CloudProfile on_demand = SpotCloud(600.0);
  on_demand.spot.enabled = false;

  ExecutorOptions options;
  options.seed = 2;
  const ExecutionReport spot = ExecutePlan(spec, plan, workload, SpotCloud(600.0), options);
  const ExecutionReport fixed = ExecutePlan(spec, plan, workload, on_demand, options);

  EXPECT_GE(spot.jct, fixed.jct);  // restarts cost wall-clock time
  // At a 70% discount, the rework would need to more than triple instance
  // time to lose; with ~10-minute mean lifetimes it does not.
  EXPECT_LT(spot.cost.Total().dollars(), fixed.cost.Total().dollars());
}

TEST(Spot, RareReclamationMatchesOnDemandBehaviour) {
  const ExperimentSpec spec = MakeSha(4, 2, 6, 2);
  const AllocationPlan plan({4, 4});
  const CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/1e9);
  const ExecutionReport report = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud);
  EXPECT_EQ(report.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_EQ(report.trace.Count(TraceEventType::kTrialRestart), 0);
}

TEST(Spot, DeterministicForFixedSeed) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions options;
  options.seed = 9;
  const ExecutionReport a =
      ExecutePlan(spec, plan, ResNet101Cifar10(), SpotCloud(240.0), options);
  const ExecutionReport b =
      ExecutePlan(spec, plan, ResNet101Cifar10(), SpotCloud(240.0), options);
  EXPECT_DOUBLE_EQ(a.jct, b.jct);
  EXPECT_EQ(a.trace.ToCsv(), b.trace.ToCsv());
  EXPECT_EQ(a.cost.Total(), b.cost.Total());
}

// ---------------------------------------------------------------------------
// SpotPriceTrace: the deterministic piecewise-constant price multiplier.

SpotMarket VolatileMarket() {
  SpotMarket market;
  market.enabled = true;
  market.volatility = 0.4;
  market.price_interval_s = 100.0;
  return market;
}

TEST(SpotPrice, DeterministicForFixedSeed) {
  SpotPriceTrace a(VolatileMarket(), Rng(42));
  SpotPriceTrace b(VolatileMarket(), Rng(42));
  for (int i = 1; i <= 50; ++i) {
    EXPECT_EQ(a.Step(100.0 * i), b.Step(100.0 * i));
  }
  EXPECT_EQ(a.num_steps(), 50);
  EXPECT_EQ(a.current(), b.current());
}

TEST(SpotPrice, ClampsToFloorAndCap) {
  SpotMarket market = VolatileMarket();
  market.volatility = 2.0;  // wild steps guarantee both clamps are hit
  SpotPriceTrace trace(market, Rng(7));
  double lo = 10.0, hi = 0.0;
  for (int i = 1; i <= 200; ++i) {
    const double multiplier = trace.Step(100.0 * i);
    EXPECT_GE(multiplier, SpotPriceTrace::kPriceFloor);
    EXPECT_LE(multiplier, SpotPriceTrace::kPriceCap);
    lo = std::min(lo, multiplier);
    hi = std::max(hi, multiplier);
  }
  EXPECT_EQ(lo, SpotPriceTrace::kPriceFloor);
  EXPECT_EQ(hi, SpotPriceTrace::kPriceCap);
}

TEST(SpotPrice, AverageOverIntegratesTheBreakpoints) {
  SpotPriceTrace trace(VolatileMarket(), Rng(3));
  trace.Step(100.0);
  trace.Step(200.0);
  // Before the first step the multiplier is 1.0 by construction.
  EXPECT_EQ(trace.MultiplierAt(50.0), 1.0);
  // [50, 150] straddles the first breakpoint: half at 1.0, half at m1.
  const double m1 = trace.MultiplierAt(150.0);
  EXPECT_DOUBLE_EQ(trace.AverageOver(50.0, 150.0), 0.5 * (1.0 + m1));
  // A window inside one segment is flat.
  EXPECT_DOUBLE_EQ(trace.AverageOver(110.0, 190.0), m1);
  // A zero-width window samples the point value.
  EXPECT_DOUBLE_EQ(trace.AverageOver(150.0, 150.0), m1);
}

// ---------------------------------------------------------------------------
// Billing: provider-reclaimed intervals never owe the per-acquisition
// minimum charge (the customer did not choose to stop early).

TEST(SpotBilling, ReclaimedIntervalSkipsMinimumCharge) {
  const PricingPolicy policy;  // 60s minimum
  BillingMeter reclaimed;
  reclaimed.RecordInstanceUsage(0.0, 10.0, 1.0, /*provider_reclaimed=*/true);
  BillingMeter terminated;
  terminated.RecordInstanceUsage(0.0, 10.0, 1.0, /*provider_reclaimed=*/false);
  // 10 reclaimed seconds bill exactly 10 seconds; the same lifetime ended
  // by the customer rounds up to the minimum.
  EXPECT_NEAR(terminated.Price(P3_8xlarge(), policy).compute.dollars(),
              6.0 * reclaimed.Price(P3_8xlarge(), policy).compute.dollars(), 1e-9);
}

TEST(SpotBilling, PriceAtFullRateUndoesTheMultiplier) {
  const PricingPolicy policy;
  BillingMeter meter;
  meter.RecordInstanceUsage(0.0, 3600.0, 0.3, false);
  const double discounted = meter.Price(P3_8xlarge(), policy).compute.dollars();
  const double full = meter.PriceAtFullRate(P3_8xlarge(), policy).compute.dollars();
  EXPECT_NEAR(discounted, 0.3 * full, 1e-6);
  EXPECT_GT(full, discounted);
}

// ---------------------------------------------------------------------------
// SimulatedCloud market mechanics.

TEST(Spot, WarningPrecedesReclamationByTheConfiguredWindow) {
  Simulation sim(11);
  CloudProfile profile = SpotCloud(/*mean_time_to_preemption=*/600.0);
  profile.spot.reclamation_warning_s = 120.0;
  SimulatedCloud cloud(sim, profile);
  std::map<InstanceId, Seconds> warned, reclaimed;
  cloud.SetPreemptionWarningHandler([&](InstanceId id) {
    warned[id] = sim.now();
    EXPECT_TRUE(cloud.IsReady(id));  // still running (and billing)
  });
  cloud.SetPreemptionHandler([&](InstanceId id) { reclaimed[id] = sim.now(); });
  cloud.RequestInstances(8, 0.0, [](InstanceId) {});
  sim.RunUntil(50'000.0);
  EXPECT_EQ(static_cast<int>(reclaimed.size()), 8);
  EXPECT_EQ(cloud.num_preemption_warnings(), static_cast<int>(warned.size()));
  EXPECT_EQ(warned.size(), 8u);
  int full_windows = 0;
  for (const auto& [id, warn_time] : warned) {
    ASSERT_TRUE(reclaimed.count(id));
    // The provider gives min(warning, lifetime) of notice: a full window
    // normally, less only when the drawn lifetime is shorter than it.
    const Seconds notice = reclaimed[id] - warn_time;
    EXPECT_GE(notice, 0.0);
    EXPECT_LE(notice, 120.0 + 1e-9);
    full_windows += std::abs(notice - 120.0) < 1e-9 ? 1 : 0;
  }
  EXPECT_GT(full_windows, 0);
}

TEST(Spot, CapacityLimitRejectsOverLimitSpotRequests) {
  Simulation sim(11);
  CloudProfile profile = SpotCloud(/*mean_time_to_preemption=*/0.0);
  profile.spot.capacity_limit = 4;
  SimulatedCloud cloud(sim, profile);
  int ready = 0, failed = 0;
  cloud.RequestInstances(8, 0.0, Market::kSpot, [&](InstanceId) { ++ready; },
                         [&] { ++failed; });
  sim.Run();
  EXPECT_EQ(ready, 4);
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(cloud.num_capacity_rejections(), 4);
  EXPECT_TRUE(cloud.SpotCapacityExhausted());
  // On-demand capacity is not subject to the spot family's limit.
  cloud.RequestInstances(4, 0.0, Market::kOnDemand, [&](InstanceId) { ++ready; },
                         [&] { ++failed; });
  sim.Run();
  EXPECT_EQ(ready, 8);
  EXPECT_EQ(failed, 4);
}

TEST(Spot, StormSweepsAFractionOfTheFleetAtOnce) {
  Simulation sim(11);
  CloudProfile profile = SpotCloud(/*mean_time_to_preemption=*/0.0);  // no solo hazard
  profile.spot.storm_mean_interval_s = 500.0;
  profile.spot.storm_fraction = 0.5;
  profile.spot.reclamation_warning_s = 0.0;
  SimulatedCloud cloud(sim, profile);
  std::map<double, int> reclaim_times;  // time -> instances taken then
  cloud.SetPreemptionHandler([&](InstanceId) { ++reclaim_times[sim.now()]; });
  cloud.RequestInstances(8, 0.0, [](InstanceId) {});
  sim.RunUntil(2'000.0);
  ASSERT_GE(cloud.num_storms(), 1);
  // The first storm takes ceil(0.5 * 8) = 4 instances in one event.
  EXPECT_EQ(reclaim_times.begin()->second, 4);
}

TEST(Spot, ZeroHazardNeverReclaimsButStillDiscounts) {
  const ExperimentSpec spec = MakeSha(4, 2, 6, 2);
  const AllocationPlan plan({4, 4});
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/0.0);
  const ExecutionReport report = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud);
  EXPECT_EQ(report.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_GT(report.spot_savings.dollars(), 0.0);
}

// ---------------------------------------------------------------------------
// The zero-volatility self-check (satellite): a spot market with no price
// movement, no hazard, no storms, no caps, and no discount replays the
// on-demand baseline bit-identically. This is the regression anchor that
// proves the market plumbing costs nothing when it is inert.

TEST(Spot, ZeroVolatilityMarketIsBitIdenticalToOnDemand) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  ExecutorOptions options;
  options.seed = 4;

  CloudProfile inert = SpotCloud(/*mean_time_to_preemption=*/0.0);
  inert.spot.discount = 1.0;
  inert.spot.volatility = 0.0;
  inert.spot.storm_mean_interval_s = 0.0;
  inert.spot.capacity_limit = 0;
  CloudProfile on_demand = inert;
  on_demand.spot.enabled = false;

  const ExecutionReport spot =
      ExecutePlan(spec, plan, ResNet101Cifar10(), inert, options);
  const ExecutionReport baseline =
      ExecutePlan(spec, plan, ResNet101Cifar10(), on_demand, options);

  EXPECT_EQ(spot.jct, baseline.jct);
  EXPECT_EQ(spot.cost.Total(), baseline.cost.Total());
  EXPECT_EQ(spot.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_EQ(spot.trace.Count(TraceEventType::kPreemptionWarning), 0);
  EXPECT_EQ(spot.trace.Count(TraceEventType::kMarketFallback), 0);
  EXPECT_EQ(spot.spot_savings, Money());
  EXPECT_EQ(spot.best_accuracy, baseline.best_accuracy);
}

// ---------------------------------------------------------------------------
// Executor survival: warning -> eager checkpoint -> reclaim -> restore.

TEST(Spot, WarningWindowCutsReworkVersusUnannouncedReclaims) {
  // One long stage: without a warning a mid-stage reclaim rolls the trial
  // all the way back to the stage-start checkpoint, so the eager-checkpoint
  // path's saving is large and robust across seeds.
  ExperimentSpec spec;
  spec.AddStage(4, 40);
  const AllocationPlan plan({8});
  ExecutorOptions options;
  options.seed = 5;

  CloudProfile warned_cloud = SpotCloud(/*mean_time_to_preemption=*/1200.0);
  warned_cloud.spot.reclamation_warning_s = 120.0;
  CloudProfile silent_cloud = warned_cloud;
  silent_cloud.spot.reclamation_warning_s = 0.0;

  const ExecutionReport warned =
      ExecutePlan(spec, plan, ResNet101Cifar10(), warned_cloud, options);
  const ExecutionReport silent =
      ExecutePlan(spec, plan, ResNet101Cifar10(), silent_cloud, options);

  EXPECT_GT(warned.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_GT(warned.trace.Count(TraceEventType::kPreemptionWarning), 0);
  EXPECT_GT(warned.eager_checkpoints, 0);
  EXPECT_EQ(silent.trace.Count(TraceEventType::kPreemptionWarning), 0);
  EXPECT_EQ(silent.eager_checkpoints, 0);
  // Eager checkpoints bound each loss to at most the warning window, so the
  // warned run re-does strictly less work and finishes sooner.
  EXPECT_LT(warned.spot_rework_seconds, silent.spot_rework_seconds);
  EXPECT_LT(warned.jct, silent.jct);
  // Both survive to a finished experiment.
  EXPECT_GT(warned.best_accuracy, 0.0);
  EXPECT_GT(silent.best_accuracy, 0.0);
}

TEST(Spot, WarningRacingStageCompletionStaysDeterministic) {
  // A warning window longer than the mean reclamation spacing guarantees
  // warnings land across stage boundaries and trial completions; the run
  // must neither crash nor diverge between replays.
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/300.0);
  cloud.spot.reclamation_warning_s = 240.0;
  ExecutorOptions options;
  options.seed = 13;
  const ExecutionReport a = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  const ExecutionReport b = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  EXPECT_DOUBLE_EQ(a.jct, b.jct);
  EXPECT_EQ(a.cost.Total(), b.cost.Total());
  EXPECT_EQ(a.trace.ToCsv(), b.trace.ToCsv());
  EXPECT_EQ(a.eager_checkpoints, b.eager_checkpoints);
  EXPECT_DOUBLE_EQ(a.spot_rework_seconds, b.spot_rework_seconds);
  EXPECT_GT(a.best_accuracy, 0.5);
}

TEST(Spot, CapacityCrunchFallsBackToOnDemandAndCompletes) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/0.0);
  cloud.spot.capacity_limit = 1;  // the planned cluster cannot fit on spot
  ExecutorOptions options;
  options.seed = 6;
  const ExecutionReport report = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  EXPECT_GE(report.trace.Count(TraceEventType::kMarketFallback), 1);
  EXPECT_GT(report.best_accuracy, 0.5);
  bool traced_fallback = false;
  for (const TraceEvent& event : report.trace.events()) {
    traced_fallback |= event.type == TraceEventType::kMarketFallback;
  }
  EXPECT_TRUE(traced_fallback);
}

TEST(Spot, StormMidStageTriggersFallbackAndTheGangRecovers) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/0.0);  // storms only
  cloud.spot.storm_mean_interval_s = 400.0;
  cloud.spot.storm_fraction = 1.0;  // each storm drains the whole family
  ExecutorOptions options;
  options.seed = 8;
  const ExecutionReport report = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  EXPECT_GT(report.trace.Count(TraceEventType::kPreemption), 0);
  EXPECT_GT(report.trace.Count(TraceEventType::kTrialRestart), 0);
  EXPECT_GE(report.trace.Count(TraceEventType::kMarketFallback), 1);
  EXPECT_GT(report.best_accuracy, 0.5);
  EXPECT_EQ(report.stage_log.size(), 3u);
}

// The stage-boundary market choice, replayed from the trace of a run whose
// only fallback trigger is the price (no hazard, storms or capacity limit).
// At each boundary that starts another stage, a job on spot falls back to
// on-demand when the multiplier is at or above 1.6 and its budget of
// `budget` switches is not spent; a job on on-demand returns to spot when
// the multiplier is at or below 1.2.
struct PriceReplay {
  std::vector<Seconds> fallbacks;
  int give_backs = 0;
  // Boundaries on spot at or above 1.6 that the budget turned away.
  int refused = 0;
  // Boundaries that kept the market within 0.1 of a threshold: on spot at
  // [1.5, 1.6), on on-demand at (1.2, 1.3].
  int near_fallback = 0;
  int near_give_back = 0;
};

PriceReplay ReplayPriceHysteresis(const ExecutionTrace& trace, int num_stages, int budget) {
  PriceReplay replay;
  bool on_spot = true;
  double price = 1.0;
  for (const TraceEvent& event : trace.events()) {
    if (event.type == TraceEventType::kSpotPriceChange) {
      price = static_cast<double>(event.instance) / 10'000.0;  // basis points
    } else if (event.type == TraceEventType::kSync && event.stage + 1 < num_stages) {
      if (on_spot && price >= 1.6) {
        if (static_cast<int>(replay.fallbacks.size()) < budget) {
          replay.fallbacks.push_back(event.time);
          on_spot = false;
        } else {
          ++replay.refused;
        }
      } else if (!on_spot && price <= 1.2) {
        on_spot = true;
        ++replay.give_backs;
      } else {
        replay.near_fallback += on_spot && price >= 1.5 ? 1 : 0;
        replay.near_give_back += !on_spot && price <= 1.3 ? 1 : 0;
      }
    }
  }
  return replay;
}

std::vector<Seconds> FallbackTimes(const ExecutionTrace& trace) {
  std::vector<Seconds> times;
  for (const TraceEvent& event : trace.OfType(TraceEventType::kMarketFallback)) {
    times.push_back(event.time);
  }
  return times;
}

// `stages` stages of one trial each on one 4-GPU instance, so every stage
// boundary is a market decision.
ExperimentSpec OneTrialStages(int stages) {
  ExperimentSpec spec;
  for (int s = 0; s < stages; ++s) {
    spec.AddStage(1, 4);
  }
  return spec;
}

CloudProfile VolatilePriceCloud(double volatility) {
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/0.0);  // no hazard
  cloud.spot.volatility = volatility;
  cloud.spot.price_interval_s = 30.0;
  return cloud;
}

TEST(Spot, PriceSpikeFallsBackAndACalmPriceGivesTheJobBackToSpot) {
  // A slow walk over 12 seeds: each run's fallbacks are exactly the
  // replayed ones, and together the runs cross both thresholds and also
  // hold the market at boundaries just short of each.
  const ExperimentSpec spec = OneTrialStages(16);
  const AllocationPlan plan = AllocationPlan::Uniform(16, 4);
  PriceReplay total;
  size_t fallbacks = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ExecutorOptions options;
    options.seed = seed;
    const ExecutionReport report =
        ExecutePlan(spec, plan, ResNet101Cifar10(), VolatilePriceCloud(0.1), options);
    const PriceReplay replay = ReplayPriceHysteresis(report.trace, spec.num_stages(), 8);
    EXPECT_EQ(FallbackTimes(report.trace), replay.fallbacks) << "seed " << seed;
    EXPECT_EQ(report.stage_log.size(), 16u);
    fallbacks += replay.fallbacks.size();
    total.give_backs += replay.give_backs;
    total.refused += replay.refused;
    total.near_fallback += replay.near_fallback;
    total.near_give_back += replay.near_give_back;
  }
  EXPECT_GE(fallbacks, 2u);
  EXPECT_GE(total.give_backs, 1);
  EXPECT_GE(total.near_fallback, 1);
  EXPECT_GE(total.near_give_back, 1);
  EXPECT_EQ(total.refused, 0);
}

TEST(Spot, MarketFallbacksStopAtTheBudgetOfEight) {
  const ExperimentSpec spec = OneTrialStages(60);
  const AllocationPlan plan = AllocationPlan::Uniform(60, 4);
  ExecutorOptions options;
  options.seed = 3;
  const ExecutionReport report =
      ExecutePlan(spec, plan, ResNet101Cifar10(), VolatilePriceCloud(0.5), options);
  const PriceReplay replay = ReplayPriceHysteresis(report.trace, spec.num_stages(), 8);
  // The price spiked at a boundary on spot after the eighth switch, and the
  // job stayed on spot.
  EXPECT_GT(replay.refused, 0);
  EXPECT_EQ(report.trace.Count(TraceEventType::kMarketFallback), 8);
  EXPECT_EQ(FallbackTimes(report.trace), replay.fallbacks);
  EXPECT_EQ(report.stage_log.size(), 60u);
}

TEST(Spot, PreemptionsFarAboveTheHazardFallBackAtAStageBoundary) {
  // A storm sweeps the job's four spot instances at once and moves it to
  // on-demand; the flat price (1.0) gives it back to spot at the next
  // boundary. The profile's own hazard is negligible (one reclaim per ~30
  // years per instance), so four preemptions are more than 3x what it
  // predicts, and a later boundary on spot falls back for that reason
  // alone: the price never reaches 1.6 and capacity is unlimited.
  const ExperimentSpec spec = OneTrialStages(12);
  const AllocationPlan plan = AllocationPlan::Uniform(12, 16);
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/1e9);
  cloud.spot.storm_mean_interval_s = 300.0;
  cloud.spot.storm_fraction = 1.0;
  ExecutorOptions options;
  options.seed = 8;

  // Fallbacks at a boundary that starts another stage with no preemption
  // at that instant: neither a storm nor a capacity rejection made them.
  const auto boundary_fallbacks = [&](const ExecutionReport& report) {
    std::vector<Seconds> boundaries;
    std::vector<Seconds> preemptions;
    for (const TraceEvent& event : report.trace.events()) {
      if (event.type == TraceEventType::kSync && event.stage + 1 < spec.num_stages()) {
        boundaries.push_back(event.time);
      } else if (event.type == TraceEventType::kPreemption) {
        preemptions.push_back(event.time);
      }
    }
    std::vector<std::pair<Seconds, int>> found;  // (time, preemptions so far)
    for (Seconds time : FallbackTimes(report.trace)) {
      const auto at = [time](Seconds t) { return t == time; };
      if (std::ranges::any_of(boundaries, at) && std::ranges::none_of(preemptions, at)) {
        found.emplace_back(time, static_cast<int>(std::ranges::count_if(
                                     preemptions, [time](Seconds t) { return t < time; })));
      }
    }
    return found;
  };

  const ExecutionReport hazard = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  const auto found = boundary_fallbacks(hazard);
  ASSERT_FALSE(found.empty()) << "no hazard fallback at a stage boundary";
  for (const auto& [time, preempted] : found) {
    EXPECT_GT(preempted, 3) << "fallback at " << time << " s";
  }
  EXPECT_EQ(hazard.stage_log.size(), 12u);

  // The same storms with the hazard off never fall back at a boundary.
  cloud.spot.mean_time_to_preemption = 0.0;
  const ExecutionReport storms_only = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  EXPECT_GT(storms_only.trace.Count(TraceEventType::kMarketFallback), 0);
  EXPECT_TRUE(boundary_fallbacks(storms_only).empty());
}

TEST(Spot, PriceChangesAndWarningsAppearInTheTrace) {
  const ExperimentSpec spec = MakeSha(8, 2, 14, 2);
  const AllocationPlan plan({8, 8, 8});
  CloudProfile cloud = SpotCloud(/*mean_time_to_preemption=*/600.0);
  cloud.spot.volatility = 0.5;
  cloud.spot.price_interval_s = 60.0;
  ExecutorOptions options;
  options.seed = 3;
  const ExecutionReport report = ExecutePlan(spec, plan, ResNet101Cifar10(), cloud, options);
  int price_changes = 0, warnings = 0;
  for (const TraceEvent& event : report.trace.events()) {
    if (event.type == TraceEventType::kSpotPriceChange) {
      ++price_changes;
      // The instance column carries the multiplier in basis points.
      EXPECT_GE(event.instance, 5'000);   // >= price floor 0.5
      EXPECT_LE(event.instance, 25'000);  // <= price cap 2.5
      EXPECT_EQ(event.trial, -1);
    }
    if (event.type == TraceEventType::kPreemptionWarning) {
      ++warnings;
      EXPECT_EQ(event.trial, -1);  // instance-scoped, like preemptions
      EXPECT_GE(event.instance, 0);
    }
  }
  EXPECT_GT(price_changes, 0);
  EXPECT_EQ(warnings, report.trace.Count(TraceEventType::kPreemptionWarning));
}

// ---------------------------------------------------------------------------
// Warm pool: a parked instance under a reclamation warning is evicted and
// terminated, never handed to the next tenant as a doomed "warm hit".

TEST(SpotWarmPool, WarnedParkedInstanceIsEvictedWithoutAWarmHit) {
  Simulation sim(11);
  CloudProfile profile = SpotCloud(/*mean_time_to_preemption=*/0.0);
  SimulatedCloud cloud(sim, profile);
  WarmPoolConfig config;
  config.max_parked = 4;
  config.max_idle_seconds = 10'000.0;
  WarmPool pool(sim, cloud, config);

  InstanceId parked_id = -1;
  pool.RequestInstances(1, 0.0, [&](InstanceId id) { parked_id = id; }, [] {});
  sim.Run();
  ASSERT_GE(parked_id, 0);
  pool.ReleaseInstance(parked_id);
  EXPECT_EQ(pool.num_parked(), 1);

  // An id nobody parked is not the pool's problem.
  EXPECT_FALSE(pool.OnWarned(parked_id + 1000));
  // The warned instance leaves the pool and the provider terminates it.
  EXPECT_TRUE(pool.OnWarned(parked_id));
  EXPECT_EQ(pool.num_parked(), 0);
  sim.Run();
  EXPECT_FALSE(cloud.IsReady(parked_id));
  EXPECT_EQ(pool.stats().warned_parked, 1);

  // The next request cold-misses: no doomed machine changes hands.
  InstanceId next_id = -1;
  pool.RequestInstances(1, 0.0, [&](InstanceId id) { next_id = id; }, [] {});
  sim.Run();
  EXPECT_GE(next_id, 0);
  EXPECT_NE(next_id, parked_id);
  EXPECT_EQ(pool.stats().warm_hits, 0);
}

// ---------------------------------------------------------------------------
// Risk-aware planning: the evaluator prices expected preemption rework into
// every candidate when the market's hazard is live, and leaves on-demand
// (and hazard-free spot) estimates untouched.

PlannerInputs RiskInputs() {
  PlannerInputs inputs;
  inputs.spec = MakeSha(8, 2, 14, 2);
  inputs.model.iter_latency_1gpu = Distribution::TruncatedNormal(30.0, 3.0, 0.0);
  inputs.model.scaling = ScalingFunction::FromPoints({{1, 1.0}, {2, 1.8}, {4, 3.0}, {8, 4.0}});
  inputs.model.trial_startup_seconds = 2.0;
  inputs.model.sync_seconds = 1.0;
  inputs.cloud.instance = P3_8xlarge();
  inputs.cloud.provisioning = ProvisioningModel::Fixed(2.0, 5.0);
  inputs.deadline = Minutes(30);
  return inputs;
}

TEST(SpotPlanner, HazardInflatesEstimatesAndInertMarketsDoNot) {
  const AllocationPlan plan = AllocationPlan::Uniform(3, 8);
  const PlannerOptions options;

  PlannerInputs on_demand = RiskInputs();
  PlannerInputs hazardous = RiskInputs();
  hazardous.cloud.spot.enabled = true;
  hazardous.cloud.spot.mean_time_to_preemption = 1800.0;
  PlannerInputs inert = RiskInputs();
  inert.cloud.spot.enabled = true;
  inert.cloud.spot.mean_time_to_preemption = 0.0;  // hazard off

  PlanEvaluator baseline(on_demand, options);
  PlanEvaluator risky(hazardous, options);
  PlanEvaluator hazard_free(inert, options);

  const PlanEstimate base = baseline.Evaluate(plan);
  const PlanEstimate risk = risky.Evaluate(plan);
  const PlanEstimate inert_estimate = hazard_free.Evaluate(plan);

  EXPECT_GT(risk.jct_mean, base.jct_mean);
  EXPECT_GT(risk.cost_mean.dollars(), base.cost_mean.dollars());
  EXPECT_EQ(inert_estimate.jct_mean, base.jct_mean);
  EXPECT_EQ(inert_estimate.cost_mean, base.cost_mean);
}

TEST(SpotPlanner, RiskAdjustmentIsAppliedOnceThroughTheMemo) {
  PlannerInputs inputs = RiskInputs();
  inputs.cloud.spot.enabled = true;
  inputs.cloud.spot.mean_time_to_preemption = 1800.0;
  PlanEvaluator evaluator(inputs, PlannerOptions{});

  for (const AllocationPlan& plan :
       {AllocationPlan::Uniform(3, 8), AllocationPlan({16, 8, 4}), AllocationPlan({2, 4, 8})}) {
    SCOPED_TRACE(plan.ToString());
    const PlanEstimate adjusted = evaluator.Evaluate(plan);
    // Re-evaluating through the memo must return the adjusted estimate,
    // not re-adjust it.
    const PlanEstimate memoized = evaluator.Evaluate(plan);
    EXPECT_EQ(memoized.jct_mean, adjusted.jct_mean);
    EXPECT_EQ(memoized.cost_mean, adjusted.cost_mean);
    EXPECT_EQ(memoized.compute_cost_mean, adjusted.compute_cost_mean);
  }
  EXPECT_EQ(evaluator.stats().plan_memo_hits, 3);
}

// ---------------------------------------------------------------------------
// Service-level attribution: spot totals surface in the ServiceReport and
// the fleet-wide metrics registry.

TEST(SpotService, FleetReportCarriesSpotTotalsAndMetrics) {
  ServiceConfig config;
  config.cloud = SpotCloud(/*mean_time_to_preemption=*/1200.0);
  config.cloud.provisioning = ProvisioningModel::Fixed(5.0, 10.0);
  config.capacity_gpus = 64;
  config.seed = 11;

  std::vector<JobRequest> trace;
  for (int i = 0; i < 2; ++i) {
    JobRequest job;
    job.name = "job-" + std::to_string(i);
    job.spec = MakeSha(8, 2, 14, 2);
    job.workload = ResNet101Cifar10();
    job.submit_at = 30.0 * i;
    job.deadline = 3600.0;
    trace.push_back(job);
  }
  TuningService service(config);
  for (const JobRequest& job : trace) {
    service.SubmitLive(job);
  }
  const ServiceReport report = service.Run();

  ASSERT_EQ(report.completed, 2);
  // The spot fleet is cheaper than its on-demand counterfactual, and the
  // fleet registry snapshot (per-job executor spot.* families, summed)
  // carries exactly the per-job attributions.
  Money job_savings;
  int job_preemptions = 0;
  for (const JobOutcome& job : report.jobs) {
    job_savings += job.spot_savings;
    job_preemptions += job.preemptions;
  }
  EXPECT_GT(job_savings.dollars(), 0.0);
  const auto savings = report.metrics.gauges.find("spot.savings_dollars");
  ASSERT_NE(savings, report.metrics.gauges.end());
  EXPECT_NEAR(savings->second, job_savings.dollars(), 1e-6);
  EXPECT_EQ(Money::FromDollars(savings->second), job_savings);
  const auto preemptions = report.metrics.counters.find("spot.preemptions");
  ASSERT_NE(preemptions, report.metrics.counters.end());
  EXPECT_EQ(static_cast<int>(preemptions->second), job_preemptions);
  // No job keeps its rework seconds; the fleet sum equals the per-job sum
  // this run had when each outcome still carried them.
  const auto rework = report.metrics.gauges.find("spot.rework_seconds");
  ASSERT_NE(rework, report.metrics.gauges.end());
  EXPECT_NEAR(rework->second, 293.33333333333337, 1e-6);
}

}  // namespace
}  // namespace rubberband
