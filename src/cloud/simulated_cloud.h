// SimulatedCloud: a discrete-event cloud provider.
//
// Substitute for AWS EC2 + boto in the paper's implementation (section 5,
// "Cluster management"): serves provisioning requests after the profile's
// queuing + init delays, terminates instances immediately, and keeps the
// billing ledger. The paper's provider assumption — provisioning always
// succeeds — holds only for the default (fault-free) profile; the profile's
// FaultProfile injects provisioning rejections, init-time deaths, and
// hardware crashes on ready instances, all from the deterministic Rng.

#ifndef SRC_CLOUD_SIMULATED_CLOUD_H_
#define SRC_CLOUD_SIMULATED_CLOUD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/cloud/billing.h"
#include "src/cloud/cloud_profile.h"
#include "src/cloud/fault.h"
#include "src/cloud/instance_source.h"
#include "src/cloud/spot_price.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace rubberband {

class SimulatedCloud : public InstanceSource {
 public:
  // When `registry` is null the cloud owns a private registry (a run alone
  // on the cloud folds its snapshot into its report); a multi-tenant owner
  // passes its own so cloud.* metrics land in the service-wide registry.
  SimulatedCloud(Simulation& sim, CloudProfile profile, MetricsRegistry* registry = nullptr);

  SimulatedCloud(const SimulatedCloud&) = delete;
  SimulatedCloud& operator=(const SimulatedCloud&) = delete;

  using InstanceSource::RequestInstances;

  // Requests `count` instances. `on_ready` fires once per instance when it
  // becomes usable (after queuing delay + init latency). Billing starts at
  // launch (after queuing delay, before init completes), as real providers
  // charge while init scripts run. If `dataset_gb` > 0, each instance
  // ingresses that much data during init (charged at the data price).
  // Under a fault profile a slot may instead fail — rejected after the
  // queuing delay (nothing billed) or dead at the end of init (the init
  // interval is billed) — in which case `on_failure` fires for it.
  void RequestInstances(int count, double dataset_gb, std::function<void(InstanceId)> on_ready,
                        std::function<void()> on_failure) override;

  // Market-aware request: kSpot draws pre-emptible capacity billed at the
  // discounted, time-varying spot price (subject to the family's capacity
  // limit — over-limit slots are rejected after the queuing delay and
  // counted as capacity rejections); kOnDemand draws regular capacity at
  // full price that is never preempted. The 4-argument overload serves the
  // profile's default market: spot when the market is enabled, on-demand
  // otherwise.
  void RequestInstances(int count, double dataset_gb, Market market,
                        std::function<void(InstanceId)> on_ready,
                        std::function<void()> on_failure) override;

  // Terminates a ready instance and closes its billing interval.
  void TerminateInstance(InstanceId id);

  // InstanceSource: releasing to the raw provider terminates.
  void ReleaseInstance(InstanceId id) override { TerminateInstance(id); }

  // Registers the callback invoked when the provider reclaims a spot
  // instance (only fires when the profile's spot market is enabled). The
  // instance is already gone (billing closed) when the handler runs.
  void SetPreemptionHandler(std::function<void(InstanceId)> handler) {
    on_preempted_ = std::move(handler);
  }

  // Registers the callback invoked when a ready instance's hardware
  // crashes (only fires when the fault profile's MTBF is enabled). Like a
  // preemption, the instance is already gone when the handler runs.
  void SetCrashHandler(std::function<void(InstanceId)> handler) {
    on_crashed_ = std::move(handler);
  }

  // Registers the callback for the provider's reclamation warning, fired
  // SpotMarket::reclamation_warning_s before a spot instance is taken.
  // The instance is still ready (and billing) when the handler runs; the
  // executor uses the window to checkpoint eagerly.
  void SetPreemptionWarningHandler(std::function<void(InstanceId)> handler) {
    on_preemption_warning_ = std::move(handler);
  }

  // Registers the callback fired whenever the spot price trace steps; the
  // argument is the new multiplier on the discounted base price.
  void SetPriceChangeHandler(std::function<void(double)> handler) {
    on_price_change_ = std::move(handler);
  }

  int num_preemptions() const { return static_cast<int>(m_.preempted->value()); }
  int num_crashes() const { return static_cast<int>(m_.crashed->value()); }
  int num_provision_failures() const { return faults_.num_provision_failures(); }
  int num_init_failures() const { return faults_.num_init_failures(); }
  int num_straggler_instances() const { return faults_.num_stragglers(); }
  int num_preemption_warnings() const { return preemption_warnings_; }
  int num_capacity_rejections() const { return capacity_rejections_; }
  int num_storms() const { return storms_; }

  // The spot price multiplier currently in effect (1.0 with a flat trace).
  double SpotPriceMultiplier() const {
    return price_trace_ ? price_trace_->current() : 1.0;
  }

  // Time-averaged spot price multiplier over [from, to] (1.0 with a flat
  // trace): what a spot instance held over that window billed at, before
  // the discount. Used for per-job usage attribution on shared clusters.
  double SpotAverageMultiplier(Seconds from, Seconds to) const {
    return price_trace_ ? price_trace_->AverageOver(from, to) : 1.0;
  }

  // True while the family's capacity limit leaves no room for another spot
  // instance — the signal callers use to fall back to on-demand instead of
  // retrying the spot market.
  bool SpotCapacityExhausted() const {
    return profile_.spot.capacity_limit > 0 && spot_held_ >= profile_.spot.capacity_limit;
  }

  // The market a held (launching or ready) instance was acquired on;
  // kOnDemand for unknown ids.
  Market InstanceMarket(InstanceId id) const;

  // Persistent slowdown factor of a launched instance (1.0 = healthy).
  // Ground truth for the synthetic trainer — the hardware really is this
  // slow — never an input to detection, which sees observed iteration
  // times only.
  double StragglerFactor(InstanceId id) const {
    auto it = straggler_factors_.find(id);
    return it == straggler_factors_.end() ? 1.0 : it->second;
  }

  // Terminates everything still running and cancels in-flight provisioning
  // requests (end-of-job cleanup): launched-but-initializing instances are
  // billed up to now, still-queued requests never bill, and neither
  // `on_ready` nor `on_failure` fires for a cancelled slot.
  void TerminateAll();

  // Records a function-style task execution for per-function pricing.
  void RecordFunctionUsage(int gpus, Seconds duration) {
    meter_.RecordFunctionUsage(gpus, duration);
  }

  int num_ready() const { return static_cast<int>(ready_.size()); }
  int num_pending() const { return pending_; }
  // True while the instance is launched and not terminated/reclaimed.
  bool IsReady(InstanceId id) const { return ready_.count(id) > 0; }

  const CloudProfile& profile() const { return profile_; }
  const BillingMeter& meter() const { return meter_; }
  // The registry cloud.* metrics record into (owned or the caller's).
  MetricsRegistry& metrics() { return *registry_; }
  const MetricsRegistry& metrics() const { return *registry_; }

  // Prices the ledger under the profile's own pricing policy.
  CostBreakdown Cost() const {
    return meter_.Price(profile_.LedgerInstance(), profile_.pricing);
  }

  // The on-demand counterfactual for the same usage (every interval at
  // full rate); Cost() subtracted from this is the account's spot savings.
  CostBreakdown OnDemandEquivalentCost() const {
    return meter_.PriceAtFullRate(profile_.instance, profile_.pricing);
  }

 private:
  struct Instance {
    Seconds launch = 0.0;
    Seconds ready = 0.0;
    Market market = Market::kOnDemand;
    bool warned = false;  // reclamation warning already delivered
  };
  struct PendingSlot {
    Seconds launch = 0.0;
    Market market = Market::kOnDemand;
  };

  Simulation& sim_;
  CloudProfile profile_;
  Rng rng_;
  FaultInjector faults_;
  // Market streams follow the fault-stream discipline: forked only when
  // the feature can draw, so profiles without them replay bit-identically.
  std::unique_ptr<SpotPriceTrace> price_trace_;
  Rng storm_rng_;
  BillingMeter meter_;
  // Registry-backed provider statistics. The billed-seconds gauge adds the
  // exact intervals the meter records (same call, same order), so it equals
  // meter().TotalInstanceSeconds() to the last bit.
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_ = nullptr;
  struct MetricHandles {
    Counter* requested = nullptr;
    Counter* launched = nullptr;
    Counter* terminated = nullptr;
    Counter* preempted = nullptr;
    Counter* crashed = nullptr;
    Counter* init_failures = nullptr;
    Gauge* billed_seconds = nullptr;
    Histogram* provision_latency = nullptr;
  };
  MetricHandles m_;
  void SchedulePreemption(InstanceId id);
  void ScheduleCrash(InstanceId id);
  void ReclaimInstance(InstanceId id, Counter* counter,
                       const std::function<void(InstanceId)>& handler, bool provider_reclaimed);
  // Settles one instance's billing in both ledgers (meter + gauge).
  void CloseBillingInterval(Seconds launch, Market market, bool provider_reclaimed);
  // Delivers the reclamation warning for a still-ready instance (once).
  void WarnInstance(InstanceId id);
  // Market clocks (price steps, storms) run only while the provider holds
  // or is launching instances, so an idle simulation still drains; each
  // accepted request restarts them.
  bool MarketActive() const { return !ready_.empty() || pending_ > 0; }
  void MaybeStartMarketClocks();
  void PriceStep();
  void StormTick();

  std::map<InstanceId, Instance> ready_;
  // Straggler tags drawn at launch (absent = healthy); entries outlive the
  // instance's tenancy (a recycled warm instance stays slow) and are erased
  // at termination.
  std::map<InstanceId, double> straggler_factors_;
  // Launch time + market of every launched-but-not-ready instance
  // (cancellation closes these billing intervals).
  std::map<InstanceId, PendingSlot> pending_launch_;
  std::function<void(InstanceId)> on_preempted_;
  std::function<void(InstanceId)> on_crashed_;
  std::function<void(InstanceId)> on_preemption_warning_;
  std::function<void(double)> on_price_change_;
  int pending_ = 0;
  // Spot instances currently held (launching + ready), checked against the
  // family's capacity limit.
  int spot_held_ = 0;
  int preemption_warnings_ = 0;
  int capacity_rejections_ = 0;
  int storms_ = 0;
  bool price_clock_running_ = false;
  bool storm_clock_running_ = false;
  // Bumped by TerminateAll: in-flight ready/failure events from an older
  // epoch are cancelled and become no-ops.
  int64_t cancel_epoch_ = 0;
  InstanceId next_id_ = 0;
};

}  // namespace rubberband

#endif  // SRC_CLOUD_SIMULATED_CLOUD_H_
