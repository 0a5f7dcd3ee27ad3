// Cloud pricing policy (paper section 4.1, "Cost modeling").
//
// Three modeled parameters drive total job cost: compute price (carried by
// the InstanceType), billing granularity (per-instance vs per-function), and
// data-ingress price per GB. All major providers bill per-second with a
// 60-second minimum per acquisition, which the policy reproduces.

#ifndef SRC_CLOUD_PRICING_H_
#define SRC_CLOUD_PRICING_H_

#include <string>

#include "src/common/money.h"
#include "src/common/time.h"

namespace rubberband {

enum class BillingModel {
  // Traditional instance billing: an instance is charged from launch until
  // termination, whether or not its GPUs are doing useful work (idle
  // straggler-wait time is billed).
  kPerInstance,
  // Serverless-style billing that charges only for the resources a task
  // actually holds while it runs (approximates per-function pricing trends).
  kPerFunction,
};

std::string ToString(BillingModel model);

struct PricingPolicy {
  BillingModel billing = BillingModel::kPerInstance;
  // Minimum charge applied to each instance acquisition (per-instance mode).
  Seconds minimum_billed_seconds = 60.0;
  // Ingress price per GB of dataset downloaded to each instance. Zero within
  // a region; up to ~$0.16/GB in the paper's sweep.
  Money data_price_per_gb;
};

// Spot (pre-emptible) capacity: much cheaper than on-demand, but instances
// can be reclaimed by the provider at any time. The paper's evaluation uses
// on-demand (GPU spot prices are stable but reclamation interrupts
// training); the executor supports spot as an extension — trials restart
// from their last checkpoint on a replacement instance, hedged by the
// reclamation warning (eager checkpoints) and on-demand fallback when the
// market rejects capacity or storms.
struct SpotMarket {
  bool enabled = false;
  // Baseline spot price as a fraction of the on-demand price (~0.3 for the
  // p3 family). The time-varying trace multiplies on top of this.
  double discount = 0.3;
  // Mean time between reclamations per instance (exponentially
  // distributed) at price multiplier 1.0. <= 0 disables the hazard
  // entirely — no reclamations and no draws from the provider stream —
  // which is what lets the zero-volatility self-check replay the
  // on-demand baseline bit-identically.
  Seconds mean_time_to_preemption = 4.0 * 3600.0;

  // Price trace: the spot price moves as a regime-switching multiplicative
  // random walk around the discounted base price. Every price_interval_s
  // the multiplier takes a log-normal step of scale `volatility` (tripled,
  // with upward drift, while the market is in its turbulent regime), then
  // clamps to SpotPriceTrace's [kPriceFloor, kPriceCap]. volatility == 0
  // keeps the trace flat at 1.0 and forks no price stream.
  double volatility = 0.0;
  Seconds price_interval_s = 300.0;

  // Couples the per-instance reclamation hazard to the price multiplier
  // sampled at launch: the expected lifetime scales as multiplier^coupling,
  // so cheap capacity (multiplier < 1) is reclaimed sooner. 0 = hazard
  // independent of price.
  double hazard_coupling = 0.0;

  // Correlated reclamation storms: every Exponential(storm_mean_interval_s)
  // the provider sweeps ceil(storm_fraction * ready spot instances) in a
  // single event (the oldest first, mimicking a capacity pool being drained
  // for on-demand customers). 0 = no storms.
  Seconds storm_mean_interval_s = 0.0;
  double storm_fraction = 0.25;

  // Maximum concurrently held spot instances in this family (launching +
  // ready). Requests beyond the limit are rejected after the queuing delay
  // and flagged as capacity rejections so callers can fall back to
  // on-demand instead of retrying a market that is out of machines.
  // 0 = unlimited.
  int capacity_limit = 0;

  // Providers announce a reclamation this long before taking the instance
  // (EC2's two-minute warning). The executor checkpoints eagerly on the
  // warning so only the last warning-window of work can be lost. 0 = the
  // instance disappears without notice.
  Seconds reclamation_warning_s = 120.0;

  bool HazardEnabled() const { return enabled && mean_time_to_preemption > 0.0; }
  bool PriceVaries() const { return enabled && volatility > 0.0; }
  bool StormsEnabled() const { return enabled && storm_mean_interval_s > 0.0; }
};

}  // namespace rubberband

#endif  // SRC_CLOUD_PRICING_H_
