// Billing meter: the cost ledger of a (simulated) cloud account.
//
// The runtime records raw usage events — instance lifetimes, function-style
// task executions, and data ingress — and the meter prices them under a
// PricingPolicy. Keeping raw events (rather than accumulating dollars as we
// go) lets the same execution be priced under both billing models, which is
// how the paper's per-instance vs per-function comparisons work.

#ifndef SRC_CLOUD_BILLING_H_
#define SRC_CLOUD_BILLING_H_

#include <vector>

#include "src/cloud/instance.h"
#include "src/cloud/pricing.h"
#include "src/common/money.h"
#include "src/common/time.h"

namespace rubberband {

struct CostBreakdown {
  Money compute;
  Money data;
  Money Total() const { return compute + data; }
};

class BillingMeter {
 public:
  // One instance acquisition, alive over [launch, terminate).
  void RecordInstanceUsage(Seconds launch, Seconds terminate);

  // Market-aware variant: `rate_multiplier` scales the instance's
  // per-second rate over this interval (spot discount × the time-averaged
  // price-trace multiplier; 1.0 for on-demand capacity), and
  // `provider_reclaimed` marks an interval the provider ended (spot
  // reclamation) — such an interval never owes the per-acquisition
  // minimum charge, since the customer did not choose to stop early.
  void RecordInstanceUsage(Seconds launch, Seconds terminate, double rate_multiplier,
                           bool provider_reclaimed);

  // One function-style task execution holding `gpus` GPUs for `duration`.
  void RecordFunctionUsage(int gpus, Seconds duration);

  void RecordDataIngress(double gigabytes);

  // Prices the recorded events. Per-instance mode prices instance
  // lifetimes (with the per-acquisition minimum charge); per-function mode
  // prices the function records at the GPU-second rate. Data ingress is
  // priced identically under both.
  CostBreakdown Price(const InstanceType& type, const PricingPolicy& policy) const;

  // Prices the ledger as if every interval had billed at rate multiplier
  // 1.0 — the on-demand counterfactual used for spot-savings attribution.
  // Identical to Price() when no discounted intervals were recorded.
  CostBreakdown PriceAtFullRate(const InstanceType& type, const PricingPolicy& policy) const;

  double TotalInstanceSeconds() const;
  double TotalGpuSecondsUsed() const;
  // Busy GPU-seconds over provisioned GPU-seconds (0 when nothing was
  // provisioned): the utilization the paper's whole argument is about.
  double Utilization(int gpus_per_instance) const;
  double total_ingress_gb() const { return ingress_gb_; }
  int num_acquisitions() const { return static_cast<int>(instance_intervals_.size()); }

 private:
  struct Interval {
    Seconds launch = 0.0;
    Seconds terminate = 0.0;
    double rate_multiplier = 1.0;
    bool provider_reclaimed = false;
  };

  CostBreakdown PriceIntervals(const InstanceType& type, const PricingPolicy& policy,
                               bool at_full_rate) const;
  struct FunctionRecord {
    int gpus = 0;
    Seconds duration = 0.0;
  };

  std::vector<Interval> instance_intervals_;
  std::vector<FunctionRecord> function_records_;
  double ingress_gb_ = 0.0;
};

}  // namespace rubberband

#endif  // SRC_CLOUD_BILLING_H_
