#include "src/cloud/billing.h"

#include <algorithm>
#include <stdexcept>

namespace rubberband {

void BillingMeter::RecordInstanceUsage(Seconds launch, Seconds terminate) {
  RecordInstanceUsage(launch, terminate, 1.0, false);
}

void BillingMeter::RecordInstanceUsage(Seconds launch, Seconds terminate, double rate_multiplier,
                                       bool provider_reclaimed) {
  if (terminate < launch) {
    throw std::invalid_argument("instance terminated before launch");
  }
  if (rate_multiplier < 0.0) {
    throw std::invalid_argument("negative billing rate multiplier");
  }
  instance_intervals_.push_back(Interval{launch, terminate, rate_multiplier, provider_reclaimed});
}

void BillingMeter::RecordFunctionUsage(int gpus, Seconds duration) {
  if (gpus < 0 || duration < 0.0) {
    throw std::invalid_argument("negative function usage");
  }
  function_records_.push_back(FunctionRecord{gpus, duration});
}

void BillingMeter::RecordDataIngress(double gigabytes) {
  if (gigabytes < 0.0) {
    throw std::invalid_argument("negative ingress");
  }
  ingress_gb_ += gigabytes;
}

CostBreakdown BillingMeter::Price(const InstanceType& type, const PricingPolicy& policy) const {
  return PriceIntervals(type, policy, /*at_full_rate=*/false);
}

CostBreakdown BillingMeter::PriceAtFullRate(const InstanceType& type,
                                            const PricingPolicy& policy) const {
  return PriceIntervals(type, policy, /*at_full_rate=*/true);
}

CostBreakdown BillingMeter::PriceIntervals(const InstanceType& type, const PricingPolicy& policy,
                                           bool at_full_rate) const {
  CostBreakdown breakdown;
  switch (policy.billing) {
    case BillingModel::kPerInstance: {
      const Money per_second = type.PricePerSecond();
      for (const Interval& interval : instance_intervals_) {
        // A provider-initiated reclamation never owes the per-acquisition
        // minimum: the remainder was the provider's choice, not the
        // customer's.
        const Seconds billed =
            interval.provider_reclaimed
                ? interval.terminate - interval.launch
                : std::max(interval.terminate - interval.launch, policy.minimum_billed_seconds);
        const double multiplier = at_full_rate ? 1.0 : interval.rate_multiplier;
        breakdown.compute += per_second * (billed * multiplier);
      }
      break;
    }
    case BillingModel::kPerFunction: {
      const Money gpu_second = type.GpuSecondPrice();
      for (const FunctionRecord& record : function_records_) {
        breakdown.compute += gpu_second * (static_cast<double>(record.gpus) * record.duration);
      }
      break;
    }
  }
  breakdown.data = policy.data_price_per_gb * ingress_gb_;
  return breakdown;
}

double BillingMeter::TotalInstanceSeconds() const {
  double total = 0.0;
  for (const Interval& interval : instance_intervals_) {
    total += interval.terminate - interval.launch;
  }
  return total;
}

double BillingMeter::TotalGpuSecondsUsed() const {
  double total = 0.0;
  for (const FunctionRecord& record : function_records_) {
    total += static_cast<double>(record.gpus) * record.duration;
  }
  return total;
}

double BillingMeter::Utilization(int gpus_per_instance) const {
  const double provisioned = TotalInstanceSeconds() * gpus_per_instance;
  return provisioned > 0.0 ? TotalGpuSecondsUsed() / provisioned : 0.0;
}

}  // namespace rubberband
