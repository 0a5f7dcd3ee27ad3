// CloudProfile: the "cloud profile C" input of Algorithms 1 and 2 — the
// complete parameterization of the target cloud: which instance type the
// user selected, how it is billed, and how long provisioning takes.

#ifndef SRC_CLOUD_CLOUD_PROFILE_H_
#define SRC_CLOUD_CLOUD_PROFILE_H_

#include "src/cloud/fault.h"
#include "src/cloud/instance.h"
#include "src/cloud/pricing.h"
#include "src/cloud/provisioning.h"

namespace rubberband {

struct CloudProfile {
  InstanceType instance = P3_8xlarge();
  PricingPolicy pricing;
  ProvisioningModel provisioning;
  SpotMarket spot;
  FaultProfile fault;

  int gpus_per_instance() const { return instance.gpus; }

  // The instance type with the effective (spot-discounted) price applied.
  InstanceType BilledInstance() const {
    if (!spot.enabled) {
      return instance;
    }
    return instance.WithPrice(instance.price_per_hour * spot.discount);
  }

  // The instance type a billing ledger of this cloud is priced at.
  // Per-instance intervals carry their own rate multiplier (spot discount x
  // the time-averaged price trace for spot capacity, 1.0 for on-demand), so
  // they price at the on-demand rate; per-function records carry no
  // multiplier and keep the flat discounted rate.
  InstanceType LedgerInstance() const {
    return pricing.billing == BillingModel::kPerFunction ? BilledInstance() : instance;
  }
};

}  // namespace rubberband

#endif  // SRC_CLOUD_CLOUD_PROFILE_H_
