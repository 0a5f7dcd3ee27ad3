// Weighted max-min fair division of the service's GPU capacity among
// running tuning jobs.
//
// Water-filling with roll-forward: every job starts with a weight-
// proportional slice; a job demanding less than its slice takes its demand
// and the slack rolls forward into the jobs still contending. Jobs that
// remain bottlenecked at the end split the residual proportionally.

#ifndef SRC_SERVICE_FAIR_SHARE_H_
#define SRC_SERVICE_FAIR_SHARE_H_

#include <vector>

namespace rubberband {

struct ShareRequest {
  // GPUs the job could use right now (its plan's peak stage allocation).
  int demand = 0;
  double weight = 1.0;
};

// A request's share when every demand fits in capacity: its whole demand,
// or 0 if it takes no part in the division (a demand or weight that is not
// positive). FairShares returns exactly this then, and divides capacity
// only among requests whose uncontended share is positive.
int UncontendedShare(const ShareRequest& request);

// Returns one share per request, in order. Shares never exceed demand, sum
// to at most `capacity_gpus`, and are weighted max-min fair: no job can
// gain except by taking from a job with a smaller share-per-weight.
std::vector<int> FairShares(int capacity_gpus, const std::vector<ShareRequest>& requests);

}  // namespace rubberband

#endif  // SRC_SERVICE_FAIR_SHARE_H_
