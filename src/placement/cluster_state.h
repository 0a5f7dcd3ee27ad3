// Physical cluster state for placement: which trial holds how many GPUs on
// which node. The placement controller mutates this state; the executor
// reads it to configure trial worker gangs and to find empty nodes that can
// be deprovisioned safely (paper Figure 5).

#ifndef SRC_PLACEMENT_CLUSTER_STATE_H_
#define SRC_PLACEMENT_CLUSTER_STATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rubberband {

using PlacementNodeId = int64_t;
using TrialId = int;

struct PlacementNode {
  PlacementNodeId id = -1;
  int total_gpus = 0;
  // GPUs held on this node, per trial.
  std::map<TrialId, int> assigned;

  int UsedGpus() const;
  int FreeGpus() const { return total_gpus - UsedGpus(); }
};

struct WorkerAssignment {
  PlacementNodeId node = -1;
  int gpus = 0;
};

// The placement plan: every trial's worker-to-node mapping.
class PlacementPlan {
 public:
  void Assign(TrialId trial, PlacementNodeId node, int gpus);
  void RemoveTrial(TrialId trial);

  bool HasTrial(TrialId trial) const { return assignments_.count(trial) > 0; }
  int TrialGpus(TrialId trial) const;
  // Number of distinct nodes the trial's workers span.
  int TrialSpan(TrialId trial) const;

  const std::vector<WorkerAssignment>& Assignments(TrialId trial) const;
  const std::map<TrialId, std::vector<WorkerAssignment>>& all() const { return assignments_; }

  std::string ToString() const;

 private:
  std::map<TrialId, std::vector<WorkerAssignment>> assignments_;
};

}  // namespace rubberband

#endif  // SRC_PLACEMENT_CLUSTER_STATE_H_
