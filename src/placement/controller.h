// Placement controller (paper section 4.4, Algorithm 3).
//
// Converts each trial's resource quantity into physical worker-to-node
// assignments, maximizing spatial locality: a trial smaller than a node is
// placed entirely on one node; a larger trial acquires a minimal set of
// nodes. Unchanged assignments are preserved across scheduling epochs on a
// best-effort basis; trials whose allocation grew may displace smaller
// trials (each displaced trial re-enters the queue and gets its own chance
// to be placed; trials placed in this epoch, and trials whose reassignment
// is in flight ("reserved"/locked), cannot be perturbed). Packing onto the
// fewest nodes is also what makes scale-down safe: emptied nodes can be
// deprovisioned without interrupting any trial (Figure 5).

#ifndef SRC_PLACEMENT_CONTROLLER_H_
#define SRC_PLACEMENT_CONTROLLER_H_

#include <map>
#include <set>
#include <vector>

#include "src/placement/cluster_state.h"

namespace rubberband {

struct PlacementResult {
  // Trials that could not be placed (cluster too small); the scheduler
  // queues them until resources free up.
  std::vector<TrialId> unplaced;
};

enum class PlacementStrategy {
  // Algorithm 3: locality-maximizing best-fit with displacement.
  kPacked,
  // Locality-unaware baseline (Table 1 "No Placement"): worker GPUs are
  // assigned one at a time round-robin across nodes, the behaviour of a
  // scheduler given no location preferences.
  kScatter,
};

class PlacementController {
 public:
  explicit PlacementController(int gpus_per_node,
                               PlacementStrategy strategy = PlacementStrategy::kPacked);

  // Cluster membership. Removing a node is only legal when no trial holds
  // GPUs on it in the current plan.
  void AddNode(PlacementNodeId id);
  void RemoveNode(PlacementNodeId id);

  // Forcibly removes a node that disappeared (spot preemption): every trial
  // with workers on it is evicted from the whole plan (its gang is gone)
  // and returned so the scheduler can restart it elsewhere.
  std::vector<TrialId> EvictNode(PlacementNodeId id);

  // Marks a node as ineligible for new worker assignments (a detected
  // straggler awaiting quarantine). Existing assignments are untouched —
  // eviction is a separate, explicit step — but best-fit, displacement,
  // split fallback and scatter all skip the node.
  void SetUnschedulable(PlacementNodeId id, bool unschedulable);
  bool IsUnschedulable(PlacementNodeId id) const { return unschedulable_.count(id) > 0; }

  // Algorithm 3. `allocations` maps every trial that should be running to
  // its GPU allocation; `reserved` lists trials whose placements are locked
  // this epoch. The new placement plan is retained (plan()); the result
  // lists the trials that did not fit.
  PlacementResult Place(const std::map<TrialId, int>& allocations,
                        const std::set<TrialId>& reserved = {});

  // Nodes with no assigned GPUs under the current plan (safe to
  // deprovision).
  std::vector<PlacementNodeId> IdleNodes() const;

  // True when the trial's workers span the minimum possible node count.
  bool IsColocated(TrialId trial) const;

  const PlacementPlan& plan() const { return plan_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int gpus_per_node() const { return gpus_per_node_; }

 private:
  PlacementResult PlaceScattered(const std::map<TrialId, int>& allocations);
  PlacementNode* FindBestFit(int gpus);
  // Frees >= `gpus` on `node` by evicting trials with allocations smaller
  // than `incoming_alloc` that are not protected. Returns evicted trials,
  // or nullopt (and changes nothing) if impossible.
  bool TryMakeSpace(PlacementNode& node, int gpus, int incoming_alloc,
                    const std::set<TrialId>& prot, std::vector<TrialId>& displaced);
  void Evict(TrialId trial);
  int MinSpan(int gpus) const;

  int gpus_per_node_;
  PlacementStrategy strategy_;
  std::map<PlacementNodeId, PlacementNode> nodes_;
  std::set<PlacementNodeId> unschedulable_;
  PlacementPlan plan_;
};

}  // namespace rubberband

#endif  // SRC_PLACEMENT_CONTROLLER_H_
