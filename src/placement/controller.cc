#include "src/placement/controller.h"

#include <algorithm>
#include <stdexcept>

namespace rubberband {

PlacementController::PlacementController(int gpus_per_node, PlacementStrategy strategy)
    : gpus_per_node_(gpus_per_node), strategy_(strategy) {
  if (gpus_per_node < 1) {
    throw std::invalid_argument("nodes must have at least one GPU");
  }
}

void PlacementController::AddNode(PlacementNodeId id) {
  if (!nodes_.emplace(id, PlacementNode{id, gpus_per_node_, {}}).second) {
    throw std::logic_error("node already in cluster");
  }
}

void PlacementController::RemoveNode(PlacementNodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::logic_error("removing unknown node");
  }
  if (it->second.UsedGpus() > 0) {
    throw std::logic_error("removing a node that still hosts trial workers");
  }
  nodes_.erase(it);
  unschedulable_.erase(id);
}

void PlacementController::SetUnschedulable(PlacementNodeId id, bool unschedulable) {
  if (nodes_.find(id) == nodes_.end()) {
    throw std::logic_error("marking unknown node unschedulable");
  }
  if (unschedulable) {
    unschedulable_.insert(id);
  } else {
    unschedulable_.erase(id);
  }
}

std::vector<TrialId> PlacementController::EvictNode(PlacementNodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::logic_error("evicting unknown node");
  }
  std::vector<TrialId> evicted;
  for (const auto& [trial, gpus] : it->second.assigned) {
    evicted.push_back(trial);
  }
  for (TrialId trial : evicted) {
    Evict(trial);
  }
  nodes_.erase(id);
  unschedulable_.erase(id);
  return evicted;
}

int PlacementController::MinSpan(int gpus) const {
  return (gpus + gpus_per_node_ - 1) / gpus_per_node_;
}

void PlacementController::Evict(TrialId trial) {
  for (const WorkerAssignment& assignment : plan_.Assignments(trial)) {
    nodes_.at(assignment.node).assigned.erase(trial);
  }
  plan_.RemoveTrial(trial);
}

PlacementNode* PlacementController::FindBestFit(int gpus) {
  PlacementNode* best = nullptr;
  for (auto& [id, node] : nodes_) {
    if (unschedulable_.count(id) > 0) {
      continue;
    }
    const int free = node.FreeGpus();
    if (free >= gpus && (best == nullptr || free < best->FreeGpus())) {
      best = &node;
    }
  }
  return best;
}

bool PlacementController::TryMakeSpace(PlacementNode& node, int gpus, int incoming_alloc,
                                       const std::set<TrialId>& prot,
                                       std::vector<TrialId>& displaced) {
  // Check feasibility first: evicting every unprotected, smaller trial —
  // would that free enough?
  std::vector<std::pair<int, TrialId>> evictable;  // (gpus on node, trial)
  int reclaimable = node.FreeGpus();
  for (const auto& [trial, held] : node.assigned) {
    if (prot.count(trial) > 0) {
      continue;
    }
    if (plan_.TrialGpus(trial) >= incoming_alloc) {
      continue;  // only smaller trials may be displaced
    }
    evictable.emplace_back(held, trial);
    reclaimable += held;
  }
  if (reclaimable < gpus) {
    return false;
  }
  // Evict the smallest holdings first until the unit fits.
  std::sort(evictable.begin(), evictable.end());
  for (const auto& [held, trial] : evictable) {
    if (node.FreeGpus() >= gpus) {
      break;
    }
    Evict(trial);
    displaced.push_back(trial);
  }
  return node.FreeGpus() >= gpus;
}

PlacementResult PlacementController::PlaceScattered(const std::map<TrialId, int>& allocations) {
  // Drop every stale placement, then hand out GPUs one at a time cycling
  // through nodes — no locality preference whatsoever.
  std::vector<TrialId> stale;
  for (const auto& [trial, assignments] : plan_.all()) {
    auto it = allocations.find(trial);
    if (it == allocations.end() || plan_.TrialGpus(trial) != it->second) {
      stale.push_back(trial);
    }
  }
  for (TrialId trial : stale) {
    Evict(trial);
  }

  PlacementResult result;
  auto cursor = nodes_.begin();
  for (const auto& [trial, gpus] : allocations) {
    if (plan_.TrialGpus(trial) == gpus) {
      continue;
    }
    int remaining = gpus;
    int scanned = 0;
    const int total_nodes = static_cast<int>(nodes_.size());
    while (remaining > 0 && scanned <= total_nodes) {
      if (cursor == nodes_.end()) {
        cursor = nodes_.begin();
      }
      if (unschedulable_.count(cursor->first) == 0 && cursor->second.FreeGpus() > 0) {
        cursor->second.assigned[trial] += 1;
        plan_.Assign(trial, cursor->first, 1);
        --remaining;
        scanned = 0;
      } else {
        ++scanned;
      }
      ++cursor;
    }
    if (remaining > 0) {
      Evict(trial);
      result.unplaced.push_back(trial);
    }
  }
  return result;
}

PlacementResult PlacementController::Place(const std::map<TrialId, int>& allocations,
                                           const std::set<TrialId>& reserved) {
  if (strategy_ == PlacementStrategy::kScatter) {
    return PlaceScattered(allocations);
  }
  // Remove discrepancies: drop placements of trials that are gone or whose
  // allocation changed (locked trials stay untouched).
  std::vector<TrialId> stale;
  for (const auto& [trial, assignments] : plan_.all()) {
    auto it = allocations.find(trial);
    const bool gone = it == allocations.end();
    const bool changed = !gone && plan_.TrialGpus(trial) != it->second;
    if ((gone || changed) && reserved.count(trial) == 0) {
      stale.push_back(trial);
    }
  }
  for (TrialId trial : stale) {
    Evict(trial);
  }

  // Queue every trial not currently satisfied, largest allocation first.
  std::vector<TrialId> to_move;
  for (const auto& [trial, gpus] : allocations) {
    if (plan_.TrialGpus(trial) != gpus && reserved.count(trial) == 0) {
      to_move.push_back(trial);
    }
  }
  std::sort(to_move.begin(), to_move.end(), [&](TrialId a, TrialId b) {
    const int ga = allocations.at(a);
    const int gb = allocations.at(b);
    return ga != gb ? ga > gb : a < b;
  });

  std::set<TrialId> placed_this_epoch(reserved.begin(), reserved.end());
  PlacementResult result;

  // The queue can grow as displaced trials re-enter; index loop.
  for (size_t qi = 0; qi < to_move.size(); ++qi) {
    const TrialId trial = to_move[qi];
    const int target = allocations.at(trial);
    if (plan_.TrialGpus(trial) == target) {
      continue;  // re-queued trial that is in fact satisfied
    }
    if (plan_.HasTrial(trial)) {
      Evict(trial);  // partial/stale placement from a displacement
    }

    int remaining = target;
    bool failed = false;
    while (remaining > 0) {
      const int unit = std::min(remaining, gpus_per_node_);
      PlacementNode* node = FindBestFit(unit);
      if (node == nullptr) {
        // Displacement pass: consider roomy nodes first.
        std::vector<PlacementNode*> ordered;
        for (auto& [id, candidate] : nodes_) {
          if (unschedulable_.count(id) > 0) {
            continue;
          }
          ordered.push_back(&candidate);
        }
        std::sort(ordered.begin(), ordered.end(), [](PlacementNode* a, PlacementNode* b) {
          return a->FreeGpus() != b->FreeGpus() ? a->FreeGpus() > b->FreeGpus() : a->id < b->id;
        });
        for (PlacementNode* candidate : ordered) {
          std::vector<TrialId> displaced;
          if (TryMakeSpace(*candidate, unit, target, placed_this_epoch, displaced)) {
            node = candidate;
            for (TrialId d : displaced) {
              to_move.push_back(d);
            }
            break;
          }
        }
      }
      if (node == nullptr) {
        // Split fallback: no node can host the whole gang chunk, so scatter
        // the remaining GPUs across whatever free capacity exists. The
        // trial ends up non-colocated and pays the cross-node penalty —
        // still preferable to not running at all (and it is what a plan
        // whose gang size fragments the nodes, e.g. 3-GPU gangs on 4-GPU
        // instances, implies).
        int free_total = 0;
        for (const auto& [id, candidate] : nodes_) {
          if (unschedulable_.count(id) > 0) {
            continue;
          }
          free_total += candidate.FreeGpus();
        }
        if (free_total < remaining) {
          failed = true;
          break;
        }
        for (auto& [id, candidate] : nodes_) {
          if (unschedulable_.count(id) > 0) {
            continue;
          }
          const int take = std::min(candidate.FreeGpus(), remaining);
          if (take > 0) {
            candidate.assigned[trial] += take;
            plan_.Assign(trial, id, take);
            remaining -= take;
          }
          if (remaining == 0) {
            break;
          }
        }
        continue;
      }
      node->assigned[trial] += unit;
      plan_.Assign(trial, node->id, unit);
      remaining -= unit;
    }

    if (failed) {
      Evict(trial);  // roll back any partial assignment
      result.unplaced.push_back(trial);
    } else {
      placed_this_epoch.insert(trial);
    }
  }

  return result;
}

std::vector<PlacementNodeId> PlacementController::IdleNodes() const {
  std::vector<PlacementNodeId> idle;
  for (const auto& [id, node] : nodes_) {
    if (node.UsedGpus() == 0) {
      idle.push_back(id);
    }
  }
  return idle;
}

bool PlacementController::IsColocated(TrialId trial) const {
  const int gpus = plan_.TrialGpus(trial);
  if (gpus == 0) {
    return false;
  }
  return plan_.TrialSpan(trial) <= MinSpan(gpus);
}

}  // namespace rubberband
