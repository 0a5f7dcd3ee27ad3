#include "src/service/fair_share.h"

#include <algorithm>
#include <utility>

namespace rubberband {

int UncontendedShare(const ShareRequest& request) {
  return request.demand > 0 && request.weight > 0.0 ? request.demand : 0;
}

std::vector<int> FairShares(int capacity_gpus, const std::vector<ShareRequest>& requests) {
  const size_t n = requests.size();
  std::vector<int> shares(n, 0);
  std::vector<size_t> active;
  for (size_t i = 0; i < n; ++i) {
    if (UncontendedShare(requests[i]) > 0) {
      active.push_back(i);
    }
  }

  // Water-filling rounds: any job whose whole demand fits inside its
  // weighted slice of the remaining capacity is satisfied and leaves; its
  // slack rolls forward to the jobs still contending.
  int remaining = std::max(0, capacity_gpus);
  bool moved = true;
  while (moved && !active.empty() && remaining > 0) {
    moved = false;
    double total_weight = 0.0;
    for (size_t i : active) {
      total_weight += requests[i].weight;
    }
    std::vector<size_t> still_contending;
    for (size_t i : active) {
      const double slice = remaining * (requests[i].weight / total_weight);
      if (static_cast<double>(requests[i].demand) <= slice) {
        shares[i] = requests[i].demand;
        moved = true;
      } else {
        still_contending.push_back(i);
      }
    }
    for (size_t i : active) {
      if (shares[i] > 0 &&
          std::find(still_contending.begin(), still_contending.end(), i) ==
              still_contending.end()) {
        remaining -= shares[i];
      }
    }
    active = std::move(still_contending);
  }

  // Bottlenecked jobs split what is left proportionally; the integer
  // remainder goes one GPU at a time to the largest fractional parts
  // (ties broken by submission order, keeping the split deterministic).
  if (!active.empty() && remaining > 0) {
    double total_weight = 0.0;
    for (size_t i : active) {
      total_weight += requests[i].weight;
    }
    int handed_out = 0;
    std::vector<std::pair<double, size_t>> fractional;
    for (size_t i : active) {
      const double exact = remaining * (requests[i].weight / total_weight);
      const int base = std::min(requests[i].demand, static_cast<int>(exact));
      shares[i] = base;
      handed_out += base;
      fractional.emplace_back(exact - base, i);
    }
    std::sort(fractional.begin(), fractional.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    int leftover = remaining - handed_out;
    for (const auto& [frac, i] : fractional) {
      if (leftover <= 0) {
        break;
      }
      if (shares[i] < requests[i].demand) {
        ++shares[i];
        --leftover;
      }
    }
  }
  return shares;
}

}  // namespace rubberband
