#include "src/executor/straggler_detector.h"

#include <algorithm>
#include <vector>

namespace rubberband {

bool StragglerDetector::Observe(InstanceId id, double normalized_latency) {
  Track& track = tracked_[id];
  // Seed the EWMA with the first observation instead of zero so warmup does
  // not spend min_observations syncs climbing out of an artificial hole.
  track.ewma = track.observations == 0
                   ? normalized_latency
                   : kEwmaAlpha * normalized_latency +
                         (1.0 - kEwmaAlpha) * track.ewma;
  ++track.observations;
  if (track.flagged) {
    return false;
  }
  const double baseline = Baseline();
  const bool over = num_tracked() >= kMinInstances && baseline > 0.0 &&
                    track.ewma > baseline * kThreshold;
  track.consecutive_over = over ? track.consecutive_over + 1 : 0;
  if (track.consecutive_over >= kConsecutiveSyncs &&
      track.observations >= config_.min_observations) {
    track.flagged = true;
    track.observations_at_flag = track.observations;
    ++num_flagged_;
    return true;
  }
  return false;
}

void StragglerDetector::Forget(InstanceId id) { tracked_.erase(id); }

bool StragglerDetector::IsFlagged(InstanceId id) const {
  auto it = tracked_.find(id);
  return it != tracked_.end() && it->second.flagged;
}

double StragglerDetector::Ewma(InstanceId id) const {
  auto it = tracked_.find(id);
  return it == tracked_.end() ? 0.0 : it->second.ewma;
}

double StragglerDetector::Baseline() const {
  if (tracked_.empty()) {
    return 0.0;
  }
  std::vector<double> ewmas;
  ewmas.reserve(tracked_.size());
  for (const auto& [id, track] : tracked_) {
    ewmas.push_back(track.ewma);
  }
  // Lower median: with an even count this biases the baseline down, which
  // biases detection toward flagging — the conservative direction for a
  // mitigation bounded by an explicit quarantine budget.
  const size_t mid = (ewmas.size() - 1) / 2;
  std::nth_element(ewmas.begin(), ewmas.begin() + static_cast<long>(mid), ewmas.end());
  return ewmas[mid];
}

int StragglerDetector::ObservationsAtFlag(InstanceId id) const {
  auto it = tracked_.find(id);
  return it == tracked_.end() ? 0 : it->second.observations_at_flag;
}

}  // namespace rubberband
