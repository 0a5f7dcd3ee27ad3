// StragglerDetector: observation-driven gray-failure detection.
//
// A persistently slow instance (degraded disk, thermal throttling, a noisy
// neighbour) does not crash — it quietly taxes every gang-synchronous
// iteration it participates in. The detector consumes exactly one signal:
// per-instance iteration latencies, normalized by the trial's expected
// (noise-free) iteration latency, reported at gang-sync boundaries. It has
// no access to the fault injector, the cloud's ground-truth slowdown tags,
// or anything else an oracle would use — deliberately, so the detection
// path exercised in simulation is the one a real deployment could run.
//
// Mechanism: each instance carries an EWMA of its normalized latencies.
// The healthy baseline is the median EWMA across all tracked instances
// (robust: up to half the fleet can straggle without dragging the baseline
// up). An instance is flagged when its EWMA exceeds baseline x threshold
// for k consecutive syncs, after a minimum warmup of observations —
// one-sided hysteresis that keeps transient noise spikes (which revert
// within a sync or two) from triggering quarantine.

#ifndef SRC_EXECUTOR_STRAGGLER_DETECTOR_H_
#define SRC_EXECUTOR_STRAGGLER_DETECTOR_H_

#include <cstdint>
#include <map>

#include "src/cloud/instance_source.h"

namespace rubberband {

struct StragglerDetectorConfig {
  // Warmup: an instance is flagged only once it has at least this many
  // observations (see the criterion below).
  int min_observations = 4;
};

class StragglerDetector {
 public:
  // EWMA smoothing weight of the newest observation.
  static constexpr double kEwmaAlpha = 0.3;
  // Flag when ewma > median_ewma * kThreshold ...
  static constexpr double kThreshold = 1.5;
  // ... for this many consecutive syncs, once the instance has at least
  // the config's min_observations (warmup), ...
  static constexpr int kConsecutiveSyncs = 3;
  // ... while at least this many instances are tracked (no meaningful
  // median baseline exists below two).
  static constexpr int kMinInstances = 2;

  explicit StragglerDetector(StragglerDetectorConfig config) : config_(config) {}

  // Records one normalized iteration latency (observed / expected) for the
  // instance. Returns true exactly when this observation crosses the
  // flagging criterion — i.e. once per flagged instance, on the sync that
  // condemns it. Already-flagged instances keep returning false.
  bool Observe(InstanceId id, double normalized_latency);

  // Drops all state for an instance (terminated, quarantined, released).
  void Forget(InstanceId id);

  bool IsFlagged(InstanceId id) const;
  // Current EWMA of an instance (0 if untracked).
  double Ewma(InstanceId id) const;
  // Median EWMA across tracked instances (the healthy baseline; 0 if empty).
  double Baseline() const;
  // Observations the instance had accumulated when it was flagged (the
  // detection latency in syncs); 0 if never flagged.
  int ObservationsAtFlag(InstanceId id) const;

  int num_tracked() const { return static_cast<int>(tracked_.size()); }
  int num_flagged() const { return num_flagged_; }

 private:
  struct Track {
    double ewma = 0.0;
    int observations = 0;
    int consecutive_over = 0;
    bool flagged = false;
    int observations_at_flag = 0;
  };

  StragglerDetectorConfig config_;
  std::map<InstanceId, Track> tracked_;
  int num_flagged_ = 0;
};

}  // namespace rubberband

#endif  // SRC_EXECUTOR_STRAGGLER_DETECTOR_H_
