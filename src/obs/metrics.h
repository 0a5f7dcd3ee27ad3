// Unified metrics registry: typed counters, gauges, and fixed-bucket
// histograms behind per-component scopes (cloud / planner / executor /
// service), replacing the ad-hoc counter fields that had accreted on
// every report struct.
//
// Design rules:
//   * One source of truth. Components record into registry handles; report
//     structs are *views* populated from a snapshot when the run settles.
//   * Names are bound where a metric is exported, not where it is counted,
//     on any per-job path. Executor and AshaEngine count into their
//     ExecutionReport's plain fields, the tuning service adds each finished
//     report into one JobMetricsSum (src/executor/job_metrics.h), and
//     JobMetricsSum::ExportTo names the values once per report or
//     MetricsNow (and once per standalone run). Registries are for
//     long-lived components (cloud, warm pool, service, server); per-job
//     histograms exist only in observe mode. The fleet replay's allocation
//     budget (tests/alloc_budget_test.cc: at most 200 heap allocations per
//     uniform SHA job, SubmitExperiment and Run together) fails if per-job
//     registries, snapshots or merges come back.
//   * Zero overhead when disabled. A scope over a disabled (or absent)
//     registry hands out null pointers, and the obs:: inline helpers make a
//     null handle a no-op — instrumentation costs one predictable branch.
//   * Deterministic. Recording never touches the simulation, its RNG, or
//     wall clocks, so metrics on/off cannot perturb a seeded run; snapshots
//     use sorted maps so JSON export is byte-stable for golden tests.
//   * Thread-safe. Handles are atomics (histogram buckets included), so
//     concurrent recorders — the parallel plan evaluator today, sharded
//     services tomorrow — need no external locking.
//
// Histograms record integer nanoseconds (Seconds are converted with
// llround) into fixed bucket bounds, which keeps merge exact: merging two
// snapshots is integer bucket addition, independent of recording order.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace rubberband {

// An up-down integer counter (negative deltas are allowed: the warm pool
// revokes a warm hit when the handed-over instance turns out to be gone).
class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A double-valued accumulator/level. Add() accumulates (seconds totals);
// Set() overwrites (utilization, $ per job).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  std::vector<int64_t> bounds_ns;  // inclusive upper bounds, ascending
  std::vector<int64_t> counts;     // bounds_ns.size() + 1; last = overflow
  int64_t count = 0;
  int64_t sum_ns = 0;

  double MeanSeconds() const { return count > 0 ? static_cast<double>(sum_ns) / count / 1e9 : 0.0; }

  // Bucket-wise addition; throws std::invalid_argument on mismatched
  // bounds. Integer adds make the merge exact and order-independent.
  void Merge(const HistogramSnapshot& other);

  // Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  // bucket holding the q-th sample; 0 on an empty histogram. Values landing
  // in the overflow bucket report the highest finite bound (a lower bound
  // on the true quantile — size the buckets to cover the expected range).
  double QuantileNs(double q) const;

  bool operator==(const HistogramSnapshot& other) const = default;
};

// Fixed-bucket latency histogram with integer-nanosecond recording.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds_ns);

  void RecordNanos(int64_t nanos);
  void RecordSeconds(Seconds seconds) { RecordNanos(llround(seconds * 1e9)); }

  const std::vector<int64_t>& bounds_ns() const { return bounds_ns_; }
  HistogramSnapshot Snapshot() const;

 private:
  std::vector<int64_t> bounds_ns_;
  std::vector<std::atomic<int64_t>> counts_;  // bounds_ns_.size() + 1
  // No separate total-count atomic: the snapshot derives it from the bucket
  // sums, keeping the record path at two relaxed RMWs.
  std::atomic<int64_t> sum_ns_{0};
};

// Default latency buckets: 1ms .. ~1h in roughly 4x steps (simulated
// latencies span checkpoint transfers to multi-minute provisioning waits).
const std::vector<int64_t>& DefaultLatencyBucketsNs();

// Fine-grained wall-clock buckets: 1us .. ~4s in 2x steps. The serving
// front door records real (not simulated) submit→decision latencies, which
// live three orders of magnitude below the simulated-latency buckets.
const std::vector<int64_t>& FineLatencyBucketsNs();

// A point-in-time copy of a registry (or a merge of several), keyed by
// full metric name. Sorted maps make ToJson deterministic.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  // The named counter or gauge; 0 when absent (a family nothing recorded).
  int64_t CounterOr0(const std::string& name) const;
  double GaugeOr0(const std::string& name) const;

  // Adds `other` into this snapshot: counters and histograms add exactly,
  // gauges add as accumulators.
  void Merge(const MetricsSnapshot& other);

  // {"counters": {...}, "gauges": {...}, "histograms": {name:
  // {"bounds_ns": [...], "counts": [...], "count": n, "sum_ns": n}}}.
  std::string ToJson() const;
};

class MetricsRegistry;

// A prefix-named view of a registry ("executor", "cloud.warm", ...).
// Handles are nullable: a default-constructed scope (or one over a
// disabled registry) returns nullptr everywhere, which the obs:: helpers
// below turn into no-ops.
class MetricsScope {
 public:
  MetricsScope() = default;
  MetricsScope(MetricsRegistry* registry, std::string prefix);

  Counter* GetCounter(const std::string& name) const;
  Gauge* GetGauge(const std::string& name) const;
  Histogram* GetHistogram(const std::string& name) const;  // default buckets
  Histogram* GetHistogram(const std::string& name, const std::vector<int64_t>& bounds_ns) const;

  MetricsScope Sub(const std::string& component) const;
  bool live() const;

 private:
  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;  // includes the trailing '.' when non-empty
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }

  MetricsScope scope(const std::string& component) { return MetricsScope(this, component); }

  // Find-or-create by full name. Returned pointers are stable for the
  // registry's lifetime. GetHistogram throws std::invalid_argument when an
  // existing histogram was registered with different bounds.
  Counter* GetCounter(const std::string& full_name);
  Gauge* GetGauge(const std::string& full_name);
  Histogram* GetHistogram(const std::string& full_name, const std::vector<int64_t>& bounds_ns);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Null-safe recording helpers: the disabled path is one branch.
namespace obs {
inline void Inc(Counter* counter, int64_t delta = 1) {
  if (counter != nullptr) {
    counter->Add(delta);
  }
}
inline void Add(Gauge* gauge, double delta) {
  if (gauge != nullptr) {
    gauge->Add(delta);
  }
}
inline void Set(Gauge* gauge, double value) {
  if (gauge != nullptr) {
    gauge->Set(value);
  }
}
inline void ObserveSeconds(Histogram* histogram, Seconds seconds) {
  if (histogram != nullptr) {
    histogram->RecordSeconds(seconds);
  }
}
inline void ObserveNanos(Histogram* histogram, int64_t nanos) {
  if (histogram != nullptr) {
    histogram->RecordNanos(nanos);
  }
}
}  // namespace obs

}  // namespace rubberband

#endif  // SRC_OBS_METRICS_H_
