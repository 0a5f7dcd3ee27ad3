#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/obs/json.h"

namespace rubberband {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0 && other.counts.empty()) {
    return;
  }
  if (counts.empty()) {
    *this = other;
    return;
  }
  if (bounds_ns != other.bounds_ns) {
    throw std::invalid_argument("merging histograms with mismatched bucket bounds");
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum_ns += other.sum_ns;
}

Histogram::Histogram(std::vector<int64_t> bounds_ns)
    : bounds_ns_(std::move(bounds_ns)), counts_(bounds_ns_.size() + 1) {
  if (!std::is_sorted(bounds_ns_.begin(), bounds_ns_.end())) {
    throw std::invalid_argument("histogram bucket bounds must be ascending");
  }
}

void Histogram::RecordNanos(int64_t nanos) {
  const auto it = std::lower_bound(bounds_ns_.begin(), bounds_ns_.end(), nanos);
  counts_[static_cast<size_t>(it - bounds_ns_.begin())].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds_ns = bounds_ns_;
  snapshot.counts.reserve(counts_.size());
  for (const std::atomic<int64_t>& bucket : counts_) {
    const int64_t bucket_count = bucket.load(std::memory_order_relaxed);
    snapshot.counts.push_back(bucket_count);
    snapshot.count += bucket_count;
  }
  snapshot.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  return snapshot;
}

const std::vector<int64_t>& DefaultLatencyBucketsNs() {
  static const std::vector<int64_t> kBounds = [] {
    std::vector<int64_t> bounds;
    for (int64_t bound = 1'000'000; bound <= 5'000'000'000'000; bound *= 4) {
      bounds.push_back(bound);  // 1ms, 4ms, ..., ~70min
    }
    return bounds;
  }();
  return kBounds;
}

const std::vector<int64_t>& FineLatencyBucketsNs() {
  static const std::vector<int64_t> kBounds = [] {
    std::vector<int64_t> bounds;
    for (int64_t bound = 1'000; bound <= 4'000'000'000; bound *= 2) {
      bounds.push_back(bound);  // 1us, 2us, ..., ~4s
    }
    return bounds;
  }();
  return kBounds;
}

double HistogramSnapshot::QuantileNs(double q) const {
  if (count <= 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const int64_t in_bucket = counts[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i >= bounds_ns.size()) {
        return static_cast<double>(bounds_ns.empty() ? 0 : bounds_ns.back());
      }
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds_ns[i - 1]);
      const double upper = static_cast<double>(bounds_ns[i]);
      const double fraction =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds_ns.empty() ? 0 : bounds_ns.back());
}

int64_t MetricsSnapshot::CounterOr0(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::GaugeOr0(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, histogram] : other.histograms) {
    histograms[name].Merge(histogram);
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << value;
    first = false;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": " << FormatDouble(value);
    first = false;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": {\"bounds_ns\": [";
    for (size_t i = 0; i < histogram.bounds_ns.size(); ++i) {
      os << (i > 0 ? "," : "") << histogram.bounds_ns[i];
    }
    os << "], \"counts\": [";
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      os << (i > 0 ? "," : "") << histogram.counts[i];
    }
    os << "], \"count\": " << histogram.count << ", \"sum_ns\": " << histogram.sum_ns << "}";
    first = false;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

MetricsScope::MetricsScope(MetricsRegistry* registry, std::string prefix)
    : registry_(registry), prefix_(prefix.empty() ? "" : prefix + ".") {}

bool MetricsScope::live() const { return registry_ != nullptr && registry_->enabled(); }

Counter* MetricsScope::GetCounter(const std::string& name) const {
  return live() ? registry_->GetCounter(prefix_ + name) : nullptr;
}

Gauge* MetricsScope::GetGauge(const std::string& name) const {
  return live() ? registry_->GetGauge(prefix_ + name) : nullptr;
}

Histogram* MetricsScope::GetHistogram(const std::string& name) const {
  return GetHistogram(name, DefaultLatencyBucketsNs());
}

Histogram* MetricsScope::GetHistogram(const std::string& name,
                                      const std::vector<int64_t>& bounds_ns) const {
  return live() ? registry_->GetHistogram(prefix_ + name, bounds_ns) : nullptr;
}

MetricsScope MetricsScope::Sub(const std::string& component) const {
  MetricsScope sub;
  sub.registry_ = registry_;
  sub.prefix_ = prefix_ + component + ".";
  return sub;
}

Counter* MetricsRegistry::GetCounter(const std::string& full_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[full_name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& full_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[full_name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& full_name,
                                         const std::vector<int64_t>& bounds_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[full_name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(bounds_ns);
  } else if (slot->bounds_ns() != bounds_ns) {
    throw std::invalid_argument("histogram '" + full_name +
                                "' already registered with different bounds");
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

}  // namespace rubberband
