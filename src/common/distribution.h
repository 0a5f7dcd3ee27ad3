// Latency distributions.
//
// Every node in the execution DAG (SCALE, INIT_INSTANCE, TRAIN, SYNC) has a
// latency distribution attached (paper section 4.2); the profiler fits these
// from instrumentation samples. Distribution is a small value type covering
// the shapes the paper needs: constants for deterministic overheads,
// (truncated) normals for straggler studies, lognormals/exponentials for
// provisioning delay, and empirical bags of profiled samples.

#ifndef SRC_COMMON_DISTRIBUTION_H_
#define SRC_COMMON_DISTRIBUTION_H_

#include <vector>

#include "src/common/rng.h"

namespace rubberband {

class Distribution {
 public:
  // A point mass at `value`.
  static Distribution Constant(double value);

  // Normal(mean, stddev) truncated below at `min` (latencies cannot be
  // negative; the paper's straggler sweep pushes sigma to 10 with mean 4).
  static Distribution TruncatedNormal(double mean, double stddev, double min = 0.0);

  static Distribution LogNormal(double log_mean, double log_stddev);

  static Distribution Exponential(double mean);

  static Distribution Uniform(double lo, double hi);

  // Resamples uniformly from observed values; used by the profiler.
  static Distribution Empirical(std::vector<double> samples);

  // The constant and truncated-normal cases, which the planner's stage
  // sampling draws from most, are inline; the rest are out of line.
  double Sample(Rng& rng) const {
    switch (kind_) {
      case Kind::kConstant:
        return a_;
      case Kind::kTruncatedNormal:
        // Rejection sampling; the truncation point is at or below the mean
        // in all our uses, so acceptance is >= 0.5 and this terminates
        // quickly. After 1000 rejections it returns the truncation point.
        for (int attempt = 0; attempt < 1000; ++attempt) {
          const double x = rng.Normal(a_, b_);
          if (x >= c_) {
            return x;
          }
        }
        return c_;
      default:
        return SampleOutOfLine(rng);
    }
  }

  // Analytic mean where available; sample mean for Empirical. For the
  // truncated normal this is the mean of the *truncated* distribution.
  double Mean() const;

  // Standard deviation (analytic where available; sample stddev for
  // Empirical; untruncated stddev for TruncatedNormal, a small upward bias
  // accepted for simplicity).
  double StdDev() const;

  // Scales the distribution by a positive factor (latency at k GPUs =
  // single-GPU latency scaled by the inverse speedup).
  Distribution Scaled(double factor) const;

 private:
  enum class Kind { kConstant, kTruncatedNormal, kLogNormal, kExponential, kUniform, kEmpirical };

  Distribution(Kind kind, double a, double b, double c) : kind_(kind), a_(a), b_(b), c_(c) {}
  explicit Distribution(std::vector<double> samples);

  // Sample() for the lognormal, exponential, uniform and empirical kinds.
  double SampleOutOfLine(Rng& rng) const;

  Kind kind_;
  double a_ = 0.0;  // constant value | mean | log_mean | mean | lo
  double b_ = 0.0;  // - | stddev | log_stddev | - | hi
  double c_ = 0.0;  // - | truncation min | - | - | -
  std::vector<double> samples_;
};

}  // namespace rubberband

#endif  // SRC_COMMON_DISTRIBUTION_H_
