#include "src/common/distribution.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rubberband {
namespace {

// Standard normal pdf / cdf, used for the truncated-normal mean.
double NormalPdf(double x) { return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI); }
double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace

Distribution Distribution::Constant(double value) {
  return Distribution(Kind::kConstant, value, 0.0, 0.0);
}

Distribution Distribution::TruncatedNormal(double mean, double stddev, double min) {
  return Distribution(Kind::kTruncatedNormal, mean, stddev, min);
}

Distribution Distribution::LogNormal(double log_mean, double log_stddev) {
  return Distribution(Kind::kLogNormal, log_mean, log_stddev, 0.0);
}

Distribution Distribution::Exponential(double mean) {
  return Distribution(Kind::kExponential, mean, 0.0, 0.0);
}

Distribution Distribution::Uniform(double lo, double hi) {
  return Distribution(Kind::kUniform, lo, hi, 0.0);
}

Distribution Distribution::Empirical(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("Empirical distribution requires at least one sample");
  }
  return Distribution(std::move(samples));
}

Distribution::Distribution(std::vector<double> samples)
    : kind_(Kind::kEmpirical), samples_(std::move(samples)) {}

double Distribution::SampleOutOfLine(Rng& rng) const {
  switch (kind_) {
    case Kind::kConstant:
    case Kind::kTruncatedNormal:
      return Sample(rng);  // inline in the header
    case Kind::kLogNormal:
      return rng.LogNormal(a_, b_);
    case Kind::kExponential:
      return rng.Exponential(a_);
    case Kind::kUniform:
      return rng.Uniform(a_, b_);
    case Kind::kEmpirical:
      return samples_[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(samples_.size()) - 1))];
  }
  return 0.0;
}

double Distribution::Mean() const {
  switch (kind_) {
    case Kind::kConstant:
      return a_;
    case Kind::kTruncatedNormal: {
      if (b_ <= 0.0) {
        return std::max(a_, c_);
      }
      const double alpha = (c_ - a_) / b_;
      const double z = 1.0 - NormalCdf(alpha);
      if (z <= 1e-12) {
        return c_;
      }
      return a_ + b_ * NormalPdf(alpha) / z;
    }
    case Kind::kLogNormal:
      return std::exp(a_ + 0.5 * b_ * b_);
    case Kind::kExponential:
      return a_;
    case Kind::kUniform:
      return 0.5 * (a_ + b_);
    case Kind::kEmpirical:
      return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
             static_cast<double>(samples_.size());
  }
  return 0.0;
}

double Distribution::StdDev() const {
  switch (kind_) {
    case Kind::kConstant:
      return 0.0;
    case Kind::kTruncatedNormal:
      return b_;
    case Kind::kLogNormal: {
      const double v = (std::exp(b_ * b_) - 1.0) * std::exp(2.0 * a_ + b_ * b_);
      return std::sqrt(v);
    }
    case Kind::kExponential:
      return a_;
    case Kind::kUniform:
      return (b_ - a_) / std::sqrt(12.0);
    case Kind::kEmpirical: {
      if (samples_.size() < 2) {
        return 0.0;
      }
      const double mean = Mean();
      double m2 = 0.0;
      for (double s : samples_) {
        m2 += (s - mean) * (s - mean);
      }
      return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
    }
  }
  return 0.0;
}

Distribution Distribution::Scaled(double factor) const {
  if (factor <= 0.0) {
    throw std::invalid_argument("scale factor must be positive");
  }
  switch (kind_) {
    case Kind::kConstant:
      return Constant(a_ * factor);
    case Kind::kTruncatedNormal:
      return TruncatedNormal(a_ * factor, b_ * factor, c_ * factor);
    case Kind::kLogNormal:
      return LogNormal(a_ + std::log(factor), b_);
    case Kind::kExponential:
      return Exponential(a_ * factor);
    case Kind::kUniform:
      return Uniform(a_ * factor, b_ * factor);
    case Kind::kEmpirical: {
      std::vector<double> scaled = samples_;
      for (double& s : scaled) {
        s *= factor;
      }
      return Empirical(std::move(scaled));
    }
  }
  return Constant(0.0);
}

}  // namespace rubberband
