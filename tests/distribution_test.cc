#include "src/common/distribution.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/common/stats.h"

namespace rubberband {
namespace {

// Draws n samples and returns their running stats.
RunningStats SampleStats(const Distribution& dist, int n = 20'000, uint64_t seed = 7) {
  Rng rng(seed);
  RunningStats stats;
  for (int i = 0; i < n; ++i) {
    stats.Add(dist.Sample(rng));
  }
  return stats;
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, ForkDecorrelatesSiblings) {
  Rng parent(42);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Distinct streams: first draws differ.
  EXPECT_NE(child1.Uniform(0, 1), child2.Uniform(0, 1));
}

TEST(Rng, UniformIntIsInclusive) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Distribution, ConstantAlwaysSameValue) {
  const Distribution d = Distribution::Constant(4.2);
  Rng rng(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d.Sample(rng), 4.2);
  }
  EXPECT_DOUBLE_EQ(d.Mean(), 4.2);
  EXPECT_DOUBLE_EQ(d.StdDev(), 0.0);
}

TEST(Distribution, TruncatedNormalRespectsFloor) {
  // Paper's worst straggler setting: mean 4, sigma 10 — heavy truncation.
  const Distribution d = Distribution::TruncatedNormal(4.0, 10.0, 0.0);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(d.Sample(rng), 0.0);
  }
  // Truncated mean is above the untruncated mean.
  EXPECT_GT(d.Mean(), 4.0);
  const RunningStats stats = SampleStats(d);
  EXPECT_NEAR(stats.mean(), d.Mean(), 0.15);
}

// A truncation point no draw reaches: the sampler gives up after exactly
// 1000 normals and returns the point, so the stream continues where 1000
// normals leave it, on a fresh engine and on a recorded tape alike.
TEST(Distribution, TruncatedNormalGivesUpAfterExactly1000Draws) {
  const Distribution unreachable = Distribution::TruncatedNormal(0.0, 1.0, 100.0);
  Rng reference = Rng::ForStream(5, 6, 0);
  for (int i = 0; i < 1000; ++i) {
    reference.Normal(0.0, 1.0);
  }
  const double next = reference.Uniform(0.0, 1.0);

  Rng fresh = Rng::ForStream(5, 6, 0);
  EXPECT_EQ(unreachable.Sample(fresh), 100.0);
  EXPECT_EQ(fresh.Uniform(0.0, 1.0), next);

  for (int pass = 0; pass < 2; ++pass) {  // the second pass reads memoized decodes
    Rng replay(Rng::RecordedStreams(5, 6, 1)[0]);
    EXPECT_EQ(unreachable.Sample(replay), 100.0);
    EXPECT_EQ(replay.Uniform(0.0, 1.0), next);
  }
}

TEST(Distribution, TruncatedNormalMildTruncationMatchesNormal) {
  const Distribution d = Distribution::TruncatedNormal(100.0, 5.0, 0.0);
  EXPECT_NEAR(d.Mean(), 100.0, 1e-6);
  EXPECT_NEAR(d.StdDev(), 5.0, 1e-9);
  const RunningStats stats = SampleStats(d);
  EXPECT_NEAR(stats.mean(), 100.0, 0.2);
  EXPECT_NEAR(stats.stddev(), 5.0, 0.2);
}

TEST(Distribution, ExponentialMean) {
  const Distribution d = Distribution::Exponential(7.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 7.0);
  EXPECT_DOUBLE_EQ(d.StdDev(), 7.0);
  EXPECT_NEAR(SampleStats(d).mean(), 7.0, 0.25);
}

TEST(Distribution, UniformMeanAndBounds) {
  const Distribution d = Distribution::Uniform(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 4.0);
  EXPECT_NEAR(d.StdDev(), 4.0 / std::sqrt(12.0), 1e-12);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.Sample(rng);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(Distribution, LogNormalMean) {
  const Distribution d = Distribution::LogNormal(1.0, 0.5);
  EXPECT_NEAR(d.Mean(), std::exp(1.0 + 0.125), 1e-9);
  EXPECT_NEAR(SampleStats(d, 100'000).mean(), d.Mean(), 0.05);
}

TEST(Distribution, EmpiricalResamplesObservedValues) {
  const Distribution d = Distribution::Empirical({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d.Mean(), 2.0);
  EXPECT_NEAR(d.StdDev(), 1.0, 1e-12);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const double v = d.Sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0);
  }
}

TEST(Distribution, EmpiricalRejectsEmpty) {
  EXPECT_THROW(Distribution::Empirical({}), std::invalid_argument);
}

TEST(Distribution, ScaledScalesMeanLinearly) {
  for (const Distribution& d :
       {Distribution::Constant(3.0), Distribution::TruncatedNormal(10.0, 2.0, 0.0),
        Distribution::Exponential(4.0), Distribution::Uniform(1.0, 3.0),
        Distribution::LogNormal(0.5, 0.3), Distribution::Empirical({2.0, 4.0})}) {
    EXPECT_NEAR(d.Scaled(0.5).Mean(), 0.5 * d.Mean(), 1e-9);
    EXPECT_NEAR(d.Scaled(3.0).Mean(), 3.0 * d.Mean(), 1e-9);
  }
}

TEST(Distribution, ScaledRejectsNonPositive) {
  EXPECT_THROW(Distribution::Constant(1.0).Scaled(0.0), std::invalid_argument);
  EXPECT_THROW(Distribution::Constant(1.0).Scaled(-2.0), std::invalid_argument);
}

}  // namespace
}  // namespace rubberband
