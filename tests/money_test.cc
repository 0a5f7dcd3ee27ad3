#include "src/common/money.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

namespace rubberband {
namespace {

TEST(Money, DefaultIsZero) {
  Money m;
  EXPECT_EQ(m.micros(), 0);
  EXPECT_EQ(m.dollars(), 0.0);
}

TEST(Money, Constructors) {
  EXPECT_EQ(Money::FromMicros(1'230'000).dollars(), 1.23);
  EXPECT_EQ(Money::FromCents(123).micros(), 1'230'000);
  EXPECT_EQ(Money::FromDollars(1.23).micros(), 1'230'000);
  EXPECT_EQ(Money::FromDollars(-0.5).micros(), -500'000);
}

TEST(Money, Arithmetic) {
  const Money a = Money::FromCents(150);
  const Money b = Money::FromCents(50);
  EXPECT_EQ((a + b).micros(), Money::FromCents(200).micros());
  EXPECT_EQ((a - b).micros(), Money::FromCents(100).micros());
  EXPECT_EQ((-b).micros(), -500'000);

  Money c = a;
  c += b;
  EXPECT_EQ(c, Money::FromCents(200));
  c -= a;
  EXPECT_EQ(c, b);
}

TEST(Money, ScalingRoundsToNearestMicro) {
  const Money rate = Money::FromDollars(12.24);  // $/hour
  const Money per_second = rate * (1.0 / 3600.0);
  EXPECT_EQ(per_second.micros(), 3400);  // 12.24e6 / 3600 = 3400 exactly
  EXPECT_EQ((Money::FromMicros(10) * 0.25).micros(), 3);  // 2.5 rounds to 3
}

TEST(Money, RatioOfAmounts) {
  EXPECT_DOUBLE_EQ(Money::FromDollars(30.0) / Money::FromDollars(15.0), 2.0);
}

TEST(Money, Comparisons) {
  EXPECT_LT(Money::FromCents(99), Money::FromCents(100));
  EXPECT_GE(Money::FromCents(100), Money::FromCents(100));
  EXPECT_EQ(Money::FromDollars(1.0), Money::FromCents(100));
}

TEST(Money, ToStringRoundsToCents) {
  EXPECT_EQ(Money::FromDollars(12.344999).ToString(), "$12.34");
  EXPECT_EQ(Money::FromDollars(12.345001).ToString(), "$12.35");
  EXPECT_EQ(Money::FromDollars(-3.5).ToString(), "-$3.50");
  EXPECT_EQ(Money().ToString(), "$0.00");
  EXPECT_EQ(Money::FromDollars(1234.5).ToString(), "$1234.50");
}

TEST(Money, StreamOperator) {
  std::ostringstream os;
  os << Money::FromCents(1568);
  EXPECT_EQ(os.str(), "$15.68");
}

TEST(Money, NoDriftOverManySmallCharges) {
  // One month of per-second billing at $3.06/hr must price exactly.
  const Money per_second = Money::FromDollars(3.06) * (1.0 / 3600.0);
  Money total;
  for (int i = 0; i < 3600; ++i) {
    total += per_second;
  }
  EXPECT_EQ(total, Money::FromDollars(3.06));
}

// Money rounds inline, half away from zero; it must agree with
// std::llround on every input, including the ones where a naive
// x + copysign(0.5, x) truncation goes wrong.
std::vector<double> RoundingInputs() {
  std::vector<double> inputs = {0.0, -0.0};
  for (int k = 0; k <= 20; ++k) {
    inputs.push_back(k + 0.5);
    inputs.push_back(-(k + 0.5));
  }
  // The largest double below one half: x + 0.5 rounds up to 1.0.
  inputs.push_back(std::nextafter(0.5, 0.0));
  inputs.push_back(-std::nextafter(0.5, 0.0));
  inputs.push_back(std::nextafter(1.5, 0.0));
  inputs.push_back(std::nextafter(2.5, 3.0));
  // The neighbours of 2^51 .. 2^53 (where the spacing of doubles passes
  // one half, then one, then two) and of the 2^62 library fallback, up to
  // the most negative int64_t.
  for (double edge : {0x1p51, 0x1p52, 0x1p53, 0x1p62}) {
    for (double x : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 0x1p63)}) {
      inputs.push_back(x);
      inputs.push_back(-x);
    }
    inputs.push_back(edge - 0.5);
    inputs.push_back(-(edge - 0.5));
    inputs.push_back(edge + 1.0);
    inputs.push_back(-(edge + 1.0));
  }
  inputs.push_back(-0x1p63);
  // Seeded random doubles over every binade below 2^62, with half-integers.
  std::mt19937_64 engine(20261019);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int exponent = 0; exponent < 62; ++exponent) {
    for (int i = 0; i < 200; ++i) {
      const double x = std::ldexp(unit(engine), exponent);
      inputs.push_back(x);
      inputs.push_back(std::trunc(x) + std::copysign(0.5, x));
    }
  }
  return inputs;
}

TEST(MoneyRounding, MatchesLlroundOnEdgeAndRandomInputs) {
  for (double x : RoundingInputs()) {
    SCOPED_TRACE(testing::Message() << std::hexfloat << x);
    ASSERT_EQ((Money::FromMicros(1) * x).micros(), std::llround(x));
    ASSERT_EQ(Money::FromDollars(x / 1e6).micros(), std::llround(x / 1e6 * 1e6));
  }
}

TEST(MoneyRounding, ScalingAndDollarsMatchLlround) {
  // Billing-shaped products: micro-dollar rates times seconds, and dollar
  // amounts, over a seeded spread of magnitudes.
  std::mt19937_64 engine(7);
  std::uniform_int_distribution<int64_t> micros(-10'000'000'000, 10'000'000'000);
  std::uniform_real_distribution<double> factor(-1e4, 1e4);
  std::uniform_real_distribution<double> dollars(-1e6, 1e6);
  for (int i = 0; i < 100'000; ++i) {
    const int64_t m = micros(engine);
    const double f = factor(engine);
    ASSERT_EQ((Money::FromMicros(m) * f).micros(), std::llround(static_cast<double>(m) * f))
        << m << " * " << f;
    const double d = dollars(engine);
    ASSERT_EQ(Money::FromDollars(d).micros(), std::llround(d * 1e6)) << d;
  }
}

}  // namespace
}  // namespace rubberband
