// Exact-arithmetic money type.
//
// Cloud billing math (per-second rates, 60-second minimum charges, per-GB
// ingress fees) accumulates many small charges; representing money as a
// floating-point dollar amount drifts. Money stores micro-dollars in a
// 64-bit integer, which is exact for every charge the simulator produces and
// has ~9.2e12 dollars of headroom.

#ifndef SRC_COMMON_MONEY_H_
#define SRC_COMMON_MONEY_H_

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rubberband {

class Money {
 public:
  constexpr Money() = default;

  static constexpr Money FromMicros(int64_t micros) { return Money(micros); }
  static constexpr Money FromCents(int64_t cents) { return Money(cents * 10'000); }
  // Rounds to the nearest micro-dollar, half away from zero.
  static Money FromDollars(double dollars) {
    return Money(RoundToMicros(dollars * 1e6));
  }

  constexpr int64_t micros() const { return micros_; }
  double dollars() const { return static_cast<double>(micros_) / 1e6; }

  // Renders as e.g. "$12.34" (rounded to cents, half away from zero).
  std::string ToString() const;

  constexpr Money operator+(Money other) const { return Money(micros_ + other.micros_); }
  constexpr Money operator-(Money other) const { return Money(micros_ - other.micros_); }
  constexpr Money operator-() const { return Money(-micros_); }
  constexpr Money& operator+=(Money other) {
    micros_ += other.micros_;
    return *this;
  }
  constexpr Money& operator-=(Money other) {
    micros_ -= other.micros_;
    return *this;
  }

  // Scaling by a dimensionless factor (e.g. rate * seconds). Rounds to the
  // nearest micro-dollar, half away from zero.
  Money operator*(double factor) const {
    return Money(RoundToMicros(static_cast<double>(micros_) * factor));
  }
  Money& operator*=(double factor) {
    *this = *this * factor;
    return *this;
  }

  // Ratio of two amounts (e.g. cost improvement factors).
  double operator/(Money other) const {
    return static_cast<double>(micros_) / static_cast<double>(other.micros_);
  }

  constexpr auto operator<=>(const Money&) const = default;

 private:
  explicit constexpr Money(int64_t micros) : micros_(micros) {}

  // Rounds half away from zero, bit for bit as std::llround, without the
  // libm call: the planner's sample composer rounds every billed interval,
  // and the call was the hottest symbol of its profile. Below 2^62 the
  // truncation fits int64_t and x - trunc(x) is exact (a double's
  // fractional part always is), so stepping by one at |fraction| >= 0.5 is
  // exact rounding; larger magnitudes and non-finite input take
  // std::llround.
  static int64_t RoundToMicros(double x) {
    if (!(std::fabs(x) < 0x1p62)) {
      return static_cast<int64_t>(std::llround(x));
    }
    const int64_t truncated = static_cast<int64_t>(x);
    const double fraction = x - static_cast<double>(truncated);
    if (fraction >= 0.5) {
      return truncated + 1;
    }
    if (fraction <= -0.5) {
      return truncated - 1;
    }
    return truncated;
  }

  int64_t micros_ = 0;
};

std::ostream& operator<<(std::ostream& os, Money money);

inline Money operator*(double factor, Money money) { return money * factor; }

}  // namespace rubberband

#endif  // SRC_COMMON_MONEY_H_
