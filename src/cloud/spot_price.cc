#include "src/cloud/spot_price.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rubberband {

SpotPriceTrace::SpotPriceTrace(const SpotMarket& market, Rng rng)
    : market_(market), rng_(std::move(rng)) {
  breakpoints_.emplace_back(0.0, 1.0);
}

double SpotPriceTrace::Step(Seconds now) {
  if (now < breakpoints_.back().first) {
    throw std::logic_error("spot price trace stepped backwards in time");
  }
  if (rng_.Uniform(0.0, 1.0) < kRegimeFlipProbability) {
    turbulent_ = !turbulent_;
  }
  // Turbulent regime: larger steps with an upward drift — the shape of a
  // capacity crunch, where the spot price climbs toward on-demand.
  const double scale = market_.volatility * (turbulent_ ? 3.0 : 1.0);
  const double drift = turbulent_ ? market_.volatility : 0.0;
  double multiplier = breakpoints_.back().second * std::exp(rng_.Normal(drift, scale));
  multiplier = std::clamp(multiplier, kPriceFloor, kPriceCap);
  breakpoints_.emplace_back(now, multiplier);
  return multiplier;
}

double SpotPriceTrace::MultiplierAt(Seconds t) const {
  // Last breakpoint with effective-from <= t.
  auto it = std::upper_bound(
      breakpoints_.begin(), breakpoints_.end(), t,
      [](Seconds lhs, const std::pair<Seconds, double>& rhs) { return lhs < rhs.first; });
  if (it == breakpoints_.begin()) {
    return breakpoints_.front().second;
  }
  return std::prev(it)->second;
}

double SpotPriceTrace::AverageOver(Seconds a, Seconds b) const {
  if (b <= a) {
    return MultiplierAt(a);
  }
  double integral = 0.0;
  Seconds cursor = a;
  double level = MultiplierAt(a);
  for (const auto& [since, multiplier] : breakpoints_) {
    if (since <= cursor) {
      level = multiplier;
      continue;
    }
    if (since >= b) {
      break;
    }
    integral += level * (since - cursor);
    cursor = since;
    level = multiplier;
  }
  integral += level * (b - cursor);
  return integral / (b - a);
}

}  // namespace rubberband
