// SpotPriceTrace: deterministic time-varying spot price multiplier.
//
// The trace is a regime-switching multiplicative random walk (calm vs
// turbulent, flipping with kRegimeFlipProbability per step) advanced by the
// cloud's market clock. It remembers every breakpoint it produced, so
// billing can integrate the exact piecewise-constant price over an
// instance's lifetime instead of sampling it at termination — two instances
// covering the same interval always pay the same rate.

#ifndef SRC_CLOUD_SPOT_PRICE_H_
#define SRC_CLOUD_SPOT_PRICE_H_

#include <utility>
#include <vector>

#include "src/cloud/pricing.h"
#include "src/common/rng.h"
#include "src/common/time.h"

namespace rubberband {

class SpotPriceTrace {
 public:
  // Every step clamps the multiplier to [kPriceFloor, kPriceCap].
  static constexpr double kPriceFloor = 0.5;
  static constexpr double kPriceCap = 2.5;
  // Per-step probability of flipping between the calm and turbulent regime.
  static constexpr double kRegimeFlipProbability = 0.05;

  SpotPriceTrace(const SpotMarket& market, Rng rng);

  // Advances the walk by one step taking effect at `now` (which must not
  // precede the previous breakpoint) and returns the new multiplier.
  double Step(Seconds now);

  // The multiplier currently in effect (after the latest Step).
  double current() const { return breakpoints_.back().second; }

  // The multiplier in effect at time `t`.
  double MultiplierAt(Seconds t) const;

  // Time-weighted average multiplier over [a, b] — the exact integral of
  // the piecewise-constant trace, used to price a billing interval.
  double AverageOver(Seconds a, Seconds b) const;

  int num_steps() const { return static_cast<int>(breakpoints_.size()) - 1; }

 private:
  SpotMarket market_;
  Rng rng_;
  bool turbulent_ = false;
  // (effective-from time, multiplier), ascending; starts at (0, 1.0).
  std::vector<std::pair<Seconds, double>> breakpoints_;
};

}  // namespace rubberband

#endif  // SRC_CLOUD_SPOT_PRICE_H_
