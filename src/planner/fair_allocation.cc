// Fair-allocation arithmetic: the step sizes of the planners' searches.
// A fair allocation is a factor or a multiple of the stage's trial count,
// so GPUs always divide evenly among running trials.

#include <algorithm>

#include "src/planner/planner.h"

namespace rubberband {

int NextLowerFairAllocation(int current, int trials) {
  if (current <= 1) {
    return 0;
  }
  if (current > trials) {
    // Multiples of `trials`: step down to the next lower multiple (or to
    // `trials` itself if current was not aligned).
    const int lower = ((current - 1) / trials) * trials;
    return std::max(lower, trials);
  }
  // current <= trials: largest divisor of `trials` strictly below current.
  for (int v = current - 1; v >= 1; --v) {
    if (trials % v == 0) {
      return v;
    }
  }
  return 0;
}

int NextHigherFairAllocation(int current, int trials) {
  if (current < 1) {
    return 1;
  }
  if (current >= trials) {
    return ((current / trials) + 1) * trials;
  }
  for (int v = current + 1; v <= trials; ++v) {
    if (trials % v == 0) {
      return v;
    }
  }
  return 2 * trials;
}

int FairFloorAllocation(int value, int trials) {
  if (value < 1) {
    return 0;
  }
  if (value >= trials) {
    return (value / trials) * trials;
  }
  for (int v = value; v >= 1; --v) {
    if (trials % v == 0) {
      return v;
    }
  }
  return 0;
}

int RoundUpToFairAllocation(int value, int trials) {
  value = std::max(value, 1);
  if (value >= trials) {
    return ((value + trials - 1) / trials) * trials;
  }
  for (int v = value; v <= trials; ++v) {
    if (trials % v == 0) {
      return v;
    }
  }
  return trials;
}

}  // namespace rubberband
