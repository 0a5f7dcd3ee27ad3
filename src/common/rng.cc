#include "src/common/rng.h"

#include <algorithm>
#include <random>

namespace rubberband {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura), the same as the standard
// library's 64-bit Mersenne Twister.
constexpr int kShift = 156;  // m
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;

uint64_t Twist(uint64_t far, uint64_t word, uint64_t next) {
  const uint64_t y = (word & kUpperMask) | (next & ~kUpperMask);
  return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

}  // namespace

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) {
  if (this != &other) {
    std::copy(other.x_, other.x_ + other.seeded_, x_);
    seeded_ = other.seeded_;
    twisted_ = other.twisted_;
    pos_ = other.pos_;
  }
  return *this;
}

void Mt19937_64::Advance() {
  if (twisted_ < kN) {
    // First block: seed as far as word k's twist reads, then twist it in
    // place. Words past k are still seed values and words before it are
    // already twisted — exactly what a whole-block refill sees at step k.
    const int k = twisted_;
    for (const int need = std::min(k + kShift + 1, kN); seeded_ < need; ++seeded_) {
      const uint64_t prev = x_[seeded_ - 1];
      x_[seeded_] = kSeedMultiplier * (prev ^ (prev >> 62)) + static_cast<uint64_t>(seeded_);
    }
    const int far = k < kN - kShift ? k + kShift : k + kShift - kN;
    x_[k] = Twist(x_[far], x_[k], x_[k + 1 < kN ? k + 1 : 0]);
    ++twisted_;
    return;
  }
  int k = 0;
  for (; k < kN - kShift; ++k) x_[k] = Twist(x_[k + kShift], x_[k], x_[k + 1]);
  for (; k < kN - 1; ++k) x_[k] = Twist(x_[k + kShift - kN], x_[k], x_[k + 1]);
  x_[kN - 1] = Twist(x_[kShift - 1], x_[kN - 1], x_[0]);
  pos_ = 0;
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::LogNormal(double log_mean, double log_stddev) {
  std::lognormal_distribution<double> dist(log_mean, log_stddev);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

Rng Rng::Fork() {
  // Mix the next draw so sibling forks are decorrelated.
  const uint64_t child_seed = engine_() * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  return Rng(child_seed);
}

namespace {

// SplitMix64 finalizer: a full-avalanche mix so that nearby (seed, stream,
// index) triples map to uncorrelated child seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::ForStream(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t mixed = SplitMix64(seed);
  mixed = SplitMix64(mixed ^ stream);
  mixed = SplitMix64(mixed ^ index);
  return Rng(mixed);
}

}  // namespace rubberband
