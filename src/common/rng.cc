#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

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

namespace {

// A uniform random bit generator over a tape's words from a cursor: the
// standard distributions read it exactly as they read the engine.
struct TapeReader {
  using result_type = uint64_t;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type operator()() { return tape->Word((*cursor)++); }

  StreamTape* tape;
  uint32_t* cursor;
};

}  // namespace

uint64_t StreamTape::Extend(uint32_t offset) {
  while (words_.size() <= offset) words_.push_back(engine_());
  return words_[offset];
}

double StreamTape::DecodeNormal(uint32_t* offset) {
  const uint32_t start = *offset;
  // libstdc++ returns z * stddev + mean; a mean of -0.0 adds nothing to any
  // z, so this is the decoded z itself with the sign of a zero kept.
  TapeReader reader{this, offset};
  const double z = std::normal_distribution<double>(-0.0, 1.0)(reader);
  if (decodes_.size() <= start) decodes_.resize(words_.size());
  decodes_[start] = {z, *offset};
  return z;
}

template <typename Distribution>
typename Distribution::result_type Rng::Draw(Distribution dist) {
  if (tape_ == nullptr) return dist(engine_);
  TapeReader reader{tape_, &cursor_};
  return dist(reader);
}

double Rng::Uniform(double lo, double hi) {
  return Draw(std::uniform_real_distribution<double>(lo, hi));
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return Draw(std::uniform_int_distribution<int64_t>(lo, hi));
}

double Rng::EngineNormal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

// A tape replays a lognormal as std::lognormal_distribution does,
// exp(s * (z * 1.0 + 0.0) + m) over its inner standard normal; z * 1.0 is z.
double Rng::LogNormal(double log_mean, double log_stddev) {
  if (tape_ == nullptr) {
    return std::lognormal_distribution<double>(log_mean, log_stddev)(engine_);
  }
  return std::exp(log_stddev * (tape_->StandardNormal(&cursor_) + 0.0) + log_mean);
}

double Rng::Exponential(double mean) {
  return Draw(std::exponential_distribution<double>(1.0 / mean));
}

Rng Rng::Fork() {
  // Mix the next draw so sibling forks are decorrelated.
  const uint64_t word = tape_ == nullptr ? engine_() : tape_->Word(cursor_++);
  const uint64_t child_seed = word * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
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

// The engine seed of stream (seed, stream, index).
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t mixed = SplitMix64(seed);
  mixed = SplitMix64(mixed ^ stream);
  return SplitMix64(mixed ^ index);
}

}  // namespace

Rng Rng::ForStream(uint64_t seed, uint64_t stream, uint64_t index) {
  return Rng(StreamSeed(seed, stream, index));
}

std::span<StreamTape> Rng::RecordedStreams(uint64_t seed, uint64_t stream, int count) {
  // Keyed by the seed mixed with the stream, the part of StreamSeed that
  // precedes the index: two keys that mix to the same value are the same
  // streams, so they may share tapes.
  thread_local std::unordered_map<uint64_t, std::vector<StreamTape>> groups;
  thread_local size_t recorded = 0;
  const uint64_t key = SplitMix64(SplitMix64(seed) ^ stream);
  const size_t wanted = static_cast<size_t>(std::max(count, 0));
  auto it = groups.find(key);
  if (it == groups.end() || it->second.size() < wanted) {
    const size_t have = it == groups.end() ? 0 : it->second.size();
    if (recorded + (wanted - have) > static_cast<size_t>(kRecordedStreamsPerThread)) {
      groups.clear();
      recorded = 0;
      it = groups.end();
    }
    if (it == groups.end()) {
      it = groups.try_emplace(key).first;
    }
    std::vector<StreamTape>& tapes = it->second;
    recorded += wanted - tapes.size();
    tapes.reserve(wanted);
    while (tapes.size() < wanted) {
      tapes.emplace_back(SplitMix64(key ^ static_cast<uint64_t>(tapes.size())));
    }
  }
  return std::span<StreamTape>(it->second.data(), wanted);
}

}  // namespace rubberband
