// Identity of the in-tree MT19937-64 with std::mt19937_64.
//
// Every golden, CLI baseline and conformance artifact was produced by
// std::mt19937_64 behind the standard distributions. The in-tree engine
// seeds and twists lazily, so these tests pin its output to the standard
// engine word for word: raw words across the 156/312/624 block boundaries,
// every Rng sampler, Fork, ForStream, and copies, moves and assignments
// taken mid-block that then keep drawing. std::mt19937_64 appears here as
// the reference only.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace rubberband {
namespace {

constexpr int kWords = 2000;  // crosses the 156, 312 and 624 boundaries
constexpr int kSplitPoints[] = {0, 1, 155, 156, 311, 312, 700};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// 0, the standard default seed, all ones, and 1000 SplitMix64 outputs.
std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds = {0, 5489, ~0ULL};
  uint64_t state = 0x5EED;
  for (int i = 0; i < 1000; ++i) {
    state = SplitMix64(state);
    seeds.push_back(state);
  }
  return seeds;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Draws `n` raw words from each engine and reports the first mismatch.
template <typename Engine>
::testing::AssertionResult SameWords(Engine& engine, std::mt19937_64& reference, int n) {
  for (int i = 0; i < n; ++i) {
    const uint64_t got = engine();
    const uint64_t want = reference();
    if (got != want) {
      return ::testing::AssertionFailure() << "word " << i << ": " << got << " != " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

// The standard distributions read these to decide how many words to draw.
static_assert(Mt19937_64::min() == std::mt19937_64::min());
static_assert(Mt19937_64::max() == std::mt19937_64::max());
static_assert(std::is_same_v<Mt19937_64::result_type, std::mt19937_64::result_type>);

TEST(RngIdentity, RawWordsMatchForEverySeed) {
  for (const uint64_t seed : Seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    ASSERT_TRUE(SameWords(engine, reference, kWords)) << "seed " << seed;
  }
}

TEST(RngIdentity, SamplersMatchTheStandardDistributions) {
  for (const uint64_t seed : Seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    // Interleaved so each sampler starts mid-block at varied offsets.
    for (int i = 0; i < 150; ++i) {
      ASSERT_EQ(Bits(rng.Uniform(-2.0, 3.0)),
                Bits(std::uniform_real_distribution<double>(-2.0, 3.0)(reference)))
          << "seed " << seed << " round " << i;
      ASSERT_EQ(rng.UniformInt(-7, 1'000'003),
                std::uniform_int_distribution<int64_t>(-7, 1'000'003)(reference));
      ASSERT_EQ(Bits(rng.Normal(1.5, 0.25)),
                Bits(std::normal_distribution<double>(1.5, 0.25)(reference)));
      ASSERT_EQ(Bits(rng.LogNormal(0.1, 0.7)),
                Bits(std::lognormal_distribution<double>(0.1, 0.7)(reference)));
      ASSERT_EQ(Bits(rng.Exponential(40.0)),
                Bits(std::exponential_distribution<double>(1.0 / 40.0)(reference)));
    }
  }
}

TEST(RngIdentity, EachSamplerAloneMatchesAcrossBlocks) {
  const uint64_t seed = 0xC0FFEE;
  {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kWords; ++i) {
      ASSERT_EQ(Bits(rng.Normal(0.0, 1.0)),
                Bits(std::normal_distribution<double>(0.0, 1.0)(reference)))
          << "draw " << i;
    }
  }
  {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kWords; ++i) {
      ASSERT_EQ(rng.UniformInt(0, 6), std::uniform_int_distribution<int64_t>(0, 6)(reference))
          << "draw " << i;
    }
  }
  {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kWords; ++i) {
      ASSERT_EQ(Bits(rng.Exponential(2.0)),
                Bits(std::exponential_distribution<double>(0.5)(reference)))
          << "draw " << i;
    }
  }
}

TEST(RngIdentity, ForkSeedsTheChildFromTheParentsNextWord) {
  for (const int skip : kSplitPoints) {
    Rng parent(77);
    std::mt19937_64 reference(77);
    for (int i = 0; i < skip; ++i) {
      ASSERT_EQ(Bits(parent.Uniform(0.0, 1.0)),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(reference)));
    }
    Rng child = parent.Fork();
    std::mt19937_64 child_reference(reference() * 0x9E3779B97F4A7C15ULL +
                                    0xD1B54A32D192ED03ULL);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(Bits(child.Normal(0.0, 1.0)),
                Bits(std::normal_distribution<double>(0.0, 1.0)(child_reference)))
          << "fork after " << skip << ", child draw " << i;
      ASSERT_EQ(Bits(parent.Uniform(0.0, 1.0)),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(reference)))
          << "fork after " << skip << ", parent draw " << i;
    }
  }
}

TEST(RngIdentity, ForStreamSeedsFromTheKeyedMix) {
  for (uint64_t stream = 0; stream < 6; ++stream) {
    for (uint64_t index = 0; index < 40; ++index) {
      const uint64_t seed = 1000 + stream * 7 + index;
      const uint64_t mixed =
          SplitMix64(SplitMix64(SplitMix64(seed) ^ stream) ^ index);
      Rng rng = Rng::ForStream(seed, stream, index);
      std::mt19937_64 reference(mixed);
      for (int i = 0; i < 40; ++i) {
        ASSERT_EQ(Bits(rng.Normal(3.0, 0.5)),
                  Bits(std::normal_distribution<double>(3.0, 0.5)(reference)))
            << "stream " << stream << " index " << index << " draw " << i;
      }
    }
  }
}

// A copy, a move and an assignment taken after `skip` words must each
// continue exactly where the source was, as must the source itself.
TEST(RngIdentity, EngineCopiesAndMovesContinueTheSequence) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{5489}, ~uint64_t{0}, SplitMix64(9)}) {
    for (const int skip : kSplitPoints) {
      Mt19937_64 source(seed);
      std::mt19937_64 reference(seed);
      ASSERT_TRUE(SameWords(source, reference, skip));

      Mt19937_64 copy(source);
      Mt19937_64 moved_from(source);
      Mt19937_64 moved(std::move(moved_from));
      // Assign onto engines both behind and ahead of the source.
      Mt19937_64 assigned_fresh(~seed);
      assigned_fresh = source;
      Mt19937_64 assigned_ahead(seed ^ 1);
      for (int i = 0; i < 900; ++i) assigned_ahead();
      assigned_ahead = source;
      Mt19937_64 self(source);
      Mt19937_64& alias = self;
      self = alias;

      std::mt19937_64 copy_reference(reference);
      for (Mt19937_64* engine : {&source, &copy, &moved, &assigned_fresh, &assigned_ahead, &self}) {
        std::mt19937_64 continued(copy_reference);
        ASSERT_TRUE(SameWords(*engine, continued, kWords - skip))
            << "seed " << seed << " split at " << skip;
      }
    }
  }
}

TEST(RngIdentity, RngCopiesAndMovesContinueTheSequence) {
  for (const int skip : kSplitPoints) {
    Rng source(4242);
    std::mt19937_64 reference(4242);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < skip; ++i) {
      ASSERT_EQ(Bits(source.Uniform(0.0, 1.0)), Bits(unit(reference)));
    }
    Rng copy(source);
    Rng moved_from(source);
    Rng moved(std::move(moved_from));
    Rng assigned(1);
    assigned.Uniform(0.0, 1.0);
    assigned = source;
    for (Rng* rng : {&source, &copy, &moved, &assigned}) {
      std::mt19937_64 continued(reference);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(Bits(rng->Uniform(0.0, 1.0)), Bits(unit(continued)))
            << "split at " << skip << ", draw " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rubberband
