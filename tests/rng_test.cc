// Identity of the in-tree MT19937-64 with std::mt19937_64.
//
// Every golden, CLI baseline and conformance artifact was produced by
// std::mt19937_64 behind the standard distributions. The in-tree engine
// seeds and twists lazily, so these tests pin its output to the standard
// engine word for word: raw words across the 156/312/624 block boundaries,
// every Rng sampler, Fork, ForStream, and copies, moves and assignments
// taken mid-block that then keep drawing. std::mt19937_64 appears here as
// the reference only.
//
// The planner replays keyed streams from per-thread recordings
// (Rng::RecordedStreams over StreamTapes), so the RecordedStream tests pin
// every replayed draw to a fresh Rng::ForStream stream: each sampler,
// interleaved sequences, a tape decoded along one path and replayed along
// another, a tape extended past what it recorded, eviction at the
// per-thread cap, every Distribution kind through SampleStageDraw, and
// replay on ThreadPool workers.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/distribution.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dag/simulate.h"

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

// One interleaved draw sequence over every sampler; `round` varies the
// parameters so decodes start at many offsets. Fork consumes one word.
void DrawMix(Rng& rng, int round, std::vector<uint64_t>* out) {
  out->push_back(Bits(rng.Uniform(-2.0, 3.0 + round)));
  out->push_back(static_cast<uint64_t>(rng.UniformInt(-7, 1'000'003 + round)));
  out->push_back(Bits(rng.Normal(1.5, 0.25 * (1 + round % 3))));
  out->push_back(Bits(rng.LogNormal(0.1, 0.7)));
  out->push_back(Bits(rng.Normal(-0.0, 2.0)));
  out->push_back(Bits(rng.Exponential(40.0 + round)));
  if (round % 7 == 3) {
    Rng child = rng.Fork();
    out->push_back(Bits(child.Normal(0.0, 1.0)));
  }
}

std::vector<uint64_t> MixedDraws(Rng rng, int rounds) {
  std::vector<uint64_t> draws;
  for (int round = 0; round < rounds; ++round) DrawMix(rng, round, &draws);
  return draws;
}

// Each sampler on its own: every word of the stream feeds the same sampler.
std::vector<uint64_t> SingleSamplerDraws(Rng rng, int sampler, int n) {
  std::vector<uint64_t> draws;
  for (int i = 0; i < n; ++i) {
    switch (sampler) {
      case 0: draws.push_back(Bits(rng.Uniform(0.0, 1.0))); break;
      case 1: draws.push_back(static_cast<uint64_t>(rng.UniformInt(0, 6))); break;
      case 2: draws.push_back(Bits(rng.Normal(4.0, 10.0))); break;
      case 3: draws.push_back(Bits(rng.LogNormal(-1.0, 0.5))); break;
      default: draws.push_back(Bits(rng.Exponential(2.0))); break;
    }
  }
  return draws;
}

constexpr int kSamplers = 5;

// Index `index` of a stream key's recorded tapes, fetched as a stage
// sampler fetches them (every index up to `index` gets a tape).
Rng Recorded(uint64_t seed, uint64_t stream, uint64_t index) {
  return Rng(Rng::RecordedStreams(seed, stream, static_cast<int>(index) + 1)[index]);
}

TEST(RngIdentity, RecordedStreamMatchesForStreamForEverySampler) {
  const std::vector<uint64_t> seeds = Seeds();
  for (size_t k = 0; k < 200; ++k) {
    const uint64_t seed = seeds[k];
    const uint64_t stream = k % 9;
    const uint64_t index = k % 20;
    for (int sampler = 0; sampler < kSamplers; ++sampler) {
      // Twice: the first pass records the tape, the second replays it.
      for (int pass = 0; pass < 2; ++pass) {
        ASSERT_EQ(SingleSamplerDraws(Recorded(seed, stream, index), sampler, 120),
                  SingleSamplerDraws(Rng::ForStream(seed, stream, index), sampler, 120))
            << "seed " << seed << " sampler " << sampler << " pass " << pass;
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_EQ(MixedDraws(Recorded(seed, stream, index), 60),
                MixedDraws(Rng::ForStream(seed, stream, index), 60))
          << "seed " << seed << " pass " << pass;
    }
  }
}

// A tape first decoded along one path (normals starting at every other
// offset) must replay a path whose decodes start elsewhere, and then the
// first path again, exactly as fresh streams draw them.
TEST(RngIdentity, TapeReplaysAPathDecodedAlongAnother) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{5489}, SplitMix64(3), SplitMix64(4)}) {
    StreamTape tape(seed);
    const auto first = [](Rng rng) {
      std::vector<uint64_t> draws;
      for (int i = 0; i < 300; ++i) draws.push_back(Bits(rng.Normal(0.0, 1.0)));
      return draws;
    };
    const auto second = [](Rng rng) {
      // A scale-up-like prefix shifts where the normals start.
      std::vector<uint64_t> draws = {Bits(rng.LogNormal(3.0, 0.4)), Bits(rng.Uniform(0.0, 9.0))};
      for (int i = 0; i < 300; ++i) draws.push_back(Bits(rng.Normal(50.0, 5.0)));
      return draws;
    };
    ASSERT_EQ(first(Rng(tape)), first(Rng(seed))) << "seed " << seed;
    ASSERT_EQ(second(Rng(tape)), second(Rng(seed))) << "seed " << seed;
    ASSERT_EQ(first(Rng(tape)), first(Rng(seed))) << "seed " << seed;
    ASSERT_EQ(MixedDraws(Rng(tape), 80), MixedDraws(Rng(seed), 80)) << "seed " << seed;
  }
}

// A short recording, then a reader that runs far past it: the tape extends
// across the 156/312/624 engine boundaries, still word for word.
TEST(RngIdentity, TapeExtendsPastItsRecordedLength) {
  for (const uint64_t seed : Seeds()) {
    StreamTape tape(seed);
    ASSERT_EQ(SingleSamplerDraws(Rng(tape), 2, 3), SingleSamplerDraws(Rng(seed), 2, 3));
    Rng replay(tape);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 3; ++i) std::normal_distribution<double>(4.0, 10.0)(reference);
    for (int i = 0; i < 3; ++i) replay.Normal(4.0, 10.0);
    // The normals' words are consumed; continue on raw uniforms to 2000+.
    for (int i = 0; i < kWords; ++i) {
      ASSERT_EQ(Bits(replay.Uniform(0.0, 1.0)),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(reference)))
          << "seed " << seed << " draw " << i;
    }
  }
}

// More distinct streams than one thread keeps: the table drops its tapes
// and re-records them, and every draw stays the fresh stream's.
TEST(RngIdentity, RecordedStreamsSurviveEvictionAtTheCap) {
  const int streams = Rng::kRecordedStreamsPerThread + 50;
  const auto check = [](int k) {
    const uint64_t stream = static_cast<uint64_t>(k / 20);
    const uint64_t index = static_cast<uint64_t>(k % 20);
    return MixedDraws(Recorded(77, stream, index), 4) ==
           MixedDraws(Rng::ForStream(77, stream, index), 4);
  };
  for (int k = 0; k < streams; ++k) {
    ASSERT_TRUE(check(k)) << "recording stream " << k;
  }
  // Newest first: the last 50 replay the tapes kept after the drop, the
  // rest were dropped and are recorded again. Each is read twice, so a
  // re-recorded tape is replayed too.
  for (int k = streams - 1; k >= 0; --k) {
    ASSERT_TRUE(check(k)) << "stream " << k;
    ASSERT_TRUE(check(k)) << "replaying stream " << k;
  }
}

StageBlock BlockOver(const Distribution& latency, int index, int trials, int gpus,
                     int new_instances) {
  StageBlock block;
  block.index = index;
  block.trials = trials;
  block.gpus = gpus;
  block.gpus_per_trial = gpus >= trials ? gpus / trials : 1;
  block.instances = new_instances;
  block.new_instances = new_instances;
  block.colocated = trials / 2;
  block.scale_latency = Distribution::LogNormal(3.0, 0.4);
  block.init_latency = latency;
  block.train_latency = latency;
  block.fragmented_latency = latency.Scaled(1.3);
  block.sync_seconds = 2.0;
  return block;
}

TEST(RngIdentity, SampleStageDrawReplaysEveryDistributionKind) {
  const std::vector<Distribution> kinds = {
      Distribution::Constant(5.0),
      Distribution::TruncatedNormal(4.0, 10.0, 0.5),
      Distribution::LogNormal(2.0, 0.3),
      Distribution::Exponential(30.0),
      Distribution::Uniform(10.0, 20.0),
      Distribution::Empirical({3.0, 4.5, 9.0, 12.0, 0.25}),
  };
  for (size_t kind = 0; kind < kinds.size(); ++kind) {
    for (int index = 0; index < 4; ++index) {
      // Parallel, queued, and with or without a scale-up: the trials'
      // draws start at different offsets of the same stream.
      for (const StageBlock& block :
           {BlockOver(kinds[kind], index, 16, 32, 4), BlockOver(kinds[kind], index, 16, 32, 0),
            BlockOver(kinds[kind], index, 24, 5, 2), BlockOver(kinds[kind], index, 7, 7, 0)}) {
        for (int sample = 0; sample < 20; ++sample) {
          const StageDraw fresh = SampleStageDraw(block, 42, sample);
          Rng rng = Recorded(42, static_cast<uint64_t>(index), static_cast<uint64_t>(sample));
          const StageDraw replayed = SampleStageDraw(block, rng);
          ASSERT_EQ(Bits(replayed.span), Bits(fresh.span)) << "kind " << kind;
          ASSERT_EQ(Bits(replayed.scale_done), Bits(fresh.scale_done)) << "kind " << kind;
          ASSERT_EQ(Bits(replayed.train_gpu_seconds), Bits(fresh.train_gpu_seconds))
              << "kind " << kind;
        }
      }
    }
  }
}

// Every pool thread records its own tapes; whichever lane replays a stream,
// and however often, the draws are the fresh stream's.
TEST(RngIdentity, RecordedStreamsReplayOnThreadPoolWorkers) {
  ThreadPool pool(4);
  constexpr int kStreams = 240;
  std::atomic<int> mismatches{0};
  for (int round = 0; round < 6; ++round) {
    pool.ParallelFor(kStreams, [&](int k) {
      const uint64_t stream = static_cast<uint64_t>(k % 12);
      const uint64_t index = static_cast<uint64_t>(k / 12);
      if (MixedDraws(Recorded(42, stream, index), 10 + round) !=
          MixedDraws(Rng::ForStream(42, stream, index), 10 + round)) {
        mismatches.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rubberband
