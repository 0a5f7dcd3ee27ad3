// Deterministic random number generation.
//
// Every stochastic component (latency distributions, hyperparameter
// sampling, straggler injection) draws through an Rng that is explicitly
// seeded, so simulated experiments are reproducible run-to-run and seeds
// can be swept for error bars, as the paper does (3 seeds per experiment).

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

namespace rubberband {

// MT19937-64 whose output is, word for word, that of the standard
// library's 64-bit Mersenne Twister, but which does the work lazily.
// Construction stores only the seed. Output k of the first block needs seed
// words [0, k + 157) and one twist of word k, so the seeding chain and the
// twist advance one word at a time, in the same in-place order as a
// whole-block refill. A keyed stream that draws a few dozen words therefore
// pays for those words, not for 312 seeding steps and a 312-word refill.
// After the first block, whole blocks are refilled as usual (per-word
// twisting is slower for long streams).
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(uint64_t seed) { x_[0] = seed; }
  // Copies only the seeded prefix, so no indeterminate word is ever read.
  Mt19937_64(const Mt19937_64& other) { *this = other; }
  Mt19937_64& operator=(const Mt19937_64& other);

  result_type operator()() {
    if (pos_ == twisted_) Advance();
    uint64_t z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr int kN = 312;

  // Twists the next word of the first block, or refills a whole block.
  void Advance();

  // Left uninitialized: construction writes only x_[0], and no word at or
  // past seeded_ is ever read.
  uint64_t x_[kN];
  int seeded_ = 1;   // words [0, seeded_) hold seed or twisted values
  int twisted_ = 0;  // words [0, twisted_) of the current block are output-ready
  int pos_ = 0;      // next word to output
};

// One MT19937-64 stream recorded for replay. The engine's words are kept
// as they are generated (lazily, only as far as some reader has asked), and
// each standard-normal decode is memoized by the word offset where it
// starts: the decode is a pure function of the words from that offset on,
// so it yields the same z and ends at the same offset every time. Readers
// that take different paths through the stream (a stage with a scale-up
// starts its trial normals a few words later than one without) each find
// their own decodes. A tape is read by one thread at a time.
class StreamTape {
 public:
  explicit StreamTape(uint64_t seed) : engine_(seed) {}

  // Word `offset` of the stream, generating it (and any before it) on first
  // use.
  uint64_t Word(uint32_t offset) {
    return offset < words_.size() ? words_[offset] : Extend(offset);
  }

  // The standard normal std::normal_distribution<double> decodes from the
  // words at *offset (exactly, sign of zero included); advances *offset past
  // the words the decode consumed. A memoized decode is served inline.
  double StandardNormal(uint32_t* offset) {
    const uint32_t start = *offset;
    if (start < decodes_.size() && decodes_[start].next != 0) {
      *offset = decodes_[start].next;
      return decodes_[start].z;
    }
    return DecodeNormal(offset);
  }

 private:
  struct Decode {
    double z = 0.0;
    uint32_t next = 0;  // offset after the decode; 0 while not yet decoded
  };

  uint64_t Extend(uint32_t offset);
  // Decodes and memoizes the standard normal at *offset.
  double DecodeNormal(uint32_t* offset);

  Mt19937_64 engine_;
  std::vector<uint64_t> words_;
  std::vector<Decode> decodes_;  // indexed by starting offset
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  // Replays `tape` from its first word, draw for draw identical to an Rng
  // seeded with the tape's seed. The tape must outlive the Rng.
  explicit Rng(StreamTape& tape) : engine_(0), tape_(&tape) {}

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // A tape replays a normal as libstdc++'s std::normal_distribution
  // finishes one: z * stddev + mean.
  double Normal(double mean, double stddev) {
    if (tape_ != nullptr) return tape_->StandardNormal(&cursor_) * stddev + mean;
    return EngineNormal(mean, stddev);
  }
  double LogNormal(double log_mean, double log_stddev);
  double Exponential(double mean);

  // Derives an independent child stream; used to give each trial/worker its
  // own stream so that adding a component does not perturb the draws made by
  // the others.
  Rng Fork();

  // Keyed stream derivation: a stateless counterpart of Fork() that maps
  // (seed, stream, index) to an independent generator without consuming any
  // draws. Stage `s` of sample `i` always sees the same stream no matter
  // which other stages exist or in which order samples are drawn — the
  // order-independence the stage-incremental plan evaluator relies on.
  static Rng ForStream(uint64_t seed, uint64_t stream, uint64_t index);

  // The calling thread's recordings of ForStream(seed, stream, 0 .. count-1),
  // fetched with one lookup and recorded on first use: Rng(tapes[i]) draws
  // bit-identically to ForStream(seed, stream, i) (a stage sampler replays
  // all its samples' streams from them). Each thread keeps at most
  // kRecordedStreamsPerThread tapes and drops them all when new ones would
  // exceed that; a re-recorded tape holds the same words. The tapes of one
  // stream key are kept, and dropped, together, so all `count` are alive
  // when the call returns, until the thread's next RecordedStreams call.
  static std::span<StreamTape> RecordedStreams(uint64_t seed, uint64_t stream, int count);
  static constexpr int kRecordedStreamsPerThread = 1024;

 private:
  // Runs a standard distribution over the engine or the tape.
  template <typename Distribution>
  typename Distribution::result_type Draw(Distribution dist);
  double EngineNormal(double mean, double stddev);

  Mt19937_64 engine_;
  StreamTape* tape_ = nullptr;  // when set, draws replay the tape
  uint32_t cursor_ = 0;         // the tape's next word
};

}  // namespace rubberband

#endif  // SRC_COMMON_RNG_H_
