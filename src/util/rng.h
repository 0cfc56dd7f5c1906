// Deterministic random number generation.
//
// All stochastic pieces of the reproduction (topology generation, latency
// inflation draws, probe jitter, flow arrivals) draw from an Rng that is
// explicitly seeded. There is no global RNG and no time-based seeding, so a
// given seed reproduces an experiment bit-for-bit.
//
// Every value equals what libstdc++ 12's standard distributions draw over
// std::mt19937_64(seed), at a fraction of their cost:
//  - LazyMt19937_64 is std::mt19937_64 output for output. It seeds state
//    words only as its first outputs need them, so a draw that reads a few
//    values skips most of the 312-word seeding, and it twists its state in
//    blocks the way the standard engine does.
//  - The real-valued draws (Uniform, Bernoulli, Exponential, Normal,
//    LogNormal) are libstdc++ 12's formulas written out over one branch-free
//    Canonical, so they return libstdc++'s values on any standard library.
//    UniformInt, Index, Shuffle and Fork keep the standard distributions.
//  - ForEachKeyed makes many hash-seeded draws at once: four seeding
//    recurrences run interleaved, and each draw reads the first outputs
//    from them (KeyedEngine).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <utility>

namespace painter::util {

// Returns exactly the outputs of std::mt19937_64(seed), but pays only for the
// state words it reads. The standard engine seeds all 312 state words and
// twists all of them before its first output; a hash-seeded draw that needs
// one to four values throws almost all of that away.
//
// The twist computes x'[k] = x[k + 156] ^ A(x[k], x[k + 1]) for k < 156,
// where x is the seeded state. Seeding is a forward recurrence, so output k
// needs seeded words 0..k + 156 and nothing else: the engine extends the
// seeded prefix one word per output (157 recurrence steps for the first) and
// twists word k in place. At output 156 all 312 words are seeded; the engine
// finishes the twist of words 156..311 in place, exactly as the standard
// engine does, and from then on serves tempered words and re-twists the
// whole state every 312 outputs.
class LazyMt19937_64 {
  using Std = std::mt19937_64;

 public:
  using result_type = Std::result_type;

  static constexpr result_type min() { return Std::min(); }
  static constexpr result_type max() { return Std::max(); }

  explicit LazyMt19937_64(result_type seed) { words_[0] = seed; }

  result_type operator()() {
    if (next_ == ready_) Refill();
    result_type z = words_[next_++];
    z ^= (z >> Std::tempering_u) & Std::tempering_d;
    z ^= (z << Std::tempering_s) & Std::tempering_b;
    z ^= (z << Std::tempering_t) & Std::tempering_c;
    z ^= z >> Std::tempering_l;
    return z;
  }

 private:
  // Makes words_[next_] ready: before output 156 by seeding up to word
  // next_ + 156 and twisting word next_ alone, at output 156 by twisting
  // words 156..311, and at output 312 by twisting all 312 and starting over.
  void Refill();

  std::uint32_t next_ = 0;    // index of the next word to temper and return
  std::uint32_t ready_ = 0;   // words_[0, ready_) are twisted
  std::uint32_t seeded_ = 1;  // words_[seeded_, 312) still wait for seeding
  // Only seeded words are ever read; value-initialised all the same.
  std::array<result_type, Std::state_size> words_{};
};

// The first kKeyedOutputs outputs of std::mt19937_64(seed). A keyed draw
// reads one to four of them unless a polar-method rejection asks for more.
inline constexpr std::size_t kKeyedOutputs = 8;
using KeyedOutputs = std::array<std::uint64_t, kKeyedOutputs>;

// out[i] = the first kKeyedOutputs outputs of std::mt19937_64(seeds[i]), for
// i < seeds.size() (out must be at least that long). Four seeds' seeding
// recurrences run interleaved, and only the words those outputs read are
// kept: 0..kKeyedOutputs and 156..155 + kKeyedOutputs.
void FirstOutputs(std::span<const std::uint64_t> seeds,
                  std::span<KeyedOutputs> out);

// std::mt19937_64(seed) output for output: the first kKeyedOutputs from
// `first` (FirstOutputs for `seed`), later ones from a LazyMt19937_64(seed)
// advanced past them. `first` must outlive the engine.
class KeyedEngine {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return LazyMt19937_64::min(); }
  static constexpr result_type max() { return LazyMt19937_64::max(); }

  KeyedEngine(std::uint64_t seed, const KeyedOutputs& first)
      : seed_(seed), first_(&first) {}

  result_type operator()() {
    if (next_ < kKeyedOutputs) return (*first_)[next_++];
    return Later();
  }

 private:
  result_type Later();

  std::uint64_t seed_;
  const KeyedOutputs* first_;
  std::size_t next_ = 0;
  std::optional<LazyMt19937_64> later_;
};

// std::generate_canonical<double, 53> over a 64-bit engine as libstdc++ 12
// computes it: the output converted to double (to nearest, ties to even),
// times 2^-64, and clamped below 1. The two 32-bit halves convert exactly,
// and adding them rounds once, as the direct conversion does; at -O2 the
// direct conversion branches on the top bit, and this does not.
template <typename Engine>
[[nodiscard]] double Canonical(Engine& engine) {
  const std::uint64_t x = engine();
  const double d = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
                       0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

// The draws, over any engine with mt19937_64's range. Rng runs them on
// LazyMt19937_64, and ForEachKeyed on KeyedEngine.
template <typename Engine>
class BasicRng {
 public:
  template <typename... Args>
  explicit BasicRng(std::in_place_t, Args&&... args)
      : engine_(std::forward<Args>(args)...) {}

  [[nodiscard]] double Uniform(double lo, double hi) {
    return Canonical(engine_) * (hi - lo) + lo;
  }

  [[nodiscard]] double Uniform01() { return Uniform(0.0, 1.0); }

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  [[nodiscard]] std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  [[nodiscard]] bool Bernoulli(double p) { return Canonical(engine_) < p; }

  [[nodiscard]] double Exponential(double rate) {
    return -std::log(1.0 - Canonical(engine_)) / rate;
  }

  // The polar method. A fresh std::normal_distribution keeps the pair's
  // second value for its next call; every call here is a fresh one, so the
  // second value is dropped.
  [[nodiscard]] double Normal(double mean, double stddev) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * Canonical(engine_) - 1.0;
      y = 2.0 * Canonical(engine_) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }

  [[nodiscard]] double LogNormal(double mu, double sigma) {
    return std::exp(sigma * Normal(0.0, 1.0) + mu);
  }

  // Pareto variate with scale x_m and shape alpha; heavy-tailed volumes and
  // flow durations use this.
  [[nodiscard]] double Pareto(double x_m, double alpha) {
    const double u = Uniform01();
    return x_m / std::pow(1.0 - u, 1.0 / alpha);
  }

  // Sample an index proportionally to non-negative weights. Returns n if all
  // weights are zero (caller decides the fallback).
  [[nodiscard]] std::size_t WeightedIndex(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights.size();
    double x = Uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  template <typename T>
  void Shuffle(std::span<T> items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

 protected:
  Engine engine_;
};

// A seeded stream. A one-shot draw from a hash-derived seed (see
// util/hashmix.h) costs ~160 recurrence steps; a long stream pays one seeding
// and then a tempered word per output, with a block twist every 312.
class Rng : public BasicRng<LazyMt19937_64> {
 public:
  explicit Rng(std::uint64_t seed) : BasicRng(std::in_place, seed) {}

  // Derive an independent child stream; used so that sub-generators (e.g. one
  // per UG) do not perturb each other when call order changes.
  [[nodiscard]] Rng Fork() { return Rng{engine_()}; }
};

// One keyed draw of a ForEachKeyed batch.
using KeyedRng = BasicRng<KeyedEngine>;

// Calls draw(i, rng) for i = 0..n-1 in order, where rng draws exactly what
// Rng{seed_of(i)} would. The seeds' first outputs are made kKeyedChunk at a
// time into stack buffers: seed_of is called once per index, for a whole
// chunk before that chunk's draws, so no seed may depend on a draw.
inline constexpr std::size_t kKeyedChunk = 16;

template <typename SeedOf, typename Draw>
void ForEachKeyed(std::size_t n, SeedOf&& seed_of, Draw&& draw) {
  std::array<std::uint64_t, kKeyedChunk> seeds{};
  std::array<KeyedOutputs, kKeyedChunk> first{};
  for (std::size_t base = 0; base < n; base += kKeyedChunk) {
    const std::size_t m = std::min(kKeyedChunk, n - base);
    for (std::size_t i = 0; i < m; ++i) seeds[i] = seed_of(base + i);
    FirstOutputs(std::span{seeds}.first(m), first);
    for (std::size_t i = 0; i < m; ++i) {
      KeyedRng rng{std::in_place, seeds[i], first[i]};
      draw(base + i, rng);
    }
  }
}

}  // namespace painter::util
