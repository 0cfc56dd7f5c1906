// Deterministic random number generation.
//
// All stochastic pieces of the reproduction (topology generation, latency
// inflation draws, probe jitter, flow arrivals) draw from an Rng that is
// explicitly seeded. There is no global RNG and no time-based seeding, so a
// given seed reproduces an experiment bit-for-bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <span>

namespace painter::util {

// Returns exactly the outputs of std::mt19937_64(seed), but pays only for the
// state words it reads. The standard engine seeds all 312 state words and
// twists all of them before its first output; a hash-seeded draw that needs
// one to four values throws almost all of that away.
//
// The first twist computes x'[k] = x[k + 156] ^ A(x[k], x[k + 1]) for
// k < 156, where x is the seeded state. Seeding is a forward recurrence, so
// output k needs seeded words 0..k + 156 and nothing else: the engine extends
// the seeded prefix one word per output (157 recurrence steps for the first).
// From output 156 on, the twist reads words it has already overwritten, so
// the engine hands over to a real std::mt19937_64 advanced by discard(156).
class LazyMt19937_64 {
  using Std = std::mt19937_64;

 public:
  using result_type = Std::result_type;

  static constexpr result_type min() { return Std::min(); }
  static constexpr result_type max() { return Std::max(); }

  explicit LazyMt19937_64(result_type seed) : seed_(seed) { words_[0] = seed; }

  result_type operator()() {
    if (next_ >= kLazyOutputs) return Tail();
    for (; seeded_ <= next_ + kShift; ++seeded_) {
      const result_type prev = words_[seeded_ - 1];
      words_[seeded_] = Std::initialization_multiplier *
                            (prev ^ (prev >> (Std::word_size - 2))) +
                        seeded_;
    }
    const result_type y =
        (words_[next_] & kUpperMask) | (words_[next_ + 1] & kLowerMask);
    result_type z = words_[next_ + kShift] ^ (y >> 1) ^
                    ((y & 1) != 0 ? Std::xor_mask : 0);
    ++next_;
    z ^= (z >> Std::tempering_u) & Std::tempering_d;
    z ^= (z << Std::tempering_s) & Std::tempering_b;
    z ^= (z << Std::tempering_t) & Std::tempering_c;
    z ^= z >> Std::tempering_l;
    return z;
  }

 private:
  static constexpr std::size_t kShift = Std::shift_size;
  static constexpr std::size_t kLazyOutputs = Std::state_size - Std::shift_size;
  static constexpr result_type kLowerMask =
      (result_type{1} << Std::mask_bits) - 1;
  static constexpr result_type kUpperMask = ~kLowerMask;

  result_type Tail() {
    if (!tail_.has_value()) {
      tail_.emplace(seed_);
      tail_->discard(kLazyOutputs);
    }
    return (*tail_)();
  }

  result_type seed_;
  std::size_t next_ = 0;    // outputs returned so far, while < kLazyOutputs
  std::size_t seeded_ = 1;  // words_[0, seeded_) hold the seeded state
  // Only the seeded prefix is ever read; value-initialised all the same.
  std::array<result_type, Std::state_size> words_{};
  std::optional<Std> tail_;
};

// Distribution wrappers over LazyMt19937_64: every draw equals the one the
// same wrapper makes over std::mt19937_64(seed). A one-shot draw from a
// hash-derived seed (see util/hashmix.h) costs ~160 recurrence steps; a long
// stream pays one hand-over at output 156 and then runs the standard engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Derive an independent child stream; used so that sub-generators (e.g. one
  // per UG) do not perturb each other when call order changes.
  [[nodiscard]] Rng Fork() { return Rng{engine_()}; }

  [[nodiscard]] double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  [[nodiscard]] double Uniform01() { return Uniform(0.0, 1.0); }

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  [[nodiscard]] std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  [[nodiscard]] bool Bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  [[nodiscard]] double Exponential(double rate) {
    return std::exponential_distribution<double>{rate}(engine_);
  }

  [[nodiscard]] double Normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  [[nodiscard]] double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
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

 private:
  LazyMt19937_64 engine_;
};

}  // namespace painter::util
