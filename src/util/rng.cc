#include "util/rng.h"

namespace painter::util {
namespace {

using Std = std::mt19937_64;
using Word = Std::result_type;

constexpr std::size_t kN = Std::state_size;
constexpr std::size_t kM = Std::shift_size;
constexpr Word kLowerMask = (Word{1} << Std::mask_bits) - 1;
constexpr Word kUpperMask = ~kLowerMask;

// Seeded word i from word i - 1.
constexpr Word SeedStep(Word prev, std::size_t i) {
  return Std::initialization_multiplier *
             (prev ^ (prev >> (Std::word_size - 2))) +
         i;
}

// The twisted word from words k, k + 1 (`lo`, `hi`) and the word m ahead.
// The low bit of y selects the xor mask through a mask, not a branch: the
// bit is random, and a branch on it mispredicts half the time.
constexpr Word Twist(Word lo, Word hi, Word ahead) {
  const Word y = (lo & kUpperMask) | (hi & kLowerMask);
  return ahead ^ (y >> 1) ^ (Std::xor_mask & (Word{0} - (y & 1)));
}

constexpr Word Temper(Word z) {
  z ^= (z >> Std::tempering_u) & Std::tempering_d;
  z ^= (z << Std::tempering_s) & Std::tempering_b;
  z ^= (z << Std::tempering_t) & Std::tempering_c;
  return z ^ (z >> Std::tempering_l);
}

// FirstOutputs for `Lanes` seeds, their recurrences interleaved step by step.
// The lane loops unroll fully, so each lane's word stays in a register and
// the lanes' multiplies overlap.
template <std::size_t Lanes>
void FirstOutputsOf(const std::uint64_t* seeds, KeyedOutputs* out) {
  constexpr std::size_t kK = kKeyedOutputs;
  Word head[Lanes][kK + 1]{};  // seeded words 0..kK
  Word tail[Lanes][kK]{};      // seeded words kM..kM + kK - 1
  Word x[Lanes]{};
#pragma GCC unroll 4
  for (std::size_t l = 0; l < Lanes; ++l) head[l][0] = x[l] = seeds[l];
  for (std::size_t i = 1; i <= kK; ++i) {
#pragma GCC unroll 4
    for (std::size_t l = 0; l < Lanes; ++l) head[l][i] = x[l] = SeedStep(x[l], i);
  }
  for (std::size_t i = kK + 1; i < kM; ++i) {
#pragma GCC unroll 4
    for (std::size_t l = 0; l < Lanes; ++l) x[l] = SeedStep(x[l], i);
  }
  for (std::size_t i = kM; i < kM + kK; ++i) {
#pragma GCC unroll 4
    for (std::size_t l = 0; l < Lanes; ++l) {
      tail[l][i - kM] = x[l] = SeedStep(x[l], i);
    }
  }
  for (std::size_t l = 0; l < Lanes; ++l) {
    for (std::size_t k = 0; k < kK; ++k) {
      out[l][k] = Temper(Twist(head[l][k], head[l][k + 1], tail[l][k]));
    }
  }
}

}  // namespace

void LazyMt19937_64::Refill() {
  if (ready_ < kM) {
    Word prev = words_[seeded_ - 1];
    for (; seeded_ <= next_ + kM; ++seeded_) {
      words_[seeded_] = prev = SeedStep(prev, seeded_);
    }
    words_[next_] = Twist(words_[next_], words_[next_ + 1], words_[next_ + kM]);
    ready_ = next_ + 1;
    return;
  }
  // Words [0, kM) are twisted. Output kN re-twists them first; output kM
  // goes straight on with the rest, which reads them.
  std::size_t k = 0;
  if (ready_ == kN) {
    for (; k < kN - kM; ++k) {
      words_[k] = Twist(words_[k], words_[k + 1], words_[k + kM]);
    }
    next_ = 0;
  } else {
    k = kM;
  }
  for (; k < kN - 1; ++k) {
    words_[k] = Twist(words_[k], words_[k + 1], words_[k + kM - kN]);
  }
  words_[kN - 1] = Twist(words_[kN - 1], words_[0], words_[kM - 1]);
  ready_ = kN;
}

KeyedEngine::result_type KeyedEngine::Later() {
  if (!later_.has_value()) {
    later_.emplace(seed_);
    for (std::size_t k = 0; k < kKeyedOutputs; ++k) (*later_)();
  }
  return (*later_)();
}

void FirstOutputs(std::span<const std::uint64_t> seeds,
                  std::span<KeyedOutputs> out) {
  std::size_t i = 0;
  for (; i + 4 <= seeds.size(); i += 4) FirstOutputsOf<4>(&seeds[i], &out[i]);
  switch (seeds.size() - i) {
    case 3:
      FirstOutputsOf<3>(&seeds[i], &out[i]);
      break;
    case 2:
      FirstOutputsOf<2>(&seeds[i], &out[i]);
      break;
    case 1:
      FirstOutputsOf<1>(&seeds[i], &out[i]);
      break;
    default:
      break;
  }
}

}  // namespace painter::util
