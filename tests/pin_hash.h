// FNV-1a over the bit patterns of pinned values. Exact-output pins hash
// every value a layer returns so that a drifted draw or a reordered loop
// fails its pin directly, instead of only when it happens to flip a golden
// schedule. Changing a pinned constant is a re-baseline.
#pragma once

#include <bit>
#include <cstdint>

namespace painter::test {

class Fnv1a {
 public:
  void Add(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace painter::test
