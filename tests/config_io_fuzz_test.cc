// Seeded mutation fuzzer for the advertisement-config parser (config_io.h).
//
// Fixed-seed v1 and v2 configs are written with ConfigToString, then each
// text takes 1-3 mutations: a bit flip, a byte insert or delete, a
// duplicated token, a spliced /pN, /lp or /nx suffix, or a token replaced by
// a session id at the 32-bit boundary. Every mutant must either
//  - fail with a ParseError whose line lies inside the text and whose
//    message is non-empty, or
//  - parse to a config whose every session is a valid PeeringId and which
//    round-trips through ConfigToString to itself.
// Nothing may throw; tools/asan_check.sh runs this suite (label `fuzz`)
// under ASan and UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config_io.h"
#include "util/rng.h"

namespace painter::core {
namespace {

constexpr std::uint64_t kSeed = 0xC0F1F022;
constexpr int kBaseConfigs = 48;
constexpr int kMutantsPerConfig = 200;

SessionAttr RandomAttr(util::Rng& rng) {
  SessionAttr attr;
  if (rng.Bernoulli(0.5)) return attr;
  attr.prepend =
      static_cast<std::uint8_t>(rng.UniformInt(0, bgpsim::kMaxPrepend));
  switch (rng.UniformInt(0, 2)) {
    case 1:
      attr.community = bgpsim::Community::kLowerPref;
      break;
    case 2:
      attr.community = bgpsim::Community::kNoExportUp;
      break;
    default:
      break;
  }
  return attr;
}

// All-default attributes write v1; `attributed` configs mostly write v2.
AdvertisementConfig RandomConfig(util::Rng& rng, bool attributed) {
  AdvertisementConfig cfg;
  const std::int64_t prefixes = rng.UniformInt(0, 5);
  for (std::int64_t p = 0; p < prefixes; ++p) {
    std::vector<util::PeeringId> sessions;
    std::vector<SessionAttr> attrs;
    const std::int64_t n = rng.UniformInt(1, 6);
    for (std::int64_t k = 0; k < n; ++k) {
      sessions.emplace_back(
          static_cast<std::uint32_t>(rng.UniformInt(0, 300)));
      attrs.push_back(attributed ? RandomAttr(rng) : SessionAttr{});
    }
    cfg.AddPrefix(std::move(sessions), std::move(attrs));
  }
  return cfg;
}

// [begin, end) of every whitespace-separated token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> Tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) out.emplace_back(begin, i);
  }
  return out;
}

void Mutate(std::string& text, util::Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789 /:#\n\tplnxv-+";
  static constexpr const char* kSuffixes[] = {"/p0", "/p1", "/p2", "/p3",
                                              "/p4", "/lp", "/nx"};
  static constexpr const char* kBoundaryIds[] = {
      "4294967294", "4294967295", "4294967296", "4294967299",
      "18446744073709551615", "18446744073709551616"};
  const auto tokens = Tokens(text);
  switch (rng.UniformInt(0, 5)) {
    case 0:  // flip one bit
      if (!text.empty()) {
        text[rng.Index(text.size())] ^=
            static_cast<char>(1u << rng.UniformInt(0, 7));
      }
      break;
    case 1: {  // insert a byte: half from the format's alphabet
      const char c =
          rng.Bernoulli(0.5)
              ? kAlphabet[rng.Index(sizeof(kAlphabet) - 1)]
              : static_cast<char>(rng.UniformInt(0, 255));
      text.insert(text.begin() +
                      static_cast<std::ptrdiff_t>(rng.Index(text.size() + 1)),
                  c);
      break;
    }
    case 2:  // delete a byte
      if (!text.empty()) text.erase(rng.Index(text.size()), 1);
      break;
    case 3:  // duplicate a token
      if (!tokens.empty()) {
        const auto [b, e] = tokens[rng.Index(tokens.size())];
        text.insert(e, " " + text.substr(b, e - b));
      }
      break;
    case 4:  // splice an attribute suffix onto a token
      if (!tokens.empty()) {
        text.insert(tokens[rng.Index(tokens.size())].second,
                    kSuffixes[rng.Index(std::size(kSuffixes))]);
      }
      break;
    default:  // replace a token with an id at the 32-bit boundary
      if (!tokens.empty()) {
        const auto [b, e] = tokens[rng.Index(tokens.size())];
        text.replace(b, e - b,
                     kBoundaryIds[rng.Index(std::size(kBoundaryIds))]);
      }
      break;
  }
}

// Lines std::getline reads from `text`; an empty text still has line 1.
std::size_t LineCount(const std::string& text) {
  std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  if (text.empty() || text.back() != '\n') ++lines;
  return lines;
}

// The oracle. Returns whether `text` parsed.
bool CheckMutant(const std::string& text) {
  ParseError err;
  std::optional<AdvertisementConfig> parsed;
  EXPECT_NO_THROW(parsed = ConfigFromString(text, nullptr, &err)) << text;
  if (!parsed.has_value()) {
    EXPECT_GE(err.line, 1u) << text;
    EXPECT_LE(err.line, LineCount(text)) << text;
    EXPECT_FALSE(err.message.empty()) << text;
    return false;
  }
  for (std::size_t p = 0; p < parsed->PrefixCount(); ++p) {
    for (const util::PeeringId sid : parsed->Sessions(p)) {
      EXPECT_TRUE(sid.valid()) << text;
    }
  }
  const std::string wire = ConfigToString(*parsed);
  const auto again = ConfigFromString(wire);
  EXPECT_TRUE(again.has_value()) << wire;
  if (again.has_value()) {
    EXPECT_EQ(ConfigToString(*again), wire) << text;
  }
  return true;
}

TEST(ConfigIoFuzz, SeedConfigsRoundTrip) {
  util::Rng rng{kSeed};
  for (int i = 0; i < kBaseConfigs; ++i) {
    const std::string text = ConfigToString(RandomConfig(rng, i % 2 == 1));
    const auto parsed = ConfigFromString(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(ConfigToString(*parsed), text);
  }
}

TEST(ConfigIoFuzz, MutantsFailCleanlyOrRoundTrip) {
  util::Rng rng{kSeed};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t v2_seeds = 0;
  for (int i = 0; i < kBaseConfigs; ++i) {
    const std::string seed_text =
        ConfigToString(RandomConfig(rng, i % 2 == 1));
    if (seed_text.find(" v2\n") != std::string::npos) ++v2_seeds;
    for (int m = 0; m < kMutantsPerConfig; ++m) {
      std::string text = seed_text;
      const std::int64_t mutations = rng.UniformInt(1, 3);
      for (std::int64_t k = 0; k < mutations; ++k) Mutate(text, rng);
      if (CheckMutant(text)) {
        ++accepted;
      } else {
        ++rejected;
      }
      if (HasFailure()) return;  // one reproducer is enough
    }
  }
  // Neither outcome may be vacuous, and both wire versions were mutated.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(v2_seeds, 0u);
  EXPECT_LT(v2_seeds, static_cast<std::size_t>(kBaseConfigs));
}

}  // namespace
}  // namespace painter::core
