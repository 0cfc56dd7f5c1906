#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/hashmix.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace painter::util {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  AsId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrip) {
  AsId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(AsId{1}, AsId{2});
  EXPECT_EQ(AsId{7}, AsId{7});
  EXPECT_NE(AsId{7}, AsId{8});
}

TEST(StrongId, DistinctTypesDoNotMix) {
  // Compile-time property; hashing works per type.
  std::unordered_set<AsId> as_set{AsId{1}, AsId{2}, AsId{1}};
  EXPECT_EQ(as_set.size(), 2u);
  std::unordered_set<PopId> pop_set{PopId{1}};
  EXPECT_EQ(pop_set.size(), 1u);
}

TEST(Units, MillisArithmetic) {
  Millis a{10.0};
  Millis b{2.5};
  EXPECT_DOUBLE_EQ((a + b).count(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).count(), 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).count(), 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).count(), 5.0);
  EXPECT_LT(b, a);
}

TEST(Units, FiberLatencyMatchesSpeedOfLightInFiber) {
  // 200 km of fiber is 1 ms one-way, 2 ms RTT.
  EXPECT_DOUBLE_EQ(FiberLatency(Km{200.0}).count(), 1.0);
  EXPECT_DOUBLE_EQ(FiberRtt(Km{200.0}).count(), 2.0);
}

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform01() != b.Uniform01()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng{7};
  const double w[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(w), 1u);
  }
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  Rng rng{7};
  const double w[] = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(w), 2u);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(5.0, 1.5), 5.0);
  }
}

static_assert(std::uniform_random_bit_generator<LazyMt19937_64>);

// The lazy engine must be std::mt19937_64 output for output: across the
// lazy outputs, the hand-over at output 156 (which finishes the first twist
// in place) and three re-twists, at outputs 468, 780 and 1092.
TEST(LazyMt19937_64, MatchesStdEngine) {
  std::vector<std::uint64_t> seeds = {0, ~std::uint64_t{0}};
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    seeds.push_back(i);
    seeds.push_back(MixSeed(0x44, i));
  }
  std::size_t mismatches = 0;
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 want{seed};
    LazyMt19937_64 got{seed};
    for (int k = 0; k < 1100; ++k) {
      const auto w = want();
      const auto g = got();
      if (w != g && mismatches++ == 0) {
        ADD_FAILURE() << "seed " << seed << " output " << k << ": " << g
                      << " != " << w;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

static_assert(std::uniform_random_bit_generator<KeyedEngine>);

// The keyed-draw kernel returns std::mt19937_64's first kKeyedOutputs
// outputs for every seed of a batch, at batch sizes 1-9 so that full
// four-seed groups and every tail size are covered, and KeyedEngine goes
// on past them with the standard engine's later outputs.
TEST(KeyedEngine, MatchesStdEngine) {
  std::vector<std::uint64_t> seeds = {0, ~std::uint64_t{0}};
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    seeds.push_back(i);
    seeds.push_back(MixSeed(0x33, i));
  }
  std::vector<KeyedOutputs> first(seeds.size());
  std::size_t mismatches = 0;
  auto check = [&](std::uint64_t seed, std::size_t k, std::uint64_t got,
                   std::uint64_t want) {
    if (got != want && mismatches++ == 0) {
      ADD_FAILURE() << "seed " << seed << " output " << k << ": " << got
                    << " != " << want;
    }
  };
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    for (std::size_t i = 0; i < seeds.size(); i += batch) {
      const std::size_t n = std::min(batch, seeds.size() - i);
      FirstOutputs(std::span{seeds}.subspan(i, n),
                   std::span{first}.subspan(i, n));
    }
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      std::mt19937_64 want{seeds[i]};
      for (std::size_t k = 0; k < kKeyedOutputs; ++k) {
        check(seeds[i], k, first[i][k], want());
      }
    }
  }
  for (std::size_t i = 0; i < seeds.size(); i += 97) {
    std::mt19937_64 want{seeds[i]};
    KeyedEngine got{seeds[i], first[i]};
    for (std::size_t k = 0; k < 700; ++k) check(seeds[i], k, got(), want());
  }
  EXPECT_EQ(mismatches, 0u);
}

// ForEachKeyed hands draw(i) a generator that draws what Rng{seed_of(i)}
// draws, in index order, across its chunks.
TEST(KeyedEngine, ForEachKeyedDrawsWhatRngDraws) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              kKeyedChunk, kKeyedChunk + 1,
                              2 * kKeyedChunk + 3}) {
    std::vector<std::size_t> order;
    ForEachKeyed(
        n, [](std::size_t i) { return MixSeed(0x22, i); },
        [&](std::size_t i, KeyedRng& rng) {
          order.push_back(i);
          Rng want{MixSeed(0x22, i)};
          EXPECT_EQ(rng.Bernoulli(0.1), want.Bernoulli(0.1)) << i;
          // Five normals read at least ten outputs, past the kernel's eight.
          for (int k = 0; k < 5; ++k) {
            EXPECT_EQ(rng.LogNormal(0.85, 0.35), want.LogNormal(0.85, 0.35))
                << i;
          }
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
  }
}

// An engine that returns one fixed value, for exercising Canonical.
struct FixedEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return value; }
  result_type value;
};

// Canonical converts exactly as std::generate_canonical<double, 53> does:
// at the bottom of the range, on both sides of 2^53, on round-half-even
// ties (down to the even neighbour and up to it), at 2^63, at the largest
// double below 2^64, and at 2^64 - 1, which rounds to 1.0 and is clamped.
TEST(Canonical, MatchesGenerateCanonical) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::uint64_t values[] = {
      0,
      1,
      0xffffffffu,
      std::uint64_t{0xffffffffu} << 32,
      k53 - 1,
      k53,
      k53 + 1,  // tie: down to 2^53
      k53 + 3,  // tie: up to 2^53 + 4
      k63 - 1,
      k63,
      k63 + (std::uint64_t{1} << 10),      // tie: down to 2^63
      k63 + (std::uint64_t{3} << 10),      // tie: up to 2^63 + 2^12
      k63 + (std::uint64_t{1} << 10) + 1,  // just past a tie: up
      ~std::uint64_t{0} - 2047,  // 2^64 - 2^11, the largest double below 2^64
      ~std::uint64_t{0} - 1023,  // 2^64 - 2^10, tie: up to 2^64, clamped
      ~std::uint64_t{0},         // 2^64 - 1: rounds to 2^64, clamped
  };
  for (const std::uint64_t v : values) {
    FixedEngine want{v};
    FixedEngine got{v};
    EXPECT_EQ(Canonical(got), (std::generate_canonical<double, 53>(want)))
        << v;
  }
  FixedEngine top{~std::uint64_t{0}};
  EXPECT_EQ(Canonical(top), std::nextafter(1.0, 0.0));
}

// Rng must draw exactly what libstdc++ 12's standard distributions draw
// over std::mt19937_64, which Rng wrapped before: the real-valued draws are
// their formulas written out, and UniformInt, Shuffle and Fork still call
// the standard distributions. Index, Pareto and WeightedIndex are built on
// UniformInt and Uniform.
TEST(Rng, SameDrawsAsStdEngine) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, MixSeed(7, 0x22, 3, 5),
        ~std::uint64_t{0}}) {
    std::mt19937_64 want{seed};
    Rng got{seed};
    // 40 rounds of ~25 engine outputs each run past the hand-over at output
    // 156 and the re-twists at 468 and 780.
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
      EXPECT_EQ(got.Uniform01(),
                std::uniform_real_distribution<double>(0.0, 1.0)(want));
      EXPECT_EQ(got.Uniform(-3.0, 8.0),
                std::uniform_real_distribution<double>(-3.0, 8.0)(want));
      EXPECT_EQ(got.UniformInt(-5, 1'000'000'007),
                std::uniform_int_distribution<std::int64_t>(-5, 1'000'000'007)(
                    want));
      EXPECT_EQ(got.Bernoulli(0.3), std::bernoulli_distribution{0.3}(want));
      EXPECT_EQ(got.Exponential(0.25),
                std::exponential_distribution<double>(0.25)(want));
      EXPECT_EQ(got.Normal(0.85, 0.35),
                std::normal_distribution<double>(0.85, 0.35)(want));
      EXPECT_EQ(got.LogNormal(1.4, 0.5),
                std::lognormal_distribution<double>(1.4, 0.5)(want));
      EXPECT_EQ(got.Bernoulli(0.0), std::bernoulli_distribution{0.0}(want));
      EXPECT_EQ(got.Bernoulli(1.0), std::bernoulli_distribution{1.0}(want));
      EXPECT_EQ(got.Exponential(1.0 / 1.5),
                std::exponential_distribution<double>(1.0 / 1.5)(want));
      EXPECT_EQ(got.Exponential(1.0 / 20.0),
                std::exponential_distribution<double>(1.0 / 20.0)(want));
      // std::normal_distribution requires stddev > 0; at 0, Normal returns
      // the mean after the same polar draws a stddev-1 normal makes.
      EXPECT_EQ(got.Normal(2.5, 0.0), 2.5);
      (void)std::normal_distribution<double>(2.5, 1.0)(want);
      EXPECT_EQ(got.LogNormal(0.0, 0.08),
                std::lognormal_distribution<double>(0.0, 0.08)(want));
      EXPECT_EQ(got.Uniform(4.0, 4.0),
                std::uniform_real_distribution<double>(4.0, 4.0)(want));
      std::vector<int> shuffled = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      std::vector<int> expected = shuffled;
      got.Shuffle(std::span<int>{shuffled});
      std::shuffle(expected.begin(), expected.end(), want);
      EXPECT_EQ(shuffled, expected);
      std::mt19937_64 want_child{want()};
      EXPECT_EQ(got.Fork().Uniform01(),
                std::uniform_real_distribution<double>(0.0, 1.0)(want_child));
    }
  }
}

TEST(Stats, MeanAndVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Variance(xs), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyMeanIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(Stats, WeightedMean) {
  const double xs[] = {1.0, 10.0};
  const double ws[] = {9.0, 1.0};
  EXPECT_NEAR(WeightedMean(xs, ws), 1.9, 1e-12);
}

TEST(Stats, WeightedMeanSizeMismatchThrows) {
  const double xs[] = {1.0};
  const double ws[] = {1.0, 2.0};
  EXPECT_THROW((void)WeightedMean(xs, ws), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 10.0);
}

TEST(Stats, PercentileOutOfRangeThrows) {
  const double xs[] = {1.0};
  EXPECT_THROW((void)Percentile(xs, 101.0), std::invalid_argument);
}

TEST(EmpiricalCdfTest, FractionAndQuantile) {
  EmpiricalCdf cdf;
  cdf.Add(1.0);
  cdf.Add(2.0);
  cdf.Add(3.0);
  cdf.Add(4.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.0);
}

TEST(EmpiricalCdfTest, Weighted) {
  EmpiricalCdf cdf;
  cdf.Add(1.0, 3.0);
  cdf.Add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.75);
}

TEST(EmpiricalCdfTest, NegativeWeightThrows) {
  EmpiricalCdf cdf;
  EXPECT_THROW(cdf.Add(1.0, -1.0), std::invalid_argument);
}

TEST(EmpiricalCdfTest, SeriesCoversRange) {
  EmpiricalCdf cdf;
  for (int i = 0; i <= 10; ++i) cdf.Add(i);
  const auto series = cdf.Series(5);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  EXPECT_DOUBLE_EQ(series.back().first, 10.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdfTest, WeightedQuantile) {
  // Quantile is the first sample whose cumulative weight reaches q * total:
  // with (1, w=1) and (2, w=3), a quarter of the mass sits at 1.
  EmpiricalCdf cdf;
  cdf.Add(2.0, 3.0);
  cdf.Add(1.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);  // smallest sample
}

TEST(EmpiricalCdfTest, QuantileOutOfRangeThrows) {
  EmpiricalCdf cdf;
  cdf.Add(1.0);
  EXPECT_THROW((void)cdf.Quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)cdf.Quantile(1.1), std::invalid_argument);
}

TEST(EmpiricalCdfTest, SeriesEndpointsAreMinAndMax) {
  EmpiricalCdf cdf;
  cdf.Add(2.0);
  cdf.Add(4.0);
  cdf.Add(6.0);
  cdf.Add(8.0);
  const auto series = cdf.Series(4);
  ASSERT_EQ(series.size(), 4u);
  // First point sits at the minimum with that sample's own mass...
  EXPECT_DOUBLE_EQ(series.front().first, 2.0);
  EXPECT_DOUBLE_EQ(series.front().second, 0.25);
  // ...and the last point closes the CDF at (max, 1.0).
  EXPECT_DOUBLE_EQ(series.back().first, 8.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdfTest, SingleSample) {
  EmpiricalCdf cdf;
  cdf.Add(5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.9), 0.0);
  const auto series = cdf.Series(10);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series.front().first, 5.0);
  EXPECT_DOUBLE_EQ(series.front().second, 1.0);
}

TEST(EmpiricalCdfTest, AllEqualSamplesCollapseToOnePoint) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 7; ++i) cdf.Add(3.0);
  const auto series = cdf.Series(5);
  ASSERT_EQ(series.size(), 1u);  // lo == hi: a single (value, 1.0) point
  EXPECT_DOUBLE_EQ(series.front().first, 3.0);
  EXPECT_DOUBLE_EQ(series.front().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 3.0);
}

TEST(EmpiricalCdfTest, EmptyCdf) {
  const EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.Series(5).empty());
}

TEST(Accumulator, TracksMinMeanMax) {
  Accumulator acc;
  acc.Add(2.0);
  acc.Add(4.0);
  acc.Add(9.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

TEST(TableTest, PrintsAlignedRows) {
  Table t{{"a", "long_header"}};
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(TableTest, WrongCellCountThrows) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumAndPctFormat) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Pct(0.5, 1), "50.0%");
}

TEST(SweepTest, MismatchedSeriesThrows) {
  std::ostringstream os;
  EXPECT_THROW(
      PrintSweep(os, "x", {1.0, 2.0}, {Series{"s", {1.0}}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace painter::util
