#include <gtest/gtest.h>

#include <sstream>

#include "core/config_io.h"
#include "core/orchestrator.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

AdvertisementConfig Sample() {
  AdvertisementConfig cfg;
  cfg.AddPrefix({util::PeeringId{3}, util::PeeringId{17}, util::PeeringId{42}});
  cfg.AddPrefix({util::PeeringId{5}});
  return cfg;
}

TEST(ConfigIo, RoundTrip) {
  const auto original = Sample();
  const auto parsed = ConfigFromString(ConfigToString(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->PrefixCount(), original.PrefixCount());
  for (std::size_t p = 0; p < original.PrefixCount(); ++p) {
    EXPECT_EQ(parsed->Sessions(p), original.Sessions(p));
  }
}

TEST(ConfigIo, WritesStableFormat) {
  const std::string text = ConfigToString(Sample());
  EXPECT_EQ(text,
            "# painter-advertisement-config v1\n"
            "prefix 0: 3 17 42\n"
            "prefix 1: 5\n");
}

TEST(ConfigIo, EmptyConfigRoundTrips) {
  const auto parsed = ConfigFromString(ConfigToString(AdvertisementConfig{}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->PrefixCount(), 0u);
}

TEST(ConfigIo, RejectsMissingHeader) {
  ParseError err;
  EXPECT_FALSE(ConfigFromString("prefix 0: 1\n", nullptr, &err).has_value());
  EXPECT_EQ(err.line, 1u);
}

TEST(ConfigIo, RejectsOutOfOrderPrefixes) {
  ParseError err;
  const std::string text =
      "# painter-advertisement-config v1\nprefix 1: 3\n";
  EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value());
  EXPECT_EQ(err.line, 2u);
}

TEST(ConfigIo, RejectsMalformedSessionId) {
  ParseError err;
  const std::string text =
      "# painter-advertisement-config v1\nprefix 0: 3 x\n";
  EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value());
  EXPECT_NE(err.message.find("malformed"), std::string::npos);
}

TEST(ConfigIo, RejectsEmptyPrefix) {
  ParseError err;
  const std::string text = "# painter-advertisement-config v1\nprefix 0:\n";
  EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value());
}

TEST(ConfigIo, SkipsCommentsAndBlankLines) {
  const std::string text =
      "# painter-advertisement-config v1\n"
      "# produced by the orchestrator\n"
      "\n"
      "prefix 0: 7\n";
  const auto parsed = ConfigFromString(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->PrefixCount(), 1u);
}

TEST(ConfigIo, ValidatesAgainstDeployment) {
  const test::World& w = test::SharedWorld();
  AdvertisementConfig cfg;
  cfg.AddPrefix({w.deployment->peerings().front().id});
  const auto ok = ConfigFromString(ConfigToString(cfg), w.deployment.get());
  EXPECT_TRUE(ok.has_value());

  AdvertisementConfig bad;
  bad.AddPrefix({util::PeeringId{10'000'000}});
  ParseError err;
  EXPECT_FALSE(ConfigFromString(ConfigToString(bad), w.deployment.get(), &err)
                   .has_value());
  EXPECT_NE(err.message.find("not in the deployment"), std::string::npos);
}

AdvertisementConfig AttributedSample() {
  AdvertisementConfig cfg;
  cfg.AddPrefix({util::PeeringId{3}, util::PeeringId{17}, util::PeeringId{42}},
                {SessionAttr{.prepend = 2}, SessionAttr{},
                 SessionAttr{.community = bgpsim::Community::kLowerPref}});
  cfg.AddPrefix({util::PeeringId{5}},
                {SessionAttr{.prepend = 1,
                             .community = bgpsim::Community::kNoExportUp}});
  return cfg;
}

TEST(ConfigIo, AttributedWritesV2Format) {
  EXPECT_EQ(ConfigToString(AttributedSample()),
            "# painter-advertisement-config v2\n"
            "prefix 0: 3/p2 17 42/lp\n"
            "prefix 1: 5/p1/nx\n");
}

TEST(ConfigIo, AttributedRoundTrip) {
  const auto original = AttributedSample();
  const auto parsed = ConfigFromString(ConfigToString(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->PrefixCount(), original.PrefixCount());
  for (std::size_t p = 0; p < original.PrefixCount(); ++p) {
    EXPECT_EQ(parsed->Sessions(p), original.Sessions(p));
    EXPECT_EQ(parsed->Attrs(p), original.Attrs(p));
  }
}

TEST(ConfigIo, AllDefaultAttrsStillWriteV1) {
  // The legacy action space must keep the byte-identical v1 wire format even
  // when built through the attributed AddPrefix overload.
  AdvertisementConfig cfg;
  cfg.AddPrefix({util::PeeringId{3}, util::PeeringId{17}},
                {SessionAttr{}, SessionAttr{}});
  EXPECT_EQ(ConfigToString(cfg),
            "# painter-advertisement-config v1\n"
            "prefix 0: 3 17\n");
}

TEST(ConfigIo, RejectsIdsThatDoNotFitAPeeringId) {
  // Without a deployment to check against, ids at or past the invalid
  // sentinel must still fail on their own line instead of wrapping to 32
  // bits (4294967296 -> 0, 4294967299 -> 3) or becoming the sentinel.
  for (const char* id : {"4294967295", "4294967296", "4294967299"}) {
    for (const char* header : {"# painter-advertisement-config v1",
                               "# painter-advertisement-config v2"}) {
      ParseError err;
      const std::string text =
          std::string{header} + "\nprefix 0: 3\nprefix 1: 5 " + id + "\n";
      EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value()) << id;
      EXPECT_EQ(err.line, 3u) << id;
      EXPECT_NE(err.message.find("out of range"), std::string::npos) << id;
    }
  }
  const auto max_valid = ConfigFromString(
      "# painter-advertisement-config v1\nprefix 0: 4294967294\n");
  ASSERT_TRUE(max_valid.has_value());
  EXPECT_TRUE(max_valid->Sessions(0).at(0).valid());
}

TEST(ConfigIo, V1RejectsAttributeSuffixes) {
  ParseError err;
  const std::string text =
      "# painter-advertisement-config v1\nprefix 0: 3/p2\n";
  EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value());
  EXPECT_NE(err.message.find("v2"), std::string::npos);
}

TEST(ConfigIo, RejectsMalformedAttributeTokens) {
  for (const char* token :
       {"3/p0", "3/p4", "3/px", "3/lp/nx", "3/p1/p2", "3/zz", "3/"}) {
    ParseError err;
    const std::string text = std::string{
        "# painter-advertisement-config v2\nprefix 0: "} + token + "\n";
    EXPECT_FALSE(ConfigFromString(text, nullptr, &err).has_value())
        << "token " << token << " should not parse";
  }
}

TEST(ConfigIo, WideOrchestratorOutputRoundTripsAgainstDeployment) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  OrchestratorConfig ocfg;
  ocfg.prefix_budget = 4;
  ocfg.action_space = ActionSpaceConfig{.max_prepend = 2,
                                        .enable_lower_pref = true,
                                        .enable_no_export = true};
  Orchestrator orch{inst, ocfg};
  const auto cfg = orch.ComputeConfig();
  const auto parsed =
      ConfigFromString(ConfigToString(cfg), w.deployment.get());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->PrefixCount(), cfg.PrefixCount());
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    EXPECT_EQ(parsed->Sessions(p), cfg.Sessions(p));
    EXPECT_EQ(parsed->Attrs(p), cfg.Attrs(p));
  }
}

TEST(ConfigIo, OrchestratorOutputRoundTripsAgainstDeployment) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  OrchestratorConfig ocfg;
  ocfg.prefix_budget = 4;
  Orchestrator orch{inst, ocfg};
  const auto cfg = orch.ComputeConfig();
  const auto parsed =
      ConfigFromString(ConfigToString(cfg), w.deployment.get());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AnnouncementCount(), cfg.AnnouncementCount());
}

}  // namespace
}  // namespace painter::core
