// Advertisement-configuration serialization.
//
// The Advertisement Orchestrator "would install computed configurations at
// Azure PoPs, and notify the Traffic Manager about available prefixes via a
// control channel" (§3.1). Installation and auditing need a stable wire
// format; this is a minimal line-oriented one:
//
//   # painter-advertisement-config v1
//   prefix 0: 3 17 42
//   prefix 1: 5
//
// Session ids are validated against a deployment on load, so a stale config
// cannot be installed against a changed peering fabric.
//
// Configs that use advertisement attributes (prepending / communities) are
// written in the v2 format, where a session token may carry suffixes:
//
//   # painter-advertisement-config v2
//   prefix 0: 3/p2 17 42/lp
//   prefix 1: 5/p1/nx
//
// /pN = N AS-path prepends (1..kMaxPrepend), /lp = lower-pref community,
// /nx = no-export-up community. An all-default config always writes v1, so
// legacy action spaces remain byte-identical; the reader accepts both.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "core/advertisement.h"
#include "cloudsim/deployment.h"

namespace painter::core {

// Writes `config` in the v1 text format (v2 when any session carries
// non-default attributes).
void WriteConfig(std::ostream& os, const AdvertisementConfig& config);

[[nodiscard]] std::string ConfigToString(const AdvertisementConfig& config);

struct ParseError {
  std::size_t line = 0;
  std::string message;
};

// Parses the v1 and v2 formats. On failure returns nullopt and fills `error`
// (if non-null). Every session id must fit a valid PeeringId; when
// `deployment` is provided, it must also exist in it.
[[nodiscard]] std::optional<AdvertisementConfig> ReadConfig(
    std::istream& is, const cloudsim::Deployment* deployment = nullptr,
    ParseError* error = nullptr);

[[nodiscard]] std::optional<AdvertisementConfig> ConfigFromString(
    const std::string& text,
    const cloudsim::Deployment* deployment = nullptr,
    ParseError* error = nullptr);

}  // namespace painter::core
