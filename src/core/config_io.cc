#include "core/config_io.h"

#include <charconv>
#include <sstream>

namespace painter::core {
namespace {

constexpr const char* kHeaderV1 = "# painter-advertisement-config v1";
constexpr const char* kHeaderV2 = "# painter-advertisement-config v2";

bool SetError(ParseError* error, std::size_t line, std::string message) {
  if (error != nullptr) {
    error->line = line;
    error->message = std::move(message);
  }
  return false;
}

// Parses a v2 session token `<id>[/pN][/lp|/nx]` (suffixes in any order,
// each at most once). Returns false on malformed input, and on an id that
// does not fit a valid PeeringId.
bool ParseSessionToken(const std::string& token, std::uint64_t* id,
                       SessionAttr* attr, std::string* why) {
  const std::size_t slash = token.find('/');
  const std::string id_part = token.substr(0, slash);
  const auto [ptr, ec] = std::from_chars(
      id_part.data(), id_part.data() + id_part.size(), *id);
  if (ec != std::errc{} || ptr != id_part.data() + id_part.size() ||
      id_part.empty()) {
    *why = "malformed session id";
    return false;
  }
  if (*id >= util::PeeringId::kInvalidValue) {
    *why = "session id " + id_part + " out of range";
    return false;
  }
  *attr = SessionAttr{};
  bool saw_prepend = false;
  bool saw_community = false;
  std::size_t pos = slash;
  while (pos != std::string::npos) {
    const std::size_t next = token.find('/', pos + 1);
    const std::string suffix = token.substr(
        pos + 1, next == std::string::npos ? std::string::npos : next - pos - 1);
    if (suffix.size() >= 2 && suffix[0] == 'p' && !saw_prepend) {
      std::uint32_t n = 0;
      const auto [p2, e2] = std::from_chars(
          suffix.data() + 1, suffix.data() + suffix.size(), n);
      if (e2 != std::errc{} || p2 != suffix.data() + suffix.size() ||
          n == 0 || n > bgpsim::kMaxPrepend) {
        *why = "prepend suffix out of range in '" + token + "'";
        return false;
      }
      attr->prepend = static_cast<std::uint8_t>(n);
      saw_prepend = true;
    } else if (suffix == "lp" && !saw_community) {
      attr->community = bgpsim::Community::kLowerPref;
      saw_community = true;
    } else if (suffix == "nx" && !saw_community) {
      attr->community = bgpsim::Community::kNoExportUp;
      saw_community = true;
    } else {
      *why = "unrecognized session suffix in '" + token + "'";
      return false;
    }
    pos = next;
  }
  return true;
}

}  // namespace

void WriteConfig(std::ostream& os, const AdvertisementConfig& config) {
  const bool v2 = !config.AllAttrsDefault();
  os << (v2 ? kHeaderV2 : kHeaderV1) << "\n";
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    os << "prefix " << p << ":";
    const auto& sessions = config.Sessions(p);
    const auto& attrs = config.Attrs(p);
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      os << ' ' << sessions[k].value();
      if (v2 && !attrs[k].IsDefault()) {
        if (attrs[k].prepend > 0) {
          os << "/p" << static_cast<unsigned>(attrs[k].prepend);
        }
        if (attrs[k].community == bgpsim::Community::kLowerPref) os << "/lp";
        if (attrs[k].community == bgpsim::Community::kNoExportUp) os << "/nx";
      }
    }
    os << "\n";
  }
}

std::string ConfigToString(const AdvertisementConfig& config) {
  std::ostringstream os;
  WriteConfig(os, config);
  return os.str();
}

std::optional<AdvertisementConfig> ReadConfig(
    std::istream& is, const cloudsim::Deployment* deployment,
    ParseError* error) {
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(is, line) || (line != kHeaderV1 && line != kHeaderV2)) {
    SetError(error, 1, "missing or unrecognized header");
    return std::nullopt;
  }
  const bool v2 = line == kHeaderV2;
  ++line_no;

  AdvertisementConfig config;
  std::size_t expected_prefix = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;

    std::istringstream ls{line};
    std::string keyword;
    std::size_t index = 0;
    char colon = '\0';
    ls >> keyword >> index >> colon;
    if (keyword != "prefix" || colon != ':' || ls.fail()) {
      SetError(error, line_no, "expected 'prefix <n>: <sessions...>'");
      return std::nullopt;
    }
    if (index != expected_prefix) {
      SetError(error, line_no, "prefix indices must be dense and in order");
      return std::nullopt;
    }
    std::vector<util::PeeringId> sessions;
    std::vector<SessionAttr> attrs;
    std::string token;
    bool any_attr = false;
    while (ls >> token) {
      std::uint64_t raw = 0;
      SessionAttr attr;
      std::string why;
      if (!v2 && token.find('/') != std::string::npos) {
        SetError(error, line_no, "session attributes require the v2 header");
        return std::nullopt;
      }
      if (!ParseSessionToken(token, &raw, &attr, &why)) {
        SetError(error, line_no, std::move(why));
        return std::nullopt;
      }
      if (deployment != nullptr && raw >= deployment->peerings().size()) {
        SetError(error, line_no,
                 "session id " + std::to_string(raw) +
                     " not in the deployment");
        return std::nullopt;
      }
      sessions.push_back(util::PeeringId{static_cast<std::uint32_t>(raw)});
      attrs.push_back(attr);
      any_attr = any_attr || !attr.IsDefault();
    }
    if (sessions.empty()) {
      SetError(error, line_no, "prefix with no sessions");
      return std::nullopt;
    }
    if (any_attr) {
      config.AddPrefix(std::move(sessions), std::move(attrs));
    } else {
      config.AddPrefix(std::move(sessions));
    }
    ++expected_prefix;
  }
  return config;
}

std::optional<AdvertisementConfig> ConfigFromString(
    const std::string& text, const cloudsim::Deployment* deployment,
    ParseError* error) {
  std::istringstream is{text};
  return ReadConfig(is, deployment, error);
}

}  // namespace painter::core
