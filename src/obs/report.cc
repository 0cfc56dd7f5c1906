#include "obs/report.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/timeseries.h"

namespace painter::obs {

namespace {

// The registry/timeseries serializers end with a newline; inlining into the
// report drops it.
std::string TrimTrailing(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

}  // namespace

void RunReport::AddConfig(std::string key, std::string value) {
  config_.push_back(ConfigEntry{std::move(key), std::move(value), 0.0, false});
}

void RunReport::AddConfig(std::string key, double value) {
  config_.push_back(ConfigEntry{std::move(key), {}, value, true});
}

void RunReport::AddPhaseMs(std::string name, double wall_ms) {
  phases_.emplace_back(std::move(name), wall_ms);
}

void RunReport::AddValue(std::string key, double value) {
  values_.emplace_back(std::move(key), value);
}

void RunReport::AttachMetrics(const MetricsRegistry& reg) {
  metrics_json_ = TrimTrailing(reg.ToJson());
}

void RunReport::AttachTimeseries(const TimeseriesRegistry& reg) {
  timeseries_json_ = TrimTrailing(reg.ToJson());
}

std::string RunReport::ToJson() const {
  std::ostringstream os;
  JsonWriter w{os};
  w.BeginObject();
  w.Key("schema");
  w.String("painter.bench.v1");
  w.Key("name");
  w.String(name_);
  if (have_seed_) {
    w.Key("seed");
    w.Number(static_cast<std::uint64_t>(seed_));
  }
  w.Key("config");
  w.BeginObject();
  for (const ConfigEntry& e : config_) {
    w.Key(e.key);
    if (e.is_number) {
      w.Number(e.num_value);
    } else {
      w.String(e.str_value);
    }
  }
  w.EndObject();
  w.Key("phases");
  w.BeginArray();
  for (const auto& [name, wall_ms] : phases_) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("wall_ms");
    w.Number(wall_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("values");
  w.BeginObject();
  for (const auto& [key, value] : values_) {
    w.Key(key);
    w.Number(value);
  }
  w.EndObject();
  // Already-serialized sections (metrics snapshot, timeseries block) are
  // spliced in verbatim after the writer-built prefix; "schema" guarantees
  // the object is non-empty, so the leading comma is always correct.
  std::string body = os.str();
  const auto splice = [&body](const char* key, const std::string& raw) {
    if (raw.empty()) return;
    body += ",\"";
    body += key;
    body += "\":";
    body += raw;
  };
  splice("timeseries", timeseries_json_);
  splice("metrics", metrics_json_);
  body += '}';
  return body;
}

void RunReport::Write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (os) os << ToJson() << '\n' << std::flush;
  if (!os) throw std::runtime_error{"RunReport: cannot write " + path};
}

namespace {

bool IsVolatileKey(std::string_view key) {
  return key == "ts" || key == "dur" || key == "wall_ms" ||
         key.substr(0, 5) == "wall_";
}

}  // namespace

std::string StripVolatile(std::string_view json) {
  std::string out;
  out.reserve(json.size());
  std::size_t i = 0;
  const std::size_t n = json.size();
  while (i < n) {
    const char c = json[i];
    if (c != '"') {
      out += c;
      ++i;
      continue;
    }
    // Copy the quoted string, tracking its content for the key test.
    const std::size_t start = i++;
    std::string content;
    while (i < n && json[i] != '"') {
      if (json[i] == '\\' && i + 1 < n) {
        content += json[i];
        content += json[i + 1];
        i += 2;
      } else {
        content += json[i];
        ++i;
      }
    }
    if (i < n) ++i;  // closing quote
    out.append(json.substr(start, i - start));
    // A key is a quoted string followed (modulo whitespace) by a colon.
    std::size_t j = i;
    while (j < n && (json[j] == ' ' || json[j] == '\n' || json[j] == '\t')) {
      ++j;
    }
    if (j >= n || json[j] != ':' || !IsVolatileKey(content)) continue;
    // Copy the colon, then replace the value.
    out.append(json.substr(i, j + 1 - i));
    i = j + 1;
    while (i < n && (json[i] == ' ' || json[i] == '\n' || json[i] == '\t')) {
      ++i;
    }
    if (i < n && json[i] == '[') {
      // Skip the (flat, numeric) array.
      int depth = 0;
      while (i < n) {
        if (json[i] == '[') ++depth;
        if (json[i] == ']' && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
      out += "[]";
    } else {
      while (i < n && json[i] != ',' && json[i] != '}' && json[i] != ']' &&
             json[i] != '\n') {
        ++i;
      }
      out += '0';
    }
  }
  return out;
}

}  // namespace painter::obs
