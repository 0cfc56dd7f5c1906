#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/hashmix.h"
#include "util/rng.h"

namespace painter::workload {
namespace {

constexpr char kMagic[8] = {'P', 'W', 'L', 'T', '1', 0, 0, 0};
constexpr double kDayS = 86400.0;

void AppendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t ReadU32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  if (!is) throw std::runtime_error{"trace: truncated stream"};
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t ReadU64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), 8);
  if (!is) throw std::runtime_error{"trace: truncated stream"};
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

// Arrivals for one UG, appended to `out`: thinning over the diurnal
// envelope. The per-UG Rng is hash-seeded from (trace seed, ug id), so UGs
// are independent streams.
void GenerateForUg(const TraceConfig& config, const UgProfile& profile,
                   double base_rate, std::vector<FlowEvent>& out) {
  if (base_rate <= 0.0) return;
  util::Rng rng{util::MixSeed(config.seed, profile.ug, 0x7ACEu)};
  const double depth = std::clamp(config.diurnal_depth, 0.0, 0.99);
  const double lambda_max = base_rate * (1.0 + depth);
  const std::uint64_t duration_us =
      static_cast<std::uint64_t>(config.duration_s * 1e6);
  double t = 0.0;
  std::uint32_t seq = 0;
  for (;;) {
    t += rng.Exponential(lambda_max);
    const auto start_us = static_cast<std::uint64_t>(t * 1e6);
    if (!(t < config.duration_s) || start_us >= duration_us) break;
    const double lambda =
        base_rate * DiurnalFactor(t, profile.peak_hour, depth);
    if (rng.Uniform01() * lambda_max > lambda) continue;  // thinned out
    const double bytes =
        BoundedPareto(rng.Uniform01(), config.size_min_bytes,
                      config.size_max_bytes, config.size_alpha);
    out.push_back(FlowEvent{.start_us = start_us,
                            .ug = profile.ug,
                            .seq = seq++,
                            .bytes = static_cast<std::uint64_t>(bytes)});
  }
}

}  // namespace

double BoundedPareto(double u, double lo, double hi, double alpha) {
  u = std::clamp(u, 0.0, 1.0 - 1e-12);
  const double ratio = std::pow(lo / hi, alpha);
  return lo * std::pow(1.0 - u * (1.0 - ratio), -1.0 / alpha);
}

double DiurnalFactor(double t_s, double peak_hour, double depth) {
  const double hours = t_s / 3600.0;
  const double phase = 2.0 * M_PI * (hours - peak_hour) / 24.0;
  return 1.0 + depth * std::cos(phase);
}

Trace GenerateTrace(const TraceConfig& config,
                    std::span<const UgProfile> profiles) {
  Trace trace;
  trace.seed = config.seed;
  trace.duration_us = static_cast<std::uint64_t>(config.duration_s * 1e6);

  double total_weight = 0.0;
  for (const UgProfile& p : profiles) total_weight += std::max(p.weight, 0.0);
  if (total_weight <= 0.0 || config.mean_flows_per_s <= 0.0) return trace;

  for (const UgProfile& p : profiles) {
    const double base_rate =
        config.mean_flows_per_s * std::max(p.weight, 0.0) / total_weight;
    GenerateForUg(config, p, base_rate, trace.events);
  }
  // Canonical order: (start_us, ug, seq) — exactly FlowEvent's default
  // comparison. (ug, seq) is unique, so the order is total and the sorted
  // stream is independent of the order the UGs were generated in.
  std::sort(trace.events.begin(), trace.events.end());

  obs::Metrics().GetCounter("workload.trace.events").Add(trace.events.size());
  return trace;
}

std::vector<UgProfile> UgProfilesFromDeployment(
    const topo::Internet& internet, const cloudsim::Deployment& deployment) {
  std::vector<UgProfile> profiles;
  profiles.reserve(deployment.ugs().size());
  for (const cloudsim::UserGroup& ug : deployment.ugs()) {
    const topo::Metro& metro = internet.metros.at(ug.metro.value());
    UgProfile p;
    p.ug = ug.id.value();
    p.weight = ug.traffic_weight * metro.population_weight;
    // Local solar time runs 1 h per 15 degrees of longitude; sources peak in
    // their local afternoon (14:00), expressed here as hours UTC.
    p.peak_hour = std::fmod(14.0 - metro.location.lon_deg / 15.0 + 48.0, 24.0);
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<UgProfile> SyntheticUgProfiles(std::size_t count,
                                           std::uint64_t seed) {
  util::Rng rng{util::MixSeed(seed, 0x06u, count)};
  std::vector<UgProfile> profiles;
  profiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    UgProfile p;
    p.ug = static_cast<std::uint32_t>(i);
    p.weight = rng.Pareto(1.0, 1.2);
    p.peak_hour = rng.Uniform(0.0, 24.0);
    profiles.push_back(p);
  }
  return profiles;
}

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  out.reserve(sizeof(kMagic) + 24 + trace.events.size() * 24);
  out.append(kMagic, sizeof(kMagic));
  AppendU64(out, trace.seed);
  AppendU64(out, trace.duration_us);
  AppendU64(out, trace.events.size());
  for (const FlowEvent& e : trace.events) {
    AppendU64(out, e.start_us);
    AppendU32(out, e.ug);
    AppendU32(out, e.seq);
    AppendU64(out, e.bytes);
  }
  return out;
}

void SaveTrace(const Trace& trace, std::ostream& os) {
  const std::string bytes = SerializeTrace(trace);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Trace LoadTrace(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  if (!is || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    throw std::runtime_error{"trace: bad magic"};
  }
  Trace trace;
  trace.seed = ReadU64(is);
  trace.duration_us = ReadU64(is);
  // The count is untrusted: the vector grows as events are actually read,
  // so a forged count ends in "truncated stream", not a huge allocation.
  const std::uint64_t count = ReadU64(is);
  // Per UG, the smallest seq its next event may carry.
  std::unordered_map<std::uint32_t, std::uint32_t> next_seq;
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowEvent e;
    e.start_us = ReadU64(is);
    e.ug = ReadU32(is);
    e.seq = ReadU32(is);
    e.bytes = ReadU64(is);
    // Every replay engine walks the trace with a cursor; an event behind
    // the cursor would be admitted after its expiry bucket drained.
    if (!trace.events.empty()) {
      const FlowEvent& prev = trace.events.back();
      if (std::tie(prev.start_us, prev.ug, prev.seq) >=
          std::tie(e.start_us, e.ug, e.seq)) {
        throw std::runtime_error{"trace: events out of canonical order"};
      }
    }
    // Flows are pinned under a key built from (ug, seq): ids beyond its bits
    // would alias, and a repeated pair would re-pin a live flow.
    if (e.ug >= kTraceUgLimit || e.seq >= kTraceSeqLimit) {
      throw std::runtime_error{"trace: ug or seq beyond the flow-key range"};
    }
    const auto it = next_seq.try_emplace(e.ug, 0).first;
    if (e.seq < it->second) {
      throw std::runtime_error{"trace: a UG's seq does not strictly increase"};
    }
    it->second = e.seq + 1;
    trace.events.push_back(e);
  }
  return trace;
}

std::uint64_t TraceChecksum(const Trace& trace) {
  const std::string bytes = SerializeTrace(trace);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace painter::workload
