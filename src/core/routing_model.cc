#include "core/routing_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace painter::core {

RoutingModel::RoutingModel(std::size_t ug_count)
    : ugs_(ug_count), has_prefs_(ug_count, 0) {}

std::uint32_t RoutingModel::LocalIndex(std::uint32_t ug,
                                       util::PeeringId id) const {
  const UgState& s = ugs_.at(ug);
  if (id.value() >= kMaxSessions) return kUnobserved;
  const std::uint32_t key = id.value() << 16;
  const auto it = std::lower_bound(s.keys.begin(), s.keys.end(), key);
  if (it == s.keys.end() || (*it >> 16) != id.value()) return kUnobserved;
  return *it & 0xFFFFu;
}

void RoutingModel::LocalIndices(std::uint32_t ug,
                                std::span<const IngressOption> options,
                                std::span<std::uint32_t> out) const {
  const UgState& s = ugs_.at(ug);
  if (out.size() < options.size()) {
    throw std::invalid_argument{"RoutingModel::LocalIndices: out too short"};
  }
  // Keys sort by id first, so the cursor only moves forward; an id at or
  // past kMaxSessions is above every key and reads as unobserved.
  std::size_t j = 0;
  for (std::size_t k = 0; k < options.size(); ++k) {
    const std::uint32_t id = options[k].peering.value();
    while (j < s.keys.size() && (s.keys[j] >> 16) < id) ++j;
    out[k] = j < s.keys.size() && (s.keys[j] >> 16) == id
                 ? s.keys[j] & 0xFFFFu
                 : kUnobserved;
  }
}

std::uint32_t RoutingModel::Intern(UgState& s, util::PeeringId id) {
  const std::uint32_t key = id.value() << 16;
  const auto it = std::lower_bound(s.keys.begin(), s.keys.end(), key);
  if (it != s.keys.end() && (*it >> 16) == id.value()) return *it & 0xFFFFu;
  const auto local = static_cast<std::uint32_t>(s.keys.size());
  s.keys.insert(it, key | local);
  if (local == s.row_words * 64) {
    // A new block, and one more word per loser row. Records only move up,
    // so re-lay them out in place from the last one down.
    const std::size_t old_stride = s.row_words + 1;
    const std::size_t new_stride = old_stride + 1;
    const std::size_t count = s.records.size() / old_stride;
    s.blocks.insert(s.blocks.end(), {0, 0, count});
    s.records.resize(count * new_stride);
    for (std::size_t r = count; r-- > 0;) {
      s.records[r * new_stride + old_stride] = 0;
      for (std::size_t k = old_stride; k-- > 0;) {
        s.records[r * new_stride + k] = s.records[r * old_stride + k];
      }
    }
    ++s.row_words;
  }
  return local;
}

std::size_t RoutingModel::RecordOf(UgState& s, std::uint32_t local) {
  const std::size_t block = 3 * (local >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (local & 63);
  const std::size_t stride = s.row_words + 1;
  const std::size_t at =
      (s.blocks[block + 2] +
       static_cast<std::size_t>(std::popcount(s.blocks[block] & (bit - 1)))) *
      stride;
  if ((s.blocks[block] & bit) == 0) {
    s.records.insert(s.records.begin() + static_cast<std::ptrdiff_t>(at),
                     stride, 0);
    s.blocks[block] |= bit;
    for (std::size_t b = block + 3; b < s.blocks.size(); b += 3) {
      ++s.blocks[b + 2];
    }
  }
  return at;
}

bool RoutingModel::ObservePreference(
    std::uint32_t ug, util::PeeringId chosen,
    std::span<const util::PeeringId> candidates) {
  static obs::Counter& learned =
      obs::Metrics().GetCounter("model.preferences_learned");
  UgState& s = ugs_.at(ug);
  const auto storable = [](util::PeeringId id) {
    return id.value() < kMaxSessions;
  };
  if (!storable(chosen) || !std::ranges::all_of(candidates, storable)) {
    throw std::out_of_range{
        "RoutingModel: ingress id does not fit a 16-bit local key"};
  }
  bool changed = false;
  std::uint32_t won = kUnobserved;
  for (util::PeeringId other : candidates) {
    if (other == chosen) continue;
    if (won == kUnobserved) won = Intern(s, chosen);
    const std::uint32_t lost = Intern(s, other);
    // Interning may have widened the rows: offsets are taken after it.
    const std::size_t row = RecordOf(s, won) + 1;
    std::uint64_t& word = s.records[row + (lost >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (lost & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++preference_count_;
      learned.Add();
      changed = true;
    }
    // Observations are ground truth; retract any stale opposite belief.
    const std::size_t at = RecordAt(s, lost);
    if (at != kNoRecord) {
      std::uint64_t& opposite = s.records[at + 1 + (won >> 6)];
      const std::uint64_t obit = std::uint64_t{1} << (won & 63);
      if ((opposite & obit) != 0) {
        opposite &= ~obit;
        --preference_count_;
        changed = true;
      }
    }
  }
  if (won != kUnobserved) has_prefs_[ug] = 1;
  return changed;
}

bool RoutingModel::ObserveLatency(std::uint32_t ug, util::PeeringId ingress,
                                  double rtt_ms, double epsilon_ms) {
  static obs::Counter& observed =
      obs::Metrics().GetCounter("model.rtt_observations");
  observed.Add();
  UgState& s = ugs_.at(ug);
  if (ingress.value() >= kMaxSessions) {
    throw std::out_of_range{
        "RoutingModel: ingress id does not fit a 16-bit local key"};
  }
  const std::uint32_t local = Intern(s, ingress);
  std::uint64_t& word = s.records[RecordOf(s, local)];
  std::uint64_t& measured = s.blocks[3 * (local >> 6) + 1];
  const std::uint64_t bit = std::uint64_t{1} << (local & 63);
  if ((measured & bit) == 0) {
    measured |= bit;
    word = std::bit_cast<std::uint64_t>(rtt_ms);
    return true;
  }
  // A re-measurement within the noise floor keeps the stored value: storing
  // every sub-epsilon wiggle would re-dirty the cross-call seed cache each
  // round from ping jitter alone. epsilon 0 = any change counts (legacy).
  if (std::abs(std::bit_cast<double>(word) - rtt_ms) <= epsilon_ms) {
    return false;
  }
  word = std::bit_cast<std::uint64_t>(rtt_ms);
  return true;
}

bool RoutingModel::IsDominated(
    std::uint32_t ug, util::PeeringId candidate,
    std::span<const util::PeeringId> active) const {
  if (!HasPreferences(ug)) return false;
  const std::uint32_t loser = LocalIndex(ug, candidate);
  if (loser == kUnobserved) return false;
  for (util::PeeringId other : active) {
    if (other == candidate) continue;
    const std::uint64_t* row = LoserRow(ug, LocalIndex(ug, other));
    if (row != nullptr && RowHas(row, loser)) return true;
  }
  return false;
}

bool RoutingModel::HasWinsLocal(std::uint32_t ug, std::uint32_t winner) const {
  const std::uint64_t* row = LoserRow(ug, winner);
  if (row == nullptr) return false;
  return std::any_of(row, row + ugs_[ug].row_words,
                     [](std::uint64_t w) { return w != 0; });
}

std::optional<double> RoutingModel::MeasuredRttLocal(
    std::uint32_t ug, std::uint32_t local) const {
  if (local == kUnobserved) return std::nullopt;
  const UgState& s = ugs_[ug];
  if (((s.blocks[3 * (local >> 6) + 1] >> (local & 63)) & 1u) == 0) {
    return std::nullopt;
  }
  return std::bit_cast<double>(s.records[RecordAt(s, local)]);
}

void RoutingModel::ShrinkToFit() {
  for (UgState& s : ugs_) {
    s.keys.shrink_to_fit();
    s.blocks.shrink_to_fit();
    s.records.shrink_to_fit();
  }
}

std::size_t RoutingModel::FootprintBytes() const {
  std::size_t bytes = 0;
  for (const UgState& s : ugs_) {
    bytes += s.keys.capacity() * sizeof(std::uint32_t) +
             s.blocks.capacity() * sizeof(std::uint64_t) +
             s.records.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

namespace {

// ComputeExpectationResolved on a list it may reorder and shrink: every
// caller passes its own reused scratch.
PrefixExpectation EvaluateResolved(const RoutingModel& model, std::uint32_t ug,
                                   std::vector<ResolvedCandidate>& cands,
                                   const ExpectationParams& params) {
  PrefixExpectation out;
  if (cands.empty()) return out;

  // Preference exclusion: drop candidates dominated by another candidate the
  // UG is known to prefer — each candidate's loser row against every other
  // candidate's local index, all tested before any is dropped.
  if (cands.size() > 1 && model.HasPreferences(ug)) {
    thread_local std::vector<std::uint8_t> dominated;
    dominated.assign(cands.size(), 0);
    for (const ResolvedCandidate& w : cands) {
      const std::uint64_t* row = model.LoserRow(ug, w.local);
      if (row == nullptr) continue;
      for (std::size_t k = 0; k < cands.size(); ++k) {
        if (cands[k].local != RoutingModel::kUnobserved &&
            RoutingModel::RowHas(row, cands[k].local)) {
          dominated[k] = 1;
        }
      }
    }
    std::size_t kept = 0;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      if (dominated[k] == 0) cands[kept++] = cands[k];
    }
    cands.resize(kept);
    if (cands.empty()) return out;
  }

  // D_reuse exclusion: drop candidates whose PoP is more than D_reuse km
  // farther from the UG than the closest surviving candidate PoP.
  if (cands.size() > 1) {
    double min_km = cands.front().opt->distance_km;
    for (const auto& c : cands) min_km = std::min(min_km, c.opt->distance_km);
    std::erase_if(cands, [&](const ResolvedCandidate& c) {
      return c.opt->distance_km - min_km > params.d_reuse_km;
    });
  }

  out.usable = true;
  out.candidate_count = cands.size();
  out.lower_rtt = cands.front().rtt;
  out.upper_rtt = cands.front().rtt;
  double sum = 0.0;
  double wsum = 0.0;
  double wnorm = 0.0;
  double min_km = cands.front().opt->distance_km;
  for (const auto& c : cands) min_km = std::min(min_km, c.opt->distance_km);
  for (const ResolvedCandidate& c : cands) {
    out.lower_rtt = std::min(out.lower_rtt, c.rtt);
    out.upper_rtt = std::max(out.upper_rtt, c.rtt);
    sum += c.rtt;
    const double w =
        std::exp(-(c.opt->distance_km - min_km) / kInflationDecayKm);
    wsum += w * c.rtt;
    wnorm += w;
  }
  out.mean_rtt = sum / static_cast<double>(cands.size());
  out.estimated_rtt = wnorm == 0.0 ? out.mean_rtt : wsum / wnorm;
  return out;
}

}  // namespace

PrefixExpectation ComputeExpectationResolved(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const ResolvedCandidate> candidates,
    const ExpectationParams& params) {
  thread_local std::vector<ResolvedCandidate> cands;
  cands.assign(candidates.begin(), candidates.end());
  return EvaluateResolved(model, ug, cands, params);
}

PrefixExpectation ComputeExpectationFromCandidates(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const IngressOption* const> candidates,
    const ExpectationParams& params) {
  // Reused scratch: the from-scratch greedy pass calls this millions of
  // times.
  thread_local std::vector<ResolvedCandidate> cands;
  cands.clear();
  for (const IngressOption* opt : candidates) {
    const std::uint32_t local = model.LocalIndex(ug, opt->peering);
    const auto measured = model.MeasuredRttLocal(ug, local);
    cands.push_back(
        ResolvedCandidate{opt, measured.value_or(opt->rtt_ms), local});
  }
  return EvaluateResolved(model, ug, cands, params);
}

PrefixExpectation ComputeExpectationAttributed(
    const RoutingModel& model, std::uint32_t ug,
    std::span<const AdvertisedOption> candidates,
    const ExpectationParams& params) {
  if (candidates.empty()) return {};

  // Attribute tiering: drop no-export candidates the UG cannot hear, then
  // keep only the best (lower-pref, prepend) tier present. Both passes
  // leave all-default candidate lists untouched, so the legacy action space
  // delegates unchanged.
  const auto tier = [](const AdvertisedOption& a) {
    return AttributeTier(*a.opt, a.lower_pref, a.prepend, a.no_export);
  };
  int best_tier = kUnheardTier;
  for (const AdvertisedOption& a : candidates) {
    best_tier = std::min(best_tier, tier(a));
  }
  thread_local std::vector<const IngressOption*> surviving;
  surviving.clear();
  for (const AdvertisedOption& a : candidates) {
    if (tier(a) == best_tier && best_tier != kUnheardTier) {
      surviving.push_back(a.opt);
    }
  }
  return ComputeExpectationFromCandidates(model, ug, surviving, params);
}

PrefixExpectation ComputeExpectation(
    const ProblemInstance& instance, const RoutingModel& model,
    std::uint32_t ug, std::span<const util::PeeringId> advertised_sessions,
    const ExpectationParams& params) {
  const auto& opts = instance.options.at(ug);
  if (opts.empty() || advertised_sessions.empty()) return {};

  // Candidates: compliant options ∩ advertised sessions (both sorted by id).
  thread_local std::vector<const IngressOption*> isect;
  isect.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < opts.size() && j < advertised_sessions.size()) {
    if (opts[i].peering < advertised_sessions[j]) {
      ++i;
    } else if (advertised_sessions[j] < opts[i].peering) {
      ++j;
    } else {
      isect.push_back(&opts[i]);
      ++i;
      ++j;
    }
  }
  return ComputeExpectationFromCandidates(model, ug, isect, params);
}

}  // namespace painter::core
