#include "core/orchestrator.h"

#include "core/config_io.h"
#include "core/evaluate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace painter::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Orchestrator telemetry (README "Observability"). Counter values are
// workload-determined: a pure function of the instance, the model and the
// configuration, like the greedy schedule itself.
struct OrchestratorMetrics {
  obs::Counter& celf_evals =
      obs::Metrics().GetCounter("orchestrator.celf.evaluations");
  obs::Counter& celf_stale_reevals =
      obs::Metrics().GetCounter("orchestrator.celf.stale_reevals");
  // Incremental-engine telemetry: seed marginals served from the cross-round
  // cache vs re-evaluated after a dirty-UG invalidation, and Eq. 2 probes
  // that had to walk the candidate list instead of answering in O(1).
  obs::Counter& celf_cache_hits =
      obs::Metrics().GetCounter("orchestrator.celf.cache_hits");
  obs::Counter& celf_cache_invalidations =
      obs::Metrics().GetCounter("orchestrator.celf.cache_invalidations");
  obs::Counter& celf_expectation_fallbacks =
      obs::Metrics().GetCounter("orchestrator.celf.expectation_fallbacks");
  // Eq. 2 probes the marginals covered, and those the base_best gate
  // answered without a probe (their Eq. 1 term is exactly zero).
  obs::Counter& celf_probes =
      obs::Metrics().GetCounter("orchestrator.celf.probes");
  obs::Counter& celf_gated_probes =
      obs::Metrics().GetCounter("orchestrator.celf.gated_probes");
  obs::Counter& celf_commits =
      obs::Metrics().GetCounter("orchestrator.celf.commits");
  // Catchment-predicted pruning (closed `celf.pruned.*` namespace, enforced
  // by tools/metrics_lint.py): dirty-peering seed evaluations skipped
  // because the cached marginal already bounds the fresh one at ≤ 0, and
  // audit evaluations run on behalf of the catchment_audit hook.
  obs::Counter& celf_pruned_seed_evals =
      obs::Metrics().GetCounter("celf.pruned.seed_evals");
  obs::Counter& celf_pruned_audit_checks =
      obs::Metrics().GetCounter("celf.pruned.audit_checks");
  // Cross-CALL seed cache (the always-on control plane's engine): round-0
  // seed marginals served from the previous ComputeConfig call vs re-derived
  // after external (Absorb / Invalidate*) dirtiness, and the audit-mode
  // comparisons of cached vs from-scratch configurations.
  obs::Counter& celf_cross_seed_hits =
      obs::Metrics().GetCounter("orchestrator.celf.cross_seed_hits");
  obs::Counter& celf_cross_seed_invalidations =
      obs::Metrics().GetCounter("orchestrator.celf.cross_seed_invalidations");
  obs::Counter& seed_cache_audit_checks =
      obs::Metrics().GetCounter("orchestrator.celf.seed_cache_audit_checks");
  obs::Counter& seed_cache_audit_mismatches =
      obs::Metrics().GetCounter("orchestrator.celf.seed_cache_audit_mismatches");
  obs::Counter& reuse_accepts =
      obs::Metrics().GetCounter("orchestrator.reuse.accepts");
  obs::Counter& reuse_rejects =
      obs::Metrics().GetCounter("orchestrator.reuse.rejects");
  obs::Counter& prefixes_allocated =
      obs::Metrics().GetCounter("orchestrator.prefixes.allocated");
  obs::Counter& learn_iterations =
      obs::Metrics().GetCounter("orchestrator.learn.iterations");
  obs::Counter& observations =
      obs::Metrics().GetCounter("orchestrator.model.observations");
  // Heap bytes of the routing model's per-UG state after the last Absorb.
  obs::Gauge& model_footprint =
      obs::Metrics().GetGauge("model.footprint_bytes");

  static OrchestratorMetrics& Get() {
    static OrchestratorMetrics m;
    return m;
  }
};

// The surviving set of one UG's candidates on the prefix under construction:
// the candidates neither dominated by a learned preference nor more than
// D_reuse farther than the nearest non-dominated PoP — exactly those
// ComputeExpectationFromCandidates keeps (DESIGN.md §8). Kept as the RTTs
// summed in candidate order (so sum / count is the reference's mean bit for
// bit), its size, and its PoP distance range; min_km is also the nearest
// non-dominated PoP. Both distances are +inf when count == 0.
struct SurvivingSet {
  double sum = 0.0;
  std::uint32_t count = 0;
  double min_km = kInf;
  double max_km = kInf;

  [[nodiscard]] double Mean() const {
    return count == 0 ? kInf : sum / static_cast<double>(count);
  }

  // Grows the set by a new last candidate at `km` with RTT `rtt` that is
  // preferred over no survivor (DESIGN.md §8's table). Returns false,
  // changing nothing, when the new lower window edge falls inside the set:
  // only a walk over the candidates answers that case (UgPrefixState::Walk).
  [[nodiscard]] bool Grow(bool dominated, double km, double rtt,
                          double d_reuse_km) {
    if (dominated) return true;  // it joins no set
    // Alone: no survivor yet, or every survivor drops out of its window.
    if (count == 0 || min_km - km > d_reuse_km) {
      *this = SurvivingSet{rtt, 1, km, km};
      return true;
    }
    if (km >= min_km) {
      // The window keeps its lower edge: the candidate is inside it or out.
      if (!(km - min_km > d_reuse_km)) {
        sum += rtt;
        ++count;
        max_km = std::max(max_km, km);
      }
      return true;
    }
    if (max_km - km > d_reuse_km) return false;  // edge moves past a part
    sum += rtt;  // every survivor stays
    ++count;
    min_km = km;
    return true;
  }
};

// One UG's candidates on the prefix under construction, in commit order, and
// their surviving set.
struct UgPrefixState {
  struct Cand {
    const IngressOption* opt;
    double rtt;      // effective RTT, looked up once at commit
    double km;       // opt->distance_km, kept inline for the scans
    std::uint32_t local;  // RoutingModel::LocalIndex, or kUnobserved
    bool dominated;  // another candidate of the list is known-preferred
    bool wins;       // it has a loser row (it may have won a pair)
    SessionAttr attr;  // the attributes it was committed under
  };
  static_assert(sizeof(Cand) == 32, "attributes ride in the padding");
  std::vector<Cand> cands;
  SurvivingSet set;
  // Some candidate carries a non-default attribute. The surviving set
  // assumes plain candidates, so such a UG diverts to the tiered attributed
  // evaluation.
  bool attributed = false;

  void Clear() {
    cands.clear();
    set = SurvivingSet{};
    attributed = false;
  }

  // A new option's two directed dominance bits against the list.
  struct Dominance {
    const std::uint64_t* row = nullptr;  // its loser row, if it has one
    bool dominated = false;  // a candidate is known-preferred over it
    bool kills = false;      // it is known-preferred over a survivor
  };
  // Reads the bits for `local`, only for ingresses with a loser row: the
  // option's row, and the candidates' flags from their commit. An ingress
  // the UG never observed can neither dominate nor be dominated. A kill can
  // move the nearest PoP and re-admit far candidates, so it re-derives the
  // set.
  [[nodiscard]] Dominance Scan(const RoutingModel& model, std::uint32_t ug,
                               std::uint32_t local, double d_reuse_km) const {
    Dominance out;
    if (local == RoutingModel::kUnobserved || !model.HasPreferences(ug)) {
      return out;
    }
    out.row = model.LoserRow(ug, local);
    for (const Cand& c : cands) {
      if (c.wins && !out.dominated && model.PrefersLocal(ug, c.local, local)) {
        out.dominated = true;
      }
      if (out.row != nullptr && !out.kills && !c.dominated &&
          !(c.km - set.min_km > d_reuse_km) &&
          c.local != RoutingModel::kUnobserved &&
          RoutingModel::RowHas(out.row, c.local)) {
        out.kills = true;
      }
      if (out.dominated && (out.kills || out.row == nullptr)) break;
    }
    return out;
  }

  // The surviving set of the list plus a new last candidate at `km` with
  // RTT `rtt` whose bits against the list are `dom`, and whether deriving
  // it took a walk: SurvivingSet::Grow answers in O(1) unless the candidate
  // kills a survivor or moves the lower window edge into the set. Probes
  // and commits both derive their set here.
  [[nodiscard]] std::pair<SurvivingSet, bool> With(const Dominance& dom,
                                                   double km, double rtt,
                                                   double d_reuse_km) const {
    if (SurvivingSet next = set;
        !dom.kills && next.Grow(dom.dominated, km, rtt, d_reuse_km)) {
      return {next, false};
    }
    return {Walk(dom, km, rtt, d_reuse_km), true};
  }

  // With's walk, kept out of the O(1) path so that path inlines into the
  // probe: one pass for the nearest non-dominated PoP and one for the
  // window, reading the candidates `dom.row` holds as dominated without
  // flagging them.
  [[nodiscard]] SurvivingSet Walk(const Dominance& dom, double km, double rtt,
                                  double d_reuse_km) const {
    const auto kept = [&](const Cand& c) {
      return !c.dominated &&
             !(dom.row != nullptr && c.local != RoutingModel::kUnobserved &&
               RoutingModel::RowHas(dom.row, c.local));
    };
    double min_km = kInf;
    for (const Cand& c : cands) {
      if (kept(c)) min_km = std::min(min_km, c.km);
    }
    if (!dom.dominated) min_km = std::min(min_km, km);
    SurvivingSet out{0.0, 0, min_km, min_km};
    const auto add = [&](double c_km, double c_rtt) {
      if (c_km - min_km > d_reuse_km) return;
      out.sum += c_rtt;
      ++out.count;
      out.max_km = std::max(out.max_km, c_km);
    };
    for (const Cand& c : cands) {
      if (kept(c)) add(c.km, c.rtt);
    }
    if (!dom.dominated) add(km, rtt);
    return out;
  }

  // Appends `opt` (local index `local`) under `attr` as the last candidate:
  // takes the set With derives, and flags the candidates it is preferred
  // over as dominated (a dominated candidate still dominates others, as in
  // the reference). Returns whether deriving the set took a walk.
  bool Append(const RoutingModel& model, std::uint32_t ug,
              const IngressOption* opt, double rtt, std::uint32_t local,
              SessionAttr attr, double d_reuse_km) {
    const Dominance dom = Scan(model, ug, local, d_reuse_km);
    const auto [next, walked] = With(dom, opt->distance_km, rtt, d_reuse_km);
    if (dom.row != nullptr) {
      for (Cand& c : cands) {
        if (c.local != RoutingModel::kUnobserved &&
            RoutingModel::RowHas(dom.row, c.local)) {
          c.dominated = true;
        }
      }
    }
    cands.push_back(Cand{opt, rtt, opt->distance_km, local, dom.dominated,
                         dom.row != nullptr, attr});
    set = next;
    attributed = attributed || !attr.IsDefault();
    return walked;
  }
};

}  // namespace

Orchestrator::Orchestrator(const ProblemInstance& instance,
                           OrchestratorConfig config)
    : instance_(&instance),
      config_(config),
      model_(instance.UgCount()),
      flat_(instance),
      peering_up_(instance.peering_count, 1),
      // Everything starts dirty: the first cached call must evaluate the
      // world before anything can be served from the cross-call cache.
      ug_dirty_(instance.UgCount(), 1),
      peering_dirty_ext_(instance.peering_count, 1),
      dirty_ug_count_(instance.UgCount()) {
  // Session ids must fit the model's 16-bit pair keys, and the probe gate's
  // exactness argument (ComputeConfigImpl) bounds a mean's length by this.
  if (instance.peering_count > RoutingModel::kMaxSessions) {
    throw std::invalid_argument{
        "Orchestrator: more than 65,536 sessions in the instance"};
  }
  // The engine's lone candidate is exclusion-free and its empty surviving
  // set means every candidate is dominated only while D_reuse >= 0; a NaN
  // window would exclude nothing, like +inf, without saying so.
  if (!(config_.d_reuse_km >= 0.0)) {
    throw std::invalid_argument{
        "Orchestrator: d_reuse_km must be a number >= 0"};
  }
}

bool Orchestrator::InvalidateUg(std::uint32_t ug) {
  if (ug >= instance_->UgCount()) return false;
  if (ug_dirty_[ug]) return false;
  ug_dirty_[ug] = 1;
  ++dirty_ug_count_;
  return true;
}

bool Orchestrator::InvalidatePeering(util::PeeringId peering) {
  if (peering.value() >= instance_->peering_count) return false;
  if (peering_dirty_ext_[peering.value()]) return false;
  peering_dirty_ext_[peering.value()] = 1;
  return true;
}

void Orchestrator::InvalidateAll() {
  std::fill(ug_dirty_.begin(), ug_dirty_.end(), static_cast<std::uint8_t>(1));
  std::fill(peering_dirty_ext_.begin(), peering_dirty_ext_.end(),
            static_cast<std::uint8_t>(1));
  dirty_ug_count_ = instance_->UgCount();
  seed_cache_primed_ = false;
}

bool Orchestrator::SetPeeringAvailable(util::PeeringId peering, bool up) {
  if (peering.value() >= instance_->peering_count) return false;
  const bool was_up = peering_up_[peering.value()] != 0;
  if (was_up == up) return false;
  peering_up_[peering.value()] = up ? 1 : 0;
  // Either direction changes what the greedy pass may pick; the peering's
  // cached seed marginal is stale in the up direction and irrelevant (but
  // must be re-derived on restore) in the down direction.
  peering_dirty_ext_[peering.value()] = 1;
  return true;
}

AdvertisementConfig Orchestrator::ComputeConfig() const {
  AdvertisementConfig cc = ComputeConfigImpl(/*reference=*/false);
  if (config_.seed_cache_audit) {
    OrchestratorMetrics& metrics = OrchestratorMetrics::Get();
    metrics.seed_cache_audit_checks.Add();
    // Same model state, same availability mask, from scratch: the result
    // the engine must match byte-for-byte.
    const AdvertisementConfig full = ComputeConfigImpl(/*reference=*/true);
    if (ConfigToString(full) != ConfigToString(cc)) {
      metrics.seed_cache_audit_mismatches.Add();
    }
  }
  return cc;
}

AdvertisementConfig Orchestrator::ComputeConfigUncached() const {
  return ComputeConfigImpl(/*reference=*/true);
}

AdvertisementConfig Orchestrator::ComputeConfigImpl(bool reference) const {
  const obs::TraceSpan span{"orchestrator.ComputeConfig"};
  OrchestratorMetrics& metrics = OrchestratorMetrics::Get();
  const ProblemInstance& inst = *instance_;
  const ExpectationParams params = config_.Expectation();
  const std::size_t n_ug = inst.UgCount();
  // The reference pass skips the engine's seed cache, pruning, probe gate
  // and surviving-set probes: it re-evaluates everything by definition.
  const bool cross = !reference && config_.cross_call_seed_cache;

  // Variant table: the advertisement attributes Algorithm 1 may pick per
  // (peering, prefix). Variant 0 is always the plain announcement, so the
  // default single-variant table runs the legacy loop unchanged.
  //
  // Each variant seeds the heap from a seed slot, slot_of[v]. Every variant
  // but no-export shares slot 0, the plain seed marginal: against an empty
  // prefix each UG's trial list is the probed option alone, whose tiered
  // expectation is its effective RTT regardless of prepend level or
  // lower-pref. No-export, the last variant, has slot 1: the in-cone subset
  // of the plain sum. Slot k's marginal is evaluated under slot_attr[k].
  const ActionSpaceConfig& aspace = config_.action_space;
  std::vector<SessionAttr> variants;
  for (std::uint8_t pl = 0; pl <= aspace.max_prepend; ++pl) {
    variants.push_back(SessionAttr{.prepend = pl});
  }
  if (aspace.enable_lower_pref) {
    variants.push_back(
        SessionAttr{.community = bgpsim::Community::kLowerPref});
  }
  std::vector<std::size_t> slot_of(variants.size(), 0);
  std::vector<SessionAttr> slot_attr{SessionAttr{}};
  if (aspace.enable_no_export) {
    variants.push_back(
        SessionAttr{.community = bgpsim::Community::kNoExportUp});
    slot_of.push_back(1);
    slot_attr.push_back(variants.back());
  }
  const bool wide = variants.size() > 1;

  AdvertisementConfig cc;

  // Best expected RTT per UG over anycast + all *completed* prefixes. The
  // prefix currently under construction is tracked separately since adding a
  // peering can change (even worsen) its expectation.
  std::vector<double> base_best(inst.anycast_rtt_ms);

  std::vector<double> cur_e(n_ug, kInf);  // E of the in-progress prefix
  std::vector<util::PeeringId> sessions;  // its advertised sessions, sorted
  std::vector<SessionAttr> session_attrs;  // parallel to `sessions` when wide
  // Per-UG state of the in-progress prefix: the UG's compliant options among
  // `sessions`, with their attributes, and their surviving set, maintained
  // at commit so a probe rarely walks the list. On the plain path
  // cur_e[u] == state[u].set.Mean().
  std::vector<UgPrefixState> state(n_ug);
  // The incremental engine's probe gate: per UG, the effective RTT an entry
  // must undercut for its Eq. 1 term to be possibly non-zero on the prefix
  // under construction (see the prefix-round reset below).
  std::vector<double> gate(reference ? 0 : n_ug);
  // The engine's sparse probe sets, one bit per flat-index entry
  // (DESIGN.md §8). `live` starts full and loses an entry the first time the
  // gate skips it: the round-start gate only falls, so such an entry stays
  // gated for the rest of the call while its UG is closed. `open` holds the
  // entries of every UG opened on the prefix under construction. A marginal
  // walks only `live | open`.
  const std::size_t words = reference ? 0 : (flat_.EntryCount() + 63) / 64;
  std::vector<std::uint64_t> live(words, ~std::uint64_t{0});
  std::vector<std::uint64_t> open(words, 0);

  // Effective single-candidate RTT per flat-index entry: the measured RTT
  // when the model has one, else the instance estimate — exactly the value
  // ComputeExpectationFromCandidates would derive for that option. The same
  // pass resolves each entry's model local index, which the probes and
  // commits test dominance bits with; while the model holds no preference no
  // bit can be set, so the index array is not allocated and every option
  // reads as kUnobserved. The model is fixed for the whole greedy pass, so
  // fill once per call.
  std::vector<double> eff_rtt(flat_.EntryCount());
  std::vector<std::uint8_t> local_of(
      model_.PreferenceCount() > 0 ? flat_.EntryCount() : 0);
  for (std::size_t i = 0; i < eff_rtt.size(); ++i) {
    const IngressOption* opt = flat_.option[i];
    const std::uint32_t local = model_.LocalIndex(flat_.ug[i], opt->peering);
    eff_rtt[i] =
        model_.MeasuredRttLocal(flat_.ug[i], local).value_or(opt->rtt_ms);
    if (!local_of.empty()) local_of[i] = RoutingModel::PackLocal(local);
  }
  // Per peering, the in-cone entries a no-export marginal covers.
  std::vector<std::uint32_t> cone_count(
      aspace.enable_no_export ? inst.peering_count : 0, 0);
  for (std::size_t g = 0; g < cone_count.size(); ++g) {
    for (std::size_t i = flat_.offset[g]; i < flat_.offset[g + 1]; ++i) {
      if (flat_.option[i]->in_peer_cone) ++cone_count[g];
    }
  }
  const auto local_at = [&](std::size_t i) {
    return local_of.empty()
               ? RoutingModel::kUnobserved
               : model_.UnpackLocal(flat_.ug[i], flat_.option[i]->peering,
                                    local_of[i]);
  };

  // Cross-round seed-marginal cache, one row per seed slot. A peering's
  // *seed* marginal (evaluated against an empty in-progress prefix) depends
  // only on base_best over its UGs, so committing a prefix invalidates
  // exactly the peerings whose UG sets intersect the UGs whose base_best
  // dropped — the dirty-UG rule. It holds for both slots: the no-export
  // marginal's UG set is a subset of the plain one.
  std::vector<std::vector<double>> seed_delta(
      slot_attr.size(), std::vector<double>(inst.peering_count, 0.0));
  std::vector<std::uint8_t> seed_dirty(inst.peering_count, 1);
  // Catchment-pruning state: a peering's seed marginal is a sum of
  // w_u * max(0, base_best[u] - eff_rtt) terms over its catchment, each
  // non-increasing as base_best decreases across prefix rounds (term-wise
  // monotone under FP rounding too: min/round-to-nearest/non-negative
  // multiply are all monotone, and both sums run in the same flat-index
  // order). A dirty peering whose cached value is already ≤ 0 therefore
  // cannot re-enter the heap and its evaluation is skipped outright —
  // schedule-preserving by construction. Round 0 always evaluates.
  std::vector<std::uint8_t> seed_evaluated(inst.peering_count, 0);

  // Cross-CALL seed reuse: round-0 seed marginals are pure functions of
  // anycast RTTs and the model's measured RTTs over each peering's UGs —
  // preferences cannot fire against an empty in-progress prefix (a
  // single-candidate trial list is exclusion-free). So a peering none of
  // whose UGs' model entries changed since the previous call re-derives the
  // byte-identical value, and serving it from the cache is exact, not an
  // approximation. Dirty peerings get seed_evaluated = 0: their cached value
  // reflects the OLD model and is not a valid pruning upper bound for the
  // new one, so round 0 must evaluate them from scratch.
  if (cross && seed_cache_primed_) {
    std::uint64_t cross_hits = 0;
    std::uint64_t cross_invalidations = 0;
    std::fill(seed_dirty.begin(), seed_dirty.end(),
              static_cast<std::uint8_t>(0));
    for (std::size_t g = 0; g < inst.peering_count; ++g) {
      if (peering_dirty_ext_[g]) seed_dirty[g] = 1;
    }
    for (std::uint32_t u = 0; u < n_ug; ++u) {
      if (!ug_dirty_[u]) continue;
      for (const IngressOption& opt : inst.options[u]) {
        seed_dirty[opt.peering.value()] = 1;
      }
    }
    for (std::size_t g = 0; g < inst.peering_count; ++g) {
      if (flat_.offset[g + 1] == flat_.offset[g]) continue;
      if (seed_dirty[g]) {
        ++cross_invalidations;
        continue;
      }
      for (std::size_t k = 0; k < seed_delta.size(); ++k) {
        seed_delta[k][g] = seed0_cache_[k][g];
      }
      seed_evaluated[g] = 1;  // cached value is exact → valid pruning bound
      ++cross_hits;
    }
    metrics.celf_cross_seed_hits.Add(cross_hits);
    metrics.celf_cross_seed_invalidations.Add(cross_invalidations);
  }

  // Eq. 2 mean of state[u].cands + opt, the option of flat-index entry i
  // (kInf when unusable), without mutating state. The incremental engine
  // reads the two directed dominance bits of opt against the list in one
  // scan and derives the surviving set of the longer list from them (O(1)
  // unless it walks). Sums stay in candidate order with opt last, so every
  // branch is the reference's mean bit for bit. The reference pass runs
  // ComputeExpectationFromCandidates itself.
  std::vector<const IngressOption*> trial;  // probe scratch, reused
  auto expected_with = [&](std::uint32_t u, std::size_t i) {
    const UgPrefixState& s = state[u];
    const IngressOption* opt = flat_.option[i];
    const double rtt = eff_rtt[i];
    if (reference) {
      trial.clear();
      for (const UgPrefixState::Cand& c : s.cands) trial.push_back(c.opt);
      trial.push_back(opt);
      const PrefixExpectation e =
          ComputeExpectationFromCandidates(model_, u, trial, params);
      return e.usable ? e.mean_rtt : kInf;
    }
    if (s.cands.empty()) return rtt;  // a lone candidate is exclusion-free
    const auto [next, walked] =
        s.With(s.Scan(model_, u, local_at(i), params.d_reuse_km),
               opt->distance_km, rtt, params.d_reuse_km);
    if (walked) metrics.celf_expectation_fallbacks.Add();
    return next.Mean();
  };

  // Attributed probe: Eq. 2 mean of the list + (opt announced under `attr`).
  // A plain probe against a plain candidate list delegates to expected_with
  // — in the legacy action space that is every call, so it stays
  // bit-identical. Otherwise the attributed tiered evaluation
  // (routing_model.h) runs on the rebuilt AdvertisedOption list.
  const auto attributed = [&](std::uint32_t u, const SessionAttr& attr) {
    return wide && (state[u].attributed || !attr.IsDefault());
  };
  std::vector<AdvertisedOption> atrial;  // probe scratch, reused
  auto expected_with_attr = [&](std::uint32_t u, std::size_t i,
                                const SessionAttr& attr) {
    if (!attributed(u, attr)) return expected_with(u, i);
    metrics.celf_expectation_fallbacks.Add();
    const auto as_advertised = [](const IngressOption* o,
                                  const SessionAttr& a) {
      return AdvertisedOption{
          .opt = o,
          .prepend = a.prepend,
          .lower_pref = a.community == bgpsim::Community::kLowerPref,
          .no_export = a.community == bgpsim::Community::kNoExportUp};
    };
    atrial.clear();
    for (const UgPrefixState::Cand& c : state[u].cands) {
      atrial.push_back(as_advertised(c.opt, c.attr));
    }
    atrial.push_back(as_advertised(flat_.option[i], attr));
    const PrefixExpectation e =
        ComputeExpectationAttributed(model_, u, atrial, params);
    return e.usable ? e.mean_rtt : kInf;
  };

  // Eq. 1 marginal benefit of adding `gid` under `attr` to the in-progress
  // prefix. The reference probes every entry; the engine walks the set bits
  // of `live | open` in ascending order, so it adds the same non-zero terms
  // in the same order, and drops from `live` each entry the gate skips.
  auto marginal_of = [&](util::PeeringId gid, const SessionAttr& attr) {
    metrics.celf_evals.Add();
    // A no-export announcement never reaches out-of-cone UGs: exact zero
    // contribution, no probe.
    const bool nx = attr.community == bgpsim::Community::kNoExportUp;
    const std::size_t g = gid.value();
    const std::size_t lo = flat_.offset[g];
    const std::size_t hi = flat_.offset[g + 1];
    double delta = 0.0;
    std::uint64_t probed = 0;
    const auto probe = [&](std::size_t i) {
      const std::uint32_t u = flat_.ug[i];
      const double new_e = expected_with_attr(u, i, attr);
      const double old_best = std::min(base_best[u], cur_e[u]);
      const double new_best = std::min(base_best[u], new_e);
      delta += inst.ug_weight[u] * (old_best - new_best);
      ++probed;
    };
    std::uint64_t probes = 0;
    if (reference) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (nx && !flat_.option[i]->in_peer_cone) continue;
        ++probes;
        probe(i);
      }
    } else if (lo < hi) {
      probes = nx ? cone_count[g] : hi - lo;
      const std::size_t last = (hi - 1) >> 6;
      for (std::size_t w = lo >> 6; w <= last; ++w) {
        std::uint64_t bits = live[w] | open[w];
        if (w == lo >> 6) bits &= ~std::uint64_t{0} << (lo & 63);
        if (w == last) bits &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
        for (; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const std::size_t i = (w << 6) + static_cast<std::size_t>(b);
          if (nx && !flat_.option[i]->in_peer_cone) continue;
          // The gate: this term is +0.0, and adding it changes no bit.
          if (!(eff_rtt[i] < gate[flat_.ug[i]])) {
            live[w] &= ~(std::uint64_t{1} << b);
            continue;
          }
          probe(i);
        }
      }
    }
    metrics.celf_probes.Add(probes);
    metrics.celf_gated_probes.Add(probes - probed);
    return delta;
  };

  for (std::size_t p = 0; p < config_.prefix_budget; ++p) {
    sessions.clear();
    session_attrs.clear();
    std::fill(cur_e.begin(), cur_e.end(), kInf);
    for (UgPrefixState& s : state) s.Clear();
    std::fill(open.begin(), open.end(), 0);
    // Probe gate (DESIGN.md §8): while every candidate u holds on this
    // prefix has an effective RTT ≥ gate[u], a probe of an option that is
    // not below gate[u] has an Eq. 1 term of exactly +0.0. Every value such
    // a probe or cur_e[u] takes is kInf or a left-to-right mean of
    // n ≤ 65,536 (the session limit) of those RTTs, which rounding keeps
    // ≥ gate·(1 − n·2⁻⁵³) ≥ base_best[u]; without the 2⁻³² slack,
    // fl(m + m + m) / 3 can read below m. Both mins then return
    // base_best[u], and dropping w·(+0.0) from a sum that starts at +0.0
    // changes no bit. Assumes finite weights and finite non-negative RTTs,
    // as every instance builder makes them. A commit below the gate opens u
    // and puts its entries in `open`.
    for (std::size_t u = 0; u < gate.size(); ++u) {
      gate[u] = base_best[u] + std::abs(base_best[u]) * 0x1p-32;
    }

    // Inner loop of Algorithm 1: add peerings while one yields positive
    // marginal benefit (Eq. 1 over modelled expectations).
    //
    // Lazy (CELF-style) selection: marginal benefits only shrink as the
    // configuration accumulates sessions (each UG's best expected RTT is
    // monotonically non-increasing), so a candidate whose *stale* marginal
    // already trails the current best fresh one need not be re-evaluated.
    // This turns the O(#sessions) rescan per commit into a handful of
    // re-evaluations. (Reuse can occasionally *raise* a marginal by harming
    // a UG's expectation on this prefix — a second-order effect the lazy
    // schedule may miss; Algorithm 1 is a greedy heuristic either way.)
    struct Scored {
      double delta;
      std::uint64_t round;  // commit-round the delta was computed at
      util::PeeringId peering;
      std::uint32_t variant;  // index into `variants`
      bool operator<(const Scored& o) const {
        if (delta != o.delta) return delta < o.delta;
        if (peering != o.peering) return o.peering < peering;  // lower id 1st
        return o.variant < variant;  // then plainest attributes first
      }
    };
    std::priority_queue<Scored> heap;
    std::uint64_t round = 0;
    {
      // Seed the CELF heap in peering order. The engine re-evaluates only
      // dirty peerings — the rest reuse the cached marginals from the
      // previous round, which a fresh evaluation would reproduce
      // bit-for-bit; the reference pass re-evaluates every peering. Down
      // sessions (SetPeeringAvailable) are never evaluated or advertised —
      // in the cached AND the audit pass alike, so the two see the same
      // world.
      std::uint64_t hits = 0;
      std::uint64_t invalidations = 0;
      for (std::size_t g = 0; g < inst.peering_count; ++g) {
        if (flat_.offset[g + 1] == flat_.offset[g]) continue;
        if (!peering_up_[g]) continue;
        if (!reference && !seed_dirty[g]) {
          ++hits;
          continue;
        }
        ++invalidations;
        const util::PeeringId gid{static_cast<std::uint32_t>(g)};
        for (std::size_t k = 0; k < seed_delta.size(); ++k) {
          // Catchment-predicted pruning: the cached value upper-bounds the
          // fresh one (see seed_evaluated above), so ≤ 0 means the
          // peering's catchment holds no improvable UG — skip.
          if (!reference && seed_evaluated[g] && seed_delta[k][g] <= 0.0) {
            metrics.celf_pruned_seed_evals.Add();
            if (config_.catchment_audit) {
              metrics.celf_pruned_audit_checks.Add();
              config_.catchment_audit(gid, marginal_of(gid, slot_attr[k]));
            }
          } else {
            seed_delta[k][g] = marginal_of(gid, slot_attr[k]);
          }
        }
        seed_evaluated[g] = 1;
      }
      if (!reference) {
        metrics.celf_cache_hits.Add(hits);
        metrics.celf_cache_invalidations.Add(invalidations);
      }
      std::fill(seed_dirty.begin(), seed_dirty.end(),
                static_cast<std::uint8_t>(0));
      if (cross && p == 0) {
        // Prime the cross-call cache with this call's round-0 seed marginals
        // (taken BEFORE later prefix rounds overwrite dirty entries against
        // a lowered base_best) and consume the external dirtiness — the
        // world's changes are now folded in.
        seed0_cache_ = seed_delta;
        seed_cache_primed_ = true;
        std::fill(ug_dirty_.begin(), ug_dirty_.end(),
                  static_cast<std::uint8_t>(0));
        std::fill(peering_dirty_ext_.begin(), peering_dirty_ext_.end(),
                  static_cast<std::uint8_t>(0));
        dirty_ug_count_ = 0;
      }
      for (std::uint32_t g = 0; g < inst.peering_count; ++g) {
        if (flat_.offset[g + 1] == flat_.offset[g]) continue;
        if (!peering_up_[g]) continue;  // down sessions never enter the heap
        for (std::uint32_t v = 0; v < variants.size(); ++v) {
          const double delta = seed_delta[slot_of[v]][g];
          if (delta > 0.0) {
            heap.push(Scored{delta, round, util::PeeringId{g}, v});
          }
        }
      }
    }

    while (!heap.empty()) {
      Scored top = heap.top();
      heap.pop();
      if (std::binary_search(sessions.begin(), sessions.end(), top.peering)) {
        continue;
      }
      if (top.round != round) {
        metrics.celf_stale_reevals.Add();
        const double fresh = marginal_of(top.peering, variants[top.variant]);
        if (fresh > 0.0) {
          heap.push(Scored{fresh, round, top.peering, top.variant});
        } else if (!sessions.empty()) {
          // A reuse candidate whose refreshed marginal no longer helps.
          metrics.reuse_rejects.Add();
        }
        continue;
      }
      // Fresh and at the top: this is the argmax. Commit it.
      metrics.celf_commits.Add();
      if (!sessions.empty()) metrics.reuse_accepts.Add();
      ++round;
      const SessionAttr attr = variants[top.variant];
      const bool nx = attr.community == bgpsim::Community::kNoExportUp;
      {
        const auto pos =
            std::lower_bound(sessions.begin(), sessions.end(), top.peering);
        if (wide) {
          session_attrs.insert(
              session_attrs.begin() + (pos - sessions.begin()), attr);
        }
        sessions.insert(pos, top.peering);
      }
      const std::size_t lo = flat_.offset[top.peering.value()];
      const std::size_t hi = flat_.offset[top.peering.value() + 1];
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t u = flat_.ug[i];
        const IngressOption* opt = flat_.option[i];
        // No-export never reaches out-of-cone UGs: their candidate state and
        // expectation are untouched by this commit.
        if (nx && !opt->in_peer_cone) continue;
        // The reference and the attributed evaluation read the list before
        // it grows. On the plain engine path the append's surviving set is
        // the probe's, and its walk is the probe's fallback.
        const bool plain = !reference && !attributed(u, attr);
        if (!plain) cur_e[u] = expected_with_attr(u, i, attr);
        const bool walked = state[u].Append(model_, u, opt, eff_rtt[i],
                                            local_at(i), attr,
                                            params.d_reuse_km);
        if (plain) {
          if (walked) metrics.celf_expectation_fallbacks.Add();
          cur_e[u] = state[u].set.Mean();
        }
        if (!reference && eff_rtt[i] < gate[u]) {
          if (gate[u] != kInf) {
            for (std::uint32_t k = flat_.ug_first[u]; k < flat_.ug_first[u + 1];
                 ++k) {
              const std::uint32_t e = flat_.entry[k];
              open[e >> 6] |= std::uint64_t{1} << (e & 63);
            }
          }
          gate[u] = kInf;
        }
      }
      if (!config_.enable_reuse) break;  // ablation: one peering per prefix
    }

    if (sessions.empty()) break;  // no peering helps; further prefixes won't
    metrics.prefixes_allocated.Add();
    if (wide) {
      cc.AddPrefix(sessions, session_attrs);
    } else {
      cc.AddPrefix(sessions);
    }
    for (std::uint32_t u = 0; u < n_ug; ++u) {
      if (cur_e[u] < base_best[u]) {
        base_best[u] = cur_e[u];
        // Dirty-UG -> dirty-peering via the forward option list: every
        // peering serving u must re-derive its seed marginal next round.
        for (const IngressOption& opt : inst.options[u]) {
          seed_dirty[opt.peering.value()] = 1;
        }
      }
    }
  }
  // Prefix-budget consumption: the greedy pass stops early when no peering
  // adds benefit, so used < budget is a signal the budget is oversized.
  static obs::Gauge& budget_used =
      obs::Metrics().GetGauge("orchestrator.prefix_budget.used");
  static obs::Gauge& budget_total =
      obs::Metrics().GetGauge("orchestrator.prefix_budget.total");
  budget_used.Set(static_cast<double>(cc.PrefixCount()));
  budget_total.Set(static_cast<double>(config_.prefix_budget));
  return cc;
}

bool LearningShouldStop(const std::vector<double>& realized, double stop_frac,
                        double abs_epsilon_ms, std::size_t patience) {
  if (realized.empty()) return false;
  // Track the best realized benefit, seeded from the first report so the
  // rule behaves sensibly when every benefit is zero or negative. An entry
  // only counts as an improvement when it clears the larger of the relative
  // and absolute margins — a multiplicative test alone degenerates at
  // best == 0 (any ε > 0 would pass) and inverts for negative baselines.
  double best = realized.front();
  std::size_t best_at = 0;
  for (std::size_t i = 1; i < realized.size(); ++i) {
    const double margin =
        std::max(std::abs(best) * stop_frac, abs_epsilon_ms);
    if (realized[i] > best + margin) {
      best = realized[i];
      best_at = i;
    }
  }
  return realized.size() - 1 - best_at >= patience;
}

Orchestrator::Prediction Orchestrator::Predict(
    const AdvertisementConfig& config) const {
  return PredictBenefit(*instance_, model_, config, config_.Expectation());
}

void Orchestrator::Absorb(
    const AdvertisementConfig& config,
    const std::vector<AdvertisementEnvironment::PrefixObservation>&
        observations) {
  const obs::TraceSpan span{"orchestrator.Absorb"};
  std::size_t absorbed = 0;
  const ProblemInstance& inst = *instance_;
  // Per prefix, each UG's compliant options among the advertised sessions,
  // as indices into the session list, gathered by walking each advertised
  // session's flat-index entries in session order: UG u's list is
  // advertised[first[u] .. first[u + 1]), sorted by session id like its
  // options. An index fits 16 bits: the sessions that have entries are
  // distinct ids below peering_count ≤ 65,536 and lead the sorted list.
  std::vector<std::uint32_t> first(inst.UgCount() + 1);
  std::vector<std::uint16_t> advertised;
  std::vector<util::PeeringId> candidates;
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    if (p >= observations.size()) break;
    const auto& obs = observations[p];
    const auto& sessions = config.Sessions(p);
    const auto& attrs = config.Attrs(p);
    // Sessions no UG has as an option (ids past the instance) are skipped.
    const auto walk = [&](auto&& visit) {
      for (std::uint32_t j = 0; j < sessions.size(); ++j) {
        const std::size_t g = sessions[j].value();
        if (g >= inst.peering_count) continue;
        for (std::size_t i = flat_.offset[g]; i < flat_.offset[g + 1]; ++i) {
          visit(flat_.ug[i], j);
        }
      }
    };
    std::fill(first.begin(), first.end(), 0);
    walk([&](std::uint32_t u, std::uint32_t) { ++first[u + 1]; });
    for (std::size_t u = 0; u < inst.UgCount(); ++u) first[u + 1] += first[u];
    advertised.resize(first.back());
    walk([&](std::uint32_t u, std::uint32_t j) {
      advertised[first[u]++] = static_cast<std::uint16_t>(j);
    });
    // The fill advanced each first[u] to the start of u + 1's list.
    for (std::size_t u = inst.UgCount(); u > 0; --u) first[u] = first[u - 1];
    first[0] = 0;
    for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
      const auto& ingress = obs.ingress_of_ug.at(u);
      if (!ingress.has_value()) continue;
      // Candidates the UG could have used on this prefix: its compliant
      // options among the advertised sessions — restricted to sessions
      // announced under the same attributes as the chosen ingress. Losing to
      // a shorter (less-prepended, non-demoted) announcement reveals nothing
      // about intrinsic preference, and folding it in would contaminate the
      // model; with the legacy all-default space the filter never fires.
      const SessionAttr chosen_attr = config.AttrOf(p, *ingress);
      candidates.clear();
      for (std::uint32_t k = first[u]; k < first[u + 1]; ++k) {
        const std::uint32_t j = advertised[k];
        if (attrs[j] == chosen_attr) candidates.push_back(sessions[j]);
      }
      bool changed = model_.ObservePreference(u, *ingress, candidates);
      changed = model_.ObserveLatency(u, *ingress, obs.rtt_ms_of_ug.at(u),
                                      config_.model_update_epsilon_ms) ||
                changed;
      // Cross-call dirtiness: only UGs whose model entries actually moved
      // invalidate their peerings' cached seed marginals — a steady-state
      // absorb (same ingresses, same RTTs) leaves the cache fully warm.
      if (changed && !ug_dirty_[u]) {
        ug_dirty_[u] = 1;
        ++dirty_ug_count_;
      }
      ++absorbed;
    }
  }
  OrchestratorMetrics::Get().observations.Add(absorbed);
  model_.ShrinkToFit();
  OrchestratorMetrics::Get().model_footprint.Set(
      static_cast<double>(model_.FootprintBytes()));
}

Orchestrator::IterationReport Orchestrator::RunLearningIteration(
    AdvertisementEnvironment& env, std::size_t iter,
    std::vector<AdvertisementEnvironment::PrefixObservation>*
        out_observations) {
  const obs::TraceSpan iter_span{"orchestrator.learn.iteration"};
  OrchestratorMetrics::Get().learn_iterations.Add();
  const ProblemInstance& inst = *instance_;
  IterationReport report;
  report.config = ComputeConfig();
  {
    const obs::TraceSpan predict_span{"orchestrator.Predict"};
    report.predicted = Predict(report.config);
  }
  report.prefixes_used = report.config.NonEmptyPrefixCount();

  auto observations = [&] {
    const obs::TraceSpan exec_span{"environment.Execute"};
    return env.Execute(report.config);
  }();

  // Realized benefit: each UG's Traffic Manager measures all prefixes it
  // can reach and steers to the best, with anycast as the floor option.
  double acc = 0.0;
  double acc_pos = 0.0;
  double w_pos = 0.0;
  for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
    double best = inst.anycast_rtt_ms[u];
    for (const auto& obs : observations) {
      if (obs.ingress_of_ug.at(u).has_value()) {
        best = std::min(best, obs.rtt_ms_of_ug.at(u));
      }
    }
    const double imp = inst.anycast_rtt_ms[u] - best;
    acc += inst.ug_weight[u] * imp;
    if (imp > 1e-9) {
      acc_pos += inst.ug_weight[u] * imp;
      w_pos += inst.ug_weight[u];
    }
  }
  report.realized_ms = inst.total_weight == 0 ? 0 : acc / inst.total_weight;
  report.realized_positive_ms = w_pos == 0 ? 0 : acc_pos / w_pos;

  // Per-iteration telemetry (Fig. 6c's learning curve, as metrics): the
  // predicted-vs-realized gap is the model error learning drives down.
  // These values come from the seeded simulation, so they are reproducible
  // and land in the deterministic section of the metrics export.
  //
  // Registry growth is bounded: per-slot `iterN` gauges stop at
  // kMaxIterMetricSeries (historical names kept below the cap), while the
  // rolling `last.*` family is overwritten every iteration — a run of any
  // length leaves O(cap) gauges behind, never O(iterations). Iteration 0
  // unsets the slots an earlier run filled, so the export holds one run's
  // series, not a longer earlier run's tail.
  if (iter == 0) obs::Metrics().UnsetGauges("orchestrator.learn.iter");
  const auto emit = [&](const std::string& prefix) {
    obs::Metrics().GetGauge(prefix + "predicted_mean_ms")
        .Set(report.predicted.mean_ms);
    obs::Metrics().GetGauge(prefix + "realized_ms").Set(report.realized_ms);
    obs::Metrics().GetGauge(prefix + "realized_positive_ms")
        .Set(report.realized_positive_ms);
    obs::Metrics().GetGauge(prefix + "prefixes_used")
        .Set(static_cast<double>(report.prefixes_used));
  };
  const bool per_slot = iter < kMaxIterMetricSeries;
  const std::string iter_prefix =
      "orchestrator.learn.iter" + std::to_string(iter) + ".";
  if (per_slot) emit(iter_prefix);
  emit("orchestrator.learn.last.");
  obs::Metrics().GetGauge("orchestrator.learn.last.iteration")
      .Set(static_cast<double>(iter));

  if (config_.enable_learning) Absorb(report.config, observations);

  // Pairwise preferences learned per round (cumulative after this absorb).
  if (per_slot) {
    obs::Metrics().GetGauge(iter_prefix + "preferences_total")
        .Set(static_cast<double>(model_.PreferenceCount()));
  }
  obs::Metrics().GetGauge("orchestrator.learn.last.preferences_total")
      .Set(static_cast<double>(model_.PreferenceCount()));
  if (out_observations != nullptr) *out_observations = std::move(observations);
  return report;
}

bool Orchestrator::LearningComplete(
    const std::vector<IterationReport>& reports) const {
  if (reports.empty()) return false;  // always at least one iteration
  if (!config_.enable_learning) return true;
  if (reports.size() >= config_.max_learning_iterations) return true;

  // Patience-based termination: learning routinely dips for an iteration
  // while the model digests surprising observations, so stop only when the
  // best realized benefit has been flat for `learning_patience` rounds.
  std::vector<double> realized;
  realized.reserve(reports.size());
  for (const IterationReport& r : reports) realized.push_back(r.realized_ms);
  return LearningShouldStop(realized, config_.learning_stop_frac,
                            kLearningAbsEpsilonMs, config_.learning_patience);
}

std::vector<Orchestrator::IterationReport> Orchestrator::Learn(
    AdvertisementEnvironment& env) {
  const obs::TraceSpan learn_span{"orchestrator.Learn"};
  std::vector<IterationReport> reports;
  do {
    reports.push_back(RunLearningIteration(env, reports.size()));
  } while (!LearningComplete(reports));
  return reports;
}

}  // namespace painter::core
