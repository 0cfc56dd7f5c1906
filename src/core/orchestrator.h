// The Advertisement Orchestrator (§3.1, Algorithm 1).
//
// Given a prefix budget PB and minimum reuse distance D_reuse, greedily
// allocates prefixes to peerings: for each prefix, repeatedly add the peering
// with the highest positive marginal benefit (Eq. 1 evaluated with the
// Eq. 2 expectation under the current routing model), stopping when no
// peering adds positive benefit, then move to the next prefix. Reuse —
// advertising one prefix via multiple peerings — accumulates benefit without
// exhausting the budget, guarded by the D_reuse exclusion so reuse does not
// inflate anyone's expectation.
//
// Learning loop: after computing a configuration, the orchestrator executes
// it against an AdvertisementEnvironment (the prototype on the simulated
// Internet, or a real cloud in the paper's deployment), observes which
// ingress each UG actually landed on and at what RTT, folds those into the
// RoutingModel, and recomputes. Iterations terminate when realized benefit
// stops improving (§3.1 "terminate learning when little marginal benefit
// increase") or after max_learning_iterations.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/advertisement.h"
#include "core/problem.h"
#include "core/routing_model.h"

namespace painter::core {

// The advertisement action space Algorithm 1 sweeps per (peering, prefix).
// The default is the paper's binary advertise/withdraw. Widening it adds
// variants — prepend levels 1..max_prepend, a lower-pref community, a
// no-export-to-peer-class community — each scored as its own CELF heap
// entry; at most one variant of a peering commits per prefix. The default
// (single-variant) space runs the exact legacy loop bit for bit.
struct ActionSpaceConfig {
  std::uint8_t max_prepend = 0;  // sweep prepend levels 0..max_prepend (≤ 3)
  bool enable_lower_pref = false;   // bgpsim::Community::kLowerPref variant
  bool enable_no_export = false;    // bgpsim::Community::kNoExportUp variant

  [[nodiscard]] bool Legacy() const {
    return max_prepend == 0 && !enable_lower_pref && !enable_no_export;
  }
  [[nodiscard]] std::size_t VariantCount() const {
    return 1u + max_prepend + (enable_lower_pref ? 1u : 0u) +
           (enable_no_export ? 1u : 0u);
  }
};

// Absolute floor of the learning loop's improvement margin: keeps the
// patience rule meaningful when the best benefit is zero or negative, where
// a purely multiplicative margin degenerates.
inline constexpr double kLearningAbsEpsilonMs = 1e-3;

// Cap on per-iteration `orchestrator.learn.iterN.*` gauge families in the
// global metrics registry. Iterations < the cap keep the historical
// per-slot names; beyond it only the rolling `orchestrator.learn.last.*`
// gauges (emitted every iteration) advance, so an arbitrarily long learning
// run adds O(1) registry entries instead of O(iterations). Iteration 0
// unsets every per-slot gauge an earlier run set, so the export holds one
// run's series.
inline constexpr std::size_t kMaxIterMetricSeries = 64;

struct OrchestratorConfig {
  std::size_t prefix_budget = 25;
  double d_reuse_km = 3000.0;

  std::size_t max_learning_iterations = 8;
  // Stop learning when the best realized benefit so far has not improved by
  // at least max(|best| * learning_stop_frac, kLearningAbsEpsilonMs) for
  // `learning_patience` consecutive iterations (§3.1: "terminate learning
  // when little marginal benefit increase").
  double learning_stop_frac = 0.01;
  std::size_t learning_patience = 2;

  // Advertisement variants ComputeConfig may pick (default: legacy binary).
  ActionSpaceConfig action_space;

  // Test/audit hook: when set, every pruned seed evaluation (DESIGN.md §14)
  // ALSO runs the skipped from-scratch marginal and reports it here so tests
  // can assert it is ≤ 0 (zero false negatives). Called from the seeding
  // scan, in peering order. The extra audit evaluations count toward
  // orchestrator.celf.evaluations.
  std::function<void(util::PeeringId, double fresh_marginal)> catchment_audit;

  // Cross-CALL seed cache (DESIGN.md §15): carry the round-0 seed marginals
  // across ComputeConfig calls. A peering's round-0 marginal is a pure
  // function of anycast RTTs and the model's measured RTTs over its UGs, so
  // it is byte-exact to reuse until one of those UGs' model entries changes
  // — which Absorb and the Invalidate*/SetPeeringAvailable API track as
  // external dirtiness. The always-on control plane runs with this enabled
  // so a steady-state re-optimization round skips the full seeding scan.
  bool cross_call_seed_cache = false;

  // Noise floor for measured-RTT model updates (RoutingModel::ObserveLatency
  // epsilon): a re-measurement within this many ms of the stored value is
  // treated as ping jitter — the model keeps the old value and the UG stays
  // clean for the cross-call seed cache. 0 = every change counts (legacy).
  // The always-on control plane sets this above the min-of-N ping noise so a
  // steady-state absorb leaves the cache warm.
  double model_update_epsilon_ms = 0.0;

  // Audit mode: every ComputeConfig ALSO runs ComputeConfigUncached() on the
  // same model state and counts a mismatch if the two configurations differ
  // byte-for-byte (orchestrator.celf.seed_cache_audit_mismatches — asserted
  // zero by the control tests and bench/control_loop). The reference pass
  // costs several engine passes.
  bool seed_cache_audit = false;

  // Ablations.
  bool enable_reuse = true;     // false: one peering per prefix (no reuse)
  bool enable_learning = true;  // false: never update the routing model

  [[nodiscard]] ExpectationParams Expectation() const {
    return ExpectationParams{.d_reuse_km = d_reuse_km};
  }
};

// Feedback channel: "execute_advertisement" in Algorithm 1. Implementations
// actually announce the configuration and report, per prefix and UG, the
// observed ingress and measured RTT.
class AdvertisementEnvironment {
 public:
  virtual ~AdvertisementEnvironment() = default;

  struct PrefixObservation {
    // Indexed by UG id value; nullopt = UG had no route to this prefix.
    std::vector<std::optional<util::PeeringId>> ingress_of_ug;
    // RTT measured by the UG's TM-Edge; valid where ingress is set.
    std::vector<double> rtt_ms_of_ug;
  };

  // One observation per prefix in `config`, in order.
  [[nodiscard]] virtual std::vector<PrefixObservation> Execute(
      const AdvertisementConfig& config) = 0;
};

// Patience-based stopping rule of the learning loop (exposed for tests).
// `realized` holds realized_ms per iteration so far, oldest first. The best
// entry is tracked starting from the first report; a later entry counts as
// an improvement only when it beats the best by more than
// max(|best| * stop_frac, abs_epsilon_ms). Returns true when the last
// improvement is at least `patience` entries old.
[[nodiscard]] bool LearningShouldStop(const std::vector<double>& realized,
                                      double stop_frac, double abs_epsilon_ms,
                                      std::size_t patience);

class Orchestrator {
 public:
  // Throws std::invalid_argument for an instance with more than
  // RoutingModel::kMaxSessions (65,536) sessions.
  Orchestrator(const ProblemInstance& instance, OrchestratorConfig config);

  // One greedy pass (the body of Algorithm 1's learning iteration) under the
  // current routing model, on the incremental engine (DESIGN.md §8, §14):
  // seed marginals cached across prefix rounds and pruned once the cached
  // value is ≤ 0, Eq. 2 probes answered from per-UG surviving sets, and
  // probes that cannot undercut base_best gated out. With
  // cross_call_seed_cache, round-0 seed marginals of peerings untouched
  // since the previous call are served from the cross-call cache (and the
  // external dirtiness is consumed); with seed_cache_audit,
  // ComputeConfigUncached() additionally verifies the result.
  [[nodiscard]] AdvertisementConfig ComputeConfig() const;

  // The from-scratch reference ComputeConfig is audited and tested against:
  // every prefix round re-evaluates every seed marginal, and every Eq. 2
  // probe runs ComputeExpectationFromCandidates over the whole candidate
  // list. No probe gate, no seed pruning, no cross-call cache; it consumes
  // no dirtiness (the availability mask from SetPeeringAvailable still
  // applies). The golden and property tests prove both give the same
  // schedule.
  [[nodiscard]] AdvertisementConfig ComputeConfigUncached() const;

  // --- External dirtiness API (the control plane's invalidation surface) ---
  //
  // All of these are no-ops unless cross_call_seed_cache is on, except
  // SetPeeringAvailable whose mask always applies to ComputeConfig.

  // Marks one UG's model state suspect (its peerings re-derive their seed
  // marginals next call). Returns true when the UG was newly dirtied.
  bool InvalidateUg(std::uint32_t ug);
  // Marks one peering suspect directly. Returns true when newly dirtied.
  bool InvalidatePeering(util::PeeringId peering);
  // Drops the whole cross-call cache (topology changed under the model).
  void InvalidateAll();
  // Marks a peering session up/down. Down sessions are excluded from the
  // greedy pass entirely — ComputeConfig never advertises them. Returns true
  // on an actual transition (which also dirties the peering).
  bool SetPeeringAvailable(util::PeeringId peering, bool up);
  [[nodiscard]] bool PeeringAvailable(util::PeeringId peering) const {
    return peering_up_[peering.value()] != 0;
  }
  // UGs currently marked dirty (the control plane's trigger signal).
  [[nodiscard]] std::size_t DirtyUgCount() const { return dirty_ug_count_; }

  // Predicted weighted-average improvement (ms) of `config` over anycast,
  // under the current model, per range kind.
  struct Prediction {
    double lower_ms = 0.0;     // pessimistic (upper-RTT candidates)
    double mean_ms = 0.0;      // Eq. 2 expectation
    double estimated_ms = 0.0; // inflation-weighted
    double upper_ms = 0.0;     // optimistic (lower-RTT candidates)
  };
  [[nodiscard]] Prediction Predict(const AdvertisementConfig& config) const;

  struct IterationReport {
    AdvertisementConfig config;
    Prediction predicted;
    // Weighted-average realized improvement over anycast (ms), from the
    // environment's observations, with UGs free to pick their best prefix.
    double realized_ms = 0.0;
    // Same, averaged only over UGs with positive improvement (Fig. 6b/6c
    // plot "improvement over clients that have non-zero improvement").
    double realized_positive_ms = 0.0;
    std::size_t prefixes_used = 0;
  };

  // Runs the full learning loop. Always performs at least one iteration.
  // Equivalent to pushing RunLearningIteration results until
  // LearningComplete — the event-driven LearningTimeline drives the same
  // pieces from scheduled simulator events and yields bit-identical reports.
  std::vector<IterationReport> Learn(AdvertisementEnvironment& env);

  // One learning iteration — the exact body of Learn()'s loop: compute,
  // predict, execute, score realized benefit, emit the per-iteration gauges
  // (slot `iter`), absorb observations when learning is enabled. When
  // `out_observations` is non-null the environment's raw observations are
  // moved out (the unified timeline publishes them to the DNS layer).
  IterationReport RunLearningIteration(
      AdvertisementEnvironment& env, std::size_t iter,
      std::vector<AdvertisementEnvironment::PrefixObservation>*
          out_observations = nullptr);

  // Learn()'s termination rule over the reports so far: false while empty
  // (at least one iteration always runs), then true once learning is
  // disabled, the iteration cap is hit, or the patience rule fires.
  [[nodiscard]] bool LearningComplete(
      const std::vector<IterationReport>& reports) const;

  // Folds one round of observations into the routing model (exposed for
  // tests and for callers driving the loop manually).
  void Absorb(const AdvertisementConfig& config,
              const std::vector<AdvertisementEnvironment::PrefixObservation>&
                  observations);

  [[nodiscard]] const RoutingModel& model() const { return model_; }
  // Hands out mutable model access for tests/tools that edit the model
  // behind the orchestrator's back — conservatively drops the whole
  // cross-call seed cache, since arbitrary edits are untrackable.
  [[nodiscard]] RoutingModel& mutable_model() {
    InvalidateAll();
    return model_;
  }
  [[nodiscard]] const OrchestratorConfig& config() const { return config_; }

 private:
  // The greedy pass: the incremental engine, or with `reference` the
  // from-scratch pass of ComputeConfigUncached.
  [[nodiscard]] AdvertisementConfig ComputeConfigImpl(bool reference) const;

  const ProblemInstance* instance_;
  OrchestratorConfig config_;
  RoutingModel model_;
  // Contiguous inverted index (peering -> its UGs and option entries), the
  // hot-path layout every marginal evaluation in ComputeConfig walks.
  FlatPeeringIndex flat_;

  // Session availability mask (SetPeeringAvailable): 0 = down, excluded
  // from every greedy pass, cached or not — the audit must see the same
  // world as the cached run.
  std::vector<std::uint8_t> peering_up_;

  // Cross-call seed-cache state, mutated by the const ComputeConfig path
  // (mutable: it is a memo over the model, not logical orchestrator state).
  mutable bool seed_cache_primed_ = false;
  // Round-0 seed marginals, one row per seed slot (plain, then no-export
  // when the action space has it).
  mutable std::vector<std::vector<double>> seed0_cache_;
  // External dirtiness accumulated since the cache was last primed.
  mutable std::vector<std::uint8_t> ug_dirty_;
  mutable std::vector<std::uint8_t> peering_dirty_ext_;
  mutable std::size_t dirty_ug_count_ = 0;
};

}  // namespace painter::core
