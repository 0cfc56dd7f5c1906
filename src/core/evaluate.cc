#include "core/evaluate.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace painter::core {

Orchestrator::Prediction PredictBenefit(const ProblemInstance& instance,
                                        const RoutingModel& model,
                                        const AdvertisementConfig& config,
                                        const ExpectationParams& params) {
  static obs::Counter& predictions =
      obs::Metrics().GetCounter("evaluator.predict.calls");
  predictions.Add();
  Orchestrator::Prediction pred;
  if (instance.total_weight == 0.0) return pred;

  // Appendix E.1 semantics: each UG selects the prefix with the best Mean
  // expectation (Eq. 2) and the reported range is that prefix's possible
  // ingress outcomes. Anycast stays available per flow, so each benefit is
  // floored at zero — but a UG on a reused prefix may realize anywhere in
  // [lower, upper], which is exactly the uncertainty One-per-PoP strategies
  // suffer from and One-per-Peering never has.
  const bool attributed = !config.AllAttrsDefault();
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    const double any = instance.anycast_rtt_ms[u];
    const PrefixExpectation* best = nullptr;
    PrefixExpectation scratch;
    for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
      const PrefixExpectation e =
          attributed ? ComputeExpectation(instance, model, u,
                                          config.Sessions(p), config.Attrs(p),
                                          params)
                     : ComputeExpectation(instance, model, u,
                                          config.Sessions(p), params);
      if (!e.usable) continue;
      if (best == nullptr || e.mean_rtt < best->mean_rtt) {
        scratch = e;
        best = &scratch;
      }
    }
    if (best == nullptr || best->mean_rtt >= any) continue;  // anycast
    const double w = instance.ug_weight[u];
    pred.upper_ms += w * std::max(0.0, any - best->lower_rtt);
    pred.mean_ms += w * std::max(0.0, any - best->mean_rtt);
    pred.estimated_ms += w * std::max(0.0, any - best->estimated_rtt);
    pred.lower_ms += w * std::max(0.0, any - best->upper_rtt);
  }
  pred.lower_ms /= instance.total_weight;
  pred.mean_ms /= instance.total_weight;
  pred.estimated_ms /= instance.total_weight;
  pred.upper_ms /= instance.total_weight;
  return pred;
}

namespace {

// Flattens one Resolve result into the evaluator's ingress/day-0-RTT layout
// (-1 / +inf for unreachable), filling `ingress[base..base+n)` and
// `day0[base..base+n)`. The reachable UGs' truths are one oracle batch.
void FlattenResolved(
    const std::vector<std::optional<util::PeeringId>>& resolved,
    const measure::LatencyOracle& oracle, std::size_t base,
    std::int32_t* ingress, double* day0) {
  std::vector<measure::UgPeering> routed;
  for (std::size_t u = 0; u < resolved.size(); ++u) {
    if (resolved[u].has_value()) {
      ingress[base + u] = static_cast<std::int32_t>(resolved[u]->value());
      routed.push_back(
          {util::UgId{static_cast<std::uint32_t>(u)}, *resolved[u]});
    } else {
      ingress[base + u] = -1;
      day0[base + u] = std::numeric_limits<double>::infinity();
    }
  }
  const auto truths = oracle.TrueRttEach(routed, /*day=*/0);
  for (std::size_t i = 0; i < routed.size(); ++i) {
    day0[base + routed[i].ug.value()] = truths[i].count();
  }
}

}  // namespace

GroundTruthEvaluator::GroundTruthEvaluator(
    const cloudsim::Deployment& deployment,
    const cloudsim::IngressResolver& resolver,
    const measure::LatencyOracle& oracle)
    : deployment_(&deployment),
      resolver_(&resolver),
      oracle_(&oracle),
      ug_count_(deployment.ugs().size()) {
  std::vector<util::PeeringId> all;
  all.reserve(deployment.peerings().size());
  for (const auto& p : deployment.peerings()) all.push_back(p.id);
  anycast_ingress_.resize(ug_count_);
  anycast_day0_rtt_.resize(ug_count_);
  FlattenResolved(resolver.Resolve(all), oracle, 0, anycast_ingress_.data(),
                  anycast_day0_rtt_.data());
}

void GroundTruthEvaluator::SetConfig(const AdvertisementConfig& config) {
  static obs::Counter& resolves =
      obs::Metrics().GetCounter("evaluator.gt.prefix_resolves");
  const obs::TraceSpan span{"evaluator.gt.SetConfig"};
  prefix_count_ = config.PrefixCount();
  prefix_ingress_.assign(prefix_count_ * ug_count_, -1);
  prefix_day0_rtt_.assign(prefix_count_ * ug_count_, 0.0);
  resolves.Add(prefix_count_);
  for (std::size_t p = 0; p < prefix_count_; ++p) {
    // NeighborAttrs() is empty for all-default prefixes, so legacy configs
    // resolve through the exact legacy path.
    FlattenResolved(
        resolver_->Resolve(config.Sessions(p), config.NeighborAttrs(p)),
        *oracle_, p * ug_count_, prefix_ingress_.data(),
        prefix_day0_rtt_.data());
  }
}

std::size_t GroundTruthEvaluator::SlotOf(std::uint32_t u, int prefix) const {
  return static_cast<std::size_t>(prefix) * ug_count_ + u;
}

void GroundTruthEvaluator::RowOf(std::uint32_t u, std::span<const int> prefixes,
                                 int day, std::span<double> row) const {
  auto ingress_of = [&](int prefix) {
    return prefix < 0 ? anycast_ingress_[u]
                      : prefix_ingress_[SlotOf(u, prefix)];
  };
  std::vector<util::PeeringId> sessions;
  for (std::size_t j = 0; j < prefixes.size(); ++j) {
    const std::int32_t ingress = ingress_of(prefixes[j]);
    if (ingress < 0) {
      row[j] = std::numeric_limits<double>::infinity();
    } else if (day == 0) {
      row[j] = prefixes[j] < 0 ? anycast_day0_rtt_[u]
                               : prefix_day0_rtt_[SlotOf(u, prefixes[j])];
    } else {
      sessions.push_back(util::PeeringId{static_cast<std::uint32_t>(ingress)});
    }
  }
  if (sessions.empty()) return;
  const auto truths = oracle_->TrueRttOnDayEach(util::UgId{u}, sessions, day);
  std::size_t next = 0;
  for (std::size_t j = 0; j < prefixes.size(); ++j) {
    if (ingress_of(prefixes[j]) >= 0) row[j] = truths[next++].count();
  }
}

std::vector<int> GroundTruthEvaluator::AllPrefixes() const {
  std::vector<int> prefixes(prefix_count_ + 1);
  std::iota(prefixes.begin(), prefixes.end(), -1);
  return prefixes;
}

double GroundTruthEvaluator::MeanImprovementMs(int day) const {
  static obs::Counter& passes =
      obs::Metrics().GetCounter("evaluator.gt.passes");
  passes.Add();
  const obs::TraceSpan span{"evaluator.gt.MeanImprovementMs"};
  const std::vector<int> prefixes = AllPrefixes();
  std::vector<double> row(prefixes.size());
  double acc = 0.0;
  double wsum = 0.0;
  for (const auto& ug : deployment_->ugs()) {
    RowOf(ug.id.value(), prefixes, day, row);
    const double any = row[0];
    if (std::isfinite(any)) {
      acc += ug.traffic_weight * (any - *std::min_element(row.begin(), row.end()));
      wsum += ug.traffic_weight;
    }
  }
  return wsum == 0.0 ? 0.0 : acc / wsum;
}

double GroundTruthEvaluator::PositiveMeanImprovementMs(int day) const {
  static obs::Counter& passes =
      obs::Metrics().GetCounter("evaluator.gt.passes");
  passes.Add();
  const obs::TraceSpan span{"evaluator.gt.PositiveMeanImprovementMs"};
  const std::vector<int> prefixes = AllPrefixes();
  std::vector<double> row(prefixes.size());
  double acc = 0.0;
  double wsum = 0.0;
  for (const auto& ug : deployment_->ugs()) {
    RowOf(ug.id.value(), prefixes, day, row);
    const double any = row[0];
    const double imp = any - *std::min_element(row.begin(), row.end());
    if (std::isfinite(any) && imp > 1e-9) {
      acc += ug.traffic_weight * imp;
      wsum += ug.traffic_weight;
    }
  }
  return wsum == 0.0 ? 0.0 : acc / wsum;
}

double GroundTruthEvaluator::MeanImprovementOverUgsMs(
    const std::vector<std::uint32_t>& ugs, int day) const {
  const std::vector<int> prefixes = AllPrefixes();
  std::vector<double> row(prefixes.size());
  double acc = 0.0;
  double wsum = 0.0;
  for (const std::uint32_t u : ugs) {
    const auto& ug = deployment_->ug(util::UgId{u});
    RowOf(u, prefixes, day, row);
    const double any = row[0];
    if (!std::isfinite(any)) continue;
    acc += ug.traffic_weight * (any - *std::min_element(row.begin(), row.end()));
    wsum += ug.traffic_weight;
  }
  return wsum == 0.0 ? 0.0 : acc / wsum;
}

std::optional<double> GroundTruthEvaluator::PossibleGainMs(
    const cloudsim::PolicyCatalog& catalog, const cloudsim::UserGroup& ug,
    int day) const {
  const std::int32_t anycast = anycast_ingress_[ug.id.value()];
  if (anycast < 0) return std::nullopt;
  const auto compliant = catalog.CompliantPeerings(ug.id);
  std::vector<util::PeeringId> sessions;
  sessions.reserve(compliant.size() + 1);
  sessions.push_back(util::PeeringId{static_cast<std::uint32_t>(anycast)});
  sessions.insert(sessions.end(), compliant.begin(), compliant.end());
  const auto truths = oracle_->TrueRttOnDayEach(ug.id, sessions, day);
  const util::Millis best = *std::min_element(truths.begin(), truths.end());
  return truths.front().count() - best.count();
}

std::vector<std::uint32_t> GroundTruthEvaluator::BenefitingUgs(
    const cloudsim::PolicyCatalog& catalog, double threshold_ms,
    int day) const {
  std::vector<std::uint32_t> out;
  for (const auto& ug : deployment_->ugs()) {
    // Both sides of the headroom comparison use the same day's ground truth
    // so the set agrees with the improvement metrics for that day.
    const auto gain = PossibleGainMs(catalog, ug, day);
    if (gain.has_value() && *gain > threshold_ms) out.push_back(ug.id.value());
  }
  return out;
}

std::vector<int> GroundTruthEvaluator::Choices(int day) const {
  const std::vector<int> prefixes = AllPrefixes();
  std::vector<double> row(prefixes.size());
  std::vector<int> choices(ug_count_, -1);
  for (const auto& ug : deployment_->ugs()) {
    const std::uint32_t u = ug.id.value();
    RowOf(u, prefixes, day, row);
    double best = row[0];
    for (std::size_t p = 0; p < prefix_count_; ++p) {
      if (row[p + 1] < best) {
        best = row[p + 1];
        choices[u] = static_cast<int>(p);
      }
    }
  }
  return choices;
}

double GroundTruthEvaluator::MeanImprovementStaticMs(
    const std::vector<int>& choices, int day) const {
  double acc = 0.0;
  double wsum = 0.0;
  std::array<double, 2> row{};
  for (const auto& ug : deployment_->ugs()) {
    const std::uint32_t u = ug.id.value();
    const std::array<int, 2> prefixes = {-1, choices.at(u)};
    RowOf(u, prefixes, day, row);
    const double any = row[0];
    if (!std::isfinite(any)) continue;
    double used = row[1];
    if (!std::isfinite(used)) used = any;  // pinned prefix unreachable
    acc += ug.traffic_weight * (any - used);
    wsum += ug.traffic_weight;
  }
  return wsum == 0.0 ? 0.0 : acc / wsum;
}

double GroundTruthEvaluator::PossibleMeanImprovementMs(
    const cloudsim::PolicyCatalog& catalog, int day) const {
  double acc = 0.0;
  double wsum = 0.0;
  for (const auto& ug : deployment_->ugs()) {
    const auto gain = PossibleGainMs(catalog, ug, day);
    if (!gain.has_value()) continue;
    acc += ug.traffic_weight * *gain;
    wsum += ug.traffic_weight;
  }
  return wsum == 0.0 ? 0.0 : acc / wsum;
}

double EvaluateDnsSteering(const ProblemInstance& instance,
                           const RoutingModel& model,
                           const AdvertisementConfig& config,
                           const ExpectationParams& params,
                           const DnsSteeringInput& dns) {
  if (instance.total_weight == 0.0) return 0.0;
  const obs::TraceSpan span{"evaluator.dns.EvaluateDnsSteering"};
  static obs::Counter& dns_passes =
      obs::Metrics().GetCounter("evaluator.dns.passes");
  static obs::Counter& dns_cells =
      obs::Metrics().GetCounter("evaluator.dns.matrix_cells");
  dns_passes.Add();
  dns_cells.Add(static_cast<std::uint64_t>(instance.UgCount()) *
                config.PrefixCount());
  const std::size_t n_resolvers = dns.resolver_supports_ecs.size();

  // Modeled RTT per (UG, prefix), stored row-major in one contiguous buffer
  // (rtt[u * cols + p]) — the resolver aggregation below walks a column
  // slice per UG, and per-row heap allocations dominated the fill at scale.
  // There is no anycast column: a UG falls back to anycast through the
  // `used` floor in the final loop below.
  const std::size_t cols = config.PrefixCount();
  std::vector<double> rtt(instance.UgCount() * cols, 0.0);
  const bool attributed = !config.AllAttrsDefault();
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    double* row = rtt.data() + u * cols;
    for (std::size_t p = 0; p < cols; ++p) {
      const PrefixExpectation e =
          attributed ? ComputeExpectation(instance, model, u,
                                          config.Sessions(p), config.Attrs(p),
                                          params)
                     : ComputeExpectation(instance, model, u,
                                          config.Sessions(p), params);
      row[p] = e.usable ? e.mean_rtt : std::numeric_limits<double>::infinity();
    }
  }

  // Per resolver: pick the single prefix (or anycast) with the best aggregate
  // improvement over its client UGs.
  std::vector<int> prefix_of_resolver(n_resolvers, -1);
  std::vector<std::vector<std::uint32_t>> ugs_of_resolver(n_resolvers);
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    ugs_of_resolver.at(dns.resolver_of_ug.at(u)).push_back(u);
  }
  for (std::size_t r = 0; r < n_resolvers; ++r) {
    if (dns.resolver_supports_ecs[r]) continue;  // handled per UG below
    double best_agg = 0.0;  // anycast baseline: zero improvement
    for (std::size_t p = 0; p < cols; ++p) {
      double agg = 0.0;
      for (std::uint32_t u : ugs_of_resolver[r]) {
        const double v = rtt[u * cols + p];
        if (!std::isfinite(v)) continue;  // falls back to anycast
        agg += instance.ug_weight[u] * (instance.anycast_rtt_ms[u] - v);
      }
      if (agg > best_agg) {
        best_agg = agg;
        prefix_of_resolver[r] = static_cast<int>(p);
      }
    }
  }

  double acc = 0.0;
  for (std::uint32_t u = 0; u < instance.UgCount(); ++u) {
    const std::uint32_t r = dns.resolver_of_ug[u];
    double used = instance.anycast_rtt_ms[u];
    if (dns.resolver_supports_ecs[r]) {
      // ECS: the resolver can tailor the record per client /24 == per UG.
      for (std::size_t p = 0; p < cols; ++p) {
        used = std::min(used, rtt[u * cols + p]);
      }
    } else if (prefix_of_resolver[r] >= 0) {
      assert(static_cast<std::size_t>(prefix_of_resolver[r]) < cols);
      const double v =
          rtt[u * cols + static_cast<std::size_t>(prefix_of_resolver[r])];
      if (std::isfinite(v)) used = v;  // may be worse than anycast for this UG
    }
    acc += instance.ug_weight[u] * (instance.anycast_rtt_ms[u] - used);
  }
  return acc / instance.total_weight;
}

AdvertisementConfig Truncate(const AdvertisementConfig& config,
                             std::size_t budget) {
  AdvertisementConfig out;
  for (std::size_t p = 0; p < config.PrefixCount() && p < budget; ++p) {
    out.AddPrefix(config.Sessions(p), config.Attrs(p));
  }
  return out;
}

}  // namespace painter::core
