#include "bgpsim/engine.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace painter::bgpsim {

bool Preferred(const Route& a, const Route& b) {
  if (!a.reachable) return false;
  if (!b.reachable) return true;
  if (a.learned_from != b.learned_from) return a.learned_from < b.learned_from;
  // Lower-pref community: demoted below same-class alternatives everywhere
  // (transitive, graceful-shutdown style — see route.h). Ordering this
  // before path length keeps export keys lexicographically monotone under
  // relaxation: a route that improves at an AS yields derived candidates
  // that improve at its neighbors, so stale exports are always overwritten.
  const bool a_lp = a.community == Community::kLowerPref;
  const bool b_lp = b.community == Community::kLowerPref;
  if (a_lp != b_lp) return b_lp;
  if (a.path_length != b.path_length) return a.path_length < b.path_length;
  return a.next_hop < b.next_hop;
}

std::vector<util::AsId> RoutingOutcome::Path(util::AsId as) const {
  std::vector<util::AsId> path;
  if (!Reachable(as)) return path;
  util::AsId cur = as;
  // Guard against malformed chains; a valid path is at most as_count hops.
  for (std::size_t guard = 0; guard <= routes_.size(); ++guard) {
    const Route& r = routes_.at(cur.value());
    if (!r.reachable) return {};
    path.push_back(r.next_hop);
    if (r.next_hop == origin_) return path;
    cur = r.next_hop;
  }
  throw std::logic_error{"RoutingOutcome::Path: forwarding loop"};
}

std::optional<util::AsId> RoutingOutcome::EntryAs(util::AsId as) const {
  const auto path = Path(as);
  if (path.size() < 2) {
    // Path == [origin]: `as` itself is adjacent to the origin.
    return Reachable(as) ? std::optional<util::AsId>{as} : std::nullopt;
  }
  return path[path.size() - 2];
}

BgpEngine::BgpEngine(const topo::AsGraph& graph) : graph_(&graph) {
  rel_.resize(graph.size());
  for (std::uint32_t v = 0; v < graph.size(); ++v) {
    const util::AsId id{v};
    auto& row = rel_[v];
    for (util::AsId c : graph.customers(id)) row.emplace_back(c.value(), Rel::kCustomer);
    for (util::AsId p : graph.peers(id)) row.emplace_back(p.value(), Rel::kPeer);
    for (util::AsId p : graph.providers(id)) row.emplace_back(p.value(), Rel::kProvider);
    std::sort(row.begin(), row.end());
  }
}

BgpEngine::Rel BgpEngine::RelOf(util::AsId a, util::AsId b) const {
  const auto& row = rel_[a.value()];
  const auto it = std::lower_bound(
      row.begin(), row.end(), std::make_pair(b.value(), Rel::kNone),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  if (it == row.end() || it->first != b.value()) return Rel::kNone;
  return it->second;
}

RoutingOutcome BgpEngine::Propagate(const Announcement& ann) const {
  static obs::Counter& propagations =
      obs::Metrics().GetCounter("bgpsim.propagations");
  propagations.Add();
  const obs::TraceSpan span{"bgpsim.BgpEngine.Propagate"};
  const topo::AsGraph& g = *graph_;
  RoutingOutcome out{g.size(), ann.origin};

  // Validate and dedupe the receiving-neighbor set. Sort+unique instead of a
  // per-element linear scan: announcements can list hundreds of sessions, and
  // the stable outcome is seed-order independent (route selection keeps the
  // max under the strict `Preferred` order, and each BFS level dedupes), so
  // reordering the seeds cannot change the result. With per-neighbor
  // attributes the sort key is (neighbor, attractiveness): a neighbor listed
  // with several variants keeps the one best-path selection would pick
  // (non-demoted before lower-pref, fewest prepends, exporting before
  // no-export), and prepend-∞ variants are dropped entirely — they are the
  // withdraw sentinel (route.h).
  if (!ann.attrs.empty() && ann.attrs.size() != ann.to_neighbors.size()) {
    throw std::invalid_argument{
        "Propagate: attrs size does not match to_neighbors"};
  }
  struct Seed {
    util::AsId n;
    NeighborAttr attr;
  };
  std::vector<Seed> seeds;
  seeds.reserve(ann.to_neighbors.size());
  std::uint64_t prepended_sessions = 0;
  std::uint64_t prepended_hops = 0;
  std::uint64_t withdraw_equiv = 0;
  for (std::size_t k = 0; k < ann.to_neighbors.size(); ++k) {
    const util::AsId n = ann.to_neighbors[k];
    if (RelOf(ann.origin, n) == Rel::kNone) {
      throw std::invalid_argument{
          "Propagate: announcement to non-adjacent neighbor"};
    }
    const NeighborAttr attr = ann.attrs.empty() ? NeighborAttr{} : ann.attrs[k];
    if (attr.prepend == kPrependInfinity) {
      ++withdraw_equiv;
      continue;
    }
    if (attr.prepend > kMaxPrepend) {
      throw std::invalid_argument{"Propagate: prepend level out of range"};
    }
    if (attr.prepend > 0) {
      ++prepended_sessions;
      prepended_hops += attr.prepend;
    }
    seeds.push_back(Seed{n, attr});
  }
  if (prepended_sessions > 0 || withdraw_equiv > 0) {
    // bgp.prepend.*: closed metric family (tools/metrics_lint.py).
    static obs::Counter& prepend_sessions =
        obs::Metrics().GetCounter("bgp.prepend.sessions");
    static obs::Counter& prepend_hops =
        obs::Metrics().GetCounter("bgp.prepend.hops");
    static obs::Counter& prepend_withdraw =
        obs::Metrics().GetCounter("bgp.prepend.withdraw_equiv");
    if (prepended_sessions > 0) prepend_sessions.Add(prepended_sessions);
    if (prepended_hops > 0) prepend_hops.Add(prepended_hops);
    if (withdraw_equiv > 0) prepend_withdraw.Add(withdraw_equiv);
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    if (a.n != b.n) return a.n < b.n;
    const bool a_lp = a.attr.community == Community::kLowerPref;
    const bool b_lp = b.attr.community == Community::kLowerPref;
    if (a_lp != b_lp) return b_lp;
    if (a.attr.prepend != b.attr.prepend) return a.attr.prepend < b.attr.prepend;
    return (a.attr.community == Community::kNoExportUp) <
           (b.attr.community == Community::kNoExportUp);
  });
  seeds.erase(std::unique(seeds.begin(), seeds.end(),
                          [](const Seed& a, const Seed& b) { return a.n == b.n; }),
              seeds.end());
  // The route a seed neighbor hears directly from the origin (class filled
  // per phase): effective length is 1 + prepend, carrying the community.
  const auto seed_route = [&](const Seed& s, LearnedFrom cls) {
    return Route{.reachable = true,
                 .learned_from = cls,
                 .community = s.attr.community,
                 .path_length = 1u + s.attr.prepend,
                 .next_hop = ann.origin};
  };

  auto consider = [&](util::AsId as, const Route& cand) {
    Route& cur = out.MutableRoute(as);
    if (Preferred(cand, cur)) {
      cur = cand;
      return true;
    }
    return false;
  };

  // --- Phase 1: customer routes climb provider links. ---
  // Seeds: neighbors for which the origin is a customer (i.e. the origin's
  // providers, among the selected receivers).
  //
  // Level-synchronized BFS so that an AS's route is final before it exports;
  // within a level all candidates compete under the full decision process.
  std::vector<util::AsId> frontier;
  for (const Seed& s : seeds) {
    if (RelOf(s.n, ann.origin) == Rel::kCustomer) {
      if (consider(s.n, seed_route(s, LearnedFrom::kCustomer))) {
        frontier.push_back(s.n);
      }
    }
  }
  while (!frontier.empty()) {
    // Collect candidate updates for the next level, then commit the best.
    std::vector<util::AsId> next;
    for (util::AsId u : frontier) {
      const Route& ru = out.RouteAt(u);
      // kNoExportUp confines the route to the seed neighbor's customer cone:
      // customer-learned routes carrying it never climb provider links.
      if (ru.community == Community::kNoExportUp) continue;
      for (util::AsId prov : g.providers(u)) {
        Route cand{.reachable = true,
                   .learned_from = LearnedFrom::kCustomer,
                   .community = ru.community,
                   .path_length = ru.path_length + 1,
                   .next_hop = u};
        if (consider(prov, cand)) next.push_back(prov);
      }
    }
    // Dedupe: an AS updated twice in a level should appear once.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }

  // --- Phase 2: peer routes cross exactly one peer link. ---
  // Direct peers of the origin among the seeds:
  std::vector<std::pair<util::AsId, Route>> peer_cands;
  for (const Seed& s : seeds) {
    if (RelOf(s.n, ann.origin) == Rel::kPeer) {
      peer_cands.emplace_back(s.n, seed_route(s, LearnedFrom::kPeer));
    }
  }
  // ASes with customer routes export them to peers — unless the route asks
  // not to be re-exported toward the peer class (kNoExportUp).
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const Route& r = out.RouteAt(util::AsId{v});
    if (!r.reachable || r.learned_from != LearnedFrom::kCustomer) continue;
    if (r.community == Community::kNoExportUp) continue;
    for (util::AsId peer : g.peers(util::AsId{v})) {
      peer_cands.emplace_back(peer,
                              Route{.reachable = true,
                                    .learned_from = LearnedFrom::kPeer,
                                    .community = r.community,
                                    .path_length = r.path_length + 1,
                                    .next_hop = util::AsId{v}});
    }
  }
  for (const auto& [as, cand] : peer_cands) consider(as, cand);

  // --- Phase 3: routes descend provider->customer links. ---
  // Origin's selected customers learn directly from their provider (origin).
  frontier.clear();
  for (const Seed& s : seeds) {
    if (RelOf(s.n, ann.origin) == Rel::kProvider) {
      // From n's perspective the origin is its provider.
      if (consider(s.n, seed_route(s, LearnedFrom::kProvider))) {
        frontier.push_back(s.n);
      }
    }
  }
  // Every AS holding any route exports it to customers. BFS by levels over
  // path length; customer/peer-routed ASes are all sources at their existing
  // lengths. To keep level semantics we expand from all routed ASes, shortest
  // paths first, using a simple monotone worklist keyed by candidate length.
  std::deque<util::AsId> work;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    if (out.Reachable(util::AsId{v})) work.push_back(util::AsId{v});
  }
  for (util::AsId f : frontier) work.push_back(f);
  // Bellman-Ford-style relaxation: provider routes can only lengthen down a
  // DAG (provider->customer edges), so this terminates quickly.
  while (!work.empty()) {
    const util::AsId u = work.front();
    work.pop_front();
    const Route ru = out.RouteAt(u);
    if (!ru.reachable) continue;
    for (util::AsId cust : g.customers(u)) {
      // Down-export is never community-gated (NO_EXPORT only scopes the
      // non-customer direction); the community still travels with the route
      // so kLowerPref keeps demoting inside customer cones.
      Route cand{.reachable = true,
                 .learned_from = LearnedFrom::kProvider,
                 .community = ru.community,
                 .path_length = ru.path_length + 1,
                 .next_hop = u};
      if (consider(cust, cand)) work.push_back(cust);
    }
  }

  return out;
}

}  // namespace painter::bgpsim
