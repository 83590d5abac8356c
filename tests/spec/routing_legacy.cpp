// The legacy hash-map Dijkstra / Yen implementations: the executable spec
// of RouteEngine's point, tree and k-shortest queries (see
// routing_legacy.hpp).
#include <openspace/spec/routing_legacy.hpp>

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <unordered_set>

#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

struct QueueEntry {
  double dist;
  NodeId node;
  /// Orders by (dist, node id): the deterministic tie-break mirrors the
  /// RouteEngine's (dist, dense index) heap order, so equal-cost parent
  /// choices agree between the reference and compiled paths.
  bool operator>(const QueueEntry& o) const noexcept {
    return dist > o.dist || (dist == o.dist && node.value() > o.node.value());
  }
};

/// FNV-1a over a node sequence (Yen candidate dedup).
struct NodeSeqHash {
  std::size_t operator()(const std::vector<NodeId>& nodes) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const NodeId id : nodes) {
      h ^= id.value();
      h *= 0x100000001B3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Internal Dijkstra with optional forbidden nodes/links (for Yen spurs).
std::unordered_map<NodeId, std::pair<double, LinkId>> dijkstraCore(
    const NetworkGraph& g, NodeId src, const LinkCostFn& cost, ProviderId home,
    const std::set<NodeId>* forbiddenNodes, const std::set<LinkId>* forbiddenLinks,
    std::optional<NodeId> stopAt) {
  OPENSPACE_ASSERT(g.hasNode(src), "public entry points validate endpoints");
  std::unordered_map<NodeId, std::pair<double, LinkId>> best;  // node -> (dist, via)
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  best[src] = {0.0, LinkId{}};
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [dist, u] = pq.top();
    pq.pop();
    const auto itU = best.find(u);
    if (itU == best.end() || dist > itU->second.first) continue;  // stale
    if (stopAt && u == *stopAt) break;
    for (const LinkId lid : g.linksOf(u)) {
      if (forbiddenLinks && forbiddenLinks->contains(lid)) continue;
      const Link& l = g.link(lid);
      const NodeId v = l.otherEnd(u);
      if (forbiddenNodes && forbiddenNodes->contains(v)) continue;
      const double c = cost(l, g.node(l.a), g.node(l.b), home);
      if (!(c >= 0.0)) {
        throw InvalidArgumentError("dijkstra: negative or NaN link cost");
      }
      if (std::isinf(c)) continue;
      const double nd = dist + c;
      OPENSPACE_ASSERT(nd >= dist,
                       "non-negative costs keep distances monotone");
      const auto itV = best.find(v);
      if (itV == best.end() || nd < itV->second.first) {
        best[v] = {nd, lid};
        pq.push({nd, v});
      }
    }
  }
  return best;
}

Route extractRoute(const NetworkGraph& g, NodeId src, NodeId dst,
                   const std::unordered_map<NodeId, std::pair<double, LinkId>>& best) {
  Route r;
  const auto itDst = best.find(dst);
  if (itDst == best.end()) return r;  // unreachable -> invalid route
  r.cost = itDst->second.first;
  NodeId cur = dst;
  while (cur != src) {
    const auto itCur = best.find(cur);
    OPENSPACE_ASSERT(itCur != best.end(),
                     "every settled node except src has a predecessor");
    const LinkId via = itCur->second.second;
    r.links.push_back(via);
    r.nodes.push_back(cur);
    cur = g.link(via).otherEnd(cur);
  }
  r.nodes.push_back(src);
  std::reverse(r.nodes.begin(), r.nodes.end());
  std::reverse(r.links.begin(), r.links.end());
  for (const LinkId lid : r.links) {
    const Link& l = g.link(lid);
    r.propagationDelayS += l.propagationDelayS;
    r.queueingDelayS += l.queueingDelayS;
    r.bottleneckBps = std::min(r.bottleneckBps, l.capacityBps);
  }
  return r;
}

}  // namespace

namespace legacy {

Route shortestPath(const NetworkGraph& g, NodeId src, NodeId dst,
                   const LinkCostFn& cost, ProviderId home) {
  if (!g.hasNode(src) || !g.hasNode(dst)) {
    throw NotFoundError("shortestPath: unknown endpoint node");
  }
  if (src == dst) {
    Route r;
    r.nodes = {src};
    r.cost = 0.0;
    r.bottleneckBps = std::numeric_limits<double>::infinity();
    return r;
  }
  const auto best = dijkstraCore(g, src, cost, home, nullptr, nullptr, dst);
  return extractRoute(g, src, dst, best);
}

std::unordered_map<NodeId, Route> shortestPathTree(const NetworkGraph& g,
                                                   NodeId src,
                                                   const LinkCostFn& cost,
                                                   ProviderId home) {
  if (!g.hasNode(src)) throw NotFoundError("shortestPathTree: unknown source");
  const auto best = dijkstraCore(g, src, cost, home, nullptr, nullptr, std::nullopt);
  std::unordered_map<NodeId, Route> out;
  // det-waiver: keyed-map build from the pure function extractRoute(node)
  for (const auto& [node, entry] : best) {
    out.emplace(node, extractRoute(g, src, node, best));
  }
  return out;
}

std::vector<Route> kShortestPaths(const NetworkGraph& g, NodeId src, NodeId dst,
                                  int k, const LinkCostFn& cost, ProviderId home) {
  if (k < 1) throw InvalidArgumentError("kShortestPaths: k must be >= 1");
  std::vector<Route> result;
  const Route first = legacy::shortestPath(g, src, dst, cost, home);
  if (!first.valid()) return result;
  result.push_back(first);

  // Yen's algorithm. Dedup is a hashed node-sequence set over every path
  // ever accepted (result ∪ candidates); the root prefix of each spur route
  // is priced once per outer iteration with running prefix sums instead of
  // re-invoking the cost model per candidate.
  auto routeLess = [](const Route& a, const Route& b) { return a.cost < b.cost; };
  std::unordered_set<std::vector<NodeId>, NodeSeqHash> seen;
  seen.insert(first.nodes);
  std::vector<Route> candidates;
  std::vector<double> prefixCost, prefixPropS, prefixQueueS, prefixBottleneckBps;

  for (int ki = 1; ki < k; ++ki) {
    const Route& prev = result.back();
    prefixCost.assign(1, 0.0);
    prefixPropS.assign(1, 0.0);
    prefixQueueS.assign(1, 0.0);
    prefixBottleneckBps.assign(1, std::numeric_limits<double>::infinity());
    for (const LinkId lid : prev.links) {
      const Link& l = g.link(lid);
      prefixCost.push_back(prefixCost.back() +
                           cost(l, g.node(l.a), g.node(l.b), home));
      prefixPropS.push_back(prefixPropS.back() + l.propagationDelayS);
      prefixQueueS.push_back(prefixQueueS.back() + l.queueingDelayS);
      prefixBottleneckBps.push_back(
          std::min(prefixBottleneckBps.back(), l.capacityBps));
    }

    for (std::size_t spur = 0; spur + 1 < prev.nodes.size(); ++spur) {
      const NodeId spurNode = prev.nodes[spur];
      // Root path: prev.nodes[0..spur].
      std::set<LinkId> forbiddenLinks;
      for (const Route& r : result) {
        if (r.nodes.size() > spur &&
            std::equal(r.nodes.begin(),
                       r.nodes.begin() + static_cast<std::ptrdiff_t>(spur) + 1,
                       prev.nodes.begin())) {
          if (spur < r.links.size()) forbiddenLinks.insert(r.links[spur]);
        }
      }
      std::set<NodeId> forbiddenNodes(prev.nodes.begin(),
                                      prev.nodes.begin() +
                                          static_cast<std::ptrdiff_t>(spur));

      const auto best = dijkstraCore(g, spurNode, cost, home, &forbiddenNodes,
                                     &forbiddenLinks, dst);
      Route spurRoute = extractRoute(g, spurNode, dst, best);
      if (!spurRoute.valid()) continue;

      // Stitch root + spur; the root prefix is already priced.
      Route total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(spur));
      total.nodes.insert(total.nodes.end(), spurRoute.nodes.begin(),
                         spurRoute.nodes.end());
      total.links.assign(prev.links.begin(),
                         prev.links.begin() + static_cast<std::ptrdiff_t>(spur));
      total.links.insert(total.links.end(), spurRoute.links.begin(),
                         spurRoute.links.end());
      total.cost = prefixCost[spur] + spurRoute.cost;
      total.propagationDelayS = prefixPropS[spur] + spurRoute.propagationDelayS;
      total.queueingDelayS = prefixQueueS[spur] + spurRoute.queueingDelayS;
      total.bottleneckBps =
          std::min(prefixBottleneckBps[spur], spurRoute.bottleneckBps);

      if (!seen.insert(total.nodes).second) continue;  // already known
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    const auto it = std::min_element(candidates.begin(), candidates.end(), routeLess);
    result.push_back(std::move(*it));
    candidates.erase(it);
  }
  return result;
}

}  // namespace legacy

}  // namespace openspace
