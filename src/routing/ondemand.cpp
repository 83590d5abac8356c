#include <openspace/routing/ondemand.hpp>

namespace openspace {

OnDemandRouter::OnDemandRouter(const NetworkGraph& graph, LinkCostFn cost,
                               ProviderId home)
    : graph_(graph), cost_(std::move(cost)), home_(home) {}

Route OnDemandRouter::route(NodeId src, NodeId dst) const {
  return shortestPath(graph_, src, dst, cost_, home_);
}

std::vector<Route> OnDemandRouter::alternatives(NodeId src, NodeId dst,
                                                int k) const {
  return kShortestPaths(graph_, src, dst, k, cost_, home_);
}

Route OnDemandRouter::selectGroundStation(NodeId src) const {
  const auto tree = shortestPathTree(graph_, src, cost_, home_);
  Route best;
  for (const NodeId gs : graph_.nodesOfKind(NodeKind::GroundStation)) {
    const auto it = tree.find(gs);
    if (it != tree.end() && it->second.valid() && it->second.cost < best.cost) {
      best = it->second;
    }
  }
  return best;
}

}  // namespace openspace
