// Public routing entry points: engine-backed adapters.
//
// The free functions below keep their original signatures but compile the
// snapshot into a CSR RouteEngine and query that; callers with repeated
// queries against one snapshot should construct a RouteEngine directly and
// amortize the compilation. Their legacy hash-map reference
// implementations live in the test-only openspace_spec library
// (tests/spec/routing_legacy.cpp).
#include <openspace/routing/dijkstra.hpp>

#include <openspace/geo/error.hpp>
#include <openspace/routing/engine.hpp>

namespace openspace {

Route shortestPath(const NetworkGraph& g, NodeId src, NodeId dst,
                   const LinkCostFn& cost, ProviderId home) {
  if (!g.hasNode(src) || !g.hasNode(dst)) {
    throw NotFoundError("shortestPath: unknown endpoint node");
  }
  return RouteEngine(g, cost, home).shortestPath(src, dst);
}

std::unordered_map<NodeId, Route> shortestPathTree(const NetworkGraph& g,
                                                   NodeId src,
                                                   const LinkCostFn& cost,
                                                   ProviderId home) {
  if (!g.hasNode(src)) throw NotFoundError("shortestPathTree: unknown source");
  return RouteEngine(g, cost, home).shortestPathTree(src).allRoutes();
}

std::vector<Route> kShortestPaths(const NetworkGraph& g, NodeId src, NodeId dst,
                                  int k, const LinkCostFn& cost, ProviderId home) {
  if (k < 1) throw InvalidArgumentError("kShortestPaths: k must be >= 1");
  if (!g.hasNode(src) || !g.hasNode(dst)) {
    throw NotFoundError("kShortestPaths: unknown endpoint node");
  }
  return RouteEngine(g, cost, home).kShortestPaths(src, dst, k);
}

}  // namespace openspace
