// Shortest-path computation over topology snapshots.
//
// These free functions are one-shot conveniences: each call compiles the
// snapshot into a CSR RouteEngine (engine.hpp) and queries it. Callers that
// issue repeated queries against the same snapshot — sweeps, routers,
// benches — should construct a RouteEngine once and amortize compilation.
// The legacy hash-map reference implementations these are property-tested
// against are test-only code: openspace::legacy in the openspace_spec
// library (tests/spec/include/openspace/spec/routing_legacy.hpp).
#pragma once

#include <openspace/routing/route.hpp>

namespace openspace {

/// Dijkstra shortest path from `src` to `dst` under `cost` as provider
/// `home`. Returns an invalid Route (valid() == false) when unreachable.
/// Throws NotFoundError for unknown endpoints.
Route shortestPath(const NetworkGraph& g, NodeId src, NodeId dst,
                   const LinkCostFn& cost, ProviderId home = {});

/// Single-source Dijkstra: routes from `src` to every reachable node.
/// Unreachable nodes are absent from the result.
std::unordered_map<NodeId, Route> shortestPathTree(const NetworkGraph& g,
                                                   NodeId src,
                                                   const LinkCostFn& cost,
                                                   ProviderId home = {});

/// Yen's algorithm: up to k loop-free shortest paths in ascending cost.
/// Returns fewer when the graph has fewer distinct paths. Throws
/// InvalidArgumentError for k < 1.
std::vector<Route> kShortestPaths(const NetworkGraph& g, NodeId src, NodeId dst,
                                  int k, const LinkCostFn& cost,
                                  ProviderId home = {});

}  // namespace openspace
