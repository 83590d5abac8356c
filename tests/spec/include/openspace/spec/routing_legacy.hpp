// Reference (legacy) routing implementations (test-only; openspace_spec).
//
// These are the original hash-map Dijkstra / Yen implementations that
// predate the RouteEngine (engine.hpp). They walk the NetworkGraph
// directly, invoking the cost callback lazily per edge, and allocate their
// search state per call. They are retained as the *executable
// specification* the compiled CSR engine is property-tested against
// (tests/test_route_engine.cpp asserts node-for-node, bit-for-bit route
// equality across randomized snapshots; bench_micro_kernels times them as
// the baseline) — the library's only routing entry point is RouteEngine.
#pragma once

#include <openspace/routing/route.hpp>

namespace openspace::legacy {

/// Reference Dijkstra shortest path (see RouteEngine::shortestPath for the
/// contract; behavior is identical by construction).
Route shortestPath(const NetworkGraph& g, NodeId src, NodeId dst,
                   const LinkCostFn& cost, ProviderId home = {});

/// Reference single-source tree.
std::unordered_map<NodeId, Route> shortestPathTree(const NetworkGraph& g,
                                                   NodeId src,
                                                   const LinkCostFn& cost,
                                                   ProviderId home = {});

/// Reference Yen k-shortest paths.
std::vector<Route> kShortestPaths(const NetworkGraph& g, NodeId src, NodeId dst,
                                  int k, const LinkCostFn& cost,
                                  ProviderId home = {});

}  // namespace openspace::legacy
