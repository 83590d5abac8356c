// Reference topology snapshot: the executable specification of which links
// a snapshot has (test-only; openspace_spec).
//
// topologySnapshot() is the original TopologyBuilder::snapshot() body,
// kept with the same expressions and loop order but written against the
// builder's public accessors: an all-pairs nearest-neighbor scan, the
// builder's findLink() dedup, and no horizon prefilter. The library's one
// link enumeration (behind both TopologyBuilder::snapshot() and
// IncrementalTopology) is property-tested against it node for node, link
// for link and bit for bit (tests/test_topology.cpp,
// tests/test_topology_delta.cpp); bench_temporal_delta times it as the
// fresh leg. Unlike the library it does not validate the options.
//
// compileGraph() is the original NetworkGraph -> CompactGraph compile: a
// walk over the nodes in insertion order and each node's links in
// insertion order, evaluating the cost once per directed edge and
// appending the edge to the CSR. The library's one CSR assembler
// (assembleGraph, reached through RouteEngine and IncrementalTopology)
// prices each link once and lays the edges out by counting sort instead;
// the property tests pin the two layouts contentChecksum()-equal
// (tests/test_route_engine.cpp, tests/test_topology_delta.cpp).
//
// diffByEndpoints() is the original IncrementalTopology structural diff: a
// hash map of the previous links by (a, b) endpoint pair, probed with each
// current link. The library merges sorted link keys instead;
// DeltaBitIdentity pins its added and removed counts to this one.
#pragma once

#include <cstddef>
#include <vector>

#include <openspace/routing/route.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace::legacy {

/// The topology of `builder` at time t under `opt`.
NetworkGraph topologySnapshot(const TopologyBuilder& builder, double tSeconds,
                              const SnapshotOptions& opt);

/// Compile `g` into CSR form under `cost` as provider `home`. Evaluates the
/// cost callback once per directed edge, as cost(l, g.node(l.a),
/// g.node(l.b), home); throws InvalidArgumentError on a
/// negative or NaN cost, drops +inf (forbidden) edges.
CompactGraph compileGraph(const NetworkGraph& g, const LinkCostFn& cost,
                          ProviderId home = {});

/// How many links of `next` have an (a, b) endpoint pair no link of `prev`
/// has (added), and how many pairs of `prev` no link of `next` has
/// (removed). A reversed pair (b, a) is a different pair.
struct LinkChanges {
  std::size_t added = 0;
  std::size_t removed = 0;
};
LinkChanges diffByEndpoints(const std::vector<Link>& prev,
                            const std::vector<Link>& next);

}  // namespace openspace::legacy
