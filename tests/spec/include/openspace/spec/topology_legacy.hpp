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
#pragma once

#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>
#include <openspace/topology/delta.hpp>

namespace openspace::legacy {

/// The topology of `builder` at time t under `opt`.
NetworkGraph topologySnapshot(const TopologyBuilder& builder, double tSeconds,
                              const SnapshotOptions& opt);

/// The compileGraph() cost callback IncrementalTopology's `model` matches:
/// latencyCost() for Delay, 1 per link for Hop.
CompactGraph::CostFn temporalLinkCost(TemporalCostModel model);

}  // namespace openspace::legacy
