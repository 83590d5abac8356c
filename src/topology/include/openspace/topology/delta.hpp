// Incremental temporal topology: one compiled CompactGraph per time step.
//
// A temporal sweep (routing/temporal.hpp, sim/flow_sweep.hpp) needs one
// compiled CompactGraph per time step. Going through
// TopologyBuilder::snapshot() + RouteEngine(graph, cost) would materialize
// a hash-map NetworkGraph (node/link maps, adjacency vectors, per-node name
// strings) only to walk it back down into flat arrays. IncrementalTopology
// skips that: per step it enumerates the snapshot's links into a flat
// ordered list with the same enumerator snapshot() uses (no NetworkGraph,
// no hashing, no strings), prices each link under its cost model and hands
// the list to the one CSR assembler, assembleGraph()
// (topology/compact_graph.hpp). The node table is numbered once from
// TopologyBuilder::snapshotNodes() and shared by every step's graph.
//
// Bit-identity contract: graph() after step(t) is indistinguishable from
// RouteEngine(builder.snapshot(t, opt), cost).graph() under the matching
// link cost (routing's latencyCost() for Delay, 1 per link for Hop) — same
// dense node numbering, same CSR edge order, same LinkIds, same payload
// and cost doubles to the last bit (contentChecksum()-equal). Property
// tests pin it every step against the test-only spec snapshot and compile
// (spec/topology_legacy.hpp); DESIGN.md §13 gives the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

class LinkEnumerator;
struct LinkSpec;

/// Edge weight of the per-step graphs.
enum class TemporalCostModel {
  Delay,  ///< Total link delay in seconds — the temporal router's model.
  Hop,    ///< 1 per link: only structural link churn perturbs routes.
};

TemporalCostModel delayCostModel();
TemporalCostModel hopCostModel();

/// What one step() changed relative to the previous step.
struct TopologyDelta {
  double tSeconds = 0.0;
  /// The link set or its order changed (always true on the first step).
  bool structural = false;
  std::size_t addedLinks = 0;    ///< Present now, absent last step (by endpoints).
  std::size_t removedLinks = 0;  ///< Present last step, absent now.
  std::size_t linkCount = 0;     ///< Total links this step.
};

/// Per-step compiled-topology producer. One instance walks one sweep:
/// construct, then call step(t) for each (monotonic or not) timestamp and
/// read graph(). Satellite positions come from SnapshotCache::global(), so
/// repeated sweeps over the same window share propagations with every other
/// snapshot consumer.
///
/// The builder's registry (satellites, ground sites) must not change while
/// a sweep is running; step() throws StateError if it does. The builder
/// must outlive this object.
class IncrementalTopology {
 public:
  /// Validates the options eagerly, as snapshot() does: throws
  /// InvalidArgumentError for NaN range or mask, a negative nearestK, and
  /// PlusGrid options without planes dividing the fleet or that wire a
  /// satellite to itself.
  IncrementalTopology(const TopologyBuilder& builder, const SnapshotOptions& opt,
                      TemporalCostModel model = delayCostModel());
  ~IncrementalTopology();

  /// Advance to time t: enumerate, diff, assemble. Returns what changed.
  const TopologyDelta& step(double tSeconds);

  /// The compiled graph of the last step() — contentChecksum()-identical
  /// to a fresh compile of the same snapshot. Null before the first step.
  std::shared_ptr<const CompactGraph> graph() const noexcept { return graph_; }
  std::size_t stepCount() const noexcept { return steps_; }

 private:
  void diffStructural();

  const TopologyBuilder& builder_;
  SnapshotOptions opt_;
  TemporalCostModel model_;
  std::unique_ptr<LinkEnumerator> links_;
  /// The builder's node count at construction (the freeze check).
  std::size_t registrySize_;

  /// Dense numbering of the snapshot's nodes, built once and shared by
  /// pointer into every produced CompactGraph.
  std::shared_ptr<const CompactGraph::NodeTable> nodeTable_;

  // Step state: the previous and the current step's links, and the
  // current step's priced links for the assembler.
  std::vector<LinkSpec> specs_, nextSpecs_;
  std::vector<CompactGraph::LinkRecord> records_;
  std::shared_ptr<const CompactGraph> graph_;
  TopologyDelta delta_;
  std::size_t steps_ = 0;
};

}  // namespace openspace
