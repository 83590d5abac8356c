// Incremental temporal topology: one compiled CompactGraph per time step.
//
// A temporal sweep (routing/temporal.hpp, worldbench's epoch loop) needs one
// compiled CompactGraph per step. Going through
// TopologyBuilder::snapshot() + RouteEngine(graph, cost) would materialize
// a hash-map NetworkGraph (node/link maps, adjacency vectors, per-node name
// strings) only to walk it back down into flat arrays. IncrementalTopology
// skips that: per step it enumerates the snapshot's Links with the same
// enumerator snapshot() uses (no NetworkGraph, no hashing, no strings),
// prices each once by RouteEngine's rule, cost(l, node(l.a), node(l.b),
// ProviderId{}), over the snapshotNodes() kept from construction, and hands
// them to the one CSR assembler, assembleGraph() (topology/compact_graph.hpp).
// A cost that prices as some home provider binds it itself.
//
// Bit-identity contract: graph() after step(t) is indistinguishable from
// RouteEngine(builder.snapshot(t, opt), cost).graph() under any cost —
// same dense node numbering, CSR edge order, LinkIds, payload and cost
// doubles to the last bit (contentChecksum()-equal). Property tests
// pin it every step, under every shipped cost model, against the test-only
// spec snapshot and compile (spec/topology_legacy.hpp); DESIGN.md §13.
//
// Lifetime: the cost is stored and called every step; what it captures by
// reference (complianceConstrainedCost's regime, quarantineAwareCost's
// tracker) must outlive this object.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

class LinkEnumerator;

/// An alias of latencyCost() for worldbench/world.cpp alone, which
/// constructs its IncrementalTopology with it. Library code passes
/// latencyCost() or takes the default.
inline LinkCostFn delayCostModel() { return latencyCost(); }

/// What one step() changed relative to the previous step.
struct TopologyDelta {
  double tSeconds = 0.0;
  /// The link set or its order changed (always true on the first step).
  bool structural = false;
  std::size_t addedLinks = 0;    ///< Present now, absent last step (by link key).
  std::size_t removedLinks = 0;  ///< Present last step, absent now (by link key).
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
  /// Steps price links under `cost`. Validates the options eagerly, as
  /// snapshot() does: throws InvalidArgumentError for NaN range or mask, a
  /// negative nearestK, and PlusGrid options without planes dividing the
  /// fleet or that wire a satellite to itself.
  IncrementalTopology(const TopologyBuilder& builder, const SnapshotOptions& opt,
                      LinkCostFn cost = latencyCost());
  ~IncrementalTopology();

  /// Advance to time t: enumerate, price, assemble, diff. Returns what
  /// changed. A NaN or negative cost throws InvalidArgumentError and
  /// leaves the last completed step in place.
  const TopologyDelta& step(double tSeconds);

  /// The compiled graph of the last step() — contentChecksum()-identical
  /// to a fresh compile of the same snapshot. Null before the first step.
  std::shared_ptr<const CompactGraph> graph() const noexcept { return graph_; }
  std::size_t stepCount() const noexcept { return steps_; }

  /// The link key of every link of the last step(): linkKeys()[p] belongs
  /// to LinkId p+1. A key names a candidate link of the enumeration (the
  /// PlusGrid attempt, the ordered satellite pair, the site and satellite),
  /// so a link present at two steps has the same key at both, and distinct
  /// links of one step have distinct keys. Keys are not part of the graph
  /// and never enter contentChecksum(). Empty before the first step.
  const std::vector<std::uint64_t>& linkKeys() const noexcept { return keys_; }

 private:
  /// Fill delta_'s added and removed counts: one merge of the previous
  /// and current keys in ascending order.
  void diffStructural();

  const TopologyBuilder& builder_;
  LinkCostFn cost_;
  std::unique_ptr<LinkEnumerator> enumerator_;
  /// The builder's node count at construction (the freeze check).
  std::size_t registrySize_;

  /// The snapshot's nodes (the cost's endpoints) and their dense
  /// numbering, shared by pointer into every produced CompactGraph.
  std::vector<Node> snapshotNodes_;
  std::shared_ptr<const CompactGraph::NodeTable> nodeTable_;

  // Step state: the previous and current links and keys, the current
  // costs. When the enumerator does not emit its keys in ascending order,
  // sortedKeys_ holds the last step's keys sorted for the merge.
  std::vector<Link> links_, nextLinks_;
  std::vector<std::uint64_t> keys_, nextKeys_, sortedKeys_, nextSortedKeys_;
  std::vector<double> costs_;
  std::shared_ptr<const CompactGraph> graph_;
  TopologyDelta delta_;
  std::size_t steps_ = 0;
};

}  // namespace openspace
