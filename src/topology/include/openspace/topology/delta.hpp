// Incremental temporal topology: delta-patched CompactGraphs.
//
// A temporal sweep (routing/temporal.hpp, sim/flow_sweep.hpp) needs one
// compiled CompactGraph per time step. The fresh path builds each step from
// scratch: TopologyBuilder::snapshot() materializes a hash-map NetworkGraph
// (node/link maps, adjacency vectors, per-node name strings), then
// compileGraph() walks it back down into flat arrays. Between consecutive
// steps almost none of that structure changes — the node set is static, the
// link *set* changes rarely (an ISL or ground contact opening/closing), and
// only the per-link payloads (range, delay, capacity) drift.
//
// IncrementalTopology exploits that: per step it enumerates the snapshot's
// links directly into a flat ordered LinkSpec list (no NetworkGraph, no
// hashing, no strings), diffs that list against the previous step, and
// produces the new CompactGraph by patching — copying the previous flat
// arrays and overwriting the payload of changed links; only a structural
// change (link set or order) triggers an array rebuild, and even that is a
// counting-sort pass over the specs, never a NetworkGraph.
//
// Bit-identity contract: graph() after step(t) is indistinguishable from
//   compileGraph(builder.snapshot(t, opt), model.link, home)
// — same dense node numbering, same CSR edge order, same LinkIds, same
// payload and cost doubles to the last bit (contentChecksum()-equal).
// The fresh path stays the executable spec; property tests sweep all three
// IslWiring policies on randomized constellations and compare checksums
// every step. The argument for why the enumeration reproduces the builder's
// link order exactly (including NearestNeighbors selection-order and
// duplicate-attempt semantics) lives in DESIGN.md §13.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

/// Everything the builder knows about one snapshot link, in link-insertion
/// order. Field-for-field the subset of Link that compileGraph() consumes;
/// LinkId is implicit (position p in the per-step list => LinkId p+1,
/// matching NetworkGraph::addLink's sequential assignment).
struct LinkSpec {
  NodeId a{};  ///< Same endpoint order as the builder's Link (a = satellite
               ///< of the outer loop / lower index; b = neighbor or site).
  NodeId b{};
  LinkType type = LinkType::IslRf;
  Band band = Band::S;
  double distanceM = 0.0;
  double propagationDelayS = 0.0;
  double queueingDelayS = 0.0;  ///< Always 0 for builder snapshots.
  double capacityBps = 0.0;

  double totalDelayS() const noexcept {
    return propagationDelayS + queueingDelayS;
  }
};

/// Cost model over a LinkSpec — the delta-path twin of routing's LinkCostFn.
/// Must be a pure function of the spec (no NetworkGraph, no provider
/// context: the delta path never materializes either).
using LinkSpecCostFn = std::function<double(const LinkSpec&)>;

/// A cost model expressed both ways: `spec` drives the delta path, `link`
/// is the executable-spec equivalent for fresh compileGraph(). The pair
/// must agree bit-for-bit on builder-produced links — the delta==fresh
/// property gates depend on it.
struct TemporalCostModel {
  LinkSpecCostFn spec;
  CompactGraph::CostFn link;
  /// Set by the canonical factories below so the per-step cost loop can
  /// inline the evaluation instead of going through the type-erased
  /// `spec` call; hand-built models stay Custom (always correct, just the
  /// std::function call per link). The tag MUST agree with `spec` — the
  /// inlined expressions are the factories' own lambdas.
  enum class Kind { Custom, Delay, Hop } kind = Kind::Custom;
};

/// Edge weight = total link delay (seconds) — the temporal router's model.
TemporalCostModel delayCostModel();
/// Edge weight = 1 per link (hop count) — cost-static, so only structural
/// link churn perturbs routes.
TemporalCostModel hopCostModel();

/// How a multi-snapshot consumer builds its per-step graphs.
enum class TemporalBuild {
  Delta,         ///< IncrementalTopology patching (production path).
  FreshCompile,  ///< builder.snapshot() + compileGraph() per step (the
                 ///< executable spec the delta path is pinned against).
};

/// What one step() changed relative to the previous step.
struct TopologyDelta {
  double tSeconds = 0.0;
  /// Link set/order changed => the CSR arrays were rebuilt; false => the
  /// previous arrays were copied and payload-patched in place.
  bool structural = false;
  std::size_t addedLinks = 0;    ///< Present now, absent last step (by endpoints).
  std::size_t removedLinks = 0;  ///< Present last step, absent now.
  std::size_t costChangedLinks = 0;  ///< Persisting, any payload bit changed.
  std::size_t unchangedLinks = 0;    ///< Persisting, bitwise identical.
  std::size_t linkCount = 0;         ///< Total links this step.
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
  /// Validates wiring options eagerly (the fresh path validates per
  /// snapshot): throws InvalidArgumentError for PlusGrid options the
  /// builder would reject, including degenerate self-loop grids.
  IncrementalTopology(const TopologyBuilder& builder, const SnapshotOptions& opt,
                      TemporalCostModel model = delayCostModel());

  /// Advance to time t: enumerate, diff, patch. Returns what changed.
  const TopologyDelta& step(double tSeconds);

  /// The compiled graph of the last step() — contentChecksum()-identical
  /// to a fresh compile of the same snapshot. Null before the first step.
  std::shared_ptr<const CompactGraph> graph() const noexcept { return graph_; }
  /// The last step's links in insertion order (LinkId p+1 == specs()[p]).
  const std::vector<LinkSpec>& linkSpecs() const noexcept { return specs_; }
  const TopologyDelta& lastDelta() const noexcept { return delta_; }
  std::size_t stepCount() const noexcept { return steps_; }

 private:
  struct SiteRec {
    NodeId node;
    GroundObserver observer;  ///< Compiled once; reused every step.
    std::uint32_t dense;
  };

  void enumerateSpecs(const class ConstellationSnapshot& snap);
  void evaluateCosts();
  std::shared_ptr<const CompactGraph> rebuildFromSpecs() const;
  std::shared_ptr<const CompactGraph> patchCosts(
      const std::vector<std::uint32_t>& changed) const;
  void diffStructural();

  const TopologyBuilder& builder_;
  SnapshotOptions opt_;
  TemporalCostModel model_;

  // Immutable node template, replicating the fresh compile's dense
  // numbering (sats in ephemeris order, then stations, then users) and its
  // lookup structures (nodeToDense always; idToDense when the id range is
  // dense — the same heuristic compileGraph applies). Built once and
  // shared by pointer into every produced CompactGraph, so per-step
  // patches never re-copy the node hash map.
  std::shared_ptr<const CompactGraph::NodeTable> nodeTable_;

  // Per-satellite constants (node id, dense index) and per-step laser
  // capability flags (re-read each step: capabilities may change).
  std::vector<SatelliteId> satIds_;
  std::vector<NodeId> satNode_;
  std::vector<char> satLaser_;
  /// builder_.capabilitiesVersion() satLaser_ was last refreshed at; ~0
  /// forces the first step to read every satellite's capabilities.
  std::uint64_t satLaserVersion_ = ~std::uint64_t{0};
  std::vector<SiteRec> stationRecs_;
  std::vector<SiteRec> userRecs_;

  /// PlusGrid candidate pairs in the builder's attempt order, duplicates
  /// preserved (the builder's findLink dedup is replayed at runtime).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plusGridPairs_;

  // Step state.
  std::vector<LinkSpec> specs_, nextSpecs_;
  std::vector<double> costs_, nextCosts_;
  std::shared_ptr<const CompactGraph> graph_;
  TopologyDelta delta_;
  std::size_t steps_ = 0;

  // Reusable per-step scratch.
  std::vector<std::vector<std::uint32_t>> acceptedIsl_;  ///< findLink replay.
  std::vector<std::pair<double, std::size_t>> nnCand_;
  std::vector<std::uint32_t> changedSpecs_;
};

}  // namespace openspace
