// Immutable flat (CSR) compilation of a NetworkGraph snapshot.
//
// NetworkGraph is the mutable, hash-map-backed construction form of a
// topology snapshot. Routing never needs mutation: it needs the fastest
// possible "for each out-edge of u" walk, with every per-edge quantity the
// cost model can ask about already materialized. compileGraph() performs a
// one-shot translation: nodes get dense indices 0..N-1 in insertion order,
// each undirected link becomes two directed CSR edges, and the caller's
// cost callback is evaluated exactly once per directed edge at compile
// time — the search hot loop never touches a std::function, a hash map, or
// the cost model again. This is the paper's §2.7 observation turned into a
// data structure: the LEO topology is predictable and public, so each
// snapshot can be compiled once and queried many times.
//
// Semantics (mirroring the legacy lazy-evaluation Dijkstra):
//   * cost == +inf  -> the edge is forbidden and dropped at compile time;
//   * cost < 0 / NaN -> InvalidArgumentError at compile time (the legacy
//     path threw on first relaxation; compilation tightens this to "at
//     compile", catching negative edges even in unreachable components).
//
// Temporal sweeps need one compiled graph per time step; going through a
// fresh NetworkGraph every step repeats all of the hash-map construction
// work. topology/delta.hpp (IncrementalTopology) therefore assembles each
// step's CompactGraph straight from the snapshot's link list, sharing one
// node table across steps — contentChecksum() is the bit-identity witness
// the property tests and bench gates compare against compileGraph().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include <openspace/topology/graph.hpp>

namespace openspace {

class CompactGraph {
 public:
  /// Sentinel for "no such node / edge".
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  /// Same signature as routing's LinkCostFn (they are the same
  /// std::function type; the alias lives in the routing layer).
  using CostFn = std::function<double(const NetworkGraph&, const Link&, ProviderId)>;

  /// The (at most 2) directed edge indices compiled from one undirected
  /// link, in ascending edge-index order. Small enough to return by value;
  /// iterable like a container.
  struct LinkEdgeRange {
    std::uint32_t count = 0;
    std::uint32_t e[2] = {kInvalidIndex, kInvalidIndex};

    bool empty() const noexcept { return count == 0; }
    std::uint32_t size() const noexcept { return count; }
    std::uint32_t front() const noexcept { return e[0]; }
    const std::uint32_t* begin() const noexcept { return e; }
    const std::uint32_t* end() const noexcept { return e + count; }
  };

  std::size_t nodeCount() const noexcept { return nodes_->denseToNode.size(); }
  std::size_t edgeCount() const noexcept { return edgeTo_.size(); }

  /// Dense index of a NodeId, or kInvalidIndex when absent.
  std::uint32_t indexOf(NodeId id) const {
    // Builder-produced ids are small and sequential, so the common case is
    // one array load; the hash map only backs sparse / oversized ids.
    if (id.value() < nodes_->idToDense.size()) {
      return nodes_->idToDense[id.value()];
    }
    const auto it = nodes_->nodeToDense.find(id);
    return it == nodes_->nodeToDense.end() ? kInvalidIndex : it->second;
  }
  NodeId nodeAt(std::uint32_t dense) const {
    return nodes_->denseToNode[dense];
  }
  const std::vector<NodeId>& nodes() const noexcept {
    return nodes_->denseToNode;
  }
  NodeKind kindAt(std::uint32_t dense) const { return nodes_->nodeKind[dense]; }

  /// CSR row of directed out-edges of dense node u: [rowBegin, rowEnd).
  std::uint32_t rowBegin(std::uint32_t u) const { return rowOffset_[u]; }
  std::uint32_t rowEnd(std::uint32_t u) const { return rowOffset_[u + 1]; }

  std::uint32_t edgeTarget(std::uint32_t e) const { return edgeTo_[e]; }
  std::uint32_t edgeSource(std::uint32_t e) const { return edgeFrom_[e]; }
  double edgeCost(std::uint32_t e) const { return edgeCost_[e]; }
  double edgePropagationDelayS(std::uint32_t e) const { return edgePropS_[e]; }
  double edgeQueueingDelayS(std::uint32_t e) const { return edgeQueueS_[e]; }
  double edgeCapacityBps(std::uint32_t e) const { return edgeCapBps_[e]; }
  LinkId edgeLink(std::uint32_t e) const { return edgeLinkId_[e]; }

  /// Directed edge indices compiled from undirected link `id` (0, 1 or 2
  /// entries — fewer than 2 when a direction was dropped as forbidden).
  /// Returns an empty range for unknown links.
  LinkEdgeRange edgesOfLink(LinkId id) const {
    // Builder-assigned link ids are dense (1..L), so the common case is one
    // array load; the hash map only backs sparse id spaces (e.g. graphs
    // with removed links).
    if (id.value() < linkEdges_.size()) return linkEdges_[id.value()];
    const auto it = sparseLinkEdges_.find(id);
    return it == sparseLinkEdges_.end() ? LinkEdgeRange{} : it->second;
  }

  /// FNV-1a over everything observable through this interface: node order,
  /// node kinds, CSR layout, every per-edge double (raw bits), edge->link
  /// and link->edge maps. Two graphs checksum equal iff a consumer cannot
  /// tell them apart — the delta==fresh bit-identity witness.
  std::uint64_t contentChecksum() const noexcept;

  /// Structural self-check. Throws StateError unless rowOffset is monotone
  /// from 0 to edgeCount(); every edge sits in its edgeSource() row and
  /// targets a node in range; every edgesOfLink(id) entry is an edge whose
  /// edgeLink() is id, and every edge is listed by its link; and the two
  /// edges of a link are reverses of each other with bitwise-equal cost,
  /// delay and capacity.
  void audit() const;

  friend CompactGraph compileGraph(const NetworkGraph& g, const CostFn& cost,
                                   ProviderId home);
  /// topology/delta.hpp: assembles CompactGraphs without a NetworkGraph,
  /// reproducing compileGraph's layout bit-for-bit.
  friend class IncrementalTopology;

 private:
  /// The node half of the graph: dense numbering and both id lookup
  /// structures. Immutable once built and independent of the per-step edge
  /// payload, so every step's graph of one IncrementalTopology shares one
  /// table by shared_ptr instead of re-copying the hash map.
  struct NodeTable {
    std::vector<NodeId> denseToNode;
    std::vector<NodeKind> nodeKind;
    /// Direct-mapped id -> dense table (kInvalidIndex for gaps); built only
    /// when the id range is close to the node count, empty otherwise.
    std::vector<std::uint32_t> idToDense;
    std::unordered_map<NodeId, std::uint32_t> nodeToDense;
  };
  /// Dense numbering in `order`: the hash map always, the direct-mapped
  /// table when the id range is close to the node count.
  static std::shared_ptr<const NodeTable> makeNodeTable(
      std::vector<NodeId> order, std::vector<NodeKind> kinds);
  /// Never null (default-constructed graphs hold an empty table).
  std::shared_ptr<const NodeTable> nodes_ = std::make_shared<NodeTable>();
  std::vector<std::uint32_t> rowOffset_;  ///< size nodeCount()+1.
  std::vector<std::uint32_t> edgeTo_;
  std::vector<std::uint32_t> edgeFrom_;
  std::vector<double> edgeCost_;
  std::vector<double> edgePropS_;
  std::vector<double> edgeQueueS_;
  std::vector<double> edgeCapBps_;
  std::vector<LinkId> edgeLinkId_;
  /// Direct-mapped LinkId value -> directed edges (count==0 for gaps);
  /// built when the link id range is close to the link count.
  std::vector<LinkEdgeRange> linkEdges_;
  std::unordered_map<LinkId, LinkEdgeRange> sparseLinkEdges_;
};

/// Compile `g` into CSR form under `cost` as provider `home`. Evaluates the
/// cost callback once per directed edge; throws InvalidArgumentError on a
/// negative or NaN cost, drops +inf (forbidden) edges.
CompactGraph compileGraph(const NetworkGraph& g, const CompactGraph::CostFn& cost,
                          ProviderId home = {});

}  // namespace openspace
