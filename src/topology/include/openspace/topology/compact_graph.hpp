// Immutable flat (CSR) form of a topology snapshot.
//
// NetworkGraph is the mutable, hash-map-backed construction form of a
// topology snapshot. Routing never needs mutation: it needs the fastest
// possible "for each out-edge of u" walk, with every per-edge quantity the
// cost model can ask about already materialized. assembleGraph() is the one
// CSR assembler: given a node table, a snapshot's Links in LinkId order and
// one cost per link, it numbers nodes 0..N-1 in table order and turns each
// undirected link into two directed CSR edges with one counting-sort pass.
// The search hot loop never touches a std::function, a hash map, or the
// cost model. This is the paper's §2.7 observation turned into a data
// structure: the LEO topology is predictable and public, so each snapshot
// can be compiled once and queried many times.
//
// Both producers of graphs price each Link once with the same LinkCostFn
// call (topology/link.hpp) on it and its endpoint Nodes, then assemble:
// RouteEngine(const NetworkGraph&, cost, home) and IncrementalTopology
// (topology/delta.hpp), which shares one node table across steps. The
// per-directed-edge compile the assembler replaced is a test-only spec in
// openspace_spec (spec/topology_legacy.hpp); contentChecksum() is the
// bit-identity witness the property tests and the bench gates compare
// against it.
//
// Semantics (mirroring the legacy lazy-evaluation Dijkstra):
//   * cost == +inf  -> the link is forbidden and dropped at assembly;
//   * cost < 0 / NaN -> InvalidArgumentError at assembly (the legacy path
//     threw on first relaxation; assembly tightens this to "at compile",
//     catching negative links even in unreachable components).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include <openspace/topology/graph.hpp>

namespace openspace {

class CompactGraph {
 public:
  /// Sentinel for "no such node / edge".
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  /// The node half of a graph: dense numbering and one id lookup.
  /// Immutable once built and independent of the per-step edge payload, so
  /// every step's graph of one IncrementalTopology shares one table by
  /// shared_ptr instead of re-copying it.
  class NodeTable {
   public:
    NodeTable() = default;
    /// Dense numbering in `order`, one kind per node. Builds a
    /// direct-mapped id table when the id range is close to the node count
    /// (builder-assigned ids are 1..N) and a hash map otherwise, never both.
    NodeTable(std::vector<NodeId> order, std::vector<NodeKind> kinds);

    std::size_t size() const noexcept { return denseToNode_.size(); }
    const std::vector<NodeId>& nodes() const noexcept { return denseToNode_; }
    const std::vector<NodeKind>& kinds() const noexcept { return nodeKind_; }

    /// Dense index of a NodeId, or kInvalidIndex when absent.
    std::uint32_t indexOf(NodeId id) const {
      if (!idToDense_.empty()) {
        return id.value() < idToDense_.size() ? idToDense_[id.value()]
                                              : kInvalidIndex;
      }
      const auto it = nodeToDense_.find(id);
      return it == nodeToDense_.end() ? kInvalidIndex : it->second;
    }

   private:
    std::vector<NodeId> denseToNode_;
    std::vector<NodeKind> nodeKind_;
    /// Direct-mapped id -> dense table (kInvalidIndex for gaps).
    std::vector<std::uint32_t> idToDense_;
    /// Sparse / oversized id spaces only; empty when idToDense_ is built.
    std::unordered_map<NodeId, std::uint32_t> nodeToDense_;
  };

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

  /// The flat arrays of a graph. assembleGraph() is the library's one
  /// producer; the test-only spec compile fills one by its own
  /// per-directed-edge walk so the two layouts can be compared.
  struct Csr {
    std::vector<std::uint32_t> rowOffset;  ///< size nodeCount()+1.
    std::vector<std::uint32_t> edgeTo;
    std::vector<std::uint32_t> edgeFrom;
    std::vector<double> edgeCost;
    std::vector<double> edgePropS;
    std::vector<double> edgeQueueS;
    std::vector<double> edgeCapBps;
    std::vector<LinkId> edgeLinkId;
    /// LinkId value -> directed edges; link ids are 1..L, slot 0 unused.
    std::vector<LinkEdgeRange> linkEdges;
    /// Derived from edgeCost, filled by the producer in the pass that
    /// already reads the costs: the smallest positive cost (+inf when no
    /// edge costs more than zero) and the largest cost (0 without edges).
    /// The route search sizes its buckets from them; audit() recomputes
    /// both.
    double minPositiveCost = std::numeric_limits<double>::infinity();
    double maxCost = 0.0;
  };

  /// An empty graph (no nodes, no edges).
  CompactGraph() = default;
  /// Adopt `csr` over `nodes` (never null) as laid out. Only
  /// assembleGraph() and the spec call this; audit() checks the layout.
  CompactGraph(std::shared_ptr<const NodeTable> nodes, Csr csr);

  std::size_t nodeCount() const noexcept { return nodes_->size(); }
  std::size_t edgeCount() const noexcept { return csr_.edgeTo.size(); }

  /// Dense index of a NodeId, or kInvalidIndex when absent.
  std::uint32_t indexOf(NodeId id) const { return nodes_->indexOf(id); }
  NodeId nodeAt(std::uint32_t dense) const { return nodes_->nodes()[dense]; }
  const std::vector<NodeId>& nodes() const noexcept { return nodes_->nodes(); }

  /// CSR row of directed out-edges of dense node u: [rowBegin, rowEnd).
  std::uint32_t rowBegin(std::uint32_t u) const { return csr_.rowOffset[u]; }
  std::uint32_t rowEnd(std::uint32_t u) const { return csr_.rowOffset[u + 1]; }

  std::uint32_t edgeTarget(std::uint32_t e) const { return csr_.edgeTo[e]; }
  std::uint32_t edgeSource(std::uint32_t e) const { return csr_.edgeFrom[e]; }
  double edgeCost(std::uint32_t e) const { return csr_.edgeCost[e]; }
  double edgePropagationDelayS(std::uint32_t e) const { return csr_.edgePropS[e]; }
  double edgeQueueingDelayS(std::uint32_t e) const { return csr_.edgeQueueS[e]; }
  double edgeCapacityBps(std::uint32_t e) const { return csr_.edgeCapBps[e]; }
  LinkId edgeLink(std::uint32_t e) const { return csr_.edgeLinkId[e]; }

  /// Smallest positive edge cost; +inf when no edge costs more than zero.
  double minPositiveCost() const noexcept { return csr_.minPositiveCost; }
  /// Largest edge cost; 0 for a graph without edges.
  double maxCost() const noexcept { return csr_.maxCost; }

  /// Directed edge indices compiled from undirected link `id` (0 or 2
  /// entries — none when the link was dropped as forbidden). Returns an
  /// empty range for unknown links.
  LinkEdgeRange edgesOfLink(LinkId id) const {
    return id.value() < csr_.linkEdges.size() ? csr_.linkEdges[id.value()]
                                              : LinkEdgeRange{};
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
  /// delay and capacity; and minPositiveCost() / maxCost() are those of
  /// the edge costs.
  void audit() const;

 private:
  /// Never null (default-constructed graphs hold an empty table).
  std::shared_ptr<const NodeTable> nodes_ = std::make_shared<NodeTable>();
  Csr csr_;
};

/// The one CSR assembler. `links[p]` is LinkId p+1 (its own id field is
/// not read) and `costs[p]` its price; every endpoint must be in `nodes`.
/// Rows follow the table's order, and each row lists its links in LinkId
/// order. A link's cost is taken once for both of its edges. Drops +inf
/// links; throws InvalidArgumentError on a negative or NaN cost. In builds
/// without NDEBUG every returned graph has passed audit().
CompactGraph assembleGraph(std::shared_ptr<const CompactGraph::NodeTable> nodes,
                           const std::vector<Link>& links,
                           const std::vector<double>& costs);

}  // namespace openspace
