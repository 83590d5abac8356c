// The topology snapshot graph.
//
// A NetworkGraph is one instant of the time-varying OpenSpace topology:
// nodes are stable across snapshots (same NodeIds), links come and go as
// geometry and pairing decisions change. Routing operates on snapshots;
// the paper's proactive scheme precomputes routes for future snapshots
// because the ephemeris makes them predictable.
#pragma once

#include <unordered_map>
#include <vector>

#include <openspace/topology/link.hpp>

namespace openspace {

class NetworkGraph {
 public:
  /// Add a node. Throws InvalidArgumentError on duplicate NodeId or on a
  /// node whose kind/position fields are inconsistent.
  void addNode(Node node);

  /// Add an undirected link between existing nodes. Returns its LinkId:
  /// links are never removed, so the ids of a graph are 1..linkCount() in
  /// insertion order. Throws NotFoundError for unknown endpoints,
  /// InvalidArgumentError for self-loops or non-positive capacity.
  LinkId addLink(Link link);

  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  const Link& link(LinkId id) const;
  Link& link(LinkId id);
  bool hasNode(NodeId id) const noexcept;

  /// Links incident to `id` (by LinkId). Throws NotFoundError.
  const std::vector<LinkId>& linksOf(NodeId id) const;

  /// All node ids in insertion order.
  const std::vector<NodeId>& nodes() const noexcept { return nodeOrder_; }
  /// All link ids in insertion order (1..linkCount()).
  std::vector<LinkId> links() const;

  std::size_t nodeCount() const noexcept { return nodeOrder_.size(); }
  std::size_t linkCount() const noexcept { return links_.size(); }

  /// Nodes of a given kind.
  std::vector<NodeId> nodesOfKind(NodeKind k) const;

  /// The (at most one) link between two nodes, or nullopt.
  std::optional<LinkId> findLink(NodeId a, NodeId b) const;

 private:
  std::unordered_map<NodeId, Node> nodes_;
  std::vector<NodeId> nodeOrder_;
  std::vector<Link> links_;  ///< LinkId v lives at links_[v - 1].
  std::unordered_map<NodeId, std::vector<LinkId>> adjacency_;
};

}  // namespace openspace
