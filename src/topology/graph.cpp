#include <openspace/topology/graph.hpp>

#include <utility>

#include <openspace/geo/error.hpp>

namespace openspace {

LinkCostFn latencyCost() {
  return [](const Link& l, const Node&, const Node&, ProviderId) {
    return l.totalDelayS();
  };
}

NodeId Link::otherEnd(NodeId from) const {
  if (from == a) return b;
  if (from == b) return a;
  throw InvalidArgumentError("Link::otherEnd: node is not an endpoint");
}

void NetworkGraph::addNode(Node node) {
  if (nodes_.contains(node.id)) {
    throw InvalidArgumentError("NetworkGraph: duplicate node id " +
                               std::to_string(node.id.value()));
  }
  const bool sat = node.kind == NodeKind::Satellite;
  if (sat != node.satellite.has_value() || sat == node.location.has_value()) {
    throw InvalidArgumentError(
        "NetworkGraph: node must have exactly the position source its kind "
        "implies (satellite id for satellites, geodetic fix otherwise)");
  }
  const NodeId id = node.id;
  nodes_.emplace(id, std::move(node));
  nodeOrder_.push_back(id);
  adjacency_.try_emplace(id);
}

LinkId NetworkGraph::addLink(Link link) {
  if (!nodes_.contains(link.a) || !nodes_.contains(link.b)) {
    throw NotFoundError("NetworkGraph::addLink: unknown endpoint");
  }
  if (link.a == link.b) {
    throw InvalidArgumentError("NetworkGraph::addLink: self-loop");
  }
  if (link.capacityBps <= 0.0) {
    throw InvalidArgumentError("NetworkGraph::addLink: capacity must be > 0");
  }
  link.id = LinkId{static_cast<LinkId::rep_type>(links_.size() + 1)};
  adjacency_[link.a].push_back(link.id);
  adjacency_[link.b].push_back(link.id);
  links_.push_back(link);
  return link.id;
}

const Node& NetworkGraph::node(NodeId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw NotFoundError("NetworkGraph: unknown node " + std::to_string(id.value()));
  }
  return it->second;
}

Node& NetworkGraph::node(NodeId id) {
  return const_cast<Node&>(std::as_const(*this).node(id));
}

const Link& NetworkGraph::link(LinkId id) const {
  if (!id.isValid() || id.value() > links_.size()) {
    throw NotFoundError("NetworkGraph: unknown link " + std::to_string(id.value()));
  }
  return links_[id.value() - 1];
}

Link& NetworkGraph::link(LinkId id) {
  return const_cast<Link&>(std::as_const(*this).link(id));
}

bool NetworkGraph::hasNode(NodeId id) const noexcept { return nodes_.contains(id); }

const std::vector<LinkId>& NetworkGraph::linksOf(NodeId id) const {
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) {
    throw NotFoundError("NetworkGraph::linksOf: unknown node");
  }
  return it->second;
}

std::vector<LinkId> NetworkGraph::links() const {
  std::vector<LinkId> out;
  out.reserve(links_.size());
  for (std::size_t i = 1; i <= links_.size(); ++i) {
    out.push_back(LinkId{static_cast<LinkId::rep_type>(i)});
  }
  return out;
}

std::vector<NodeId> NetworkGraph::nodesOfKind(NodeKind k) const {
  std::vector<NodeId> out;
  for (const NodeId id : nodeOrder_) {
    if (nodes_.at(id).kind == k) out.push_back(id);
  }
  return out;
}

std::optional<LinkId> NetworkGraph::findLink(NodeId a, NodeId b) const {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return std::nullopt;
  for (const LinkId lid : it->second) {
    const Link& l = link(lid);
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return lid;
  }
  return std::nullopt;
}

}  // namespace openspace
