#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <unordered_map>
#include <utility>

#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>

#include "link_enumerator.hpp"

namespace openspace {

namespace {

std::uint64_t pairKey(NodeId a, NodeId b) noexcept {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

bool sameStructure(const std::vector<Link>& x,
                   const std::vector<Link>& y) noexcept {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const Link& p, const Link& q) {
                      return p.a == q.a && p.b == q.b && p.type == q.type &&
                             p.band == q.band;
                    });
}

/// Every node the builder has registered, whether or not a snapshot
/// includes it.
std::size_t registrySize(const TopologyBuilder& b) noexcept {
  return b.satelliteCount() + b.groundStationCount() + b.userCount();
}

}  // namespace

IncrementalTopology::IncrementalTopology(const TopologyBuilder& builder,
                                         const SnapshotOptions& opt,
                                         LinkCostFn cost)
    : builder_(builder),
      cost_(std::move(cost)),
      enumerator_(std::make_unique<LinkEnumerator>(builder, opt)),
      registrySize_(registrySize(builder)),
      snapshotNodes_(builder.snapshotNodes(opt)) {
  std::vector<NodeId> order;
  std::vector<NodeKind> kinds;
  for (const Node& n : snapshotNodes_) {
    order.push_back(n.id);
    kinds.push_back(n.kind);
  }
  nodeTable_ = std::make_shared<const CompactGraph::NodeTable>(std::move(order),
                                                               std::move(kinds));
}

IncrementalTopology::~IncrementalTopology() = default;

void IncrementalTopology::diffStructural() {
  std::unordered_map<std::uint64_t, std::uint32_t> prevByPair;
  prevByPair.reserve(links_.size());
  for (std::size_t p = 0; p < links_.size(); ++p) {
    prevByPair.emplace(pairKey(links_[p].a, links_[p].b),
                       static_cast<std::uint32_t>(p));
  }
  for (const Link& l : nextLinks_) {
    const auto it = prevByPair.find(pairKey(l.a, l.b));
    if (it == prevByPair.end()) {
      ++delta_.addedLinks;
    } else {
      prevByPair.erase(it);
    }
  }
  delta_.removedLinks = prevByPair.size();
}

const TopologyDelta& IncrementalTopology::step(double tSeconds) {
  if (registrySize(builder_) != registrySize_) {
    throw StateError(
        "IncrementalTopology: builder registry changed mid-sweep (the node "
        "template is fixed at construction)");
  }
  const auto snap = SnapshotCache::global().at(builder_.ephemeris(), tSeconds);
  enumerator_->enumerate(*snap, nextLinks_);

  // The pricing rule of RouteEngine(const NetworkGraph&, cost): one call per
  // link on the link and its endpoint nodes, as no home provider.
  costs_.clear();
  for (const Link& l : nextLinks_) {
    costs_.push_back(cost_(l, snapshotNodes_[nodeTable_->indexOf(l.a)],
                           snapshotNodes_[nodeTable_->indexOf(l.b)],
                           ProviderId{}));
  }
  // Throws on a NaN or negative cost before any step state moves.
  auto graph = std::make_shared<const CompactGraph>(
      assembleGraph(nodeTable_, nextLinks_, costs_));

  delta_ = TopologyDelta{};
  delta_.tSeconds = tSeconds;
  delta_.linkCount = nextLinks_.size();
  delta_.structural = !graph_ || !sameStructure(links_, nextLinks_);
  if (delta_.structural) diffStructural();

  graph_ = std::move(graph);
  links_.swap(nextLinks_);
  ++steps_;
  return delta_;
}

}  // namespace openspace
