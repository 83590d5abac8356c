#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <utility>

#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>

#include "link_enumerator.hpp"

namespace openspace {

namespace {

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
  const bool ascending = enumerator_->keysAscending();
  if (!ascending) {
    nextSortedKeys_.assign(nextKeys_.begin(), nextKeys_.end());
    std::sort(nextSortedKeys_.begin(), nextSortedKeys_.end());
  }
  const std::vector<std::uint64_t>& prev = ascending ? keys_ : sortedKeys_;
  const std::vector<std::uint64_t>& next =
      ascending ? nextKeys_ : nextSortedKeys_;
  // Keys are unique within a step, so the keys in both are the links kept.
  std::size_t kept = 0;
  for (std::size_t i = 0, j = 0; i < prev.size() && j < next.size();) {
    if (prev[i] < next[j]) {
      ++i;
    } else if (next[j] < prev[i]) {
      ++j;
    } else {
      ++kept;
      ++i;
      ++j;
    }
  }
  delta_.addedLinks = next.size() - kept;
  delta_.removedLinks = prev.size() - kept;
  if (!ascending) sortedKeys_.swap(nextSortedKeys_);
}

const TopologyDelta& IncrementalTopology::step(double tSeconds) {
  if (registrySize(builder_) != registrySize_) {
    throw StateError(
        "IncrementalTopology: builder registry changed mid-sweep (the node "
        "template is fixed at construction)");
  }
  const auto snap = SnapshotCache::global().at(builder_.ephemeris(), tSeconds);
  enumerator_->enumerate(*snap, nextLinks_, nextKeys_);

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
  // The same links in the same order are the same candidates: sortedKeys_
  // stays valid across a step that is not structural.
  OPENSPACE_ASSERT(delta_.structural || keys_ == nextKeys_,
                   "equal link lists have equal keys");
  if (delta_.structural) diffStructural();

  graph_ = std::move(graph);
  links_.swap(nextLinks_);
  keys_.swap(nextKeys_);
  ++steps_;
  return delta_;
}

}  // namespace openspace
