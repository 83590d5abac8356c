#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <unordered_map>

#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>

#include "link_enumerator.hpp"

namespace openspace {

namespace {

std::uint64_t pairKey(NodeId a, NodeId b) noexcept {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

bool sameStructure(const std::vector<LinkSpec>& x,
                   const std::vector<LinkSpec>& y) noexcept {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const LinkSpec& p, const LinkSpec& q) {
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

TemporalCostModel delayCostModel() { return TemporalCostModel::Delay; }
TemporalCostModel hopCostModel() { return TemporalCostModel::Hop; }

IncrementalTopology::IncrementalTopology(const TopologyBuilder& builder,
                                         const SnapshotOptions& opt,
                                         TemporalCostModel model)
    : builder_(builder),
      opt_(opt),
      model_(model),
      links_(std::make_unique<LinkEnumerator>(builder, opt)),
      registrySize_(registrySize(builder)) {
  std::vector<NodeId> order;
  std::vector<NodeKind> kinds;
  for (const Node& n : builder_.snapshotNodes(opt_)) {
    order.push_back(n.id);
    kinds.push_back(n.kind);
  }
  nodeTable_ = std::make_shared<const CompactGraph::NodeTable>(std::move(order),
                                                               std::move(kinds));
}

IncrementalTopology::~IncrementalTopology() = default;

void IncrementalTopology::diffStructural() {
  std::unordered_map<std::uint64_t, std::uint32_t> prevByPair;
  prevByPair.reserve(specs_.size());
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    prevByPair.emplace(pairKey(specs_[p].a, specs_[p].b),
                       static_cast<std::uint32_t>(p));
  }
  for (const LinkSpec& spec : nextSpecs_) {
    const auto it = prevByPair.find(pairKey(spec.a, spec.b));
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
  links_->enumerate(*snap, nextSpecs_);

  delta_ = TopologyDelta{};
  delta_.tSeconds = tSeconds;
  delta_.linkCount = nextSpecs_.size();
  delta_.structural = !graph_ || !sameStructure(specs_, nextSpecs_);
  if (delta_.structural) diffStructural();

  // Builder links carry no queueing delay, so the delay cost (routing's
  // latencyCost(), propagation + queueing) is the propagation delay: x + 0.0
  // == x for every non-negative x.
  const bool hop = model_ == TemporalCostModel::Hop;
  records_.clear();
  for (const LinkSpec& spec : nextSpecs_) {
    records_.push_back({spec.a, spec.b, spec.propagationDelayS, 0.0,
                        spec.capacityBps, hop ? 1.0 : spec.propagationDelayS});
  }
  graph_ = std::make_shared<const CompactGraph>(assembleGraph(nodeTable_, records_));

  specs_.swap(nextSpecs_);
  ++steps_;
  return delta_;
}

}  // namespace openspace
