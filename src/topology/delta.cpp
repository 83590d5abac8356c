#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <unordered_map>

#include <openspace/core/assert.hpp>
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

/// Nodes the snapshot has under `opt`: the fleet, plus the flag-gated
/// ground stations and users.
std::size_t snapshotNodeCount(const TopologyBuilder& b,
                              const SnapshotOptions& opt) noexcept {
  return b.satelliteCount() +
         (opt.includeGroundStations ? b.groundStationCount() : 0) +
         (opt.includeUserLinks ? b.userCount() : 0);
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
      links_(std::make_unique<LinkEnumerator>(builder, opt)) {
  // snapshot()'s node emission order.
  std::vector<NodeId> order;
  std::vector<NodeKind> kinds;
  for (const SatelliteId sid : builder_.ephemeris().satellites()) {
    order.push_back(builder_.nodeOf(sid));
    kinds.push_back(NodeKind::Satellite);
  }
  const auto addSites = [&](const std::vector<TopologyBuilder::SiteEntry>& sites,
                            NodeKind kind) {
    for (const auto& entry : sites) {
      order.push_back(entry.node);
      kinds.push_back(kind);
    }
  };
  if (opt_.includeGroundStations) {
    addSites(builder_.stationSites(), NodeKind::GroundStation);
  }
  if (opt_.includeUserLinks) addSites(builder_.userSites(), NodeKind::User);
  nodeTable_ = CompactGraph::makeNodeTable(std::move(order), std::move(kinds));
}

IncrementalTopology::~IncrementalTopology() = default;

std::shared_ptr<const CompactGraph> IncrementalTopology::assemble() const {
  auto g = std::make_shared<CompactGraph>();
  g->nodes_ = nodeTable_;  // shared, never copied
  const std::size_t n = nodeTable_->denseToNode.size();
  const std::size_t linkCount = nextSpecs_.size();
  const bool hop = model_ == TemporalCostModel::Hop;

  const auto denseOf = [&](NodeId id) {
    const std::uint32_t u = g->indexOf(id);
    OPENSPACE_ASSERT(u != CompactGraph::kInvalidIndex,
                     "every spec endpoint is a template node");
    return u;
  };

  // Counting-sort CSR build. Walking specs in ascending position within
  // each row reproduces compileGraph's per-node adjacency order exactly:
  // NetworkGraph::linksOf() lists links in addLink order, which is spec
  // order by construction. Neither cost model forbids a link, so every
  // link compiles to two edges.
  std::vector<std::uint32_t> degree(n, 0);
  for (const LinkSpec& spec : nextSpecs_) {
    ++degree[denseOf(spec.a)];
    ++degree[denseOf(spec.b)];
  }
  g->rowOffset_.resize(n + 1);
  g->rowOffset_[0] = 0;
  for (std::size_t u = 0; u < n; ++u) {
    g->rowOffset_[u + 1] = g->rowOffset_[u] + degree[u];
  }
  const std::size_t edgeCount = 2 * linkCount;
  g->edgeTo_.resize(edgeCount);
  g->edgeFrom_.resize(edgeCount);
  g->edgeCost_.resize(edgeCount);
  g->edgePropS_.resize(edgeCount);
  g->edgeQueueS_.assign(edgeCount, 0.0);
  g->edgeCapBps_.resize(edgeCount);
  g->edgeLinkId_.resize(edgeCount);
  g->linkEdges_.resize(linkCount + 1);

  std::vector<std::uint32_t> fill(g->rowOffset_.begin(), g->rowOffset_.end() - 1);
  for (std::size_t p = 0; p < linkCount; ++p) {
    const LinkSpec& spec = nextSpecs_[p];
    // latencyCost() is totalDelayS() = propagation + queueing (0), and
    // x + 0.0 == x for every non-negative x.
    const double cost = hop ? 1.0 : spec.propagationDelayS;
    const std::uint32_t ua = denseOf(spec.a);
    const std::uint32_t ub = denseOf(spec.b);
    const LinkId lid{static_cast<LinkId::rep_type>(p + 1)};
    const std::uint32_t ea = fill[ua]++;
    const std::uint32_t eb = fill[ub]++;
    const auto place = [&](std::uint32_t e, std::uint32_t from, std::uint32_t to) {
      g->edgeTo_[e] = to;
      g->edgeFrom_[e] = from;
      g->edgeCost_[e] = cost;
      g->edgePropS_[e] = spec.propagationDelayS;
      g->edgeCapBps_[e] = spec.capacityBps;
      g->edgeLinkId_[e] = lid;
    };
    place(ea, ua, ub);
    place(eb, ub, ua);
    CompactGraph::LinkEdgeRange& r = g->linkEdges_[p + 1];
    r.count = 2;
    r.e[0] = std::min(ea, eb);  // compileGraph records edges in ascending
    r.e[1] = std::max(ea, eb);  // edge-index order
  }
  return g;
}

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
  if (snapshotNodeCount(builder_, opt_) != nodeTable_->denseToNode.size()) {
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
  graph_ = assemble();

  specs_.swap(nextSpecs_);
  ++steps_;
  return delta_;
}

}  // namespace openspace
