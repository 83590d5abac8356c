#include <openspace/topology/delta.hpp>

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {

namespace {

/// losClearanceM sentinel that makes lineOfSightClear() unconditionally
/// true (block radius collapses to zero). The NearestNeighbors wiring
/// selects its k candidates by distance alone and only applies the
/// line-of-sight filter to the selected pairs — so its candidate adjacency
/// must be range-pruned but NOT LOS-pruned, or a blocked near neighbor
/// would be silently backfilled by a farther one the fresh path never
/// considers.
constexpr double kNoLosClearanceM = -wgs84::kMeanRadiusM;

std::uint64_t pairKey(NodeId a, NodeId b) noexcept {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

/// The CSR-visible payload of two specs is bitwise identical (distanceM is
/// excluded: compileGraph never materializes it).
bool samePayload(const LinkSpec& x, const LinkSpec& y) noexcept {
  return bitsOf(x.propagationDelayS) == bitsOf(y.propagationDelayS) &&
         bitsOf(x.queueingDelayS) == bitsOf(y.queueingDelayS) &&
         bitsOf(x.capacityBps) == bitsOf(y.capacityBps);
}

bool sameStructure(const LinkSpec& x, const LinkSpec& y) noexcept {
  return x.a == y.a && x.b == y.b && x.type == y.type && x.band == y.band;
}

}  // namespace

TemporalCostModel delayCostModel() {
  TemporalCostModel m;
  m.spec = [](const LinkSpec& s) { return s.totalDelayS(); };
  m.link = [](const NetworkGraph&, const Link& l, ProviderId) {
    return l.totalDelayS();
  };
  m.kind = TemporalCostModel::Kind::Delay;
  return m;
}

TemporalCostModel hopCostModel() {
  TemporalCostModel m;
  m.spec = [](const LinkSpec&) { return 1.0; };
  m.link = [](const NetworkGraph&, const Link&, ProviderId) { return 1.0; };
  m.kind = TemporalCostModel::Kind::Hop;
  return m;
}

IncrementalTopology::IncrementalTopology(const TopologyBuilder& builder,
                                         const SnapshotOptions& opt,
                                         TemporalCostModel model)
    : builder_(builder), opt_(opt), model_(std::move(model)) {
  if (!model_.spec) {
    throw InvalidArgumentError("IncrementalTopology: null spec cost model");
  }
  const std::vector<SatelliteId>& sats = builder_.ephemeris().satellites();
  satIds_ = sats;
  const std::size_t s = sats.size();

  // Node template, replicating snapshot()'s emission order: satellites in
  // ephemeris order, then ground stations, then users (flag-gated).
  satNode_.reserve(s);
  for (const SatelliteId sid : sats) satNode_.push_back(builder_.nodeOf(sid));
  auto nt = std::make_shared<CompactGraph::NodeTable>();
  for (std::size_t i = 0; i < s; ++i) {
    nt->denseToNode.push_back(satNode_[i]);
    nt->nodeKind.push_back(NodeKind::Satellite);
  }
  const auto addSites = [&](const std::vector<TopologyBuilder::SiteEntry>& sites,
                            NodeKind kind, std::vector<SiteRec>& out) {
    for (const auto& entry : sites) {
      out.push_back({entry.node, GroundObserver(entry.site.location),
                     static_cast<std::uint32_t>(nt->denseToNode.size())});
      nt->denseToNode.push_back(entry.node);
      nt->nodeKind.push_back(kind);
    }
  };
  if (opt_.includeGroundStations) {
    addSites(builder_.stationSites(), NodeKind::GroundStation, stationRecs_);
  }
  if (opt_.includeUserLinks) {
    addSites(builder_.userSites(), NodeKind::User, userRecs_);
  }
  const std::size_t n = nt->denseToNode.size();
  OPENSPACE_ASSERT(n < CompactGraph::kInvalidIndex,
                   "dense node indices fit in 32 bits");

  // Same lookup structures as compileGraph: the hash map always, the
  // direct-map table under the same density heuristic.
  std::uint32_t maxIdValue = 0;
  nt->nodeToDense.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nt->nodeToDense.emplace(nt->denseToNode[i], static_cast<std::uint32_t>(i));
    maxIdValue = std::max(maxIdValue, nt->denseToNode[i].value());
  }
  if (n > 0 && maxIdValue <= 4 * n + 1024) {
    nt->idToDense.assign(maxIdValue + 1, CompactGraph::kInvalidIndex);
    for (std::size_t i = 0; i < n; ++i) {
      nt->idToDense[nt->denseToNode[i].value()] = static_cast<std::uint32_t>(i);
    }
  }
  nodeTable_ = std::move(nt);

  satLaser_.assign(s, 0);
  acceptedIsl_.resize(s);

  if (opt_.wiring == IslWiring::PlusGrid) {
    // The builder validates these per snapshot; validate once up front.
    if (opt_.planes <= 0 || s == 0 ||
        s % static_cast<std::size_t>(opt_.planes) != 0) {
      throw InvalidArgumentError(
          "snapshot: PlusGrid wiring requires planes dividing the fleet");
    }
    const PlaneGrid grid(s, opt_.planes);
    const auto addPair = [&](std::size_t i, std::size_t j) {
      if (i == j) {
        throw InvalidArgumentError(
            "IncrementalTopology: PlusGrid wiring wires a satellite to "
            "itself (degenerate plane/slot counts)");
      }
      plusGridPairs_.emplace_back(static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(j));
    };
    for (std::size_t idx = 0; idx < s; ++idx) {
      const PlaneId plane = grid.planeOf(idx);
      const std::size_t slot = grid.slotOf(idx);
      addPair(idx, grid.indexOf(plane, slot + 1));
      if (!grid.isSeamPlane(plane) || opt_.interPlaneSeam) {
        addPair(idx, grid.indexOf(grid.nextPlane(plane), slot));
      }
    }
  }
}

void IncrementalTopology::enumerateSpecs(const ConstellationSnapshot& snap) {
  nextSpecs_.clear();
  const std::size_t s = satIds_.size();
  // Laser flags only move when someone calls setCapabilities(); keying the
  // refresh on the builder's version counter turns the per-step capability
  // hash lookups into a no-op for the common static-capability sweep.
  if (const std::uint64_t v = builder_.capabilitiesVersion();
      v != satLaserVersion_) {
    for (std::size_t i = 0; i < s; ++i) {
      satLaser_[i] =
          builder_.capabilities(satIds_[i]).hasLaserTerminal ? char{1} : char{0};
    }
    satLaserVersion_ = v;
  }
  for (std::size_t i = 0; i < s; ++i) {
    acceptedIsl_[i].clear();
  }
  const std::vector<Vec3>& satEci = snap.eci();

  // The tryAddIsl twin: identical filters in identical order, with the
  // builder's findLink() dedup replayed against the accepted-neighbor
  // lists (only *accepted* links suppress a later duplicate attempt — a
  // filtered attempt must leave the later attempt free to re-evaluate,
  // exactly like the fresh path).
  const auto tryIsl = [&](std::size_t i, std::size_t j) {
    const double dist = satEci[i].distanceTo(satEci[j]);
    if (dist > opt_.maxIslRangeM) return;
    if (!lineOfSightClear(satEci[i], satEci[j], km(80.0))) return;
    for (const std::uint32_t q : acceptedIsl_[i]) {
      if (q == j) return;  // findLink dedup replay
    }
    const bool laser = opt_.preferLaser && satLaser_[i] != 0 && satLaser_[j] != 0;
    const double cap = islCapacityBps(dist, laser);
    if (cap <= 0.0) return;
    acceptedIsl_[i].push_back(static_cast<std::uint32_t>(j));
    acceptedIsl_[j].push_back(static_cast<std::uint32_t>(i));
    LinkSpec spec;
    spec.a = satNode_[i];
    spec.b = satNode_[j];
    spec.type = laser ? LinkType::IslLaser : LinkType::IslRf;
    spec.band = laser ? Band::Optical : Band::S;
    spec.distanceM = dist;
    spec.propagationDelayS = dist / kSpeedOfLightMps;
    spec.capacityBps = cap;
    nextSpecs_.push_back(spec);
  };

  switch (opt_.wiring) {
    case IslWiring::PlusGrid: {
      for (const auto& [i, j] : plusGridPairs_) tryIsl(i, j);
      break;
    }
    case IslWiring::NearestNeighbors: {
      // Range-pruned (never LOS-pruned, see kNoLosClearanceM) candidates
      // from the snapshot's spatial grid. Every in-range neighbor is
      // strictly closer than every out-of-range one, so the k smallest
      // (distance, index) pairs of the fresh all-pairs scan that survive
      // the range filter are exactly the min(k, in-range) smallest
      // in-range pairs — same accepted set, same emission order.
      const auto topo = snap.islTopology(opt_.maxIslRangeM, kNoLosClearanceM);
      for (std::size_t i = 0; i < s; ++i) {
        nnCand_.clear();
        for (const auto& [j, d] : topo->adjacency[i]) nnCand_.emplace_back(d, j);
        const std::size_t k = std::min(
            nnCand_.size(), static_cast<std::size_t>(std::max(0, opt_.nearestK)));
        std::partial_sort(nnCand_.begin(),
                          nnCand_.begin() + static_cast<std::ptrdiff_t>(k),
                          nnCand_.end());
        for (std::size_t q = 0; q < k; ++q) tryIsl(i, nnCand_[q].second);
      }
      break;
    }
    case IslWiring::AllInRange: {
      const auto topo = snap.islTopology(opt_.maxIslRangeM);
      for (std::size_t i = 0; i < s; ++i) {
        for (const auto& neighbor : topo->adjacency[i]) {
          if (neighbor.first > i) tryIsl(i, neighbor.first);
        }
      }
      break;
    }
  }

  // Conservative horizon prefilter: elevationAngleRad(site, sat) is
  // pi/2 - acos(dot(up, los)/..) with both norms positive, so its sign is
  // the sign of dot(site, sat - site). A non-positive dot therefore proves
  // elev <= 0 < minElevationRad and the sat can be skipped without
  // evaluating the line-of-sight normalization + acos; every survivor goes
  // through the exact elevation test, so the accepted set — and every
  // emitted double — is bit-identical to the fresh path's. Only sound for
  // a strictly positive mask (elev == 0 must still be rejected by it).
  const bool horizonPrefilter = opt_.minElevationRad > 0.0;
  const std::vector<Vec3>& satEcefArr = snap.ecef();
  const auto groundLinks = [&](const std::vector<SiteRec>& sites, LinkType type) {
    for (const SiteRec& site : sites) {
      const Vec3& siteEcef = site.observer.ecef();
      for (std::size_t i = 0; i < s; ++i) {
        const Vec3& satEcef = satEcefArr[i];
        if (horizonPrefilter && (satEcef - siteEcef).dot(siteEcef) <= 0.0) {
          continue;
        }
        const double elev = site.observer.elevationTo(satEcef);
        if (elev < opt_.minElevationRad) continue;
        const double dist = siteEcef.distanceTo(satEcef);
        const double cap = (type == LinkType::Gsl)
                               ? gslCapacityBps(dist, elev)
                               : userLinkCapacityBps(dist, elev);
        if (cap <= 0.0) continue;
        LinkSpec spec;
        spec.a = satNode_[i];
        spec.b = site.node;
        spec.type = type;
        spec.band = Band::Ku;
        spec.distanceM = dist;
        spec.propagationDelayS = dist / kSpeedOfLightMps;
        spec.capacityBps = cap;
        nextSpecs_.push_back(spec);
      }
    }
  };
  if (opt_.includeGroundStations) groundLinks(stationRecs_, LinkType::Gsl);
  if (opt_.includeUserLinks) groundLinks(userRecs_, LinkType::UserLink);
}

void IncrementalTopology::evaluateCosts() {
  nextCosts_.resize(nextSpecs_.size());
  // The canonical models are inlined (same expressions as their factory
  // lambdas, so the produced doubles are identical); only Custom models
  // pay the type-erased call per link.
  switch (model_.kind) {
    case TemporalCostModel::Kind::Hop:
      std::fill(nextCosts_.begin(), nextCosts_.end(), 1.0);
      return;
    case TemporalCostModel::Kind::Delay:
      for (std::size_t p = 0; p < nextSpecs_.size(); ++p) {
        const double c = nextSpecs_[p].totalDelayS();
        if (std::isnan(c) || c < 0.0) {
          throw InvalidArgumentError("compileGraph: negative or NaN link cost");
        }
        nextCosts_[p] = c;
      }
      return;
    case TemporalCostModel::Kind::Custom:
      break;
  }
  for (std::size_t p = 0; p < nextSpecs_.size(); ++p) {
    const double c = model_.spec(nextSpecs_[p]);
    if (std::isnan(c) || c < 0.0) {
      throw InvalidArgumentError("compileGraph: negative or NaN link cost");
    }
    nextCosts_[p] = c;
  }
}

std::shared_ptr<const CompactGraph> IncrementalTopology::rebuildFromSpecs() const {
  auto g = std::make_shared<CompactGraph>();
  g->nodes_ = nodeTable_;  // shared, never copied
  const std::size_t n = nodeTable_->denseToNode.size();
  const std::size_t linkCount = nextSpecs_.size();

  const auto denseOf = [&](NodeId id) -> std::uint32_t {
    const CompactGraph::NodeTable& nt = *nodeTable_;
    if (id.value() < nt.idToDense.size() &&
        nt.idToDense[id.value()] != CompactGraph::kInvalidIndex) {
      return nt.idToDense[id.value()];
    }
    const auto it = nt.nodeToDense.find(id);
    OPENSPACE_ASSERT(it != nt.nodeToDense.end(),
                     "every spec endpoint is a template node");
    return it->second;
  };

  // Counting-sort CSR build. Walking specs in ascending position within
  // each row reproduces compileGraph's per-node adjacency order exactly:
  // NetworkGraph::linksOf() lists links in addLink order, which is spec
  // order by construction.
  std::vector<std::uint32_t> degree(n, 0);
  std::size_t edgeCount = 0;
  for (std::size_t p = 0; p < linkCount; ++p) {
    if (std::isinf(nextCosts_[p])) continue;  // forbidden: dropped, both ways
    ++degree[denseOf(nextSpecs_[p].a)];
    ++degree[denseOf(nextSpecs_[p].b)];
    edgeCount += 2;
  }
  g->rowOffset_.resize(n + 1);
  g->rowOffset_[0] = 0;
  for (std::size_t u = 0; u < n; ++u) {
    g->rowOffset_[u + 1] = g->rowOffset_[u] + degree[u];
  }
  g->edgeTo_.resize(edgeCount);
  g->edgeFrom_.resize(edgeCount);
  g->edgeCost_.resize(edgeCount);
  g->edgePropS_.resize(edgeCount);
  g->edgeQueueS_.resize(edgeCount);
  g->edgeCapBps_.resize(edgeCount);
  g->edgeLinkId_.resize(edgeCount);
  g->linkEdges_.resize(linkCount + 1);

  std::vector<std::uint32_t> fill(g->rowOffset_.begin(), g->rowOffset_.end() - 1);
  for (std::size_t p = 0; p < linkCount; ++p) {
    if (std::isinf(nextCosts_[p])) continue;
    const LinkSpec& spec = nextSpecs_[p];
    const std::uint32_t ua = denseOf(spec.a);
    const std::uint32_t ub = denseOf(spec.b);
    const LinkId lid{static_cast<LinkId::rep_type>(p + 1)};
    const std::uint32_t ea = fill[ua]++;
    const std::uint32_t eb = fill[ub]++;
    const auto place = [&](std::uint32_t e, std::uint32_t from, std::uint32_t to) {
      g->edgeTo_[e] = to;
      g->edgeFrom_[e] = from;
      g->edgeCost_[e] = nextCosts_[p];
      g->edgePropS_[e] = spec.propagationDelayS;
      g->edgeQueueS_[e] = spec.queueingDelayS;
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

std::shared_ptr<const CompactGraph> IncrementalTopology::patchCosts(
    const std::vector<std::uint32_t>& changed) const {
  auto g = std::make_shared<CompactGraph>(*graph_);
  for (const std::uint32_t p : changed) {
    const LinkSpec& spec = nextSpecs_[p];
    const CompactGraph::LinkEdgeRange r = g->linkEdges_[p + 1];
    for (const std::uint32_t e : r) {
      g->edgeCost_[e] = nextCosts_[p];
      g->edgePropS_[e] = spec.propagationDelayS;
      g->edgeQueueS_[e] = spec.queueingDelayS;
      g->edgeCapBps_[e] = spec.capacityBps;
    }
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
      continue;
    }
    if (samePayload(specs_[it->second], spec)) {
      ++delta_.unchangedLinks;
    } else {
      ++delta_.costChangedLinks;
    }
    prevByPair.erase(it);
  }
  delta_.removedLinks = prevByPair.size();
}

const TopologyDelta& IncrementalTopology::step(double tSeconds) {
  if (builder_.satelliteCount() != satIds_.size() ||
      (opt_.includeGroundStations &&
       builder_.groundStationCount() != stationRecs_.size()) ||
      (opt_.includeUserLinks && builder_.userCount() != userRecs_.size())) {
    throw StateError(
        "IncrementalTopology: builder registry changed mid-sweep (the node "
        "template is fixed at construction)");
  }
  const auto snap = SnapshotCache::global().at(builder_.ephemeris(), tSeconds);
  enumerateSpecs(*snap);
  evaluateCosts();

  delta_ = TopologyDelta{};
  delta_.tSeconds = tSeconds;
  delta_.linkCount = nextSpecs_.size();

  if (!graph_) {
    delta_.structural = true;
    delta_.addedLinks = nextSpecs_.size();
    graph_ = rebuildFromSpecs();
  } else {
    bool structural = nextSpecs_.size() != specs_.size();
    changedSpecs_.clear();
    if (!structural) {
      for (std::size_t p = 0; p < nextSpecs_.size(); ++p) {
        if (!sameStructure(specs_[p], nextSpecs_[p]) ||
            std::isinf(costs_[p]) != std::isinf(nextCosts_[p])) {
          structural = true;
          break;
        }
        if (!samePayload(specs_[p], nextSpecs_[p]) ||
            bitsOf(costs_[p]) != bitsOf(nextCosts_[p])) {
          changedSpecs_.push_back(static_cast<std::uint32_t>(p));
        }
      }
    }
    if (structural) {
      delta_.structural = true;
      diffStructural();
      graph_ = rebuildFromSpecs();
    } else {
      delta_.costChangedLinks = changedSpecs_.size();
      delta_.unchangedLinks = nextSpecs_.size() - changedSpecs_.size();
      if (!changedSpecs_.empty()) {
        graph_ = patchCosts(changedSpecs_);
      }
      // else: bitwise-identical step (repeated timestamp) — share the
      // previous graph as-is.
    }
  }

  specs_.swap(nextSpecs_);
  costs_.swap(nextCosts_);
  ++steps_;
  return delta_;
}

}  // namespace openspace
