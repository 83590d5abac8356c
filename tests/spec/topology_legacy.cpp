// The original TopologyBuilder::snapshot() body: the executable spec of the
// library's snapshot link enumeration (see topology_legacy.hpp).
#include <openspace/spec/topology_legacy.hpp>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/route.hpp>

namespace openspace::legacy {

NetworkGraph topologySnapshot(const TopologyBuilder& builder, double tSeconds,
                              const SnapshotOptions& opt) {
  NetworkGraph g;
  const EphemerisService& ephemeris = builder.ephemeris();

  // --- nodes -----------------------------------------------------------
  const auto& sats = ephemeris.satellites();
  const auto snap = SnapshotCache::global().at(ephemeris, tSeconds);
  const std::vector<Vec3>& satEci = snap->eci();
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const auto& rec = ephemeris.record(sats[i]);
    Node n;
    n.id = builder.nodeOf(sats[i]);
    n.kind = NodeKind::Satellite;
    n.provider = rec.owner;
    n.name = "sat-" + std::to_string(sats[i].value());
    n.satellite = sats[i];
    g.addNode(std::move(n));
  }
  const auto addSiteNodes = [&](const std::vector<TopologyBuilder::SiteEntry>& sites,
                                NodeKind kind) {
    for (const auto& s : sites) {
      Node n;
      n.id = s.node;
      n.kind = kind;
      n.provider = s.site.provider;
      n.name = s.site.name;
      n.location = s.site.location;
      g.addNode(std::move(n));
    }
  };
  if (opt.includeGroundStations) {
    addSiteNodes(builder.stationSites(), NodeKind::GroundStation);
  }
  if (opt.includeUserLinks) addSiteNodes(builder.userSites(), NodeKind::User);

  // --- ISLs ------------------------------------------------------------
  const auto tryAddIsl = [&](std::size_t i, std::size_t j) {
    const double dist = satEci[i].distanceTo(satEci[j]);
    if (dist > opt.maxIslRangeM) return;
    if (!lineOfSightClear(satEci[i], satEci[j], km(80.0))) return;
    const NodeId na = builder.nodeOf(sats[i]);
    const NodeId nb = builder.nodeOf(sats[j]);
    if (g.findLink(na, nb)) return;
    const bool laser = opt.preferLaser &&
                       builder.capabilities(sats[i]).hasLaserTerminal &&
                       builder.capabilities(sats[j]).hasLaserTerminal;
    const double cap = islCapacityBps(dist, laser);
    if (cap <= 0.0) return;
    Link l;
    l.a = na;
    l.b = nb;
    l.type = laser ? LinkType::IslLaser : LinkType::IslRf;
    l.band = laser ? Band::Optical : Band::S;
    l.distanceM = dist;
    l.propagationDelayS = dist / kSpeedOfLightMps;
    l.capacityBps = cap;
    g.addLink(l);
  };

  switch (opt.wiring) {
    case IslWiring::PlusGrid: {
      if (opt.planes <= 0 || sats.empty() ||
          sats.size() % static_cast<std::size_t>(opt.planes) != 0) {
        throw InvalidArgumentError(
            "snapshot: PlusGrid wiring requires planes dividing the fleet");
      }
      const PlaneGrid grid(sats.size(), opt.planes);
      for (std::size_t idx = 0; idx < sats.size(); ++idx) {
        const PlaneId plane = grid.planeOf(idx);
        const std::size_t slot = grid.slotOf(idx);
        // Intra-plane ring neighbor.
        tryAddIsl(idx, grid.indexOf(plane, slot + 1));
        // Same-slot neighbor in the next plane (seam optional).
        if (!grid.isSeamPlane(plane) || opt.interPlaneSeam) {
          tryAddIsl(idx, grid.indexOf(grid.nextPlane(plane), slot));
        }
      }
      break;
    }
    case IslWiring::NearestNeighbors: {
      for (std::size_t i = 0; i < sats.size(); ++i) {
        std::vector<std::pair<double, std::size_t>> dists;
        dists.reserve(sats.size());
        for (std::size_t j = 0; j < sats.size(); ++j) {
          if (j == i) continue;
          dists.emplace_back(satEci[i].distanceTo(satEci[j]), j);
        }
        const std::size_t k =
            std::min(dists.size(), static_cast<std::size_t>(std::max(0, opt.nearestK)));
        std::partial_sort(dists.begin(), dists.begin() + static_cast<std::ptrdiff_t>(k),
                          dists.end());
        for (std::size_t n = 0; n < k; ++n) tryAddIsl(i, dists[n].second);
      }
      break;
    }
    case IslWiring::AllInRange: {
      // Candidate pairs from the snapshot's spatially pruned adjacency
      // (range + line-of-sight prefiltered) instead of an all-pairs scan.
      const auto isl = snap->islTopology(opt.maxIslRangeM);
      for (std::size_t i = 0; i < sats.size(); ++i) {
        for (const auto& neighbor : isl->adjacency[i]) {
          if (neighbor.first > i) tryAddIsl(i, neighbor.first);
        }
      }
      break;
    }
  }

  // --- ground links ------------------------------------------------------
  const auto addGroundLinks = [&](const std::vector<TopologyBuilder::SiteEntry>& sites,
                                  LinkType type) {
    for (const auto& site : sites) {
      const GroundObserver observer(site.site.location);
      const Vec3& siteEcef = observer.ecef();
      for (std::size_t i = 0; i < sats.size(); ++i) {
        const Vec3& satEcef = snap->ecef(i);
        const double elev = observer.elevationTo(satEcef);
        if (elev < opt.minElevationRad) continue;
        const double dist = siteEcef.distanceTo(satEcef);
        const double cap = (type == LinkType::Gsl)
                               ? gslCapacityBps(dist, elev)
                               : userLinkCapacityBps(dist, elev);
        if (cap <= 0.0) continue;
        Link l;
        l.a = builder.nodeOf(sats[i]);
        l.b = site.node;
        l.type = type;
        l.band = Band::Ku;
        l.distanceM = dist;
        l.propagationDelayS = dist / kSpeedOfLightMps;
        l.capacityBps = cap;
        g.addLink(l);
      }
    }
  };
  if (opt.includeGroundStations) addGroundLinks(builder.stationSites(), LinkType::Gsl);
  if (opt.includeUserLinks) addGroundLinks(builder.userSites(), LinkType::UserLink);

  return g;
}

CompactGraph compileGraph(const NetworkGraph& g, const LinkCostFn& cost,
                          ProviderId home) {
  const std::vector<NodeId>& order = g.nodes();
  const std::size_t n = order.size();
  std::vector<NodeKind> kinds;
  kinds.reserve(n);
  for (const NodeId id : order) kinds.push_back(g.node(id).kind);
  auto nodes = std::make_shared<const CompactGraph::NodeTable>(order, std::move(kinds));

  CompactGraph::Csr out;
  out.rowOffset.reserve(n + 1);
  out.rowOffset.push_back(0);
  const std::size_t edgeGuess = 2 * g.linkCount();
  out.edgeTo.reserve(edgeGuess);
  out.edgeFrom.reserve(edgeGuess);
  out.edgeCost.reserve(edgeGuess);
  out.edgePropS.reserve(edgeGuess);
  out.edgeQueueS.reserve(edgeGuess);
  out.edgeCapBps.reserve(edgeGuess);
  out.edgeLinkId.reserve(edgeGuess);

  std::uint64_t maxLinkIdValue = 0;
  for (const LinkId lid : g.links()) {
    maxLinkIdValue = std::max<std::uint64_t>(maxLinkIdValue, lid.value());
  }
  out.linkEdges.resize(maxLinkIdValue + 1);

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u = order[i];
    for (const LinkId lid : g.linksOf(u)) {
      const Link& l = g.link(lid);
      const double c = cost(l, g.node(l.a), g.node(l.b), home);
      if (std::isnan(c) || c < 0.0) {
        throw InvalidArgumentError("compileGraph: negative or NaN link cost");
      }
      if (std::isinf(c)) continue;  // forbidden edge: dropped at compile time
      if (c > 0.0) out.minPositiveCost = std::min(out.minPositiveCost, c);
      out.maxCost = std::max(out.maxCost, c);
      const NodeId v = l.otherEnd(u);
      const std::uint32_t dv = nodes->indexOf(v);
      if (dv == CompactGraph::kInvalidIndex) {
        throw StateError("compileGraph: a link endpoint is not a graph node");
      }
      const auto e = static_cast<std::uint32_t>(out.edgeTo.size());
      out.edgeTo.push_back(dv);
      out.edgeFrom.push_back(static_cast<std::uint32_t>(i));
      out.edgeCost.push_back(c);
      out.edgePropS.push_back(l.propagationDelayS);
      out.edgeQueueS.push_back(l.queueingDelayS);
      out.edgeCapBps.push_back(l.capacityBps);
      out.edgeLinkId.push_back(lid);
      CompactGraph::LinkEdgeRange& r = out.linkEdges[lid.value()];
      if (r.count >= 2) {
        throw StateError("compileGraph: a link compiled to more than two edges");
      }
      r.e[r.count++] = e;
    }
    out.rowOffset.push_back(static_cast<std::uint32_t>(out.edgeTo.size()));
  }
  return CompactGraph(std::move(nodes), std::move(out));
}

LinkChanges diffByEndpoints(const std::vector<Link>& prev,
                            const std::vector<Link>& next) {
  const auto pairKey = [](const Link& l) {
    return (static_cast<std::uint64_t>(l.a.value()) << 32) | l.b.value();
  };
  std::unordered_map<std::uint64_t, std::uint32_t> prevByPair;
  prevByPair.reserve(prev.size());
  for (std::size_t p = 0; p < prev.size(); ++p) {
    prevByPair.emplace(pairKey(prev[p]), static_cast<std::uint32_t>(p));
  }
  LinkChanges out;
  for (const Link& l : next) {
    const auto it = prevByPair.find(pairKey(l));
    if (it == prevByPair.end()) {
      ++out.added;
    } else {
      prevByPair.erase(it);
    }
  }
  out.removed = prevByPair.size();
  return out;
}

}  // namespace openspace::legacy
