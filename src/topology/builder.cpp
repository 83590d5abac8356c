#include <openspace/topology/builder.hpp>

#include <algorithm>
#include <cmath>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/phy/linkbudget.hpp>

namespace openspace {

namespace {

LinkCapabilities defaultCapabilities() {
  LinkCapabilities caps;
  caps.islBands = {Band::S, Band::Uhf};  // the RF interoperability minimum
  caps.hasLaserTerminal = false;
  caps.maxIslCount = 4;
  return caps;
}

}  // namespace

// These helpers run once per candidate link per snapshot — the hottest
// leaf of every temporal sweep. Each terminal pair is compiled once into a
// CapacityKernel with a 3 dB pointing/polarization/implementation margin;
// the kernel is bit-identical to the full computeLinkBudget() +
// modcodRateBps() round trip by contract (property-tested in test_phy).

double islCapacityBps(double distanceM, bool laser) {
  static const CapacityKernel rf(terminals::sBandIsl(), terminals::sBandIsl(),
                                 3.0);
  static const CapacityKernel optical(terminals::laserIsl(),
                                      terminals::laserIsl(), 3.0);
  return (laser ? optical : rf).rateBps(distanceM, 0.0);
}

double gslCapacityBps(double distanceM, double elevationRad) {
  static const CapacityKernel kernel(terminals::kuGround(),
                                     terminals::kuGroundStation(), 3.0);
  const double atm = atmosphericLossDb(Band::Ku, std::max(elevationRad, 0.01));
  return kernel.rateBps(distanceM, atm);
}

double userLinkCapacityBps(double distanceM, double elevationRad) {
  static const CapacityKernel kernel(terminals::kuGround(),
                                     terminals::kuUserTerminal(), 3.0);
  const double atm = atmosphericLossDb(Band::Ku, std::max(elevationRad, 0.01));
  return kernel.rateBps(distanceM, atm);
}

TopologyBuilder::TopologyBuilder(const EphemerisService& ephemeris)
    : ephemeris_(ephemeris) {
  for (const SatelliteId sid : ephemeris_.satellites()) {
    const NodeId nid{nextNodeValue_++};
    satNodes_.emplace(sid, nid);
    nodeSats_.emplace(nid, sid);
    caps_.emplace(sid, defaultCapabilities());
  }
}

void TopologyBuilder::setCapabilities(SatelliteId id, LinkCapabilities caps) {
  if (!satNodes_.contains(id)) {
    throw NotFoundError("TopologyBuilder::setCapabilities: unknown satellite");
  }
  if (caps.islBands.empty()) {
    throw InvalidArgumentError(
        "TopologyBuilder: OpenSpace satellites must support at least one RF "
        "ISL band (interoperability minimum, paper section 2.1)");
  }
  caps_[id] = std::move(caps);
  ++capsVersion_;
}

const LinkCapabilities& TopologyBuilder::capabilities(SatelliteId id) const {
  const auto it = caps_.find(id);
  if (it == caps_.end()) {
    throw NotFoundError("TopologyBuilder::capabilities: unknown satellite");
  }
  return it->second;
}

GroundStationId TopologyBuilder::addGroundStation(GroundSite site) {
  const NodeId id{nextNodeValue_++};
  stations_.push_back({id, std::move(site)});
  return GroundStationId{static_cast<GroundStationId::rep_type>(stations_.size())};
}

NodeId TopologyBuilder::addUser(GroundSite site) {
  const NodeId id{nextNodeValue_++};
  users_.push_back({id, std::move(site)});
  return id;
}

NodeId TopologyBuilder::nodeOf(SatelliteId id) const {
  const auto it = satNodes_.find(id);
  if (it == satNodes_.end()) {
    throw NotFoundError("TopologyBuilder::nodeOf: unknown satellite");
  }
  return it->second;
}

NodeId TopologyBuilder::nodeOf(GroundStationId id) const {
  if (!id.isValid() || id.value() > stations_.size()) {
    throw NotFoundError("TopologyBuilder::nodeOf: unknown ground station");
  }
  return stations_[id.value() - 1].node;
}

std::vector<GroundStationId> TopologyBuilder::groundStations() const {
  std::vector<GroundStationId> out;
  out.reserve(stations_.size());
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    out.push_back(GroundStationId{static_cast<GroundStationId::rep_type>(i + 1)});
  }
  return out;
}

SatelliteId TopologyBuilder::satelliteOf(NodeId id) const {
  const auto it = nodeSats_.find(id);
  if (it == nodeSats_.end()) {
    throw NotFoundError("TopologyBuilder::satelliteOf: node is not a satellite");
  }
  return it->second;
}

NetworkGraph TopologyBuilder::snapshot(double tSeconds,
                                       const SnapshotOptions& opt) const {
  NetworkGraph g;

  // --- nodes -----------------------------------------------------------
  // One shared propagation of the whole fleet (LRU-cached across repeated
  // snapshots of the same instant).
  const auto& sats = ephemeris_.satellites();
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  const std::vector<Vec3>& satEci = snap->eci();
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const auto& rec = ephemeris_.record(sats[i]);
    Node n;
    n.id = satNodes_.at(sats[i]);
    n.kind = NodeKind::Satellite;
    n.provider = rec.owner;
    n.name = "sat-" + std::to_string(sats[i].value());
    n.satellite = sats[i];
    g.addNode(std::move(n));
  }
  if (opt.includeGroundStations) {
    for (const auto& s : stations_) {
      Node n;
      n.id = s.node;
      n.kind = NodeKind::GroundStation;
      n.provider = s.site.provider;
      n.name = s.site.name;
      n.location = s.site.location;
      g.addNode(std::move(n));
    }
  }
  if (opt.includeUserLinks) {
    for (const auto& u : users_) {
      Node n;
      n.id = u.node;
      n.kind = NodeKind::User;
      n.provider = u.site.provider;
      n.name = u.site.name;
      n.location = u.site.location;
      g.addNode(std::move(n));
    }
  }

  // --- ISLs ------------------------------------------------------------
  const auto tryAddIsl = [&](std::size_t i, std::size_t j) {
    const double dist = satEci[i].distanceTo(satEci[j]);
    if (dist > opt.maxIslRangeM) return;
    if (!lineOfSightClear(satEci[i], satEci[j], km(80.0))) return;
    const NodeId na = satNodes_.at(sats[i]);
    const NodeId nb = satNodes_.at(sats[j]);
    if (g.findLink(na, nb)) return;
    const bool laser = opt.preferLaser && caps_.at(sats[i]).hasLaserTerminal &&
                       caps_.at(sats[j]).hasLaserTerminal;
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
  const auto addGroundLinks = [&](const std::vector<SiteEntry>& sites,
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
        l.a = satNodes_.at(sats[i]);
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
  if (opt.includeGroundStations) addGroundLinks(stations_, LinkType::Gsl);
  if (opt.includeUserLinks) addGroundLinks(users_, LinkType::UserLink);

  return g;
}

}  // namespace openspace
