#include <openspace/topology/builder.hpp>

#include <algorithm>

#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/phy/linkbudget.hpp>

#include "link_enumerator.hpp"

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
  LinkEnumerator links(*this, opt);  // validates opt
  NetworkGraph g;

  // --- nodes -----------------------------------------------------------
  // One shared propagation of the whole fleet (LRU-cached across repeated
  // snapshots of the same instant).
  const auto& sats = ephemeris_.satellites();
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
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

  // --- links -----------------------------------------------------------
  std::vector<LinkSpec> specs;
  links.enumerate(*snap, specs);
  for (const LinkSpec& spec : specs) {
    Link l;
    l.a = spec.a;
    l.b = spec.b;
    l.type = spec.type;
    l.band = spec.band;
    l.distanceM = spec.distanceM;
    l.propagationDelayS = spec.propagationDelayS;
    l.capacityBps = spec.capacityBps;
    g.addLink(l);
  }
  return g;
}

}  // namespace openspace
