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

std::vector<Node> TopologyBuilder::snapshotNodes(const SnapshotOptions& opt) const {
  std::vector<Node> out;
  const auto& sats = ephemeris_.satellites();
  out.reserve(sats.size() + (opt.includeGroundStations ? stations_.size() : 0) +
              (opt.includeUserLinks ? users_.size() : 0));
  for (const SatelliteId sid : sats) {
    Node n;
    n.id = satNodes_.at(sid);
    n.kind = NodeKind::Satellite;
    n.provider = ephemeris_.record(sid).owner;
    n.name = "sat-" + std::to_string(sid.value());
    n.satellite = sid;
    out.push_back(std::move(n));
  }
  const auto addSites = [&](const std::vector<SiteEntry>& sites, NodeKind kind) {
    for (const SiteEntry& s : sites) {
      Node n;
      n.id = s.node;
      n.kind = kind;
      n.provider = s.site.provider;
      n.name = s.site.name;
      n.location = s.site.location;
      out.push_back(std::move(n));
    }
  };
  if (opt.includeGroundStations) addSites(stations_, NodeKind::GroundStation);
  if (opt.includeUserLinks) addSites(users_, NodeKind::User);
  return out;
}

NetworkGraph TopologyBuilder::snapshot(double tSeconds,
                                       const SnapshotOptions& opt) const {
  LinkEnumerator links(*this, opt);  // validates opt
  NetworkGraph g;
  for (Node& n : snapshotNodes(opt)) g.addNode(std::move(n));

  // One shared propagation of the whole fleet (LRU-cached across repeated
  // snapshots of the same instant).
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  std::vector<Link> snapLinks;
  std::vector<std::uint64_t> keys;
  links.enumerate(*snap, snapLinks, keys);
  for (const Link& l : snapLinks) g.addLink(l);
  return g;
}

}  // namespace openspace
