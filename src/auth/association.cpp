#include <openspace/auth/association.hpp>

#include <cmath>
#include <limits>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/elements.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/routing/engine.hpp>

namespace openspace {

namespace {

/// Users per parallelFor chunk in associateUsers. Fixed boundaries + each
/// user writing only its own slot keep serial and parallel sweeps
/// bit-identical.
constexpr std::size_t kUserChunk = 512;

}  // namespace

std::string_view associationStateName(AssociationState s) noexcept {
  switch (s) {
    case AssociationState::Scanning: return "scanning";
    case AssociationState::Authenticating: return "authenticating";
    case AssociationState::Associated: return "associated";
    case AssociationState::Disassociated: return "disassociated";
  }
  return "?";
}

AssociationAgent::AssociationAgent(UserId user, ProviderId home,
                                   std::uint64_t userSecret, Geodetic location)
    : user_(user), home_(home), secret_(userSecret), location_(location) {}

std::optional<SatelliteId> AssociationAgent::selectSatellite(
    const std::vector<BeaconMessage>& beacons, double tSeconds,
    double minElevationRad) const {
  // "The user can evaluate received beacons to identify which satellite is
  // in closest range": positions come from the orbital elements each beacon
  // advertises, not from a central service.
  const Vec3 userEcef = geodeticToEcef(location_);
  // One-shot selection is a scan: compiling a footprint index for one user
  // costs more than it saves. The batched associateUsers path amortizes
  // the index across users and produces the identical winner (first-wins
  // ascending tie order, same elevation and range expressions).
  const GroundObserver observer(userEcef);
  const ElevationMask mask = ElevationMask::of(minElevationRad);
  double bestRange = std::numeric_limits<double>::infinity();
  std::optional<SatelliteId> best;
  for (const BeaconMessage& b : beacons) {
    requireValidElements(b.elements);
    const Vec3 satEcef = eciToEcef(positionEci(b.elements, tSeconds), tSeconds);
    if (!observer.sees(satEcef, mask)) continue;
    const double range = userEcef.distanceTo(satEcef);
    if (range < bestRange) {
      bestRange = range;
      best = b.satellite;
    }
  }
  return best;
}

std::vector<UserAssociation> associateUsers(
    const std::vector<OrbitalElements>& fleet, double tSeconds,
    const std::vector<Geodetic>& users, double minElevationRad) {
  std::vector<UserAssociation> out(users.size());
  if (fleet.empty() || users.empty()) return out;
  const auto snap = SnapshotCache::global().at(fleet, tSeconds);
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  parallelFor(users.size(), kUserChunk,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t u = begin; u < end; ++u) {
                  const Vec3 userEcef = geodeticToEcef(users[u]);
                  const auto best = footprints->closestVisible(userEcef);
                  if (!best) continue;
                  out[u].covered = true;
                  out[u].satelliteIndex = static_cast<std::uint32_t>(*best);
                  out[u].slantRangeM = userEcef.distanceTo(snap->ecef(*best));
                }
              });
  return out;
}

std::vector<UserAssociation> associateUsers(
    const std::vector<BeaconMessage>& beacons, double tSeconds,
    const std::vector<Geodetic>& users, double minElevationRad) {
  std::vector<OrbitalElements> fleet;
  fleet.reserve(beacons.size());
  for (const BeaconMessage& b : beacons) fleet.push_back(b.elements);
  std::vector<UserAssociation> out =
      associateUsers(fleet, tSeconds, users, minElevationRad);
  for (UserAssociation& a : out) {
    if (a.covered) a.satellite = beacons[a.satelliteIndex].satellite;
  }
  return out;
}

AssociationResult AssociationAgent::associate(
    const std::vector<BeaconMessage>& beacons, const NetworkGraph& graph,
    const TopologyBuilder& topo, const RadiusServer& homeServer,
    NodeId homeGateway, double tSeconds, double minElevationRad,
    const BeaconSchedule& schedule) {
  AssociationResult out;
  state_ = AssociationState::Scanning;
  cert_.reset();
  serving_.reset();

  const auto chosen = selectSatellite(beacons, tSeconds, minElevationRad);
  if (!chosen) {
    out.failureReason = "no OpenSpace satellite above elevation mask";
    return out;
  }

  // Link-layer association can only start at the satellite's next beacon.
  const double beaconAt = schedule.nextBeaconTime(*chosen, tSeconds);
  out.beaconScanLatencyS = beaconAt - tSeconds;

  state_ = AssociationState::Authenticating;
  const NodeId satNode = topo.nodeOf(*chosen);
  out.servingSatellite = *chosen;
  out.servingProvider = graph.node(satNode).provider;

  // RADIUS round trip rides the ISL path serving-satellite -> home gateway.
  const Route toHome =
      RouteEngine(graph, latencyCost()).shortestPath(satNode, homeGateway);
  if (!toHome.valid()) {
    out.failureReason = "home provider unreachable over ISLs";
    state_ = AssociationState::Scanning;
    return out;
  }
  // User->sat uplink leg + request + response (2x path) + processing.
  const Vec3 userEcef = geodeticToEcef(location_);
  const Vec3 satEcef =
      eciToEcef(topo.ephemeris().positionEci(*chosen, beaconAt), beaconAt);
  const double uplinkS = userEcef.distanceTo(satEcef) / kSpeedOfLightMps;
  constexpr double kAaaProcessingS = 5e-3;
  out.authLatencyS = 2.0 * (uplinkS + toHome.totalDelayS()) + kAaaProcessingS;

  AccessRequest req;
  req.user = user_;
  req.homeProvider = home_;
  req.nonce = std::to_string(user_) + '@' + std::to_string(beaconAt);
  req.credentialProof = RadiusServer::proveCredential(secret_, req.nonce);
  const double authDoneS = beaconAt + out.authLatencyS;
  const AccessResponse resp = homeServer.authenticate(req, authDoneS);
  if (!resp.accepted) {
    out.failureReason = "RADIUS reject: " + resp.reason;
    state_ = AssociationState::Scanning;
    return out;
  }

  cert_ = resp.certificate;
  serving_ = *chosen;
  state_ = AssociationState::Associated;
  out.success = true;
  out.certificate = resp.certificate;
  out.totalLatencyS = out.beaconScanLatencyS + out.authLatencyS;
  return out;
}

void AssociationAgent::moveTo(Geodetic newLocation) {
  // Leaving the region invalidates the association (paper: the user must
  // run association + authentication again; rare vs. satellite handoffs).
  location_ = newLocation;
  state_ = AssociationState::Disassociated;
  serving_.reset();
  cert_.reset();
}

void AssociationAgent::adoptSuccessor(SatelliteId successor) {
  if (state_ != AssociationState::Associated) {
    throw StateError("adoptSuccessor: user is not associated");
  }
  serving_ = successor;
}

bool AssociationAgent::adoptSuccessor(SatelliteId successor, double nowS) {
  if (state_ != AssociationState::Associated) {
    throw StateError("adoptSuccessor: user is not associated");
  }
  if (!cert_ || cert_->expired(nowS)) {
    state_ = AssociationState::Disassociated;
    serving_.reset();
    cert_.reset();
    return false;
  }
  serving_ = successor;
  return true;
}

}  // namespace openspace
