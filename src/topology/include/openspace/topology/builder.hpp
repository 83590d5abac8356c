// Snapshot builder: geometry + capabilities -> NetworkGraph at time t.
//
// The builder owns the stable node table (satellites from the shared
// ephemeris, ground stations and users at fixed sites) and materializes a
// topology snapshot for any instant: which ISLs exist under the configured
// wiring policy, which ground links are above the elevation mask, and what
// capacity each link closes at given the standardized terminals.
#pragma once

#include <cstdint>
#include <unordered_map>

#include <openspace/mac/beacon.hpp>
#include <openspace/phy/terminal.hpp>
#include <openspace/topology/graph.hpp>

namespace openspace {

/// A fixed ground site (station or user).
struct GroundSite {
  std::string name;
  Geodetic location;
  ProviderId provider{};
};

/// How ISLs are wired in a snapshot.
enum class IslWiring {
  /// +grid: intra-plane ring neighbors plus same-slot neighbors in adjacent
  /// planes. Requires plane geometry (Walker constellations); the paper
  /// notes Walker Star's "relative simplicity in establishing ISLs both on
  /// the same orbital plane and adjacent planes".
  PlusGrid,
  /// Each satellite pairs with its k nearest line-of-sight neighbors —
  /// the general policy for uncoordinated multi-provider fleets.
  NearestNeighbors,
  /// Every line-of-sight pair within range (small constellations only).
  AllInRange,
};

/// Snapshot construction options.
struct SnapshotOptions {
  IslWiring wiring = IslWiring::NearestNeighbors;
  int nearestK = 4;                   ///< For NearestNeighbors.
  int planes = 0;                     ///< For PlusGrid: plane count.
  bool interPlaneSeam = false;        ///< PlusGrid: wire across the Walker seam.
  double maxIslRangeM = 6'000'000.0;  ///< ISLs longer than this do not close.
  double minElevationRad = 0.0;       ///< Elevation mask for ground links
                                      ///< (default ~0: horizon).
  bool includeUserLinks = true;
  bool includeGroundStations = true;
  /// If both endpoints advertise laser terminals, upgrade the ISL to
  /// optical (§2.1: RF minimum, laser optional).
  bool preferLaser = true;
};

class TopologyBuilder {
 public:
  /// A registered ground site and its stable node id.
  struct SiteEntry {
    NodeId node;
    GroundSite site;
  };

  /// The ephemeris service must outlive the builder.
  explicit TopologyBuilder(const EphemerisService& ephemeris);

  /// Satellites default to RF-only (S-band + UHF) capabilities; override
  /// per satellite to add laser terminals etc. Throws NotFoundError for
  /// satellites absent from the ephemeris.
  void setCapabilities(SatelliteId id, LinkCapabilities caps);

  const LinkCapabilities& capabilities(SatelliteId id) const;

  /// Register a ground station; returns its stable typed handle.
  GroundStationId addGroundStation(GroundSite site);
  NodeId addUser(GroundSite site);

  /// NodeId of a satellite (assigned at construction, ephemeris order).
  NodeId nodeOf(SatelliteId id) const;
  /// NodeId of a registered ground station. Throws NotFoundError.
  NodeId nodeOf(GroundStationId id) const;
  /// SatelliteId behind a node. Throws if the node is not a satellite.
  SatelliteId satelliteOf(NodeId id) const;
  /// All registered ground stations, in registration order.
  std::vector<GroundStationId> groundStations() const;

  /// Materialize the topology at time t: every node, then the links of the
  /// one snapshot link enumeration IncrementalTopology also runs. Throws
  /// InvalidArgumentError for a NaN maxIslRangeM or minElevationRad, a
  /// negative nearestK, and PlusGrid options without planes dividing the
  /// fleet or that wire a satellite to itself.
  NetworkGraph snapshot(double tSeconds, const SnapshotOptions& opt) const;

  /// The nodes of a snapshot under `opt`, in snapshot order: the fleet in
  /// ephemeris order, then the ground stations, then the users (each in
  /// registration order, each behind its flag). snapshot() emits exactly
  /// these; IncrementalTopology numbers its node table from them.
  std::vector<Node> snapshotNodes(const SnapshotOptions& opt) const;

  const EphemerisService& ephemeris() const noexcept { return ephemeris_; }
  /// Bumped by every setCapabilities() call. Lets per-step consumers
  /// (IncrementalTopology) skip re-reading all capabilities when nothing
  /// changed, without weakening the "capabilities may change mid-sweep"
  /// contract.
  std::uint64_t capabilitiesVersion() const noexcept { return capsVersion_; }
  std::size_t satelliteCount() const noexcept { return satNodes_.size(); }
  std::size_t groundStationCount() const noexcept { return stations_.size(); }
  std::size_t userCount() const noexcept { return users_.size(); }

  /// Registered ground stations / users in registration order — the order
  /// snapshot() emits their nodes and ground links in. The test-only spec
  /// legacy::topologySnapshot reads them to rebuild a snapshot from this
  /// public interface alone.
  const std::vector<SiteEntry>& stationSites() const noexcept { return stations_; }
  const std::vector<SiteEntry>& userSites() const noexcept { return users_; }

 private:
  const EphemerisService& ephemeris_;
  std::unordered_map<SatelliteId, NodeId> satNodes_;
  std::unordered_map<NodeId, SatelliteId> nodeSats_;
  std::unordered_map<SatelliteId, LinkCapabilities> caps_;
  std::uint64_t capsVersion_ = 0;
  std::vector<SiteEntry> stations_;
  std::vector<SiteEntry> users_;
  NodeId::rep_type nextNodeValue_ = 1;
};

/// Capacity (bps) an ISL closes at over `distanceM` using the standardized
/// terminals: optical if `laser`, else S-band radios. Returns 0 if the
/// MODCOD ladder cannot close the link at that distance.
double islCapacityBps(double distanceM, bool laser);

/// Capacity of a satellite<->ground-station (gateway) link at `distanceM`
/// and `elevationRad` (atmospheric loss applies), standardized Ku terminals.
double gslCapacityBps(double distanceM, double elevationRad);

/// Capacity of a satellite<->user-terminal link.
double userLinkCapacityBps(double distanceM, double elevationRad);

}  // namespace openspace
