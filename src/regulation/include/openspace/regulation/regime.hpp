// Regulatory constraints (paper §5(3)).
//
// "Different countries and regions have varying policies on satellite
// communications, such as different spectrum allocation policies, as well
// as independent licensing requirements. ... there is the question of how
// to maintain a user's data privacy requirements when their traffic is
// routed to a groundstation outside their region."
//
// RegulatoryRegime models jurisdictions as latitude/longitude boxes with:
//  * a spectrum policy (which ground bands may be used there),
//  * per-satellite landing-rights licensing fees,
//  * data-egress rules: which regions' ground stations may carry a user's
//    traffic to the Internet (privacy trust sets).
// complianceConstrainedCost() turns the rules into a routing filter so
// compliant paths come out of the ordinary shortest-path machinery.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <openspace/phy/bands.hpp>
#include <openspace/routing/route.hpp>

namespace openspace {

using RegionId = std::uint32_t;

/// A lat/lon bounding box (degrees would be error-prone here; radians like
/// the rest of the library). Longitude ranges may wrap across the
/// antimeridian (lonMin > lonMax means the box spans it).
struct RegionExtent {
  double latMinRad = 0.0;
  double latMaxRad = 0.0;
  double lonMinRad = 0.0;
  double lonMaxRad = 0.0;

  bool contains(const Geodetic& g) const;
};

/// One jurisdiction's policy.
struct RegionPolicy {
  RegionId id = 0;
  std::string name;
  RegionExtent extent;
  std::vector<Band> allowedGroundBands;  ///< Spectrum allocation policy.
  std::vector<RegionId> trustedRegions;  ///< Data may egress via gateways
                                         ///< here (always includes itself).
  double landingRightsFeeUsd = 0.0;      ///< Per satellite serving the region.
};

/// Registry of jurisdictions with lookup and compliance predicates.
class RegulatoryRegime {
 public:
  /// Register a region. Throws InvalidArgumentError for duplicate ids or
  /// inverted latitude bounds.
  void addRegion(RegionPolicy policy);

  /// The region containing a point (first registered wins on overlap);
  /// nullopt in international/unregistered territory.
  std::optional<RegionId> regionOf(const Geodetic& point) const;

  const RegionPolicy& policy(RegionId id) const;
  std::size_t regionCount() const noexcept { return regions_.size(); }

  /// Is `band` licensed for ground links in `region`?
  bool groundBandAllowed(RegionId region, Band band) const;

  /// May traffic of a user homed in `userRegion` exit to the Internet via
  /// a gateway located in `gatewayRegion`?
  bool egressAllowed(RegionId userRegion, RegionId gatewayRegion) const;

  /// Total landing-rights fees a provider owes to serve all registered
  /// regions with `satellites` spacecraft.
  double totalLandingFeesUsd(int satellites) const;

 private:
  std::vector<RegionPolicy> regions_;
};

/// Wrap a routing cost so the path is regulation-compliant for a user
/// homed in `userRegion`:
///  * ground links (GSL/user) whose ground endpoint sits in a region where
///    the link's band is not licensed become unroutable;
///  * GSL links into gateways in regions `userRegion` does not trust are
///    unroutable (data-privacy egress rule). Gateways in unregistered
///    territory are treated as untrusted.
/// `regime` is captured by reference and must outlive every holder of the
/// returned cost (an IncrementalTopology keeps it for its whole sweep).
LinkCostFn complianceConstrainedCost(LinkCostFn base,
                                     const RegulatoryRegime& regime,
                                     RegionId userRegion);

/// Convenience: a three-region example regime (Americas / EMEA / APAC)
/// with divergent band and trust policies, used by tests and benches.
RegulatoryRegime exampleGlobalRegime();

}  // namespace openspace
