#include <openspace/regulation/regime.hpp>

#include <algorithm>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>

namespace openspace {

bool RegionExtent::contains(const Geodetic& g) const {
  if (g.latitudeRad < latMinRad || g.latitudeRad > latMaxRad) return false;
  if (lonMinRad <= lonMaxRad) {
    return g.longitudeRad >= lonMinRad && g.longitudeRad <= lonMaxRad;
  }
  // Wrapping box across the antimeridian.
  return g.longitudeRad >= lonMinRad || g.longitudeRad <= lonMaxRad;
}

void RegulatoryRegime::addRegion(RegionPolicy policy) {
  if (policy.extent.latMinRad > policy.extent.latMaxRad) {
    throw InvalidArgumentError("addRegion: inverted latitude bounds");
  }
  for (const auto& r : regions_) {
    if (r.id == policy.id) {
      throw InvalidArgumentError("addRegion: duplicate region id");
    }
  }
  // A region always trusts itself.
  if (std::find(policy.trustedRegions.begin(), policy.trustedRegions.end(),
                policy.id) == policy.trustedRegions.end()) {
    policy.trustedRegions.push_back(policy.id);
  }
  regions_.push_back(std::move(policy));
}

std::optional<RegionId> RegulatoryRegime::regionOf(const Geodetic& point) const {
  for (const auto& r : regions_) {
    if (r.extent.contains(point)) return r.id;
  }
  return std::nullopt;
}

const RegionPolicy& RegulatoryRegime::policy(RegionId id) const {
  for (const auto& r : regions_) {
    if (r.id == id) return r;
  }
  throw NotFoundError("RegulatoryRegime: unknown region " + std::to_string(id));
}

bool RegulatoryRegime::groundBandAllowed(RegionId region, Band band) const {
  const RegionPolicy& p = policy(region);
  return std::find(p.allowedGroundBands.begin(), p.allowedGroundBands.end(),
                   band) != p.allowedGroundBands.end();
}

bool RegulatoryRegime::egressAllowed(RegionId userRegion,
                                     RegionId gatewayRegion) const {
  const RegionPolicy& p = policy(userRegion);
  return std::find(p.trustedRegions.begin(), p.trustedRegions.end(),
                   gatewayRegion) != p.trustedRegions.end();
}

double RegulatoryRegime::totalLandingFeesUsd(int satellites) const {
  if (satellites < 0) {
    throw InvalidArgumentError("totalLandingFeesUsd: negative fleet");
  }
  double total = 0.0;
  for (const auto& r : regions_) total += r.landingRightsFeeUsd * satellites;
  return total;
}

LinkCostFn complianceConstrainedCost(LinkCostFn base,
                                     const RegulatoryRegime& regime,
                                     RegionId userRegion) {
  return [base = std::move(base), &regime, userRegion](
             const Link& l, const Node& a, const Node& b,
             ProviderId home) -> double {
    constexpr double kForbidden = std::numeric_limits<double>::infinity();
    if (l.type == LinkType::Gsl || l.type == LinkType::UserLink) {
      // Identify the ground endpoint.
      const Node& ground = a.isSatellite() ? b : a;
      if (!ground.location) return kForbidden;  // malformed: be safe
      const auto region = regime.regionOf(*ground.location);
      // Spectrum policy: the ground link's band must be licensed locally.
      if (region && !regime.groundBandAllowed(*region, l.band)) {
        return kForbidden;
      }
      // Privacy egress policy applies to gateways (Internet exits).
      if (l.type == LinkType::Gsl) {
        if (!region) return kForbidden;  // unregistered territory: untrusted
        if (!regime.egressAllowed(userRegion, *region)) return kForbidden;
      }
    }
    return base(l, a, b, home);
  };
}

RegulatoryRegime exampleGlobalRegime() {
  RegulatoryRegime regime;

  RegionPolicy americas;
  americas.id = 1;
  americas.name = "Americas";
  americas.extent = {deg2rad(-60.0), deg2rad(75.0), deg2rad(-170.0),
                     deg2rad(-30.0)};
  americas.allowedGroundBands = {Band::Ku, Band::Ka};
  americas.trustedRegions = {2};  // trusts EMEA gateways (plus itself)
  americas.landingRightsFeeUsd = 12'145.0;
  regime.addRegion(americas);

  RegionPolicy emea;
  emea.id = 2;
  emea.name = "EMEA";
  emea.extent = {deg2rad(-40.0), deg2rad(75.0), deg2rad(-30.0), deg2rad(60.0)};
  emea.allowedGroundBands = {Band::Ku};
  emea.trustedRegions = {1};  // mutual trust with Americas
  emea.landingRightsFeeUsd = 9'500.0;
  regime.addRegion(emea);

  RegionPolicy apac;
  apac.id = 3;
  apac.name = "APAC";
  apac.extent = {deg2rad(-50.0), deg2rad(60.0), deg2rad(60.0),
                 deg2rad(-170.0)};  // wraps the antimeridian
  apac.allowedGroundBands = {Band::Ku, Band::Ka};
  apac.trustedRegions = {};  // strict data-localization: only itself
  apac.landingRightsFeeUsd = 15'000.0;
  regime.addRegion(apac);

  return regime;
}

}  // namespace openspace
