#include <openspace/sim/session_scenarios.hpp>

#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>

namespace openspace {

namespace {

/// A surface point uniformly distributed (by area) within `radiusM` of
/// `center`: draw a bearing and an area-uniform central angle, walk the
/// great circle. Deterministic given the Rng.
Geodetic pointNear(const Geodetic& center, double radiusM, Rng& rng) {
  const double maxAngle = radiusM / wgs84::kMeanRadiusM;
  const double u = rng.uniform(0.0, 1.0);
  const double angle =
      std::acos(1.0 - u * (1.0 - std::cos(maxAngle)));  // area-uniform
  const double bearing = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double lat1 = center.latitudeRad;
  const double lat2 = std::asin(std::sin(lat1) * std::cos(angle) +
                                std::cos(lat1) * std::sin(angle) *
                                    std::cos(bearing));
  const double lon2 =
      center.longitudeRad +
      std::atan2(std::sin(bearing) * std::sin(angle) * std::cos(lat1),
                 std::cos(angle) - std::sin(lat1) * std::sin(lat2));
  return Geodetic{lat2, lon2, 0.0};
}

}  // namespace

std::vector<SessionSeed> issueSeedCertificates(
    const CertificateAuthority& authority,
    const std::vector<SampledUser>& users, UserId firstUser, double nowS) {
  std::vector<SessionSeed> seeds;
  seeds.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserId uid = firstUser + i;
    const Certificate cert = authority.issue(uid, nowS);
    seeds.push_back(
        SessionSeed{uid, users[i].location, cert.expiresAtS, cert.tag});
  }
  return seeds;
}

std::vector<SessionSeed> flashCrowdSeeds(const CertificateAuthority& authority,
                                         const Geodetic& center, double radiusM,
                                         std::size_t count, UserId firstUser,
                                         double nowS, Rng& rng) {
  if (!(radiusM >= 0.0)) {
    throw InvalidArgumentError("flashCrowdSeeds: radius must be >= 0");
  }
  std::vector<SampledUser> users;
  users.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    users.push_back(SampledUser{pointNear(center, radiusM, rng), 1.0});
  }
  return issueSeedCertificates(authority, users, firstUser, nowS);
}

}  // namespace openspace
