#include <openspace/sim/population.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

/// Angular scatter of a city user around its center: ~200 km.
constexpr double kScatterRad = 200e3 / wgs84::kMeanRadiusM;

}  // namespace

PopulationModel::PopulationModel(std::vector<PopulationCenter> centers,
                                 double ruralFraction)
    : centers_(std::move(centers)), ruralFraction_(ruralFraction) {
  if (centers_.empty()) {
    throw InvalidArgumentError("PopulationModel: at least one center required");
  }
  if (!(ruralFraction >= 0.0 && ruralFraction <= 1.0)) {
    throw InvalidArgumentError("PopulationModel: rural fraction outside [0,1]");
  }
  draws_.reserve(centers_.size());
  for (const auto& c : centers_) {
    if (c.weightMillions <= 0.0) {
      throw InvalidArgumentError("PopulationModel: center weight must be > 0");
    }
    totalWeight_ += c.weightMillions;
    draws_.push_back({c.location.latitudeRad, c.location.longitudeRad,
                      c.weightMillions,
                      kScatterRad / std::max(0.2, std::cos(c.location.latitudeRad)),
                      1.0 + c.weightMillions / 5.0});
  }
}

std::vector<SampledUser> PopulationModel::sampleUsers(int n, Rng& rng) const {
  if (n < 0) throw InvalidArgumentError("sampleUsers: n must be >= 0");
  std::vector<SampledUser> users;
  users.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SampledUser u;
    if (rng.chance(ruralFraction_)) {
      // Rural: area-uniform, clipped to inhabited latitudes.
      do {
        u.location = rng.surfacePoint();
      } while (std::abs(u.location.latitudeRad) > deg2rad(65.0));
      u.weight = 1.0;
    } else {
      // Urban: pick a center weighted by population, scatter ~200 km.
      double pick = rng.uniform(0.0, totalWeight_);
      const CenterDraw* chosen = &draws_.back();
      for (const CenterDraw& c : draws_) {
        pick -= c.weightMillions;
        if (pick <= 0.0) {
          chosen = &c;
          break;
        }
      }
      u.location.latitudeRad =
          std::clamp(chosen->latitudeRad + rng.normal(0.0, kScatterRad),
                     -std::numbers::pi / 2, std::numbers::pi / 2);
      u.location.longitudeRad = std::remainder(
          chosen->longitudeRad + rng.normal(0.0, chosen->lonScatterRad),
          2.0 * std::numbers::pi);
      u.weight = chosen->userWeight;  // urban demand density
    }
    users.push_back(u);
  }
  return users;
}

double PopulationModel::demandWeightedCoverage(
    const std::vector<OrbitalElements>& sats, double tSeconds,
    double minElevationRad, int samples, Rng& rng) const {
  if (samples <= 0) {
    throw InvalidArgumentError("demandWeightedCoverage: samples must be > 0");
  }
  if (sats.empty()) return 0.0;
  const auto snap = SnapshotCache::global().at(sats, tSeconds);
  // Users are sampled before any visibility work, exactly as the brute
  // loop did, so the RNG draw sequence is unchanged; the footprint index
  // then answers each user's any-visible query over O(candidates)
  // satellites with the same elevationAngleRad predicate the brute scan
  // applied (an order-independent boolean, so the result bits match).
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  const auto users = sampleUsers(samples, rng);
  double total = 0.0;
  double covered = 0.0;
  for (const SampledUser& u : users) {
    total += u.weight;
    const Vec3 userEcef = geodeticToEcef(u.location);
    if (footprints->anyVisibleFrom(userEcef)) covered += u.weight;
  }
  return (total > 0.0) ? covered / total : 0.0;
}

double diurnalDemandFactor(double utcSeconds, double longitudeRad) {
  // Local solar time offset: 1 rad of east longitude = 86400/(2*pi) s.
  const double localS =
      utcSeconds + longitudeRad * 86'400.0 / (2.0 * std::numbers::pi);
  const double dayFrac =
      std::fmod(std::fmod(localS, 86'400.0) + 86'400.0, 86'400.0) / 86'400.0;
  // Cosine bump peaking at 20:00 local (dayFrac ~0.833), trough at 08:00.
  const double peakPhase = 2.0 * std::numbers::pi * (dayFrac - 20.0 / 24.0);
  return 0.65 + 0.35 * std::cos(peakPhase);
}

PopulationModel defaultWorldPopulation() {
  std::vector<PopulationCenter> centers = {
      {"tokyo", Geodetic::fromDegrees(35.68, 139.69), 37.0},
      {"delhi", Geodetic::fromDegrees(28.61, 77.21), 32.0},
      {"shanghai", Geodetic::fromDegrees(31.23, 121.47), 28.0},
      {"sao-paulo", Geodetic::fromDegrees(-23.55, -46.63), 22.0},
      {"mexico-city", Geodetic::fromDegrees(19.43, -99.13), 22.0},
      {"cairo", Geodetic::fromDegrees(30.04, 31.24), 21.0},
      {"mumbai", Geodetic::fromDegrees(19.08, 72.88), 21.0},
      {"beijing", Geodetic::fromDegrees(39.90, 116.41), 21.0},
      {"dhaka", Geodetic::fromDegrees(23.81, 90.41), 22.0},
      {"osaka", Geodetic::fromDegrees(34.69, 135.50), 19.0},
      {"new-york", Geodetic::fromDegrees(40.71, -74.01), 19.0},
      {"karachi", Geodetic::fromDegrees(24.86, 67.01), 17.0},
      {"lagos", Geodetic::fromDegrees(6.52, 3.38), 15.0},
      {"istanbul", Geodetic::fromDegrees(41.01, 28.98), 15.0},
      {"kinshasa", Geodetic::fromDegrees(-4.44, 15.27), 15.0},
      {"london", Geodetic::fromDegrees(51.51, -0.13), 11.0},
      {"paris", Geodetic::fromDegrees(48.86, 2.35), 11.0},
      {"jakarta", Geodetic::fromDegrees(-6.21, 106.85), 11.0},
      {"moscow", Geodetic::fromDegrees(55.76, 37.62), 12.0},
      {"los-angeles", Geodetic::fromDegrees(34.05, -118.24), 13.0},
      {"nairobi", Geodetic::fromDegrees(-1.29, 36.82), 5.0},
      {"sydney", Geodetic::fromDegrees(-33.87, 151.21), 5.0},
      {"anchorage", Geodetic::fromDegrees(61.22, -149.90), 0.4},
      {"reykjavik", Geodetic::fromDegrees(64.15, -21.94), 0.2},
  };
  return PopulationModel(std::move(centers), 0.30);
}

}  // namespace openspace
