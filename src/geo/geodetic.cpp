#include <openspace/geo/geodetic.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>

namespace openspace {

namespace {
constexpr double kPi = std::numbers::pi;

/// The squared magnitudes sees() decides without the exact path. Inside
/// this range every product and square root of its fast path is a normal
/// double, so the rounding bound of its soundness argument holds; outside
/// it (and for NaN) the exact elevation decides.
constexpr double kFastNorm2Min = 1e-200;  // units: m^2
constexpr double kFastNorm2Max = 1e200;   // units: m^2

bool inFastRange(double norm2) {
  return norm2 >= kFastNorm2Min && norm2 <= kFastNorm2Max;
}
}  // namespace

Geodetic Geodetic::fromDegrees(double latDeg, double lonDeg, double altM) {
  return Geodetic{deg2rad(latDeg), deg2rad(lonDeg), altM};
}

Vec3 geodeticToEcef(const Geodetic& g) {
  if (g.latitudeRad < -kPi / 2.0 - 1e-12 || g.latitudeRad > kPi / 2.0 + 1e-12) {
    throw InvalidArgumentError("geodeticToEcef: latitude out of [-pi/2, pi/2]");
  }
  const double sinLat = std::sin(g.latitudeRad);
  const double cosLat = std::cos(g.latitudeRad);
  // Prime-vertical radius of curvature.
  const double n = wgs84::kSemiMajorAxisM /
                   std::sqrt(1.0 - wgs84::kEccentricitySquared * sinLat * sinLat);
  return {(n + g.altitudeM) * cosLat * std::cos(g.longitudeRad),
          (n + g.altitudeM) * cosLat * std::sin(g.longitudeRad),
          (n * (1.0 - wgs84::kEccentricitySquared) + g.altitudeM) * sinLat};
}

Geodetic ecefToGeodetic(const Vec3& ecef) {
  const double a = wgs84::kSemiMajorAxisM;
  const double b = wgs84::kSemiMinorAxisM;
  const double e2 = wgs84::kEccentricitySquared;
  const double p = std::hypot(ecef.x, ecef.y);

  // Bowring's initial guess.
  const double ep2 = (a * a - b * b) / (b * b);
  const double theta = std::atan2(ecef.z * a, p * b);
  double lat = std::atan2(ecef.z + ep2 * b * std::pow(std::sin(theta), 3),
                          p - e2 * a * std::pow(std::cos(theta), 3));

  // Two fixed-point refinements: recompute N and altitude from the current
  // latitude estimate. Converges to sub-mm for |alt| < a few thousand km.
  double n = a;
  double alt = 0.0;
  for (int i = 0; i < 2; ++i) {
    const double sinLat = std::sin(lat);
    n = a / std::sqrt(1.0 - e2 * sinLat * sinLat);
    alt = p / std::cos(lat) - n;
    lat = std::atan2(ecef.z, p * (1.0 - e2 * n / (n + alt)));
  }
  const double sinLat = std::sin(lat);
  n = a / std::sqrt(1.0 - e2 * sinLat * sinLat);
  // Near the poles p/cos(lat) blows up; use the Z-based altitude there.
  const double cosLat = std::cos(lat);
  if (std::abs(cosLat) > 1e-8) {
    alt = p / cosLat - n;
  } else {
    alt = std::abs(ecef.z) - b;
  }
  return {lat, std::atan2(ecef.y, ecef.x), alt};
}

Vec3 eciToEcef(const Vec3& eci, double tSeconds) {
  // ECEF rotates by +omega*t about Z relative to ECI, so the coordinate
  // transform applies a -omega*t rotation to the vector components.
  const double ang = -wgs84::kEarthRotationRadPerS * tSeconds;
  const double c = std::cos(ang);
  const double s = std::sin(ang);
  return {c * eci.x - s * eci.y, s * eci.x + c * eci.y, eci.z};
}

Vec3 ecefToEci(const Vec3& ecef, double tSeconds) {
  const double ang = wgs84::kEarthRotationRadPerS * tSeconds;
  const double c = std::cos(ang);
  const double s = std::sin(ang);
  return {c * ecef.x - s * ecef.y, s * ecef.x + c * ecef.y, ecef.z};
}

double centralAngleRad(const Geodetic& a, const Geodetic& b) {
  // Haversine formulation: numerically stable for small separations.
  const double dLat = b.latitudeRad - a.latitudeRad;
  const double dLon = b.longitudeRad - a.longitudeRad;
  const double sinDLat = std::sin(dLat / 2.0);
  const double sinDLon = std::sin(dLon / 2.0);
  const double h = sinDLat * sinDLat +
                   std::cos(a.latitudeRad) * std::cos(b.latitudeRad) * sinDLon * sinDLon;
  return 2.0 * std::asin(std::min(1.0, std::sqrt(h)));
}

double greatCircleDistanceM(const Geodetic& a, const Geodetic& b) {
  return wgs84::kMeanRadiusM * centralAngleRad(a, b);
}

double elevationAngleRad(const Vec3& observer, const Vec3& target) {
  return GroundObserver(observer).elevationTo(target);
}

ElevationMask ElevationMask::of(double maskRad) noexcept {
  ElevationMask mask;
  mask.maskRad_ = maskRad;
  if (maskRad >= -kPi / 2.0 && maskRad <= kPi / 2.0) {
    const double s = std::sin(maskRad);
    mask.sinLo_ = s - kBand;
    mask.sinHi_ = s + kBand;
  } else {
    // sin is not monotone out here: no fast verdict is sound.
    mask.sinLo_ = -std::numeric_limits<double>::infinity();
    mask.sinHi_ = std::numeric_limits<double>::infinity();
  }
  return mask;
}

GroundObserver::GroundObserver(const Vec3& ecef) noexcept
    : ecef_(ecef),
      up_(ecef.normalized()),  // local vertical (spherical model)
      upNorm_(up_.norm()),
      radiusM_(ecef.norm()),
      fastPath_(inFastRange(ecef.normSquared())) {}

GroundObserver::GroundObserver(const Geodetic& site)
    : GroundObserver(geodeticToEcef(site)) {}

double GroundObserver::elevationTo(const Vec3& targetEcef) const noexcept {
  // angleBetween(up_, losDir) with the observer-only factor hoisted: the
  // same operands in the same order, so the result is bit-identical. Both
  // factors of the denominator are norms of normalized vectors (~1 or NaN),
  // so angleBetween's zero-length throw cannot fire here.
  const Vec3 losDir = (targetEcef - ecef_).normalized();
  const double denom = upNorm_ * losDir.norm();
  const double c = std::clamp(up_.dot(losDir) / denom, -1.0, 1.0);
  return kPi / 2.0 - std::acos(c);
}

bool GroundObserver::sees(const Vec3& targetEcef,
                          const ElevationMask& mask) const noexcept {
  // Soundness of the fast verdicts. elevationTo is pi/2 - acos(c), with c
  // the line-of-sight cosine to the vertical; both c and up·d / |d| lie
  // within ~1e-15 of the true sine of the elevation (a dot product's
  // rounding is bounded by |up||d| times a few ULP, whatever the
  // cancellation). asin' >= 1 on [-1, 1], so a sine that clears the mask's
  // sine by the 1e-9 band puts the elevation at least 1e-9 rad past the
  // mask, where the acos and the final subtraction (a few 1e-16 rad)
  // cannot reach. Every NaN, a zero d and every infinity fail the range
  // checks or both comparisons and get the exact verdict.
  const Vec3 d = targetEcef - ecef_;
  const double n2 = d.normSquared();
  if (fastPath_ && inFastRange(n2)) {
    const double s = up_.dot(d);
    // At or below the horizon under a positive band: the verdict the band
    // test below reaches, without its square root.
    if (s <= 0.0 && mask.sinLo() > 0.0) return false;
    const double n = std::sqrt(n2);
    if (s > mask.sinHi() * n) return true;
    if (s < mask.sinLo() * n) return false;
  }
  return elevationTo(targetEcef) >= mask.rad();
}

double slantRangeM(const Vec3& a, const Vec3& b) { return a.distanceTo(b); }

bool lineOfSightClear(const Vec3& a, const Vec3& b, double clearanceM) {
  const double blockRadius = wgs84::kMeanRadiusM + clearanceM;
  const Vec3 d = b - a;
  const double len2 = d.normSquared();
  if (len2 == 0.0) return a.norm() >= blockRadius;
  // Closest point on segment AB to the Earth's center (origin).
  const double t = std::clamp(-a.dot(d) / len2, 0.0, 1.0);
  const Vec3 closest = a + d * t;
  return closest.norm() >= blockRadius;
}

double angleBetween(const Vec3& a, const Vec3& b) {
  const double denom = a.norm() * b.norm();
  if (denom == 0.0) {
    throw InvalidArgumentError("angleBetween: zero-length vector");
  }
  const double c = std::clamp(a.dot(b) / denom, -1.0, 1.0);
  return std::acos(c);
}

}  // namespace openspace
