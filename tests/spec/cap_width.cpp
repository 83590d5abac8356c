#include <openspace/spec/cap_width.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

namespace openspace {

double capLonHalfWidthRad(double centerLatRad, double capRadiusRad,
                          double latLoRad, double latHiRad) {
  constexpr double kPi = std::numbers::pi;
  if (latLoRad > latHiRad) std::swap(latLoRad, latHiRad);
  const double sinLat = std::sin(centerLatRad);
  const double cosLat = std::cos(centerLatRad);
  const double cosRadius = std::cos(capRadiusRad);
  if (capRadiusRad < 0.0) return 0.0;
  // The whole sphere, or radius >= pi/2, where the tangent formula below
  // degenerates (the cap covers a hemisphere or more and can wrap a pole):
  // every longitude counts.
  if (capRadiusRad >= kPi || cosRadius <= 1e-12) return kPi;
  // From the spherical law of cosines:
  // cos(radius) = sin(c) sin(p) + cos(c) cos(p) cos(dLon).
  const auto widthAt = [&](double latRad) {
    const double denom = cosLat * std::cos(latRad);
    // Query latitude (or the center) at a pole: every longitude counts.
    if (denom <= 1e-15) return kPi;
    const double c = (cosRadius - sinLat * std::sin(latRad)) / denom;
    if (c <= -1.0) return kPi;  // whole latitude circle inside the cap
    if (c >= 1.0) return 0.0;   // latitude circle outside the cap's reach
    return std::acos(c);
  };
  double w = std::max(widthAt(latLoRad), widthAt(latHiRad));
  // The width is unimodal between the cap's latitude extremes, peaking at
  // the tangent latitude where the cap's bounding meridians touch it:
  // sin(phi*) = sin(centerLat) / cos(radius).
  const double s = sinLat / cosRadius;
  if (s >= -1.0 && s <= 1.0) {
    const double tangentLatRad = std::asin(s);
    if (tangentLatRad > latLoRad && tangentLatRad < latHiRad) {
      w = std::max(w, widthAt(tangentLatRad));
    }
  }
  return w;
}

}  // namespace openspace
