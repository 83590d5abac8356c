#include <openspace/orbit/visibility.hpp>

#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>

#include "scan_range.hpp"

namespace openspace {

namespace {
constexpr double kHalfPi = std::numbers::pi / 2.0;

// Written as negated in-range tests so that NaN, which fails every ordered
// comparison, is rejected too.
void checkFootprintArgs(double altitudeM, double minElevationRad) {
  if (!(altitudeM > 0.0)) {
    throw InvalidArgumentError("footprint: altitude must be > 0");
  }
  if (!(minElevationRad >= 0.0 && minElevationRad <= kHalfPi)) {
    throw InvalidArgumentError("footprint: elevation must be in [0, pi/2]");
  }
}
}  // namespace

double footprintHalfAngleRad(double altitudeM, double minElevationRad) {
  checkFootprintArgs(altitudeM, minElevationRad);
  const double re = wgs84::kMeanRadiusM;
  const double ratio = re / (re + altitudeM) * std::cos(minElevationRad);
  return std::acos(ratio) - minElevationRad;
}

double maxSlantRangeM(double altitudeM, double minElevationRad) {
  checkFootprintArgs(altitudeM, minElevationRad);
  // Law of cosines in the Earth-center / ground / satellite triangle with
  // the central angle lambda between ground point and sub-satellite point.
  const double re = wgs84::kMeanRadiusM;
  const double rs = re + altitudeM;
  const double lambda = footprintHalfAngleRad(altitudeM, minElevationRad);
  return std::sqrt(re * re + rs * rs - 2.0 * re * rs * std::cos(lambda));
}

double elevationFrom(const Vec3& satEci, const Geodetic& ground, double tSeconds) {
  return GroundObserver(ground).elevationTo(eciToEcef(satEci, tSeconds));
}

bool isVisible(const Vec3& satEci, const Geodetic& ground, double tSeconds,
               double minElevationRad) {
  return GroundObserver(ground).sees(eciToEcef(satEci, tSeconds),
                                     ElevationMask::of(minElevationRad));
}

std::vector<ContactWindow> contactWindows(const OrbitalElements& el,
                                          const Geodetic& ground, double t0S,
                                          double t1S, double minElevationRad,
                                          double stepS) {
  checkScanRange("contactWindows", t0S, t1S, stepS);

  const GroundObserver site(ground);
  const ElevationMask mask = ElevationMask::of(minElevationRad);
  const auto above = [&](double t) {
    return site.sees(eciToEcef(positionEci(el, t), t), mask);
  };
  // Bisect a rise/set edge between tLo (state `lo`) and tHi to ~1 ms.
  const auto refine = [&](double tLo, double tHi, bool lo) {
    for (int i = 0; i < 40 && (tHi - tLo) > 1e-3; ++i) {
      const double mid = 0.5 * (tLo + tHi);
      if (above(mid) == lo) {
        tLo = mid;
      } else {
        tHi = mid;
      }
    }
    return 0.5 * (tLo + tHi);
  };

  std::vector<ContactWindow> windows;
  bool prev = above(t0S);
  double windowStart = prev ? t0S : 0.0;
  double prevT = t0S;
  for (double t = t0S + stepS; t < t1S + stepS; t += stepS) {
    const double tc = std::min(t, t1S);
    const bool cur = above(tc);
    if (cur && !prev) {
      windowStart = refine(prevT, tc, /*lo=*/false);
    } else if (!cur && prev) {
      windows.push_back({windowStart, refine(prevT, tc, /*lo=*/true)});
    }
    prev = cur;
    prevT = tc;
    if (tc >= t1S) break;
  }
  if (prev) windows.push_back({windowStart, t1S});
  return windows;
}

}  // namespace openspace
