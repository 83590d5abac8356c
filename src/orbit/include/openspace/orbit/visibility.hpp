// Satellite-to-ground visibility and contact-window prediction.
#pragma once

#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

/// Earth central half-angle of the coverage footprint of a satellite at
/// `altitudeM`, for ground terminals requiring at least `minElevationRad`
/// elevation: lambda = acos(Re/(Re+h) * cos(e)) - e (spherical Earth).
/// Throws InvalidArgumentError for altitude <= 0 or elevation outside
/// [0, pi/2].
double footprintHalfAngleRad(double altitudeM, double minElevationRad);

/// Slant range (meters) from a ground terminal at `minElevationRad` to a
/// satellite at `altitudeM` — the maximum usable link distance.
double maxSlantRangeM(double altitudeM, double minElevationRad);

/// True if the satellite at ECI position `satEci` (time `tSeconds`) is above
/// `minElevationRad` as seen from geodetic ground point `ground`.
bool isVisible(const Vec3& satEci, const Geodetic& ground, double tSeconds,
               double minElevationRad);

/// Elevation (radians) of the satellite as seen from the ground point at
/// time t; negative when below the horizon.
double elevationFrom(const Vec3& satEci, const Geodetic& ground, double tSeconds);

/// A time interval during which a satellite is visible from a ground point.
struct ContactWindow {
  double startS = 0.0;
  double endS = 0.0;
  double durationS() const { return endS - startS; }
};

/// Predict all visibility windows of `el` from `ground` over [t0S, t1S].
/// Coarse-samples at `stepS` then refines each edge by bisection to ~1 ms.
/// Windows truncated by the interval boundaries are reported truncated.
/// Throws InvalidArgumentError for the ranges groundTrack rejects.
std::vector<ContactWindow> contactWindows(const OrbitalElements& el,
                                          const Geodetic& ground, double t0S,
                                          double t1S, double minElevationRad,
                                          double stepS = 10.0);

}  // namespace openspace
