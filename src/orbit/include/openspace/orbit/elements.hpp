// Keplerian orbital elements and derived quantities.
#pragma once

#include <ostream>
#include <vector>

#include <openspace/geo/vec3.hpp>

namespace openspace {

/// Classical Keplerian elements of an Earth orbit.
///
/// The simulator models two-body motion (no J2/drag): the paper's routing
/// and coverage arguments rest only on orbits being *deterministic and
/// publicly predictable*, which two-body propagation provides exactly.
struct OrbitalElements {
  double semiMajorAxisM = 0.0;      ///< > Earth radius for LEO.
  double eccentricity = 0.0;        ///< [0, 1); most constellation orbits ~0.
  double inclinationRad = 0.0;      ///< [0, pi].
  double raanRad = 0.0;             ///< Right ascension of ascending node.
  double argPerigeeRad = 0.0;       ///< Argument of perigee.
  double meanAnomalyAtEpochRad = 0.0;

  /// Circular-orbit convenience factory: altitude above the mean-radius
  /// Earth, inclination, RAAN and the satellite's initial phase along the
  /// orbit. Throws InvalidArgumentError for non-positive altitude.
  static OrbitalElements circular(double altitudeM, double inclinationRad,
                                  double raanRad, double phaseRad);

  /// Orbital period, seconds (Kepler's third law).
  double periodS() const;

  /// Mean motion, rad/s.
  double meanMotionRadPerS() const;

  /// Altitude above the mean-radius Earth at perigee, meters.
  double perigeeAltitudeM() const;

  /// Upper bound on the inertial angular rate of the radius vector: the
  /// rate at perigee, n * sqrt(1+e) / (1-e)^{3/2}, rad/s. Purely kinematic
  /// (a function of the mean motion and eccentricity the propagators use).
  double maxAngularRateRadPerS() const;
};

/// Position and velocity in the ECI frame.
struct StateVector {
  Vec3 positionM;
  Vec3 velocityMps;
};

/// Solve Kepler's equation M = E - e*sin(E) for the eccentric anomaly E,
/// by Newton iteration with a bisection-safeguarded fallback for the rare
/// high-eccentricity cases where plain Newton oscillates. `meanAnomalyRad`
/// may be any real; result is within the same 2*pi revolution. Throws
/// InvalidArgumentError for e outside [0,1).
double solveKepler(double meanAnomalyRad, double eccentricity);

/// The range-reduced core of solveKepler: eccentric anomaly for a mean
/// anomaly already reduced to [-pi, pi], eccentricity in (0, 1) (callers
/// handle e == 0 and the revolution offset). Shared by the scalar spec and
/// the batch kernel's cold-start path so both stay bit-identical.
double solveKeplerReduced(double reducedMeanAnomalyRad, double eccentricity);

/// Two-body propagation: ECI state at `tSeconds` past epoch.
StateVector propagate(const OrbitalElements& el, double tSeconds);

/// ECI position only (cheaper call site; same math).
Vec3 positionEci(const OrbitalElements& el, double tSeconds);

/// Sub-satellite geodetic point (latitude/longitude on the rotating Earth)
/// at time t; altitude is the satellite's height above the ellipsoid.
struct GroundTrackPoint {
  double tSeconds = 0.0;
  double latitudeRad = 0.0;
  double longitudeRad = 0.0;
  double altitudeM = 0.0;
};

/// Sample the ground track over [t0S, t1S] at `stepS` intervals (inclusive of
/// t0S; the final sample is the last grid point <= t1S). Throws
/// InvalidArgumentError unless stepS > 0 and t0S <= t1S, all three finite,
/// the range holds at most 1e7 steps, and one step advances t at both ends
/// of the range.
std::vector<GroundTrackPoint> groundTrack(const OrbitalElements& el, double t0S,
                                          double t1S, double stepS);

std::ostream& operator<<(std::ostream& os, const OrbitalElements& el);

}  // namespace openspace
