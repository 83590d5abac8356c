// Geodetic coordinates and frame conversions.
//
// Frames used by the library:
//  * Geodetic (latitude, longitude, altitude) on the WGS-84 ellipsoid.
//  * ECEF  - Earth-centered, Earth-fixed Cartesian (meters). Ground assets
//            are static in ECEF.
//  * ECI   - Earth-centered inertial Cartesian (meters). Orbits are
//            propagated in ECI; the two frames coincide at t = 0 and differ
//            by Earth's rotation about +Z afterwards.
#pragma once

#include <openspace/geo/vec3.hpp>

namespace openspace {

/// A geodetic position. Latitude/longitude in radians, altitude in meters
/// above the WGS-84 ellipsoid.
struct Geodetic {
  double latitudeRad = 0.0;   ///< [-pi/2, pi/2]
  double longitudeRad = 0.0;  ///< (-pi, pi]
  double altitudeM = 0.0;

  /// Convenience factory taking degrees.
  static Geodetic fromDegrees(double latDeg, double lonDeg, double altM = 0.0);

  constexpr bool operator==(const Geodetic&) const noexcept = default;
};

/// Geodetic -> ECEF (WGS-84 ellipsoid). Throws InvalidArgumentError if the
/// latitude is outside [-pi/2, pi/2].
Vec3 geodeticToEcef(const Geodetic& g);

/// ECEF -> geodetic using Bowring's closed-form approximation followed by
/// two Newton refinement steps (sub-millimeter for LEO-relevant altitudes).
Geodetic ecefToGeodetic(const Vec3& ecef);

/// Rotate an ECI position into ECEF at time t (seconds since epoch; the
/// frames coincide at t = 0).
Vec3 eciToEcef(const Vec3& eci, double tSeconds);

/// Rotate an ECEF position into ECI at time t.
Vec3 ecefToEci(const Vec3& ecef, double tSeconds);

/// Great-circle (haversine) surface distance between two geodetic points on
/// the spherical mean-radius Earth, meters. Altitudes are ignored.
double greatCircleDistanceM(const Geodetic& a, const Geodetic& b);

/// Central angle in radians subtended at the Earth's center by two geodetic
/// points (spherical model).
double centralAngleRad(const Geodetic& a, const Geodetic& b);

/// Elevation angle (radians) of a target at ECEF position `target` as seen
/// from an observer at ECEF `observer` standing on (or near) the Earth's
/// surface. Positive means above the local horizon plane.
double elevationAngleRad(const Vec3& observer, const Vec3& target);

/// An elevation mask compiled for GroundObserver::sees: the mask angle and
/// a band of half-width kBand around its sine. A line-of-sight sine
/// outside the band decides the mask test without an acos; only a sample
/// inside it pays for the exact elevation. A mask outside [-pi/2, pi/2]
/// (or NaN) gets an unbounded band, so every test takes the exact path.
class ElevationMask {
 public:
  /// Half-width of the undecided band, in sine space.
  static constexpr double kBand = 1e-9;  // units: dimensionless sine

  static ElevationMask of(double maskRad) noexcept;

  double rad() const noexcept { return maskRad_; }
  /// sin(rad()) - kBand and sin(rad()) + kBand.
  double sinLo() const noexcept { return sinLo_; }
  double sinHi() const noexcept { return sinHi_; }

 private:
  double maskRad_ = 0.0;
  double sinLo_ = 0.0;  // units: dimensionless sine
  double sinHi_ = 0.0;  // units: dimensionless sine
};

/// A ground observer compiled once for repeated elevation tests. The ECEF
/// position and the local vertical (geocentric, spherical model) are
/// computed at construction. A mask test (sees) then costs a dot product
/// and a square root, and an exact elevation (elevationTo) a line-of-sight
/// normalization and an acos, instead of a geodetic conversion plus two
/// more normalizations. elevationTo(target) is bit-identical to
/// elevationAngleRad(ecef(), target) — that function is implemented on top
/// of this class.
class GroundObserver {
 public:
  explicit GroundObserver(const Vec3& ecef) noexcept;
  /// Compiles geodeticToEcef(site); throws as that function does.
  explicit GroundObserver(const Geodetic& site);

  const Vec3& ecef() const noexcept { return ecef_; }
  /// Distance from the Earth's center, meters.
  double radiusM() const noexcept { return radiusM_; }

  /// Elevation (radians) of the ECEF target above the local horizon; NaN
  /// for a target at the observer itself.
  double elevationTo(const Vec3& targetEcef) const noexcept;

  /// Exactly elevationTo(targetEcef) >= mask.rad(), for every input (NaN
  /// and infinite targets, a target at the observer, any mask). With
  /// d = target - ecef(), the sign of up·d - sin(mask)|d| decides away
  /// from the mask edge; inside the mask's band, or for degenerate
  /// magnitudes, the exact elevation does.
  bool sees(const Vec3& targetEcef, const ElevationMask& mask) const noexcept;

 private:
  Vec3 ecef_;
  Vec3 up_;               ///< ecef_.normalized(): the local vertical.
  // up_.norm(), as the uncompiled path evaluates it.
  double upNorm_ = 0.0;   // units: dimensionless (norm of a unit vector)
  double radiusM_ = 0.0;  ///< ecef_.norm().
  /// |ecef_|^2 lies in sees()'s fast range, so up_ is a unit vector to a
  /// few ULP.
  bool fastPath_ = false;
};

/// Straight-line (slant) range between two ECEF/ECI points, meters.
double slantRangeM(const Vec3& a, const Vec3& b);

/// True if the straight segment between two points (ECI or ECEF, meters)
/// clears the spherical Earth by at least `clearanceM`. Used for ISL
/// line-of-sight checks (satellites cannot talk through the planet).
bool lineOfSightClear(const Vec3& a, const Vec3& b, double clearanceM = 0.0);

}  // namespace openspace
