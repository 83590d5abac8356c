#include <openspace/orbit/elements.hpp>

#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/propagation_batch.hpp>

#include "scan_range.hpp"

namespace openspace {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

OrbitalElements OrbitalElements::circular(double altitudeM, double inclinationRad,
                                          double raanRad, double phaseRad) {
  if (altitudeM <= 0.0) {
    throw InvalidArgumentError("OrbitalElements::circular: altitude must be > 0");
  }
  OrbitalElements el;
  el.semiMajorAxisM = wgs84::kMeanRadiusM + altitudeM;
  el.eccentricity = 0.0;
  el.inclinationRad = inclinationRad;
  el.raanRad = raanRad;
  el.argPerigeeRad = 0.0;
  el.meanAnomalyAtEpochRad = phaseRad;
  return el;
}

double OrbitalElements::periodS() const {
  return kTwoPi * std::sqrt(std::pow(semiMajorAxisM, 3) / wgs84::kMuM3PerS2);
}

double OrbitalElements::meanMotionRadPerS() const {
  return std::sqrt(wgs84::kMuM3PerS2 / std::pow(semiMajorAxisM, 3));
}

double OrbitalElements::perigeeAltitudeM() const {
  return semiMajorAxisM * (1.0 - eccentricity) - wgs84::kMeanRadiusM;
}

double OrbitalElements::maxAngularRateRadPerS() const {
  return meanMotionRadPerS() * std::sqrt(1.0 + eccentricity) /
         std::pow(1.0 - eccentricity, 1.5);
}

void requireValidElements(const OrbitalElements& el) {
  if (!(std::isfinite(el.semiMajorAxisM) && std::isfinite(el.eccentricity) &&
        std::isfinite(el.inclinationRad) && std::isfinite(el.raanRad) &&
        std::isfinite(el.argPerigeeRad) &&
        std::isfinite(el.meanAnomalyAtEpochRad))) {
    throw InvalidArgumentError(
        "orbital elements: every element must be finite");
  }
  if (!(el.semiMajorAxisM > 0.0)) {
    throw InvalidArgumentError("orbital elements: semi-major axis must be > 0");
  }
  if (!(el.eccentricity >= 0.0 && el.eccentricity < 1.0)) {
    throw InvalidArgumentError(
        "orbital elements: eccentricity must be in [0, 1)");
  }
  if (!std::isfinite(el.meanMotionRadPerS())) {
    throw InvalidArgumentError(
        "orbital elements: semi-major axis too small for a finite mean motion");
  }
}

double solveKeplerReduced(double reducedMeanAnomalyRad, double eccentricity) {
  // Newton's method on f(E) = E - e sin E - M. Starting from E = M (or pi
  // for high e) converges quadratically for most of the (e, M) plane; 20
  // iterations bounds the loop.
  const double e = eccentricity;
  const double m = reducedMeanAnomalyRad;
  double guess = (e > 0.8) ? std::numbers::pi : m;
  for (int i = 0; i < 20; ++i) {
    const double f = guess - e * std::sin(guess) - m;
    const double fp = 1.0 - e * std::cos(guess);
    const double step = f / fp;
    guess -= step;
    if (std::abs(step) < 1e-14) return guess;
  }
  // Plain Newton oscillates for e ~> 0.82 with M near +-pi (the pi start
  // lands where f' = 1 - e cos E is tiny and overshoots). f is strictly
  // increasing with the unique root bracketed by [M - e, M + e]
  // (f(M - e) <= 0 <= f(M + e)), so a bisection-safeguarded Newton always
  // converges: any Newton step leaving the bracket is replaced by its
  // midpoint, and each iteration shrinks the bracket.
  double lo = m - e;
  double hi = m + e;
  guess = 0.5 * (lo + hi);
  for (int i = 0; i < 200; ++i) {
    const double f = guess - e * std::sin(guess) - m;
    (f > 0.0 ? hi : lo) = guess;
    const double fp = 1.0 - e * std::cos(guess);
    double next = guess - f / fp;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    const double step = next - guess;
    guess = next;
    if (std::abs(step) < 1e-14) break;
  }
  return guess;
}

double solveKepler(double meanAnomalyRad, double eccentricity) {
  if (!(eccentricity >= 0.0 && eccentricity < 1.0)) {
    throw InvalidArgumentError("solveKepler: eccentricity must be in [0, 1)");
  }
  if (eccentricity == 0.0) return meanAnomalyRad;
  const double m = std::remainder(meanAnomalyRad, kTwoPi);
  // Return in the same revolution as the input mean anomaly.
  return solveKeplerReduced(m, eccentricity) + (meanAnomalyRad - m);
}

StateVector propagate(const OrbitalElements& el, double tSeconds) {
  const double n = el.meanMotionRadPerS();
  const double m = el.meanAnomalyAtEpochRad + n * tSeconds;
  const double ecc = el.eccentricity;
  const double eAnom = solveKepler(m, ecc);

  // Perifocal coordinates.
  const double a = el.semiMajorAxisM;
  const double cosE = std::cos(eAnom);
  const double sinE = std::sin(eAnom);
  const double r = a * (1.0 - ecc * cosE);
  const double xP = a * (cosE - ecc);
  const double yP = a * std::sqrt(1.0 - ecc * ecc) * sinE;
  const double rDotCoef = std::sqrt(wgs84::kMuM3PerS2 * a) / r;
  const double vxP = -rDotCoef * sinE;
  const double vyP = rDotCoef * std::sqrt(1.0 - ecc * ecc) * cosE;

  // Rotate perifocal -> ECI: Rz(raan) * Rx(incl) * Rz(argPerigee).
  const double cO = std::cos(el.raanRad), sO = std::sin(el.raanRad);
  const double cI = std::cos(el.inclinationRad), sI = std::sin(el.inclinationRad);
  const double cW = std::cos(el.argPerigeeRad), sW = std::sin(el.argPerigeeRad);

  const double r11 = cO * cW - sO * sW * cI;
  const double r12 = -cO * sW - sO * cW * cI;
  const double r21 = sO * cW + cO * sW * cI;
  const double r22 = -sO * sW + cO * cW * cI;
  const double r31 = sW * sI;
  const double r32 = cW * sI;

  StateVector sv;
  sv.positionM = {r11 * xP + r12 * yP, r21 * xP + r22 * yP, r31 * xP + r32 * yP};
  sv.velocityMps = {r11 * vxP + r12 * vyP, r21 * vxP + r22 * vyP,
                    r31 * vxP + r32 * vyP};
  return sv;
}

Vec3 positionEci(const OrbitalElements& el, double tSeconds) {
  return propagate(el, tSeconds).positionM;
}

std::vector<GroundTrackPoint> groundTrack(const OrbitalElements& el, double t0S,
                                          double t1S, double stepS) {
  checkScanRange("groundTrack", t0S, t1S, stepS);
  std::vector<GroundTrackPoint> track;
  track.reserve(static_cast<std::size_t>((t1S - t0S) / stepS) + 1);
  // Monotone dense scan of one satellite: the warm-started sweep converges
  // the Kepler solve in 1-2 iterations per sample instead of a cold solve.
  SatelliteSweep sweep(el);
  for (double t = t0S; t <= t1S + 1e-9; t += stepS) {
    const Vec3 ecef = eciToEcef(sweep.positionEciAt(t), t);
    const Geodetic g = ecefToGeodetic(ecef);
    track.push_back({t, g.latitudeRad, g.longitudeRad, g.altitudeM});
  }
  return track;
}

std::ostream& operator<<(std::ostream& os, const OrbitalElements& el) {
  return os << "OrbitalElements{a=" << el.semiMajorAxisM << "m e=" << el.eccentricity
            << " i=" << el.inclinationRad << " raan=" << el.raanRad
            << " argp=" << el.argPerigeeRad << " M0=" << el.meanAnomalyAtEpochRad
            << '}';
}

}  // namespace openspace
