// Batch (structure-of-arrays) two-body propagation.
//
// Every experiment in the reproduction — the Figure-2 latency/coverage
// sweeps, handover prediction, the temporal router's per-interval
// snapshots — bottoms out in per-satellite Kepler propagation. The scalar
// path (orbit/elements.hpp `propagate`) recomputes every time-invariant
// term on every call: the mean motion (a `pow` and a `sqrt`), two
// `sqrt(1-e^2)` factors, and the six trig evaluations of the perifocal->ECI
// rotation. FleetEphemeris compiles a fleet once, hoisting all of that into
// contiguous per-satellite arrays, so evaluating a timestep reduces to flat
// loops the compiler can keep in registers and auto-vectorize: a
// mean-anomaly advance, a Kepler solve, one sin/cos pair, and two
// multiply-adds per axis.
//
// The scalar `propagate`/`positionEci` stays as the executable spec
// (mirroring the `openspace::legacy` routing pattern): FleetEphemeris'
// cold-start evaluation performs the exact same floating-point operations
// in the same order, so its output is bit-for-bit identical — pinned by
// the property tests in tests/test_propagation_batch.cpp. It is the one
// whole-fleet path: every ConstellationSnapshot runs it. SatelliteSweep is
// the warm-started scan of a single orbit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <openspace/geo/vec3.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

/// A fleet's orbital elements compiled once into structure-of-arrays form
/// with every time-invariant term of the two-body propagation precomputed.
/// Immutable after construction, so one compiled fleet may be shared across
/// threads and timesteps freely.
class FleetEphemeris {
 public:
  /// Compile `elements` (index i keeps its position). Throws
  /// InvalidArgumentError for any element set requireValidElements
  /// refuses (orbit/elements.hpp).
  explicit FleetEphemeris(const std::vector<OrbitalElements>& elements);

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Approximate resident size in bytes (the eleven per-satellite SoA
  /// arrays) — what the compiled() cache charges per entry.
  std::size_t approxBytes() const noexcept {
    return sizeof(*this) + count_ * 11 * sizeof(double);
  }

  /// Cold-start batch evaluation: the ECI and ECEF position of every
  /// satellite at time t, written to `outEci` and `outEcef` (each resized
  /// to size()). Parallel over satellites; bit-for-bit identical to the
  /// scalar positionEci followed by eciToEcef per satellite, at any thread
  /// count. The Earth rotation angle's sin/cos is computed once for the
  /// whole fleet instead of once per satellite.
  void positionsAt(double tSeconds, std::vector<Vec3>& outEci,
                   std::vector<Vec3>& outEcef) const;

  /// The compiled form of `elements`, from a small process-wide LRU cache
  /// keyed by (constellationHash, count): consumers that repeatedly
  /// snapshot the same fleet — the temporal router's interval grid, the
  /// coverage estimators, handover planning — compile it once. `hash` must
  /// be constellationHash(elements) (the caller usually has it already).
  static std::shared_ptr<const FleetEphemeris> compiled(
      const std::vector<OrbitalElements>& elements, std::uint64_t hash);

  /// Byte budget of the compiled() cache. Eviction drops LRU-tail entries
  /// while either the entry count exceeds the fixed capacity or the summed
  /// approxBytes() exceed this budget (the newest entry is exempt), so for
  /// equal-size fleets the eviction order is plain LRU either way. Returns
  /// the previous budget; pass 0 to shrink the cache to a single entry.
  /// Intended for tests and mega-constellation sweeps that want a tighter
  /// or looser memory cap than the 256 MiB default.
  static std::size_t setCompiledCacheByteBudget(std::size_t bytes);
  /// Summed approxBytes() of the currently cached compiled fleets.
  static std::size_t compiledCacheApproxBytes();

 private:
  std::size_t count_ = 0;
  // Per-satellite time-invariant terms, one contiguous array per field.
  std::vector<double> semiMajorAxisM_;
  std::vector<double> eccentricity_;
  std::vector<double> meanMotionRadPerS_;
  std::vector<double> meanAnomalyAtEpochRad_;
  std::vector<double> semiMinorAxisM_;  ///< a*sqrt(1-e^2): the y_P coefficient.
  // Perifocal->ECI rotation, stored as its two used columns
  // P = (r11, r21, r31) and Q = (r12, r22, r32).
  std::vector<double> p1_, p2_, p3_;  // dimensionless rotation-matrix entries
  std::vector<double> q1_, q2_, q3_;  // dimensionless rotation-matrix entries
};

/// Warm single-satellite propagator for dense time scans (handover
/// visibility-window searches, ground tracks). Cheap to construct
/// (compiles one satellite's invariants) and carries the last solve as the
/// next warm start; positions agree with the scalar spec within 1e-13 of
/// the orbital radius, and a scan may jump arbitrarily far, even backwards
/// (a warm miss falls back to the cold solve).
class SatelliteSweep {
 public:
  /// An empty sweep; reset() must run before positionEciAt.
  SatelliteSweep() = default;

  /// Throws InvalidArgumentError for element sets requireValidElements
  /// refuses.
  explicit SatelliteSweep(const OrbitalElements& elements);

  /// Re-seed the sweep with a new orbit, dropping the warm-start state —
  /// after reset() the object is indistinguishable from a freshly
  /// constructed SatelliteSweep(elements), so every positionEciAt sequence
  /// is bit-for-bit the fresh object's (pinned in
  /// tests/test_propagation_batch.cpp). Lets candidate loops (the handover
  /// planner, the session sweep) reuse one sweep object across satellites
  /// instead of constructing per candidate. Throws InvalidArgumentError for
  /// element sets requireValidElements refuses.
  void reset(const OrbitalElements& elements);

  /// ECI position at t; successive calls warm-start from each other.
  Vec3 positionEciAt(double tSeconds);

  /// Advance the warm start to t without evaluating the position: every
  /// later positionEciAt is bit-for-bit what it would be had
  /// positionEciAt(t) run here. Costs the Kepler solve alone — nothing for
  /// a circular orbit — so scans can skip samples they have proven
  /// uninteresting without perturbing the samples they do evaluate.
  void skipTo(double tSeconds);

  /// Orbit radius at perigee, a(1-e), and at apogee, a(1+e), meters: the
  /// bounds of the radius at every time.
  double perigeeRadiusM() const noexcept { return perigeeRadiusM_; }
  double apogeeRadiusM() const noexcept { return apogeeRadiusM_; }
  /// OrbitalElements::maxAngularRateRadPerS of the orbit.
  double maxAngularRateRadPerS() const noexcept {
    return maxAngularRateRadPerS_;
  }
  /// The orbit's unit normal P x Q, in ECI: the direction of its angular
  /// momentum, so the satellite at r moves along normal x r. Taken from
  /// the compiled perifocal columns; no trigonometry.
  Vec3 orbitNormal() const noexcept {
    return Vec3{p1_, p2_, p3_}.cross(Vec3{q1_, q2_, q3_});
  }

 private:
  /// The warm-started eccentric anomaly at t (updates the warm state).
  double eccentricAnomalyAt(double tSeconds);

  double semiMajorAxisM_ = 0.0;
  double eccentricity_ = 0.0;
  double meanMotionRadPerS_ = 0.0;
  double meanAnomalyAtEpochRad_ = 0.0;
  double semiMinorAxisM_ = 0.0;
  double p1_ = 0.0, p2_ = 0.0, p3_ = 0.0;  // units: rotation-matrix entries
  double q1_ = 0.0, q2_ = 0.0, q3_ = 0.0;  // units: rotation-matrix entries
  double perigeeRadiusM_ = 0.0;
  double apogeeRadiusM_ = 0.0;
  double maxAngularRateRadPerS_ = 0.0;
  double prevMeanRad_ = 0.0;
  double prevEccentricRad_ = 0.0;
  bool primed_ = false;
};

}  // namespace openspace
