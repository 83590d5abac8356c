// Brute-force spherical-cap footprint test (test-only; openspace_spec).
//
// The orbit-layer FootprintIndex is the executable spec of FootprintIndex2
// (coverage/footprint_index.hpp): FootprintIndex2 builds the same
// per-satellite arrays with token-identical expressions, so its `covers()`
// is bit-for-bit this class's, and it only adds spatial pruning on top.
// The coverage estimator specs (coverage_legacy.hpp) and the indexed ==
// brute property tests and bench gates scan every satellite through this
// class.
#pragma once

#include <cstddef>
#include <vector>

#include <openspace/geo/vec3.hpp>
#include <openspace/orbit/snapshot.hpp>

namespace openspace {

/// Precomputed spherical-cap footprint test for surface points: satellite i
/// covers a surface point p (|p| == mean Earth radius) iff the central
/// angle between p and the sub-satellite direction is at most the
/// footprint half-angle at the query elevation mask. Reduces the per-
/// (sample, satellite) visibility test to one dot-product comparison.
class FootprintIndex {
 public:
  FootprintIndex(const ConstellationSnapshot& snapshot, double minElevationRad);

  std::size_t size() const noexcept { return cosHalfAngle_.size(); }
  double halfAngleRad(std::size_t i) const { return halfAngle_.at(i); }
  const Vec3& direction(std::size_t i) const { return direction_.at(i); }

  /// True if satellite i covers the surface point with unit direction
  /// `unitPoint` (ECI frame, matching the snapshot's positions).
  bool covers(const Vec3& unitPoint, std::size_t i) const noexcept {
    return unitPoint.dot(direction_[i]) >= cosHalfAngle_[i];
  }
  /// True if any satellite covers the point.
  bool anyCovers(const Vec3& unitPoint) const noexcept;
  /// Number of satellites covering the point, counting stops at
  /// `stopAfter` (pass size() for an exact count).
  int countCovering(const Vec3& unitPoint, int stopAfter) const noexcept;

 private:
  std::vector<Vec3> direction_;       ///< Unit sub-satellite directions.
  std::vector<double> cosHalfAngle_;  ///< cos(footprint half-angle).
  std::vector<double> halfAngle_;
};

}  // namespace openspace
