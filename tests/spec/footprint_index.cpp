#include <openspace/spec/footprint_index.hpp>

#include <algorithm>
#include <cmath>

#include <openspace/orbit/visibility.hpp>

namespace openspace {

FootprintIndex::FootprintIndex(const ConstellationSnapshot& snapshot,
                               double minElevationRad) {
  const std::size_t n = snapshot.size();
  direction_.resize(n);
  cosHalfAngle_.resize(n);
  halfAngle_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    direction_[i] = snapshot.eci(i).normalized();
    halfAngle_[i] = footprintHalfAngleRad(std::max(snapshot.altitudeM(i), 1.0),
                                          minElevationRad);
    cosHalfAngle_[i] = std::cos(halfAngle_[i]);
  }
}

bool FootprintIndex::anyCovers(const Vec3& unitPoint) const noexcept {
  for (std::size_t i = 0; i < direction_.size(); ++i) {
    if (covers(unitPoint, i)) return true;
  }
  return false;
}

int FootprintIndex::countCovering(const Vec3& unitPoint,
                                  int stopAfter) const noexcept {
  int seen = 0;
  for (std::size_t i = 0; i < direction_.size(); ++i) {
    if (covers(unitPoint, i) && ++seen >= stopAfter) break;
  }
  return seen;
}

}  // namespace openspace
