// The per-snapshot footprint index: every visibility consumer's spatial
// accelerator.
//
// FootprintIndex2 compiles one constellation snapshot + elevation mask into
// (a) the same per-satellite spherical-cap arrays the original orbit-layer
// FootprintIndex holds — direction, half-angle, cos(half-angle), built with
// the identical expressions so `covers()` is bit-for-bit the brute test
// (that brute FootprintIndex now lives in the test-only openspace_spec
// library, tests/spec/include/openspace/spec/footprint_index.hpp) —
// and (b) a SphericalCapIndex over conservatively padded caps that answers
// "which satellites could see this point" in O(candidates) instead of O(N).
//
// Two query families share the one index:
//  * surface-sample queries (Monte-Carlo coverage): unit ECI directions
//    tested against the exact cap predicate `dot >= cos(halfAngle)`,
//    answered by a CoverCertificates table built over the index;
//  * ground-site queries (association, handover, demand coverage): ECEF
//    sites tested against the exact mask predicate GroundObserver::sees,
//    which is `elevationAngleRad(site, satEcef) >= mask`. The registered
//    cap radii are padded out to the largest central angle any supported
//    observer radius can see (kMinObserverRadiusM at the mask), so the
//    candidate set is a superset for both predicates; sites outside the
//    supported radius range fall back to a full scan.
//
// Determinism contract (DESIGN.md §10): the index only *prunes* — every
// candidate is re-tested with the exact brute predicate, ties are broken
// by satellite index exactly as the brute ascending scans do, and the RNG
// draw sequence of the Monte-Carlo estimators is untouched. The brute
// implementations survive in openspace::legacy (the test-only openspace_spec
// library, tests/spec/include/openspace/spec/coverage_legacy.hpp) as the
// executable spec the indexed paths are property-tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/spherical_index.hpp>
#include <openspace/geo/vec3.hpp>

namespace openspace {

class ConstellationSnapshot;

/// Spatially indexed footprint tests over one snapshot. Immutable after
/// construction and copyable; share freely across threads. Obtain via
/// compiled() on any hot path — construction costs one pass over the fleet
/// plus the band index build (parallel over fixed chunks, bit-identical at
/// any thread count), amortized by a process-wide LRU. The surface-sample
/// queries live on CoverCertificates, which a caller builds over the index
/// when it samples it, so ground-site compiles never pay for that table.
class FootprintIndex2 {
 public:
  /// Lowest/highest observer radius (from Earth center) the ground-site
  /// pruning supports. Sites outside fall back to exact full scans: ~10 km
  /// below the WGS-84 polar radius to ~100 km above the equatorial radius
  /// covers every terrestrial and airborne terminal.
  static constexpr double kMinObserverRadiusM = 6'346'752.0;
  static constexpr double kMaxObserverRadiusM = 6'478'137.0;

  /// Compile the footprint index of `snapshot` at `minElevationRad`.
  /// Throws InvalidArgumentError for a mask outside [0, pi/2] (the
  /// footprintHalfAngleRad domain — same throw as the brute path).
  ///
  /// `motionMarginRad` widens only the *registered pruning radii* (never
  /// the exact cap predicate): with a margin of m, a ground-candidate
  /// query answered from this snapshot remains a superset of the exactly
  /// visible set at any time t' with angular drift <= m — i.e. for
  /// |t' - timeSeconds()| <= m / (max per-satellite angular rate + Earth
  /// rotation rate). The ground-visibility radii are additionally bounded
  /// at each orbit's apogee, so radial motion over the window is covered
  /// too. The session-plane epoch sweep compiles one margined index per
  /// 60 s grid window, at the window centre, and serves every event time
  /// of the window's epochs from that single compile (an epoch that
  /// straddles a window edge gets its own index at the epoch midpoint).
  /// Throws InvalidArgumentError for a negative or non-finite margin.
  FootprintIndex2(std::shared_ptr<const ConstellationSnapshot> snapshot,
                  double minElevationRad, double motionMarginRad = 0.0);

  std::size_t size() const noexcept { return direction_.size(); }
  double minElevationRad() const noexcept { return mask_.rad(); }
  double motionMarginRad() const noexcept { return motionMarginRad_; }

  /// Approximate resident size in bytes: the per-satellite cap arrays and
  /// the band index (excludes the shared snapshot, which SnapshotCache
  /// accounts separately) — what the compiled() cache charges per entry.
  std::size_t approxBytes() const noexcept {
    return sizeof(*this) +
           direction_.size() * (sizeof(Vec3) + 2 * sizeof(double)) +
           capIndex_.approxBytes();
  }
  const ConstellationSnapshot& snapshot() const noexcept { return *snapshot_; }

  double halfAngleRad(std::size_t i) const { return halfAngle_.at(i); }
  /// The cell index over the registered (pruning) caps, for layout checks.
  const SphericalCapIndex& capIndex() const noexcept { return capIndex_; }
  const Vec3& direction(std::size_t i) const { return direction_.at(i); }

  /// True if satellite i covers the surface point with unit direction
  /// `unitPoint` (ECI frame). Bit-identical to FootprintIndex::covers in
  /// the test-only openspace_spec library — the executable-spec predicate.
  bool covers(const Vec3& unitPoint, std::size_t i) const noexcept {
    return unitPoint.dot(direction_[i]) >= cosHalfAngle_[i];
  }

  /// True if at least one satellite is at or above the mask from the ECEF
  /// site — the exact mask predicate (GroundObserver::sees), candidates
  /// from the index.
  bool anyVisibleFrom(const Vec3& siteEcef) const;

  /// Closest at-or-above-mask satellite from the site (ties broken toward
  /// the lower index, matching the brute first-wins ascending scan);
  /// nullopt when none is visible. Bit-identical to
  /// ConstellationSnapshot::closestVisible at the same mask.
  std::optional<std::size_t> closestVisible(const Vec3& siteEcef) const;
  std::optional<std::size_t> closestVisible(const Geodetic& site) const;

  /// Visit a superset of the satellites visible from the ECEF site (each
  /// at most once, order unspecified). Callers apply their own exact
  /// predicate — this is the pruning hook the handover planner uses so its
  /// elevation test expression stays token-identical to the brute loop.
  /// As with SphericalCapIndex::forEachCandidate, a callback returning
  /// bool stops the scan early by returning true; void callbacks always
  /// see every candidate.
  template <typename Fn>
  void forEachGroundCandidate(const Vec3& siteEcef, Fn&& fn) const {
    const double radiusM = siteEcef.norm();
    if (!(radiusM >= kMinObserverRadiusM && radiusM <= kMaxObserverRadiusM)) {
      for (std::size_t i = 0; i < size(); ++i) {
        if constexpr (std::is_same_v<
                          std::invoke_result_t<Fn&, std::uint32_t>, bool>) {
          if (fn(static_cast<std::uint32_t>(i))) return;
        } else {
          fn(static_cast<std::uint32_t>(i));
        }
      }
      return;
    }
    // Rotate the site into the ECI frame of the cap centers (an exact
    // longitude shift about +Z; z is rotation-invariant) and query the
    // index with the unit direction.
    const double inv = 1.0 / radiusM;  // units: 1/m
    const Vec3 unitEci{
        (siteEcef.x * cosLonOffset_ - siteEcef.y * sinLonOffset_) * inv,
        (siteEcef.x * sinLonOffset_ + siteEcef.y * cosLonOffset_) * inv,
        siteEcef.z * inv};
    capIndex_.forEachCandidate(unitEci, fn);
  }

  /// Append (ascending, deduplicated, excluding i) every j whose footprint
  /// could overlap footprint i — a superset of {j : centralAngle(i, j) <
  /// halfAngle(i) + halfAngle(j)}. Drives the worst-case overlap band
  /// sweep that replaces the O(N^2) pair loop.
  void overlapCandidates(std::size_t i, std::vector<std::uint32_t>& out) const;

  /// Per-satellite ECEF position (the snapshot's array).
  const Vec3& ecef(std::size_t i) const;

  /// The compiled index of (snapshot, mask) at margin 0 from a
  /// process-wide LRU keyed by (elements hash, count, quantized t, mask
  /// bits, margin bits): coverage sweeps, association batches and handover
  /// planning touching the same timestep compile the index once.
  static std::shared_ptr<const FootprintIndex2> compiled(
      std::shared_ptr<const ConstellationSnapshot> snapshot,
      double minElevationRad);

  /// compiled() with a motion margin on the pruning radii (see the
  /// constructor); the LRU key includes the margin bits, so margined and
  /// exact indexes of the same snapshot coexist in the cache.
  static std::shared_ptr<const FootprintIndex2> compiled(
      std::shared_ptr<const ConstellationSnapshot> snapshot,
      double minElevationRad, double motionMarginRad);

  /// Byte budget of the compiled() cache (see
  /// FleetEphemeris::setCompiledCacheByteBudget for the shared eviction
  /// contract: LRU-tail eviction while over the count cap or this budget,
  /// newest entry exempt, plain LRU order for equal-size entries). Returns
  /// the previous budget; pass 0 to shrink the cache to a single entry.
  static std::size_t setCompiledCacheByteBudget(std::size_t bytes);
  /// Summed approxBytes() of the currently cached compiled indexes.
  static std::size_t compiledCacheApproxBytes();
  /// compiled() calls served from the cache / that compiled an index, since
  /// process start (SnapshotCache::hits() and misses(), one layer up).
  static std::size_t compiledCacheHits();
  static std::size_t compiledCacheMisses();

 private:
  friend class CoverCertificates;

  std::shared_ptr<const ConstellationSnapshot> snapshot_;
  ElevationMask mask_;
  double motionMarginRad_ = 0.0;
  // ECEF->ECI rotation about +Z at the snapshot time (lon_eci = lon_ecef +
  // omega * t), stored as the rotation's cosine/sine.
  double cosLonOffset_ = 1.0;  // units: dimensionless rotation cosine
  double sinLonOffset_ = 0.0;  // units: dimensionless rotation sine
  std::vector<Vec3> direction_;       ///< Unit sub-satellite directions (ECI).
  std::vector<double> cosHalfAngle_;  ///< cos(footprint half-angle).
  std::vector<double> halfAngle_;
  double maxHalfAngleRad_ = 0.0;
  SphericalCapIndex capIndex_;
};

/// Whole-cell cover certificates over one FootprintIndex2, one per grid
/// cell of its band index: the number of satellites (saturated at 2^16-1)
/// whose *exact* footprint cap provably contains every unit direction
/// mapping to the cell. anyCovers and countCovering answer most queries
/// from this table alone — no dot products — which is where the
/// Monte-Carlo coverage speedup comes from; the rest re-test the cell's
/// candidates with FootprintIndex2::covers. Certificates shortcut only the
/// unit-sphere cap predicate, so only the surface-sample estimators build
/// one (monteCarloCoverage, kFoldCoverage), on their calling thread before
/// they fan out.
///
/// The constructor builds the whole table (parallel over fixed chunks of
/// cells, bit-identical at any thread count); the table is immutable
/// afterwards, so one may be shared across threads. It reads the index it
/// was built from on every query: `index` must outlive it.
class CoverCertificates {
 public:
  explicit CoverCertificates(const FootprintIndex2& index);

  /// True if any satellite covers the unit direction: the brute scan's
  /// boolean, found through the band index. Throws InvalidArgumentError
  /// unless |p|^2 is within 2e-9 of 1 (zero, NaN and non-unit points).
  bool anyCovers(const Vec3& unitPoint) const;
  /// Number of satellites covering the unit direction, counting stops at
  /// `stopAfter` — same result as the brute ascending scan for every
  /// stopAfter, including the degenerate stopAfter <= 0 cases. Throws
  /// InvalidArgumentError for the points anyCovers rejects.
  int countCovering(const Vec3& unitPoint, int stopAfter) const;

 private:
  const FootprintIndex2* index_;
  std::vector<std::uint16_t> minCoverCount_;
};

}  // namespace openspace
