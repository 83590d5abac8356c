#include <openspace/coverage/footprint_index.hpp>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

/// Semantic padding on the registered (pruning) cap radii, radians. The
/// exact predicates re-test every candidate, so the pad only has to exceed
/// the floating-point wiggle between the real-arithmetic visibility regions
/// and the index's build/query rounding — 1e-6 rad (~6 m of arc) is orders
/// of magnitude above either, and costs a negligible candidate surplus.
constexpr double kCapPadRad = 1e-6;

/// Extra padding on the ground-visibility radii: absorbs the spherical
/// approximation of the conservative observer-radius bound against the
/// WGS-84 sites the exact elevation predicate sees. 1e-3 rad ~ 6.4 km of
/// ground range, still only a few percent of a LEO footprint radius.
constexpr double kGroundPadRad = 1e-3;

/// Largest Earth-central angle at which an observer at `obsRadiusM` can see
/// a satellite at `satRadiusM` with elevation >= mask: from the sine rule
/// in the (center, observer, satellite) triangle,
///   lambda(r_o) = acos((r_o / r_s) cos e) - e,
/// which is strictly decreasing in r_o — so evaluating at the *smallest*
/// supported observer radius upper-bounds every supported site.
double groundVisibilityHalfAngleRad(double satRadiusM, double minElevationRad) {
  if (satRadiusM <= FootprintIndex2::kMaxObserverRadiusM) {
    // Satellite at or below possible observer radii (degenerate inputs,
    // negative altitudes): no useful bound — register everywhere.
    return std::numbers::pi;
  }
  const double arg = (FootprintIndex2::kMinObserverRadiusM / satRadiusM) *
                     std::cos(minElevationRad);
  return std::acos(std::clamp(arg, -1.0, 1.0)) - minElevationRad +
         kGroundPadRad;
}

/// Certificate eligibility ceiling on the exact cap half-angle, radians.
/// The corner test below proves "cap covers the whole cell" from the four
/// cell corners, which is sound only while the farthest cell point from
/// the cap center is attained at a corner. Latitude-circle cell edges
/// always attain their maximum at an endpoint; a meridian edge can hide an
/// interior maximum, but only at points >= pi/2 - (edge length)^2 / 8 away
/// from the cap center (DESIGN.md §10). With the index's minimum of 13
/// bands the longest meridian edge is ~0.56 rad, so half-angles up to
/// pi/2 - 0.05 are provably safe; we stop at pi/2 - 0.1 for margin. Every
/// physical footprint qualifies: footprintHalfAngleRad < pi/2 always, and
/// even a GEO footprint at mask 0 is ~1.42 rad.
constexpr double kMaxCertHalfAngleRad = std::numbers::pi / 2.0 - 0.1;

/// Margin (in cos space) the corner test must clear beyond the exact
/// cos(halfAngle) threshold: absorbs the corner-direction rounding and the
/// callers' not-quite-unit query vectors (|p| within ~1e-9 of 1). A cap
/// loses its certificate only for cells within ~1e-6 rad of its boundary,
/// where the candidate scan re-tests exactly anyway.
constexpr double kCertCosPad = 1e-6;

/// Kept out of line so that the check below inlines into the per-sample
/// queries as a compare and a never-taken branch.
[[noreturn, gnu::cold, gnu::noinline]] void throwNotUnit(const char* message) {
  throw InvalidArgumentError(message);
}

/// The surface-sample queries take unit directions only: the cell map and
/// the certificates above hold for |p| within ~1e-9 of 1, i.e. |p|^2 within
/// 2e-9. A zero, NaN or non-unit point would get whichever answer its cell
/// gives, so it is rejected (NaN fails the comparison).
inline void requireUnitDirection(const Vec3& p, const char* message) {
  if (!(std::abs(p.dot(p) - 1.0) <= 2e-9)) [[unlikely]] throwNotUnit(message);
}

/// Fixed chunks of the per-satellite and certificate passes, independent
/// of the thread count: each chunk writes only its own slots.
constexpr std::size_t kSatChunk = 512;
constexpr std::size_t kCertCellChunk = 256;

}  // namespace

FootprintIndex2::FootprintIndex2(
    std::shared_ptr<const ConstellationSnapshot> snapshot,
    double minElevationRad, double motionMarginRad)
    : snapshot_(std::move(snapshot)),
      mask_(ElevationMask::of(minElevationRad)),
      motionMarginRad_(motionMarginRad) {
  OPENSPACE_ASSERT(snapshot_ != nullptr, "footprint index needs a snapshot");
  if (!(motionMarginRad >= 0.0) || std::isinf(motionMarginRad)) {
    throw InvalidArgumentError(
        "FootprintIndex2: motion margin must be finite and >= 0");
  }
  const ConstellationSnapshot& snap = *snapshot_;
  const std::size_t n = snap.size();
  // ECEF ground queries rotate into the ECI frame of the cap centers: z is
  // invariant under the Earth's rotation about +Z, so one index serves both
  // frames with a longitude shift (lon_eci = lon_ecef + omega * t), applied
  // as a 2x2 rotation of (x, y) with this cosine/sine pair.
  const double lonOffsetRad = std::remainder(
      wgs84::kEarthRotationRadPerS * snap.timeSeconds(),
      2.0 * std::numbers::pi);
  cosLonOffset_ = std::cos(lonOffsetRad);
  sinLonOffset_ = std::sin(lonOffsetRad);
  direction_.resize(n);
  cosHalfAngle_.resize(n);
  halfAngle_.resize(n);
  std::vector<SphericalCapIndex::Cap> caps(n);
  parallelFor(n, kSatChunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Token-identical to the FootprintIndex spec's construction
      // (tests/spec/footprint_index.cpp): these three expressions define
      // the exact cap predicate covers() applies.
      direction_[i] = snap.eci(i).normalized();
      halfAngle_[i] = footprintHalfAngleRad(std::max(snap.altitudeM(i), 1.0),
                                            minElevationRad);
      cosHalfAngle_[i] = std::cos(halfAngle_[i]);
      // Registered (pruning) radius: wide enough for both exact predicates —
      // the cap test on unit surface points and the elevation test from any
      // supported observer radius. With a motion margin the ground radius is
      // evaluated at the orbit's apogee (lambda grows with the satellite
      // radius, so the apogee bound holds at every point of the pass) and
      // widened by the margin itself, covering the angular drift of both the
      // satellite and the observer over the margin's time window.
      double satRadiusM = snap.eci(i).norm();
      if (motionMarginRad > 0.0) {
        const OrbitalElements& el = snap.elements()[i];
        satRadiusM = std::max(
            satRadiusM, el.semiMajorAxisM * (1.0 + el.eccentricity));
      }
      caps[i].unitCenter = direction_[i];
      caps[i].halfAngleRad =
          std::max(halfAngle_[i] + kCapPadRad,
                   groundVisibilityHalfAngleRad(satRadiusM, minElevationRad)) +
          motionMarginRad;
    }
  });
  for (const double h : halfAngle_) {
    maxHalfAngleRad_ = std::max(maxHalfAngleRad_, h);
  }
  capIndex_ = SphericalCapIndex(caps);
}

void FootprintIndex2::buildCoverCertificates() const {
  CoverCertificates& certs = *certs_;
  MutexLock lock(certs.mu);
  if (certs.built.load(std::memory_order_relaxed)) return;
  // Whole-cell cover certificates: cap i certifies cell c when all four
  // (conservatively expanded) cell corners sit inside the *exact* footprint
  // cap with a safety margin — then every query direction mapping to c is
  // truly covered by i, and the corner test is sound because the farthest
  // cell point from the cap center is attained at a corner for half-angles
  // below kMaxCertHalfAngleRad (see the constant above). Certificates use
  // halfAngle_, never the padded registration radius: a padded radius
  // would certify points the exact predicate rejects.
  //
  // Cells without registrations keep a count of 0 and skip the corner
  // work; each fixed chunk of cells writes only its own slots.
  const std::size_t cells = capIndex_.cellCount();
  std::vector<std::uint16_t> minCoverCount(cells, 0);
  parallelFor(cells, kCertCellChunk, [&](std::size_t begin, std::size_t end) {
    const std::vector<std::uint32_t>& entries = capIndex_.entries();
    for (std::size_t cell = begin; cell < end; ++cell) {
      const auto [lo, hi] = capIndex_.cellEntryRange(cell);
      if (lo == hi) continue;
      const auto corners = capIndex_.cellCornerDirs(cell);
      int count = 0;
      for (std::uint32_t e = lo; e < hi; ++e) {
        const std::uint32_t i = entries[e];
        if (halfAngle_[i] > kMaxCertHalfAngleRad) continue;
        const double threshold = cosHalfAngle_[i] + kCertCosPad;
        bool all = true;
        for (const Vec3& corner : corners) {
          all = all && corner.dot(direction_[i]) >= threshold;
        }
        count += all ? 1 : 0;
      }
      minCoverCount[cell] =
          static_cast<std::uint16_t>(std::min(count, 0xFFFF));
    }
  });
  certs.minCoverCount = std::move(minCoverCount);
  certs.built.store(true, std::memory_order_release);
}

bool FootprintIndex2::anyCovers(const Vec3& unitPoint) const {
  requireUnitDirection(unitPoint, "anyCovers: point is not a unit direction");
  const std::vector<std::uint16_t>& minCoverCount = coverCertificates();
  if (minCoverCount.empty()) return false;
  const std::size_t cell = capIndex_.cellIndexOf(unitPoint);
  // Certified cell: some cap provably contains every direction here, so
  // the brute scan would find a hit too — answer without any dot products.
  if (minCoverCount[cell] > 0) return true;
  const auto [lo, hi] = capIndex_.cellEntryRange(cell);
  const auto& entries = capIndex_.entries();
  for (std::uint32_t e = lo; e < hi; ++e) {
    // Coverage is order-independent, so the scan may stop at the first
    // hit — the exact early-exit the brute any-scan performs.
    if (covers(unitPoint, entries[e])) return true;
  }
  return false;
}

int FootprintIndex2::countCovering(const Vec3& unitPoint,
                                   int stopAfter) const {
  // Reproduce the brute scan's early-stop semantics exactly: it returns
  // min(total, stopAfter) for stopAfter >= 1 and, for stopAfter <= 0,
  // breaks on the first covering satellite (1 if any, else 0). Both are
  // order-independent, so early stops are safe wherever the result is
  // already forced.
  requireUnitDirection(unitPoint,
                       "countCovering: point is not a unit direction");
  const std::vector<std::uint16_t>& minCoverCount = coverCertificates();
  if (minCoverCount.empty()) return 0;
  const std::size_t cell = capIndex_.cellIndexOf(unitPoint);
  const int limit = std::max(stopAfter, 1);
  // At least minCoverCount[cell] satellites cover every direction here;
  // when that alone reaches the stop limit the clamped count is forced.
  if (static_cast<int>(minCoverCount[cell]) >= limit) return limit;
  const auto [lo, hi] = capIndex_.cellEntryRange(cell);
  const auto& entries = capIndex_.entries();
  int total = 0;
  for (std::uint32_t e = lo; e < hi; ++e) {
    total += covers(unitPoint, entries[e]) ? 1 : 0;
    if (total >= limit) break;
  }
  return total;
}

bool FootprintIndex2::anyVisibleFrom(const Vec3& siteEcef) const {
  const GroundObserver site(siteEcef);
  bool any = false;
  forEachGroundCandidate(siteEcef, [&](std::uint32_t i) {
    any = site.sees(snapshot_->ecef(i), mask_);
    // Visibility is order-independent; returning true stops the candidate
    // scan at the first visible satellite, like the brute scan's break.
    return any;
  });
  return any;
}

std::optional<std::size_t> FootprintIndex2::closestVisible(
    const Vec3& siteEcef) const {
  // The brute spec (ConstellationSnapshot::closestVisible) scans ascending
  // and keeps the first minimum; under the index's unspecified candidate
  // order the lexicographic (range, index) minimum selects the same
  // satellite.
  const GroundObserver site(siteEcef);
  std::optional<std::size_t> best;
  double bestRange = std::numeric_limits<double>::infinity();
  forEachGroundCandidate(siteEcef, [&](std::uint32_t i) {
    if (!site.sees(snapshot_->ecef(i), mask_)) return;
    const double range = siteEcef.distanceTo(snapshot_->ecef(i));
    if (range < bestRange ||
        (range == bestRange && (!best || i < *best))) {
      bestRange = range;
      best = i;
    }
  });
  return best;
}

std::optional<std::size_t> FootprintIndex2::closestVisible(
    const Geodetic& site) const {
  return closestVisible(geodeticToEcef(site));
}

void FootprintIndex2::overlapCandidates(
    std::size_t i, std::vector<std::uint32_t>& out) const {
  capIndex_.neighborhoodCandidates(
      i, halfAngle_.at(i) + maxHalfAngleRad_ + kCapPadRad, out);
}

const Vec3& FootprintIndex2::ecef(std::size_t i) const {
  return snapshot_->ecef(i);
}

namespace {

struct IndexCacheKey {
  std::uint64_t hash;
  std::uint64_t count;
  std::int64_t tMicros;
  std::uint64_t maskBits;
  std::uint64_t marginBits;
  bool operator==(const IndexCacheKey&) const noexcept = default;
};

struct IndexCacheKeyHash {
  std::size_t operator()(const IndexCacheKey& k) const noexcept {
    std::uint64_t h = k.hash;
    h ^= k.count * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(k.tMicros) * 0xD1B54A32D192ED03ull;
    h ^= k.maskBits * 0x2545F4914F6CDD1Dull;
    h ^= k.marginBits * 0x94D049BB133111EBull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

/// Process-wide LRU of compiled footprint indexes, keyed by (elements
/// hash, count, quantized t, mask bits, margin bits) — the SnapshotCache
/// policy one layer up. 32 entries and a 256 MiB byte budget (see
/// FootprintIndex2::setCompiledCacheByteBudget).
ByteBudgetLru<IndexCacheKey, FootprintIndex2, IndexCacheKeyHash>&
indexCache() {
  static ByteBudgetLru<IndexCacheKey, FootprintIndex2, IndexCacheKeyHash>
      cache(32, std::size_t{256} * 1024 * 1024);
  return cache;
}

}  // namespace

std::shared_ptr<const FootprintIndex2> FootprintIndex2::compiled(
    std::shared_ptr<const ConstellationSnapshot> snapshot,
    double minElevationRad) {
  return compiled(std::move(snapshot), minElevationRad, 0.0);
}

std::shared_ptr<const FootprintIndex2> FootprintIndex2::compiled(
    std::shared_ptr<const ConstellationSnapshot> snapshot,
    double minElevationRad, double motionMarginRad) {
  OPENSPACE_ASSERT(snapshot != nullptr, "compiled() needs a snapshot");
  IndexCacheKey key{};
  key.hash = snapshot->elementsHash();
  key.count = snapshot->size();
  key.tMicros = std::llround(snapshot->timeSeconds() * 1e6);
  std::memcpy(&key.maskBits, &minElevationRad, sizeof(key.maskBits));
  std::memcpy(&key.marginBits, &motionMarginRad, sizeof(key.marginBits));
  return indexCache().getOrBuild(key, [&] {
    return std::make_shared<const FootprintIndex2>(
        std::move(snapshot), minElevationRad, motionMarginRad);
  });
}

std::size_t FootprintIndex2::setCompiledCacheByteBudget(std::size_t bytes) {
  return indexCache().setByteBudget(bytes);
}

std::size_t FootprintIndex2::compiledCacheApproxBytes() {
  return indexCache().approxBytes();
}

std::size_t FootprintIndex2::compiledCacheHits() { return indexCache().hits(); }

std::size_t FootprintIndex2::compiledCacheMisses() {
  return indexCache().misses();
}

}  // namespace openspace
