// Cell-grid spatial index over spherical caps.
//
// Every coverage / visibility question in the library reduces to "which of
// N spherical caps contain this direction?": a satellite footprint is a cap
// around the sub-satellite direction, a ground user sees exactly the
// satellites whose (elevation-dependent) caps contain the user direction.
// The brute answer tests all N caps per query; the Figure-2(c) Monte-Carlo
// sweep and the million-user association path ask millions of such queries
// per timestep.
//
// SphericalCapIndex tiles the unit sphere into equal-z latitude bands
// (equal-z slabs are equal-area, so uniformly sampled query points spread
// evenly over bands) crossed with uniform longitude sectors, and registers
// each cap in every cell its (conservatively padded) footprint touches.
// The build takes one sine and cosine of each cap's radius and no
// trigonometry per (cap, band) window: widths stay in cosine form and
// window ends come from rotating the center's longitude. A stabbing query
// is two floor operations — the band from the direction's z, the sector
// from a trig-free monotone pseudo-angle of (x, y), both branchless so the
// hot loops never stall on mispredicted sign tests — followed by a scan
// of one precomputed candidate list. With cells a small fraction of the
// mean cap radius the list holds O(true candidates) entries, so callers
// that early-exit (any cover? count to k?) typically touch one or two caps
// per query; callers that can prove a whole-cell property once (see
// cellCornerDirs) skip the scan entirely.
//
// The index is *conservative by construction*: `forEachCandidate` visits a
// superset of the caps containing the query direction (never a subset —
// registration windows are padded outward, queries are not). Callers
// re-test each candidate with their own exact predicate, which is what
// keeps the indexed paths bit-for-bit identical to the brute-force
// executable specs (see DESIGN.md §10 for the determinism argument).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include <openspace/core/assert.hpp>
#include <openspace/geo/vec3.hpp>

namespace openspace {

/// Immutable (latitude band x longitude sector) cell index over spherical
/// caps. Thread-safe for concurrent queries after construction. The build
/// fans out over parallelFor in fixed chunks, so the index is bit-identical
/// at any thread count.
class SphericalCapIndex {
 public:
  /// One cap: a unit direction and an angular radius.
  struct Cap {
    Vec3 unitCenter;
    double halfAngleRad = 0.0;
  };

  /// An empty index: no caps, every query visits nothing.
  SphericalCapIndex() : SphericalCapIndex(std::vector<Cap>{}) {}

  /// Build over `caps` (cap i keeps index i). Half-angles are clamped to
  /// [0, pi] (so +-inf and negative radii are accepted). Throws
  /// InvalidArgumentError, before any work, for a non-finite center
  /// component, a center whose |c|^2 is not within 2e-9 of 1, or a NaN
  /// half-angle. Builds without NDEBUG run audit() on every index.
  /// The cell size is chosen as a small fraction of the mean half-angle:
  /// fine enough that most cells lie entirely inside or outside a typical
  /// cap (which is what makes whole-cell certificates effective), coarse
  /// enough that registrations stay linear in the cap count.
  explicit SphericalCapIndex(const std::vector<Cap>& caps);

  std::size_t size() const noexcept { return capCount_; }
  std::size_t bandCount() const noexcept { return bands_; }
  std::size_t sectorCount() const noexcept { return sectors_; }
  std::size_t cellCount() const noexcept { return bands_ * sectors_; }
  /// Total (cap, cell) registrations — the index's memory footprint.
  std::size_t entryCount() const noexcept { return cellEntry_.size(); }

  /// Approximate resident size in bytes: the center arrays, the CSR cell
  /// table and the corner tables. Feeds the byte-budgeted caches that hold
  /// compiled indexes (e.g. FootprintIndex2::compiled).
  std::size_t approxBytes() const noexcept {
    return sizeof(*this) +
           (centerZ_.size() + centerAngle_.size()) * sizeof(double) +
           (cellStart_.size() + cellEntry_.size()) * sizeof(std::uint32_t) +
           bandCorners_.size() * sizeof(BandCorners) +
           sectorCorners_.size() * sizeof(SectorCorners);
  }

  /// Invariant audit: throws StateError unless the CSR offsets are
  /// non-decreasing and end at entries().size(), every cell list is
  /// strictly ascending with entries < size(), and every cap is registered
  /// in the cell containing its center. O(entries + caps log entries).
  void audit() const;

  /// The cell the unit direction stabs. Branchless: one multiply+floor for
  /// the band, one division+floor for the sector.
  std::size_t cellIndexOf(const Vec3& unitDir) const noexcept {
    return bandOf(unitDir.z) * sectors_ + sectorOf(unitDir.x, unitDir.y);
  }

  /// Entry range [first, second) of `cell` in entries(): the ascending cap
  /// indices registered there.
  std::pair<std::uint32_t, std::uint32_t> cellEntryRange(
      std::size_t cell) const noexcept {
    return {cellStart_[cell], cellStart_[cell + 1]};
  }

  /// Flat entry array all cellEntryRange ranges point into.
  const std::vector<std::uint32_t>& entries() const noexcept {
    return cellEntry_;
  }

  /// Four unit directions whose spherical lat/lon rectangle conservatively
  /// contains every direction mapping to `cell` (the cell's corners,
  /// expanded outward by the query-side rounding pad). Order: (latLo,lonLo),
  /// (latLo,lonHi), (latHi,lonLo), (latHi,lonHi). Because a cell is bounded
  /// by two latitude circles and two meridian arcs, the maximum central
  /// angle from any external point P to the cell is attained at one of
  /// these corners — provided the distance from P to the cell stays below
  /// ~pi/2 (beyond that a meridian edge can hide an interior maximum).
  /// Callers building whole-cell certificates must respect that bound; see
  /// FootprintIndex2 and DESIGN.md §10. Read from per-band and per-sector
  /// tables built with the index: no trigonometry per call.
  std::array<Vec3, 4> cellCornerDirs(std::size_t cell) const {
    OPENSPACE_ASSERT(cell < cellCount(), "cell index within the grid");
    const BandCorners& z = bandCorners_[cell / sectors_];
    const SectorCorners& a = sectorCorners_[cell % sectors_];
    return {Vec3{a.xLo * z.cLo, a.yLo * z.cLo, z.zLo},
            Vec3{a.xHi * z.cLo, a.yHi * z.cLo, z.zLo},
            Vec3{a.xLo * z.cHi, a.yLo * z.cHi, z.zHi},
            Vec3{a.xHi * z.cHi, a.yHi * z.cHi, z.zHi}};
  }

  /// Visit the index of every cap that *may* contain the unit direction
  /// `unitDir` — a guaranteed superset of the true containing set; each
  /// cap is visited at most once, in ascending cap order. A callback
  /// returning bool stops the scan early by returning true (the function
  /// then returns true); void callbacks always see every candidate.
  template <typename Fn>
  bool forEachCandidate(const Vec3& unitDir, Fn&& fn) const {
    if (cellEntry_.empty()) return false;
    const auto [lo, hi] = cellEntryRange(cellIndexOf(unitDir));
    for (std::uint32_t e = lo; e < hi; ++e) {
      if constexpr (std::is_same_v<
                        std::invoke_result_t<Fn&, std::uint32_t>, bool>) {
        if (fn(cellEntry_[e])) return true;
      } else {
        fn(cellEntry_[e]);
      }
    }
    return false;
  }

  /// Append (ascending, deduplicated, excluding i itself) the index of
  /// every cap whose *center* may lie within `radiusRad` of cap i's center.
  /// Superset-guaranteed, like forEachCandidate. Drives the worst-case
  /// overlap band-sweep: pass radius = halfAngle(i) + max half-angle.
  void neighborhoodCandidates(std::size_t i, double radiusRad,
                              std::vector<std::uint32_t>& out) const;

 private:
  // units: unit-sphere z component, dimensionless in [-1, 1]
  std::size_t bandOf(double unitZ) const noexcept {
    const double scaled =  // units: fractional band index
        (unitZ + 1.0) * 0.5 * static_cast<double>(bands_);
    if (!(scaled > 0.0)) return 0;  // also catches NaN
    const auto b = static_cast<std::size_t>(scaled);
    return (b >= bands_) ? bands_ - 1 : b;
  }

  /// Monotone trig-free stand-in for atan2(y, x): strictly increasing in
  /// the true longitude, range [-2, 2] with both ends meeting at the +-pi
  /// seam, and invariant under scaling (x, y). Sector boundaries live in
  /// this space, so neither queries nor registration touch atan2: the
  /// build maps its rotated window ends through it and pads them here.
  /// Written select-style (no data-dependent branches): the
  /// signs of x and y are effectively random in the hot sweeps, and a
  /// mispredict here would serialize the whole query pipeline.
  // units: pseudo-angle, monotone in longitude over [-2, 2]
  static double pseudoAngle(double x, double y) noexcept {
    const double d = std::abs(x) + std::abs(y);  // units: 1-norm of (x, y)
    const double t = d > 0.0 ? y / d : 0.0;  // units: normalized y (pole: 0)
    return t +
           static_cast<double>(x < 0.0) * (std::copysign(2.0, y) - 2.0 * t);
  }

  // units: pseudo-angle in [-2, 2]
  std::size_t sectorOfAngle(double angle) const noexcept {
    const double scaled =  // units: fractional sector index
        (angle + 2.0) * 0.25 * static_cast<double>(sectors_);
    if (!(scaled > 0.0)) return 0;
    const auto s = static_cast<std::size_t>(scaled);
    return (s >= sectors_) ? sectors_ - 1 : s;
  }

  // units: x, y are unit-direction components
  std::size_t sectorOf(double x, double y) const noexcept {
    return sectorOfAngle(pseudoAngle(x, y));
  }

  /// A contiguous (mod sectors_) run of sectors: `count` sectors starting
  /// at `start`, wrapping through the +-pi seam when needed.
  struct SectorWindow {
    std::uint32_t start;
    std::uint32_t count;
  };

  /// The sector run covering the longitudes within the half-width whose
  /// cosine is `cosHalfWidth` of the direction (x, y) (any length; -1 is
  /// the whole circle). Endpoints go through the same pseudo-angle map
  /// queries use, so (with the registration-side pad) query rounding can
  /// never fall off the edge. Every build and neighborhood scan registers
  /// or walks its windows through this one rule.
  // units: direction components and a cosine, all dimensionless
  SectorWindow sectorWindow(double x, double y, double cosHalfWidth) const;

  /// The latitude circles bounding a band's cell corners, padded outward:
  /// z and sqrt(1 - z^2) at the low and high edge.
  struct BandCorners {
    double zLo = 0.0;  // units: unit-sphere z component, dimensionless
    double cLo = 0.0;  // units: sqrt(1 - zLo^2), dimensionless
    double zHi = 0.0;  // units: unit-sphere z component, dimensionless
    double cHi = 0.0;  // units: sqrt(1 - zHi^2), dimensionless
  };
  /// The unit (x, y) directions of a sector's padded pseudo-angle bounds.
  struct SectorCorners {
    double xLo = 0.0;  // units: unit-direction component
    double yLo = 0.0;  // units: unit-direction component
    double xHi = 0.0;  // units: unit-direction component
    double yHi = 0.0;  // units: unit-direction component
  };

  std::size_t capCount_ = 0;
  std::size_t bands_ = 1;
  std::size_t sectors_ = 1;
  /// sectorWindow registers a window on the whole band when the cosine
  /// of its half-width is at or below this (set with sectors_).
  double fullWindowCos_ = -1.0;  // units: cosine, dimensionless
  // Cap centers by their cell coordinates, z and the pseudo-angle of
  // (x, y): the cell each center stabs, and the neighborhood disc centers.
  std::vector<double> centerZ_;
  std::vector<double> centerAngle_;
  // CSR: cell (b, s) owns cellEntry_[cellStart_[b*sectors_+s] ..
  // cellStart_[b*sectors_+s+1]), ascending cap indices.
  std::vector<std::uint32_t> cellStart_;
  std::vector<std::uint32_t> cellEntry_;
  // cellCornerDirs tables: one entry per band, one per sector.
  std::vector<BandCorners> bandCorners_;
  std::vector<SectorCorners> sectorCorners_;
};

}  // namespace openspace
