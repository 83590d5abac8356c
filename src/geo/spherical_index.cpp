#include <openspace/geo/spherical_index.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

constexpr double kPi = std::numbers::pi;

/// Registration-side padding. These only have to absorb the rounding of
/// the build's own arithmetic (the cosine-form widths, the rotated window
/// endpoints, plus the ~1-ulp difference between the pseudo-angle of a
/// window endpoint and the pseudo-angle of a query direction at the same
/// longitude — both go through the identical monotone map, so their order
/// can only flip within that rounding). Semantic padding for a caller's
/// exact predicate is the caller's job. Pads are applied outward on
/// registration extents and never on queries, preserving the superset
/// guarantee.
constexpr double kZPad = 1e-12;
/// Applied in pseudo-angle units to both window ends. The true angle
/// grows at least as fast as the pseudo-angle (dtheta/da = (|cos| +
/// |sin|)^2 >= 1), so this pad covers at least 1e-9 rad of longitude.
constexpr double kLonPad = 1e-9;

/// Pad (in pseudo-angle units) applied outward when converting a cell's
/// sector bounds back to directions for cellCornerDirs: 1e-9 pseudo-angle
/// dwarfs the ~1-ulp rounding of the forward map, so the returned corner
/// rectangle contains every direction that stabs the cell.
constexpr double kPseudoPad = 1e-9;

/// Fixed chunk of the build's per-cap pass. Chunk boundaries never depend
/// on the thread count, so neither does the order windows are recorded in.
constexpr std::size_t kCapChunk = 256;

/// A latitude circle by the sine and cosine of its latitude: its points'
/// z and their distance from the polar axis.
struct LatCircle {
  double z = 0.0;
  double rho = 0.0;
};

LatCircle latCircle(double z) {
  z = std::clamp(z, -1.0, 1.0);
  return {z, std::sqrt((1.0 - z) * (1.0 + z))};
}

/// z of band edge k: bands are equal-z slabs of [-1, 1].
double bandEdgeZ(std::size_t k, std::size_t bands) {
  return -1.0 + 2.0 * static_cast<double>(k) / static_cast<double>(bands);
}

/// Pseudo-angle of sector edge k: sectors are equal slices of [-2, 2].
double sectorEdgeAngle(std::size_t k, std::size_t sectors) {
  return -2.0 + 4.0 * static_cast<double>(k) / static_cast<double>(sectors);
}

/// One cap (or neighborhood disc) prepared for registration: everything
/// its per-band windows derive from, so that no window needs any
/// trigonometry.
struct CapFrame {
  LatCircle center;
  /// The center's longitude as an (x, y) direction of any length.
  double x = 0.0;
  double y = 0.0;
  double cosRadius = 1.0;
  /// Every longitude counts at every latitude: the whole sphere, a radius
  /// of pi/2 or more, where the tangent argument below degenerates (the
  /// cap covers a hemisphere or more and can wrap a pole), or a center on
  /// the polar axis, which has no longitude.
  bool full = false;
  /// The tangent latitude, where the cap's bounding meridians touch it
  /// (sin phi* = sin(centerLat) / cos(radius)), and the width there.
  bool hasTangent = false;
  double tangentZ = 0.0;
  double tangentCos = 1.0;
  /// The latitude extent, clamped at the poles.
  LatCircle lo;
  LatCircle hi;
};

/// Cosine of the cap's longitude half-width at one latitude: the largest
/// |delta lon| such that the great-circle angle from the center to
/// (lat, center lon + delta lon) is still <= the radius. From the
/// spherical law of cosines, cos(r) = sin(c) sin(p) + cos(c) cos(p)
/// cos(dLon). -1 stands for every longitude, 1 for the center's alone.
double widthCos(const CapFrame& cap, const LatCircle& at) {
  const double denom = cap.center.rho * at.rho;
  // The latitude (or the center) at a pole: longitude is degenerate
  // there, so every longitude must count.
  if (denom <= 1e-15) return -1.0;
  return std::clamp((cap.cosRadius - cap.center.z * at.z) / denom, -1.0, 1.0);
}

/// The frame of the cap centered at (x, y, z) with the given radius: one
/// sine and cosine of the radius, the rest rational plus square roots.
CapFrame capFrame(double x, double y, double z, double radiusRad) {
  CapFrame cap;
  cap.center = latCircle(z);
  cap.x = x;
  cap.y = y;
  const double cosR = std::cos(radiusRad);
  const double sinR = std::sin(radiusRad);
  cap.cosRadius = cosR;
  // sin(lat -+ r), or the pole the cap contains: the south pole lies
  // within r of the center iff cos(lat + pi/2) = -z >= cos r.
  const LatCircle& c = cap.center;
  cap.lo = latCircle(-c.z >= cosR ? -1.0 : c.z * cosR - c.rho * sinR);
  cap.hi = latCircle(c.z >= cosR ? 1.0 : c.z * cosR + c.rho * sinR);
  if (radiusRad >= kPi || cosR <= 1e-12 || (x == 0.0 && y == 0.0)) {
    cap.full = true;
  } else {
    // The width as a function of latitude is unimodal between the cap's
    // latitude extremes, peaking at the tangent latitude.
    const double s = c.z / cosR;
    if (s >= -1.0 && s <= 1.0) {
      cap.hasTangent = true;
      cap.tangentZ = s;
      cap.tangentCos = widthCos(cap, latCircle(s));
    }
  }
  return cap;
}

/// Cosine of the cap's widest longitude half-width over the band between
/// the edges `edgeLo` and `edgeHi`: its latitude extent clipped to the
/// band. The widest width is the smallest cosine.
double bandWidthCos(const CapFrame& cap, const LatCircle& edgeLo,
                    const LatCircle& edgeHi) {
  if (cap.full) return -1.0;
  const LatCircle& segLo = cap.lo.z < edgeLo.z ? edgeLo : cap.lo;
  const LatCircle& segHi = edgeHi.z < cap.hi.z ? edgeHi : cap.hi;
  if (segLo.z > segHi.z) {
    // Can only happen through the z padding at the extent's edge bands;
    // collapse to the nearer endpoint.
    const double mid = std::clamp(cap.center.z, segHi.z, segLo.z);
    return widthCos(cap, latCircle(mid));
  }
  double c = std::min(widthCos(cap, segLo), widthCos(cap, segHi));
  if (cap.hasTangent && cap.tangentZ > segLo.z && cap.tangentZ < segHi.z) {
    c = std::min(c, cap.tangentCos);
  }
  return c;
}

/// Inverse of SphericalCapIndex's pseudo-angle map: the unit (x, y) whose
/// pseudo-angle is `a` (clamped to [-2, 2]). Piecewise-linear inverse of
/// t = y / (|x| + |y|) on the 1-norm circle, then normalized.
void pseudoAngleDir(double a, double& x, double& y) {
  a = std::clamp(a, -2.0, 2.0);
  double ux;
  double uy;
  if (a <= -1.0) {  // third quadrant: x <= 0, y <= 0
    ux = a + 1.0;
    uy = -2.0 - a;
  } else if (a >= 1.0) {  // second quadrant: x <= 0, y >= 0
    ux = 1.0 - a;
    uy = 2.0 - a;
  } else {  // x >= 0
    ux = 1.0 - std::abs(a);
    uy = a;
  }
  const double norm = std::hypot(ux, uy);
  x = ux / norm;
  y = uy / norm;
}

}  // namespace

SphericalCapIndex::SectorWindow SphericalCapIndex::sectorWindow(
    double x, double y, double cosHalfWidth) const {
  SectorWindow w{0, static_cast<std::uint32_t>(sectors_)};
  // fullWindowCos_ is where the window's complement could fit inside one
  // sector (see the constructor): both ends would land in that sector and
  // masquerade as a single-sector sliver, so the window is the whole band.
  if (cosHalfWidth <= fullWindowCos_) return w;
  // The window ends: (x, y) rotated by -+ the half-width, mapped through
  // the same pseudo-angle queries use and padded outward there. A wrapped
  // window (low end past the seam) walks through the seam like any other.
  const double c = cosHalfWidth;
  const double s = std::sqrt((1.0 - c) * (1.0 + c));
  double aLo = pseudoAngle(x * c + y * s, y * c - x * s) - kLonPad;
  double aHi = pseudoAngle(x * c - y * s, y * c + x * s) + kLonPad;
  if (aLo < -2.0) aLo += 4.0;
  if (aHi > 2.0) aHi -= 4.0;
  const std::size_t sLo = sectorOfAngle(aLo);
  const std::size_t sHi = sectorOfAngle(aHi);
  const std::size_t span = (sHi + sectors_ - sLo) % sectors_ + 1;
  if (span < sectors_) {
    w.start = static_cast<std::uint32_t>(sLo);
    w.count = static_cast<std::uint32_t>(span);
  }
  return w;
}

SphericalCapIndex::SphericalCapIndex(const std::vector<Cap>& caps)
    : capCount_(caps.size()) {
  if (capCount_ >= 0xFFFFFFFFull) {
    throw InvalidArgumentError("SphericalCapIndex: cap count exceeds 32 bits");
  }
  for (const Cap& cap : caps) {
    const Vec3& c = cap.unitCenter;
    if (!std::isfinite(c.x) || !std::isfinite(c.y) || !std::isfinite(c.z)) {
      throw InvalidArgumentError(
          "SphericalCapIndex: cap center must be finite");
    }
    // The cosine-form build reads z as the sine of the center latitude,
    // so a zero or scaled center would register at the wrong latitude.
    if (!(std::abs(c.dot(c) - 1.0) <= 2e-9)) {
      throw InvalidArgumentError(
          "SphericalCapIndex: cap center must be a unit vector");
    }
    if (std::isnan(cap.halfAngleRad)) {
      throw InvalidArgumentError("SphericalCapIndex: cap half-angle is NaN");
    }
  }
  std::vector<double> halfAngleRad(capCount_);
  double meanHalfAngleRad = 0.0;
  for (std::size_t i = 0; i < capCount_; ++i) {
    halfAngleRad[i] = std::clamp(caps[i].halfAngleRad, 0.0, kPi);
    meanHalfAngleRad += halfAngleRad[i];
  }
  // Cell size: a tenth of the mean cap radius for sparse fleets, coarser
  // as the fleet grows dense. Fine cells do two things: the per-cell
  // candidate lists hold little beyond the caps that truly reach their
  // points, and — more importantly for the Monte-Carlo sweeps — most
  // covered cells end up *entirely inside* some cap, which is what lets
  // FootprintIndex2's whole-cell certificates answer the bulk of queries
  // without touching a single cap.
  //
  // Two regimes (tests/test_footprint_index.cpp, CapIndexScaling):
  //  * Sparse (cap count up to ~800): registrations grow as
  //    (capRadius/cellSize)^2 per cap, so the sqrt(count) coarsening keeps
  //    the total entry count roughly constant while most cells are empty.
  //  * Dense: the coarsening must stop — per-cell lists cannot shrink
  //    below the fleet's intrinsic per-point cover count
  //    kappa = N * capAreaFraction, and a frozen grid inflates them by
  //    (1 + density)^2 over that floor while saving nothing (the old 0.6
  //    ceiling cost ~1.8x kappa at 66k caps). The 0.35 ceiling keeps the
  //    cell a fixed fraction of the cap radius: registrations per cap stay
  //    constant (~O(N) build, entries within a fixed multiple of N) and
  //    registrations per cell stay within ~1.3x of the kappa floor at any
  //    fleet size.
  if (capCount_ > 0) {
    meanHalfAngleRad /= static_cast<double>(capCount_);
    const double density =
        std::clamp(0.1 * std::sqrt(static_cast<double>(capCount_) / 66.0),
                   0.1, 0.35);
    const double cellRad = std::clamp(meanHalfAngleRad, 0.02, kPi) * density;
    bands_ = static_cast<std::size_t>(
        std::clamp(std::ceil(2.0 / cellRad), 13.0, 256.0));
    std::size_t sectors = 8;
    while (sectors < 4 * bands_ && sectors < 512) sectors *= 2;
    sectors_ = sectors;
    // A window of half-width w leaves a true-angle gap of 2 (pi - w); in
    // pseudo-angle (dtheta/da <= 2) that is at least pi - w, less the two
    // kLonPad pads. Both ends can fall in one sector only when the gap is
    // narrower than a sector, 4/sectors_: when w > pi - 4/sectors_ -
    // 2 kLonPad. sectorWindow registers any such window on the whole band.
    fullWindowCos_ =
        -std::cos(4.0 / static_cast<double>(sectors_) + 2.0 * kLonPad);
  }
  const std::size_t cells = bands_ * sectors_;

  // Per band edge: the edge's latitude circle and (for cellCornerDirs) the
  // padded corner circles of every band.
  std::vector<LatCircle> edges(bands_ + 1);
  for (std::size_t k = 0; k <= bands_; ++k) {
    edges[k] = latCircle(bandEdgeZ(k, bands_));
  }
  bandCorners_.resize(bands_);
  for (std::size_t b = 0; b < bands_; ++b) {
    BandCorners& z = bandCorners_[b];
    z.zLo = std::clamp(bandEdgeZ(b, bands_) - kZPad, -1.0, 1.0);
    z.zHi = std::clamp(bandEdgeZ(b + 1, bands_) + kZPad, -1.0, 1.0);
    z.cLo = std::sqrt(std::max(0.0, 1.0 - z.zLo * z.zLo));
    z.cHi = std::sqrt(std::max(0.0, 1.0 - z.zHi * z.zHi));
  }
  sectorCorners_.resize(sectors_);
  for (std::size_t s = 0; s < sectors_; ++s) {
    SectorCorners& a = sectorCorners_[s];
    pseudoAngleDir(sectorEdgeAngle(s, sectors_) - kPseudoPad, a.xLo, a.yLo);
    pseudoAngleDir(sectorEdgeAngle(s + 1, sectors_) + kPseudoPad, a.xHi,
                   a.yHi);
  }

  // Register each cap in every cell its padded footprint touches: a
  // counting-sort build into the CSR in two parallel passes over fixed
  // chunks, so the result never depends on the thread count.
  //  (1) Per cap chunk: each cap's frame (one sine and cosine of its
  //      radius), then each (cap, band) sector window from that frame
  //      alone, grouped by band inside the chunk, in ascending cap order
  //      within each band, with the chunk's registration count per band.
  //  (2) Per band row, after a prefix sum over the band totals: the row's
  //      per-cell counts (a difference array over the sector runs), its
  //      CSR offsets and its cell lists, walking the chunks in order. A
  //      row owns a contiguous CSR range, so no two tasks share a slot,
  //      and every cell list comes out in ascending cap order (one
  //      registration per cap per cell).
  struct BandWindow {
    std::uint32_t cap = 0;
    SectorWindow window{0, 0};
  };
  struct ChunkWindows {
    std::vector<BandWindow> windows;      ///< grouped by band
    std::vector<std::size_t> bandStart;   ///< bands_ + 1 offsets
    std::vector<std::size_t> bandEntries;  ///< registrations per band
  };
  centerZ_.resize(capCount_);
  centerAngle_.resize(capCount_);
  std::vector<ChunkWindows> chunks((capCount_ + kCapChunk - 1) / kCapChunk);
  parallelFor(capCount_, kCapChunk, [&](std::size_t begin, std::size_t end) {
    ChunkWindows& out = chunks[begin / kCapChunk];
    std::vector<CapFrame> frame(end - begin);
    out.bandStart.assign(bands_ + 1, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3& c = caps[i].unitCenter;
      centerZ_[i] = c.z;
      centerAngle_[i] = pseudoAngle(c.x, c.y);
      CapFrame& cap = frame[i - begin];
      cap = capFrame(c.x, c.y, c.z, halfAngleRad[i]);
      const std::size_t bHi = bandOf(cap.hi.z + kZPad);
      for (std::size_t b = bandOf(cap.lo.z - kZPad); b <= bHi; ++b) {
        ++out.bandStart[b + 1];
      }
    }
    for (std::size_t b = 0; b < bands_; ++b) {
      out.bandStart[b + 1] += out.bandStart[b];
    }
    out.windows.resize(out.bandStart[bands_]);
    out.bandEntries.assign(bands_, 0);
    std::vector<std::size_t> slot(out.bandStart.begin(),
                                  out.bandStart.end() - 1);
    for (std::size_t i = begin; i < end; ++i) {
      const CapFrame& cap = frame[i - begin];
      const std::size_t bHi = bandOf(cap.hi.z + kZPad);
      for (std::size_t b = bandOf(cap.lo.z - kZPad); b <= bHi; ++b) {
        const SectorWindow w = sectorWindow(
            cap.x, cap.y, bandWidthCos(cap, edges[b], edges[b + 1]));
        out.windows[slot[b]++] = {static_cast<std::uint32_t>(i), w};
        out.bandEntries[b] += w.count;
      }
    }
  });

  std::vector<std::size_t> rowStart(bands_ + 1, 0);
  for (std::size_t b = 0; b < bands_; ++b) {
    std::size_t entries = 0;
    for (const ChunkWindows& chunk : chunks) entries += chunk.bandEntries[b];
    rowStart[b + 1] = rowStart[b] + entries;
  }
  const std::size_t total = rowStart[bands_];
  if (total >= 0xFFFFFFFFull) {
    throw InvalidArgumentError(
        "SphericalCapIndex: cell registrations exceed 32 bits");
  }
  cellStart_.assign(cells + 1, 0);
  cellStart_[cells] = static_cast<std::uint32_t>(total);
  cellEntry_.resize(total);
  parallelFor(bands_, 1, [&](std::size_t begin, std::size_t end) {
    // Per-sector difference array, then the row's fill cursors. Unsigned
    // wrap-around is harmless: every prefix sum is a true count.
    std::vector<std::uint32_t> cursor(sectors_ + 1);
    for (std::size_t b = begin; b < end; ++b) {
      std::fill(cursor.begin(), cursor.end(), 0u);
      for (const ChunkWindows& chunk : chunks) {
        for (std::size_t k = chunk.bandStart[b]; k < chunk.bandStart[b + 1];
             ++k) {
          const SectorWindow w = chunk.windows[k].window;
          const std::size_t stop = w.start + w.count;
          ++cursor[w.start];
          if (stop <= sectors_) {
            --cursor[stop];
          } else {
            --cursor[sectors_];
            ++cursor[0];
            --cursor[stop - sectors_];
          }
        }
      }
      const std::size_t row = b * sectors_;
      auto offset = static_cast<std::uint32_t>(rowStart[b]);
      std::uint32_t count = 0;
      for (std::size_t s = 0; s < sectors_; ++s) {
        count += cursor[s];
        cellStart_[row + s] = offset;
        cursor[s] = offset;
        offset += count;
      }
      for (const ChunkWindows& chunk : chunks) {
        for (std::size_t k = chunk.bandStart[b]; k < chunk.bandStart[b + 1];
             ++k) {
          const BandWindow& bw = chunk.windows[k];
          std::size_t s = bw.window.start;
          for (std::uint32_t n = 0; n < bw.window.count; ++n) {
            cellEntry_[cursor[s]++] = bw.cap;
            s = (s + 1 == sectors_) ? 0 : s + 1;
          }
        }
      }
    }
  });
#ifndef NDEBUG
  audit();
#endif
}

void SphericalCapIndex::audit() const {
  const std::size_t cells = cellCount();
  if (cellStart_.size() != cells + 1 || cellStart_.front() != 0 ||
      cellStart_.back() != cellEntry_.size()) {
    throw StateError(
        "SphericalCapIndex::audit: CSR offsets do not span the entries");
  }
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto [lo, hi] = cellEntryRange(cell);
    if (lo > hi) {
      throw StateError("SphericalCapIndex::audit: CSR offsets decrease");
    }
    for (std::uint32_t e = lo; e < hi; ++e) {
      if (cellEntry_[e] >= capCount_) {
        throw StateError("SphericalCapIndex::audit: entry out of range");
      }
      if (e > lo && cellEntry_[e - 1] >= cellEntry_[e]) {
        throw StateError(
            "SphericalCapIndex::audit: cell list not strictly ascending");
      }
    }
  }
  // The stored z and pseudo-angle are the center's own, so this is the
  // cell cellIndexOf(center) names.
  for (std::size_t i = 0; i < capCount_; ++i) {
    const std::size_t cell =
        bandOf(centerZ_[i]) * sectors_ + sectorOfAngle(centerAngle_[i]);
    const auto [lo, hi] = cellEntryRange(cell);
    if (!std::binary_search(cellEntry_.begin() + lo, cellEntry_.begin() + hi,
                            static_cast<std::uint32_t>(i))) {
      throw StateError(
          "SphericalCapIndex::audit: cap missing from its center's cell");
    }
  }
}

void SphericalCapIndex::neighborhoodCandidates(
    std::size_t i, double radiusRad, std::vector<std::uint32_t>& out) const {
  out.clear();
  OPENSPACE_ASSERT(i < capCount_, "cap index within the index");
  if (capCount_ <= 1) return;
  double x;
  double y;
  pseudoAngleDir(centerAngle_[i], x, y);
  const CapFrame disc =
      capFrame(x, y, centerZ_[i], std::clamp(radiusRad, 0.0, kPi));
  const std::size_t bLo = bandOf(disc.lo.z - kZPad);
  const std::size_t bHi = bandOf(disc.hi.z + kZPad);
  LatCircle edgeLo = latCircle(bandEdgeZ(bLo, bands_));
  for (std::size_t b = bLo; b <= bHi; ++b) {
    const LatCircle edgeHi = latCircle(bandEdgeZ(b + 1, bands_));
    // Scan the same sector walk registration would use (sectorWindow, with
    // its near-full-window guard): every cap whose *center* longitude lies
    // in the window maps (monotone pseudo-angle, pad-covered rounding) to
    // one of these sectors, and a cap always registers in the cell
    // containing its center.
    const std::size_t base = b * sectors_;
    const SectorWindow win =
        sectorWindow(disc.x, disc.y, bandWidthCos(disc, edgeLo, edgeHi));
    std::size_t s = win.start;
    for (std::uint32_t k = 0; k < win.count; ++k) {
      const std::size_t c = base + s;
      for (std::uint32_t e = cellStart_[c]; e < cellStart_[c + 1]; ++e) {
        if (cellEntry_[e] != i) out.push_back(cellEntry_[e]);
      }
      s = (s + 1 == sectors_) ? 0 : s + 1;
    }
    edgeLo = edgeHi;
  }
  // A cap registers in several cells, so the scan sees it more than once;
  // the sweep consumers need each neighbor exactly once, in ascending
  // order (the legacy pair loop's visit order).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace openspace
