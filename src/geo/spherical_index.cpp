#include <openspace/geo/spherical_index.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

constexpr double kPi = std::numbers::pi;

/// Registration-side padding. These only have to absorb the rounding of
/// the index's own trigonometry (sin/asin/acos at build time, plus the
/// ~1-ulp difference between the pseudo-angle of a window endpoint and the
/// pseudo-angle of a query direction at the same longitude — both go
/// through the identical monotone map, so their order can only flip within
/// that rounding). Semantic padding for a caller's exact predicate is the
/// caller's job. Pads are applied outward on registration extents and
/// never on queries, preserving the superset guarantee.
constexpr double kZPad = 1e-12;
constexpr double kLonPadRad = 1e-9;

/// Pad (in pseudo-angle units) applied outward when converting a cell's
/// sector bounds back to directions for cellCornerDirs: 1e-9 pseudo-angle
/// dwarfs the ~1-ulp rounding of the forward map, so the returned corner
/// rectangle contains every direction that stabs the cell.
constexpr double kPseudoPad = 1e-9;

/// Fixed chunk of the build's per-cap pass. Chunk boundaries never depend
/// on the thread count, so neither does the order windows are recorded in.
constexpr std::size_t kCapChunk = 256;

/// A latitude with its sine and cosine, each evaluated once.
struct LatTrig {
  double rad = 0.0;
  double sin = 0.0;
  double cos = 0.0;
};

LatTrig latTrig(double latRad) {
  return {latRad, std::sin(latRad), std::cos(latRad)};
}

/// z of band edge k: bands are equal-z slabs of [-1, 1].
double bandEdgeZ(std::size_t k, std::size_t bands) {
  return -1.0 + 2.0 * static_cast<double>(k) / static_cast<double>(bands);
}

/// Pseudo-angle of sector edge k: sectors are equal slices of [-2, 2].
double sectorEdgeAngle(std::size_t k, std::size_t sectors) {
  return -2.0 + 4.0 * static_cast<double>(k) / static_cast<double>(sectors);
}

/// The latitude of band edge k, with its trig.
LatTrig bandEdge(std::size_t k, std::size_t bands) {
  return latTrig(std::asin(std::clamp(bandEdgeZ(k, bands), -1.0, 1.0)));
}

/// Everything the longitude half-width derives from the cap alone, plus a
/// one-entry memo of the last width evaluated.
struct CapTrig {
  double sinLat = 0.0;
  double cosLat = 0.0;
  double cosRadius = 0.0;
  /// The half-width at every query latitude when it does not depend on
  /// the range (radius >= pi or < 0, or a hemisphere-or-wider cap); < 0
  /// when it must be evaluated.
  double fixedWidthRad = -1.0;
  /// The tangent latitude, where the cap's bounding meridians touch it,
  /// and the half-width there (valid only when hasTangent).
  bool hasTangent = false;
  double tangentLatRad = 0.0;
  double tangentWidthRad = 0.0;
  /// Consecutive bands share an edge: the width there is evaluated once.
  double memoLatRad = std::numeric_limits<double>::quiet_NaN();
  double memoWidthRad = 0.0;
};

/// Longitude half-width of the cap at one query latitude: the largest
/// |delta lon| such that the great-circle angle from (centerLat, 0) to
/// (pointLat, delta lon) is still <= capRadius. Solved from the spherical
/// law of cosines: cos(capRadius) = sin(c)sin(p) + cos(c)cos(p)cos(dLon).
double widthAtLatRad(const CapTrig& cap, const LatTrig& point) {
  const double denom = cap.cosLat * point.cos;
  if (denom <= 1e-15) {
    // Query latitude (or the center) at a pole: longitude is degenerate
    // there, so every longitude must count.
    return kPi;
  }
  const double num = cap.cosRadius - cap.sinLat * point.sin;
  const double c = num / denom;
  if (c <= -1.0) return kPi;  // whole latitude circle inside the cap
  if (c >= 1.0) return 0.0;   // latitude circle outside the cap's reach
  return std::acos(c);
}

/// widthAtLatRad through the cap's memo. Equal latitudes give equal widths
/// (even +0 and -0: their sines differ only in sign, which the product
/// with sin(centerLat) cannot carry into cos(radius) - 0).
double memoWidthAtLatRad(CapTrig& cap, const LatTrig& point) {
  if (point.rad != cap.memoLatRad) {
    cap.memoLatRad = point.rad;
    cap.memoWidthRad = widthAtLatRad(cap, point);
  }
  return cap.memoWidthRad;
}

CapTrig capTrig(double centerLatRad, double capRadiusRad) {
  CapTrig cap;
  cap.sinLat = std::sin(centerLatRad);
  cap.cosLat = std::cos(centerLatRad);
  cap.cosRadius = std::cos(capRadiusRad);
  if (capRadiusRad < 0.0) {
    cap.fixedWidthRad = 0.0;
  } else if (capRadiusRad >= kPi || cap.cosRadius <= 1e-12) {
    // The whole sphere, or radius >= pi/2, where the tangent formula below
    // degenerates (the cap covers a hemisphere or more and can wrap a
    // pole): every longitude counts.
    cap.fixedWidthRad = kPi;
  } else {
    // The width as a function of query latitude is unimodal between the
    // cap's latitude extremes, peaking at the tangent latitude where the
    // cap's bounding meridians touch it: sin(phi*) = sin(centerLat) /
    // cos(radius).
    const double s = cap.sinLat / cap.cosRadius;
    if (s >= -1.0 && s <= 1.0) {
      cap.hasTangent = true;
      cap.tangentLatRad = std::asin(s);
      cap.tangentWidthRad = widthAtLatRad(cap, latTrig(cap.tangentLatRad));
    }
  }
  return cap;
}

/// capLonHalfWidthRad over the query latitudes [lo, hi] (lo <= hi).
double widthOverRangeRad(CapTrig& cap, const LatTrig& lo, const LatTrig& hi) {
  if (cap.fixedWidthRad >= 0.0) return cap.fixedWidthRad;
  const double wLo = memoWidthAtLatRad(cap, lo);
  double w = std::max(wLo, memoWidthAtLatRad(cap, hi));
  if (cap.hasTangent && cap.tangentLatRad > lo.rad &&
      cap.tangentLatRad < hi.rad) {
    w = std::max(w, cap.tangentWidthRad);
  }
  return w;
}

/// One cap (or neighborhood disc) prepared for registration: its cap-only
/// trig, its latitude extent clamped to the poles and the bands that
/// extent touches.
struct CapExtent {
  double centerLatRad = 0.0;
  CapTrig trig;
  LatTrig lo;
  LatTrig hi;
  std::size_t bandLo = 0;
  std::size_t bandHi = 0;
};

CapExtent capExtent(double centerLatRad, double radiusRad) {
  CapExtent cap;
  cap.centerLatRad = centerLatRad;
  cap.trig = capTrig(centerLatRad, radiusRad);
  cap.lo = latTrig(std::max(-kPi / 2.0, centerLatRad - radiusRad));
  cap.hi = latTrig(std::min(kPi / 2.0, centerLatRad + radiusRad));
  return cap;
}

/// Padded longitude half-width of `cap` over the band between the edges
/// `edgeLo` and `edgeHi`: the cap's width over its latitude range clipped
/// to the band, plus the registration longitude pad.
double bandHalfWidthRad(CapExtent& cap, const LatTrig& edgeLo,
                        const LatTrig& edgeHi) {
  // The segment is max(cap.lo, edgeLo) .. min(cap.hi, edgeHi), picking the
  // operand std::max / std::min would return so its trig comes along.
  const LatTrig& segLo = cap.lo.rad < edgeLo.rad ? edgeLo : cap.lo;
  const LatTrig& segHi = edgeHi.rad < cap.hi.rad ? edgeHi : cap.hi;
  double w;
  if (segLo.rad > segHi.rad) {
    // Can only happen through the z padding at the extent's edge bands;
    // collapse to the nearer endpoint.
    const LatTrig mid =
        latTrig(std::clamp(cap.centerLatRad, segHi.rad, segLo.rad));
    w = widthOverRangeRad(cap.trig, mid, mid);
  } else {
    w = widthOverRangeRad(cap.trig, segLo, segHi);
  }
  return std::min(kPi, w + kLonPadRad);
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

double capLonHalfWidthRad(double centerLatRad, double capRadiusRad,
                          double latLoRad, double latHiRad) {
  if (latLoRad > latHiRad) std::swap(latLoRad, latHiRad);
  CapTrig cap = capTrig(centerLatRad, capRadiusRad);
  return widthOverRangeRad(cap, latTrig(latLoRad), latTrig(latHiRad));
}

SphericalCapIndex::SectorWindow SphericalCapIndex::sectorWindow(
    double centerLonRad, double halfWidthRad) const {
  SectorWindow w{0, static_cast<std::uint32_t>(sectors_)};
  // The endpoint sectors below determine the span only while the window's
  // complement is wider than any single sector: a nearly-full window (gap
  // 2*pi - 2*halfWidth narrower than the sector containing it) lands both
  // endpoints in that one sector and would masquerade as a single-sector
  // sliver. Sectors are uniform in pseudo-angle, and the true-angle width
  // of a sector is at most twice its pseudo-angle width (dtheta/da =
  // (|cos| + |sin|)^2 <= 2), i.e. <= 8/sectors_ rad — so any window whose
  // gap could fit inside one sector is treated as full-circle.
  const double maxSectorWidthRad = 8.0 / static_cast<double>(sectors_);
  if (halfWidthRad < kPi - 0.5 * maxSectorWidthRad) {
    // Window endpoints in true angle -> sectors via the same pseudo-angle
    // map queries use. The half-width already carries the registration
    // longitude pad, which dominates the rounding difference between this
    // conversion and a query's pseudoAngle(x, y) at the same longitude, so
    // no whole-sector expansion is needed. A wrapped window (lonLo > lonHi
    // after reduction) walks through the seam like any other.
    const double lonLo = std::remainder(centerLonRad - halfWidthRad, 2.0 * kPi);
    const double lonHi = std::remainder(centerLonRad + halfWidthRad, 2.0 * kPi);
    const std::size_t sLo = sectorOf(std::cos(lonLo), std::sin(lonLo));
    const std::size_t sHi = sectorOf(std::cos(lonHi), std::sin(lonHi));
    const std::size_t span = (sHi + sectors_ - sLo) % sectors_ + 1;
    if (span < sectors_) {
      w.start = static_cast<std::uint32_t>(sLo);
      w.count = static_cast<std::uint32_t>(span);
    }
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
  }
  const std::size_t cells = bands_ * sectors_;

  // Band-only trig, once per band edge: the edge latitudes and (for
  // cellCornerDirs) the padded corner circles of every band.
  std::vector<LatTrig> edges(bands_ + 1);
  for (std::size_t k = 0; k <= bands_; ++k) edges[k] = bandEdge(k, bands_);
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
  //  (1) Per cap chunk: each (cap, band) sector window — all the
  //      per-window trigonometry — grouped by band inside the chunk, in
  //      ascending cap order within each band, with the chunk's
  //      registration count per band.
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
  centerLatRad_.resize(capCount_);
  centerLonRad_.resize(capCount_);
  std::vector<ChunkWindows> chunks((capCount_ + kCapChunk - 1) / kCapChunk);
  parallelFor(capCount_, kCapChunk, [&](std::size_t begin, std::size_t end) {
    ChunkWindows& out = chunks[begin / kCapChunk];
    std::vector<CapExtent> extent(end - begin);
    out.bandStart.assign(bands_ + 1, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3& c = caps[i].unitCenter;
      centerLatRad_[i] = std::asin(std::clamp(c.z, -1.0, 1.0));
      centerLonRad_[i] = std::atan2(c.y, c.x);
      CapExtent& cap = extent[i - begin];
      cap = capExtent(centerLatRad_[i], halfAngleRad[i]);
      cap.bandLo = bandOf(cap.lo.sin - kZPad);
      cap.bandHi = bandOf(cap.hi.sin + kZPad);
      for (std::size_t b = cap.bandLo; b <= cap.bandHi; ++b) {
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
      CapExtent& cap = extent[i - begin];
      for (std::size_t b = cap.bandLo; b <= cap.bandHi; ++b) {
        const SectorWindow w = sectorWindow(
            centerLonRad_[i], bandHalfWidthRad(cap, edges[b], edges[b + 1]));
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
  // The center direction rebuilt from the stored latitude/longitude lands
  // within rounding of the original center, far inside the registration
  // pads, so its cell is the one the build registered the cap in.
  for (std::size_t i = 0; i < capCount_; ++i) {
    const double cosLat = std::cos(centerLatRad_[i]);
    const Vec3 center{cosLat * std::cos(centerLonRad_[i]),
                      cosLat * std::sin(centerLonRad_[i]),
                      std::sin(centerLatRad_[i])};
    const auto [lo, hi] = cellEntryRange(cellIndexOf(center));
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
  const double lon = centerLonRad_[i];
  CapExtent disc =
      capExtent(centerLatRad_[i], std::clamp(radiusRad, 0.0, kPi));
  const std::size_t bLo = bandOf(disc.lo.sin - kZPad);
  const std::size_t bHi = bandOf(disc.hi.sin + kZPad);
  LatTrig edgeLo = bandEdge(bLo, bands_);
  for (std::size_t b = bLo; b <= bHi; ++b) {
    const LatTrig edgeHi = bandEdge(b + 1, bands_);
    // Scan the same sector walk registration would use (sectorWindow, with
    // its near-full-window guard): every cap whose *center* longitude lies
    // in the window maps (monotone pseudo-angle, pad-covered rounding) to
    // one of these sectors, and a cap always registers in the cell
    // containing its center.
    const std::size_t base = b * sectors_;
    const SectorWindow win =
        sectorWindow(lon, bandHalfWidthRad(disc, edgeLo, edgeHi));
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
