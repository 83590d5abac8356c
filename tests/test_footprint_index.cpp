// Property tests for the spherical footprint index (DESIGN.md §10).
//
// Three layers under test:
//  * SphericalCapIndex: the candidate sets are supersets of the true
//    containing/overlapping cap sets, each cap visited at most once;
//  * FootprintIndex2: bit-identical to the orbit-layer FootprintIndex cap
//    predicate and to ConstellationSnapshot::closestVisible, including
//    polar sites, high-altitude sites (full-scan fallback) and empty
//    constellations;
//  * the rerouted estimators: monteCarloCoverage / kFoldCoverage /
//    timeAveragedCoverage / worstCaseOverlapCoverage must reproduce the
//    openspace::legacy executable specs bit for bit, and associateUsers
//    must match the per-user brute association exactly.
// A last section runs the spatial queries — CoverCertificates,
// ConstellationSnapshot::islTopology and AssociationAgent::selectSatellite
// — on degenerate fleets against their brute references.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <openspace/auth/association.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/coverage.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/spherical_index.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/spec/cap_width.hpp>
#include <openspace/spec/coverage_legacy.hpp>
#include <openspace/spec/footprint_index.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

constexpr double kPi = std::numbers::pi;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Central angle between two unit vectors.
double centralAngleRad(const Vec3& a, const Vec3& b) {
  return std::acos(std::clamp(a.dot(b), -1.0, 1.0));
}

/// Query directions stressing every branch of the cell map: the poles and
/// axes (guard and clamp edges), the +-pi seam (x < 0 with tiny |y| of
/// both signs), zero vectors of both signs and NaN components (the
/// !(scaled > 0) guards), and non-unit magnitudes.
std::vector<Vec3> adversarialDirs() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      {0.0, 0.0, 1.0},       {0.0, 0.0, -1.0},     {1.0, 0.0, 0.0},
      {-1.0, 0.0, 0.0},      {0.0, 1.0, 0.0},      {0.0, -1.0, 0.0},
      {-1.0, 1e-300, 0.0},   {-1.0, -1e-300, 0.0}, {-1.0, 0.0, 0.5},
      {0.0, 0.0, 0.0},       {-0.0, -0.0, -0.0},   {nan, 0.5, 0.5},
      {0.5, nan, 0.5},       {0.5, 0.5, nan},      {3.0, -4.0, 12.0},
      {-0.5, -0.5, 1.0e-17},
  };
}

// ---------------------------------------------------------------------------
// SphericalCapIndex properties
// ---------------------------------------------------------------------------

std::vector<SphericalCapIndex::Cap> randomCaps(int n, Rng& rng,
                                               double minHalfAngleRad,
                                               double maxHalfAngleRad) {
  std::vector<SphericalCapIndex::Cap> caps;
  caps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    caps.push_back(
        {rng.unitSphere(), rng.uniform(minHalfAngleRad, maxHalfAngleRad)});
  }
  return caps;
}

/// Every cap containing the query direction (with a tiny interior margin so
/// the property is robust to the index's own build-time rounding) must be
/// visited, and no cap more than once.
void checkCandidateSuperset(const std::vector<SphericalCapIndex::Cap>& caps,
                            const SphericalCapIndex& index, Rng& rng,
                            int queries) {
  for (int q = 0; q < queries; ++q) {
    Vec3 dir = rng.unitSphere();
    if (q == 0) dir = Vec3{0.0, 0.0, 1.0};   // north pole
    if (q == 1) dir = Vec3{0.0, 0.0, -1.0};  // south pole
    if (q == 2) dir = Vec3{-1.0, 0.0, 0.0};  // +-pi longitude seam
    std::vector<int> visits(caps.size(), 0);
    index.forEachCandidate(dir, [&](std::uint32_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < caps.size(); ++i) {
      EXPECT_LE(visits[i], 1) << "cap " << i << " visited twice";
      const double angle = centralAngleRad(dir, caps[i].unitCenter);
      if (angle <= caps[i].halfAngleRad - 1e-9) {
        EXPECT_EQ(visits[i], 1)
            << "containing cap " << i << " missed (angle " << angle
            << ", half-angle " << caps[i].halfAngleRad << ")";
      }
    }
  }
}

TEST(SphericalCapIndex, CandidateSupersetSmallCaps) {
  Rng rng(101);
  const auto caps = randomCaps(120, rng, deg2rad(1.0), deg2rad(25.0));
  const SphericalCapIndex index(caps);
  EXPECT_EQ(index.size(), caps.size());
  checkCandidateSuperset(caps, index, rng, 300);
}

TEST(SphericalCapIndex, CandidateSupersetMixedCaps) {
  // Tiny through hemisphere-and-beyond caps in one index: wide caps must
  // land in every band their extent touches (pole wrap => width pi).
  Rng rng(102);
  auto caps = randomCaps(40, rng, 0.0, kPi);
  caps.push_back({Vec3{0.0, 0.0, 1.0}, kPi / 2});         // polar hemisphere
  caps.push_back({Vec3{1.0, 0.0, 0.0}, kPi / 2 + 0.1});   // super-hemisphere
  caps.push_back({Vec3{0.0, 1.0, 0.0}, kPi});             // whole sphere
  caps.push_back({Vec3{0.0, 0.0, -1.0}, 0.0});            // degenerate point
  const SphericalCapIndex index(caps);
  checkCandidateSuperset(caps, index, rng, 300);
}

TEST(SphericalCapIndex, HemisphereCapsReachableFromEveryBand) {
  // A cap with half-angle >= pi/2 contains directions at every latitude;
  // queries anywhere on the sphere must see it as a candidate.
  const std::vector<SphericalCapIndex::Cap> caps = {
      {Vec3{0.0, 0.0, 1.0}, kPi / 2},
      {Vec3{1.0, 0.0, 0.0}, kPi / 2},
  };
  const SphericalCapIndex index(caps);
  Rng rng(103);
  checkCandidateSuperset(caps, index, rng, 500);
}

TEST(SphericalCapIndex, EmptyIndexVisitsNothing) {
  const SphericalCapIndex defaulted;
  const SphericalCapIndex built{std::vector<SphericalCapIndex::Cap>{}};
  int visited = 0;
  defaulted.forEachCandidate(Vec3{0.8, 0.5, 0.3},
                             [&](std::uint32_t) { ++visited; });
  built.forEachCandidate(Vec3{0.1, -0.7, -0.7},
                         [&](std::uint32_t) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(defaulted.size(), 0u);
  EXPECT_EQ(built.entryCount(), 0u);
  // The 1x1 grid of an empty index maps every direction, NaN and zero
  // vectors included, to its one cell.
  ASSERT_EQ(defaulted.cellCount(), 1u);
  for (const Vec3& d : adversarialDirs()) {
    EXPECT_EQ(defaulted.cellIndexOf(d), 0u) << d.x << " " << d.y << " " << d.z;
  }
}

TEST(SphericalCapIndex, NeighborhoodSuperset) {
  Rng rng(104);
  const auto caps = randomCaps(80, rng, deg2rad(2.0), deg2rad(40.0));
  const SphericalCapIndex index(caps);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const double radius = caps[i].halfAngleRad + deg2rad(40.0);
    index.neighborhoodCandidates(i, radius, out);
    // Ascending, deduplicated, never the probe cap itself.
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_NE(out[k], static_cast<std::uint32_t>(i));
      if (k > 0) EXPECT_LT(out[k - 1], out[k]);
    }
    for (std::size_t j = 0; j < caps.size(); ++j) {
      if (j == i) continue;
      const double d =
          centralAngleRad(caps[i].unitCenter, caps[j].unitCenter);
      if (d <= radius - 1e-9) {
        EXPECT_TRUE(std::find(out.begin(), out.end(),
                              static_cast<std::uint32_t>(j)) != out.end())
            << "center " << j << " at distance " << d
            << " missing from radius-" << radius << " neighborhood of " << i;
      }
    }
  }
}

Vec3 dirAt(double latRad, double lonRad) {
  return Vec3{std::cos(latRad) * std::cos(lonRad),
              std::cos(latRad) * std::sin(lonRad), std::sin(latRad)};
}

/// The near-full-window geometry: 200 random caps of radius rho plus one
/// pole-wrapping cap (last) that starts covering whole latitude circles
/// (width pi) a hair above a band boundary, so the band just below
/// registers with width pi - O(1e-3), far inside one sector's width. The
/// last cap sits at longitude 0; callers move it with dirAt(centerLat, .).
struct NearFullWindowCase {
  static constexpr double rho = 0.45;
  std::vector<SphericalCapIndex::Cap> caps;
  double bandTopLat = 0.0;  ///< 0 when no band boundary is tunable
  double centerLat = 0.0;
  std::size_t bands = 0;
  std::size_t sectors = 0;
};

NearFullWindowCase nearFullWindowCase() {
  NearFullWindowCase c;
  Rng rng(106);
  c.caps = randomCaps(200, rng, c.rho, c.rho);
  c.caps.push_back({Vec3{0.0, 0.0, 1.0}, c.rho});
  // Probe build: same cap count and mean half-angle as the final indexes,
  // so band/sector counts match and the tuned geometry below stays valid.
  const SphericalCapIndex probe(c.caps);
  c.bands = probe.bandCount();
  c.sectors = probe.sectorCount();
  const double bands = static_cast<double>(c.bands);
  // Top boundary of a band reachable by a pole-wrapping cap whose center
  // latitude stays below pi/2.
  for (std::size_t b = 0; b + 1 < c.bands; ++b) {
    const double zHi = -1.0 + 2.0 * static_cast<double>(b + 1) / bands;
    const double lat = std::asin(std::clamp(zHi, -1.0, 1.0));
    if (lat > kPi / 2 - c.rho + 0.05 && lat < kPi / 2 - 0.05) {
      c.bandTopLat = lat;
    }
  }
  // Whole latitude circles lie inside the cap for latitudes above
  // pi - centerLat - rho; park that threshold just above the boundary.
  const double wrapLat = c.bandTopLat + 1e-7;
  c.centerLat = kPi - c.rho - wrapLat;
  c.caps.back() = {dirAt(c.centerLat, 0.0), c.rho};
  return c;
}

TEST(SphericalCapIndex, NearFullWindowRegistersWholeBand) {
  // Regression: a pole-wrapping cap whose longitude half-width at some band
  // falls just short of pi leaves a gap narrower than one sector — both
  // window endpoints land in the same sector, and deriving the sector span
  // from the endpoints alone collapsed the registration to that single
  // sector, silently dropping the cap from the rest of the band.
  NearFullWindowCase setup = nearFullWindowCase();
  auto& caps = setup.caps;
  const double rho = setup.rho;
  const double bandTopLat = setup.bandTopLat;
  const double centerLat = setup.centerLat;
  ASSERT_GT(bandTopLat, 0.0) << "no band boundary in the tunable range";
  ASSERT_LT(centerLat, kPi / 2);
  ASSERT_GT(centerLat + rho, kPi / 2) << "cap must wrap the pole";
  // The band's registered half-width must land in the dangerous range:
  // below pi, but with a gap smaller than one sector's true-angle width.
  const double w =
      capLonHalfWidthRad(centerLat, rho, centerLat - rho, bandTopLat);
  ASSERT_GT(w, kPi - 4.0 / static_cast<double>(setup.sectors));
  ASSERT_LT(w, kPi);
  // Same band as bandTopLat, and the cap still spans nearly all longitudes.
  const double queryLat = bandTopLat - 1e-4;
  // Several center longitudes so the narrow gap lands at varied offsets
  // within (and occasionally across) sector boundaries.
  for (const double centerLon :
       {0.3, 1.1, 2.0, 2.9, -2.5, -1.6, -0.7, 3.05}) {
    caps.back() = {dirAt(centerLat, centerLon), rho};
    const SphericalCapIndex index(caps);
    ASSERT_EQ(index.bandCount(), setup.bands);
    ASSERT_EQ(index.sectorCount(), setup.sectors);
    for (int k = -30; k <= 30; ++k) {
      const double lon = centerLon + 0.1 * static_cast<double>(k);
      const Vec3 dir = dirAt(queryLat, lon);
      if (centralAngleRad(dir, caps.back().unitCenter) > rho - 1e-9) continue;
      bool visited = false;
      index.forEachCandidate(dir, [&](std::uint32_t i) {
        visited = visited || (i + 1 == caps.size());
      });
      EXPECT_TRUE(visited) << "cap dropped from its own band: centerLon="
                           << centerLon << " query lon offset=" << 0.1 * k;
    }
  }
}

TEST(SphericalCapIndex, CapIndexScaling) {
  // Pins the two-regime cell sizing (spherical_index.cpp) at
  // mega-constellation scale: build cost stays ~O(N) — the entry count,
  // which drives both the counting-sort build and the index's memory, is
  // bounded by a constant per cap — and per-cell candidate lists stay
  // within a small multiple of the fleet's intrinsic per-point cover
  // count kappa = N * capAreaFraction (the floor no cell sizing can beat:
  // every cap covering a point registers in that point's cell).
  Rng rng(99);
  const double lam = 0.25;  // LEO-like footprint half-angle, radians
  for (const int n : {1000, 8000, 66000}) {
    const auto caps = randomCaps(n, rng, lam - 0.05, lam + 0.05);
    const SphericalCapIndex index(caps);
    const auto nd = static_cast<double>(n);
    // O(N) build: measured ~68 entries/cap, independent of N.
    EXPECT_GE(index.entryCount(), static_cast<std::size_t>(n));
    EXPECT_LE(index.entryCount(), static_cast<std::size_t>(90 * n)) << n;
    // Bounded candidate lists: within 2x of the kappa floor (plus a
    // small-N slack term for the per-cap minimum of one cell).
    const double kappa = nd * (1.0 - std::cos(lam)) / 2.0;
    const double perCell = static_cast<double>(index.entryCount()) /
                           static_cast<double>(index.cellCount());
    EXPECT_LE(perCell, 2.0 * (kappa + 64.0)) << n;
  }
}

TEST(CapLonHalfWidth, KnownValues) {
  // Pole-wrapping cap: every longitude qualifies.
  EXPECT_DOUBLE_EQ(
      capLonHalfWidthRad(deg2rad(80.0), deg2rad(20.0), deg2rad(75.0),
                         deg2rad(90.0)),
      kPi);
  // Whole-sphere cap.
  EXPECT_DOUBLE_EQ(capLonHalfWidthRad(0.0, kPi, -0.5, 0.5), kPi);
  // Degenerate point cap: zero width at its own latitude.
  EXPECT_DOUBLE_EQ(capLonHalfWidthRad(0.3, 0.0, 0.3, 0.3), 0.0);
  // Equatorial cap measured at the equator: width equals the radius.
  EXPECT_NEAR(capLonHalfWidthRad(0.0, deg2rad(10.0), 0.0, 0.0),
              deg2rad(10.0), 1e-12);
}

TEST(CapLonHalfWidth, BoundsSampledCapPoints) {
  // For points of the cap whose latitude falls inside the band, the
  // longitude offset from the center never exceeds the reported width.
  Rng rng(105);
  for (int trial = 0; trial < 200; ++trial) {
    const double lat1 = rng.uniform(-1.4, 1.4);
    const double rho = rng.uniform(0.01, 1.2);
    const double latLo = rng.uniform(-kPi / 2, kPi / 2);
    const double latHi = latLo + rng.uniform(0.0, 0.3);
    const double width = capLonHalfWidthRad(lat1, rho, latLo, latHi);
    for (int s = 0; s < 40; ++s) {
      // Destination point at bearing theta, angular distance d <= rho.
      const double theta = rng.uniform(0.0, 2 * kPi);
      const double d = rho * std::sqrt(rng.uniform(0.0, 1.0));
      const double sinLat2 = std::sin(lat1) * std::cos(d) +
                             std::cos(lat1) * std::sin(d) * std::cos(theta);
      const double lat2 = std::asin(std::clamp(sinLat2, -1.0, 1.0));
      if (lat2 < latLo || lat2 > latHi) continue;
      const double dLon = std::atan2(
          std::sin(theta) * std::sin(d) * std::cos(lat1),
          std::cos(d) - std::sin(lat1) * sinLat2);
      EXPECT_LE(std::abs(dLon), width + 1e-9)
          << "cap(lat=" << lat1 << ", rho=" << rho << ") band [" << latLo
          << ", " << latHi << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// FootprintIndex2 vs. the orbit-layer brute predicates
// ---------------------------------------------------------------------------

TEST(FootprintIndex2, CoversBitIdenticalToOrbitIndex) {
  Rng rng(201);
  for (const int n : {1, 7, 66}) {
    const auto sats = (n == 66) ? makeWalkerStar(iridiumConfig())
                                : makeRandomConstellation(n, km(780.0), rng);
    const auto snap = SnapshotCache::global().at(sats, 300.0);
    const FootprintIndex brute(*snap, deg2rad(10.0));
    const auto indexed = FootprintIndex2::compiled(snap, deg2rad(10.0));
    const CoverCertificates certs(*indexed);
    ASSERT_EQ(indexed->size(), brute.size());
    std::vector<Vec3> points;
    for (int q = 0; q < 500; ++q) {
      Vec3 p = rng.unitSphere();
      if (q == 0) p = Vec3{0.0, 0.0, 1.0};
      if (q == 1) p = Vec3{0.0, 0.0, -1.0};
      points.push_back(p);
    }
    for (const Vec3& p : adversarialDirs()) points.push_back(p);
    for (const Vec3& p : points) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " point (" << p.x << ", " << p.y << ", "
                   << p.z << ")");
      // Every point, NaN and zero vectors included, must land in a real
      // cell: the coverage queries index the cell tables with it unchecked.
      ASSERT_LT(indexed->capIndex().cellIndexOf(p),
                indexed->capIndex().cellCount());
      for (std::size_t i = 0; i < brute.size(); ++i) {
        ASSERT_EQ(indexed->covers(p, i), brute.covers(p, i));
      }
      // anyCovers and countCovering take unit directions only (|p|^2
      // within 2e-9 of 1): zero, NaN and non-unit points are rejected.
      if (!(std::abs(p.dot(p) - 1.0) <= 2e-9)) {
        EXPECT_THROW((void)certs.anyCovers(p), InvalidArgumentError);
        EXPECT_THROW((void)certs.countCovering(p, 1), InvalidArgumentError);
        continue;
      }
      ASSERT_EQ(certs.anyCovers(p), brute.anyCovers(p));
      for (const int stopAfter :
           {-1, 0, 1, 2, n, n + 3, static_cast<int>(brute.size())}) {
        ASSERT_EQ(certs.countCovering(p, stopAfter),
                  brute.countCovering(p, stopAfter))
            << "stopAfter=" << stopAfter;
      }
    }
  }
}

TEST(FootprintIndex2, ClosestVisibleMatchesSnapshotBrute) {
  Rng rng(202);
  const auto sats = makeWalkerStar(iridiumConfig());
  // A nonzero snapshot time exercises the ECEF/ECI longitude offset.
  const auto snap = SnapshotCache::global().at(sats, 1234.5);
  for (const double maskRad : {0.0, deg2rad(10.0), deg2rad(25.0)}) {
    const auto indexed = FootprintIndex2::compiled(snap, maskRad);
    for (int q = 0; q < 400; ++q) {
      Geodetic site = rng.surfacePoint();
      if (q == 0) site = Geodetic{kPi / 2, 0.0, 0.0};       // north pole
      if (q == 1) site = Geodetic{-kPi / 2, 0.0, 0.0};      // south pole
      if (q == 2) site = Geodetic{0.0, kPi, 0.0};           // date line
      if (q == 3) site.altitudeM = 8000.0;                  // airborne
      if (q == 4) site.altitudeM = 200e3;                   // full-scan path
      const Vec3 ecef = geodeticToEcef(site);
      const auto a = indexed->closestVisible(ecef);
      const auto b = snap->closestVisible(ecef, maskRad);
      ASSERT_EQ(a.has_value(), b.has_value())
          << "mask " << maskRad << " site (" << site.latitudeRad << ", "
          << site.longitudeRad << ", " << site.altitudeM << ")";
      if (a) ASSERT_EQ(*a, *b);
      const auto viaGeodetic = indexed->closestVisible(site);
      ASSERT_EQ(viaGeodetic, a);
      // anyVisibleFrom agrees with "closestVisible found something".
      ASSERT_EQ(indexed->anyVisibleFrom(ecef), a.has_value());
    }
  }
}

TEST(FootprintIndex2, GroundCandidatesAreSuperset) {
  Rng rng(203);
  const auto sats = makeRandomConstellation(50, km(600.0), rng);
  const auto snap = SnapshotCache::global().at(sats, 42.0);
  const double maskRad = deg2rad(5.0);
  const auto indexed = FootprintIndex2::compiled(snap, maskRad);
  for (int q = 0; q < 300; ++q) {
    const Geodetic site = rng.surfacePoint();
    const Vec3 ecef = geodeticToEcef(site);
    std::vector<int> visits(sats.size(), 0);
    indexed->forEachGroundCandidate(ecef, [&](std::uint32_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < sats.size(); ++i) {
      EXPECT_LE(visits[i], 1);
      if (elevationAngleRad(ecef, snap->ecef(i)) >= maskRad) {
        EXPECT_EQ(visits[i], 1) << "visible satellite " << i << " pruned";
      }
    }
  }
}

TEST(FootprintIndex2, EmptyConstellation) {
  const auto snap =
      SnapshotCache::global().at(std::vector<OrbitalElements>{}, 0.0);
  const auto indexed = FootprintIndex2::compiled(snap, deg2rad(10.0));
  EXPECT_EQ(indexed->size(), 0u);
  const CoverCertificates certs(*indexed);
  EXPECT_FALSE(certs.anyCovers(Vec3{0.0, 0.0, 1.0}));
  EXPECT_EQ(certs.countCovering(Vec3{0.0, 0.0, 1.0}, 5), 0);
  EXPECT_FALSE(indexed->closestVisible(Geodetic{0.0, 0.0, 0.0}).has_value());
}

TEST(FootprintIndex2, MaskDomainMatchesBrutePath) {
  Rng rng(204);
  const auto sats = makeRandomConstellation(4, km(780.0), rng);
  const auto snap = SnapshotCache::global().at(sats, 0.0);
  EXPECT_THROW(FootprintIndex2(snap, -0.01), InvalidArgumentError);
  EXPECT_THROW(FootprintIndex2(snap, kPi / 2 + 0.01), InvalidArgumentError);
  EXPECT_NO_THROW(FootprintIndex2(snap, 0.0));
}

TEST(FootprintIndex2, NanMaskThrowsInsteadOfBuilding) {
  // NaN fails every ordered comparison, so a range check written as
  // `x < lo || x > hi` lets it through to the cap index.
  Rng rng(207);
  const auto sats = makeRandomConstellation(4, km(780.0), rng);
  const auto snap = SnapshotCache::global().at(sats, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FootprintIndex2::compiled(snap, nan), InvalidArgumentError);
  EXPECT_THROW(FootprintIndex2::compiled(snap, nan, 0.01),
               InvalidArgumentError);
  // A failed build leaves nothing behind: the valid index still compiles.
  EXPECT_EQ(FootprintIndex2::compiled(snap, deg2rad(10.0))->size(), 4u);
}

TEST(FootprintIndex2, CompiledCacheReturnsSharedInstance) {
  Rng rng(205);
  const auto sats = makeRandomConstellation(12, km(780.0), rng);
  const auto snap = SnapshotCache::global().at(sats, 77.0);
  const auto a = FootprintIndex2::compiled(snap, deg2rad(10.0));
  const auto b = FootprintIndex2::compiled(snap, deg2rad(10.0));
  EXPECT_EQ(a.get(), b.get());
  const auto c = FootprintIndex2::compiled(snap, deg2rad(15.0));
  EXPECT_NE(a.get(), c.get());
}

TEST(FootprintIndex2, CompiledCacheByteBudgetEvictsLru) {
  Rng rng(206);
  const auto sats = makeRandomConstellation(12, km(780.0), rng);
  const auto snapA = SnapshotCache::global().at(sats, 80.0);
  const auto snapB = SnapshotCache::global().at(sats, 81.0);
  const double mask = deg2rad(10.0);
  // Budget for exactly one compiled index of snapA: compiling a second
  // index must evict the first from the LRU tail.
  const std::size_t one = FootprintIndex2(snapA, mask).approxBytes();
  const std::size_t previous =
      FootprintIndex2::setCompiledCacheByteBudget(one);
  const auto a = FootprintIndex2::compiled(snapA, mask);
  EXPECT_EQ(FootprintIndex2::compiled(snapA, mask).get(), a.get());
  EXPECT_EQ(FootprintIndex2::compiledCacheApproxBytes(), one);
  const auto b = FootprintIndex2::compiled(snapB, mask);  // evicts A
  EXPECT_EQ(FootprintIndex2::compiled(snapB, mask).get(), b.get());
  // A was evicted, so asking for it again rebuilds.
  EXPECT_NE(FootprintIndex2::compiled(snapA, mask).get(), a.get());
  FootprintIndex2::setCompiledCacheByteBudget(previous);
}

// ---------------------------------------------------------------------------
// Indexed estimators vs. the openspace::legacy executable specs
// ---------------------------------------------------------------------------

TEST(LegacyEquivalence, MonteCarloBitForBit) {
  Rng mk(301);
  for (const int n : {1, 5, 40, 66}) {
    const auto sats = (n == 66) ? makeWalkerStar(iridiumConfig())
                                : makeRandomConstellation(n, km(780.0), mk);
    for (const double maskRad : {0.0, deg2rad(10.0)}) {
      for (const std::uint64_t seed : {17u, 18u}) {
        Rng a(seed), b(seed);
        const auto fast = monteCarloCoverage(sats, 250.0, maskRad, 4096, a);
        const auto spec =
            legacy::monteCarloCoverage(sats, 250.0, maskRad, 4096, b);
        EXPECT_EQ(bits(fast.coverageFraction), bits(spec.coverageFraction))
            << "n=" << n << " mask=" << maskRad << " seed=" << seed;
        EXPECT_EQ(fast.effectiveSatellites, spec.effectiveSatellites);
      }
    }
  }
}

TEST(LegacyEquivalence, KFoldBitForBit) {
  Rng mk(302);
  const auto sats = makeRandomConstellation(30, km(780.0), mk);
  for (const int k : {1, 2, 4}) {
    Rng a(23), b(23);
    EXPECT_EQ(bits(kFoldCoverage(sats, 90.0, deg2rad(10.0), k, 4096, a)),
              bits(legacy::kFoldCoverage(sats, 90.0, deg2rad(10.0), k, 4096, b)))
        << "k=" << k;
  }
}

TEST(LegacyEquivalence, TimeAveragedBitForBit) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng a(31), b(31);
  const double fast =
      timeAveragedCoverage(sats, 0.0, 3000.0, 4, deg2rad(10.0), 2048, a);
  const double spec =
      legacy::timeAveragedCoverage(sats, 0.0, 3000.0, 4, deg2rad(10.0), 2048, b);
  EXPECT_EQ(bits(fast), bits(spec));
}

TEST(LegacyEquivalence, WorstCaseGreedyMatchingPinned) {
  // The band-sweep must reproduce the O(N^2) greedy matching exactly:
  // same effectiveSatellites, same coverage bits, on randomized
  // constellations of every size class.
  Rng mk(303);
  for (const int n : {2, 3, 10, 50, 120}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto sats = makeRandomConstellation(n, km(780.0), mk);
      const auto fast = worstCaseOverlapCoverage(sats, 60.0, deg2rad(10.0));
      const auto spec =
          legacy::worstCaseOverlapCoverage(sats, 60.0, deg2rad(10.0));
      EXPECT_EQ(fast.effectiveSatellites, spec.effectiveSatellites)
          << "n=" << n << " trial=" << trial;
      EXPECT_EQ(bits(fast.coverageFraction), bits(spec.coverageFraction));
    }
  }
  // Dense Walker shells collapse many pairs; pin those too.
  const auto iridium = makeWalkerStar(iridiumConfig());
  const auto fast = worstCaseOverlapCoverage(iridium, 0.0, deg2rad(10.0));
  const auto spec = legacy::worstCaseOverlapCoverage(iridium, 0.0, deg2rad(10.0));
  EXPECT_EQ(fast.effectiveSatellites, spec.effectiveSatellites);
  EXPECT_EQ(bits(fast.coverageFraction), bits(spec.coverageFraction));
}

// ---------------------------------------------------------------------------
// Batched association
// ---------------------------------------------------------------------------

TEST(AssociateUsers, MatchesPerUserBrute) {
  Rng rng(401);
  const auto fleet = makeWalkerStar(iridiumConfig());
  const double tS = 510.0;
  const double maskRad = deg2rad(10.0);
  std::vector<Geodetic> users;
  for (int i = 0; i < 600; ++i) users.push_back(rng.surfacePoint());
  users.push_back(Geodetic{kPi / 2, 0.0, 0.0});
  users.push_back(Geodetic{-kPi / 2, 0.0, 0.0});
  const auto out = associateUsers(fleet, tS, users, maskRad);
  ASSERT_EQ(out.size(), users.size());
  const auto snap = SnapshotCache::global().at(fleet, tS);
  for (std::size_t u = 0; u < users.size(); ++u) {
    const Vec3 ecef = geodeticToEcef(users[u]);
    const auto brute = snap->closestVisible(ecef, maskRad);
    ASSERT_EQ(out[u].covered, brute.has_value()) << "user " << u;
    if (!brute) continue;
    ASSERT_EQ(out[u].satelliteIndex, static_cast<std::uint32_t>(*brute));
    ASSERT_EQ(bits(out[u].slantRangeM),
              bits(ecef.distanceTo(snap->ecef(*brute))));
  }
}

TEST(AssociateUsers, BeaconOverloadFillsSatelliteIds) {
  Rng rng(402);
  const auto fleet = makeRandomConstellation(20, km(780.0), rng);
  std::vector<BeaconMessage> beacons;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    BeaconMessage b;
    b.satellite = SatelliteId(static_cast<std::uint32_t>(1000 + i));
    b.elements = fleet[i];
    beacons.push_back(b);
  }
  std::vector<Geodetic> users;
  for (int i = 0; i < 100; ++i) users.push_back(rng.surfacePoint());
  const auto viaBeacons = associateUsers(beacons, 5.0, users, 0.0);
  const auto viaFleet = associateUsers(fleet, 5.0, users, 0.0);
  ASSERT_EQ(viaBeacons.size(), viaFleet.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    ASSERT_EQ(viaBeacons[u].covered, viaFleet[u].covered);
    if (!viaFleet[u].covered) continue;
    ASSERT_EQ(viaBeacons[u].satelliteIndex, viaFleet[u].satelliteIndex);
    ASSERT_EQ(viaBeacons[u].satellite,
              beacons[viaFleet[u].satelliteIndex].satellite);
    ASSERT_EQ(bits(viaBeacons[u].slantRangeM), bits(viaFleet[u].slantRangeM));
  }
}

TEST(AssociateUsers, EmptyInputs) {
  const auto fleet = makeWalkerStar(iridiumConfig());
  EXPECT_TRUE(associateUsers(fleet, 0.0, {}, 0.1).empty());
  const auto none = associateUsers(std::vector<OrbitalElements>{}, 0.0,
                                   {Geodetic{0.0, 0.0, 0.0}}, 0.1);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_FALSE(none[0].covered);
}

TEST(AssociateUsers, AgreesWithSelectSatellite) {
  // The batched sweep and the per-agent selection rule are the same §2.2
  // rule; their winners must coincide beacon-for-beacon.
  Rng rng(403);
  const auto fleet = makeRandomConstellation(30, km(780.0), rng);
  std::vector<BeaconMessage> beacons;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    BeaconMessage b;
    b.satellite = SatelliteId(static_cast<std::uint32_t>(i + 1));
    b.elements = fleet[i];
    beacons.push_back(b);
  }
  const double maskRad = deg2rad(15.0);
  for (int i = 0; i < 50; ++i) {
    const Geodetic where = rng.surfacePoint();
    const AssociationAgent agent(1, ProviderId(1), 7, where);
    const auto single = agent.selectSatellite(beacons, 30.0, maskRad);
    const auto batch = associateUsers(beacons, 30.0, {where}, maskRad);
    ASSERT_EQ(single.has_value(), batch[0].covered);
    if (single) ASSERT_EQ(*single, batch[0].satellite);
  }
}

// ---------------------------------------------------------------------------
// Build bit-identity: pinned layouts, serial == parallel, invariant audit
// ---------------------------------------------------------------------------

/// FNV fold of everything an index build fixes: the grid shape, every
/// cell's entry range, the flat entry array and every cell's corner
/// directions.
std::uint64_t layoutChecksum(const SphericalCapIndex& index) {
  std::uint64_t h = fnv1a(kFnvOffsetBasis, index.bandCount());
  h = fnv1a(h, index.sectorCount());
  for (std::size_t cell = 0; cell < index.cellCount(); ++cell) {
    const auto [lo, hi] = index.cellEntryRange(cell);
    h = fnv1a(fnv1a(h, lo), hi);
  }
  for (const std::uint32_t e : index.entries()) h = fnv1a(h, e);
  for (std::size_t cell = 0; cell < index.cellCount(); ++cell) {
    for (const Vec3& c : index.cellCornerDirs(cell)) {
      h = fnv1a(fnv1a(fnv1a(h, bits(c.x)), bits(c.y)), bits(c.z));
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// `fn()` evaluated with the pool at `threads` workers; the previous
/// count is restored afterwards.
template <typename Fn>
auto atThreads(int threads, Fn&& fn) {
  const int previous = parallelThreadCount();
  setParallelThreadCount(threads);
  auto result = fn();
  setParallelThreadCount(previous);
  return result;
}

TEST(SphericalCapIndex, RejectsNanRadius) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SphericalCapIndex({{Vec3{0.0, 1.0, 0.0}, kNan}}),
               InvalidArgumentError);
  Rng rng(109);
  auto caps = randomCaps(30, rng, 0.1, 0.3);
  caps[17].halfAngleRad = kNan;
  EXPECT_THROW(SphericalCapIndex{caps}, InvalidArgumentError);
  // Infinite and negative radii keep the documented clamp to [0, pi].
  const SphericalCapIndex clamped({{Vec3{0.0, 0.0, 1.0},
                                    std::numeric_limits<double>::infinity()},
                                   {Vec3{1.0, 0.0, 0.0}, -1.0},
                                   {Vec3{0.0, -1.0, 0.0},
                                    -std::numeric_limits<double>::infinity()}});
  clamped.audit();
  bool wholeSphere = false;
  clamped.forEachCandidate(Vec3{0.0, 0.0, -1.0}, [&](std::uint32_t i) {
    wholeSphere = wholeSphere || i == 0;
  });
  EXPECT_TRUE(wholeSphere);
}

TEST(SphericalCapIndex, RejectsNonFiniteCenter) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Vec3 bad[] = {{kNan, 0.0, 0.0},  {0.0, kNan, 0.0}, {0.0, 0.0, kNan},
                      {kInf, 0.0, 0.0},  {0.0, -kInf, 0.0},
                      {0.0, 0.0, kInf}};
  Rng rng(110);
  for (const Vec3& center : bad) {
    EXPECT_THROW(SphericalCapIndex({{center, 0.2}}), InvalidArgumentError);
    auto caps = randomCaps(30, rng, 0.1, 0.3);
    caps[29].unitCenter = center;
    EXPECT_THROW(SphericalCapIndex{caps}, InvalidArgumentError);
  }
}

TEST(SphericalCapIndex, RejectsNonUnitCenter) {
  // The build reads a center's z as the sine of its latitude: a zero
  // center has none, and (3, -4, 12) would land at the wrong latitude.
  const Vec3 bad[] = {{0.0, 0.0, 0.0},
                      {-0.0, -0.0, -0.0},
                      {3.0, -4.0, 12.0},
                      {0.0, 0.0, 1.0 + 2e-9},
                      {0.6, 0.8 * (1.0 - 2e-9), 0.0}};
  Rng rng(111);
  for (const Vec3& center : bad) {
    EXPECT_THROW(SphericalCapIndex({{center, 0.1}}), InvalidArgumentError)
        << center.x << " " << center.y << " " << center.z;
    auto caps = randomCaps(30, rng, 0.1, 0.3);
    caps[11].unitCenter = center;
    EXPECT_THROW(SphericalCapIndex{caps}, InvalidArgumentError);
  }
  // Within the tolerance the center is accepted, as FootprintIndex2's
  // normalized() directions always are.
  const SphericalCapIndex nearUnit({{Vec3{0.0, 0.0, 1.0 + 5e-10}, 0.1},
                                    {Vec3{0.6, -0.8 * (1.0 - 5e-10), 0.0},
                                     0.2}});
  nearUnit.audit();
}

TEST(SphericalCapIndex, CenterOnPolarAxisRegistersAsPolarCap) {
  // A near-unit center on the polar axis but short of the pole (|z| < 1,
  // so cos(lat) > 0) has no longitude: it must register as the polar cap
  // it is. Its rim sits 2e-5 rad below the top band's lower edge, so the
  // band under that edge holds the rim, and only the whole circle covers
  // it. A second cap keeps the mean radius, and so the grid, fixed.
  const double z = 1.0 - 5e-10;
  const std::size_t bands = SphericalCapIndex({{Vec3{0.0, 0.0, z}, 0.15},
                                               {Vec3{1.0, 0.0, 0.0}, 0.15}})
                                 .bandCount();
  const double edgeZ = -1.0 + 2.0 * static_cast<double>(bands - 1) /
                                  static_cast<double>(bands);
  const double rho = std::acos(edgeZ) + 2e-5;
  const SphericalCapIndex polar(
      {{Vec3{0.0, 0.0, z}, rho}, {Vec3{1.0, 0.0, 0.0}, 0.3 - rho}});
  ASSERT_EQ(polar.bandCount(), bands);
  polar.audit();
  for (int k = 0; k < 64; ++k) {
    const Vec3 rim = dirAt(kPi / 2 - rho + 1e-5, 2 * kPi * k / 64.0);
    bool visited = false;
    polar.forEachCandidate(rim, [&](std::uint32_t i) { visited |= i == 0; });
    EXPECT_TRUE(visited) << "rim point at longitude index " << k;
  }
}

TEST(SphericalCapIndex, AuditHoldsOnEmptyAndDegenerateIndexes) {
  SphericalCapIndex().audit();
  SphericalCapIndex{std::vector<SphericalCapIndex::Cap>{}}.audit();
  SphericalCapIndex({{Vec3{0.0, 0.0, 1.0}, 0.0}, {Vec3{0.0, 0.0, -1.0}, kPi}})
      .audit();
}

/// One pinned cap set: the layout checksum of the reference serial build,
/// which every build must reproduce bit for bit at any thread count.
struct PinnedCaps {
  const char* name;
  std::vector<SphericalCapIndex::Cap> caps;
  std::uint64_t layout;
};

std::vector<PinnedCaps> pinnedCapSets() {
  std::vector<PinnedCaps> sets;
  {
    Rng rng(101);
    sets.push_back({"small", randomCaps(120, rng, deg2rad(1.0), deg2rad(25.0)),
                    0xa72d8d1cdb2f8db3ull});
  }
  {
    Rng rng(102);
    auto caps = randomCaps(40, rng, 0.0, kPi);
    caps.push_back({Vec3{0.0, 0.0, 1.0}, kPi / 2});
    caps.push_back({Vec3{1.0, 0.0, 0.0}, kPi / 2 + 0.1});
    caps.push_back({Vec3{0.0, 1.0, 0.0}, kPi});
    caps.push_back({Vec3{0.0, 0.0, -1.0}, 0.0});
    sets.push_back({"mixed", std::move(caps), 0x015ae56931928448ull});
  }
  sets.push_back({"hemisphere",
                  {{Vec3{0.0, 0.0, 1.0}, kPi / 2},
                   {Vec3{1.0, 0.0, 0.0}, kPi / 2}},
                  0x5d33f1280c988831ull});
  {
    // Caps straddling either pole, plus caps centered exactly on them.
    Rng rng(107);
    std::vector<SphericalCapIndex::Cap> caps;
    for (int i = 0; i < 60; ++i) {
      const double lat = (i % 2 == 0 ? 1.0 : -1.0) *
                         rng.uniform(deg2rad(70.0), deg2rad(89.9));
      const double lon = rng.uniform(-kPi, kPi);
      caps.push_back(
          {dirAt(lat, lon), rng.uniform(deg2rad(5.0), deg2rad(30.0))});
    }
    caps.push_back({Vec3{0.0, 0.0, 1.0}, deg2rad(12.0)});
    caps.push_back({Vec3{0.0, 0.0, -1.0}, deg2rad(3.0)});
    sets.push_back({"polar", std::move(caps), 0x849c882687b7f0acull});
  }
  {
    NearFullWindowCase c = nearFullWindowCase();
    c.caps.back() = {dirAt(c.centerLat, 2.9), c.rho};
    sets.push_back(
        {"near-full-window", std::move(c.caps), 0x3fd313dca85c6c62ull});
  }
  {
    Rng rng(108);
    auto caps = randomCaps(60, rng, 0.0, 0.0);
    caps.push_back({Vec3{0.0, 0.0, 1.0}, 0.0});
    caps.push_back({Vec3{0.0, 0.0, -1.0}, 0.0});
    caps.push_back({Vec3{-1.0, 0.0, 0.0}, 0.0});
    sets.push_back({"zero-radius", std::move(caps), 0x21b1cfb88eb891b6ull});
  }
  return sets;
}

TEST(SphericalCapIndex, BuildMatchesPinnedLayoutAtAnyThreadCount) {
  for (const PinnedCaps& set : pinnedCapSets()) {
    for (const int threads : {1, 4}) {
      const std::uint64_t layout = atThreads(threads, [&] {
        const SphericalCapIndex index(set.caps);
        index.audit();
        return layoutChecksum(index);
      });
      EXPECT_EQ(hex(layout), hex(set.layout))
          << set.name << " at " << threads << " threads";
    }
  }
}

/// The session sweep's motion margin over `fleet` for an index anchored
/// `halfSpanS` from either edge of its time span: the worst-case angular
/// drift to either edge (see HandoverSweep::runEpoch). A 15 s epoch that
/// straddles a 60 s window edge has a 7.5 s half-span; an epoch inside one
/// window shares the window's index, with a 30 s half-span.
double sweepMarginRad(const std::vector<OrbitalElements>& fleet,
                      double halfSpanS) {
  double rate = 0.0;
  for (const OrbitalElements& el : fleet) {
    rate = std::max(rate, el.maxAngularRateRadPerS());
  }
  rate += wgs84::kEarthRotationRadPerS;
  return rate * (halfSpanS + 1e-3) + 1e-6;
}

/// FNV fold of capped and full countCovering over a fixed lat/lon grid of
/// unit directions, through a certificate table built here.
std::uint64_t coverChecksum(const FootprintIndex2& index) {
  const CoverCertificates certs(index);
  std::uint64_t h = kFnvOffsetBasis;
  for (int la = -90; la <= 90; la += 3) {
    for (int lo = -180; lo < 180; lo += 3) {
      const Vec3 p = dirAt(deg2rad(la + 0.37), deg2rad(lo + 0.61));
      h = fnv1a(h, static_cast<std::uint64_t>(certs.countCovering(p, 1)));
      h = fnv1a(h, static_cast<std::uint64_t>(certs.countCovering(p, 1 << 20)));
    }
  }
  return h;
}

/// Serial == parallel fold of a compiled index's query answers:
/// coverChecksum, then closestVisible from a fixed grid of ground sites.
std::uint64_t queryChecksum(const FootprintIndex2& index) {
  std::uint64_t h = coverChecksum(index);
  for (int la = -85; la <= 85; la += 10) {
    for (int lo = -180; lo < 180; lo += 10) {
      const auto best = index.closestVisible(
          Geodetic::fromDegrees(la + 0.29, lo + 0.53));
      h = fnv1a(h, best ? *best : 0xFFFFFFFFull);
    }
  }
  return h;
}

TEST(FootprintIndex2, BuildMatchesPinnedLayoutAtAnyThreadCount) {
  struct Fleet {
    const char* name;
    std::vector<OrbitalElements> elements;
    std::uint64_t layout0;       ///< margin 0
    std::uint64_t layoutSweep;   ///< the sweep's 15 s epoch margin
  };
  const Fleet fleets[] = {
      {"iridium", makeWalkerStar(iridiumConfig()), 0xa7bc48426d0235b1ull,
       0x04e170124adfa3a6ull},
      {"walker-5040",
       makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)}),
       0x424cca3eb149c17aull, 0x108cdf912abe3fceull},
  };
  for (const Fleet& fleet : fleets) {
    const auto snap =
        std::make_shared<const ConstellationSnapshot>(fleet.elements, 300.0);
    const std::pair<double, std::uint64_t> margins[] = {
        {0.0, fleet.layout0},
        {sweepMarginRad(fleet.elements, 0.5 * 15.0), fleet.layoutSweep}};
    for (const auto& margin : margins) {
      const double marginRad = margin.first;
      const std::uint64_t pinned = margin.second;
      std::uint64_t queries[2] = {0, 0};
      for (const int threads : {1, 4}) {
        const auto [layout, answers] = atThreads(threads, [&] {
          const FootprintIndex2 index(snap, deg2rad(10.0), marginRad);
          index.capIndex().audit();
          return std::pair{layoutChecksum(index.capIndex()),
                           queryChecksum(index)};
        });
        EXPECT_EQ(hex(layout), hex(pinned))
            << fleet.name << " margin " << marginRad << " at " << threads
            << " threads";
        queries[threads == 1 ? 0 : 1] = answers;
      }
      EXPECT_EQ(queries[0], queries[1])
          << fleet.name << " margin " << marginRad
          << ": countCovering/closestVisible differ serial vs parallel";
    }
  }
}

TEST(FootprintIndex2, WorldbenchFleetLayoutsPinned) {
  // The two fleets the worldbench workloads fly, at eight window-centre
  // times across the hour, each compiled at margin 0 (the coverage stage)
  // and at the in-window margin (the session sweep's one index per 60 s
  // window): every layout is pinned at 1 and 4 threads.
  struct Fleet {
    const char* name;
    std::vector<OrbitalElements> elements;
    std::uint64_t layout0[8];       ///< margin 0
    std::uint64_t layoutWindow[8];  ///< 30 s half-window margin
  };
  const Fleet fleets[] = {
      {"iridium",
       makeWalkerStar(iridiumConfig()),
       {0x50ecfd96688b6c97ull, 0xca30368ef9ef7446ull, 0x7dd7da200a7b1dedull,
        0xf608a82683fa99f0ull, 0xb249f027efe8a859ull, 0xa758dc1a37821b15ull,
        0x6dcb7460c2b875ddull, 0xbd5191651a5f530cull},
       {0x13958cf991d6185bull, 0x65d2a229d2b5e65eull, 0x2a309cd7bbf709ccull,
        0x16c296cef2d3c0e3ull, 0x8e690b9a4962bf6bull, 0xdbcb516a016a78c4ull,
        0x21c2a12b5b8ebd21ull, 0xda013f851f0bb2cbull}},
      {"walker-5040",
       makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)}),
       {0x49f861fa4032a6afull, 0xe99bda03a69b3b90ull, 0xa0aa2494f138c4c2ull,
        0x7e3e0a2e0df4ffafull, 0x3801b92f12ccde3aull, 0x0a603cc7e2d91c82ull,
        0xcda82a0bf1f5a1c5ull, 0xf8ed5d9db2ce7453ull},
       {0x4cb09a743e6b05b6ull, 0x1fbe1bf31d9780b9ull, 0xe2a0a870fbf85241ull,
        0x01ec5b9c0c5426aaull, 0x98da209ed80a2e85ull, 0x6eb3b6479136b58aull,
        0x2db30a69403e942aull, 0x86a931b6e870a5d3ull}},
  };
  for (const Fleet& fleet : fleets) {
    const double windowMarginRad = sweepMarginRad(fleet.elements, 30.0);
    for (std::size_t k = 0; k < 8; ++k) {
      const double t = 30.0 + 480.0 * static_cast<double>(k);
      const auto snap =
          std::make_shared<const ConstellationSnapshot>(fleet.elements, t);
      const std::pair<double, std::uint64_t> margins[] = {
          {0.0, fleet.layout0[k]}, {windowMarginRad, fleet.layoutWindow[k]}};
      for (const auto& [marginRad, pinned] : margins) {
        for (const int threads : {1, 4}) {
          const std::uint64_t layout = atThreads(threads, [&] {
            const FootprintIndex2 index(snap, deg2rad(10.0), marginRad);
            return layoutChecksum(index.capIndex());
          });
          EXPECT_EQ(hex(layout), hex(pinned))
              << fleet.name << " t=" << t << " margin " << marginRad << " at "
              << threads << " threads";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ground-site queries share the compiled indexes
// ---------------------------------------------------------------------------

TEST(FootprintIndex2, GroundQueriesLeaveCoverCertificatesUnbuilt) {
  // A fleet no other test compiles, so every cached index below is fresh.
  WalkerConfig wc = iridiumConfig();
  wc.altitudeM = km(813.0);
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  const double mask = deg2rad(10.0);
  SweepConfig cfg;
  cfg.minElevationRad = mask;
  const HandoverSweep sweep(eph, cfg);
  const std::vector<OrbitalElements>& fleet = sweep.fleet();

  // The direct ground-site queries. No index holds a certificate table:
  // only monteCarloCoverage and kFoldCoverage build one, as a
  // CoverCertificates of their own, so these compiles never pay for it.
  const auto index =
      FootprintIndex2::compiled(SnapshotCache::global().at(fleet, 0.0), mask);
  std::vector<Geodetic> sites;
  for (int la = -75; la <= 75; la += 15) {
    for (int lo = -180; lo < 180; lo += 30) {
      sites.push_back(Geodetic::fromDegrees(la + 0.4, lo + 0.9));
    }
  }
  std::size_t candidates = 0;
  std::vector<std::uint32_t> overlaps;
  for (const Geodetic& site : sites) {
    const Vec3 ecef = geodeticToEcef(site);
    (void)index->closestVisible(ecef);
    (void)index->anyVisibleFrom(ecef);
    index->forEachGroundCandidate(ecef, [&](std::uint32_t) { ++candidates; });
  }
  index->overlapCandidates(0, overlaps);
  EXPECT_GT(candidates, 0u);

  // A seed, then 15 s handover epochs over five 60 s windows: the seed's
  // exact index at t0 and each window's margined index.
  SessionTable table(fleet.size());
  std::vector<SessionSeed> seeds;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    seeds.push_back(SessionSeed{static_cast<UserId>(i + 1), sites[i], 4.0e9,
                                0x2000 + i});
  }
  sweep.seed(table, seeds, 0.0, SeedMode::ClosestAssociation);
  std::size_t touched = 0;
  for (double t1 = 15.0; t1 <= 300.0; t1 += 15.0) {
    touched += sweep.runEpoch(table, t1).sessionsTouched;
  }
  EXPECT_GT(touched, 0u);
  // Each window's index, from the cache (no miss): anchored at the window
  // centre, with the drift margin over the half-window plus the query
  // offset.
  std::size_t misses = FootprintIndex2::compiledCacheMisses();
  for (double centreS = 30.0; centreS < 300.0; centreS += 60.0) {
    (void)FootprintIndex2::compiled(
        SnapshotCache::global().at(fleet, centreS), mask,
        sweep.maxAngularRateRadPerS() * (30.0 + 1e-3) + 1e-6);
  }
  EXPECT_EQ(FootprintIndex2::compiledCacheMisses(), misses);

  // City-flow association over a snapshot at another time.
  TopologyBuilder topo(eph);
  const std::vector<NodeId> gateways = {
      topo.nodeOf(topo.addGroundStation(
          {"paris", Geodetic::fromDegrees(48.86, 2.35), ProviderId{1}})),
      topo.nodeOf(topo.addGroundStation(
          {"denver", Geodetic::fromDegrees(39.74, -104.99), ProviderId{1}}))};
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = mask;
  const NetworkGraph graph = topo.snapshot(120.0, opt);
  const RouteEngine engine(graph, latencyCost());
  std::vector<NodeId> satNodes;
  for (const SatelliteId sid : eph.satellites()) {
    satNodes.push_back(topo.nodeOf(sid));
  }
  CityFlowConfig flowCfg;
  flowCfg.users = 2'000;
  flowCfg.minElevationRad = mask;
  const auto flowSnap = SnapshotCache::global().at(fleet, 120.0);
  const CityFlows flows =
      buildCityFlows(flowCfg, flowSnap, satNodes, gateways, engine);
  EXPECT_FALSE(flows.specs.empty());
  misses = FootprintIndex2::compiledCacheMisses();
  (void)FootprintIndex2::compiled(flowSnap, mask);
  EXPECT_EQ(FootprintIndex2::compiledCacheMisses(), misses);
}

TEST(FootprintIndex2, CopiesAnswerLikeTheOriginal) {
  // The index holds no lazily built or locked state, so a copy is a
  // complete, independent index.
  static_assert(std::is_copy_constructible_v<FootprintIndex2>);
  static_assert(std::is_copy_assignable_v<FootprintIndex2>);
  const auto snap = std::make_shared<const ConstellationSnapshot>(
      makeWalkerStar(iridiumConfig()), 600.0);
  const FootprintIndex2 original(snap, deg2rad(10.0));
  const FootprintIndex2 copy = original;
  EXPECT_EQ(layoutChecksum(copy.capIndex()),
            layoutChecksum(original.capIndex()));
  EXPECT_EQ(queryChecksum(copy), queryChecksum(original));
  EXPECT_EQ(copy.approxBytes(), original.approxBytes());
}

// ---------------------------------------------------------------------------
// Degenerate fleets: the spatial queries against their brute references
// ---------------------------------------------------------------------------

struct DegenerateFleet {
  const char* name;
  std::vector<OrbitalElements> elements;
};

/// An e = 0.95 orbit: perigee ~1,100 km up, apogee ~0.76 lunar distances
/// out, a period of ~6.7 days.
OrbitalElements eccentricOrbit() {
  OrbitalElements el;
  el.semiMajorAxisM = 1.5e8;
  el.eccentricity = 0.95;
  el.inclinationRad = deg2rad(53.0);
  return el;
}

/// No satellite, one, two coincident ones (one orbit published twice),
/// and the e = 0.95 orbit beside a circular satellite it passes ~130 km
/// away at perigee (t = 0: both on the line of nodes, in one plane).
std::vector<DegenerateFleet> degenerateFleets() {
  const OrbitalElements leo =
      OrbitalElements::circular(km(1'000.0), deg2rad(53.0), 0.0, 0.0);
  return {{"empty", {}},
          {"one", {leo}},
          {"coincident", {leo, leo}},
          {"e=0.95", {eccentricOrbit(), leo}}};
}

/// Perigee, half an hour on, and near apogee of the e = 0.95 orbit.
std::vector<double> degenerateTimes() {
  return {0.0, 1'800.0, 0.5 * eccentricOrbit().periodS()};
}

/// Ground sites at both poles and on the antimeridian, plus one city.
std::vector<Geodetic> degenerateSites() {
  return {
      Geodetic::fromDegrees(90.0, 0.0),      // north pole
      Geodetic::fromDegrees(-90.0, 0.0),     // south pole
      Geodetic::fromDegrees(0.0, 180.0),     // antimeridian, equator
      Geodetic::fromDegrees(35.0, -180.0),   // antimeridian, north
      Geodetic::fromDegrees(-62.0, 180.0),   // antimeridian, south
      Geodetic::fromDegrees(40.44, -79.99),  // Pittsburgh
  };
}

TEST(DegenerateFleets, CoverCertificatesMatchSpecIndex) {
  Rng rng(501);
  std::vector<Vec3> dirs = {{0.0, 0.0, 1.0},      {0.0, 0.0, -1.0},
                            {-1.0, 0.0, 0.0},     {-1.0, 1e-300, 0.0},
                            {-1.0, -1e-300, 0.0}, {1.0, 0.0, 0.0}};
  for (const Geodetic& site : degenerateSites()) {
    dirs.push_back(geodeticToEcef(site).normalized());
  }
  for (int q = 0; q < 2'000; ++q) dirs.push_back(rng.unitSphere());
  for (const DegenerateFleet& fleet : degenerateFleets()) {
    for (const double t : degenerateTimes()) {
      const auto snap =
          std::make_shared<const ConstellationSnapshot>(fleet.elements, t);
      for (const double maskRad : {0.0, deg2rad(10.0)}) {
        SCOPED_TRACE(::testing::Message() << fleet.name << " t=" << t
                                          << " mask " << maskRad);
        const FootprintIndex spec(*snap, maskRad);
        const FootprintIndex2 index(snap, maskRad);
        const CoverCertificates certs(index);
        std::vector<Vec3> points = dirs;
        for (std::size_t i = 0; i < index.size(); ++i) {
          points.push_back(index.direction(i));
          points.push_back(index.direction(i) * -1.0);
        }
        for (const Vec3& p : points) {
          ASSERT_EQ(certs.anyCovers(p), spec.anyCovers(p))
              << "(" << p.x << ", " << p.y << ", " << p.z << ")";
          for (const int stopAfter : {-1, 0, 1, 2, 3}) {
            ASSERT_EQ(certs.countCovering(p, stopAfter),
                      spec.countCovering(p, stopAfter))
                << "(" << p.x << ", " << p.y << ", " << p.z << ") stopAfter "
                << stopAfter;
          }
        }
      }
    }
  }
}

TEST(DegenerateFleets, IslTopologyMatchesAllPairs) {
  for (const DegenerateFleet& fleet : degenerateFleets()) {
    for (const double t : degenerateTimes()) {
      const ConstellationSnapshot snap(fleet.elements, t);
      const std::size_t n = snap.size();
      for (const double maxRangeM : {1.0, 2e6, 1e12}) {
        SCOPED_TRACE(::testing::Message()
                     << fleet.name << " t=" << t << " range " << maxRangeM);
        const auto isl = snap.islTopology(maxRangeM);
        ASSERT_EQ(isl->adjacency.size(), n);
        std::size_t degreeSum = 0;
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<std::pair<std::size_t, double>> expect;
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            const double d = snap.eci(i).distanceTo(snap.eci(j));
            if (d <= maxRangeM &&
                lineOfSightClear(snap.eci(i), snap.eci(j), km(80.0))) {
              expect.emplace_back(j, d);
            }
          }
          degreeSum += expect.size();
          ASSERT_EQ(isl->adjacency[i], expect) << "sat " << i;
        }
        EXPECT_EQ(isl->linkCount, degreeSum / 2);
      }
    }
  }
  // Coincident satellites link at distance 0; the perigee pass links the
  // e = 0.95 orbit to its circular neighbour.
  const auto fleets = degenerateFleets();
  EXPECT_EQ(ConstellationSnapshot(fleets[2].elements, 0.0)
                .islTopology(2e6)->linkCount, 1u);
  EXPECT_EQ(ConstellationSnapshot(fleets[3].elements, 0.0)
                .islTopology(2e6)->linkCount, 1u);
}

TEST(DegenerateFleets, IslTopologyRefusesNonFiniteInputs) {
  const ConstellationSnapshot snap(degenerateFleets()[3].elements, 0.0);
  EXPECT_THROW((void)snap.islTopology(std::nan("")), InvalidArgumentError);
  EXPECT_THROW((void)snap.islTopology(0.0), InvalidArgumentError);
  EXPECT_THROW((void)snap.islTopology(2e6, std::nan("")), InvalidArgumentError);
  EXPECT_THROW((void)snap.islTopology(
                   2e6, std::numeric_limits<double>::infinity()),
               InvalidArgumentError);
  // Valid elements whose apogee overflows a double: the position half an
  // orbit past perigee is not finite, and the grid refuses it.
  OrbitalElements huge;
  huge.semiMajorAxisM = 1e308;
  huge.eccentricity = 0.9;
  huge.meanAnomalyAtEpochRad = kPi;
  const ConstellationSnapshot overflow({huge}, 0.0);
  ASSERT_FALSE(std::isfinite(overflow.eci(0).x) &&
               std::isfinite(overflow.eci(0).y) &&
               std::isfinite(overflow.eci(0).z));
  EXPECT_THROW((void)overflow.islTopology(2e6), InvalidArgumentError);
}

TEST(DegenerateFleets, SelectSatelliteMatchesAssociateUsers) {
  const std::vector<Geodetic> sites = degenerateSites();
  std::size_t covered = 0;
  for (const DegenerateFleet& fleet : degenerateFleets()) {
    std::vector<BeaconMessage> beacons;
    for (std::size_t i = 0; i < fleet.elements.size(); ++i) {
      BeaconMessage b;
      b.satellite = SatelliteId(static_cast<std::uint32_t>(i + 1));
      b.elements = fleet.elements[i];
      beacons.push_back(b);
    }
    for (const double t : degenerateTimes()) {
      for (const double maskRad : {0.0, deg2rad(10.0)}) {
        const auto batch = associateUsers(beacons, t, sites, maskRad);
        ASSERT_EQ(batch.size(), sites.size());
        for (std::size_t u = 0; u < sites.size(); ++u) {
          SCOPED_TRACE(::testing::Message() << fleet.name << " t=" << t
                                            << " mask " << maskRad << " site "
                                            << u);
          const AssociationAgent agent(1, ProviderId(1), 7, sites[u]);
          const auto single = agent.selectSatellite(beacons, t, maskRad);
          ASSERT_EQ(single.has_value(), batch[u].covered);
          if (single) {
            ASSERT_EQ(*single, batch[u].satellite);
            ++covered;
          }
        }
      }
    }
  }
  EXPECT_GT(covered, 0u);
}

}  // namespace
}  // namespace openspace
