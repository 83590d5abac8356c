// Unit tests for the coverage module: cap geometry, the paper's worst-case
// overlap model, Monte-Carlo union coverage, k-fold coverage.
#include <gtest/gtest.h>

#include <numbers>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/spec/footprint_index.hpp>

namespace openspace {
namespace {

TEST(CapArea, KnownValues) {
  EXPECT_DOUBLE_EQ(capAreaFraction(0.0), 0.0);
  EXPECT_NEAR(capAreaFraction(std::numbers::pi / 2), 0.5, 1e-12);  // hemisphere
  EXPECT_NEAR(capAreaFraction(std::numbers::pi), 1.0, 1e-12);      // full sphere
  EXPECT_THROW(capAreaFraction(-0.1), InvalidArgumentError);
}

TEST(CapArea, ClampsBeyondFullSphere) {
  // Half-angles past pi describe the whole sphere, not more of it.
  EXPECT_DOUBLE_EQ(capAreaFraction(2.0 * std::numbers::pi), 1.0);
}

TEST(FootprintGeometry, ZeroMaskIsTheHorizonCap) {
  // Elevation mask 0 gives the widest (horizon-limited) footprint; the
  // Monte-Carlo fraction of a single satellite must match its cap area.
  const std::vector<OrbitalElements> one = {
      OrbitalElements::circular(km(780.0), 1.0, 2.0, 3.0)};
  Rng rng(20);
  const auto est = monteCarloCoverage(one, 0.0, 0.0, 50'000, rng);
  const double horizonCap = capAreaFraction(footprintHalfAngleRad(780e3, 0.0));
  EXPECT_NEAR(est.coverageFraction, horizonCap, 0.005);
  EXPECT_GT(horizonCap,
            capAreaFraction(footprintHalfAngleRad(780e3, deg2rad(10.0))));
}

TEST(FootprintGeometry, SubSatellitePointAlwaysCovered) {
  // The footprint cap is centered on the sub-satellite direction: that
  // direction is covered at any mask in [0, pi/2), its antipode never is.
  Rng rng(21);
  const auto sats = makeRandomConstellation(10, km(780.0), rng);
  const auto snap = SnapshotCache::global().at(sats, 500.0);
  const FootprintIndex fp(*snap, deg2rad(10.0));
  for (std::size_t i = 0; i < fp.size(); ++i) {
    const Vec3 sub = snap->eci(i).normalized();
    EXPECT_TRUE(fp.covers(sub, i));
    EXPECT_FALSE(fp.covers(Vec3{-sub.x, -sub.y, -sub.z}, i));
  }
}

TEST(FootprintGeometry, PolarSamplesCoveredByNearPolarShell) {
  // Iridium's 86.4 deg shell keeps both poles inside some footprint; the
  // pole samples are the latitude-band edge cases of the coverage index.
  const auto sats = makeWalkerStar(iridiumConfig());
  const auto snap = SnapshotCache::global().at(sats, 0.0);
  EXPECT_TRUE(snap->closestVisible(Geodetic{std::numbers::pi / 2, 0.0, 0.0},
                                   deg2rad(5.0))
                  .has_value());
  EXPECT_TRUE(snap->closestVisible(Geodetic{-std::numbers::pi / 2, 0.0, 0.0},
                                   deg2rad(5.0))
                  .has_value());
}

TEST(WorstCase, EmptyAndSingle) {
  const auto none = worstCaseOverlapCoverage({}, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(none.coverageFraction, 0.0);
  EXPECT_EQ(none.effectiveSatellites, 0);

  const std::vector<OrbitalElements> one = {
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.0)};
  const auto est = worstCaseOverlapCoverage(one, 0.0, deg2rad(10.0));
  EXPECT_EQ(est.effectiveSatellites, 1);
  const double cap =
      capAreaFraction(footprintHalfAngleRad(780e3, deg2rad(10.0)));
  EXPECT_NEAR(est.coverageFraction, cap, 0.01);
}

TEST(WorstCase, TwoOverlappingCollapseToOne) {
  // Same orbit, tiny phase offset: footprints fully overlap.
  const std::vector<OrbitalElements> sats = {
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.00),
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.01)};
  const auto est = worstCaseOverlapCoverage(sats, 0.0, deg2rad(10.0));
  EXPECT_EQ(est.effectiveSatellites, 1);
}

TEST(WorstCase, TwoAntipodalCountSeparately) {
  const std::vector<OrbitalElements> sats = {
      OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0),
      OrbitalElements::circular(km(780.0), 0.0, 0.0, std::numbers::pi)};
  const auto est = worstCaseOverlapCoverage(sats, 0.0, deg2rad(10.0));
  EXPECT_EQ(est.effectiveSatellites, 2);
  EXPECT_NEAR(est.coverageFraction,
              2.0 * capAreaFraction(footprintHalfAngleRad(780e3, deg2rad(10.0))),
              0.01);
}

TEST(WorstCase, ThreeCloseSatellitesPairwiseCollapse) {
  // Three co-located footprints: one pair collapses, the third keeps its
  // own cap (greedy matching leaves one unmatched).
  const std::vector<OrbitalElements> sats = {
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.00),
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.01),
      OrbitalElements::circular(km(780.0), 0.5, 0.0, 0.02)};
  const auto est = worstCaseOverlapCoverage(sats, 0.0, deg2rad(10.0));
  EXPECT_EQ(est.effectiveSatellites, 2);
}

TEST(WorstCase, NeverExceedsFullCoverage) {
  Rng rng(1);
  const auto sats = makeRandomConstellation(200, km(780.0), rng);
  const auto est = worstCaseOverlapCoverage(sats, 0.0, deg2rad(10.0));
  EXPECT_LE(est.coverageFraction, 1.0);
  EXPECT_GE(est.coverageFraction, 0.0);
}

TEST(WorstCase, ConservativeRelativeToUnionAtScale) {
  // The worst-case model must not exceed Monte-Carlo union coverage by
  // more than sampling noise once constellations are dense.
  Rng rng(2);
  const auto sats = makeRandomConstellation(30, km(780.0), rng);
  const auto wc = worstCaseOverlapCoverage(sats, 0.0, deg2rad(10.0));
  Rng rng2(3);
  const auto mc = monteCarloCoverage(sats, 0.0, deg2rad(10.0), 20'000, rng2);
  EXPECT_LE(wc.coverageFraction, mc.coverageFraction + 0.05);
}

TEST(MonteCarlo, FullConstellationCoversEverything) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng rng(4);
  const auto est = monteCarloCoverage(sats, 0.0, deg2rad(5.0), 10'000, rng);
  EXPECT_GT(est.coverageFraction, 0.98);
  EXPECT_EQ(est.effectiveSatellites, 66);
}

TEST(MonteCarlo, SingleSatelliteMatchesCapArea) {
  const std::vector<OrbitalElements> one = {
      OrbitalElements::circular(km(780.0), 1.0, 2.0, 3.0)};
  Rng rng(5);
  const auto est = monteCarloCoverage(one, 0.0, deg2rad(10.0), 50'000, rng);
  const double cap =
      capAreaFraction(footprintHalfAngleRad(780e3, deg2rad(10.0)));
  EXPECT_NEAR(est.coverageFraction, cap, 0.005);
}

TEST(MonteCarlo, CoverageGrowsWithMaskRelaxation) {
  const auto sats = makeWalkerStar(cboConfig());
  Rng a(6), b(6);
  const double strict =
      monteCarloCoverage(sats, 0.0, deg2rad(25.0), 10'000, a).coverageFraction;
  const double loose =
      monteCarloCoverage(sats, 0.0, deg2rad(5.0), 10'000, b).coverageFraction;
  EXPECT_GT(loose, strict);
}

TEST(MonteCarlo, CboAnchorRoughly95Percent) {
  // The paper cites the CBO estimate: 72 sats, 12x6 planes, 80 deg ⇒ ~95%
  // coverage. With a service-grade mask our estimate lands in the
  // 90-100% band.
  const auto sats = makeWalkerStar(cboConfig());
  Rng rng(7);
  const auto est = monteCarloCoverage(sats, 0.0, deg2rad(10.0), 20'000, rng);
  EXPECT_GT(est.coverageFraction, 0.90);
}

TEST(MonteCarlo, Validation) {
  Rng rng(8);
  EXPECT_THROW(monteCarloCoverage({}, 0.0, 0.1, 0, rng), InvalidArgumentError);
  const auto none = monteCarloCoverage({}, 0.0, 0.1, 100, rng);
  EXPECT_DOUBLE_EQ(none.coverageFraction, 0.0);
}

TEST(MonteCarlo, DeterministicGivenSeed) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng a(9), b(9);
  EXPECT_DOUBLE_EQ(
      monteCarloCoverage(sats, 0.0, deg2rad(10.0), 3000, a).coverageFraction,
      monteCarloCoverage(sats, 0.0, deg2rad(10.0), 3000, b).coverageFraction);
}

TEST(TimeAveraged, SmoothsInstantaneousOscillation) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng rng(10);
  const double avg = timeAveragedCoverage(sats, 0.0, sats.front().periodS(), 8,
                                          deg2rad(10.0), 3000, rng);
  EXPECT_GT(avg, 0.9);
  EXPECT_LE(avg, 1.0);
  EXPECT_THROW(timeAveragedCoverage(sats, 0.0, 100.0, 0, 0.1, 100, rng),
               InvalidArgumentError);
  EXPECT_THROW(timeAveragedCoverage(sats, 100.0, 0.0, 2, 0.1, 100, rng),
               InvalidArgumentError);
}

TEST(KFold, MonotoneInK) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng a(11), b(11), c(11);
  const double k1 = kFoldCoverage(sats, 0.0, deg2rad(10.0), 1, 5000, a);
  const double k2 = kFoldCoverage(sats, 0.0, deg2rad(10.0), 2, 5000, b);
  const double k4 = kFoldCoverage(sats, 0.0, deg2rad(10.0), 4, 5000, c);
  EXPECT_GE(k1, k2);
  EXPECT_GE(k2, k4);
  EXPECT_GT(k1, 0.95);
}

TEST(KFold, RedundancyGrowsWithFleetSize) {
  // §4: "additional satellites ensure redundancy". Double coverage should
  // improve markedly from 66 to 132 satellites.
  WalkerConfig big = iridiumConfig();
  big.totalSatellites = 132;
  const auto sats66 = makeWalkerStar(iridiumConfig());
  const auto sats132 = makeWalkerStar(big);
  Rng a(12), b(12);
  const double k2small = kFoldCoverage(sats66, 0.0, deg2rad(10.0), 2, 5000, a);
  const double k2big = kFoldCoverage(sats132, 0.0, deg2rad(10.0), 2, 5000, b);
  EXPECT_GT(k2big, k2small);
}

TEST(KFold, Validation) {
  Rng rng(13);
  const auto sats = makeWalkerStar(iridiumConfig());
  EXPECT_THROW(kFoldCoverage(sats, 0.0, 0.1, 0, 100, rng),
               InvalidArgumentError);
  EXPECT_THROW(kFoldCoverage(sats, 0.0, 0.1, 1, 0, rng), InvalidArgumentError);
  EXPECT_DOUBLE_EQ(kFoldCoverage({}, 0.0, 0.1, 1, 100, rng), 0.0);
}

}  // namespace
}  // namespace openspace
