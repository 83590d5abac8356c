// Unit tests for the orbit module: elements, Kepler solver, propagation,
// Walker constellations, visibility, contact windows, ephemeris service.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <set>

#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Elements, CircularFactory) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 1.0, 2.0);
  EXPECT_NEAR(el.semiMajorAxisM, wgs84::kMeanRadiusM + 780e3, 1e-6);
  EXPECT_DOUBLE_EQ(el.eccentricity, 0.0);
  EXPECT_DOUBLE_EQ(el.raanRad, 1.0);
  EXPECT_DOUBLE_EQ(el.meanAnomalyAtEpochRad, 2.0);
  EXPECT_THROW(OrbitalElements::circular(0.0, 0.0, 0.0, 0.0),
               InvalidArgumentError);
}

TEST(Elements, IridiumPeriodAbout100Minutes) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0, 0);
  EXPECT_NEAR(el.periodS(), 100.0 * 60.0, 120.0);  // ~100.1 min
}

TEST(Elements, PeriodGrowsWithAltitude) {
  const auto low = OrbitalElements::circular(km(400.0), 0, 0, 0);
  const auto high = OrbitalElements::circular(km(1200.0), 0, 0, 0);
  EXPECT_LT(low.periodS(), high.periodS());
}

TEST(Elements, MeanMotionMatchesPeriod) {
  const auto el = OrbitalElements::circular(km(780.0), 0.5, 0, 0);
  EXPECT_NEAR(el.meanMotionRadPerS() * el.periodS(), 2 * kPi, 1e-9);
}

TEST(Kepler, CircularIsIdentity) {
  EXPECT_DOUBLE_EQ(solveKepler(1.234, 0.0), 1.234);
}

class KeplerResidual
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(KeplerResidual, SatisfiesKeplersEquation) {
  const auto [m, e] = GetParam();
  const double eAnom = solveKepler(m, e);
  EXPECT_NEAR(eAnom - e * std::sin(eAnom), m, 1e-10)
      << "M=" << m << " e=" << e;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KeplerResidual,
    ::testing::Combine(::testing::Values(-5.0, -1.0, 0.0, 0.5, 1.5, 3.0, 6.2,
                                         12.5),
                       ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.9, 0.99)));

TEST(Kepler, ConvergesAcrossHighEccentricityGrid) {
  // Regression: plain Newton from the pi start oscillates for e ~> 0.82
  // with mean anomaly near +-pi and used to exit unconverged after 20
  // iterations, leaving residuals of whole radians (found by the batch
  // kernel's warm-vs-cold property tests). The bisection-safeguarded
  // fallback must hold every residual at solver tolerance.
  for (double e = 0.80; e < 0.999; e += 0.01) {
    for (double m = -3.14; m <= 3.14; m += 0.05) {
      const double eAnom = solveKepler(m, e);
      EXPECT_NEAR(eAnom - e * std::sin(eAnom), m, 1e-12)
          << "M=" << m << " e=" << e;
    }
  }
}

TEST(Kepler, InvalidEccentricityThrows) {
  EXPECT_THROW(solveKepler(1.0, -0.1), InvalidArgumentError);
  EXPECT_THROW(solveKepler(1.0, 1.0), InvalidArgumentError);
}

TEST(Kepler, NanEccentricityThrows) {
  EXPECT_THROW(solveKepler(1.0, std::numeric_limits<double>::quiet_NaN()),
               InvalidArgumentError);
}

TEST(Propagate, RadiusConstantForCircularOrbit) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(53.0), 0.4, 1.1);
  for (double t = 0.0; t < el.periodS(); t += el.periodS() / 17.0) {
    EXPECT_NEAR(positionEci(el, t).norm(), el.semiMajorAxisM, 1.0);
  }
}

TEST(Propagate, PeriodicInOnePeriod) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.7, 0.3);
  const Vec3 p0 = positionEci(el, 0.0);
  const Vec3 p1 = positionEci(el, el.periodS());
  EXPECT_NEAR(p0.distanceTo(p1), 0.0, 1.0);
}

TEST(Propagate, VelocityMatchesVisViva) {
  const auto el = OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
  const StateVector sv = propagate(el, 100.0);
  const double vExpected = std::sqrt(wgs84::kMuM3PerS2 / el.semiMajorAxisM);
  EXPECT_NEAR(sv.velocityMps.norm(), vExpected, 0.5);
}

TEST(Propagate, VelocityPerpendicularToRadiusForCircular) {
  const auto el = OrbitalElements::circular(km(500.0), 0.9, 0.2, 0.5);
  const StateVector sv = propagate(el, 1234.0);
  EXPECT_NEAR(sv.positionM.normalized().dot(sv.velocityMps.normalized()), 0.0,
              1e-9);
}

TEST(Propagate, VelocityIsNumericalDerivativeOfPosition) {
  const auto el = OrbitalElements::circular(km(780.0), 1.2, 0.3, 0.9);
  const double t = 500.0, h = 1e-3;
  const Vec3 numeric =
      (positionEci(el, t + h) - positionEci(el, t - h)) / (2.0 * h);
  const Vec3 analytic = propagate(el, t).velocityMps;
  EXPECT_NEAR(numeric.distanceTo(analytic), 0.0, 0.01);
}

TEST(Propagate, InclinationBoundsLatitude) {
  const double incl = deg2rad(53.0);
  const auto el = OrbitalElements::circular(km(550.0), incl, 0.0, 0.0);
  double maxLat = 0.0;
  for (double t = 0.0; t < el.periodS(); t += 20.0) {
    const Vec3 p = positionEci(el, t);
    const double lat = std::asin(p.z / p.norm());
    maxLat = std::max(maxLat, std::abs(lat));
  }
  EXPECT_NEAR(maxLat, incl, 0.01);
}

TEST(Propagate, EccentricOrbitRespectsApsides) {
  OrbitalElements el;
  el.semiMajorAxisM = wgs84::kMeanRadiusM + 1000e3;
  el.eccentricity = 0.1;
  const double rPeri = el.semiMajorAxisM * (1 - el.eccentricity);
  const double rApo = el.semiMajorAxisM * (1 + el.eccentricity);
  for (double t = 0.0; t < el.periodS(); t += el.periodS() / 50.0) {
    const double r = positionEci(el, t).norm();
    EXPECT_GE(r, rPeri - 1.0);
    EXPECT_LE(r, rApo + 1.0);
  }
  EXPECT_NEAR(positionEci(el, 0.0).norm(), rPeri, 1.0);  // M0=0 => perigee
}

TEST(GroundTrack, CoversRequestedSpanAndValidatesArgs) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0, 0);
  const auto track = groundTrack(el, 0.0, 600.0, 60.0);
  ASSERT_EQ(track.size(), 11u);
  EXPECT_DOUBLE_EQ(track.front().tSeconds, 0.0);
  EXPECT_DOUBLE_EQ(track.back().tSeconds, 600.0);
  for (const auto& p : track) {
    EXPECT_NEAR(p.altitudeM, 780e3, 30e3);  // ellipsoid vs sphere slack
  }
  EXPECT_THROW(groundTrack(el, 0, 10, 0), InvalidArgumentError);
  EXPECT_THROW(groundTrack(el, 10, 0, 1), InvalidArgumentError);
  // Non-finite arguments: NaN slips past a plain `<= 0` test, and an
  // infinite bound or step would never end (or never step) the scan.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(groundTrack(el, bad, 600.0, 60.0), InvalidArgumentError);
    EXPECT_THROW(groundTrack(el, 0.0, bad, 60.0), InvalidArgumentError);
    EXPECT_THROW(groundTrack(el, 0.0, 600.0, bad), InvalidArgumentError);
  }
  // Finite but unbounded scans: 1e17 samples used to throw an untyped
  // std::bad_alloc, 1e300 cast out of the size_t range, and at t = 1e17 a
  // 1 s step never advances t.
  EXPECT_THROW(groundTrack(el, 0.0, 1e17, 1.0), InvalidArgumentError);
  EXPECT_THROW(groundTrack(el, 0.0, 1e300, 1.0), InvalidArgumentError);
  EXPECT_THROW(groundTrack(el, 1e17, 1e17 + 1e3, 1.0), InvalidArgumentError);
  EXPECT_THROW(groundTrack(el, -1e17 - 1e3, -1e17, 1.0), InvalidArgumentError);
  // A day at 1 s is a legal scan.
  const auto day = groundTrack(el, 0.0, 86'400.0, 1.0);
  ASSERT_EQ(day.size(), 86'401u);
  EXPECT_DOUBLE_EQ(day.back().tSeconds, 86'400.0);
}

// --- Walker ------------------------------------------------------------

TEST(Walker, IridiumConfigShape) {
  const auto cfg = iridiumConfig();
  const auto sats = makeWalkerStar(cfg);
  ASSERT_EQ(sats.size(), 66u);
  // 6 distinct RAANs spread over < 180 degrees.
  std::set<long> raans;
  for (const auto& s : sats) {
    raans.insert(std::lround(s.raanRad * 1e6));
    EXPECT_NEAR(s.inclinationRad, deg2rad(86.4), 1e-12);
    EXPECT_NEAR(s.perigeeAltitudeM(), 780e3, 1.0);
  }
  EXPECT_EQ(raans.size(), 6u);
  EXPECT_LT(*std::max_element(raans.begin(), raans.end()),
            std::lround(kPi * 1e6));
}

TEST(Walker, DeltaSpreadsPlanesOver360) {
  WalkerConfig cfg;
  cfg.totalSatellites = 12;
  cfg.planes = 4;
  cfg.phasing = 1;
  cfg.altitudeM = km(550.0);
  cfg.inclinationRad = deg2rad(53.0);
  const auto sats = makeWalkerDelta(cfg);
  std::set<long> raans;
  for (const auto& s : sats) raans.insert(std::lround(s.raanRad * 1e6));
  ASSERT_EQ(raans.size(), 4u);
  // Last plane RAAN = 3/4 * 360 = 270 deg > 180 deg.
  EXPECT_GT(*std::max_element(raans.begin(), raans.end()),
            std::lround(kPi * 1e6));
}

TEST(Walker, InPlanePhasingIsEven) {
  const auto sats = makeWalkerStar(iridiumConfig());
  // Plane 0 has 11 satellites spaced 2*pi/11.
  for (int s = 0; s + 1 < 11; ++s) {
    const double gap = sats[static_cast<std::size_t>(s) + 1].meanAnomalyAtEpochRad -
                       sats[static_cast<std::size_t>(s)].meanAnomalyAtEpochRad;
    EXPECT_NEAR(gap, 2 * kPi / 11, 1e-12);
  }
}

TEST(Walker, InvalidConfigsThrow) {
  WalkerConfig cfg = iridiumConfig();
  cfg.planes = 7;  // does not divide 66
  EXPECT_THROW(makeWalkerStar(cfg), InvalidArgumentError);
  cfg = iridiumConfig();
  cfg.phasing = 6;  // >= planes
  EXPECT_THROW(makeWalkerStar(cfg), InvalidArgumentError);
  cfg = iridiumConfig();
  cfg.altitudeM = -5.0;
  EXPECT_THROW(makeWalkerStar(cfg), InvalidArgumentError);
  cfg = iridiumConfig();
  cfg.totalSatellites = 0;
  EXPECT_THROW(makeWalkerStar(cfg), InvalidArgumentError);
}

TEST(Walker, CboConfigMatchesPaper) {
  const auto cfg = cboConfig();
  EXPECT_EQ(cfg.totalSatellites, 72);
  EXPECT_EQ(cfg.planes, 6);
  EXPECT_NEAR(cfg.inclinationRad, deg2rad(80.0), 1e-12);
  EXPECT_EQ(makeWalkerStar(cfg).size(), 72u);
}

TEST(RandomConstellation, SizeAltitudeAndDeterminism) {
  Rng rngA(5), rngB(5);
  const auto a = makeRandomConstellation(25, km(780.0), rngA);
  const auto b = makeRandomConstellation(25, km(780.0), rngB);
  ASSERT_EQ(a.size(), 25u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].raanRad, b[i].raanRad);
    EXPECT_DOUBLE_EQ(a[i].inclinationRad, b[i].inclinationRad);
    EXPECT_NEAR(a[i].perigeeAltitudeM(), 780e3, 1e-6);
  }
  EXPECT_THROW(makeRandomConstellation(-1, km(780.0), rngA),
               InvalidArgumentError);
  EXPECT_THROW(makeRandomConstellation(1, 0.0, rngA), InvalidArgumentError);
}

TEST(RandomConstellation, OrbitNormalsAreaUniform) {
  // acos(U[-1,1]) inclination sampling => mean inclination pi/2.
  Rng rng(11);
  const auto sats = makeRandomConstellation(4000, km(780.0), rng);
  double sum = 0.0;
  for (const auto& s : sats) sum += s.inclinationRad;
  EXPECT_NEAR(sum / static_cast<double>(sats.size()), kPi / 2, 0.03);
}

// --- Visibility ----------------------------------------------------------

TEST(Footprint, HalfAngleShrinksWithMask) {
  const double h = 780e3;
  const double l0 = footprintHalfAngleRad(h, 0.0);
  const double l10 = footprintHalfAngleRad(h, deg2rad(10.0));
  const double l40 = footprintHalfAngleRad(h, deg2rad(40.0));
  EXPECT_GT(l0, l10);
  EXPECT_GT(l10, l40);
  EXPECT_GT(l40, 0.0);
}

TEST(Footprint, KnownGeometryAtZeroMask) {
  // lambda = acos(Re/(Re+h)) at zero elevation.
  const double h = 780e3;
  const double expected =
      std::acos(wgs84::kMeanRadiusM / (wgs84::kMeanRadiusM + h));
  EXPECT_NEAR(footprintHalfAngleRad(h, 0.0), expected, 1e-12);
}

TEST(Footprint, InvalidArgsThrow) {
  EXPECT_THROW(footprintHalfAngleRad(0.0, 0.1), InvalidArgumentError);
  EXPECT_THROW(footprintHalfAngleRad(780e3, -0.1), InvalidArgumentError);
  EXPECT_THROW(footprintHalfAngleRad(780e3, 2.0), InvalidArgumentError);
}

TEST(Footprint, NanArgsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(footprintHalfAngleRad(780e3, nan), InvalidArgumentError);
  EXPECT_THROW(footprintHalfAngleRad(nan, 0.1), InvalidArgumentError);
  EXPECT_THROW(maxSlantRangeM(780e3, nan), InvalidArgumentError);
  EXPECT_THROW(maxSlantRangeM(nan, 0.1), InvalidArgumentError);
}

TEST(SlantRange, AltitudeAtZenithAndLongerAtMask) {
  const double h = 780e3;
  // At 90 degrees elevation the slant range is the altitude itself.
  EXPECT_NEAR(maxSlantRangeM(h, kPi / 2 * 0.9999), h, 2e3);
  EXPECT_GT(maxSlantRangeM(h, deg2rad(10.0)), h);
  EXPECT_GT(maxSlantRangeM(h, 0.0), maxSlantRangeM(h, deg2rad(10.0)));
}

TEST(Visibility, SatelliteDirectlyOverhead) {
  const Geodetic site = Geodetic::fromDegrees(0.0, 0.0);
  // Equatorial orbit passing over lon 0 at t=0: phase 0, raan 0, incl 0.
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  EXPECT_TRUE(isVisible(positionEci(el, 0.0), site, 0.0, deg2rad(80.0)));
  EXPECT_NEAR(elevationFrom(positionEci(el, 0.0), site, 0.0), kPi / 2, 0.02);
}

TEST(Visibility, AntipodalSatelliteNotVisible) {
  const Geodetic site = Geodetic::fromDegrees(0.0, 180.0);
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  EXPECT_FALSE(isVisible(positionEci(el, 0.0), site, 0.0, 0.0));
}

TEST(ContactWindows, EquatorialPassStructure) {
  const Geodetic site = Geodetic::fromDegrees(0.0, 0.0);
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const auto windows =
      contactWindows(el, site, 0.0, el.periodS() * 2.0, deg2rad(10.0), 10.0);
  ASSERT_GE(windows.size(), 1u);
  // Satellite is overhead at t=0, so the first window starts at 0.
  EXPECT_DOUBLE_EQ(windows.front().startS, 0.0);
  for (const auto& w : windows) {
    EXPECT_GT(w.durationS(), 0.0);
    EXPECT_LT(w.durationS(), 20 * 60.0);  // LEO passes are minutes long
  }
  // Windows are disjoint and ordered.
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GT(windows[i].startS, windows[i - 1].endS);
  }
}

TEST(ContactWindows, EdgeRefinementIsTight) {
  const Geodetic site = Geodetic::fromDegrees(0.0, 0.0);
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const double mask = deg2rad(10.0);
  const auto windows = contactWindows(el, site, 0.0, el.periodS(), mask, 30.0);
  ASSERT_FALSE(windows.empty());
  const double end = windows.front().endS;
  // Elevation at the refined edge is within a hair of the mask.
  const double elevAtEnd = elevationFrom(positionEci(el, end), site, end);
  EXPECT_NEAR(elevAtEnd, mask, 1e-4);
}

TEST(ContactWindows, NoWindowsForPolarSiteEquatorialOrbit) {
  const Geodetic pole = Geodetic::fromDegrees(89.9, 0.0);
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const auto windows = contactWindows(el, pole, 0.0, el.periodS(), deg2rad(10.0));
  EXPECT_TRUE(windows.empty());
}

TEST(ContactWindows, InvalidArgsThrow) {
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const Geodetic site = Geodetic::fromDegrees(0.0, 0.0);
  EXPECT_THROW(contactWindows(el, site, 0.0, 100.0, 0.1, 0.0),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 100.0, 0.0, 0.1), InvalidArgumentError);
}

TEST(ContactWindows, NonFiniteTimesAndStepsThrow) {
  // NaN fails every ordered guard, so each of these used to slip through:
  // an infinite end never ended the scan, a NaN end came back as the
  // window [0, NaN], and a NaN or infinite step took one sample and
  // reported the whole interval visible.
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const Geodetic site = Geodetic::fromDegrees(0.0, 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double mask = deg2rad(10.0);
  EXPECT_THROW(contactWindows(el, site, 0.0, inf, mask), InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 0.0, nan, mask), InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, nan, 3'600.0, mask),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, -inf, 3'600.0, mask),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 0.0, 3'600.0, mask, nan),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 0.0, 3'600.0, mask, inf),
               InvalidArgumentError);
  // Finite but unbounded scans: too many samples, or a step that cannot
  // advance t at the range's magnitude.
  EXPECT_THROW(contactWindows(el, site, 0.0, 1e17, mask, 1.0),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 0.0, 1e300, mask, 1.0),
               InvalidArgumentError);
  EXPECT_THROW(contactWindows(el, site, 1e17, 1e17 + 1e3, mask, 1.0),
               InvalidArgumentError);
  // A day at 1 s is a legal scan: one ~10 min pass per orbit at most.
  const auto day = contactWindows(el, site, 0.0, 86'400.0, mask, 1.0);
  ASSERT_FALSE(day.empty());
  for (const ContactWindow& w : day) EXPECT_LT(w.durationS(), 1'200.0);
  // The same site and orbit with a finite step: a ~10 min pass, not the
  // whole hour.
  const auto windows = contactWindows(el, site, 0.0, 3'600.0, mask);
  ASSERT_FALSE(windows.empty());
  EXPECT_LT(windows.front().durationS(), 1'200.0);
}

// --- Ephemeris -------------------------------------------------------------

TEST(Ephemeris, PublishAndLookup) {
  EphemerisService eph;
  const auto el = OrbitalElements::circular(km(780.0), 1.0, 0.5, 0.0);
  const SatelliteId id = eph.publish(ProviderId{7}, el);
  EXPECT_TRUE(eph.contains(id));
  EXPECT_EQ(eph.record(id).owner, ProviderId{7u});
  EXPECT_EQ(eph.size(), 1u);
  EXPECT_EQ(eph.positionEci(id, 50.0), positionEci(el, 50.0));
}

TEST(Ephemeris, UnknownIdThrows) {
  EphemerisService eph;
  EXPECT_THROW(eph.record(SatelliteId{42}), NotFoundError);
  EXPECT_THROW(eph.positionEci(SatelliteId{42}, 0.0), NotFoundError);
  EXPECT_FALSE(eph.contains(SatelliteId{42}));
}

TEST(Ephemeris, ExplicitIdsAndCollision) {
  EphemerisService eph;
  const auto el = OrbitalElements::circular(km(500.0), 0, 0, 0);
  eph.publishWithId(SatelliteId{100}, ProviderId{1}, el);
  EXPECT_THROW(eph.publishWithId(SatelliteId{100}, ProviderId{2}, el), InvalidArgumentError);
  // Auto-assign skips taken ids.
  const SatelliteId next = eph.publish(ProviderId{1}, el);
  EXPECT_NE(next, SatelliteId{100u});
  EXPECT_TRUE(eph.contains(next));
}

TEST(Ephemeris, SatellitesOfFiltersByOwner) {
  EphemerisService eph;
  const auto el = OrbitalElements::circular(km(500.0), 0, 0, 0);
  const auto a1 = eph.publish(ProviderId{1}, el);
  const auto b1 = eph.publish(ProviderId{2}, el);
  const auto a2 = eph.publish(ProviderId{1}, el);
  const auto mine = eph.satellitesOf(ProviderId{1});
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0], a1);
  EXPECT_EQ(mine[1], a2);
  EXPECT_EQ(eph.satellitesOf(ProviderId{2}).size(), 1u);
  EXPECT_EQ(eph.satellitesOf(ProviderId{2})[0], b1);
  EXPECT_TRUE(eph.satellitesOf(ProviderId{3}).empty());
}

TEST(Ephemeris, PublicTopologyIsSharedKnowledge) {
  // Any participant can predict any satellite's position arbitrarily far
  // ahead — the property OpenSpace routing rests on.
  EphemerisService eph;
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.1, 0.2);
  const SatelliteId id = eph.publish(ProviderId{1}, el);
  const double future = 7 * 24 * 3600.0;  // one week out
  EXPECT_EQ(eph.positionEci(id, future), positionEci(el, future));
}

}  // namespace
}  // namespace openspace
