// Unit tests for the geo module: vectors, units, frames, great-circle
// geometry, line-of-sight, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include <openspace/geo/error.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/vec3.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/spec/std_rng.hpp>

namespace openspace {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Vec3, BasicAlgebra) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-1.0, 0.5, 2.0};
  EXPECT_EQ(a + b, (Vec3{0.0, 2.5, 5.0}));
  EXPECT_EQ(a - b, (Vec3{2.0, 1.5, 1.0}));
  EXPECT_EQ(a * 2.0, (Vec3{2.0, 4.0, 6.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1.0, -2.0, -3.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), -1.0 + 1.0 + 6.0);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -1.0, 0.5};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, CrossFollowsRightHandRule) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(x.cross(y), (Vec3{0, 0, 1}));
  EXPECT_EQ(y.cross(x), (Vec3{0, 0, -1}));
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.normSquared(), 25.0);
  const Vec3 u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-15);
  EXPECT_NEAR(u.x, 0.6, 1e-15);
}

TEST(Vec3, DistanceIsSymmetric) {
  const Vec3 a{1, 2, 3}, b{-4, 0, 9};
  EXPECT_DOUBLE_EQ(a.distanceTo(b), b.distanceTo(a));
  EXPECT_DOUBLE_EQ(a.distanceTo(a), 0.0);
}

TEST(AngleBetween, KnownAngles) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_NEAR(angleBetween(x, y), kPi / 2, 1e-12);
  EXPECT_NEAR(angleBetween(x, x), 0.0, 1e-7);
  EXPECT_NEAR(angleBetween(x, -x), kPi, 1e-7);
}

TEST(AngleBetween, ZeroVectorThrows) {
  EXPECT_THROW(angleBetween({0, 0, 0}, {1, 0, 0}), InvalidArgumentError);
}

TEST(Units, AngleRoundTrip) {
  EXPECT_NEAR(rad2deg(deg2rad(123.456)), 123.456, 1e-12);
  EXPECT_DOUBLE_EQ(deg2rad(180.0), kPi);
}

TEST(Units, DistanceTimeFrequency) {
  EXPECT_DOUBLE_EQ(km(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(minutes(2.0), 120.0);
  EXPECT_DOUBLE_EQ(hours(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(milliseconds(250.0), 0.25);
  EXPECT_DOUBLE_EQ(megahertz(5.0), 5e6);
  EXPECT_DOUBLE_EQ(gbps(2.0), 2e9);
  EXPECT_DOUBLE_EQ(toMilliseconds(0.03), 30.0);
}

TEST(Units, DecibelConversions) {
  EXPECT_NEAR(wattsToDbw(1.0), 0.0, 1e-12);
  EXPECT_NEAR(wattsToDbw(10.0), 10.0, 1e-12);
  EXPECT_NEAR(wattsToDbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(dbwToWatts(wattsToDbw(123.0)), 123.0, 1e-9);
  EXPECT_NEAR(dbmToWatts(wattsToDbm(0.02)), 0.02, 1e-12);
  EXPECT_NEAR(dbToRatio(ratioToDb(42.0)), 42.0, 1e-9);
  EXPECT_THROW(wattsToDbw(0.0), InvalidArgumentError);
  EXPECT_THROW(wattsToDbw(-1.0), InvalidArgumentError);
  EXPECT_THROW(ratioToDb(0.0), InvalidArgumentError);
}

TEST(Geodetic, FromDegrees) {
  const Geodetic g = Geodetic::fromDegrees(45.0, -90.0, 100.0);
  EXPECT_NEAR(g.latitudeRad, kPi / 4, 1e-12);
  EXPECT_NEAR(g.longitudeRad, -kPi / 2, 1e-12);
  EXPECT_DOUBLE_EQ(g.altitudeM, 100.0);
}

TEST(Geodetic, EquatorPrimeMeridianEcef) {
  const Vec3 p = geodeticToEcef(Geodetic::fromDegrees(0.0, 0.0, 0.0));
  EXPECT_NEAR(p.x, wgs84::kSemiMajorAxisM, 1e-6);
  EXPECT_NEAR(p.y, 0.0, 1e-6);
  EXPECT_NEAR(p.z, 0.0, 1e-6);
}

TEST(Geodetic, NorthPoleEcef) {
  const Vec3 p = geodeticToEcef(Geodetic::fromDegrees(90.0, 0.0, 0.0));
  EXPECT_NEAR(p.x, 0.0, 1e-6);
  EXPECT_NEAR(p.y, 0.0, 1e-6);
  EXPECT_NEAR(p.z, wgs84::kSemiMinorAxisM, 1e-6);
}

TEST(Geodetic, LatitudeOutOfRangeThrows) {
  Geodetic g;
  g.latitudeRad = 2.0;  // > pi/2
  EXPECT_THROW(geodeticToEcef(g), InvalidArgumentError);
}

class GeodeticRoundTrip : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GeodeticRoundTrip, EcefAndBack) {
  const auto [latDeg, lonDeg, altM] = GetParam();
  const Geodetic in = Geodetic::fromDegrees(latDeg, lonDeg, altM);
  const Geodetic out = ecefToGeodetic(geodeticToEcef(in));
  EXPECT_NEAR(out.latitudeRad, in.latitudeRad, 1e-9)
      << "lat=" << latDeg << " lon=" << lonDeg << " alt=" << altM;
  EXPECT_NEAR(out.longitudeRad, in.longitudeRad, 1e-9);
  EXPECT_NEAR(out.altitudeM, in.altitudeM, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeodeticRoundTrip,
    ::testing::Values(std::make_tuple(0.0, 0.0, 0.0),
                      std::make_tuple(45.0, 45.0, 1000.0),
                      std::make_tuple(-33.9, 151.2, 50.0),
                      std::make_tuple(40.44, -79.99, 300.0),
                      std::make_tuple(89.0, 10.0, 780e3),
                      std::make_tuple(-89.0, -170.0, 500e3),
                      std::make_tuple(0.0, 179.9, 780e3),
                      std::make_tuple(51.5, -0.12, 35786e3)));

TEST(Frames, EciEcefRoundTrip) {
  const Vec3 p{7000e3, -1234e3, 4500e3};
  const double t = 5432.1;
  const Vec3 back = ecefToEci(eciToEcef(p, t), t);
  EXPECT_NEAR(back.x, p.x, 1e-6);
  EXPECT_NEAR(back.y, p.y, 1e-6);
  EXPECT_NEAR(back.z, p.z, 1e-6);
}

TEST(Frames, FramesCoincideAtEpoch) {
  const Vec3 p{7000e3, 100e3, -2000e3};
  EXPECT_EQ(eciToEcef(p, 0.0), p);
}

TEST(Frames, EarthRotatesEastward) {
  // A point fixed in ECI above the equator drifts westward in ECEF
  // longitude as the Earth rotates under it.
  const Vec3 eci{7000e3, 0.0, 0.0};
  const Geodetic g0 = ecefToGeodetic(eciToEcef(eci, 0.0));
  const Geodetic g1 = ecefToGeodetic(eciToEcef(eci, 600.0));
  EXPECT_LT(g1.longitudeRad, g0.longitudeRad);
}

TEST(Frames, ZAxisUnaffectedByRotation) {
  const Vec3 pole{0.0, 0.0, 7000e3};
  EXPECT_EQ(eciToEcef(pole, 1234.5), pole);
}

TEST(GreatCircle, QuarterMeridian) {
  const Geodetic equator = Geodetic::fromDegrees(0.0, 0.0);
  const Geodetic pole = Geodetic::fromDegrees(90.0, 0.0);
  EXPECT_NEAR(centralAngleRad(equator, pole), kPi / 2, 1e-12);
  EXPECT_NEAR(greatCircleDistanceM(equator, pole),
              wgs84::kMeanRadiusM * kPi / 2, 1.0);
}

TEST(GreatCircle, SymmetricAndZeroOnIdentical) {
  const Geodetic a = Geodetic::fromDegrees(40.44, -79.99);
  const Geodetic b = Geodetic::fromDegrees(48.86, 2.35);
  EXPECT_DOUBLE_EQ(greatCircleDistanceM(a, b), greatCircleDistanceM(b, a));
  EXPECT_DOUBLE_EQ(greatCircleDistanceM(a, a), 0.0);
}

TEST(GreatCircle, PittsburghToParisPlausible) {
  // Known value ~6,140 km.
  const Geodetic pgh = Geodetic::fromDegrees(40.4406, -79.9959);
  const Geodetic paris = Geodetic::fromDegrees(48.8566, 2.3522);
  const double d = greatCircleDistanceM(pgh, paris);
  EXPECT_GT(d, 6.0e6);
  EXPECT_LT(d, 6.3e6);
}

TEST(Elevation, ZenithTargetIs90Degrees) {
  const Vec3 obs = geodeticToEcef(Geodetic::fromDegrees(10.0, 20.0));
  const Vec3 overhead = obs * 1.1;  // radially outward
  EXPECT_NEAR(elevationAngleRad(obs, overhead), kPi / 2, 1e-9);
}

TEST(Elevation, AntipodalTargetIsBelowHorizon) {
  const Vec3 obs = geodeticToEcef(Geodetic::fromDegrees(0.0, 0.0));
  const Vec3 anti = geodeticToEcef(Geodetic::fromDegrees(0.0, 180.0, 780e3));
  EXPECT_LT(elevationAngleRad(obs, anti), 0.0);
}

TEST(GroundObserver, ElevationMatchesUncompiledFormulaBitForBit) {
  // The executable spec: the per-call elevation every fixed-site loop used
  // before the observer was compiled. The compiled form hoists only
  // observer-side terms, so the result must not move by a single bit.
  const auto spec = [](const Vec3& observer, const Vec3& target) {
    const Vec3 up = observer.normalized();
    const Vec3 losDir = (target - observer).normalized();
    return kPi / 2.0 - angleBetween(up, losDir);
  };
  Rng rng(5);
  for (int i = 0; i < 2'000; ++i) {
    const Geodetic site = Geodetic::fromDegrees(
        rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0),
        rng.uniform(-400.0, 9'000.0));
    const GroundObserver observer(site);
    ASSERT_EQ(observer.ecef(), geodeticToEcef(site));
    ASSERT_EQ(observer.radiusM(), observer.ecef().norm());
    const Vec3 target = rng.unitSphere() * rng.uniform(6.0e6, 4.5e7);
    const double got = observer.elevationTo(target);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(spec(observer.ecef(), target)))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(
                  elevationAngleRad(observer.ecef(), target)))
        << i;
  }
  const GroundObserver observer(Geodetic::fromDegrees(10.0, 20.0));
  EXPECT_TRUE(std::isnan(observer.elevationTo(observer.ecef())));
  EXPECT_TRUE(std::isnan(elevationAngleRad(observer.ecef(), observer.ecef())));
}

TEST(GroundObserver, SeesIsTheExactMaskTestBitForBit) {
  // sees(t, m) must be elevationTo(t) >= m.rad() for every input: its
  // fast verdicts only skip the acos, never change the answer. Targets are
  // bisected onto the mask edge along a great circle through the zenith,
  // to within 1e-15..1e-6 rad, where the fast path must defer.
  const double masks[] = {0.0,       1e-9,     deg2rad(10.0), deg2rad(40.0),
                          deg2rad(89.99), kPi / 2.0 - 1e-10};
  std::vector<Geodetic> sites = {
      Geodetic::fromDegrees(90.0, 0.0),       Geodetic::fromDegrees(-90.0, 0.0),
      Geodetic::fromDegrees(90.0, 0.0, 8'000.0),
      Geodetic::fromDegrees(10.0, 180.0),     Geodetic::fromDegrees(-35.0, -180.0),
      Geodetic::fromDegrees(0.0, 179.999, 4'000.0)};
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    sites.push_back(Geodetic::fromDegrees(rng.uniform(-90.0, 90.0),
                                          rng.uniform(-180.0, 180.0),
                                          rng.uniform(0.0, 8'000.0)));
  }
  int checked = 0;
  const auto check = [&](const GroundObserver& observer, const Vec3& target,
                         const ElevationMask& mask) {
    ASSERT_EQ(observer.sees(target, mask),
              observer.elevationTo(target) >= mask.rad())
        << "target " << target << " mask " << mask.rad();
    ++checked;
  };
  for (const Geodetic& site : sites) {
    const GroundObserver observer(site);
    const Vec3 up = observer.ecef().normalized();
    const Vec3 side = up.cross(rng.unitSphere()).normalized();
    for (const double maskRad : masks) {
      const ElevationMask mask = ElevationMask::of(maskRad);
      for (int k = 0; k < 60; ++k) {
        const double radiusM =
            observer.radiusM() + rng.uniform(km(300.0), km(36'000.0));
        const auto at = [&](double gamma) {
          return (up * std::cos(gamma) + side * std::sin(gamma)) * radiusM;
        };
        // Zenith is visible for every mask here; the antipode never is.
        double lo = 0.0;
        double hi = kPi;
        const double width = std::pow(10.0, rng.uniform(-15.0, -6.0));
        while (hi - lo > width) {
          const double mid = 0.5 * (lo + hi);
          (observer.elevationTo(at(mid)) >= maskRad ? lo : hi) = mid;
        }
        check(observer, at(lo), mask);
        check(observer, at(hi), mask);
        check(observer, at(0.5 * (lo + hi)), mask);
        // Far from the edge: the fast verdicts.
        check(observer, at(rng.uniform(0.0, kPi)), mask);
      }
      const double inf = std::numeric_limits<double>::infinity();
      const double nan = std::numeric_limits<double>::quiet_NaN();
      for (const Vec3& odd :
           {observer.ecef(), Vec3{nan, 0.0, 0.0}, Vec3{nan, nan, nan},
            Vec3{inf, 0.0, 0.0}, Vec3{-inf, 0.0, 0.0}, Vec3{0.0, 0.0, inf},
            Vec3{inf, -inf, inf}, up * inf, up * -inf}) {
        check(observer, odd, mask);
        EXPECT_FALSE(observer.sees(odd, mask)) << odd;
      }
    }
  }
  EXPECT_GT(checked, 50'000);
  // Negative masks, masks beyond [-pi/2, pi/2] and NaN masks decide
  // exactly too, also for a target so far out that |d|^2 overflows.
  const GroundObserver observer(Geodetic::fromDegrees(10.0, 20.0));
  const Vec3 up = observer.ecef().normalized();
  for (const double maskRad : {-0.5, -kPi / 2.0, 2.0, -2.0, kPi,
                               std::numeric_limits<double>::quiet_NaN()}) {
    const ElevationMask mask = ElevationMask::of(maskRad);
    for (const Vec3& target : {observer.ecef() * 1.1, -observer.ecef() * 1.1,
                               up * 1e200, up * -1e200}) {
      check(observer, target, mask);
    }
  }
  // Degenerate observers (the Earth's center, magnitudes whose square
  // overflows or underflows, NaN) have no usable vertical; the targets sit
  // 1 000 km away, near and far from the mask edge along +x.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Vec3& site : {Vec3{}, Vec3{1e200, 0.0, 0.0},
                           Vec3{1e-160, 0.0, 0.0}, Vec3{1e-200, 0.0, 0.0},
                           Vec3{nan, 0.0, 0.0}}) {
    const GroundObserver degenerate(site);
    for (const double maskRad : {-0.5, 0.0, 0.1}) {
      const ElevationMask mask = ElevationMask::of(maskRad);
      for (const double offRad : {-0.3, -1e-3, -1e-5, 1e-5, 1e-3, 0.3}) {
        const double e = maskRad + offRad;
        check(degenerate,
              site + Vec3{std::sin(e), std::cos(e), 0.0} * 1e6, mask);
      }
      check(degenerate, Vec3{1e201, 0.0, 0.0}, mask);
    }
  }
}

TEST(LineOfSight, ClearAboveEarth) {
  // Two satellites on the same side of the planet.
  const Vec3 a{7000e3, 0, 0};
  const Vec3 b{7000e3 * std::cos(0.3), 7000e3 * std::sin(0.3), 0};
  EXPECT_TRUE(lineOfSightClear(a, b));
}

TEST(LineOfSight, BlockedThroughEarth) {
  const Vec3 a{7000e3, 0, 0};
  const Vec3 b{-7000e3, 0, 0};
  EXPECT_FALSE(lineOfSightClear(a, b));
}

TEST(LineOfSight, ClearanceMarginMatters) {
  // A grazing path: clear with zero clearance, blocked with 300 km margin.
  const double r = wgs84::kMeanRadiusM + 100e3;  // closest approach 100 km up
  const Vec3 a{r, 2000e3, 0};
  const Vec3 b{r, -2000e3, 0};
  EXPECT_TRUE(lineOfSightClear(a, b, 0.0));
  EXPECT_FALSE(lineOfSightClear(a, b, 300e3));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    sawLo |= (v == 0);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, InvalidArgsThrow) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  Rng rng(1);
  EXPECT_THROW(rng.uniform(3.0, 2.0), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(kNan, 1.0), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(0.0, kNan), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(-kInf, kInf), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(0.0, kInf), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(-kInf, 0.0), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(kInf, kInf), InvalidArgumentError);
  EXPECT_THROW(rng.uniform(-kMax, kMax), InvalidArgumentError);  // span overflows
  EXPECT_THROW(rng.uniformInt(5, 4), InvalidArgumentError);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgumentError);
  EXPECT_THROW(rng.exponential(-1.0), InvalidArgumentError);
  EXPECT_THROW(rng.exponential(kNan), InvalidArgumentError);
  EXPECT_THROW(rng.exponential(kInf), InvalidArgumentError);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgumentError);
  EXPECT_THROW(rng.normal(kNan, 1.0), InvalidArgumentError);
  EXPECT_THROW(rng.normal(kInf, 1.0), InvalidArgumentError);
  EXPECT_THROW(rng.normal(0.0, kInf), InvalidArgumentError);
  EXPECT_THROW(rng.normal(0.0, kNan), InvalidArgumentError);
  EXPECT_THROW(rng.normal(kNan, 0.0), InvalidArgumentError);
  EXPECT_THROW(rng.chance(1.5), InvalidArgumentError);
  EXPECT_THROW(rng.chance(-kInf), InvalidArgumentError);
  // A rejected call draws nothing: the stream is where a fresh one starts.
  Rng fresh(1);
  EXPECT_EQ(rng.engine()(), fresh.engine()());
  // Legal edges still work.
  EXPECT_EQ(rng.uniform(2.5, 2.5), 2.5);
  EXPECT_EQ(rng.normal(-4.0, 0.0), -4.0);
  EXPECT_TRUE(std::isfinite(rng.uniform(-kMax / 2, kMax / 2)));
}

TEST(Rng, ChanceRejectsNan) {
  Rng rng(1);
  EXPECT_THROW(rng.chance(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgumentError);
}

// --- Rng against its std spec -------------------------------------------

/// A one-value bit generator: feeds a chosen 64-bit draw to
/// std::generate_canonical.
struct FixedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type bits;
  result_type operator()() const { return bits; }
};

double stdCanonicalOf(std::uint64_t bits) {
  FixedBits g{bits};
  return std::generate_canonical<double, 53>(g);
}

TEST(RngSpec, CanonicalConversionMatchesStdAtTheEdges) {
  std::vector<std::uint64_t> edges = {0,
                                      1,
                                      2,
                                      (1ull << 53) - 1,
                                      1ull << 53,
                                      (1ull << 53) + 1,
                                      (1ull << 63) - 1,
                                      1ull << 63,
                                      (1ull << 63) + 1,
                                      0xFFFFFFFFull,
                                      0x100000000ull,
                                      0xFFFFFFFF00000000ull,
                                      ~0ull};
  // Every value from 2^64 - 2049 to 2^64 - 1: the ones that round up to 1
  // (and are clamped) and the last ones that stay below it.
  for (std::uint64_t d = 1; d <= 2'049; ++d) edges.push_back(0ull - d);
  // The round-half-to-even boundaries of every binade above 2^53: a half
  // ulp up from a power of two and from its odd neighbour, and one off.
  for (int e = 53; e < 64; ++e) {
    const std::uint64_t p = 1ull << e;
    const std::uint64_t halfUlp = 1ull << (e - 53);
    for (const std::uint64_t base : {p, p + 2 * halfUlp}) {
      for (const std::uint64_t v : {base + halfUlp - 1, base + halfUlp,
                                    base + halfUlp + 1}) {
        edges.push_back(v);
      }
    }
    edges.push_back(p - 1);
  }
  for (const std::uint64_t v : edges) {
    const double got = Rng::toCanonical(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(stdCanonicalOf(v)))
        << std::hex << v;
    EXPECT_LT(got, 1.0) << std::hex << v;
  }
  EXPECT_EQ(Rng::toCanonical(~0ull), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::toCanonical(1ull << 63), 0.5);
  // And a stretch of the raw stream.
  std::mt19937_64 g(77);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t v = g();
    mismatches += std::bit_cast<std::uint64_t>(Rng::toCanonical(v)) !=
                  std::bit_cast<std::uint64_t>(stdCanonicalOf(v));
  }
  EXPECT_EQ(mismatches, 0u);
}

std::vector<std::uint64_t> specSeeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 2, 31, 5489, ~0ull, 1ull << 63};
  std::mt19937_64 g(2024);
  while (seeds.size() < 1'000) seeds.push_back(g());
  return seeds;
}

TEST(RngSpec, EngineMatchesStdStreamAndDiscard) {
  std::size_t mismatches = 0;
  for (const std::uint64_t seed : specSeeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    // 700 draws cross two twists.
    for (int i = 0; i < 700; ++i) mismatches += rng.engine()() != ref();
    for (const std::uint64_t skip : {0ull, 1ull, 311ull, 312ull, 313ull,
                                     1'000ull, 3'584ull}) {
      rng.engine().discard(skip);
      ref.discard(skip);
      mismatches += rng.engine()() != ref();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Every Rng method against StdRng on the same seed, over a parameter grid
/// that includes p in {0, 1}, lo == hi and stddev 0. Compared bit for bit
/// (signed zeros apart), with the raw streams checked in step at the end.
TEST(RngSpec, EveryMethodMatchesStdOverSeedsAndGrid) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-1.0, 1.0}, {0.5, 1.5}, {2.5, 2.5}, {-0.0, 0.0},
      {-1e300, 1e300}, {-kMax / 2, kMax / 2}, {1e-320, 2e-320}, {-7.0, -3.0}};
  const std::pair<std::int64_t, std::int64_t> intRanges[] = {
      {0, 3}, {-5, 5}, {7, 7}, {0, 1'000'000'007}, {kIntMin, kIntMax},
      {kIntMin, 0}, {-(1ll << 40), 1ll << 40}};
  const double rates[] = {1e-300, 1e-3, 1.0, 2.0, 1e6, kMax};
  const std::pair<double, double> normals[] = {
      {0.0, 1.0}, {0.0, 0.0}, {5.0, 0.0}, {-3.0, 2.5}, {0.0, 1e-300},
      {1e300, 1e-3}, {0.0, 0.0314}};
  const double probabilities[] = {0.0, 1.0, 0.3, 0.5, 1e-300,
                                  std::nextafter(1.0, 0.0)};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  std::size_t compared = 0;
  std::string firstMismatch;
  const auto check = [&](bool same, const char* what, std::uint64_t seed) {
    ++compared;
    if (!same && firstMismatch.empty()) {
      firstMismatch = std::string(what) + " seed " + std::to_string(seed);
    }
  };
  for (const std::uint64_t seed : specSeeds()) {
    Rng rng(seed);
    StdRng ref(seed);
    for (int round = 0; round < 3; ++round) {
      for (const auto& [lo, hi] : ranges) {
        check(bits(rng.uniform(lo, hi)) == bits(ref.uniform(lo, hi)),
              "uniform", seed);
      }
      for (const auto& [lo, hi] : intRanges) {
        check(rng.uniformInt(lo, hi) == ref.uniformInt(lo, hi), "uniformInt",
              seed);
      }
      for (const double rate : rates) {
        check(bits(rng.exponential(rate)) == bits(ref.exponential(rate)),
              "exponential", seed);
      }
      for (const auto& [mean, sd] : normals) {
        check(bits(rng.normal(mean, sd)) == bits(ref.normal(mean, sd)),
              "normal", seed);
      }
      for (const double p : probabilities) {
        check(rng.chance(p) == ref.chance(p), "chance", seed);
      }
      const Vec3 a = rng.unitSphere();
      const Vec3 b = ref.unitSphere();
      check(bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
                bits(a.z) == bits(b.z),
            "unitSphere", seed);
      const Geodetic ga = rng.surfacePoint();
      const Geodetic gb = ref.surfacePoint();
      check(bits(ga.latitudeRad) == bits(gb.latitudeRad) &&
                bits(ga.longitudeRad) == bits(gb.longitudeRad),
            "surfacePoint", seed);
      check(rng.engine()() == ref.engine()(), "engine", seed);
    }
  }
  EXPECT_TRUE(firstMismatch.empty()) << firstMismatch;
  EXPECT_GT(compared, 100'000u);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(99);
  const double rate = 2.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(Rng, UnitSphereIsUnitAndCoversHemispheres) {
  Rng rng(3);
  int north = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Vec3 p = rng.unitSphere();
    EXPECT_NEAR(p.norm(), 1.0, 1e-12);
    if (p.z > 0) ++north;
  }
  EXPECT_NEAR(static_cast<double>(north) / n, 0.5, 0.05);
}

TEST(Rng, SurfacePointIsAreaUniform) {
  // Area-uniform sampling => |lat| < 30 deg holds exactly sin(30) = 50% of
  // points; naive lat/lon-uniform sampling would give 33%.
  Rng rng(17);
  int lowLat = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(rng.surfacePoint().latitudeRad) < deg2rad(30.0)) ++lowLat;
  }
  EXPECT_NEAR(static_cast<double>(lowLat) / n, 0.5, 0.02);
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InvalidArgumentError("x"), Error);
  EXPECT_THROW(throw NotFoundError("x"), Error);
  EXPECT_THROW(throw StateError("x"), Error);
  EXPECT_THROW(throw ProtocolError("x"), Error);
  EXPECT_THROW(throw CapacityError("x"), Error);
}

}  // namespace
}  // namespace openspace
