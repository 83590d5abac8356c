// Property tests pinning the batch propagation kernel to the scalar spec.
//
// The scalar propagate()/positionEci() in orbit/elements.cpp is the
// executable specification; FleetEphemeris' cold path must reproduce it
// bit for bit at any thread count, and SatelliteSweep's warm-started
// solves must agree with cold starts to within 1e-13 of the orbital radius
// per component.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <vector>

#include <openspace/auth/association.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/io/ephemeris_io.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {
namespace {

/// Restores the ambient worker count when a test overrides it.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallelThreadCount()) {}
  ~ThreadCountGuard() { setParallelThreadCount(saved_); }

 private:
  int saved_;
};

/// Distance between two doubles in units in the last place (steps along
/// the ordered representable doubles); huge for sign disagreements.
std::uint64_t ulpDistance(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return UINT64_MAX;
  auto ordered = [](double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits < 0 ? std::int64_t{INT64_MIN} - bits : bits;
  };
  const std::int64_t oa = ordered(a), ob = ordered(b);
  return oa > ob ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                 : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
}

std::uint64_t maxUlp(const Vec3& a, const Vec3& b) {
  return std::max({ulpDistance(a.x, b.x), ulpDistance(a.y, b.y),
                   ulpDistance(a.z, b.z)});
}

/// Warm- and cold-started Newton solves agree on the eccentric anomaly to
/// ~1 ULP; one ULP of anomaly moves a position component by up to
/// a * 2^-52, which can be many ULPs of a near-zero component. The right
/// yardstick for warm==cold is therefore relative to the orbit scale, not
/// per-component ULPs: |delta| <= 1e-13 * |r| on every axis (sub-micrometer
/// for LEO, far below any physical meaning in the simulator).
void expectWarmMatchesCold(const Vec3& warm, const Vec3& cold,
                           const char* label, double tSeconds) {
  const double tol = 1e-13 * std::max(1.0, cold.norm());
  EXPECT_NEAR(warm.x, cold.x, tol) << label << " t " << tSeconds;
  EXPECT_NEAR(warm.y, cold.y, tol) << label << " t " << tSeconds;
  EXPECT_NEAR(warm.z, cold.z, tol) << label << " t " << tSeconds;
}

/// Randomized general elements covering the regimes the kernel must pin:
/// near-circular LEO, high-eccentricity, retrograde inclination, and
/// equatorial / polar edge cases appear with fixed probability.
OrbitalElements randomElements(Rng& rng) {
  OrbitalElements el;
  el.semiMajorAxisM = wgs84::kMeanRadiusM + rng.uniform(km(300.0), km(36'000.0));
  const double roll = rng.uniform(0.0, 1.0);
  if (roll < 0.25) {
    el.eccentricity = 0.0;  // exactly circular (the solver's shortcut path)
  } else if (roll < 0.5) {
    el.eccentricity = rng.uniform(0.0, 0.02);  // near-circular LEO
  } else if (roll < 0.75) {
    el.eccentricity = rng.uniform(0.6, 0.95);  // high-e (past the 0.8 guess)
  } else {
    el.eccentricity = rng.uniform(0.0, 0.6);
  }
  const double inclRoll = rng.uniform(0.0, 1.0);
  if (inclRoll < 0.2) {
    el.inclinationRad = 0.0;  // equatorial
  } else if (inclRoll < 0.4) {
    el.inclinationRad = rng.uniform(deg2rad(95.0), deg2rad(180.0));  // retrograde
  } else {
    el.inclinationRad = rng.uniform(0.0, deg2rad(95.0));
  }
  el.raanRad = rng.uniform(0.0, 2.0 * std::numbers::pi);
  el.argPerigeeRad = rng.uniform(0.0, 2.0 * std::numbers::pi);
  el.meanAnomalyAtEpochRad = rng.uniform(-2.0, 8.0);
  return el;
}

std::vector<OrbitalElements> randomFleet(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<OrbitalElements> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) fleet.push_back(randomElements(rng));
  return fleet;
}

// --- cold path == scalar spec, bit for bit --------------------------------

TEST(FleetEphemeris, MatchesScalarBitForBitAcrossRandomElements) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    const auto fleet = randomFleet(64, seed);
    const FleetEphemeris batch(fleet);
    std::vector<Vec3> eci, ecef;
    for (const double t : {0.0, 1.5, 600.0, 5'400.0, -250.0, 86'400.0}) {
      batch.positionsAt(t, eci, ecef);
      ASSERT_EQ(eci.size(), fleet.size());
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const Vec3 want = positionEci(fleet[i], t);
        EXPECT_DOUBLE_EQ(eci[i].x, want.x) << "seed " << seed << " sat " << i;
        EXPECT_DOUBLE_EQ(eci[i].y, want.y) << "seed " << seed << " sat " << i;
        EXPECT_DOUBLE_EQ(eci[i].z, want.z) << "seed " << seed << " sat " << i;
        const Vec3 wantEcef = eciToEcef(want, t);
        EXPECT_DOUBLE_EQ(ecef[i].x, wantEcef.x);
        EXPECT_DOUBLE_EQ(ecef[i].y, wantEcef.y);
        EXPECT_DOUBLE_EQ(ecef[i].z, wantEcef.z);
      }
    }
  }
}

TEST(FleetEphemeris, RejectsInvalidEccentricity) {
  OrbitalElements bad = OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
  bad.eccentricity = 1.0;
  EXPECT_THROW(FleetEphemeris({bad}), InvalidArgumentError);
  bad.eccentricity = -0.1;
  EXPECT_THROW(FleetEphemeris({bad}), InvalidArgumentError);
  EXPECT_THROW(SatelliteSweep{bad}, InvalidArgumentError);
}

TEST(FleetEphemeris, RejectsNanEccentricity) {
  OrbitalElements bad = OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
  bad.eccentricity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FleetEphemeris({bad}), InvalidArgumentError);
}

TEST(SatelliteSweep, ResetRejectsNanEccentricity) {
  OrbitalElements bad = OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
  bad.eccentricity = std::numeric_limits<double>::quiet_NaN();
  SatelliteSweep sweep;
  EXPECT_THROW(sweep.reset(bad), InvalidArgumentError);
}

// --- Hostile elements are refused where they enter -------------------------

/// Every door an element set comes through refuses `bad`: the shared check
/// itself, FleetEphemeris (and with it ConstellationSnapshot), the
/// SatelliteSweep constructor and reset(), the ephemeris parser, and both
/// association entry points, which take elements from beacons.
void expectRefusedAtEveryDoor(const OrbitalElements& bad) {
  const OrbitalElements good =
      OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
  EXPECT_THROW(requireValidElements(bad), InvalidArgumentError);
  EXPECT_THROW(FleetEphemeris({good, bad}), InvalidArgumentError);
  EXPECT_THROW(ConstellationSnapshot({good, bad}, 0.0), InvalidArgumentError);
  EXPECT_THROW(SatelliteSweep{bad}, InvalidArgumentError);
  SatelliteSweep sweep(good);
  EXPECT_THROW(sweep.reset(bad), InvalidArgumentError);
  // The parser sees the element set as a publisher would write it.
  EphemerisService eph;
  eph.publish(ProviderId{1}, bad);
  std::ostringstream os;
  saveEphemeris(eph, os);
  std::istringstream is(os.str());
  EXPECT_THROW(loadEphemeris(is), ProtocolError) << os.str();
  std::vector<BeaconMessage> beacons(2);
  beacons[0].elements = good;
  beacons[1].elements = bad;
  const AssociationAgent agent(1, ProviderId{1}, 7, Geodetic{});
  EXPECT_THROW((void)agent.selectSatellite(beacons, 0.0, 0.1),
               InvalidArgumentError);
  EXPECT_THROW((void)associateUsers(beacons, 0.0, {Geodetic{}}, 0.1),
               InvalidArgumentError);
}

/// `field` of an otherwise valid element set set to each of `values`.
void expectFieldRefused(double OrbitalElements::*field,
                        std::initializer_list<double> values) {
  for (const double v : values) {
    SCOPED_TRACE(::testing::Message() << "value " << v);
    OrbitalElements bad = OrbitalElements::circular(km(780.0), 1.0, 0.0, 0.0);
    bad.*field = v;
    expectRefusedAtEveryDoor(bad);
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(HostileElements, SemiMajorAxis) {
  // 1e-100 is positive, but its cube underflows and the mean motion
  // sqrt(mu / a^3) is infinite.
  expectFieldRefused(&OrbitalElements::semiMajorAxisM,
                     {kNan, kInf, -kInf, 0.0, -0.0, -7.0e6, 1e-100,
                      std::numeric_limits<double>::denorm_min()});
}

TEST(HostileElements, Eccentricity) {
  expectFieldRefused(&OrbitalElements::eccentricity,
                     {kNan, kInf, -kInf, -0.1, 1.0, 1.5});
}

TEST(HostileElements, Inclination) {
  expectFieldRefused(&OrbitalElements::inclinationRad, {kNan, kInf, -kInf});
}

TEST(HostileElements, Raan) {
  expectFieldRefused(&OrbitalElements::raanRad, {kNan, kInf, -kInf});
}

TEST(HostileElements, ArgumentOfPerigee) {
  expectFieldRefused(&OrbitalElements::argPerigeeRad, {kNan, kInf, -kInf});
}

TEST(HostileElements, MeanAnomalyAtEpoch) {
  expectFieldRefused(&OrbitalElements::meanAnomalyAtEpochRad,
                     {kNan, kInf, -kInf});
}

TEST(HostileElements, ExtremeButValidElementsPass) {
  // The check refuses only what cannot be propagated: tiny and huge axes,
  // e just below 1 and huge angles all pass.
  for (const OrbitalElements& el :
       {OrbitalElements{1e-90, 0.0, 0.0, 0.0, 0.0, 0.0},
        OrbitalElements{1e300, 0.999999, 1e6, -1e6, 1e9, -1e9},
        OrbitalElements{7.0e6, 0.0, 0.0, 0.0, 0.0, 0.0}}) {
    EXPECT_NO_THROW(requireValidElements(el));
    EXPECT_NO_THROW(SatelliteSweep{el});
  }
}

TEST(FleetEphemeris, EmptyFleetIsFine) {
  const FleetEphemeris batch(std::vector<OrbitalElements>{});
  EXPECT_TRUE(batch.empty());
  std::vector<Vec3> eci{Vec3{1, 2, 3}}, ecef{Vec3{4, 5, 6}};
  batch.positionsAt(0.0, eci, ecef);
  EXPECT_TRUE(eci.empty());
  EXPECT_TRUE(ecef.empty());
}

TEST(FleetEphemeris, CompiledCacheReturnsSharedInstance) {
  const auto fleet = randomFleet(24, 404);
  const std::uint64_t hash = constellationHash(fleet);
  const auto a = FleetEphemeris::compiled(fleet, hash);
  const auto b = FleetEphemeris::compiled(fleet, hash);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), fleet.size());
}

TEST(FleetEphemeris, CompiledCacheByteBudgetEvictsLru) {
  const auto fleetA = randomFleet(24, 501);
  const auto fleetB = randomFleet(24, 502);
  const std::uint64_t hashA = constellationHash(fleetA);
  const std::uint64_t hashB = constellationHash(fleetB);
  // Budget for exactly one 24-satellite fleet: compiling a second
  // equal-size fleet must evict the first in plain LRU order.
  const std::size_t one = FleetEphemeris(fleetA).approxBytes();
  const std::size_t previous = FleetEphemeris::setCompiledCacheByteBudget(one);
  const auto a = FleetEphemeris::compiled(fleetA, hashA);
  EXPECT_EQ(FleetEphemeris::compiled(fleetA, hashA).get(), a.get());
  EXPECT_EQ(FleetEphemeris::compiledCacheApproxBytes(), one);
  const auto b = FleetEphemeris::compiled(fleetB, hashB);  // evicts A
  EXPECT_EQ(FleetEphemeris::compiledCacheApproxBytes(), one);
  EXPECT_EQ(FleetEphemeris::compiled(fleetB, hashB).get(), b.get());
  // A was evicted, so asking for it again rebuilds (and evicts B in turn).
  EXPECT_NE(FleetEphemeris::compiled(fleetA, hashA).get(), a.get());
  EXPECT_NE(FleetEphemeris::compiled(fleetB, hashB).get(), b.get());
  FleetEphemeris::setCompiledCacheByteBudget(previous);
}

// --- warm start == cold start ---------------------------------------------

TEST(SatelliteSweep, AgreesWithScalarAcrossScanAndBisectionPattern) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const OrbitalElements el = randomElements(rng);
    SatelliteSweep sweep(el);
    // The handover search pattern: forward scan, then non-monotone
    // bisection probes inside one step; then a long forward jump and a
    // backwards jump, which exercise the warm solver's cold fallback.
    const double probes[] = {0.0,   10.0, 20.0, 30.0,   25.0,    22.5,
                             23.75, 24.0, 23.9, 4000.0, -1000.0, -970.0};
    for (const double t : probes) {
      const Vec3 got = sweep.positionEciAt(t);
      const Vec3 want = positionEci(el, t);
      expectWarmMatchesCold(got, want, "satellite sweep", t);
    }
  }
}

TEST(SatelliteSweep, ResetMatchesFreshConstructionBitForBit) {
  // The candidate loops (the spec bestSatelliteAt, the session
  // sweep) reuse one SatelliteSweep across satellites via reset(); that is
  // only sound if a reset() sweep is indistinguishable from a freshly
  // constructed one on every subsequent query, bit for bit.
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const OrbitalElements a = randomElements(rng);
    const OrbitalElements b = randomElements(rng);
    SatelliteSweep reused(a);
    // Warm the reused sweep well into a's orbit before switching.
    for (double t = 0.0; t < 600.0; t += 10.0) (void)reused.positionEciAt(t);
    reused.reset(b);
    SatelliteSweep fresh(b);
    // The handover search pattern: forward grid scan, then bisection.
    std::vector<double> probes;
    for (double t = 0.0; t <= 900.0; t += 10.0) probes.push_back(t);
    double lo = 500.0, hi = 900.0;
    for (int i = 0; i < 40; ++i) {
      const double mid = 0.5 * (lo + hi);
      probes.push_back(mid);
      (i % 2 == 0 ? lo : hi) = mid;
    }
    for (const double t : probes) {
      const Vec3 got = reused.positionEciAt(t);
      const Vec3 want = fresh.positionEciAt(t);
      EXPECT_EQ(maxUlp(got, want), 0u) << "trial " << trial << " t " << t;
    }
  }
}

TEST(SatelliteSweep, ColdFirstPositionMatchesBatchBitForBit) {
  // A fresh or just-reset sweep's first position takes the cold Kepler
  // solve, so it is the scalar spec and the batch path bit for bit: the
  // three share one perifocal frame and one position tail.
  std::vector<OrbitalElements> fleet = randomFleet(48, 29);
  OrbitalElements circular = fleet.front();
  circular.eccentricity = 0.0;
  fleet.push_back(circular);
  const FleetEphemeris batch(fleet);
  std::vector<Vec3> eci, ecef;
  for (const double t : {0.0, 37.5, -1'234.5, 3.0e7, -8.6e6}) {
    batch.positionsAt(t, eci, ecef);
    SatelliteSweep reused;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const Vec3 want = positionEci(fleet[i], t);
      EXPECT_EQ(maxUlp(eci[i], want), 0u) << "sat " << i << " t " << t;
      SatelliteSweep fresh(fleet[i]);
      EXPECT_EQ(maxUlp(fresh.positionEciAt(t), want), 0u)
          << "fresh sat " << i << " t " << t;
      // `reused` carries the previous satellite's warm start into reset().
      reused.reset(fleet[i]);
      EXPECT_EQ(maxUlp(reused.positionEciAt(t), want), 0u)
          << "reset sat " << i << " t " << t;
    }
  }
}

TEST(SatelliteSweep, DefaultConstructedThenResetMatchesFresh) {
  Rng rng(101);
  const OrbitalElements el = randomElements(rng);
  SatelliteSweep sweep;
  sweep.reset(el);
  SatelliteSweep fresh(el);
  for (const double t : {0.0, 10.0, 25.0, 24.5, 3'000.0}) {
    EXPECT_EQ(maxUlp(sweep.positionEciAt(t), fresh.positionEciAt(t)), 0u) << t;
  }
}

TEST(SatelliteSweep, SkipToLeavesLaterPositionsBitIdentical) {
  // The visibility search skips the evaluation of samples it has proven
  // visible or hidden; the samples it does evaluate must be exactly those
  // of a sweep that evaluated every sample, eccentric orbits included
  // (where the warm Newton start carries the skipped samples' state).
  Rng rng(103);
  for (int trial = 0; trial < 16; ++trial) {
    const OrbitalElements el = randomElements(rng);
    SatelliteSweep every(el);
    SatelliteSweep skipping(el);
    std::vector<double> probes;
    for (double t = 0.0; t <= 900.0; t += 10.0) probes.push_back(t);
    double lo = 500.0, hi = 510.0;
    for (int i = 0; i < 14; ++i) {
      const double mid = 0.5 * (lo + hi);
      probes.push_back(mid);
      (i % 3 == 0 ? hi : lo) = mid;
    }
    for (std::size_t k = 0; k < probes.size(); ++k) {
      const Vec3 want = every.positionEciAt(probes[k]);
      if ((k + static_cast<std::size_t>(trial)) % 3 != 0) {
        skipping.skipTo(probes[k]);
        continue;
      }
      EXPECT_EQ(maxUlp(skipping.positionEciAt(probes[k]), want), 0u)
          << "trial " << trial << " probe " << k;
    }
  }
}

TEST(SatelliteSweep, RadiusAndAngularRateBoundTheOrbit) {
  // perigeeRadiusM/apogeeRadiusM bracket |r| and maxAngularRateRadPerS
  // bounds the inertial turn rate of r at every time — the bounds the
  // visibility search's step-skipping proof rests on.
  Rng rng(107);
  for (int trial = 0; trial < 12; ++trial) {
    const OrbitalElements el = randomElements(rng);
    const SatelliteSweep sweep(el);
    const double periodS = el.periodS();
    const double dtS = periodS / 20'000.0;
    double peakRate = 0.0;
    for (double t = 0.0; t < periodS; t += periodS / 2'000.0) {
      const Vec3 r0 = positionEci(el, t);
      const Vec3 r1 = positionEci(el, t + dtS);
      const double r = r0.norm();
      EXPECT_GE(r, sweep.perigeeRadiusM() * (1.0 - 1e-12)) << trial;
      EXPECT_LE(r, sweep.apogeeRadiusM() * (1.0 + 1e-12)) << trial;
      peakRate = std::max(peakRate, angleBetween(r0, r1) / dtS);
    }
    EXPECT_DOUBLE_EQ(sweep.maxAngularRateRadPerS(), el.maxAngularRateRadPerS());
    EXPECT_LE(peakRate, sweep.maxAngularRateRadPerS() * (1.0 + 1e-6)) << trial;
    // The bound is the perigee rate itself (mean anomaly 0), so it is tight.
    const double perigeeS = -el.meanAnomalyAtEpochRad / el.meanMotionRadPerS();
    const double perigeeRate =
        angleBetween(positionEci(el, perigeeS - 0.5 * dtS),
                     positionEci(el, perigeeS + 0.5 * dtS)) /
        dtS;
    EXPECT_NEAR(perigeeRate, sweep.maxAngularRateRadPerS(),
                1e-3 * sweep.maxAngularRateRadPerS())
        << trial;
  }
}

TEST(SatelliteSweep, ResetValidatesLikeTheConstructor) {
  OrbitalElements bad =
      OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.0, 0.0);
  bad.eccentricity = 1.0;
  SatelliteSweep sweep;
  EXPECT_THROW(sweep.reset(bad), InvalidArgumentError);
  EXPECT_THROW(SatelliteSweep{bad}, InvalidArgumentError);
}

// --- determinism: serial == parallel, bit for bit -------------------------

TEST(FleetEphemeris, ColdBatchIsBitIdenticalAtAnyThreadCount) {
  ThreadCountGuard guard;
  const auto fleet = randomFleet(150, 66);
  const FleetEphemeris batch(fleet);
  std::vector<Vec3> serialEci, serialEcef, parEci, parEcef;
  setParallelThreadCount(1);
  batch.positionsAt(300.0, serialEci, serialEcef);
  for (const int threads : {3, 8}) {
    setParallelThreadCount(threads);
    batch.positionsAt(300.0, parEci, parEcef);
    for (std::size_t i = 0; i < serialEci.size(); ++i) {
      EXPECT_DOUBLE_EQ(serialEci[i].x, parEci[i].x);
      EXPECT_DOUBLE_EQ(serialEci[i].y, parEci[i].y);
      EXPECT_DOUBLE_EQ(serialEci[i].z, parEci[i].z);
      EXPECT_DOUBLE_EQ(serialEcef[i].x, parEcef[i].x);
      EXPECT_DOUBLE_EQ(serialEcef[i].y, parEcef[i].y);
      EXPECT_DOUBLE_EQ(serialEcef[i].z, parEcef[i].z);
    }
  }
}

// --- integration: the snapshot engine rides the kernel --------------------

TEST(FleetEphemeris, SnapshotEngineStaysPinnedToScalarSpec) {
  const auto fleet = makeWalkerStar(iridiumConfig());
  const ConstellationSnapshot snap(fleet, 432.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Vec3 want = positionEci(fleet[i], 432.0);
    EXPECT_DOUBLE_EQ(snap.eci(i).x, want.x);
    EXPECT_DOUBLE_EQ(snap.eci(i).y, want.y);
    EXPECT_DOUBLE_EQ(snap.eci(i).z, want.z);
  }
}

TEST(SatelliteSweep, GroundTrackMatchesScalarRecomputation) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.4, 1.1);
  const auto track = groundTrack(el, 0.0, 1'200.0, 30.0);
  ASSERT_EQ(track.size(), 41u);
  for (const auto& p : track) {
    const Geodetic want = ecefToGeodetic(eciToEcef(positionEci(el, p.tSeconds),
                                                   p.tSeconds));
    EXPECT_NEAR(p.latitudeRad, want.latitudeRad, 1e-9);
    EXPECT_NEAR(p.longitudeRad, want.longitudeRad, 1e-9);
    EXPECT_NEAR(p.altitudeM, want.altitudeM, 1e-3);
  }
}

}  // namespace
}  // namespace openspace
