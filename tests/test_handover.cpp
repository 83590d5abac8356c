// Unit tests for handover: the shipped visibility search (pinned to the
// plain every-step scan) and the per-user spec built on it (openspace_spec):
// successor planning and the predictive vs re-associate timeline
// simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/spec/handover.hpp>

namespace openspace {
namespace {

class HandoverTest : public ::testing::Test {
 protected:
  HandoverTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) eph_.publish(ProviderId{1}, el);
  }
  EphemerisService eph_;
  const double mask_ = deg2rad(10.0);
  const Geodetic user_ = Geodetic::fromDegrees(40.44, -79.99);
};

TEST_F(HandoverTest, ElevationMaskValidation) {
  EXPECT_THROW(VisibilitySearch(-0.1), InvalidArgumentError);
  EXPECT_THROW(VisibilitySearch(1.6), InvalidArgumentError);
  EXPECT_THROW(VisibilitySearch(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgumentError);
  EXPECT_THROW(bestSatelliteAt(eph_, -0.1, user_, 0.0), InvalidArgumentError);
}

TEST_F(HandoverTest, VisibilityEndMatchesContactWindows) {
  // Pick a satellite visible at t=0 and compare against the orbit module's
  // independent contact-window computation.
  const auto serving = bestSatelliteAt(eph_, mask_, user_, 0.0);
  ASSERT_TRUE(serving.has_value());
  const double end = visibilityEndS(eph_, mask_, *serving, user_, 0.0);
  const auto windows = contactWindows(eph_.record(*serving).elements, user_,
                                      0.0, 3600.0, deg2rad(10.0), 5.0);
  ASSERT_FALSE(windows.empty());
  EXPECT_NEAR(end, windows.front().endS, 0.5);
}

TEST_F(HandoverTest, VisibilityEndForInvisibleSatelliteIsNow) {
  // Find a satellite NOT visible at t=0.
  for (const SatelliteId sid : eph_.satellites()) {
    const Vec3 pos = eph_.positionEci(sid, 0.0);
    if (elevationFrom(pos, user_, 0.0) < deg2rad(10.0)) {
      EXPECT_DOUBLE_EQ(visibilityEndS(eph_, mask_, sid, user_, 0.0), 0.0);
      return;
    }
  }
  FAIL() << "every satellite visible (implausible for a 66-sat shell)";
}

TEST_F(HandoverTest, BestSatelliteMaximizesRemainingService) {
  const auto best = bestSatelliteAt(eph_, mask_, user_, 0.0);
  ASSERT_TRUE(best.has_value());
  const double bestUntil = visibilityEndS(eph_, mask_, *best, user_, 0.0);
  for (const SatelliteId sid : eph_.satellites()) {
    if (sid == *best) continue;
    const Vec3 pos = eph_.positionEci(sid, 0.0);
    if (elevationFrom(pos, user_, 0.0) < deg2rad(10.0)) continue;
    EXPECT_LE(visibilityEndS(eph_, mask_, sid, user_, 0.0), bestUntil + 0.5);
  }
}

TEST_F(HandoverTest, BestSatelliteAtMatchesPerCandidateColdScan) {
  // bestSatelliteAt reuses one warm SatelliteSweep across candidates; the
  // reference below constructs a fresh sweep per candidate through the
  // public visibilityEndS. Winners must be identical, not merely close —
  // reset() is pinned bit-for-bit to fresh construction.
  for (const double t : {0.0, 137.0, 605.5, 1'234.25}) {
    SatelliteId exclude{};
    for (int pass = 0; pass < 2; ++pass) {
      std::optional<SatelliteId> expect;
      double bestUntil = -1.0;
      for (const SatelliteId sid : eph_.satellites()) {
        if (sid == exclude) continue;
        if (elevationFrom(eph_.positionEci(sid, t), user_, t) < deg2rad(10.0)) {
          continue;
        }
        const double until = visibilityEndS(eph_, mask_, sid, user_, t);
        if (until > bestUntil) {
          bestUntil = until;
          expect = sid;
        }
      }
      const auto got = bestSatelliteAt(eph_, mask_, user_, t, exclude);
      EXPECT_EQ(got, expect) << "t " << t << " pass " << pass;
      if (!expect) break;
      // Second pass: exclude the winner, as the successor search does.
      exclude = *expect;
    }
  }
}

TEST_F(HandoverTest, ClosestSatelliteIsVisible) {
  const auto closest = closestSatelliteAt(eph_, mask_, user_, 0.0);
  ASSERT_TRUE(closest.has_value());
  const Vec3 pos = eph_.positionEci(*closest, 0.0);
  EXPECT_GE(elevationFrom(pos, user_, 0.0), deg2rad(10.0));
}

TEST_F(HandoverTest, PlanProducesUsableSuccessor) {
  const auto serving = bestSatelliteAt(eph_, mask_, user_, 0.0);
  ASSERT_TRUE(serving.has_value());
  const HandoverPlan next = plan(eph_, mask_, *serving, user_, 0.0);
  ASSERT_TRUE(next.found);
  EXPECT_NE(next.successor, *serving);
  EXPECT_GT(next.serviceEndsAtS, 0.0);
  // The successor is actually visible at the switch instant.
  const Vec3 pos = eph_.positionEci(next.successor, next.serviceEndsAtS - 1e-3);
  EXPECT_GE(elevationFrom(pos, user_, next.serviceEndsAtS - 1e-3),
            deg2rad(10.0));
  // And serves beyond the handover time.
  EXPECT_GT(next.successorUntilS, next.serviceEndsAtS);
}

TEST_F(HandoverTest, TimelineCoversWindowAndHandsOver) {
  const auto tl =
      simulateHandovers(eph_, mask_, user_, 0.0, 3600.0, HandoverMode::Predictive);
  EXPECT_GT(tl.handovers(), 0);
  EXPECT_GT(tl.coveredS, 3000.0);  // mostly covered for a 66-sat shell
  EXPECT_LT(tl.outageS, 600.0);
  // Events are time-ordered and chain correctly.
  for (std::size_t i = 1; i < tl.events.size(); ++i) {
    EXPECT_GT(tl.events[i].atS, tl.events[i - 1].atS);
    EXPECT_EQ(tl.events[i].from, tl.events[i - 1].to);
  }
}

TEST_F(HandoverTest, PredictiveBeatsReassociationOnOutage) {
  const auto pred =
      simulateHandovers(eph_, mask_, user_, 0.0, 3600.0, HandoverMode::Predictive);
  const auto reassoc = simulateHandovers(eph_, mask_, user_, 0.0, 3600.0,
                                         HandoverMode::ReAssociate);
  ASSERT_GT(pred.handovers(), 0);
  ASSERT_GT(reassoc.handovers(), 0);
  EXPECT_LT(pred.outageS, reassoc.outageS);
  // Per-handover latency: predictive is milliseconds, reassociation ~1 s.
  double predMax = 0.0, reassocMin = 1e9;
  for (const auto& e : pred.events) predMax = std::max(predMax, e.latencyS);
  for (const auto& e : reassoc.events) {
    reassocMin = std::min(reassocMin, e.latencyS);
  }
  EXPECT_LT(predMax, 0.1);
  EXPECT_GT(reassocMin, 0.5);
}

TEST_F(HandoverTest, ReassociationCostIsConfigurable) {
  ReAssociationCost cheap;
  cheap.beaconPeriodS = 0.2;
  cheap.authRttS = 0.010;
  const auto tl = simulateHandovers(eph_, mask_, user_, 0.0, 3600.0,
                                    HandoverMode::ReAssociate, cheap);
  for (const auto& e : tl.events) {
    EXPECT_NEAR(e.latencyS, 0.1 + 0.010, 1e-12);
  }
}

TEST_F(HandoverTest, InvalidWindowThrows) {
  EXPECT_THROW(
      simulateHandovers(eph_, mask_, user_, 10.0, 10.0, HandoverMode::Predictive),
      InvalidArgumentError);
  EXPECT_THROW(
      simulateHandovers(eph_, mask_, user_, 10.0, 5.0, HandoverMode::Predictive),
      InvalidArgumentError);
}

TEST(HandoverHorizon, AlwaysVisibleSatelliteReturnsHorizonBound) {
  // A geostationary-altitude satellite parked over the user never crosses
  // the elevation mask: the LOS scan must stop at the horizon bound rather
  // than searching forever for a transition that does not exist.
  EphemerisService eph;
  const SatelliteId sid =
      eph.publish(ProviderId{1},
                  OrbitalElements::circular(km(35'786.0), 0.0, 0.0, 0.0));
  const double mask = deg2rad(10.0);
  const Geodetic user = Geodetic::fromDegrees(0.0, 0.0);
  EXPECT_DOUBLE_EQ(visibilityEndS(eph, mask, sid, user, 0.0), 3'600.0);
  EXPECT_DOUBLE_EQ(visibilityEndS(eph, mask, sid, user, 50.0, 600.0), 650.0);
  // Horizon shorter than the scan grid still clamps exactly to the bound.
  EXPECT_DOUBLE_EQ(visibilityEndS(eph, mask, sid, user, 0.0, 3.5), 3.5);
  // Degenerate zero-length window: visible now, search ends immediately.
  EXPECT_DOUBLE_EQ(visibilityEndS(eph, mask, sid, user, 10.0, 0.0), 10.0);
}

TEST(HandoverHorizon, InvalidHorizonThrows) {
  EphemerisService eph;
  const SatelliteId sid =
      eph.publish(ProviderId{1},
                  OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0));
  const double mask = deg2rad(10.0);
  const Geodetic user = Geodetic::fromDegrees(0.0, 0.0);
  EXPECT_THROW(visibilityEndS(eph, mask, sid, user, 0.0, -1.0),
               InvalidArgumentError);
  EXPECT_THROW(visibilityEndS(eph, mask, sid, user, 0.0,
                              std::numeric_limits<double>::infinity()),
               InvalidArgumentError);
  EXPECT_THROW(visibilityEndS(eph, mask, sid, user, 0.0,
                              std::numeric_limits<double>::quiet_NaN()),
               InvalidArgumentError);
}

/// The executable spec of VisibilitySearch::visibleUntil: the plain search
/// that evaluates the elevation at every 10 s grid step and at every
/// bisection midpoint. The search skips the steps it proves; its result
/// must be this one, bit for bit.
double plainVisibilityEnd(SatelliteSweep& sweep, const Geodetic& user,
                          double maskRad, double fromS, double horizonS) {
  const auto visible = [&](double t) {
    return elevationFrom(sweep.positionEciAt(t), user, t) >= maskRad;
  };
  if (!visible(fromS)) return fromS;
  const double step = 10.0;
  const double horizonEndS = fromS + horizonS;
  double lo = fromS;
  double hi = horizonEndS;
  bool crossed = false;
  for (double t = fromS + step; t < horizonEndS + step; t += step) {
    const double clampedS = std::min(t, horizonEndS);
    if (!visible(clampedS)) {
      lo = std::max(fromS, t - step);
      hi = clampedS;
      crossed = true;
      break;
    }
    if (clampedS >= horizonEndS) break;
  }
  if (!crossed) return horizonEndS;
  for (int i = 0; i < 40 && hi - lo > 1e-3; ++i) {
    const double mid = 0.5 * (lo + hi);
    (visible(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(VisibilitySearch, StepSkippingMatchesPlainScanBitForBit) {
  // Random orbits (circular LEO, eccentric, MEO to GEO), masks from 0 to
  // just under zenith, sites from the poles to mountain tops and up to the
  // orbit itself, horizons from zero to two hours. Most sites sit under the satellite's track so the
  // searches run whole passes; the rest exercise the invisible-at-start
  // and never-crossing paths.
  Rng rng(2024);
  EphemerisService eph;
  eph.publish(ProviderId{1},
              OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0));
  const double masks[] = {0.0, deg2rad(10.0), deg2rad(40.0), deg2rad(75.0),
                          1.5707};
  const double horizons[] = {0.0, 3.5, 600.0, 3'600.0, 7'200.0};
  int searched = 0;
  for (int trial = 0; trial < 3'000; ++trial) {
    OrbitalElements el;
    const double shape = rng.uniform(0.0, 1.0);
    el.semiMajorAxisM =
        wgs84::kMeanRadiusM +
        (shape < 0.7 ? rng.uniform(km(340.0), km(1'500.0))
                     : rng.uniform(km(1'500.0), km(36'000.0)));
    el.eccentricity = shape < 0.4   ? 0.0
                      : shape < 0.8 ? rng.uniform(0.0, 0.02)
                                    : rng.uniform(0.02, 0.7);
    if (el.semiMajorAxisM * (1.0 - el.eccentricity) <
        wgs84::kMeanRadiusM + km(200.0)) {
      el.eccentricity = 0.0;
    }
    el.inclinationRad = rng.uniform(0.0, std::numbers::pi);
    el.raanRad = rng.uniform(0.0, 2.0 * std::numbers::pi);
    el.argPerigeeRad = rng.uniform(0.0, 2.0 * std::numbers::pi);
    el.meanAnomalyAtEpochRad = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double fromS = rng.uniform(0.0, 20'000.0);
    Geodetic site;
    if (rng.uniform(0.0, 1.0) < 0.8) {
      // Near the sub-satellite point at fromS.
      const Geodetic sub =
          ecefToGeodetic(eciToEcef(positionEci(el, fromS), fromS));
      site.latitudeRad = std::clamp(
          sub.latitudeRad + rng.uniform(-0.2, 0.2), -std::numbers::pi / 2.0,
          std::numbers::pi / 2.0);
      site.longitudeRad = sub.longitudeRad + rng.uniform(-0.2, 0.2);
    } else {
      site = Geodetic::fromDegrees(rng.uniform(-90.0, 90.0),
                                   rng.uniform(-180.0, 180.0));
    }
    const double altRoll = rng.uniform(0.0, 1.0);
    if (altRoll < 0.1) {
      // Around the perigee radius: the search gives up its proofs once the
      // observer is not strictly inside the orbit's radius range.
      site.altitudeM = el.semiMajorAxisM * (1.0 - el.eccentricity) -
                       wgs84::kMeanRadiusM + rng.uniform(-km(30.0), km(30.0));
    } else if (altRoll < 0.3) {
      site.altitudeM = rng.uniform(0.0, 8'000.0);
    }
    const double mask = masks[trial % 5];
    const double horizon = horizons[(trial / 5) % 5];
    const VisibilitySearch search(mask);
    SatelliteSweep skipping(el);
    SatelliteSweep plain(el);
    const double got = visibilityEndWith(mask, skipping, site, fromS, horizon);
    const double want = plainVisibilityEnd(plain, site, mask, fromS, horizon);
    ASSERT_EQ(bitsOf(got), bitsOf(want))
        << "trial " << trial << " got " << got << " want " << want;
    if (got > fromS) ++searched;
    // Skipped samples still advanced the warm start: the next query of
    // both sweeps is the same bit for bit.
    const double nextS = fromS + horizon + 1.0;
    ASSERT_EQ(bitsOf(skipping.positionEciAt(nextS).x),
              bitsOf(plain.positionEciAt(nextS).x))
        << "trial " << trial;
    // A candidate loop's bound: ends above beatS come back exact; an end
    // at or below it may come back as any value in [end, beatS].
    const double beatS = want + rng.uniform(-15.0, 15.0);
    SatelliteSweep bounded(el);
    const std::optional<double> until =
        search.visibleUntil(bounded, GroundObserver(site), fromS, horizon,
                            beatS);
    SatelliteSweep probe(el);
    ASSERT_EQ(until.has_value(),
              elevationFrom(probe.positionEciAt(fromS), site, fromS) >= mask)
        << "trial " << trial;
    if (!until) continue;
    // The overload for a caller that took the first sample itself: the
    // same result and the same sweep state afterwards.
    SatelliteSweep kept(el);
    const Vec3 fromEcef = eciToEcef(kept.positionEciAt(fromS), fromS);
    ASSERT_TRUE(search.sees(GroundObserver(site), fromEcef))
        << "trial " << trial;
    ASSERT_EQ(bitsOf(search.visibleUntil(kept, GroundObserver(site), fromS,
                                         fromEcef, horizon, beatS)),
              bitsOf(*until))
        << "trial " << trial;
    ASSERT_EQ(bitsOf(kept.positionEciAt(nextS).x),
              bitsOf(bounded.positionEciAt(nextS).x))
        << "trial " << trial;
    if (want > beatS) {
      ASSERT_EQ(bitsOf(*until), bitsOf(want)) << "trial " << trial;
    } else {
      ASSERT_LE(*until, beatS) << "trial " << trial;
      ASSERT_GE(*until, want) << "trial " << trial;
    }
  }
  // Most trials must run a real search, not return at once.
  EXPECT_GT(searched, 1'000);
}

TEST(VisibilitySearch, NonFiniteStartThrows) {
  // A NaN or infinite start used to come back as nullopt ("not visible").
  const auto el = OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0);
  const VisibilitySearch search(deg2rad(10.0));
  const GroundObserver user(Geodetic::fromDegrees(0.0, 0.0));
  for (const double fromS : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    SatelliteSweep sweep(el);
    EXPECT_THROW(search.visibleUntil(sweep, user, fromS), InvalidArgumentError)
        << fromS;
  }
}

TEST(VisibilitySearch, SineHeadroomNeverExceedsAngleHeadroom) {
  // The atan2/acos form the sine-form proofs replaced: the angle by which
  // the central angle clears an edge, minus the slack. A sine-form proof
  // may be weaker but never stronger (sin h <= h for h >= 0, and no sign
  // flip on the edges' ranges), to rounding.
  const double slack = VisibilitySearch::kSkipSlackRad;
  Rng rng(21);
  const double masks[] = {0.0, 1e-9, deg2rad(10.0), deg2rad(40.0),
                          deg2rad(75.0), 1.5707};
  int visibleProofs = 0;
  int hiddenProofs = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const double mask = masks[trial % 6];
    const VisibilitySearch search(mask);
    const double perigeeM =
        wgs84::kMeanRadiusM + rng.uniform(km(300.0), km(36'000.0));
    const double apogeeM = perigeeM * (1.0 + rng.uniform(0.0, 1.0) *
                                                 (trial % 3 == 0 ? 1.0 : 0.0));
    const double altRoll = rng.uniform(0.0, 1.0);
    const double obsRadiusM =
        altRoll < 0.3 ? perigeeM + rng.uniform(-km(30.0), km(30.0))
                      : wgs84::kMeanRadiusM + rng.uniform(0.0, 8'000.0);
    const Vec3 up = rng.unitSphere();
    const GroundObserver user(up * obsRadiusM);
    // The central angle: uniform, or within 1e-12..1e-3 rad of 0 or pi.
    const double roll = rng.uniform(0.0, 1.0);
    const double tiny = std::pow(10.0, rng.uniform(-12.0, -3.0));
    const double gamma = roll < 0.6   ? rng.uniform(0.0, std::numbers::pi)
                         : roll < 0.8 ? tiny
                                      : std::numbers::pi - tiny;
    const Vec3 side = up.cross(rng.unitSphere()).normalized();
    const Vec3 dir = up * std::cos(gamma) + side * std::sin(gamma);
    const double satRadiusM = rng.uniform(perigeeM, apogeeM);
    const Vec3 sat = dir * satRadiusM;

    const VisibilitySearch::SkipProofs proofs =
        search.skipProofs(user, perigeeM, apogeeM);
    const double visibleSine = proofs.visibleHeadroomRad(sat);
    const double hiddenSine = proofs.hiddenHeadroomRad(sat);
    if (!(user.radiusM() < perigeeM)) {
      EXPECT_LT(visibleSine, 0.0) << trial;
      EXPECT_LT(hiddenSine, 0.0) << trial;
      continue;
    }
    const auto edgeRad = [&](double rSatM) {
      return std::acos(user.radiusM() / rSatM * std::cos(mask)) - mask;
    };
    const double angle =
        std::atan2(user.ecef().cross(sat).norm(), user.ecef().dot(sat));
    const double visibleAngle = edgeRad(perigeeM) - slack - angle;
    const double hiddenAngle = angle - edgeRad(apogeeM) - slack;
    ASSERT_LE(std::max(visibleSine, 0.0), std::max(visibleAngle, 0.0) + 1e-12)
        << "trial " << trial << " gamma " << gamma;
    ASSERT_LE(std::max(hiddenSine, 0.0), std::max(hiddenAngle, 0.0) + 1e-12)
        << "trial " << trial << " gamma " << gamma;
    // Near an edge the sine form is as strong as the angle form.
    if (visibleAngle > 0.0 && visibleAngle < 1e-3) {
      EXPECT_GT(visibleSine, visibleAngle * (1.0 - 1e-6) - 1e-12) << trial;
    }
    if (hiddenAngle > 0.0 && hiddenAngle < 1e-3) {
      EXPECT_GT(hiddenSine, hiddenAngle * (1.0 - 1e-6) - 1e-12) << trial;
    }
    visibleProofs += visibleSine > 0.0 ? 1 : 0;
    hiddenProofs += hiddenSine > 0.0 ? 1 : 0;
  }
  // The geometry must exercise both proofs.
  EXPECT_GT(visibleProofs, 1'000);
  EXPECT_GT(hiddenProofs, 1'000);
}

TEST(HandoverSparse, NoCoverageMeansNoHandovers) {
  // One equatorial satellite, user at the pole: never visible.
  EphemerisService eph;
  eph.publish(ProviderId{1}, OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0));
  const Geodetic pole = Geodetic::fromDegrees(89.0, 0.0);
  const auto tl = simulateHandovers(eph, deg2rad(10.0), pole, 0.0, 3600.0,
                                    HandoverMode::Predictive);
  EXPECT_EQ(tl.handovers(), 0);
  EXPECT_DOUBLE_EQ(tl.coveredS, 0.0);
  EXPECT_NEAR(tl.outageS, 3600.0, 15.0);
}

TEST(HandoverSparse, SingleSatellitePlanHasNoSuccessor) {
  EphemerisService eph;
  const SatelliteId only =
      eph.publish(ProviderId{1}, OrbitalElements::circular(km(780.0), 0.0, 0.0, 0.0));
  const Geodetic equator = Geodetic::fromDegrees(0.0, 0.0);
  const HandoverPlan next = plan(eph, deg2rad(10.0), only, equator, 0.0);
  EXPECT_FALSE(next.found);
  EXPECT_GT(next.serviceEndsAtS, 0.0);  // it does serve for a while
}

TEST(HandoverDensity, DenserFleetsCoverGapsBetter) {
  const Geodetic user = Geodetic::fromDegrees(40.44, -79.99);
  auto outageFor = [&](int sats, int planes) {
    EphemerisService eph;
    WalkerConfig wc = iridiumConfig();
    wc.totalSatellites = sats;
    wc.planes = planes;
    wc.phasing = wc.phasing % planes;
    for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
    return simulateHandovers(eph, deg2rad(10.0), user, 0.0, 7200.0,
                             HandoverMode::Predictive)
        .outageS;
  };
  EXPECT_LE(outageFor(66, 6), outageFor(22, 2) + 1.0);
}

}  // namespace
}  // namespace openspace
