#include <openspace/handover/handover.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

/// Central-angle slack the visibility search's step-skipping proof keeps
/// below the exact visibility edge. The compared angles carry a few ULP of
/// rounding and the elevation predicate at most ~1e-8 rad (acos near 1);
/// at LEO angular rates the slack costs ~1 ms of skip range per proof.
constexpr double kSkipSlackRad = 1e-6;

/// Ascending candidate indices that may be visible from `user` — the
/// footprint index prunes the fleet, the callers then apply the exact
/// elevation predicate the brute scans used. Sorting restores the
/// brute loops' ascending visit order, which their first-wins tie
/// breaking depends on.
std::vector<std::uint32_t> visibleCandidates(
    const std::shared_ptr<const ConstellationSnapshot>& snap,
    const Vec3& userEcef, double minElevationRad) {
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  std::vector<std::uint32_t> candidates;
  footprints->forEachGroundCandidate(
      userEcef, [&](std::uint32_t i) { candidates.push_back(i); });
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace

HandoverPlanner::HandoverPlanner(const EphemerisService& ephemeris,
                                 double minElevationRad)
    : ephemeris_(ephemeris),
      minElevationRad_(minElevationRad),
      cosMask_(std::cos(minElevationRad)) {
  if (minElevationRad < 0.0 || minElevationRad >= std::numbers::pi / 2.0) {
    throw InvalidArgumentError("HandoverPlanner: elevation mask out of range");
  }
}

double HandoverPlanner::visibilityEndS(SatelliteId sat, const Geodetic& user,
                                       double fromS, double horizonS) const {
  // Warm-started single-satellite sweep: the coarse scan and the bisection
  // evaluate the same orbit dozens of times in sequence. A fresh sweep per
  // call and a reset() one are bit-identical, so this is exactly
  // visibilityEndWith on a reused object.
  SatelliteSweep sweep(ephemeris_.record(sat).elements);
  return visibilityEndWith(sweep, user, fromS, horizonS);
}

double HandoverPlanner::visibilityEndWith(SatelliteSweep& sweep,
                                          const Geodetic& user, double fromS,
                                          double horizonS) const {
  return visibleUntil(sweep, GroundObserver(user), fromS, horizonS)
      .value_or(fromS);
}

std::optional<double> HandoverPlanner::visibleUntil(SatelliteSweep& sweep,
                                                    const GroundObserver& user,
                                                    double fromS,
                                                    double horizonS,
                                                    double beatS) const {
  // The horizon is an explicit, finite search bound: a satellite that never
  // drops below the mask (e.g. a mask of 0 over a pole-adjacent user, or a
  // horizon shorter than the pass) yields fromS + horizonS rather than an
  // unbounded scan.
  if (!(horizonS >= 0.0) || std::isinf(horizonS)) {
    throw InvalidArgumentError(
        "visibilityEndS: horizon must be finite and >= 0");
  }
  const auto ecefAt = [&](double t) {
    return eciToEcef(sweep.positionEciAt(t), t);
  };
  const auto visible = [&](const Vec3& satEcef) {
    return user.elevationTo(satEcef) >= minElevationRad_;
  };
  const Vec3 fromEcef = ecefAt(fromS);
  if (!visible(fromEcef)) return std::nullopt;
  // Step-skipping bounds. With a geocentric vertical, elevation falls
  // strictly as the Earth-central angle between observer and satellite
  // grows, and the angle at which it meets the mask,
  //   edge(r) = acos(r_observer / r * cos(mask)) - mask,
  // grows with the satellite's radius r. So wherever the orbit is, an angle
  // below edge(r_perigee) means visible and one above edge(r_apogee) means
  // hidden. The angle moves no faster than the orbit's peak angular rate
  // plus the Earth's rotation, so an evaluation whose angle clears a bound
  // by h proves the same verdict for h / rate seconds around it. The slack
  // on both bounds dwarfs the rounding of every compared quantity and of
  // the elevation predicate. An observer outside the orbit's radius range
  // gets no proofs.
  double visibleBelowRad = -1.0;
  double hiddenAboveRad = std::numeric_limits<double>::infinity();
  const double rObsM = user.radiusM();
  if (rObsM > 0.0 && rObsM < sweep.perigeeRadiusM()) {
    const auto edgeRad = [&](double rSatM) {
      return std::acos(rObsM / rSatM * cosMask_) - minElevationRad_;
    };
    visibleBelowRad = edgeRad(sweep.perigeeRadiusM()) - kSkipSlackRad;
    hiddenAboveRad = edgeRad(sweep.apogeeRadiusM()) + kSkipSlackRad;
  }
  const double rateRadPerS =
      sweep.maxAngularRateRadPerS() + wgs84::kEarthRotationRadPerS;
  // A visible evaluation at t proves visibility through the returned time;
  // a hidden one proves the satellite hidden from the returned time to t.
  const auto provenVisibleUntil = [&](double t, const Vec3& satEcef) {
    const double headroomRad = visibleBelowRad - user.centralAngleTo(satEcef);
    return headroomRad > 0.0 ? t + headroomRad / rateRadPerS : t;
  };
  const auto provenHiddenFrom = [&](double t, const Vec3& satEcef) {
    const double headroomRad = user.centralAngleTo(satEcef) - hiddenAboveRad;
    return headroomRad > 0.0 ? t - headroomRad / rateRadPerS : t;
  };

  double visibleUntilS = provenVisibleUntil(fromS, fromEcef);
  double hiddenFromS = std::numeric_limits<double>::infinity();
  // Coarse forward scan (10 s grid, clamped to the horizon) then bisect
  // the set edge to ~1 ms. A proven sample only advances the warm start,
  // so every evaluated sample is the plain scan's bit for bit, and so is
  // every decision.
  const double step = 10.0;
  const double horizonEndS = fromS + horizonS;
  double lo = fromS;
  double hi = horizonEndS;
  bool crossed = false;
  for (double t = fromS + step; t < horizonEndS + step; t += step) {
    const double clampedS = std::min(t, horizonEndS);
    if (clampedS <= visibleUntilS) {
      sweep.skipTo(clampedS);
    } else {
      const Vec3 satEcef = ecefAt(clampedS);
      if (!visible(satEcef)) {
        lo = std::max(fromS, t - step);
        hi = clampedS;
        hiddenFromS = provenHiddenFrom(clampedS, satEcef);
        crossed = true;
        break;
      }
      visibleUntilS = provenVisibleUntil(clampedS, satEcef);
    }
    if (clampedS >= horizonEndS) break;
  }
  // Still visible at every grid point up to the horizon: no LOS transition
  // inside the search window.
  if (!crossed) return horizonEndS;
  for (int i = 0; i < 40 && hi - lo > 1e-3; ++i) {
    // The end lies inside (lo, hi): at or below beatS it cannot win.
    if (hi <= beatS) return hi;
    const double mid = 0.5 * (lo + hi);
    if (mid <= visibleUntilS) {
      sweep.skipTo(mid);
      lo = mid;
    } else if (mid >= hiddenFromS) {
      sweep.skipTo(mid);
      hi = mid;
    } else {
      const Vec3 satEcef = ecefAt(mid);
      if (visible(satEcef)) {
        lo = mid;
        visibleUntilS = provenVisibleUntil(mid, satEcef);
      } else {
        hi = mid;
        hiddenFromS = provenHiddenFrom(mid, satEcef);
      }
    }
  }
  return 0.5 * (lo + hi);
}

std::optional<SatelliteId> HandoverPlanner::bestSatelliteAt(
    const Geodetic& user, double tSeconds, SatelliteId exclude) const {
  std::optional<SatelliteId> best;
  double bestUntil = -1.0;
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  const auto& sats = ephemeris_.satellites();
  // Index-pruned, ascending candidates; the predicate and the strict
  // `until > bestUntil` first-wins rule are the brute scan's, so skipping
  // the never-visible satellites cannot change the winner. One sweep
  // object serves every candidate's visibility search: reset() re-seeds
  // it bit-identically to the fresh per-call sweep visibilityEndS builds,
  // pinned against the per-candidate path in tests/test_handover.cpp.
  SatelliteSweep sweep;
  const GroundObserver observer(user);
  for (const std::uint32_t i :
       visibleCandidates(snap, observer.ecef(), minElevationRad_)) {
    const SatelliteId sid = sats[i];
    if (sid == exclude) continue;
    const Vec3& pos = snap->eci(i);
    if (observer.elevationTo(eciToEcef(pos, tSeconds)) < minElevationRad_) {
      continue;
    }
    sweep.reset(ephemeris_.record(sid).elements);
    // A candidate that provably ends at or before the best so far loses
    // the strict comparison, so its search may stop at that proof.
    const double until = visibleUntil(sweep, observer, tSeconds, 3'600.0,
                                      bestUntil)
                             .value_or(tSeconds);
    if (until > bestUntil) {
      bestUntil = until;
      best = sid;
    }
  }
  return best;
}

std::optional<SatelliteId> HandoverPlanner::closestSatelliteAt(
    const Geodetic& user, double tSeconds) const {
  const GroundObserver observer(user);
  std::optional<SatelliteId> best;
  double bestRange = std::numeric_limits<double>::infinity();
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  const auto& sats = ephemeris_.satellites();
  for (const std::uint32_t i :
       visibleCandidates(snap, observer.ecef(), minElevationRad_)) {
    const Vec3& pos = snap->eci(i);
    if (observer.elevationTo(eciToEcef(pos, tSeconds)) < minElevationRad_) {
      continue;
    }
    const double range = observer.ecef().distanceTo(snap->ecef(i));
    if (range < bestRange) {
      bestRange = range;
      best = sats[i];
    }
  }
  return best;
}

HandoverPlan HandoverPlanner::plan(SatelliteId current, const Geodetic& user,
                                   double nowS, double horizonS) const {
  HandoverPlan p;
  p.serviceEndsAtS = visibilityEndS(current, user, nowS, horizonS);
  // Pick the successor as the best satellite at the moment service ends
  // (slightly before, so the successor is already up when we switch).
  const double switchAt = std::max(nowS, p.serviceEndsAtS - 1e-3);
  const auto succ = bestSatelliteAt(user, switchAt, current);
  if (!succ) return p;  // found == false: service gap ahead
  p.found = true;
  p.successor = *succ;
  p.successorUntilS = visibilityEndS(*succ, user, switchAt, horizonS);
  return p;
}

namespace {

/// Signaling latency of a predictive handover: the serving satellite tells
/// the user its successor (one downlink), the user opens a session with the
/// successor (one round trip). No authentication.
double predictiveLatencyS(const EphemerisService& eph, const Geodetic& user,
                          SatelliteId from, SatelliteId to, double tSeconds) {
  const Vec3 u = geodeticToEcef(user);
  const double downS =
      u.distanceTo(eciToEcef(eph.positionEci(from, tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  const double upS =
      u.distanceTo(eciToEcef(eph.positionEci(to, tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  return downS + 2.0 * upS;
}

}  // namespace

HandoverTimeline simulateHandovers(const HandoverPlanner& planner,
                                   const Geodetic& user, double t0S, double t1S,
                                   HandoverMode mode,
                                   const ReAssociationCost& reassocCost) {
  if (t1S <= t0S) throw InvalidArgumentError("simulateHandovers: t1S <= t0S");

  HandoverTimeline tl;
  double t = t0S;
  std::optional<SatelliteId> serving = planner.bestSatelliteAt(user, t);
  while (!serving && t < t1S) {
    // No coverage: scan forward for first acquisition.
    tl.outageS += std::min(10.0, t1S - t);
    t += 10.0;
    if (t < t1S) serving = planner.bestSatelliteAt(user, t);
  }

  while (t < t1S && serving) {
    const double until =
        std::min(planner.visibilityEndS(*serving, user, t), t1S);
    tl.coveredS += until - t;
    if (until >= t1S) break;

    const auto next = planner.bestSatelliteAt(user, until - 1e-3, *serving);
    if (!next) {
      // Coverage hole: wait for any satellite.
      double scan = until;
      std::optional<SatelliteId> reacq;
      while (scan < t1S && !(reacq = planner.bestSatelliteAt(user, scan))) {
        scan += 10.0;
      }
      tl.outageS += std::min(scan, t1S) - until;
      serving = reacq;
      t = scan;
      continue;
    }

    HandoverEvent ev;
    ev.atS = until;
    ev.from = *serving;
    ev.to = *next;
    if (mode == HandoverMode::Predictive) {
      // Make-before-break using the published successor; the only service
      // interruption is the session-switch signaling.
      ev.latencyS = predictiveLatencyS(planner.ephemeris(), user, *serving,
                                       *next, until);
      tl.outageS += ev.latencyS;
    } else {
      ev.latencyS = reassocCost.beaconPeriodS / 2.0 + reassocCost.authRttS;
      tl.outageS += ev.latencyS;
    }
    tl.events.push_back(ev);
    serving = *next;
    t = until + ev.latencyS;
  }

  if (tl.events.size() >= 2) {
    tl.meanIntervalS = (tl.events.back().atS - tl.events.front().atS) /
                       static_cast<double>(tl.events.size() - 1);
  } else if (tl.events.size() == 1) {
    tl.meanIntervalS = t1S - t0S;
  }
  return tl;
}

}  // namespace openspace
