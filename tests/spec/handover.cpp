#include <openspace/spec/handover.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

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

double visibilityEndS(const EphemerisService& ephemeris,
                      double minElevationRad, SatelliteId sat,
                      const Geodetic& user, double fromS, double horizonS) {
  // Warm-started single-satellite sweep: the coarse scan and the bisection
  // evaluate the same orbit dozens of times in sequence. A fresh sweep per
  // call and a reset() one are bit-identical, so this is exactly
  // visibilityEndWith on a reused object.
  SatelliteSweep sweep(ephemeris.record(sat).elements);
  return visibilityEndWith(minElevationRad, sweep, user, fromS, horizonS);
}

double visibilityEndWith(double minElevationRad, SatelliteSweep& sweep,
                         const Geodetic& user, double fromS, double horizonS) {
  return VisibilitySearch(minElevationRad)
      .visibleUntil(sweep, GroundObserver(user), fromS, horizonS)
      .value_or(fromS);
}

std::optional<SatelliteId> bestSatelliteAt(const EphemerisService& ephemeris,
                                           double minElevationRad,
                                           const Geodetic& user,
                                           double tSeconds,
                                           SatelliteId exclude) {
  const VisibilitySearch search(minElevationRad);
  std::optional<SatelliteId> best;
  double bestUntil = -1.0;
  const auto snap = SnapshotCache::global().at(ephemeris, tSeconds);
  const auto& sats = ephemeris.satellites();
  // Index-pruned, ascending candidates; the predicate and the strict
  // `until > bestUntil` first-wins rule are the brute scan's, so skipping
  // the never-visible satellites cannot change the winner. One sweep
  // object serves every candidate's visibility search: reset() re-seeds
  // it bit-identically to the fresh per-call sweep visibilityEndS builds,
  // pinned against the per-candidate path in tests/test_handover.cpp.
  SatelliteSweep sweep;
  const GroundObserver observer(user);
  for (const std::uint32_t i :
       visibleCandidates(snap, observer.ecef(), minElevationRad)) {
    const SatelliteId sid = sats[i];
    if (sid == exclude) continue;
    const Vec3& pos = snap->eci(i);
    if (observer.elevationTo(eciToEcef(pos, tSeconds)) < minElevationRad) {
      continue;
    }
    sweep.reset(ephemeris.record(sid).elements);
    // A candidate that provably ends at or before the best so far loses
    // the strict comparison, so its search may stop at that proof.
    const double until = search.visibleUntil(sweep, observer, tSeconds,
                                             3'600.0, bestUntil)
                             .value_or(tSeconds);
    if (until > bestUntil) {
      bestUntil = until;
      best = sid;
    }
  }
  return best;
}

std::optional<SatelliteId> closestSatelliteAt(
    const EphemerisService& ephemeris, double minElevationRad,
    const Geodetic& user, double tSeconds) {
  const VisibilitySearch search(minElevationRad);  // validates the mask
  const GroundObserver observer(user);
  std::optional<SatelliteId> best;
  double bestRange = std::numeric_limits<double>::infinity();
  const auto snap = SnapshotCache::global().at(ephemeris, tSeconds);
  const auto& sats = ephemeris.satellites();
  for (const std::uint32_t i :
       visibleCandidates(snap, observer.ecef(), minElevationRad)) {
    const Vec3& pos = snap->eci(i);
    if (observer.elevationTo(eciToEcef(pos, tSeconds)) < minElevationRad) {
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

HandoverPlan plan(const EphemerisService& ephemeris, double minElevationRad,
                  SatelliteId current, const Geodetic& user, double nowS,
                  double horizonS) {
  HandoverPlan p;
  p.serviceEndsAtS = visibilityEndS(ephemeris, minElevationRad, current, user,
                                    nowS, horizonS);
  // Pick the successor as the best satellite at the moment service ends
  // (slightly before, so the successor is already up when we switch).
  const double switchAt = std::max(nowS, p.serviceEndsAtS - 1e-3);
  const auto succ =
      bestSatelliteAt(ephemeris, minElevationRad, user, switchAt, current);
  if (!succ) return p;  // found == false: service gap ahead
  p.found = true;
  p.successor = *succ;
  p.successorUntilS = visibilityEndS(ephemeris, minElevationRad, *succ, user,
                                     switchAt, horizonS);
  return p;
}

HandoverTimeline simulateHandovers(const EphemerisService& ephemeris,
                                   double minElevationRad,
                                   const Geodetic& user, double t0S,
                                   double t1S, HandoverMode mode,
                                   const ReAssociationCost& reassocCost) {
  if (t1S <= t0S) throw InvalidArgumentError("simulateHandovers: t1S <= t0S");
  const auto best = [&](double t, SatelliteId exclude = {}) {
    return bestSatelliteAt(ephemeris, minElevationRad, user, t, exclude);
  };

  HandoverTimeline tl;
  double t = t0S;
  std::optional<SatelliteId> serving = best(t);
  while (!serving && t < t1S) {
    // No coverage: scan forward for first acquisition.
    tl.outageS += std::min(10.0, t1S - t);
    t += 10.0;
    if (t < t1S) serving = best(t);
  }

  while (t < t1S && serving) {
    const double until = std::min(
        visibilityEndS(ephemeris, minElevationRad, *serving, user, t), t1S);
    tl.coveredS += until - t;
    if (until >= t1S) break;

    const auto next = best(until - 1e-3, *serving);
    if (!next) {
      // Coverage hole: wait for any satellite.
      double scan = until;
      std::optional<SatelliteId> reacq;
      while (scan < t1S && !(reacq = best(scan))) {
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
      ev.latencyS =
          predictiveLatencyS(ephemeris, user, *serving, *next, until);
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
