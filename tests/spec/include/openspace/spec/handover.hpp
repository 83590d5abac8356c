// Per-user predictive handover (test-only; openspace_spec).
//
// The executable spec of HandoverSweep (session/handover_sweep.hpp): one
// fixed user, one decision at a time, every decision re-derived from
// scratch — a snapshot and footprint compile per decision time and a cold
// visibility search per candidate. With SeedMode::Planner and
// non-expiring certificates the sweep's event stream and outage are
// bit-for-bit simulateHandovers' (tests/test_session.cpp, bench_handover,
// bench_session). The searches run on the shipped
// VisibilitySearch::visibleUntil, which tests/test_handover.cpp pins to
// the plain every-sample scan.
#pragma once

#include <optional>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/session/handover_sweep.hpp>

namespace openspace {

/// A planned handover decision.
struct HandoverPlan {
  bool found = false;
  double serviceEndsAtS = 0.0;    ///< Serving satellite drops below the mask.
  SatelliteId successor{};
  double successorUntilS = 0.0;   ///< How long the successor will serve.
};

/// One executed handover.
struct HandoverEvent {
  double atS = 0.0;
  SatelliteId from{};
  SatelliteId to{};
  double latencyS = 0.0;  ///< Signaling time; service gap for ReAssociate.
};

/// A simulated service timeline for one fixed user.
struct HandoverTimeline {
  std::vector<HandoverEvent> events;
  double coveredS = 0.0;       ///< Time with a serving satellite.
  double outageS = 0.0;        ///< Gaps (no visible satellite + handover gaps).
  double meanIntervalS = 0.0;  ///< Mean time between handovers.
  int handovers() const noexcept { return static_cast<int>(events.size()); }
};

// Every function below throws InvalidArgumentError for an elevation mask
// outside [0, pi/2) (VisibilitySearch's rule).

/// When satellite `sat` stops being visible from `user`: the first mask
/// crossing after `fromS`, searched up to fromS+horizonS; fromS+horizonS
/// if still visible at the horizon, fromS if not visible at fromS.
double visibilityEndS(const EphemerisService& ephemeris,
                      double minElevationRad, SatelliteId sat,
                      const Geodetic& user, double fromS,
                      double horizonS = 3'600.0);

/// The visibilityEndS search on a caller-provided sweep already reset()
/// to the satellite's elements: same result bit for bit.
double visibilityEndWith(double minElevationRad, SatelliteSweep& sweep,
                         const Geodetic& user, double fromS,
                         double horizonS = 3'600.0);

/// Best serving satellite at time t: visible and longest remaining
/// service (maximizes time-to-next-handover), excluding `exclude`.
std::optional<SatelliteId> bestSatelliteAt(const EphemerisService& ephemeris,
                                           double minElevationRad,
                                           const Geodetic& user,
                                           double tSeconds,
                                           SatelliteId exclude = {});

/// Closest visible satellite at time t (the association rule).
std::optional<SatelliteId> closestSatelliteAt(
    const EphemerisService& ephemeris, double minElevationRad,
    const Geodetic& user, double tSeconds);

/// The predictive plan for the current serving satellite.
HandoverPlan plan(const EphemerisService& ephemeris, double minElevationRad,
                  SatelliteId current, const Geodetic& user, double nowS,
                  double horizonS = 3'600.0);

/// Simulate the serving-satellite timeline for a user over [t0S, t1S].
/// Predictive mode: make-before-break, outage only from signaling latency
/// (one hop to successor). ReAssociate mode: break-before-make, outage =
/// beacon wait + auth RTT per handover. Throws InvalidArgumentError if
/// t1S <= t0S.
HandoverTimeline simulateHandovers(const EphemerisService& ephemeris,
                                   double minElevationRad,
                                   const Geodetic& user, double t0S,
                                   double t1S, HandoverMode mode,
                                   const ReAssociationCost& reassocCost = {});

}  // namespace openspace
