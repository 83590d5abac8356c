// Satellite handover (paper §2.2, "Satellite Handovers").
//
// LEO satellites cover a small area and move fast: "frequent handovers
// between satellites is necessary to provide continuous connectivity"
// (Starlink hands over every ~15 s). OpenSpace exploits the public
// ephemeris: the serving satellite picks its successor in advance and
// communicates it to the user, who "establishes a new session with the
// successor. This eliminates the need to run authentication and
// association protocols again, ensuring a smooth handoff."
//
// The module provides the predictive planner, the re-association baseline,
// and a timeline simulator producing handover cadence + outage statistics.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/propagation_batch.hpp>

namespace openspace {

/// A planned handover decision.
struct HandoverPlan {
  bool found = false;
  double serviceEndsAtS = 0.0;    ///< Serving satellite drops below the mask.
  SatelliteId successor{};
  double successorUntilS = 0.0;   ///< How long the successor will serve.
};

/// Plans handovers from the shared ephemeris.
class HandoverPlanner {
 public:
  /// Throws InvalidArgumentError for elevation outside [0, pi/2).
  HandoverPlanner(const EphemerisService& ephemeris, double minElevationRad);

  /// When satellite `sat` stops being visible from `user` (first mask
  /// crossing after `fromS`, searched up to fromS+horizonS; returns
  /// fromS+horizonS if still visible at the horizon, fromS if not visible
  /// at fromS). The horizon is a hard search bound; throws
  /// InvalidArgumentError unless it is finite and >= 0.
  double visibilityEndS(SatelliteId sat, const Geodetic& user, double fromS,
                        double horizonS = 3'600.0) const;

  /// The visibilityEndS search running on a caller-provided sweep already
  /// reset() to the satellite's elements: same coarse scan + bisection,
  /// same result bit-for-bit (visibilityEndS delegates here after seeding
  /// a fresh sweep). Candidate loops — bestSatelliteAt, the session-plane
  /// epoch sweep — reuse one SatelliteSweep object across satellites
  /// instead of constructing one per visibility query.
  double visibilityEndWith(SatelliteSweep& sweep, const Geodetic& user,
                           double fromS, double horizonS = 3'600.0) const;

  /// The search itself (visibilityEndWith is visibleUntil(...).value_or(
  /// fromS)), on a sweep reset() to the satellite and an observer compiled
  /// once by the caller: nullopt when the satellite is
  /// below the mask at fromS, else its visibility end. The 10 s scan and
  /// the ~1 ms bisection skip the evaluation of every sample a bound on the
  /// satellite's angular motion proves visible or hidden (only the warm
  /// Kepler start advances there); every other sample is evaluated
  /// exactly, so each decision and the result are bit-for-bit those of the
  /// plain search that evaluates every sample (pinned in
  /// tests/test_handover.cpp). Candidate loops call this directly: the
  /// first sample doubles as their visible-now test, and `beatS` is their
  /// best end so far — once the scan brackets the end at or below beatS,
  /// the search returns that bracket's upper edge (<= beatS, so the
  /// candidate loses a strict comparison) instead of bisecting on.
  std::optional<double> visibleUntil(
      SatelliteSweep& sweep, const GroundObserver& user, double fromS,
      double horizonS = 3'600.0,
      double beatS = -std::numeric_limits<double>::infinity()) const;

  /// Best serving satellite at time t: visible and longest remaining
  /// service (maximizes time-to-next-handover), excluding `exclude`.
  std::optional<SatelliteId> bestSatelliteAt(const Geodetic& user, double tSeconds,
                                             SatelliteId exclude = {}) const;

  /// Closest visible satellite at time t (the association rule).
  std::optional<SatelliteId> closestSatelliteAt(const Geodetic& user,
                                                double tSeconds) const;

  /// Build the predictive plan for the current serving satellite.
  HandoverPlan plan(SatelliteId current, const Geodetic& user, double nowS,
                    double horizonS = 3'600.0) const;

  double minElevationRad() const noexcept { return minElevationRad_; }
  const EphemerisService& ephemeris() const noexcept { return ephemeris_; }

 private:
  const EphemerisService& ephemeris_;
  double minElevationRad_;
  // cos(minElevationRad_), for the step-skipping bound.
  double cosMask_;  // units: dimensionless cosine
};

/// Handover execution mode under study.
enum class HandoverMode {
  Predictive,   ///< §2.2 scheme: successor known in advance, no re-auth.
  ReAssociate,  ///< Baseline: full beacon scan + RADIUS on every handover.
};

/// Baseline parameters: what a full re-association costs.
struct ReAssociationCost {
  double beaconPeriodS = 2.0;  ///< Mean wait = period/2 before association.
  double authRttS = 0.120;     ///< RADIUS RTT over ISLs to the home ISP.
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

/// Simulate the serving-satellite timeline for a user over [t0S, t1S].
/// Predictive mode: make-before-break, outage only from signaling latency
/// (one hop to successor). ReAssociate mode: break-before-make, outage =
/// beacon wait + auth RTT per handover. Throws InvalidArgumentError if
/// t1S <= t0S.
HandoverTimeline simulateHandovers(const HandoverPlanner& planner,
                                   const Geodetic& user, double t0S, double t1S,
                                   HandoverMode mode,
                                   const ReAssociationCost& reassocCost = {});

}  // namespace openspace
