// Predictive handover (paper §2.2, "Satellite Handovers"), batched over a
// SessionTable.
//
// LEO satellites cover a small area and move fast, so a user hands over
// every few minutes (Iridium) to every ~15 s (Starlink). OpenSpace uses
// the public ephemeris: the serving satellite picks its successor in
// advance, and the user "establishes a new session with the successor"
// without re-running authentication and association. HandoverSweep is the
// library's one handover engine. It is an epoch kernel over persistent
// session state:
//
//  * one ConstellationSnapshot + FootprintIndex2 per epoch, anchored on a
//    fixed 60 s grid: every epoch inside one grid window shares the index
//    compiled at the window centre (the compiled() LRU serves the repeats),
//    and an epoch that straddles a window edge gets its own at its
//    midpoint. The index carries a motion margin sized so its candidate
//    sets stay conservative supersets at every event time it serves;
//  * the per-shard expiry heaps select exactly the sessions whose
//    predicted handover falls inside the epoch — no full-table scan;
//  * visibility searches run on warm-startable SatelliteSweeps through
//    VisibilitySearch::visibleUntil, which skips every scan sample it can
//    prove; each session's site is compiled once per epoch
//    (GroundObserver) and each satellite's sweep once per HandoverSweep,
//    so a candidate costs a copy, not a reset(). A successor search runs
//    one full visibility search; every other visible candidate is
//    usually settled by one sample;
//  * certificate verification results are cached per shard, so a
//    steady-state handover is a purely local operation (no tag
//    recomputation, never a home-ISP round trip — paper §2.2).
//
// Equivalence contract: with SeedMode::Planner and non-expiring
// certificates, the concatenated per-user event streams and the outage
// are *bit-for-bit* the HandoverTimeline of the per-user executable spec,
// simulateHandovers (tests/spec, openspace_spec, test-only), for any
// partition of [t0, T] into epochs. tests/test_session.cpp pins the
// property and bench_handover / bench_session gate on it. Shards are fanned
// over parallelFor in fixed one-shard chunks; all sweep state is
// shard-local, so serial and parallel runs are bit-identical
// (hard-gated in bench/bench_session.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/session/session_table.hpp>

namespace openspace {

class FootprintIndex2;

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

/// When a satellite drops below the elevation mask, seen from one site.
class VisibilitySearch {
 public:
  /// Angle slack both skip proofs keep from the exact visibility edges.
  /// It dwarfs the rounding of every compared quantity; at LEO angular
  /// rates it costs ~1 ms of skip range per proof.
  static constexpr double kSkipSlackRad = 1e-6;

  /// The step-skipping proofs for one observer and one orbit's radius
  /// range. With a geocentric vertical, elevation falls strictly as the
  /// Earth-central angle gamma between observer and satellite grows, and
  /// the angle where it meets the mask,
  ///   edge(r) = acos(r_observer / r * cos(mask)) - mask,
  /// grows with the satellite's radius r. So gamma < edge(r_perigee) proves
  /// the satellite visible and gamma > edge(r_apogee) proves it hidden,
  /// wherever it is on its orbit. Both headrooms are sines of those angle
  /// differences, taken from one dot and one cross product without an
  /// atan2, minus kSkipSlackRad. Since sin h <= h for h >= 0 and the sign
  /// is kept on the edges' ranges, a positive headroom never exceeds the
  /// angle headroom, and every proof it gives the angle form gives too.
  /// An observer outside (0, r_perigee) gets no proofs.
  class SkipProofs {
   public:
    /// sin(edge(r_perigee) - gamma) - kSkipSlackRad; positive only for a
    /// satellite provably visible (-inf without proofs).
    double visibleHeadroomRad(const Vec3& satEcef) const noexcept;
    /// sin(gamma - edge(r_apogee)) - kSkipSlackRad; positive only for a
    /// satellite provably hidden (-inf without proofs).
    double hiddenHeadroomRad(const Vec3& satEcef) const noexcept;

   private:
    friend class VisibilitySearch;
    Vec3 observerEcef_;
    double observerRadiusM_ = 0.0;
    bool active_ = false;
    double sinEdgePerigee_ = 0.0;  // units: dimensionless sine
    double cosEdgePerigee_ = 0.0;  // units: dimensionless cosine
    double sinEdgeApogee_ = 0.0;   // units: dimensionless sine
    double cosEdgeApogee_ = 0.0;   // units: dimensionless cosine
  };

  /// Throws InvalidArgumentError unless the mask is in [0, pi/2).
  explicit VisibilitySearch(double minElevationRad);

  /// The search, on a sweep reset() to the satellite and an observer
  /// compiled once by the caller: nullopt when the satellite is below the
  /// mask at fromS, else the first mask crossing after fromS (a 10 s scan,
  /// then bisection to ~1 ms), or fromS + horizonS if it is still visible
  /// at the horizon. The horizon is a hard search bound; throws
  /// InvalidArgumentError unless fromS is finite and the horizon is
  /// finite and >= 0. The scan and the bisection skip the evaluation of
  /// every sample a SkipProofs headroom and the satellite's peak angular
  /// rate prove visible or hidden (only the warm Kepler start advances
  /// there); every other sample is evaluated with the exact mask predicate
  /// (GroundObserver::sees), so each decision and the result are
  /// bit-for-bit those of the plain search that evaluates every sample
  /// (pinned in tests/test_handover.cpp). The first sample doubles as a
  /// visible-now test. `beatS` is the end a candidate must exceed to win:
  /// once the scan brackets the end at or below beatS, the search returns
  /// that bracket's upper edge (<= beatS) instead of bisecting on. So a
  /// result above beatS is the unbounded search's result bit for bit, and
  /// a result at or below it says only that the unbounded one is too.
  std::optional<double> visibleUntil(
      SatelliteSweep& sweep, const GroundObserver& user, double fromS,
      double horizonS = 3'600.0,
      double beatS = -std::numeric_limits<double>::infinity()) const;

  /// The same search after its first sample, for a caller that took that
  /// sample itself: `sweep`'s last evaluation was positionEciAt(fromS),
  /// `fromEcef` is that position in ECEF, and sees(user, fromEcef) holds.
  /// Returns what the overload above returns, bit for bit, and leaves the
  /// sweep in the same state; throws as it does.
  double visibleUntil(SatelliteSweep& sweep, const GroundObserver& user,
                      double fromS, const Vec3& fromEcef, double horizonS,
                      double beatS) const;

  /// The exact mask predicate every search sample is decided by.
  bool sees(const GroundObserver& user, const Vec3& satEcef) const noexcept {
    return user.sees(satEcef, mask_);
  }

  /// The proofs visibleUntil uses for `user` and an orbit whose radius
  /// stays in [perigeeRadiusM, apogeeRadiusM].
  SkipProofs skipProofs(const GroundObserver& user, double perigeeRadiusM,
                        double apogeeRadiusM) const noexcept;

  double minElevationRad() const noexcept { return mask_.rad(); }

 private:
  ElevationMask mask_;
  double sinMask_;  // units: dimensionless sine
  double cosMask_;  // units: dimensionless cosine
};

/// Epoch-kernel configuration. The defaults reproduce the spec's
/// simulateHandovers semantics (3600 s visibility horizon, predictive
/// make-before-break).
struct SweepConfig {
  double minElevationRad = 0.1745;  ///< ~10 deg.
  HandoverMode mode = HandoverMode::Predictive;
  ReAssociationCost reassocCost{};
  /// Visibility search bound per leg; must stay at the spec's default
  /// for event streams to match it.
  double horizonS = 3'600.0;
  /// Disassociate a session whose certificate is expired at the moment a
  /// successor would be adopted (the AssociationAgent::adoptSuccessor
  /// expiry rule). Disable for spec-equivalence runs with finite
  /// certificate lifetimes.
  bool dropOnCertExpiry = true;
};

/// Per-epoch sweep outcome. Scalar totals are summed over shards in shard
/// order; the checksum folds per-shard event streams in shard order —
/// both bit-identical at any thread count.
struct EpochStats {
  double t0S = 0.0;
  double t1S = 0.0;
  std::size_t sessionsTouched = 0;  ///< Sessions whose chain ran this epoch.
  std::size_t handovers = 0;
  std::size_t coverageHoles = 0;    ///< Sessions that entered Scanning.
  std::size_t reacquisitions = 0;   ///< Scanning sessions that re-acquired.
  std::size_t certExpiries = 0;     ///< Sessions dropped on expired certs.
  std::size_t certCacheHits = 0;
  std::size_t certCacheMisses = 0;
  double outageS = 0.0;             ///< Handover signaling + hole time.
  std::uint64_t eventChecksum = 0;  ///< FNV over events in (shard, pop) order.
};

/// How HandoverSweep::seed picks each user's first serving satellite.
enum class SeedMode {
  /// Longest remaining visibility at t0 — exactly the initial
  /// acquisition of the spec's simulateHandovers (the equivalence mode).
  Planner,
  /// closestVisible(user): the §2.2 association rule — exactly the
  /// satellite associateUsers picks (the production mode).
  ClosestAssociation,
};

class HandoverSweep {
 public:
  /// Captures the ephemeris fleet (publication order) at construction.
  /// Throws InvalidArgumentError for an elevation mask outside [0, pi/2),
  /// a horizon that is negative, NaN or infinite, or an empty fleet.
  HandoverSweep(const EphemerisService& ephemeris, SweepConfig cfg);

  /// Seed sessions into the table at `t0S`: pick each user's serving
  /// satellite (per `mode`), predict its visibility end, and insert the
  /// session — associateUsers' batched selection feeding per-user state.
  /// Users with no visible satellite enter Scanning on the spec's 10 s
  /// re-acquisition grid. A seed whose user already has a Disassociated
  /// session re-associates in place (new certificate handle); an active
  /// duplicate throws InvalidArgumentError. The first seed sets the table
  /// clock; later seeds must arrive at the current clock (epoch
  /// boundaries). Throws InvalidArgumentError for a non-finite t0S before
  /// touching any cache. Deterministic at any thread count. Audited on
  /// return (SessionTable::audit()) in builds without NDEBUG.
  void seed(SessionTable& table, const std::vector<SessionSeed>& seeds,
            double t0S, SeedMode mode) const;

  /// Advance every session from table.clockS() to `t1S`, executing every
  /// predicted handover, coverage-hole scan and certificate check that
  /// falls inside the epoch. Events append to `eventsOut` (if non-null) in
  /// (shard, pop) order — the checksum's order. Throws
  /// InvalidArgumentError unless t1S is finite and > table.clockS().
  /// Audited on return, as seed() is.
  EpochStats runEpoch(SessionTable& table, double t1S,
                      std::vector<SessionEvent>* eventsOut = nullptr) const;

  const SweepConfig& config() const noexcept { return cfg_; }
  const std::vector<OrbitalElements>& fleet() const noexcept {
    return elements_;
  }
  /// Upper bound on any satellite's angular rate as seen from the Earth
  /// frame (orbital rate at perigee + Earth rotation), rad/s — sizes the
  /// epoch index's motion margin.
  double maxAngularRateRadPerS() const noexcept { return maxAngularRateRadPerS_; }

 private:
  struct ShardStats;
  struct SearchScratch;

  /// Index of the satellite with the longest remaining visibility at
  /// `tSeconds` for the compiled site, the lowest index among equal ends,
  /// and that end through `bestUntil` (the new leg's predicted expiry);
  /// kNoSatellite when none is visible. Candidates come from the margined
  /// epoch index and pass the exact elevation predicate. One of them, the
  /// one whose pass looks longest, is searched in full; every other is
  /// dropped on one sample that proves it hidden at a point of its own
  /// scan grid at or below the best end, and is searched in full (bounded
  /// by the best end) otherwise. Bit-identical to the spec's
  /// bestSatelliteAt, which searches every candidate in ascending order
  /// with strict first-wins (pinned in tests/test_session.cpp).
  std::uint32_t bestAt(const FootprintIndex2& index,
                       const GroundObserver& site, double tSeconds,
                       std::uint32_t excludeSat, SearchScratch& scratch,
                       double& bestUntil) const;

  SweepConfig cfg_;
  VisibilitySearch search_;
  std::vector<OrbitalElements> elements_;
  /// One sweep per satellite, reset() once here: copying one into a
  /// working sweep is the reset() without its trig, per candidate.
  std::vector<SatelliteSweep> sweeps_;
  double maxAngularRateRadPerS_ = 0.0;
};

}  // namespace openspace
