#include <openspace/session/handover_sweep.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

/// Seeds per parallelFor chunk in the seeding pre-pass. Fixed boundaries +
/// per-seed output slots keep serial and parallel seeding bit-identical.
constexpr std::size_t kSeedChunk = 512;

/// The re-acquisition probe grid (the spec simulateHandovers' 10 s scan),
/// and the grid visibleUntil scans for the set time.
constexpr double kScanStepS = 10.0;

/// Extra slack on the epoch index's motion margin beyond the rigorous
/// drift bound — absorbs rounding in the bound's own evaluation.
constexpr double kMarginSlackRad = 1e-6;

/// The fixed time grid the epoch index is anchored on: every epoch inside
/// one [k * 60, (k + 1) * 60] window is served by the window's one index.
constexpr double kIndexWindowS = 60.0;

/// Signaling latency of one predictive handover: the serving satellite
/// tells the user its successor (one downlink), the user opens a session
/// with the successor (one round trip), no authentication. The expression
/// of the spec simulateHandovers, with the positions from cold copies of
/// the compiled sweeps (a sweep's first position is the cold solve, bit-
/// identical to the scalar positionEci the spec calls).
double predictiveLatencyS(SatelliteSweep from, SatelliteSweep to,
                          const Vec3& userEcef, double tSeconds) {
  const double downS =
      userEcef.distanceTo(eciToEcef(from.positionEciAt(tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  const double upS =
      userEcef.distanceTo(eciToEcef(to.positionEciAt(tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  return downS + 2.0 * upS;
}

/// sin^2 of the cap edge angle in the lead candidate's key: about a 550 km
/// shell's at a 10 degree mask. The key only orders the candidates.
constexpr double kLeadKeyCapSin2 = 0.04;

/// Orders the visible candidates of a successor search by how much of their
/// pass looks left: the user's ECI direction u projected on the satellite's
/// direction of motion normal x r / |r| (how far ahead of the satellite the
/// user lies), plus sqrt(c - (normal . u)^2), the half chord the cap cuts
/// along the ground track at the user's distance from the orbit plane. It
/// ignores Earth rotation and eccentricity: it decides the visiting order,
/// never the result.
double remainingPassKey(const SatelliteSweep& sweep, const Vec3& satEci,
                        const Vec3& userEciDir) {
  const Vec3 normal = sweep.orbitNormal();
  const double aheadSin = normal.cross(satEci).dot(userEciDir) / satEci.norm();
  const double offPlaneSin = normal.dot(userEciDir);
  return aheadSin +
         std::sqrt(std::max(0.0, kLeadKeyCapSin2 - offPlaneSin * offPlaneSin));
}

/// The points of visibleUntil's scan grid from one search start, walked in
/// ascending order: fromS + 10, + 10, ... accumulated exactly as the scan
/// loop accumulates them, each clamped to the horizon end, ending at the
/// first point at or past it.
class ScanGridWalk {
 public:
  ScanGridWalk(double fromS, double horizonS)
      : nextS_(fromS + kScanStepS), horizonEndS_(fromS + horizonS) {}

  /// Walk past every point <= limitS. Limits must not decrease.
  void advanceTo(double limitS) {
    while (!done_ && nextS_ < horizonEndS_ + kScanStepS) {
      const double pointS = std::min(nextS_, horizonEndS_);
      if (pointS > limitS) return;
      prevS_ = lastS_;
      lastS_ = pointS;
      done_ = pointS >= horizonEndS_;
      nextS_ += kScanStepS;
    }
  }

  /// The largest walked point <= limitS, for a limit no lower than the
  /// walked point before the last one; -inf when there is none.
  double lastAtOrBelow(double limitS) const noexcept {
    return lastS_ <= limitS ? lastS_ : prevS_;
  }

 private:
  double nextS_;
  double horizonEndS_;
  double lastS_ = -std::numeric_limits<double>::infinity();
  double prevS_ = -std::numeric_limits<double>::infinity();
  bool done_ = false;
};

/// The horizon is an explicit, finite search bound: a satellite that never
/// drops below the mask (e.g. a mask of 0 over a pole-adjacent user, or a
/// horizon shorter than the pass) yields fromS + horizonS rather than an
/// unbounded scan.
bool validHorizon(double horizonS) {
  return horizonS >= 0.0 && !std::isinf(horizonS);
}

void checkSearchWindow(double fromS, double horizonS) {
  if (!std::isfinite(fromS)) {
    throw InvalidArgumentError("visibleUntil: fromS must be finite");
  }
  if (!validHorizon(horizonS)) {
    throw InvalidArgumentError(
        "visibleUntil: horizon must be finite and >= 0");
  }
}

}  // namespace

VisibilitySearch::VisibilitySearch(double minElevationRad)
    : mask_(ElevationMask::of(minElevationRad)),
      sinMask_(std::sin(minElevationRad)),
      cosMask_(std::cos(minElevationRad)) {
  if (!(minElevationRad >= 0.0 && minElevationRad < std::numbers::pi / 2.0)) {
    throw InvalidArgumentError("VisibilitySearch: elevation mask out of range");
  }
}

VisibilitySearch::SkipProofs VisibilitySearch::skipProofs(
    const GroundObserver& user, double perigeeRadiusM,
    double apogeeRadiusM) const noexcept {
  SkipProofs proofs;
  proofs.observerEcef_ = user.ecef();
  proofs.observerRadiusM_ = user.radiusM();
  const double rObsM = user.radiusM();
  proofs.active_ = rObsM > 0.0 && rObsM < perigeeRadiusM;
  if (!proofs.active_) return proofs;
  // edge(r) = alpha - mask with cos(alpha) = k = r_obs / r * cos(mask), so
  // sin(alpha) = sqrt((1 - k)(1 + k)) (1 - k is exact near the k = 1 end,
  // where 1 - k^2 would cancel) and the angle-difference identities give
  // the edge's sine and cosine without an acos.
  const auto edge = [&](double rSatM, double& sinEdge, double& cosEdge) {
    const double k = rObsM / rSatM * cosMask_;
    const double sinAlpha = std::sqrt((1.0 - k) * (1.0 + k));
    sinEdge = sinAlpha * cosMask_ - k * sinMask_;
    cosEdge = k * cosMask_ + sinAlpha * sinMask_;
  };
  edge(perigeeRadiusM, proofs.sinEdgePerigee_, proofs.cosEdgePerigee_);
  edge(apogeeRadiusM, proofs.sinEdgeApogee_, proofs.cosEdgeApogee_);
  return proofs;
}

double VisibilitySearch::SkipProofs::visibleHeadroomRad(
    const Vec3& satEcef) const noexcept {
  if (!active_) return -std::numeric_limits<double>::infinity();
  // sin(edge - gamma) = sin(edge) cos(gamma) - cos(edge) sin(gamma), with
  // cos(gamma) |o||s| = o.s and sin(gamma) |o||s| = |o x s|.
  const double scale = observerRadiusM_ * satEcef.norm();
  return (sinEdgePerigee_ * observerEcef_.dot(satEcef) -
          cosEdgePerigee_ * observerEcef_.cross(satEcef).norm()) /
             scale -
         kSkipSlackRad;
}

double VisibilitySearch::SkipProofs::hiddenHeadroomRad(
    const Vec3& satEcef) const noexcept {
  if (!active_) return -std::numeric_limits<double>::infinity();
  const double scale = observerRadiusM_ * satEcef.norm();
  return (cosEdgeApogee_ * observerEcef_.cross(satEcef).norm() -
          sinEdgeApogee_ * observerEcef_.dot(satEcef)) /
             scale -
         kSkipSlackRad;
}

std::optional<double> VisibilitySearch::visibleUntil(SatelliteSweep& sweep,
                                                     const GroundObserver& user,
                                                     double fromS,
                                                     double horizonS,
                                                     double beatS) const {
  checkSearchWindow(fromS, horizonS);
  const Vec3 fromEcef = eciToEcef(sweep.positionEciAt(fromS), fromS);
  if (!sees(user, fromEcef)) return std::nullopt;
  return visibleUntil(sweep, user, fromS, fromEcef, horizonS, beatS);
}

double VisibilitySearch::visibleUntil(SatelliteSweep& sweep,
                                      const GroundObserver& user, double fromS,
                                      const Vec3& fromEcef, double horizonS,
                                      double beatS) const {
  checkSearchWindow(fromS, horizonS);
  const auto ecefAt = [&](double t) {
    return eciToEcef(sweep.positionEciAt(t), t);
  };
  const auto visible = [&](const Vec3& satEcef) { return sees(user, satEcef); };
  // The central angle moves no faster than the orbit's peak angular rate
  // plus the Earth's rotation, so an evaluation whose headroom is h proves
  // the same verdict for h / rate seconds around it.
  const SkipProofs proofs =
      skipProofs(user, sweep.perigeeRadiusM(), sweep.apogeeRadiusM());
  const double rateRadPerS =
      sweep.maxAngularRateRadPerS() + wgs84::kEarthRotationRadPerS;
  // A visible evaluation at t proves visibility through the returned time;
  // a hidden one proves the satellite hidden from the returned time to t.
  const auto provenVisibleUntil = [&](double t, const Vec3& satEcef) {
    const double headroomRad = proofs.visibleHeadroomRad(satEcef);
    return headroomRad > 0.0 ? t + headroomRad / rateRadPerS : t;
  };
  const auto provenHiddenFrom = [&](double t, const Vec3& satEcef) {
    const double headroomRad = proofs.hiddenHeadroomRad(satEcef);
    return headroomRad > 0.0 ? t - headroomRad / rateRadPerS : t;
  };

  double visibleUntilS = provenVisibleUntil(fromS, fromEcef);
  double hiddenFromS = std::numeric_limits<double>::infinity();
  // Coarse forward scan (10 s grid, clamped to the horizon) then bisect
  // the set edge to ~1 ms. A proven sample only advances the warm start,
  // so every evaluated sample is the plain scan's bit for bit, and so is
  // every decision.
  const double step = kScanStepS;
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

/// Per-shard epoch accumulator; folded in shard order after the parallel
/// phase so every total and the event checksum are thread-count-invariant.
struct HandoverSweep::ShardStats {
  std::size_t touched = 0;
  std::size_t handovers = 0;
  std::size_t holes = 0;
  std::size_t reacquisitions = 0;
  std::size_t certExpiries = 0;
  std::size_t certHits = 0;
  std::size_t certMisses = 0;
  double outageS = 0.0;
  std::uint64_t checksum = kFnvOffsetBasis;
  std::vector<SessionEvent> events;
};

HandoverSweep::HandoverSweep(const EphemerisService& ephemeris, SweepConfig cfg)
    : cfg_(cfg), search_(cfg.minElevationRad) {
  const auto& sats = ephemeris.satellites();
  if (sats.empty()) {
    throw InvalidArgumentError("HandoverSweep: empty fleet");
  }
  if (!validHorizon(cfg.horizonS)) {
    throw InvalidArgumentError(
        "HandoverSweep: horizon must be finite and >= 0");
  }
  elements_.reserve(sats.size());
  sweeps_.reserve(sats.size());
  for (const SatelliteId sid : sats) {
    elements_.push_back(ephemeris.record(sid).elements);
    sweeps_.emplace_back(elements_.back());
  }
  // Fleet-wide angular-rate bound: the orbital rate peaks at perigee at
  // n * sqrt(1+e) / (1-e)^{3/2}; the observer's ECI direction adds the
  // Earth rotation rate. Scales the epoch index's candidate motion margin.
  double maxOrbital = 0.0;
  for (const OrbitalElements& el : elements_) {
    maxOrbital = std::max(maxOrbital, el.maxAngularRateRadPerS());
  }
  maxAngularRateRadPerS_ = maxOrbital + wgs84::kEarthRotationRadPerS;
}

/// bestAt's working storage, one per worker, reused across searches.
struct HandoverSweep::SearchScratch {
  /// A candidate visible at the search time: its sweep, whose last
  /// evaluation is the cold sample visibleUntil would take first, and that
  /// sample in ECI and ECEF.
  struct Visible {
    SatelliteSweep sweep;
    Vec3 eci;
    Vec3 ecef;
    std::uint32_t sat = 0;
  };
  /// Grows to the largest candidate set seen; a search fills a prefix.
  std::vector<Visible> visible;
};

std::uint32_t HandoverSweep::bestAt(const FootprintIndex2& index,
                                    const GroundObserver& site,
                                    double tSeconds, std::uint32_t excludeSat,
                                    SearchScratch& scratch,
                                    double& bestUntil) const {
  // The spec's bestSatelliteAt searches every visible candidate in
  // ascending order and keeps the first with the largest end, so its
  // winner is the lowest index among the largest visibility ends. That
  // rule does not depend on the visiting order, so this search visits the
  // candidate whose pass looks longest first and then only has to prove
  // that every other one ends no later (DESIGN §15). The epoch index's
  // candidate set is a (margined) superset of the per-call index the spec
  // compiles, so both see the same visible candidates.
  std::vector<SearchScratch::Visible>& visible = scratch.visible;
  std::size_t count = 0;
  index.forEachGroundCandidate(site.ecef(), [&](std::uint32_t i) {
    if (i == excludeSat) return;
    if (count == visible.size()) visible.emplace_back();
    SearchScratch::Visible& v = visible[count];
    v.sweep = sweeps_[i];
    v.eci = v.sweep.positionEciAt(tSeconds);
    v.ecef = eciToEcef(v.eci, tSeconds);
    if (!search_.sees(site, v.ecef)) return;
    v.sat = i;
    ++count;
  });
  std::uint32_t best = kNoSatellite;
  bestUntil = -1.0;
  if (count == 0) return best;
  // The end a candidate must exceed to win: a lower index than the best
  // also wins an equal end.
  const auto beatFor = [&](std::uint32_t sat) {
    return best != kNoSatellite && sat < best
               ? std::nextafter(bestUntil,
                                -std::numeric_limits<double>::infinity())
               : bestUntil;
  };
  // A full search: above beatS its result is the candidate's end bit for
  // bit, so it wins exactly when the ascending loop's search would.
  const auto searchInFull = [&](SearchScratch::Visible& v) {
    const double beatS = beatFor(v.sat);
    const double until = search_.visibleUntil(v.sweep, site, tSeconds, v.ecef,
                                              cfg_.horizonS, beatS);
    if (until > beatS) {
      best = v.sat;
      bestUntil = until;
    }
  };
  std::size_t lead = 0;
  if (count > 1) {
    const Vec3 userEciDir =
        ecefToEci(site.ecef(), tSeconds) / site.radiusM();
    double leadKey = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < count; ++k) {
      const double key =
          remainingPassKey(visible[k].sweep, visible[k].eci, userEciDir);
      if (key > leadKey ||
          (key == leadKey && visible[k].sat < visible[lead].sat)) {
        leadKey = key;
        lead = k;
      }
    }
  }
  searchInFull(visible[lead]);
  ScanGridWalk grid(tSeconds, cfg_.horizonS);
  for (std::size_t k = 0; k < count; ++k) {
    if (k == lead) continue;
    SearchScratch::Visible& v = visible[k];
    // The probe: a candidate proven hidden at a point g <= beatS of its
    // own scan grid has its first hidden grid point at or before g, so its
    // end lies at or below g and it cannot win. The probe runs on a copy,
    // so a full search still sees the sweep just past its first sample.
    grid.advanceTo(bestUntil);
    const double gS = grid.lastAtOrBelow(beatFor(v.sat));
    if (gS > -std::numeric_limits<double>::infinity()) {
      SatelliteSweep probe = v.sweep;
      const Vec3 gEcef = eciToEcef(probe.positionEciAt(gS), gS);
      const VisibilitySearch::SkipProofs proofs = search_.skipProofs(
          site, probe.perigeeRadiusM(), probe.apogeeRadiusM());
      if (proofs.hiddenHeadroomRad(gEcef) > 0.0) continue;
    }
    searchInFull(v);
  }
  return best;
}

void HandoverSweep::seed(SessionTable& table,
                         const std::vector<SessionSeed>& seeds, double t0S,
                         SeedMode mode) const {
  if (table.fleetSize() != elements_.size()) {
    throw InvalidArgumentError("seed: table fleet size != sweep fleet size");
  }
  if (!std::isfinite(t0S)) {
    throw InvalidArgumentError("seed: t0S must be finite");
  }
  if (table.seeded_ && t0S != table.clockS_) {
    throw InvalidArgumentError("seed: t0S must match the table clock");
  }
  // Pre-pass: the serving pick and its predicted visibility end, per seed,
  // in fixed chunks — one snapshot + exact (margin-0) index at t0, exactly
  // what the spec's initial acquisition compiles.
  const auto snap = SnapshotCache::global().at(elements_, t0S);
  const auto index = FootprintIndex2::compiled(snap, cfg_.minElevationRad);
  std::vector<std::uint32_t> serving(seeds.size(), kNoSatellite);
  std::vector<double> untilS(seeds.size(), 0.0);
  parallelFor(seeds.size(), kSeedChunk,
              [&](std::size_t begin, std::size_t end) {
                SatelliteSweep sweep;
                SearchScratch scratch;
                for (std::size_t u = begin; u < end; ++u) {
                  const GroundObserver site(seeds[u].location);
                  if (mode == SeedMode::Planner) {
                    serving[u] = bestAt(*index, site, t0S, kNoSatellite,
                                        scratch, untilS[u]);
                  } else {
                    const auto closest = index->closestVisible(site.ecef());
                    if (closest) {
                      serving[u] = static_cast<std::uint32_t>(*closest);
                      sweep = sweeps_[serving[u]];
                      untilS[u] =
                          search_
                              .visibleUntil(sweep, site, t0S, cfg_.horizonS)
                              .value_or(t0S);
                    }
                  }
                }
              });
  // Bucket seeds per shard in seed order, then insert shard-parallel: the
  // per-shard insertion order (and so slot numbering, heap tie-breaking
  // and event order) is a pure function of the seed list.
  std::vector<std::vector<std::uint32_t>> byShard(table.shardCount());
  for (std::size_t u = 0; u < seeds.size(); ++u) {
    byShard[table.shardOf(seeds[u].user)].push_back(
        static_cast<std::uint32_t>(u));
  }
  parallelFor(table.shardCount(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      SessionTable::Shard& shard = *table.shards_[s];
      MutexLock lock(shard.mu);
      SessionTable::State& st = shard.st;
      for (const std::uint32_t u : byShard[s]) {
        const SessionSeed& seed = seeds[u];
        std::uint32_t slot;
        const auto it = st.slotOf.find(seed.user);
        if (it != st.slotOf.end()) {
          slot = it->second;
          if (st.state[slot] != SessionState::Disassociated) {
            throw InvalidArgumentError("seed: user already has a session");
          }
          st.site[slot] = seed.location;
          st.siteEcef[slot] = geodeticToEcef(seed.location);
        } else {
          slot = static_cast<std::uint32_t>(st.user.size());
          st.user.push_back(seed.user);
          st.site.push_back(seed.location);
          st.siteEcef.push_back(geodeticToEcef(seed.location));
          st.servingSat.push_back(kNoSatellite);
          st.nextEventS.push_back(0.0);
          st.outageFromS.push_back(0.0);
          st.certExpiresAtS.push_back(0.0);
          st.certTag.push_back(0);
          st.state.push_back(SessionState::Disassociated);
          st.slotOf.emplace(seed.user, slot);
        }
        st.certExpiresAtS[slot] = seed.certExpiresAtS;
        st.certTag[slot] = seed.certTag;
        if (serving[u] != kNoSatellite) {
          st.state[slot] = SessionState::Serving;
          st.servingSat[slot] = serving[u];
          st.nextEventS[slot] = untilS[u];
          st.outageFromS[slot] = 0.0;
          ++st.satOccupancy[serving[u]];
          SessionTable::heapPush(st.heap,
                                 SessionTable::HeapEntry{untilS[u], slot});
        } else {
          // The spec's initial acquisition: the t0 probe failed, the next
          // one runs a step later on the 10 s grid.
          st.state[slot] = SessionState::Scanning;
          st.servingSat[slot] = kNoSatellite;
          st.nextEventS[slot] = t0S + kScanStepS;
          st.outageFromS[slot] = t0S;
          st.scanning.push_back(slot);
        }
      }
    }
  });
  if (!table.seeded_) {
    table.clockS_ = t0S;
    table.seeded_ = true;
  }
#ifndef NDEBUG
  table.audit();
#endif
}

EpochStats HandoverSweep::runEpoch(SessionTable& table, double t1S,
                                   std::vector<SessionEvent>* eventsOut) const {
  if (table.fleetSize() != elements_.size()) {
    throw InvalidArgumentError(
        "runEpoch: table fleet size != sweep fleet size");
  }
  const double t0S = table.clockS_;
  if (!std::isfinite(t1S)) {
    throw InvalidArgumentError("runEpoch: t1S must be finite");
  }
  if (!(t1S > t0S)) {
    throw InvalidArgumentError("runEpoch: t1S must be > table clock");
  }
  // One snapshot + one margined footprint index serve every event in the
  // epoch. Every query time lies in [t0 - 1e-3, t1]; pruning caps widened
  // by the worst-case angular drift from the anchor to either edge of that
  // span keep candidate sets conservative supersets at every event time.
  // An epoch inside one grid window anchors at the window centre with a
  // half-window margin, so every epoch of the window asks compiled() for
  // the same (snapshot, mask, margin) and the window compiles once. An
  // epoch that straddles a window edge anchors at its own midpoint.
  const double windowLoS = std::floor(t0S / kIndexWindowS) * kIndexWindowS;
  const bool inWindow =
      t0S >= windowLoS && t1S <= windowLoS + kIndexWindowS;
  const double halfSpanS =
      inWindow ? 0.5 * kIndexWindowS : 0.5 * (t1S - t0S);
  const double anchorS = inWindow ? windowLoS + halfSpanS : t0S + halfSpanS;
  const double marginRad =
      maxAngularRateRadPerS_ * (halfSpanS + 1e-3) + kMarginSlackRad;
  const auto snap = SnapshotCache::global().at(elements_, anchorS);
  const auto index =
      FootprintIndex2::compiled(snap, cfg_.minElevationRad, marginRad);

  std::vector<ShardStats> stats(table.shardCount());
  parallelFor(table.shardCount(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      SessionTable::Shard& shard = *table.shards_[s];
      MutexLock lock(shard.mu);
      SessionTable::State& st = shard.st;
      ShardStats& out = stats[s];
      const bool record = eventsOut != nullptr;
      SatelliteSweep sweep;
      SearchScratch scratch;
      std::vector<std::uint32_t> stillScanning;

      // One session's whole epoch: run its leg chain until it parks —
      // expiry beyond the epoch (back on the heap), an unresolved
      // coverage-hole scan (carried to the next epoch), or a dropped
      // session. The bodies mirror the spec simulateHandovers loop
      // clause for clause.
      const auto processSession = [&](std::uint32_t slot) {
        ++out.touched;
        // Compiled once per session per epoch; every elevation test of the
        // session's chain below reuses it.
        const GroundObserver site(st.siteEcef[slot]);
        for (;;) {
          if (st.state[slot] == SessionState::Scanning) {
            double gridS = st.nextEventS[slot];
            std::uint32_t found = kNoSatellite;
            double foundUntil = 0.0;
            while (gridS < t1S) {
              found = bestAt(*index, site, gridS, kNoSatellite, scratch,
                             foundUntil);
              if (found != kNoSatellite) break;
              gridS += kScanStepS;
            }
            if (found == kNoSatellite) {
              // Park: outage accrues to the epoch edge, the probe grid
              // position survives to the next epoch.
              out.outageS += t1S - st.outageFromS[slot];
              st.outageFromS[slot] = t1S;
              st.nextEventS[slot] = gridS;
              // det-waiver: declared inside this shard's chunk body, local
              stillScanning.push_back(slot);
              return;
            }
            out.outageS += gridS - st.outageFromS[slot];
            ++out.reacquisitions;
            st.state[slot] = SessionState::Serving;
            st.servingSat[slot] = found;
            st.nextEventS[slot] = foundUntil;
            ++st.satOccupancy[found];
            continue;
          }
          const double endS = st.nextEventS[slot];
          if (endS >= t1S) {
            SessionTable::heapPush(st.heap,
                                   SessionTable::HeapEntry{endS, slot});
            return;
          }
          // Handover due at endS: successor picked just before the mask
          // crossing, serving satellite excluded — the spec's rule.
          const std::uint32_t from = st.servingSat[slot];
          double succUntil = 0.0;
          const std::uint32_t succ =
              bestAt(*index, site, endS - 1e-3, from, scratch,
                     succUntil);
          if (succ == kNoSatellite) {
            // Coverage hole: re-acquire on the 10 s grid from the mask
            // crossing (the first probe runs at endS itself).
            ++out.holes;
            --st.satOccupancy[from];
            st.state[slot] = SessionState::Scanning;
            st.servingSat[slot] = kNoSatellite;
            st.nextEventS[slot] = endS;
            st.outageFromS[slot] = endS;
            continue;
          }
          if (cfg_.dropOnCertExpiry &&
              endS >= st.certExpiresAtS[slot]) {
            // The adoptSuccessor expiry rule: an expired roaming
            // certificate cannot ride a predictive handover — the session
            // drops and must re-associate through RADIUS.
            ++out.certExpiries;
            --st.satOccupancy[from];
            st.state[slot] = SessionState::Disassociated;
            st.servingSat[slot] = kNoSatellite;
            st.certCache.invalidate(st.user[slot]);
            return;
          }
          const double latencyS =
              cfg_.mode == HandoverMode::Predictive
                  ? predictiveLatencyS(sweeps_[from], sweeps_[succ],
                                       site.ecef(), endS)
                  : cfg_.reassocCost.beaconPeriodS / 2.0 +
                        cfg_.reassocCost.authRttS;
          // Certificate check at the successor: a cache hit means the
          // visited provider already verified this user's roaming
          // certificate — nothing to recompute, the handover is local.
          if (st.certCache.hit(st.user[slot], st.certTag[slot])) {
            ++out.certHits;
          } else {
            ++out.certMisses;
            st.certCache.insert(st.user[slot], st.certTag[slot]);
          }
          ++out.handovers;
          out.outageS += latencyS;
          out.checksum = fnv1a(out.checksum, st.user[slot]);
          out.checksum = fnv1a(out.checksum, bitsOf(endS));
          out.checksum = fnv1a(out.checksum, from);
          out.checksum = fnv1a(out.checksum, succ);
          out.checksum = fnv1a(out.checksum, bitsOf(latencyS));
          if (record) {
            out.events.push_back(
                SessionEvent{st.user[slot], endS, from, succ, latencyS});
          }
          --st.satOccupancy[from];
          ++st.satOccupancy[succ];
          st.servingSat[slot] = succ;
          // Next leg starts once the switch signaling completes.
          const double legStartS = endS + latencyS;
          sweep = sweeps_[succ];
          st.nextEventS[slot] =
              search_.visibleUntil(sweep, site, legStartS, cfg_.horizonS)
                  .value_or(legStartS);
        }
      };

      // Scanning sessions first (list order), then the expiry heap in
      // (time, slot) order — both deterministic, and sessions are
      // independent, so the split is a presentation order, not a
      // semantics choice.
      std::vector<std::uint32_t> toScan;
      toScan.swap(st.scanning);
      for (const std::uint32_t slot : toScan) {
        if (st.state[slot] != SessionState::Scanning) continue;
        processSession(slot);
      }
      while (!st.heap.empty() && st.heap.front().atS < t1S) {
        const SessionTable::HeapEntry e = SessionTable::heapPop(st.heap);
        // Lazy deletion: superseded or dead entries fall through.
        if (st.state[e.slot] != SessionState::Serving ||
            st.nextEventS[e.slot] != e.atS) {
          continue;
        }
        processSession(e.slot);
      }
      st.scanning.swap(stillScanning);
    }
  });

  EpochStats total;
  total.t0S = t0S;
  total.t1S = t1S;
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t s = 0; s < stats.size(); ++s) {
    const ShardStats& sh = stats[s];
    total.sessionsTouched += sh.touched;
    total.handovers += sh.handovers;
    total.coverageHoles += sh.holes;
    total.reacquisitions += sh.reacquisitions;
    total.certExpiries += sh.certExpiries;
    total.certCacheHits += sh.certHits;
    total.certCacheMisses += sh.certMisses;
    total.outageS += sh.outageS;
    h = fnv1a(h, sh.checksum);
    if (eventsOut != nullptr) {
      eventsOut->insert(eventsOut->end(), sh.events.begin(), sh.events.end());
    }
  }
  total.eventChecksum = h;
  table.clockS_ = t1S;
#ifndef NDEBUG
  table.audit();
#endif
  return total;
}

}  // namespace openspace
