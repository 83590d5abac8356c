// Session-plane tests: the sharded SessionTable, the batched HandoverSweep
// epoch kernel, and the session scenarios built on them.
//
// The central property: with SeedMode::Planner and non-expiring
// certificates, the sweep's per-user event streams and its outage are
// *bit-for-bit* the HandoverTimeline the per-user simulateHandovers spec
// (openspace_spec) produces, for any partition of the window into epochs.
// Everything else (determinism at any thread count, occupancy accounting,
// certificate caching, regional outage) is layered on top of that pinned
// equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>
#include <vector>

#include <openspace/auth/association.hpp>
#include <openspace/auth/certificate.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/sim/session_scenarios.hpp>
#include <openspace/spec/handover.hpp>

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

/// A certificate expiry far beyond any test window: equivalence runs must
/// never trip the expiry rule.
constexpr double kNeverExpiresS = 4.0e9;

class SessionSweepTest : public ::testing::Test {
 protected:
  SessionSweepTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{1}, el);
    }
    cfg_.minElevationRad = mask_;
    cfg_.dropOnCertExpiry = false;
  }

  std::vector<SessionSeed> seedsFor(const std::vector<Geodetic>& sites,
                                    double certExpiresAtS = kNeverExpiresS) const {
    std::vector<SessionSeed> seeds;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      seeds.push_back(SessionSeed{static_cast<UserId>(i + 1), sites[i],
                                  certExpiresAtS, 0x1000 + i});
    }
    return seeds;
  }

  /// Run the sweep over `sites` across the given epoch boundaries and
  /// return (events, per-epoch stats, final state checksum).
  struct SweepRun {
    std::vector<SessionEvent> events;
    std::vector<EpochStats> stats;
    std::uint64_t finalChecksum = 0;
    std::vector<SessionTable::SessionView> finalViews;  ///< Users 1..n.
    std::vector<std::uint64_t> finalOccupancy;
  };
  /// The table is audited after the seed and after every epoch.
  SweepRun runSweep(const std::vector<Geodetic>& sites,
                    const std::vector<double>& boundaries,
                    double t0S = 0.0) const {
    return runSweepOn(eph_, sites, boundaries, t0S);
  }
  SweepRun runSweepOn(const EphemerisService& eph,
                      const std::vector<Geodetic>& sites,
                      const std::vector<double>& boundaries,
                      double t0S = 0.0) const {
    SessionTable table(eph.satellites().size());
    const HandoverSweep sweep(eph, cfg_);
    sweep.seed(table, seedsFor(sites), t0S, SeedMode::Planner);
    table.audit();
    SweepRun run;
    for (const double t1 : boundaries) {
      run.stats.push_back(sweep.runEpoch(table, t1, &run.events));
      table.audit();
    }
    run.finalChecksum = table.stateChecksum();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      run.finalViews.push_back(table.find(i + 1).value());
    }
    run.finalOccupancy = table.perSatelliteOccupancy();
    return run;
  }

  /// A 528-satellite Walker Delta shell at 550 km and 53 degrees.
  static EphemerisService walkerDelta528() {
    EphemerisService eph;
    for (const auto& el :
         makeWalkerDelta({528, 24, 1, km(550.0), deg2rad(53.0)})) {
      eph.publish(ProviderId{1}, el);
    }
    return eph;
  }

  /// The mega-5k world's fleet: 5,040 satellites in 72 planes at 550 km
  /// and 53 degrees.
  static EphemerisService walkerDelta5040() {
    EphemerisService eph;
    for (const auto& el :
         makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)})) {
      eph.publish(ProviderId{1}, el);
    }
    return eph;
  }

  /// Epoch boundaries t0 + stepS, t0 + 2 stepS, ... up to and including T.
  static std::vector<double> evenEpochs(double t0S, double stepS, double T) {
    std::vector<double> out;
    for (double t = t0S + stepS; t <= T; t += stepS) out.push_back(t);
    return out;
  }

  /// The sweep's events for one user, in time order.
  static std::vector<SessionEvent> eventsOf(const std::vector<SessionEvent>& all,
                                            UserId user) {
    std::vector<SessionEvent> out;
    for (const SessionEvent& e : all) {
      if (e.user == user) out.push_back(e);
    }
    return out;
  }

  /// Expect the sweep stream to be bit-for-bit the legacy timeline.
  void expectMatchesLegacy(const std::vector<SessionEvent>& mine,
                           const HandoverTimeline& legacy) const {
    expectMatchesLegacyOn(eph_, mine, legacy);
  }
  static void expectMatchesLegacyOn(const EphemerisService& eph,
                                    const std::vector<SessionEvent>& mine,
                                    const HandoverTimeline& legacy) {
    const auto& sats = eph.satellites();
    ASSERT_EQ(mine.size(), legacy.events.size());
    for (std::size_t j = 0; j < mine.size(); ++j) {
      EXPECT_EQ(bitsOf(mine[j].atS), bitsOf(legacy.events[j].atS)) << j;
      EXPECT_EQ(sats.at(mine[j].fromSat), legacy.events[j].from) << j;
      EXPECT_EQ(sats.at(mine[j].toSat), legacy.events[j].to) << j;
      EXPECT_EQ(bitsOf(mine[j].latencyS), bitsOf(legacy.events[j].latencyS)) << j;
    }
  }

  const double mask_ = deg2rad(10.0);
  EphemerisService eph_;
  SweepConfig cfg_;
  const std::vector<Geodetic> sites_ = {
      Geodetic::fromDegrees(40.44, -79.99),   // Pittsburgh
      Geodetic::fromDegrees(-33.87, 151.21),  // Sydney
      Geodetic::fromDegrees(51.5, -0.13),     // London
      Geodetic::fromDegrees(-1.29, 36.82),    // Nairobi
      Geodetic::fromDegrees(78.22, 15.63),    // Svalbard (polar convergence)
      Geodetic::fromDegrees(0.0, -160.0),     // mid-Pacific
  };
};

// --- sweep == legacy, the executable-spec property ------------------------

TEST_F(SessionSweepTest, EventsMatchLegacySimulationForAnyEpochPartition) {
  const double T = 1'800.0;
  // 15 s epochs reuse their 60 s window's index three times in four; half
  // of the 45 s epochs straddle a window edge; a 300 s epoch between 15 s
  // ones falls back to its own midpoint index.
  std::vector<double> longBetweenShort = evenEpochs(0.0, 15.0, 600.0);
  longBetweenShort.push_back(900.0);
  for (const double t : evenEpochs(900.0, 15.0, T)) {
    longBetweenShort.push_back(t);
  }
  const std::vector<std::vector<double>> partitions = {
      {T},
      {600.0, 1'200.0, T},
      {137.0, 450.0, 1'000.0, 1'337.5, T},
      evenEpochs(0.0, 15.0, T),
      evenEpochs(0.0, 45.0, T),
      longBetweenShort,
  };
  std::vector<HandoverTimeline> legacy;
  for (const Geodetic& site : sites_) {
    legacy.push_back(
        simulateHandovers(eph_, mask_, site, 0.0, T, HandoverMode::Predictive));
  }
  for (const auto& partition : partitions) {
    const SweepRun run = runSweep(sites_, partition);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      SCOPED_TRACE("site " + std::to_string(i) + " partition size " +
                   std::to_string(partition.size()));
      expectMatchesLegacy(eventsOf(run.events, i + 1), legacy[i]);
    }
  }
  // A seed off the window grid: the first epochs sit inside [0, 60], the
  // one across t = 60 straddles it.
  const double t0 = 37.5;
  const std::vector<double> offGrid = evenEpochs(t0, 15.0, T);
  const SweepRun run = runSweep(sites_, offGrid, t0);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i) + " seeded at 37.5 s");
    expectMatchesLegacy(eventsOf(run.events, i + 1),
                        simulateHandovers(eph_, mask_, sites_[i], t0,
                                          offGrid.back(),
                                          HandoverMode::Predictive));
  }
}

TEST_F(SessionSweepTest, WalkerDeltaFifteenSecondEpochsMatchLegacy) {
  // A 528-satellite Walker Delta at 53 degrees: several satellites in view
  // at mid latitudes, none ever at Svalbard, which scans throughout — the
  // windowed index against the spec.
  const EphemerisService delta = walkerDelta528();
  const double T = 600.0;
  const SweepRun run = runSweepOn(delta, sites_, evenEpochs(0.0, 15.0, T));
  std::size_t handovers = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    const HandoverTimeline spec = simulateHandovers(
        delta, mask_, sites_[i], 0.0, T, HandoverMode::Predictive);
    handovers += spec.events.size();
    expectMatchesLegacyOn(delta, eventsOf(run.events, i + 1), spec);
  }
  EXPECT_GT(handovers, 0u);
}

// --- the successor search at mega scale -----------------------------------
//
// bestAt searches one candidate in full and settles the rest with a probe
// sample each; the spec searches every candidate in ascending order. Where
// ~100 satellites are in view at once, these pin the two to the same picks
// and the same end bits.

TEST_F(SessionSweepTest, MegaDeltaFifteenSecondEpochsMatchLegacy) {
  const EphemerisService delta = walkerDelta5040();
  std::vector<Geodetic> sites = sites_;
  Rng rng(31);
  for (const SampledUser& u : defaultWorldPopulation().sampleUsers(18, rng)) {
    sites.push_back(u.location);
  }
  const double T = 600.0;
  const SweepRun run = runSweepOn(delta, sites, evenEpochs(0.0, 15.0, T));
  std::size_t handovers = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    const HandoverTimeline spec = simulateHandovers(
        delta, mask_, sites[i], 0.0, T, HandoverMode::Predictive);
    handovers += spec.events.size();
    expectMatchesLegacyOn(delta, eventsOf(run.events, i + 1), spec);
  }
  EXPECT_GT(handovers, sites.size() / 2);
}

/// Planner seeding at a random time for 100 random sites of `eph`: each
/// site's serving pick must be the spec's bestSatelliteAt and its predicted
/// end the spec's visibilityEndS of that pick, bit for bit. Returns the
/// number of sites served.
int expectSeedPicksMatchSpec(const EphemerisService& eph,
                             const SweepConfig& cfg, double tSeconds,
                             Rng& rng) {
  std::vector<SessionSeed> seeds;
  for (int k = 0; k < 100; ++k) {
    const double latRad = std::asin(rng.uniform(-1.0, 1.0));
    const double lonRad = rng.uniform(-std::numbers::pi, std::numbers::pi);
    seeds.push_back(SessionSeed{static_cast<UserId>(k + 1),
                                Geodetic{latRad, lonRad, 0.0},
                                kNeverExpiresS, 0});
  }
  SessionTable table(eph.size());
  const HandoverSweep sweep(eph, cfg);
  sweep.seed(table, seeds, tSeconds, SeedMode::Planner);
  const auto& sats = eph.satellites();
  int served = 0;
  for (const SessionSeed& seed : seeds) {
    SCOPED_TRACE("t " + std::to_string(tSeconds) + " user " +
                 std::to_string(seed.user));
    const SessionTable::SessionView view = table.find(seed.user).value();
    const std::optional<SatelliteId> spec = bestSatelliteAt(
        eph, cfg.minElevationRad, seed.location, tSeconds);
    if (!spec) {
      EXPECT_EQ(view.state, SessionState::Scanning);
      EXPECT_EQ(view.servingSat, kNoSatellite);
      continue;
    }
    ++served;
    EXPECT_EQ(view.state, SessionState::Serving);
    EXPECT_EQ(sats.at(view.servingSat), *spec);
    EXPECT_EQ(bitsOf(view.nextEventS),
              bitsOf(visibilityEndS(eph, cfg.minElevationRad, *spec,
                                    seed.location, tSeconds)));
  }
  return served;
}

TEST_F(SessionSweepTest, PlannerSeedPicksMatchSpecOnRandomCases) {
  // 3,000 (site, time) cases: 10 random times x 100 sites uniform on the
  // sphere, on Iridium (~2 satellites in view), the 528 Delta and the
  // 5,040 Delta (~100 in view at mid latitudes, none near the poles).
  const EphemerisService delta528 = walkerDelta528();
  const EphemerisService delta5040 = walkerDelta5040();
  Rng rng(2031);
  for (const EphemerisService* eph :
       {static_cast<const EphemerisService*>(&eph_), &delta528, &delta5040}) {
    SCOPED_TRACE(std::to_string(eph->size()) + " satellites");
    int served = 0;
    for (int round = 0; round < 10; ++round) {
      served +=
          expectSeedPicksMatchSpec(*eph, cfg_, rng.uniform(0.0, 86'400.0), rng);
    }
    EXPECT_GT(served, 600);
  }
}

TEST_F(SessionSweepTest, EqualEndsGoToTheLowerIndex) {
  // Every satellite of the 528 Delta is published twice with identical
  // elements, so each pair's visibility ends are equal bit for bit. The
  // spec keeps the first of equal ends in ascending order: the lower
  // index, in seeding and at every handover. Half the pairs put the copy
  // first, so the lower index is sometimes the later publication.
  const auto shell = makeWalkerDelta({528, 24, 1, km(550.0), deg2rad(53.0)});
  EphemerisService twins;
  for (std::size_t i = 0; i < shell.size(); ++i) {
    twins.publish(ProviderId{1}, shell[i]);
    if (i % 2 == 0) twins.publish(ProviderId{2}, shell[i]);
  }
  for (std::size_t i = 0; i < shell.size(); ++i) {
    if (i % 2 == 1) twins.publish(ProviderId{2}, shell[i]);
  }
  const double T = 900.0;
  const SweepRun run = runSweepOn(twins, sites_, evenEpochs(0.0, 15.0, T));
  std::size_t handovers = 0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    const HandoverTimeline spec = simulateHandovers(
        twins, mask_, sites_[i], 0.0, T, HandoverMode::Predictive);
    handovers += spec.events.size();
    expectMatchesLegacyOn(twins, eventsOf(run.events, i + 1), spec);
  }
  EXPECT_GT(handovers, 0u);
  Rng rng(7);
  for (int round = 0; round < 3; ++round) {
    expectSeedPicksMatchSpec(twins, cfg_, rng.uniform(0.0, 3'600.0), rng);
  }
}

TEST_F(SessionSweepTest, DegenerateFleetsAndSitesMatchLegacy) {
  // Retrograde, equatorial and Molniya-like fleets, seen from both poles,
  // the antimeridian and one mid-latitude city. The Molniya orbits'
  // passes outlast the 3,600 s horizon, so several candidates end at the
  // horizon together, and their eccentricity makes the probe's sample
  // differ from the full search's warm-started one in the last bits.
  EphemerisService retrograde;
  for (const auto& el :
       makeWalkerDelta({288, 12, 1, km(550.0), deg2rad(98.0)})) {
    retrograde.publish(ProviderId{1}, el);
  }
  EphemerisService equatorial;
  for (const auto& el : makeWalkerDelta({40, 1, 0, km(800.0), 0.0})) {
    equatorial.publish(ProviderId{1}, el);
  }
  for (const auto& el : makeWalkerDelta({24, 1, 0, km(1'400.0), 0.0})) {
    equatorial.publish(ProviderId{1}, el);
  }
  EphemerisService molniya;
  for (int k = 0; k < 12; ++k) {
    OrbitalElements el;
    el.semiMajorAxisM = km(26'560.0);
    el.eccentricity = 0.74;
    el.inclinationRad = deg2rad(63.4);
    el.argPerigeeRad = deg2rad(270.0);
    el.raanRad = deg2rad(30.0 * k);
    el.meanAnomalyAtEpochRad = deg2rad(97.0 * k);
    molniya.publish(ProviderId{1}, el);
  }
  const std::vector<Geodetic> sites = {
      Geodetic::fromDegrees(90.0, 0.0),      // north pole
      Geodetic::fromDegrees(-90.0, 0.0),     // south pole
      Geodetic::fromDegrees(0.0, 180.0),     // antimeridian, equator
      Geodetic::fromDegrees(35.0, -180.0),   // antimeridian, north
      Geodetic::fromDegrees(-62.0, 180.0),   // antimeridian, south
      Geodetic::fromDegrees(40.44, -79.99),  // Pittsburgh
  };
  struct Case {
    const char* name;
    const EphemerisService* eph;
    double T;
    double epochS;
  };
  for (const Case& c : {Case{"retrograde", &retrograde, 1'800.0, 15.0},
                        Case{"equatorial", &equatorial, 1'800.0, 15.0},
                        Case{"molniya", &molniya, 10'800.0, 300.0}}) {
    const SweepRun run =
        runSweepOn(*c.eph, sites, evenEpochs(0.0, c.epochS, c.T));
    std::size_t handovers = 0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      SCOPED_TRACE(std::string(c.name) + " site " + std::to_string(i));
      const HandoverTimeline spec = simulateHandovers(
          *c.eph, mask_, sites[i], 0.0, c.T, HandoverMode::Predictive);
      handovers += spec.events.size();
      expectMatchesLegacyOn(*c.eph, eventsOf(run.events, i + 1), spec);
    }
    EXPECT_GT(handovers, 0u) << c.name;
  }
}

/// The margin of the index runEpoch compiles at a 60 s window's centre —
/// the drift bound over the window's half-span plus the query offset.
double windowMarginRad(const HandoverSweep& sweep) {
  return sweep.maxAngularRateRadPerS() * (30.0 + 1e-3) + 1e-6;
}

TEST_F(SessionSweepTest, WindowIndexCandidatesCoverTheWholeWindow) {
  // What the windowed index's bit-identity rests on: every satellite at or
  // above the mask at any query time of the window [c - 30 s - 1e-3,
  // c + 30 s] is a ground candidate of the index compiled at the centre c.
  // A half-epoch (7.5 s) margin misses some of them over these samples.
  const EphemerisService delta = walkerDelta528();
  const EphemerisService* const fleets[] = {&eph_, &delta};
  for (const EphemerisService* eph : fleets) {
    const HandoverSweep sweep(*eph, cfg_);
    for (const double centreS : {30.0, 1'230.0}) {
      const auto index = FootprintIndex2::compiled(
          SnapshotCache::global().at(sweep.fleet(), centreS), mask_,
          windowMarginRad(sweep));
      std::size_t visible = 0;
      std::size_t missed = 0;
      for (double dt = -30.0 - 1e-3; dt <= 30.0; dt += 5.0) {
        const ConstellationSnapshot at(sweep.fleet(), centreS + dt);
        for (int lat = -80; lat <= 80; lat += 8) {
          for (int lon = -180; lon < 180; lon += 12) {
            const Vec3 site =
                geodeticToEcef(Geodetic::fromDegrees(lat + 0.3, lon + 0.7));
            const GroundObserver observer(site);
            std::vector<std::uint32_t> candidates;
            index->forEachGroundCandidate(
                site, [&](std::uint32_t i) { candidates.push_back(i); });
            std::sort(candidates.begin(), candidates.end());
            for (std::uint32_t i = 0; i < at.size(); ++i) {
              if (observer.elevationTo(at.ecef(i)) < mask_) continue;
              ++visible;
              missed += std::binary_search(candidates.begin(),
                                           candidates.end(), i)
                            ? 0
                            : 1;
            }
          }
        }
      }
      EXPECT_GT(visible, 0u);
      EXPECT_EQ(missed, 0u) << eph->size() << " satellites, centre "
                            << centreS << " s";
    }
  }
}

TEST_F(SessionSweepTest, FifteenSecondEpochsCompileOneIndexPerWindow) {
  // A fleet no other test compiles, so every index below is this test's.
  WalkerConfig wc = iridiumConfig();
  wc.altitudeM = km(805.0);
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  SessionTable table(eph.satellites().size());
  const HandoverSweep sweep(eph, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  const std::size_t hits0 = FootprintIndex2::compiledCacheHits();
  const std::size_t misses0 = FootprintIndex2::compiledCacheMisses();
  for (const double t1 : evenEpochs(0.0, 15.0, 120.0)) {
    sweep.runEpoch(table, t1);
  }
  // Windows [0, 60] and [60, 120]: one compile each, three reuses each.
  EXPECT_EQ(FootprintIndex2::compiledCacheMisses() - misses0, 2u);
  EXPECT_EQ(FootprintIndex2::compiledCacheHits() - hits0, 6u);
  // ...and the key is the window centre at the window margin that
  // WindowIndexCandidatesCoverTheWholeWindow checks.
  (void)FootprintIndex2::compiled(
      SnapshotCache::global().at(sweep.fleet(), 90.0), mask_,
      windowMarginRad(sweep));
  EXPECT_EQ(FootprintIndex2::compiledCacheMisses() - misses0, 2u);
}

TEST_F(SessionSweepTest, FineEpochPartitionStillMatchesLegacy) {
  const double T = 1'800.0;
  std::vector<double> fine;
  for (double t = 60.0; t <= T; t += 60.0) fine.push_back(t);
  const SweepRun run = runSweep(sites_, fine);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(
        eventsOf(run.events, i + 1),
        simulateHandovers(eph_, mask_, sites_[i], 0.0, T, HandoverMode::Predictive));
  }
}

TEST_F(SessionSweepTest, ReAssociateModeMatchesLegacyToo) {
  cfg_.mode = HandoverMode::ReAssociate;
  const double T = 1'200.0;
  const SweepRun run = runSweep(sites_, {400.0, 800.0, T});
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(i));
    expectMatchesLegacy(eventsOf(run.events, i + 1),
                        simulateHandovers(eph_, mask_, sites_[i], 0.0, T,
                                          HandoverMode::ReAssociate));
  }
}

/// One user's whole window run as a one-user, one-shard table swept in a
/// single epoch (bench_handover's setup): events and EpochStats::outageS
/// must be bit-for-bit the spec timeline's. Returns the spec timeline.
HandoverTimeline expectOutageMatchesSpec(const EphemerisService& eph,
                                         const Geodetic& site, double T,
                                         HandoverMode mode) {
  const double mask = deg2rad(10.0);
  SweepConfig cfg;
  cfg.minElevationRad = mask;
  cfg.mode = mode;
  SessionTable table(eph.size(), 1);
  const HandoverSweep sweep(eph, cfg);
  sweep.seed(table, {SessionSeed{1, site, kNeverExpiresS, 1}}, 0.0,
             SeedMode::Planner);
  std::vector<SessionEvent> events;
  const EpochStats stats = sweep.runEpoch(table, T, &events);
  const HandoverTimeline spec = simulateHandovers(eph, mask, site, 0.0, T, mode);
  EXPECT_EQ(bitsOf(stats.outageS), bitsOf(spec.outageS))
      << stats.outageS << " vs " << spec.outageS;
  EXPECT_EQ(stats.handovers, spec.events.size());
  const auto& sats = eph.satellites();
  for (std::size_t j = 0; j < std::min(events.size(), spec.events.size());
       ++j) {
    EXPECT_EQ(bitsOf(events[j].atS), bitsOf(spec.events[j].atS)) << j;
    EXPECT_EQ(sats[events[j].fromSat], spec.events[j].from) << j;
    EXPECT_EQ(sats[events[j].toSat], spec.events[j].to) << j;
    EXPECT_EQ(bitsOf(events[j].latencyS), bitsOf(spec.events[j].latencyS)) << j;
  }
  return spec;
}

TEST_F(SessionSweepTest, OutageMatchesSpecOnAnchorCBothModes) {
  // EXPERIMENTS Anchor C: Pittsburgh under the 66-sat star, two hours.
  const Geodetic pittsburgh = Geodetic::fromDegrees(40.4406, -79.9959);
  for (const HandoverMode mode :
       {HandoverMode::Predictive, HandoverMode::ReAssociate}) {
    SCOPED_TRACE(mode == HandoverMode::Predictive ? "predictive" : "reassoc");
    const HandoverTimeline spec =
        expectOutageMatchesSpec(eph_, pittsburgh, 7'200.0, mode);
    EXPECT_GT(spec.handovers(), 0);
  }
}

TEST(SessionSweepOutage, SparseFleetCoverageHolesMatchSpec) {
  // bench_handover's 22- and 44-satellite cadence rows: fleets this sparse
  // leave coverage holes, so the outage is mostly hole and acquisition
  // time, accrued through the sweep's Scanning state.
  const Geodetic pittsburgh = Geodetic::fromDegrees(40.4406, -79.9959);
  for (const int n : {22, 44}) {
    SCOPED_TRACE(n);
    EphemerisService eph;
    WalkerConfig wc = iridiumConfig();
    wc.totalSatellites = n;
    wc.planes = n / 11;
    wc.phasing = wc.phasing % wc.planes;
    for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
    const HandoverTimeline spec = expectOutageMatchesSpec(
        eph, pittsburgh, 7'200.0, HandoverMode::Predictive);
    EXPECT_GT(spec.outageS, 600.0);  // holes, not just signaling
  }
}

TEST_F(SessionSweepTest, FinalTableStateIsPartitionInvariant) {
  const double T = 1'800.0;
  const SweepRun one = runSweep(sites_, {T});
  const SweepRun uneven = runSweep(sites_, {250.0, 251.0, 900.0, T});
  std::vector<double> fine;
  for (double t = 60.0; t <= T; t += 60.0) fine.push_back(t);
  const SweepRun many = runSweep(sites_, fine);
  EXPECT_EQ(one.finalChecksum, uneven.finalChecksum);
  EXPECT_EQ(one.finalChecksum, many.finalChecksum);
  // At the 15 s cadence a coverage hole spans an epoch edge, and a session
  // that re-acquires keeps its stale outage anchor — the last edge it was
  // parked at — so stateChecksum() (which folds that field) depends on the
  // partition there. Every field a session reports still must not.
  const SweepRun cadence = runSweep(sites_, evenEpochs(0.0, 15.0, T));
  for (const SweepRun* run : {&uneven, &many, &cadence}) {
    ASSERT_EQ(run->finalViews.size(), one.finalViews.size());
    for (std::size_t i = 0; i < one.finalViews.size(); ++i) {
      const SessionTable::SessionView& a = one.finalViews[i];
      const SessionTable::SessionView& b = run->finalViews[i];
      EXPECT_EQ(a.state, b.state) << i;
      EXPECT_EQ(a.servingSat, b.servingSat) << i;
      EXPECT_EQ(bitsOf(a.nextEventS), bitsOf(b.nextEventS)) << i;
      EXPECT_EQ(bitsOf(a.certExpiresAtS), bitsOf(b.certExpiresAtS)) << i;
      EXPECT_EQ(a.certTag, b.certTag) << i;
    }
    EXPECT_EQ(run->finalOccupancy, one.finalOccupancy);
  }
}

// --- determinism ----------------------------------------------------------

TEST_F(SessionSweepTest, SerialAndParallelSweepsAreBitIdentical) {
  ThreadCountGuard guard;
  const auto expectThreadInvariant = [&](const std::vector<double>& boundaries) {
    setParallelThreadCount(1);
    const SweepRun serial = runSweep(sites_, boundaries);
    for (const int threads : {2, 4, 16}) {
      setParallelThreadCount(threads);
      const SweepRun parallel = runSweep(sites_, boundaries);
      EXPECT_EQ(parallel.finalChecksum, serial.finalChecksum) << threads;
      ASSERT_EQ(parallel.stats.size(), serial.stats.size());
      for (std::size_t e = 0; e < serial.stats.size(); ++e) {
        EXPECT_EQ(parallel.stats[e].eventChecksum,
                  serial.stats[e].eventChecksum)
            << threads << " epoch " << e;
        EXPECT_EQ(parallel.stats[e].handovers, serial.stats[e].handovers);
        EXPECT_EQ(bitsOf(parallel.stats[e].outageS),
                  bitsOf(serial.stats[e].outageS));
      }
      ASSERT_EQ(parallel.events.size(), serial.events.size());
      for (std::size_t j = 0; j < serial.events.size(); ++j) {
        EXPECT_EQ(parallel.events[j].user, serial.events[j].user);
        EXPECT_EQ(bitsOf(parallel.events[j].atS),
                  bitsOf(serial.events[j].atS));
      }
    }
  };
  expectThreadInvariant({300.0, 900.0, 1'800.0});
  expectThreadInvariant(evenEpochs(0.0, 15.0, 1'800.0));
}

// --- seeding --------------------------------------------------------------

TEST_F(SessionSweepTest, ClosestAssociationSeedingMatchesAssociateUsers) {
  std::vector<OrbitalElements> fleet;
  for (const SatelliteId sid : eph_.satellites()) {
    fleet.push_back(eph_.record(sid).elements);
  }
  const auto assoc = associateUsers(fleet, 0.0, sites_, mask_);
  SessionTable table(fleet.size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::ClosestAssociation);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const auto view = table.find(i + 1);
    ASSERT_TRUE(view.has_value()) << i;
    if (assoc[i].covered) {
      EXPECT_EQ(view->state, SessionState::Serving) << i;
      EXPECT_EQ(view->servingSat, assoc[i].satelliteIndex) << i;
    } else {
      EXPECT_EQ(view->state, SessionState::Scanning) << i;
    }
  }
}

TEST_F(SessionSweepTest, SeedValidatesClockAndDuplicates) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  const auto seeds = seedsFor(sites_);
  sweep.seed(table, seeds, 0.0, SeedMode::Planner);
  // Active duplicates are a caller bug.
  EXPECT_THROW(sweep.seed(table, seeds, 0.0, SeedMode::Planner),
               InvalidArgumentError);
  // Later seeds must arrive at the table clock (an epoch boundary).
  std::vector<SessionSeed> late = {
      SessionSeed{99, Geodetic::fromDegrees(10.0, 10.0), kNeverExpiresS, 7}};
  EXPECT_THROW(sweep.seed(table, late, 123.0, SeedMode::Planner),
               InvalidArgumentError);
  sweep.seed(table, late, 0.0, SeedMode::Planner);
  EXPECT_EQ(table.size(), sites_.size() + 1);
}

TEST_F(SessionSweepTest, RunEpochRequiresForwardTime) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  EXPECT_THROW(sweep.runEpoch(table, 0.0), InvalidArgumentError);
  EXPECT_THROW(sweep.runEpoch(table, -5.0), InvalidArgumentError);
  sweep.runEpoch(table, 60.0);
  EXPECT_DOUBLE_EQ(table.clockS(), 60.0);
  EXPECT_THROW(sweep.runEpoch(table, 59.0), InvalidArgumentError);
}

TEST_F(SessionSweepTest, NonFiniteTimesThrowBeforeTouchingTheCaches) {
  // A NaN seed time used to fail deep in the footprint build ("altitude
  // must be > 0"), and runEpoch(+inf) passed the forward-time check and
  // looked up an all-NaN snapshot before the index build threw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Every lookup either cache has served: unchanged means untouched.
  const auto cacheLookups = [] {
    return std::vector<std::size_t>{SnapshotCache::global().hits(),
                                    SnapshotCache::global().misses(),
                                    FootprintIndex2::compiledCacheHits(),
                                    FootprintIndex2::compiledCacheMisses()};
  };
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  const auto beforeSeed = cacheLookups();
  for (const double t : {nan, inf, -inf}) {
    EXPECT_THROW(sweep.seed(table, seedsFor(sites_), t, SeedMode::Planner),
                 InvalidArgumentError);
  }
  EXPECT_EQ(cacheLookups(), beforeSeed);
  EXPECT_EQ(table.size(), 0u);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  const auto beforeEpoch = cacheLookups();
  for (const double t : {nan, inf, -inf}) {
    EXPECT_THROW(sweep.runEpoch(table, t), InvalidArgumentError);
  }
  EXPECT_EQ(cacheLookups(), beforeEpoch);
  EXPECT_EQ(table.clockS(), 0.0);
  sweep.runEpoch(table, 60.0);  // the table is still usable
  table.audit();
}

// --- table accounting -----------------------------------------------------

TEST_F(SessionSweepTest, OccupancyTracksServingSessions) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  const auto countServing = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      const auto v = table.find(i + 1);
      n += (v && v->state == SessionState::Serving) ? 1 : 0;
    }
    return n;
  };
  const auto occupancySum = [&] {
    std::uint64_t n = 0;
    for (const std::uint64_t c : table.perSatelliteOccupancy()) n += c;
    return n;
  };
  EXPECT_EQ(occupancySum(), countServing());
  sweep.runEpoch(table, 900.0);
  EXPECT_EQ(occupancySum(), countServing());
  sweep.runEpoch(table, 1'800.0);
  EXPECT_EQ(occupancySum(), countServing());
}

TEST_F(SessionSweepTest, CertificateCacheCoversEveryHandover) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::size_t handovers = 0, hits = 0, misses = 0;
  for (const double t1 : {600.0, 1'200.0, 1'800.0, 2'400.0}) {
    const EpochStats s = sweep.runEpoch(table, t1);
    handovers += s.handovers;
    hits += s.certCacheHits;
    misses += s.certCacheMisses;
  }
  ASSERT_GT(handovers, 0u);
  // Every executed handover runs exactly one certificate check.
  EXPECT_EQ(hits + misses, handovers);
  // Steady state: each user misses once (first handover), then hits.
  EXPECT_GT(hits, 0u);
  EXPECT_LE(misses, sites_.size());
  EXPECT_GT(table.certificateCacheApproxBytes(), 0u);
}

TEST_F(SessionSweepTest, TinyCertificateCacheBudgetStillWorks) {
  SessionTable table(eph_.satellites().size());
  const std::size_t previous = table.setCertificateCacheByteBudget(0);
  EXPECT_GT(previous, 0u);
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  std::size_t handovers = 0, hits = 0, misses = 0;
  for (const double t1 : {600.0, 1'200.0, 1'800.0}) {
    const EpochStats s = sweep.runEpoch(table, t1);
    handovers += s.handovers;
    hits += s.certCacheHits;
    misses += s.certCacheMisses;
  }
  // Accounting still exact, and the cache never exceeds one entry per
  // shard worth of bytes by much (newest-entry exemption).
  EXPECT_EQ(hits + misses, handovers);
}

TEST_F(SessionSweepTest, DisassociateRegionDropsAndReseedRestores) {
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  sweep.seed(table, seedsFor(sites_), 0.0, SeedMode::Planner);
  sweep.runEpoch(table, 600.0);
  const std::size_t activeBefore = table.activeCount();
  // Drop everything within 500 km of London — exactly one test site.
  const std::size_t dropped =
      table.disassociateRegion(Geodetic::fromDegrees(51.5, -0.13), 500.0e3);
  EXPECT_EQ(dropped, 1u);
  table.audit();
  EXPECT_EQ(table.activeCount(), activeBefore - 1);
  const auto view = table.find(3);  // London is sites_[2] -> user 3
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, SessionState::Disassociated);
  EXPECT_EQ(view->servingSat, kNoSatellite);
  // The dropped user re-associates in place at the current clock.
  std::vector<SessionSeed> reseed = {
      SessionSeed{3, sites_[2], kNeverExpiresS, 0xBEEF}};
  sweep.seed(table, reseed, table.clockS(), SeedMode::ClosestAssociation);
  EXPECT_EQ(table.activeCount(), activeBefore);
  EXPECT_EQ(table.size(), sites_.size());  // in place, not a new slot
  const auto after = table.find(3);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->state, SessionState::Disassociated);
  EXPECT_EQ(after->certTag, 0xBEEFu);
  table.audit();
  sweep.runEpoch(table, 1'200.0);  // and the run continues fine
  table.audit();
}

TEST_F(SessionSweepTest, ExpiredCertificatesDropSessionsAtHandover) {
  cfg_.dropOnCertExpiry = true;
  SessionTable table(eph_.satellites().size());
  const HandoverSweep sweep(eph_, cfg_);
  // Certificates die at t=300: the first post-expiry handover drops each
  // session instead of adopting a successor.
  sweep.seed(table, seedsFor(sites_, 300.0), 0.0, SeedMode::Planner);
  std::size_t expiries = 0;
  for (const double t1 : {900.0, 1'800.0, 2'700.0, 3'600.0}) {
    expiries += sweep.runEpoch(table, t1).certExpiries;
  }
  EXPECT_GT(expiries, 0u);
  EXPECT_LT(table.activeCount(), sites_.size());
  bool sawDropped = false;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const auto v = table.find(i + 1);
    ASSERT_TRUE(v.has_value());
    if (v->state == SessionState::Disassociated) sawDropped = true;
  }
  EXPECT_TRUE(sawDropped);
}

TEST_F(SessionSweepTest, TableValidatesConstruction) {
  EXPECT_THROW(SessionTable(0), InvalidArgumentError);
  SessionTable table(66, 0);  // shard count clamps to >= 1
  EXPECT_EQ(table.shardCount(), 1u);
  EXPECT_EQ(table.fleetSize(), 66u);
  EXPECT_FALSE(table.find(1).has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_GT(table.approxBytes(), 0u);
}

TEST_F(SessionSweepTest, SweepValidatesConstruction) {
  EphemerisService empty;
  EXPECT_THROW(HandoverSweep(empty, cfg_), InvalidArgumentError);
  SweepConfig bad = cfg_;
  bad.minElevationRad = -0.1;
  EXPECT_THROW(HandoverSweep(eph_, bad), InvalidArgumentError);
  // A bad horizon used to surface only once a search found a visible
  // candidate; now the constructor refuses it.
  for (const double horizonS : {-1.0, std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    bad = cfg_;
    bad.horizonS = horizonS;
    EXPECT_THROW(HandoverSweep(eph_, bad), InvalidArgumentError) << horizonS;
  }
  const HandoverSweep sweep(eph_, cfg_);
  EXPECT_EQ(sweep.fleet().size(), eph_.satellites().size());
  EXPECT_GT(sweep.maxAngularRateRadPerS(), 0.0);
}

TEST_F(SessionSweepTest, SweepRejectsNanMask) {
  // A NaN mask used to construct, then crash in the first seed's index
  // build.
  SweepConfig bad = cfg_;
  bad.minElevationRad = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(HandoverSweep(eph_, bad), InvalidArgumentError);
}

TEST(SessionStateNames, AllNamed) {
  for (const auto s : {SessionState::Serving, SessionState::Scanning,
                       SessionState::Disassociated}) {
    EXPECT_NE(sessionStateName(s), "?");
  }
}

// --- session scenarios ----------------------------------------------------
//
// Three stress patterns the session plane has to absorb (paper §5(1) user
// modeling x §2.2 handovers): a flash crowd, a regional outage with
// re-association, and diurnal arrivals. One harness seeds a base population
// at t = 0 and runs four 60 s sweep epochs; each scenario is a hook called
// at every epoch boundary. The literal pins fix every Rng draw and epoch.

void expectEventChecksums(const std::vector<EpochStats>& epochs,
                          const std::vector<std::uint64_t>& want) {
  ASSERT_EQ(epochs.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(epochs[e].eventChecksum, want[e]) << "epoch " << e;
  }
}

struct ScenarioRun {
  std::vector<EpochStats> epochs;
  std::size_t seededUsers = 0;  ///< Base population plus every later seed.
  std::size_t droppedSessions = 0;
  std::size_t finalActive = 0;
  std::uint64_t finalStateChecksum = 0;
};

class SessionScenarioTest : public ::testing::Test {
 protected:
  /// Runs before epoch `e` and returns the seeds to associate at its start.
  using BoundaryHook = std::function<std::vector<SessionSeed>(
      std::size_t e, SessionTable& table, Rng& rng, ScenarioRun& run)>;

  SessionScenarioTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{1}, el);
    }
  }

  ScenarioRun runScenario(const BoundaryHook& atBoundary) {
    Rng rng(42);
    SweepConfig cfg;
    cfg.minElevationRad = 0.1745;
    const HandoverSweep sweep(eph_, cfg);
    SessionTable table(eph_.satellites().size());
    ScenarioRun run;
    base_ = issueSeedCertificates(ca_, world_.sampleUsers(400, rng),
                                  /*firstUser=*/1, 0.0);
    sweep.seed(table, base_, 0.0, SeedMode::ClosestAssociation);
    run.seededUsers = base_.size();
    for (std::size_t e = 0; e < 4; ++e) {
      const auto seeds = atBoundary(e, table, rng, run);
      if (!seeds.empty()) {
        sweep.seed(table, seeds, table.clockS(), SeedMode::ClosestAssociation);
        run.seededUsers += seeds.size();
      }
      run.epochs.push_back(sweep.runEpoch(table, table.clockS() + 60.0));
    }
    run.finalActive = table.activeCount();
    run.finalStateChecksum = table.stateChecksum();
    return run;
  }

  /// 120 users land within 50 km of London at the epoch-2 boundary.
  ScenarioRun flashCrowd() {
    return runScenario([&](std::size_t e, SessionTable& table, Rng& rng,
                           ScenarioRun& run) -> std::vector<SessionSeed> {
      if (e != 2) return {};
      return flashCrowdSeeds(ca_, Geodetic::fromDegrees(51.5, -0.13), 50.0e3,
                             120, 1 + run.seededUsers, table.clockS(), rng);
    });
  }

  /// Every session within `radiusM` of New York drops at the epoch-2
  /// boundary; the base users there re-associate, with fresh certificates,
  /// one epoch later.
  ScenarioRun regionalOutage(double radiusM) {
    const Geodetic center = Geodetic::fromDegrees(40.7, -74.0);
    return runScenario([&](std::size_t e, SessionTable& table, Rng&,
                           ScenarioRun& run) {
      std::vector<SessionSeed> reseed;
      if (e == 2) run.droppedSessions = table.disassociateRegion(center, radiusM);
      if (e != 3) return reseed;
      const Vec3 centerEcef = geodeticToEcef(center);
      for (const SessionSeed& s : base_) {
        if (geodeticToEcef(s.location).distanceTo(centerEcef) > radiusM) continue;
        const Certificate cert = ca_.issue(s.user, table.clockS());
        reseed.push_back(SessionSeed{s.user, s.location, cert.expiresAtS, cert.tag});
      }
      return reseed;
    });
  }

  /// Each boundary draws 80 candidates and admits each with probability
  /// diurnalDemandFactor at its longitude, so arrivals track the evening
  /// peak westward.
  ScenarioRun diurnalLoadShift() {
    return runScenario([&](std::size_t, SessionTable& table, Rng& rng,
                           ScenarioRun& run) {
      std::vector<SampledUser> admitted;
      for (const SampledUser& c : world_.sampleUsers(80, rng)) {
        if (rng.chance(diurnalDemandFactor(table.clockS(),
                                           c.location.longitudeRad))) {
          admitted.push_back(c);
        }
      }
      return issueSeedCertificates(ca_, admitted, 1 + run.seededUsers,
                                   table.clockS());
    });
  }

  EphemerisService eph_;
  const CertificateAuthority ca_{ProviderId{1}, 0x5E55'10'4Aull};
  const PopulationModel world_ = defaultWorldPopulation();
  std::vector<SessionSeed> base_;
};

TEST_F(SessionScenarioTest, FlashCrowdIsDeterministicAndAdmitsTheCrowd) {
  const auto a = flashCrowd();
  const auto b = flashCrowd();
  EXPECT_EQ(a.finalStateChecksum, b.finalStateChecksum);
  EXPECT_GT(a.finalActive, 0u);
  // Pinned: the crowd lands at the epoch-2 boundary, so epochs 0-1 equal
  // the outage scenario's.
  EXPECT_EQ(a.finalStateChecksum, 0xd4a7798ca4957025ull);
  EXPECT_EQ(a.seededUsers, 400u + 120u);
  EXPECT_EQ(a.droppedSessions, 0u);
  expectEventChecksums(a.epochs, {0x8c381517d4242302ull, 0x48a5a1bfcf6e8c23ull,
                                  0x3db8e34694c5a92aull, 0xf0ce0e13a70a2f0bull});
}

TEST_F(SessionScenarioTest, RegionalOutageDropsAndRecovers) {
  // A generous radius around New York catches base-population users.
  const auto res = regionalOutage(1'500.0e3);
  EXPECT_GT(res.droppedSessions, 0u);
  // Every dropped user re-associated one epoch later.
  EXPECT_EQ(res.seededUsers, 400u + res.droppedSessions);
  EXPECT_EQ(res.finalStateChecksum, regionalOutage(1'500.0e3).finalStateChecksum);
  EXPECT_EQ(res.finalStateChecksum, 0x32131d4cb4c7dd24ull);
  EXPECT_EQ(res.seededUsers, 415u);
  EXPECT_EQ(res.droppedSessions, 15u);
  expectEventChecksums(res.epochs,
                       {0x8c381517d4242302ull, 0x48a5a1bfcf6e8c23ull,
                        0xc6d799975c0a5144ull, 0xbe3ecf41ebced9caull});
}

TEST_F(SessionScenarioTest, DiurnalLoadShiftAdmitsArrivalsDeterministically) {
  const auto a = diurnalLoadShift();
  const auto b = diurnalLoadShift();
  EXPECT_EQ(a.finalStateChecksum, b.finalStateChecksum);
  // The diurnal factor is in [0.3, 1.0]: some arrivals must be admitted.
  EXPECT_GT(a.seededUsers, 400u);
  EXPECT_EQ(a.finalStateChecksum, 0x14db64a268e1ce05ull);
  EXPECT_EQ(a.seededUsers, 596u);
  EXPECT_EQ(a.droppedSessions, 0u);
  expectEventChecksums(a.epochs, {0x3936d68029954016ull, 0x4f58e2ef19c2e925ull,
                                  0x8da03397a2a2a8a6ull, 0x523f5f110ad33e5full});
}

TEST_F(SessionScenarioTest, ScenariosAreThreadCountInvariant) {
  ThreadCountGuard guard;
  setParallelThreadCount(1);
  const auto serial = regionalOutage(1'000.0e3);
  setParallelThreadCount(8);
  const auto parallel = regionalOutage(1'000.0e3);
  EXPECT_EQ(serial.finalStateChecksum, parallel.finalStateChecksum);
  EXPECT_EQ(serial.droppedSessions, parallel.droppedSessions);
  ASSERT_EQ(serial.epochs.size(), parallel.epochs.size());
  for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
    EXPECT_EQ(serial.epochs[e].eventChecksum, parallel.epochs[e].eventChecksum);
  }
}

}  // namespace
}  // namespace openspace
