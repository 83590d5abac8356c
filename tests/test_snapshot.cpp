// Unit tests for the constellation-snapshot engine: the parallel-for
// primitive, snapshot correctness against brute-force propagation, the
// spatially pruned ISL adjacency, the snapshot LRU cache, and the
// determinism contract (parallel == serial, bit for bit).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/sim/fig2.hpp>
#include <openspace/spec/footprint_index.hpp>

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

std::vector<OrbitalElements> testConstellation(int n, std::uint64_t seed = 7) {
  Rng rng(seed);
  return makeRandomConstellation(n, km(780.0), rng);
}

// --- parallelFor ---------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    setParallelThreadCount(threads);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    parallelFor(hits.size(), 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, ChunkBoundariesAreFixed) {
  ThreadCountGuard guard;
  // The decomposition must not depend on the thread count: record the
  // (begin, end) pairs serially and check the parallel run sees the same
  // set.
  const std::size_t count = 107, chunk = 10;
  std::vector<std::pair<std::size_t, std::size_t>> serial;
  setParallelThreadCount(1);
  parallelFor(count, chunk, [&](std::size_t b, std::size_t e) {
    serial.emplace_back(b, e);
  });
  ASSERT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.back().second, count);  // short tail chunk

  setParallelThreadCount(4);
  std::vector<std::atomic<bool>> seen(serial.size());
  for (auto& s : seen) s = false;
  parallelFor(count, chunk, [&](std::size_t b, std::size_t e) {
    ASSERT_EQ(b % chunk, 0u);
    EXPECT_EQ(e, std::min(b + chunk, count));
    seen[b / chunk] = true;
  });
  for (const auto& s : seen) EXPECT_TRUE(s);
}

TEST(ParallelFor, EmptyRangeAndZeroChunk) {
  int calls = 0;
  parallelFor(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(parallelFor(10, 0, [](std::size_t, std::size_t) {}),
               InvalidArgumentError);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    setParallelThreadCount(threads);
    EXPECT_THROW(
        parallelFor(100, 8,
                    [](std::size_t begin, std::size_t) {
                      if (begin >= 32) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  setParallelThreadCount(4);
  std::atomic<int> total{0};
  parallelFor(8, 1, [&](std::size_t, std::size_t) {
    parallelFor(8, 1, [&](std::size_t, std::size_t) { ++total; });
  });
  EXPECT_EQ(total, 64);
}

TEST(ParallelFor, ThreadCountOverrideClamps) {
  ThreadCountGuard guard;
  setParallelThreadCount(-3);
  EXPECT_EQ(parallelThreadCount(), 1);
  setParallelThreadCount(5);
  EXPECT_EQ(parallelThreadCount(), 5);
}

// --- ChunkTurns -----------------------------------------------------------

TEST(ChunkTurns, SectionsRunInChunkOrderBetweenFreeWork) {
  ThreadCountGuard guard;
  for (const int threads : {1, 2, 4}) {
    setParallelThreadCount(threads);
    // Two ordered stages around unordered work: the first hands out values
    // from one running counter, the second appends them.
    ChunkTurns draw;
    ChunkTurns append;
    std::uint64_t counter = 0;
    std::vector<std::uint64_t> order;
    std::vector<std::size_t> chunks;
    parallelFor(1'000, 7, [&](std::size_t begin, std::size_t end) {
      const std::size_t chunk = begin / 7;
      std::vector<std::uint64_t> mine;
      ASSERT_TRUE(draw.inOrder(chunk, [&] {
        for (std::size_t i = begin; i < end; ++i) mine.push_back(counter++);
      }));
      for (std::uint64_t& v : mine) v = v * v;  // free work
      ASSERT_TRUE(append.inOrder(chunk, [&] {
        chunks.push_back(chunk);
        order.insert(order.end(), mine.begin(), mine.end());
      }));
    });
    ASSERT_EQ(order.size(), 1'000u) << threads;
    for (std::uint64_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], i * i) << threads;
    }
    for (std::size_t c = 0; c < chunks.size(); ++c) ASSERT_EQ(chunks[c], c);
  }
}

TEST(ChunkTurns, AThrowingChunkSkipsLaterSectionsAndRethrows) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    setParallelThreadCount(threads);
    for (const bool throwInSection : {true, false}) {
      ChunkTurns turns;
      std::atomic<std::size_t> skipped{0};
      std::vector<std::size_t> ran;
      EXPECT_THROW(
          parallelFor(64, 1,
                      [&](std::size_t chunk, std::size_t) {
                        try {
                          if (!throwInSection && chunk == 5) {
                            throw std::runtime_error("outside");
                          }
                          if (!turns.inOrder(chunk, [&] {
                                if (chunk == 5) throw std::runtime_error("in");
                                ran.push_back(chunk);
                              })) {
                            ++skipped;
                          }
                        } catch (...) {
                          turns.fail();
                          throw;
                        }
                      }),
          std::runtime_error);
      // Chunks 0-4 ran in order; nothing after 5 ran, and no wait hung.
      for (std::size_t c = 0; c < ran.size(); ++c) EXPECT_EQ(ran[c], c);
      EXPECT_LE(ran.size(), 5u);
      if (threads == 1) {
        EXPECT_EQ(ran.size(), 5u);  // the serial loop stops at the throw
        EXPECT_EQ(skipped, 0u);
      }
    }
  }
}

// --- ConstellationSnapshot ----------------------------------------------

TEST(Snapshot, MatchesBruteForcePropagation) {
  const auto sats = testConstellation(24);
  const double t = 345.6;
  const ConstellationSnapshot snap(sats, t);
  ASSERT_EQ(snap.size(), sats.size());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const Vec3 eci = positionEci(sats[i], t);
    const Vec3 ecef = eciToEcef(eci, t);
    EXPECT_DOUBLE_EQ(snap.eci(i).x, eci.x);
    EXPECT_DOUBLE_EQ(snap.eci(i).y, eci.y);
    EXPECT_DOUBLE_EQ(snap.eci(i).z, eci.z);
    EXPECT_DOUBLE_EQ(snap.ecef(i).x, ecef.x);
    EXPECT_DOUBLE_EQ(snap.ecef(i).y, ecef.y);
    EXPECT_DOUBLE_EQ(snap.ecef(i).z, ecef.z);
  }
}

TEST(Snapshot, EphemerisConstructorFollowsPublicationOrder) {
  const auto sats = testConstellation(10);
  EphemerisService eph;
  for (const auto& el : sats) eph.publish(ProviderId{1}, el);
  const double t = 100.0;
  const ConstellationSnapshot snap(eph, t);
  ASSERT_EQ(snap.size(), sats.size());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const Vec3 eci = eph.positionEci(eph.satellites()[i], t);
    EXPECT_DOUBLE_EQ(snap.eci(i).x, eci.x);
    EXPECT_DOUBLE_EQ(snap.eci(i).y, eci.y);
    EXPECT_DOUBLE_EQ(snap.eci(i).z, eci.z);
  }
}

TEST(Snapshot, ClosestVisibleMatchesBruteForce) {
  const auto sats = testConstellation(40);
  const double t = 0.0;
  const ConstellationSnapshot snap(sats, t);
  const Geodetic site{deg2rad(40.44), deg2rad(-79.99), 0.0};  // Pittsburgh
  const Vec3 siteEcef = geodeticToEcef(site);
  const double minElev = deg2rad(10.0);

  std::optional<std::size_t> expect;
  double best = 0.0;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const Vec3 satEcef = eciToEcef(positionEci(sats[i], t), t);
    if (elevationAngleRad(siteEcef, satEcef) < minElev) continue;
    const double d = siteEcef.distanceTo(satEcef);
    if (!expect || d < best) {
      expect = i;
      best = d;
    }
  }
  EXPECT_EQ(snap.closestVisible(site, minElev), expect);

  // A site with the mask at zenith sees nothing.
  EXPECT_EQ(snap.closestVisible(site, deg2rad(89.9)), std::nullopt);
}

TEST(Snapshot, IslTopologyMatchesAllPairsScan) {
  const auto sats = testConstellation(48);
  const double t = 12.0, maxRange = 3'000'000.0;
  const ConstellationSnapshot snap(sats, t);
  const auto isl = snap.islTopology(maxRange);
  ASSERT_EQ(isl->adjacency.size(), sats.size());
  EXPECT_DOUBLE_EQ(isl->maxRangeM, maxRange);

  std::size_t expectLinks = 0;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    std::vector<std::pair<std::size_t, double>> expect;
    for (std::size_t j = 0; j < sats.size(); ++j) {
      if (j == i) continue;
      const double d = snap.eci(i).distanceTo(snap.eci(j));
      if (d <= maxRange && lineOfSightClear(snap.eci(i), snap.eci(j), km(80.0))) {
        expect.emplace_back(j, d);
      }
    }
    expectLinks += expect.size();
    ASSERT_EQ(isl->adjacency[i].size(), expect.size()) << "sat " << i;
    for (std::size_t n = 0; n < expect.size(); ++n) {
      EXPECT_EQ(isl->adjacency[i][n].first, expect[n].first);
      EXPECT_DOUBLE_EQ(isl->adjacency[i][n].second, expect[n].second);
    }
  }
  EXPECT_EQ(isl->linkCount, expectLinks / 2);

  // Same parameters must return the identical cached object.
  EXPECT_EQ(snap.islTopology(maxRange).get(), isl.get());
  // Different parameters rebuild.
  EXPECT_NE(snap.islTopology(maxRange * 2).get(), isl.get());
}

TEST(Snapshot, GridPrunedAdjacencyMatchesAllPairs) {
  // Above the brute-force cutoff the adjacency comes from the spatial
  // grid; it must agree edge-for-edge with the all-pairs definition.
  const auto sats = testConstellation(300, 11);
  const double maxRange = 2'000'000.0;
  const ConstellationSnapshot snap(sats, 5.0);
  const auto isl = snap.islTopology(maxRange);

  std::size_t expectLinks = 0;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    std::vector<std::pair<std::size_t, double>> expect;
    for (std::size_t j = 0; j < sats.size(); ++j) {
      if (j == i) continue;
      const double d = snap.eci(i).distanceTo(snap.eci(j));
      if (d <= maxRange && lineOfSightClear(snap.eci(i), snap.eci(j), km(80.0))) {
        expect.emplace_back(j, d);
      }
    }
    expectLinks += expect.size();
    ASSERT_EQ(isl->adjacency[i], expect) << "sat " << i;
  }
  EXPECT_EQ(isl->linkCount, expectLinks / 2);
}

TEST(Snapshot, TinyRangeGridClampMatchesAllPairs) {
  // A maxRangeM of a few meters against LEO-magnitude positions used to
  // overflow the packed cell keys' 21-bit per-axis budget and silently
  // fall back to the all-pairs scan. The grid now clamps its cell side up
  // until the coordinates fit (side >= maxRangeM keeps the +-1-neighbor
  // property, so only candidate-set size changes) — the pruned path must
  // agree with the all-pairs definition for any range, however extreme.
  const auto sats = testConstellation(300, 7);
  const ConstellationSnapshot snap(sats, 3.0);
  for (const double maxRange : {5.0, 2'000.0, 500'000.0}) {
    const auto isl = snap.islTopology(maxRange);
    ASSERT_EQ(isl->adjacency.size(), sats.size());
    std::size_t expectLinks = 0;
    for (std::size_t i = 0; i < sats.size(); ++i) {
      std::vector<std::pair<std::size_t, double>> expect;
      for (std::size_t j = 0; j < sats.size(); ++j) {
        if (j == i) continue;
        const double d = snap.eci(i).distanceTo(snap.eci(j));
        if (d <= maxRange &&
            lineOfSightClear(snap.eci(i), snap.eci(j), km(80.0))) {
          expect.emplace_back(j, d);
        }
      }
      expectLinks += expect.size();
      ASSERT_EQ(isl->adjacency[i], expect)
          << "range " << maxRange << " sat " << i;
    }
    EXPECT_EQ(isl->linkCount, expectLinks / 2) << "range " << maxRange;
  }
}

TEST(Snapshot, IslPathSelectionBoundaryIsInvisible) {
  // islTopology() once switched from an all-pairs scan to the spatial grid
  // above 256 satellites; the grid now serves every fleet size. At 255,
  // 256 and 257 satellites the adjacency must still match the all-pairs
  // definition pair-for-pair, bitwise distances and ordering included.
  const double maxRange = 2'500'000.0;
  for (const std::size_t n : {std::size_t{255}, std::size_t{256},
                              std::size_t{257}}) {
    const auto sats = testConstellation(static_cast<int>(n), 19);
    const ConstellationSnapshot snap(sats, 42.0);
    const auto isl = snap.islTopology(maxRange);
    ASSERT_EQ(isl->adjacency.size(), n);
    std::size_t expectLinks = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::pair<std::size_t, double>> expect;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double d = snap.eci(i).distanceTo(snap.eci(j));
        if (d <= maxRange &&
            lineOfSightClear(snap.eci(i), snap.eci(j), km(80.0))) {
          expect.emplace_back(j, d);
        }
      }
      expectLinks += expect.size();
      ASSERT_EQ(isl->adjacency[i], expect) << "n=" << n << " sat " << i;
    }
    EXPECT_EQ(isl->linkCount, expectLinks / 2) << "n=" << n;
  }
}

TEST(Snapshot, ShortestIslPathSelfAndDisconnected) {
  const auto sats = testConstellation(16);
  const ConstellationSnapshot snap(sats, 0.0);
  const auto self = snap.shortestIslPath(3, 3, 3'000'000.0);
  ASSERT_TRUE(self.has_value());
  EXPECT_DOUBLE_EQ(self->first, 0.0);
  EXPECT_EQ(self->second, 0);

  // A max range below any pairwise distance disconnects everything.
  EXPECT_FALSE(snap.shortestIslPath(0, 1, 1.0).has_value());
}

TEST(Snapshot, FootprintIndexMatchesElevationTest) {
  const auto sats = testConstellation(20);
  const double t = 0.0, minElev = deg2rad(10.0);
  const ConstellationSnapshot snap(sats, t);
  const FootprintIndex fp(snap, minElev);
  ASSERT_EQ(fp.size(), sats.size());

  Rng rng(99);
  for (int s = 0; s < 200; ++s) {
    const Vec3 unit = rng.unitSphere();
    const Vec3 surfEci = unit * wgs84::kMeanRadiusM;
    bool any = false;
    int count = 0;
    for (std::size_t i = 0; i < sats.size(); ++i) {
      const bool covered = elevationAngleRad(surfEci, snap.eci(i)) >= minElev;
      EXPECT_EQ(fp.covers(unit, i), covered) << "sample " << s << " sat " << i;
      any |= covered;
      count += covered ? 1 : 0;
    }
    EXPECT_EQ(fp.anyCovers(unit), any);
    EXPECT_EQ(fp.countCovering(unit, static_cast<int>(sats.size())), count);
  }
}

// --- SnapshotCache -------------------------------------------------------

TEST(SnapshotCacheTest, HitOnSameKeyMissOnDifferent) {
  SnapshotCache cache(4);
  const auto sats = testConstellation(8);

  const auto a = cache.at(sats, 100.0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  // Exact repeat and a sub-microsecond perturbation both hit.
  EXPECT_EQ(cache.at(sats, 100.0).get(), a.get());
  EXPECT_EQ(cache.at(sats, 100.0 + 1e-8).get(), a.get());
  EXPECT_EQ(cache.hits(), 2u);

  // A different time misses.
  const auto b = cache.at(sats, 200.0);
  EXPECT_NE(b.get(), a.get());
  EXPECT_EQ(cache.misses(), 2u);

  // A modified element invalidates (different constellation hash).
  auto mutated = sats;
  mutated[0].raanRad += 1e-9;
  EXPECT_NE(cache.at(mutated, 100.0).get(), a.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SnapshotCacheTest, LruEviction) {
  SnapshotCache cache(2);
  const auto sats = testConstellation(6);

  const auto a = cache.at(sats, 1.0);
  cache.at(sats, 2.0);
  // Touch t=1 so t=2 is the least recently used...
  EXPECT_EQ(cache.at(sats, 1.0).get(), a.get());
  // ...then insert a third entry, evicting t=2.
  cache.at(sats, 3.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.at(sats, 1.0).get(), a.get());  // still cached
  const std::size_t missesBefore = cache.misses();
  cache.at(sats, 2.0);  // evicted: must rebuild
  EXPECT_EQ(cache.misses(), missesBefore + 1);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SnapshotCacheTest, ByteBudgetEvictsInLruOrder) {
  const auto sats = testConstellation(6);
  // Every snapshot of the same fleet has the same approxBytes, so a budget
  // sized for exactly two of them must reproduce the capacity-2 LRU
  // eviction sequence of the test above, entry for entry.
  const std::size_t one = ConstellationSnapshot(sats, 1.0).approxBytes();
  SnapshotCache cache(/*capacity=*/8, /*byteBudget=*/2 * one);
  EXPECT_EQ(cache.byteBudget(), 2 * one);

  const auto a = cache.at(sats, 1.0);
  EXPECT_EQ(cache.approxBytes(), one);
  cache.at(sats, 2.0);
  EXPECT_EQ(cache.approxBytes(), 2 * one);
  // Touch t=1 so t=2 is the least recently used...
  EXPECT_EQ(cache.at(sats, 1.0).get(), a.get());
  // ...then insert a third entry: over budget, t=2 is evicted.
  cache.at(sats, 3.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.approxBytes(), 2 * one);
  EXPECT_EQ(cache.at(sats, 1.0).get(), a.get());  // still cached
  const std::size_t missesBefore = cache.misses();
  cache.at(sats, 2.0);  // evicted: must rebuild
  EXPECT_EQ(cache.misses(), missesBefore + 1);

  // A budget smaller than any entry still caches the newest entry (the
  // just-inserted entry is exempt from eviction).
  SnapshotCache tiny(/*capacity=*/8, /*byteBudget=*/1);
  tiny.at(sats, 1.0);
  EXPECT_EQ(tiny.size(), 1u);
  const auto newest = tiny.at(sats, 2.0);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.at(sats, 2.0).get(), newest.get());
}

TEST(SnapshotCacheTest, EphemerisAndElementListShareEntries) {
  SnapshotCache cache(4);
  const auto sats = testConstellation(5);
  EphemerisService eph;
  for (const auto& el : sats) eph.publish(ProviderId{1}, el);

  const auto a = cache.at(sats, 50.0);
  EXPECT_EQ(cache.at(eph, 50.0).get(), a.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SnapshotCacheTest, NonFiniteAndOutOfRangeTimesThrow) {
  // Every non-finite time used to round to one shared microsecond key: a
  // NaN time cached an all-NaN snapshot that a later +inf lookup returned.
  const auto sats = testConstellation(5);
  EphemerisService eph;
  for (const auto& el : sats) eph.publish(ProviderId{1}, el);
  SnapshotCache cache(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // t * 1e6 must fit an int64: +/-1e13 s is just outside, 9e12 s inside.
  for (const double t : {nan, inf, -inf, 1e13, -1e13}) {
    EXPECT_THROW(cache.at(sats, t), InvalidArgumentError) << t;
    EXPECT_THROW(cache.at(eph, t), InvalidArgumentError) << t;
    EXPECT_THROW(ConstellationSnapshot(sats, t), InvalidArgumentError) << t;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  const auto far = cache.at(sats, 9e12);
  EXPECT_EQ(far->timeSeconds(), 9e12);
  EXPECT_EQ(cache.at(sats, -9e12)->timeSeconds(), -9e12);
  EXPECT_EQ(cache.size(), 2u);
}

// --- Determinism: parallel == serial, bit for bit ------------------------

TEST(Determinism, MonteCarloCoverage) {
  ThreadCountGuard guard;
  const auto sats = testConstellation(30);

  setParallelThreadCount(1);
  Rng serialRng(42);
  const auto serial =
      monteCarloCoverage(sats, 0.0, deg2rad(10.0), 20'000, serialRng);

  setParallelThreadCount(4);
  Rng parallelRng(42);
  const auto parallel =
      monteCarloCoverage(sats, 0.0, deg2rad(10.0), 20'000, parallelRng);

  EXPECT_EQ(serial.coverageFraction, parallel.coverageFraction);
  // Both paths must advance the caller's stream identically too.
  EXPECT_EQ(serialRng.engine()(), parallelRng.engine()());
}

TEST(Determinism, KFoldCoverage) {
  ThreadCountGuard guard;
  const auto sats = testConstellation(40);

  setParallelThreadCount(1);
  Rng serialRng(43);
  const double serial = kFoldCoverage(sats, 0.0, deg2rad(10.0), 2, 10'000, serialRng);

  setParallelThreadCount(4);
  Rng parallelRng(43);
  const double parallel =
      kFoldCoverage(sats, 0.0, deg2rad(10.0), 2, 10'000, parallelRng);

  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, Fig2LatencySweep) {
  ThreadCountGuard guard;
  const std::vector<int> counts = {4, 12, 24};
  const Fig2Config cfg;

  setParallelThreadCount(1);
  const auto serial = fig2LatencySweep(counts, 40, cfg, 2024);
  setParallelThreadCount(4);
  const auto parallel = fig2LatencySweep(counts, 40, cfg, 2024);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].connectedTrials, parallel[i].connectedTrials);
    EXPECT_EQ(serial[i].connectivity, parallel[i].connectivity);
    EXPECT_EQ(serial[i].meanLatencyS, parallel[i].meanLatencyS);
    EXPECT_EQ(serial[i].meanEndToEndLatencyS, parallel[i].meanEndToEndLatencyS);
    EXPECT_EQ(serial[i].meanIslHops, parallel[i].meanIslHops);
  }
}

TEST(Determinism, Fig2CoverageSweep) {
  ThreadCountGuard guard;
  const std::vector<int> counts = {6, 18};
  Fig2Config cfg;
  cfg.minElevationRad = deg2rad(10.0);

  setParallelThreadCount(1);
  const auto serial = fig2CoverageSweep(counts, 10, cfg, 2024);
  setParallelThreadCount(4);
  const auto parallel = fig2CoverageSweep(counts, 10, cfg, 2024);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].worstCaseCoverage, parallel[i].worstCaseCoverage);
    EXPECT_EQ(serial[i].monteCarloCoverage, parallel[i].monteCarloCoverage);
    EXPECT_EQ(serial[i].meanEffectiveSatellites,
              parallel[i].meanEffectiveSatellites);
  }
}

}  // namespace
}  // namespace openspace
