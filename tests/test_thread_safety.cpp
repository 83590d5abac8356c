// Multi-threaded stress tests for the annotated concurrency substrate
// (PR 7): many std::threads hammering the three process-wide LRU caches —
// SnapshotCache, FleetEphemeris::compiled, FootprintIndex2::compiled —
// concurrently, checking that every thread observes fully built,
// value-correct entries, plus the TimerWheel generation-stamp contract for
// stale handles. The cache tests are deliberately racy (that is the
// point): the TSan CI lane runs this binary with 4 pool threads and
// halt_on_error, so any lock-discipline regression the clang thread-safety
// analysis misses shows up as a data race here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/net/scheduler.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {
namespace {

std::vector<OrbitalElements> testConstellation(int n, std::uint64_t seed) {
  Rng rng(seed);
  return makeRandomConstellation(n, km(780.0), rng);
}

/// Run `fn(thread, iteration)` from `threads` std::threads, `iters` times
/// each. Any EXPECT failure inside fn is reported against the spawning
/// test as usual (gtest expectations are thread-safe on POSIX).
template <typename Fn>
void hammer(int threads, int iters, Fn&& fn) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, iters, &fn] {
      for (int i = 0; i < iters; ++i) fn(t, i);
    });
  }
  for (std::thread& th : pool) th.join();
}

// --- SnapshotCache under contention --------------------------------------

TEST(ThreadSafetyStress, SnapshotCacheConcurrentMixedKeys) {
  // More keys than capacity so the threads race insert/evict/promote, not
  // just the hit path.
  SnapshotCache cache(4);
  const int kFleets = 3;
  std::vector<std::vector<OrbitalElements>> fleets;
  std::vector<std::uint64_t> hashes;
  for (int f = 0; f < kFleets; ++f) {
    fleets.push_back(testConstellation(24, 100 + static_cast<std::uint64_t>(f)));
    hashes.push_back(constellationHash(fleets.back()));
  }
  const double times[] = {0.0, 30.0, 60.0, 90.0};

  std::atomic<std::size_t> calls{0};
  hammer(8, 120, [&](int t, int i) {
    const int f = (t + i) % kFleets;
    const double tS = times[(t * 7 + i) % 4];
    const auto snap = cache.at(fleets[static_cast<std::size_t>(f)], tS);
    ASSERT_NE(snap, nullptr);
    // Whatever entry the race hands back must be the fully built snapshot
    // of exactly the requested (fleet, t).
    EXPECT_EQ(snap->size(), fleets[static_cast<std::size_t>(f)].size());
    EXPECT_EQ(snap->elementsHash(), hashes[static_cast<std::size_t>(f)]);
    EXPECT_DOUBLE_EQ(snap->timeSeconds(), tS);
    EXPECT_EQ(snap->eci().size(), snap->size());
    EXPECT_EQ(snap->ecef().size(), snap->size());
    calls.fetch_add(1, std::memory_order_relaxed);
  });

  // Every probe is counted exactly once as a hit or a miss.
  EXPECT_EQ(cache.hits() + cache.misses(), calls.load());
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ThreadSafetyStress, SnapshotCacheConcurrentSameKeyAgreesBitForBit) {
  SnapshotCache cache(8);
  const auto fleet = testConstellation(32, 42);
  const ConstellationSnapshot reference(fleet, 45.0);

  hammer(8, 50, [&](int, int) {
    const auto snap = cache.at(fleet, 45.0);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      // Racing duplicate builds may hand different threads different
      // instances, but the propagation is deterministic, so every instance
      // is bit-identical to the serial reference.
      EXPECT_EQ(snap->eci(i).x, reference.eci(i).x);
      EXPECT_EQ(snap->eci(i).y, reference.eci(i).y);
      EXPECT_EQ(snap->eci(i).z, reference.eci(i).z);
    }
  });
}

// --- FleetEphemeris::compiled under contention ----------------------------

TEST(ThreadSafetyStress, FleetEphemerisCompiledConcurrent) {
  const int kFleets = 3;
  std::vector<std::vector<OrbitalElements>> fleets;
  std::vector<std::uint64_t> hashes;
  std::vector<std::vector<Vec3>> reference(kFleets);
  std::vector<Vec3> referenceEcef;
  for (int f = 0; f < kFleets; ++f) {
    fleets.push_back(testConstellation(20, 200 + static_cast<std::uint64_t>(f)));
    hashes.push_back(constellationHash(fleets.back()));
    FleetEphemeris(fleets.back())
        .positionsAt(120.0, reference[static_cast<std::size_t>(f)],
                     referenceEcef);
  }

  hammer(8, 100, [&](int t, int i) {
    const auto f = static_cast<std::size_t>((t * 13 + i) % kFleets);
    const auto fleet = FleetEphemeris::compiled(fleets[f], hashes[f]);
    ASSERT_NE(fleet, nullptr);
    ASSERT_EQ(fleet->size(), fleets[f].size());
    std::vector<Vec3> eci, ecef;
    fleet->positionsAt(120.0, eci, ecef);
    ASSERT_EQ(eci.size(), reference[f].size());
    for (std::size_t s = 0; s < eci.size(); ++s) {
      EXPECT_EQ(eci[s].x, reference[f][s].x);
      EXPECT_EQ(eci[s].y, reference[f][s].y);
      EXPECT_EQ(eci[s].z, reference[f][s].z);
    }
  });
}

// --- FootprintIndex2::compiled under contention ---------------------------

TEST(ThreadSafetyStress, FootprintIndexCompiledConcurrent) {
  const auto fleet = testConstellation(48, 300);
  const auto snapshot = std::make_shared<const ConstellationSnapshot>(fleet, 15.0);
  const double masks[] = {deg2rad(25.0), deg2rad(40.0)};

  // Serial references per mask, computed once up front.
  std::vector<std::optional<std::size_t>> refClosest;
  const Geodetic site{deg2rad(48.0), deg2rad(11.0), 0.0};
  for (const double mask : masks) {
    refClosest.push_back(snapshot->closestVisible(site, mask));
  }

  hammer(8, 100, [&](int t, int i) {
    const auto m = static_cast<std::size_t>((t + i) % 2);
    const auto index = FootprintIndex2::compiled(snapshot, masks[m]);
    ASSERT_NE(index, nullptr);
    ASSERT_EQ(index->size(), fleet.size());
    EXPECT_DOUBLE_EQ(index->minElevationRad(), masks[m]);
    // Exactly the brute answer, whichever racing instance we got.
    EXPECT_EQ(index->closestVisible(site), refClosest[m]);
  });
}

// --- all three caches at once ---------------------------------------------

TEST(ThreadSafetyStress, AllCachesHammeredTogether) {
  // The realistic contention shape: coverage sweeps, association batches
  // and handover planning all touch the same timestep through different
  // caches at once. Each thread interleaves the three cache entry points.
  SnapshotCache cache(4);
  const auto fleet = testConstellation(24, 400);
  const auto hash = constellationHash(fleet);
  const double mask = deg2rad(30.0);

  hammer(6, 60, [&](int t, int i) {
    const double tS = 10.0 * ((t + i) % 3);
    const auto snap = cache.at(fleet, tS);
    ASSERT_NE(snap, nullptr);
    const auto compiledFleet = FleetEphemeris::compiled(fleet, hash);
    ASSERT_NE(compiledFleet, nullptr);
    EXPECT_EQ(compiledFleet->size(), snap->size());
    const auto index = FootprintIndex2::compiled(snap, mask);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->size(), snap->size());
    // The compiled fleet's cold evaluation at the snapshot's time must
    // reproduce the snapshot's own positions bit for bit.
    std::vector<Vec3> eci, ecef;
    compiledFleet->positionsAt(tS, eci, ecef);
    EXPECT_EQ(eci[0].x, snap->eci(0).x);
    EXPECT_EQ(eci[0].y, snap->eci(0).y);
    EXPECT_EQ(eci[0].z, snap->eci(0).z);
  });
}

// --- TimerWheel stale handles ---------------------------------------------

TEST(TimerWheelHandles, CancelAfterFireReturnsFalse) {
  TimerWheel<int> wheel(1e-3);
  const TimerEventId id = wheel.scheduleIn(0.5, 7);
  EXPECT_TRUE(id.isValid());

  int fired = 0;
  EXPECT_EQ(wheel.run(1.0, [&](double, const int& v) { fired += v; }), 1u);
  EXPECT_EQ(fired, 7);
  // The event already fired: its handle is dead, not cancellable.
  EXPECT_FALSE(wheel.cancel(id));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelHandles, StaleHandleDoesNotCancelRecycledSlot) {
  TimerWheel<int> wheel(1e-3);
  const TimerEventId first = wheel.scheduleIn(0.25, 1);
  EXPECT_EQ(wheel.runAll([](double, const int&) {}), 1u);

  // The next schedule recycles the fired record's slab slot under a bumped
  // generation. The stale handle must NOT cancel the new event.
  const TimerEventId second = wheel.scheduleIn(0.25, 2);
  EXPECT_NE(first.value(), second.value());
  EXPECT_FALSE(wheel.cancel(first));
  EXPECT_EQ(wheel.pending(), 1u);

  // The fresh handle still cancels its own event, exactly once.
  EXPECT_TRUE(wheel.cancel(second));
  EXPECT_FALSE(wheel.cancel(second));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelHandles, CancelledThenRecycledSlotKeepsOldHandleDead) {
  TimerWheel<int> wheel(1e-3);
  const TimerEventId a = wheel.scheduleIn(0.5, 1);
  EXPECT_TRUE(wheel.cancel(a));
  // Drain the lazily reclaimed record so the slot returns to the free list.
  EXPECT_EQ(wheel.runAll([](double, const int&) {}), 0u);

  const TimerEventId b = wheel.scheduleIn(0.5, 2);
  EXPECT_FALSE(wheel.cancel(a));  // stale generation
  int fired = 0;
  EXPECT_EQ(wheel.runAll([&](double, const int& v) { fired = v; }), 1u);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace openspace
