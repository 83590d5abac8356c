// Unit tests for the core facade (provider registry, launches, ground
// assets, topology/routing/coverage queries) and the search scratch
// primitives (core/scratch.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <openspace/core/hash.hpp>
#include <openspace/core/network.hpp>
#include <openspace/core/scratch.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>

namespace openspace {
namespace {

WalkerConfig smallWalker() {
  WalkerConfig wc;
  wc.totalSatellites = 12;
  wc.planes = 3;
  wc.phasing = 1;
  wc.altitudeM = km(780.0);
  wc.inclinationRad = deg2rad(86.4);
  return wc;
}

TEST(Network, ProviderRegistry) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  const ProviderId b = net.registerProvider("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(net.providerName(a), "alpha");
  EXPECT_EQ(net.providers().size(), 2u);
  EXPECT_THROW(net.registerProvider(""), InvalidArgumentError);
  EXPECT_THROW(net.registerProvider("alpha"), InvalidArgumentError);
  EXPECT_THROW(net.providerName(ProviderId{99}), NotFoundError);
}

TEST(Network, LaunchesAssignOwnership) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  const auto walker = net.launchWalkerStar(a, smallWalker());
  EXPECT_EQ(walker.size(), 12u);
  const ProviderId b = net.registerProvider("beta");
  const auto random = net.launchRandom(b, 5, km(600.0), 3);
  EXPECT_EQ(random.size(), 5u);
  EXPECT_EQ(net.satelliteCount(), 17u);
  EXPECT_EQ(net.ephemeris().satellitesOf(a).size(), 12u);
  EXPECT_EQ(net.ephemeris().satellitesOf(b).size(), 5u);
  EXPECT_THROW(net.launchRandom(ProviderId{99}, 1, km(600.0), 1), NotFoundError);
}

TEST(Network, SingleSatelliteLaunch) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  const SatelliteId sid =
      net.launchSatellite(a, OrbitalElements::circular(km(500.0), 1.0, 0, 0));
  EXPECT_TRUE(net.ephemeris().contains(sid));
}

TEST(Network, LaunchAfterGroundAssetsRejected) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  net.launchWalkerStar(a, smallWalker());
  net.addUser(a, "u", Geodetic::fromDegrees(0, 0));
  EXPECT_THROW(net.launchRandom(a, 1, km(600.0), 1), StateError);
  EXPECT_THROW(net.launchWalkerStar(a, smallWalker()), StateError);
  EXPECT_THROW(
      net.launchSatellite(a, OrbitalElements::circular(km(500.0), 1, 0, 0)),
      StateError);
}

TEST(Network, GroundAssetsGetDistinctStableNodes) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  net.launchWalkerStar(a, smallWalker());
  const NodeId gs = net.addGroundStation(a, "gs", Geodetic::fromDegrees(1, 1));
  const NodeId u1 = net.addUser(a, "u1", Geodetic::fromDegrees(2, 2));
  const NodeId u2 = net.addUser(a, "u2", Geodetic::fromDegrees(3, 3));
  EXPECT_NE(gs, u1);
  EXPECT_NE(u1, u2);
  const NetworkGraph g = net.topologyAt(0.0);
  EXPECT_EQ(g.nodeCount(), 15u);  // 12 sats + 3 assets, no duplicates
  EXPECT_TRUE(g.node(gs).isGroundStation());
  EXPECT_TRUE(g.node(u1).isUser());
  EXPECT_EQ(g.node(u2).name, "u2");
}

TEST(Network, LaserUpgradeReflectsInTopology) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  const auto sats = net.launchWalkerStar(a, smallWalker());
  for (const SatelliteId sid : sats) net.equipLaserTerminal(sid);
  EXPECT_THROW(net.equipLaserTerminal(SatelliteId{9999}), NotFoundError);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 3;
  const NetworkGraph g = net.topologyAt(0.0, opt);
  ASSERT_GT(g.linkCount(), 0u);
  for (const LinkId lid : g.links()) {
    EXPECT_EQ(g.link(lid).type, LinkType::IslLaser);
  }
}

TEST(Network, RouteBetweenAssets) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  WalkerConfig wc = smallWalker();
  wc.totalSatellites = 33;
  wc.planes = 3;
  net.launchWalkerStar(a, wc);
  const NodeId gs =
      net.addGroundStation(a, "gs", Geodetic::fromDegrees(48.86, 2.35));
  const NodeId user = net.addUser(a, "u", Geodetic::fromDegrees(40.44, -79.99));
  SnapshotOptions opt;
  opt.minElevationRad = deg2rad(5.0);
  opt.nearestK = 6;
  // Polar 33-sat shell: both mid-latitude sites are covered most of the
  // time; try a few instants.
  bool found = false;
  for (double t = 0.0; t <= 3000.0 && !found; t += 300.0) {
    const Route r = net.route(user, gs, t, QosClass::Standard, opt);
    if (r.valid()) {
      EXPECT_EQ(r.nodes.front(), user);
      EXPECT_EQ(r.nodes.back(), gs);
      EXPECT_GT(r.bottleneckBps, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Network, NodeOfRoundTrip) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  const auto sats = net.launchWalkerStar(a, smallWalker());
  const NodeId n = net.nodeOf(sats[3]);
  const NetworkGraph g = net.topologyAt(0.0);
  EXPECT_EQ(g.node(n).satellite, sats[3]);
}

TEST(Network, CoverageGrowsWithFleet) {
  OpenSpaceNetwork net;
  const ProviderId a = net.registerProvider("alpha");
  net.launchWalkerStar(a, smallWalker());
  const double small = net.coverageAt(0.0, deg2rad(10.0), 4000, 1);
  OpenSpaceNetwork net2;
  const ProviderId b = net2.registerProvider("alpha");
  WalkerConfig big = smallWalker();
  big.totalSatellites = 66;
  big.planes = 6;
  net2.launchWalkerStar(b, big);
  const double large = net2.coverageAt(0.0, deg2rad(10.0), 4000, 1);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.95);
}

// --- AddressableHeap ----------------------------------------------------------

/// The heap's order on keys: IEEE numeric order with -0.0 strictly before
/// +0.0, i.e. the sign-flip transform of the bits.
std::uint64_t orderedBits(double d) {
  const std::uint64_t b = bitsOf(d);
  return (b >> 63) != 0 ? ~b : (b | (std::uint64_t{1} << 63));
}

/// A sorted (key order, index) set and the key per present index: the
/// reference the heap must pop in the same order as.
struct HeapReference {
  std::set<std::pair<std::uint64_t, std::uint32_t>> order;
  std::vector<double> keyOf;
  std::vector<bool> present;

  explicit HeapReference(std::size_t n) : keyOf(n, 0.0), present(n, false) {}

  void push(double key, std::uint32_t index) {
    if (present[index]) order.erase({orderedBits(keyOf[index]), index});
    order.insert({orderedBits(key), index});
    keyOf[index] = key;
    present[index] = true;
  }
};

/// Pop `heap` and `ref` once and expect the same entry, key to the bit.
void expectSamePop(AddressableHeap& heap, HeapReference& ref) {
  ASSERT_FALSE(ref.order.empty());
  const auto [bits, index] = *ref.order.begin();
  ref.order.erase(ref.order.begin());
  ref.present[index] = false;
  const AddressableHeap::Entry e = heap.pop();
  ASSERT_EQ(e.index, index);
  ASSERT_EQ(bitsOf(e.key), bitsOf(ref.keyOf[index]));
  ASSERT_EQ(orderedBits(e.key), bits);
}

TEST(AddressableHeap, RandomPushDecreasePopMatchesSortedReference) {
  // Keys come from a small pool, so equal keys on different indices are
  // common; the pool holds -0.0, +0.0, +inf and negative keys.
  const double pool[] = {-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.0 + 1e-15,
                         2.0, 1e300, std::numeric_limits<double>::infinity()};
  constexpr std::size_t kPool = std::size(pool);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniformInt(0, 63));
    AddressableHeap heap;
    heap.reserve(n);
    HeapReference ref(n);
    for (int op = 0; op < 2000; ++op) {
      const auto index = static_cast<std::uint32_t>(rng.uniformInt(0, n - 1));
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.55) {
        // Insert, or lower a present key to one at or below it.
        std::size_t k = static_cast<std::size_t>(rng.uniformInt(0, kPool - 1));
        if (ref.present[index]) {
          while (orderedBits(pool[k]) > orderedBits(ref.keyOf[index])) --k;
        }
        heap.push(pool[k], index);
        ref.push(pool[k], index);
      } else if (!ref.order.empty()) {
        expectSamePop(heap, ref);
      }
      ASSERT_EQ(heap.size(), ref.order.size());
      if (op % 97 == 0) heap.audit();
    }
    while (!ref.order.empty()) expectSamePop(heap, ref);
    EXPECT_TRUE(heap.empty());
    heap.audit();
  }
}

TEST(AddressableHeap, EqualKeysPopByIndexAndSignedZerosStayApart) {
  AddressableHeap heap;
  heap.reserve(8);
  heap.push(1.0, 5);
  heap.push(0.0, 7);
  heap.push(1.0, 2);
  heap.push(-0.0, 6);
  heap.push(1.0, 3);
  heap.audit();
  const std::pair<double, std::uint32_t> want[] = {
      {-0.0, 6}, {0.0, 7}, {1.0, 2}, {1.0, 3}, {1.0, 5}};
  for (const auto& [key, index] : want) {
    const AddressableHeap::Entry e = heap.pop();
    EXPECT_EQ(e.index, index);
    EXPECT_EQ(bitsOf(e.key), bitsOf(key));
  }
  EXPECT_TRUE(heap.empty());
}

TEST(AddressableHeap, DecreaseKeyMovesAnEntryInPlace) {
  AddressableHeap heap;
  heap.reserve(4);
  const double inf = std::numeric_limits<double>::infinity();
  heap.push(inf, 0);
  heap.push(inf, 1);
  heap.push(3.0, 2);
  heap.push(inf, 1);  // an equal key is allowed and changes nothing
  heap.push(2.0, 1);  // decrease: one entry per index, no duplicate
  EXPECT_EQ(heap.size(), 3u);
  heap.audit();
  EXPECT_EQ(heap.pop().index, 1u);
  EXPECT_EQ(heap.pop().index, 2u);
  const AddressableHeap::Entry last = heap.pop();
  EXPECT_EQ(last.index, 0u);
  EXPECT_EQ(last.key, inf);
  EXPECT_TRUE(heap.empty());
}

TEST(AddressableHeap, ClearAfterAnEarlyExitLeavesNoStalePosition) {
  AddressableHeap heap;
  heap.reserve(16);
  for (std::uint32_t i = 0; i < 16; ++i) heap.push(16.0 - i, i);
  (void)heap.pop();
  (void)heap.pop();  // a point query stops with 14 entries left
  heap.clear();
  EXPECT_TRUE(heap.empty());
  heap.audit();  // throws on a position left behind
  // The next search reuses every index from scratch: a left-behind position
  // would turn these inserts into decreases of absent entries.
  heap.reserve(20);
  for (std::uint32_t i = 0; i < 20; ++i) heap.push(1.0, 19 - i);
  EXPECT_EQ(heap.size(), 20u);
  heap.audit();
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(heap.pop().index, i);
  heap.clear();  // clearing an empty heap is a no-op
  heap.audit();
}

// --- FnvFixedRun --------------------------------------------------------

/// Checks `run` against the chained fnv1a fold of `words`: every low byte,
/// under zero, all-ones and random high bits.
void expectFoldsLikeTheChain(const FnvFixedRun& run,
                             std::initializer_list<std::uint64_t> words, Rng& rng) {
  std::size_t mismatches = 0;
  for (int i = 0; i < 4'096; ++i) {
    const std::uint64_t high = i < 256 ? 0 : i < 512 ? ~0ull : rng.engine()();
    const std::uint64_t h = (high & ~0xFFull) | static_cast<std::uint64_t>(i & 0xFF);
    std::uint64_t chained = h;
    for (const std::uint64_t w : words) chained = fnv1a(chained, w);
    mismatches += run.fold(h) != chained;
  }
  EXPECT_EQ(mismatches, 0u) << words.size() << " words";
}

TEST(FnvFixedRun, EqualsTheChainedFoldForEveryLowByte) {
  Rng rng(41);
  expectFoldsLikeTheChain(FnvFixedRun{}, {}, rng);
  expectFoldsLikeTheChain(FnvFixedRun{0}, {0}, rng);
  expectFoldsLikeTheChain(FnvFixedRun{~0ull}, {~0ull}, rng);
  // 12,000 bits, 0 s and 0.25 s: a city-flow spec's shared fields.
  const std::uint64_t packet = bitsOf(12'000.0);
  const std::uint64_t stop = bitsOf(0.25);
  expectFoldsLikeTheChain(FnvFixedRun{packet, 0, stop}, {packet, 0, stop}, rng);
  const std::uint64_t a = rng.engine()();
  const std::uint64_t b = rng.engine()();
  const std::uint64_t c = rng.engine()();
  expectFoldsLikeTheChain(FnvFixedRun{a, b, c, a, b}, {a, b, c, a, b}, rng);
}

}  // namespace
}  // namespace openspace
