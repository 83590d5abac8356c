// Property tests for the CSR RouteEngine against the legacy reference
// implementations (openspace::legacy), which serve as the executable
// specification: across randomized constellation snapshots and all three
// ISL wiring policies, engine routes must match legacy routes node-for-node
// and bit-for-bit in every accumulated QoS field, every compiled graph must
// pass CompactGraph::audit(), and the parallel batch API must be
// bit-identical to serial execution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/regulation/regime.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/security/reputation.hpp>
#include <openspace/spec/routing_legacy.hpp>
#include <openspace/spec/topology_legacy.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/delta.hpp>

namespace openspace {

/// Builds PathTrees the engine never produces, so the audit's tests can
/// hand it corrupted ones.
struct PathTreeTestAccess {
  static PathTree make(const RouteEngine& engine, NodeId source,
                       std::vector<double> dist,
                       std::vector<std::uint32_t> parentEdge) {
    PathTree tree;
    tree.csr_ = engine.sharedGraph();
    tree.source_ = source;
    tree.sourceIndex_ = engine.graph().indexOf(source);
    tree.dist_ = std::move(dist);
    tree.parentEdge_ = std::move(parentEdge);
    return tree;
  }
};

namespace {

/// Bit-exact route equality: identical node/link sequences and identical
/// IEEE bit patterns in every accumulated QoS field. EXPECT_* based so a
/// failure reports which field diverged.
void expectRoutesIdentical(const Route& got, const Route& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.links, want.links);
  EXPECT_EQ(bitsOf(got.cost), bitsOf(want.cost));
  EXPECT_EQ(bitsOf(got.propagationDelayS), bitsOf(want.propagationDelayS));
  EXPECT_EQ(bitsOf(got.queueingDelayS), bitsOf(want.queueingDelayS));
  EXPECT_EQ(bitsOf(got.bottleneckBps), bitsOf(want.bottleneckBps));
}

/// A randomized constellation snapshot: Walker geometry varied by seed,
/// ground stations and users scattered at random surface points, snapshot
/// taken at a random epoch. `wiring` selects the ISL policy; AllInRange
/// gets a smaller fleet to keep its O(n^2) closure tractable.
NetworkGraph randomSnapshot(IslWiring wiring, std::uint64_t seed,
                            EphemerisService& eph, Rng& rng) {
  WalkerConfig wc;
  wc.planes = 3 + static_cast<int>(seed % 4);  // 3..6 planes
  const int perPlane = wiring == IslWiring::AllInRange
                           ? 4
                           : 6 + static_cast<int>(seed % 6);  // 6..11
  wc.totalSatellites = wc.planes * perPlane;
  wc.phasing = static_cast<int>(seed % wc.planes);
  wc.altitudeM = km(rng.uniform(500.0, 1400.0));
  wc.inclinationRad = deg2rad(rng.uniform(53.0, 98.0));
  const auto els =
      (seed % 2 == 0) ? makeWalkerStar(wc) : makeWalkerDelta(wc);
  for (const auto& el : els) {
    eph.publish(ProviderId{1 + static_cast<std::uint32_t>(seed % 3)}, el);
  }

  TopologyBuilder topo(eph);
  for (int i = 0; i < 3; ++i) {
    GroundSite site;
    site.name = "gs" + std::to_string(i);
    site.location = rng.surfacePoint();
    site.provider = ProviderId{7};
    topo.addGroundStation(site);
  }
  for (int i = 0; i < 4; ++i) {
    GroundSite site;
    site.name = "user" + std::to_string(i);
    site.location = rng.surfacePoint();
    site.provider = ProviderId{8};
    topo.addUser(site);
  }

  SnapshotOptions opt;
  opt.wiring = wiring;
  opt.planes = wc.planes;
  opt.nearestK = 4;
  return topo.snapshot(rng.uniform(0.0, 6000.0), opt);
}

/// A cost model exercising every weight the compiled per-edge cost bakes in.
LinkCostFn richCost() {
  CostWeights w;
  w.latencyWeight = 1.0;
  w.bandwidthWeight = 1e5;
  w.hopPenalty = 1e-4;
  w.foreignPenalty = 2e-4;
  return makeCostFunction(w);
}

/// Forbids RF ISLs outright (+inf), prices everything else by delay.
LinkCostFn rfIslForbiddingCost() {
  return [](const Link& l, const Node&, const Node&, ProviderId) {
    if (l.type == LinkType::IslRf) return std::numeric_limits<double>::infinity();
    return l.totalDelayS();
  };
}

class EngineVsLegacy
    : public ::testing::TestWithParam<std::tuple<IslWiring, std::uint64_t>> {};

TEST_P(EngineVsLegacy, PointQueriesMatchBitForBit) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  for (const LinkCostFn& cost : {latencyCost(), richCost()}) {
    const ProviderId home{1};
    const RouteEngine engine(g, cost, home);
    engine.graph().audit();
    const auto& nodes = g.nodes();
    ASSERT_FALSE(nodes.empty());
    for (int q = 0; q < 40; ++q) {
      const NodeId src =
          nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
      const NodeId dst =
          nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
      const Route want = legacy::shortestPath(g, src, dst, cost, home);
      const Route got = engine.shortestPath(src, dst);
      ASSERT_EQ(got.valid(), want.valid())
          << "src=" << src.value() << " dst=" << dst.value();
      expectRoutesIdentical(got, want);
    }
  }
}

TEST_P(EngineVsLegacy, SingleSourceTreesMatch) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 1000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const auto cost = latencyCost();
  const RouteEngine engine(g, cost);
  engine.graph().audit();
  const auto& nodes = g.nodes();
  for (int q = 0; q < 4; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const auto want = legacy::shortestPathTree(g, src, cost);
    const PathTree tree = engine.shortestPathTree(src);
    ASSERT_TRUE(tree.valid());
    EXPECT_EQ(tree.source(), src);
    std::size_t reached = 0;
    for (const NodeId n : nodes) reached += tree.reaches(n) ? 1u : 0u;
    ASSERT_EQ(reached, want.size());
    for (const auto& [dst, wantRoute] : want) {
      EXPECT_TRUE(tree.reaches(dst)) << "missing dst " << dst.value();
      EXPECT_EQ(bitsOf(tree.costTo(dst)), bitsOf(wantRoute.cost));
      expectRoutesIdentical(tree.routeTo(dst), wantRoute);
    }
  }
}

TEST_P(EngineVsLegacy, CheapestGatewayMatchesLegacyArgmin) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 4000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const std::vector<NodeId> gateways = g.nodesOfKind(NodeKind::GroundStation);
  ASSERT_FALSE(gateways.empty());
  for (const LinkCostFn& cost : {latencyCost(), richCost()}) {
    const ProviderId home{1};
    const RouteEngine engine(g, cost, home);
    engine.graph().audit();
    for (const NodeId src : g.nodes()) {
      // Spec: argmin of the legacy tree's route costs over the gateways in
      // order, strict < so ties go to the earlier gateway.
      const auto want = legacy::shortestPathTree(g, src, cost, home);
      Route best;
      for (const NodeId gw : gateways) {
        const auto it = want.find(gw);
        if (it != want.end() && it->second.cost < best.cost) best = it->second;
      }
      const Route got = engine.shortestPathTree(src).routeToCheapest(gateways);
      ASSERT_EQ(got.valid(), best.valid()) << "src=" << src.value();
      expectRoutesIdentical(got, best);
    }
  }
}

TEST_P(EngineVsLegacy, YenKShortestMatch) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 2000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const auto cost = latencyCost();
  const RouteEngine engine(g, cost);
  engine.graph().audit();
  const auto& nodes = g.nodes();
  for (int q = 0; q < 3; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const NodeId dst =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const auto want = legacy::kShortestPaths(g, src, dst, 5, cost);
    const auto got = engine.kShortestPaths(src, dst, 5);
    ASSERT_EQ(got.size(), want.size())
        << "src=" << src.value() << " dst=" << dst.value();
    for (std::size_t i = 0; i < want.size(); ++i) {
      expectRoutesIdentical(got[i], want[i]);
    }
  }
}

TEST_P(EngineVsLegacy, BatchParallelBitIdenticalToSerial) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 3000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const RouteEngine engine(g, latencyCost());
  engine.graph().audit();
  const std::vector<NodeId> sources = g.nodesOfKind(NodeKind::Satellite);
  ASSERT_FALSE(sources.empty());

  const std::size_t pool = parallelThreadCount();
  setParallelThreadCount(1);
  const auto serial = engine.batchShortestPathTrees(sources);
  setParallelThreadCount(pool);
  const auto parallel = engine.batchShortestPathTrees(sources);

  ASSERT_EQ(serial.size(), sources.size());
  ASSERT_EQ(parallel.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(serial[i].source(), sources[i]);
    EXPECT_EQ(parallel[i].source(), sources[i]);
    const auto& ds = serial[i].distByIndex();
    const auto& dp = parallel[i].distByIndex();
    ASSERT_EQ(ds.size(), dp.size());
    for (std::size_t j = 0; j < ds.size(); ++j) {
      ASSERT_EQ(bitsOf(ds[j]), bitsOf(dp[j])) << "source " << i << " node " << j;
    }
    ASSERT_EQ(serial[i].parentEdgeByIndex(), parallel[i].parentEdgeByIndex());
  }
}

TEST_P(EngineVsLegacy, AssemblerMatchesSpecCompileUnderEveryCost) {
  // The engine prices each link once and assembles by counting sort; the
  // spec compile prices each directed edge and appends in node order. The
  // two layouts must be indistinguishable under every cost wrapper,
  // including ones that forbid some or all links.
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 5000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const RegulatoryRegime regime = exampleGlobalRegime();
  ReputationTracker rep(0.5);
  for (const ProviderId bad : {ProviderId{2}, ProviderId{7}}) {
    for (int i = 0; i < 12; ++i) {
      rep.reportMisbehavior(bad, MisbehaviorKind::Interception);
    }
  }
  ASSERT_TRUE(rep.quarantined(ProviderId{7}));
  const std::vector<LinkCostFn> costs = {
      latencyCost(),
      richCost(),
      rfIslForbiddingCost(),
      complianceConstrainedCost(latencyCost(), regime, /*userRegion=*/1 + seed % 3),
      quarantineAwareCost(latencyCost(), rep),
  };
  const ProviderId home{1};
  std::size_t dropped = 0;
  for (std::size_t c = 0; c < costs.size(); ++c) {
    const RouteEngine engine(g, costs[c], home);
    engine.graph().audit();
    const CompactGraph spec = legacy::compileGraph(g, costs[c], home);
    spec.audit();
    EXPECT_EQ(engine.graph().contentChecksum(), spec.contentChecksum())
        << "cost #" << c;
    dropped += 2 * g.linkCount() - engine.graph().edgeCount();
  }
  EXPECT_GT(dropped, 0u) << "no cost forbade a link";
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, EngineVsLegacy,
    ::testing::Combine(::testing::Values(IslWiring::PlusGrid,
                                         IslWiring::NearestNeighbors,
                                         IslWiring::AllInRange),
                       ::testing::Values(1, 2, 3)));

// --- Pinned trees: the worldbench gateway trees on the 5,040-satellite Delta -

/// FNV-1a over every tree's dist bits and parent edges, in order.
std::uint64_t treesChecksum(const std::vector<PathTree>& trees) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const PathTree& tree : trees) {
    for (const double d : tree.distByIndex()) h = fnv1a(h, bitsOf(d));
    for (const std::uint32_t e : tree.parentEdgeByIndex()) h = fnv1a(h, e);
  }
  return h;
}

TEST(RouteEnginePinnedTrees, WorldbenchGatewayTreesOnTheDelta5040) {
  // The mega-5k world: a 5,040-satellite Walker Delta in 72 planes at
  // 550 km and 53 degrees, PlusGrid ISLs capped at 3,000 km, six gateways
  // behind a 10 degree mask, priced by delay. The literals were recorded
  // with the lazy-deletion heap the addressable heap replaced; they pin
  // the trees through the single-tree path and the batch at 1 and 4
  // threads.
  EphemerisService eph;
  const auto fleet =
      makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    eph.publish(ProviderId{static_cast<std::uint32_t>(1 + i % 3)}, fleet[i]);
  }
  TopologyBuilder topo(eph);
  const struct {
    const char* name;
    double latDeg, lonDeg;
  } sites[] = {
      {"paris", 48.86, 2.35},       {"denver", 39.74, -104.99},
      {"jburg", -26.20, 28.05},     {"sydney", -33.87, 151.21},
      {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69},
  };
  std::vector<NodeId> gateways;
  for (std::size_t g = 0; g < std::size(sites); ++g) {
    gateways.push_back(topo.nodeOf(topo.addGroundStation(
        {sites[g].name, Geodetic::fromDegrees(sites[g].latDeg, sites[g].lonDeg),
         ProviderId{static_cast<std::uint32_t>(1 + g % 3)}})));
  }
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 72;
  opt.maxIslRangeM = km(3'000.0);
  opt.minElevationRad = deg2rad(10.0);
  opt.includeUserLinks = false;
  IncrementalTopology inc(topo, opt, latencyCost());

  const struct {
    double tSeconds;
    std::uint64_t checksum;
  } pins[] = {
      {0.0, 1735020140468543596ull},
      {15.0, 12350568643306290120ull},
      {1'800.0, 13581811621853369600ull},
      {3'585.0, 9872963274012784806ull},
  };
  const std::size_t pool = parallelThreadCount();
  for (const auto& pin : pins) {
    inc.step(pin.tSeconds);
    const RouteEngine engine(inc.graph());
    std::vector<PathTree> single;
    for (const NodeId gw : gateways) single.push_back(engine.shortestPathTree(gw));
    EXPECT_EQ(treesChecksum(single), pin.checksum) << "t=" << pin.tSeconds;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      setParallelThreadCount(threads);
      EXPECT_EQ(treesChecksum(engine.batchShortestPathTrees(gateways)),
                pin.checksum)
          << "t=" << pin.tSeconds << " threads=" << threads;
    }
    setParallelThreadCount(pool);
  }
}

// --- Arena reuse: repeated queries on one engine are stateless --------------

TEST(RouteEngineArena, RepeatedAndInterleavedQueriesAreStateless) {
  EphemerisService eph;
  Rng rng(42);
  const NetworkGraph g =
      randomSnapshot(IslWiring::NearestNeighbors, 4, eph, rng);
  const RouteEngine engine(g, latencyCost());
  const auto& nodes = g.nodes();
  const NodeId a = nodes.front();
  const NodeId b = nodes.back();
  const NodeId c = nodes[nodes.size() / 2];

  const Route first = engine.shortestPath(a, b);
  // Dirty every arena the engine owns: tree scratch, Yen's forbidden-node /
  // forbidden-edge masks, other point queries.
  (void)engine.shortestPathTree(c);
  (void)engine.kShortestPaths(b, c, 4);
  (void)engine.shortestPath(c, a);
  const Route again = engine.shortestPath(a, b);
  expectRoutesIdentical(again, first);

  // And a freshly-built engine agrees, so reuse leaks no state at all.
  const RouteEngine fresh(g, latencyCost());
  expectRoutesIdentical(fresh.shortestPath(a, b), first);
}

// --- Compile-time semantics -------------------------------------------------

TEST(RouteEngineCompile, ForbiddenEdgesMatchLegacyAvoidance) {
  EphemerisService eph;
  Rng rng(7);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  // Forbid RF ISLs outright (+inf): compiled out of the CSR, lazily skipped
  // by legacy — results must still agree.
  const LinkCostFn cost = rfIslForbiddingCost();
  const RouteEngine engine(g, cost);
  const auto& nodes = g.nodes();
  for (int q = 0; q < 20; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const NodeId dst =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    expectRoutesIdentical(engine.shortestPath(src, dst),
                          legacy::shortestPath(g, src, dst, cost));
  }
}

TEST(RouteEngineCompile, NegativeCostThrowsAtCompile) {
  EphemerisService eph;
  Rng rng(9);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  const LinkCostFn bad = [](const Link&, const Node&, const Node&, ProviderId) {
    return -1.0;
  };
  EXPECT_THROW(RouteEngine(g, bad), InvalidArgumentError);
  EXPECT_THROW((void)legacy::compileGraph(g, bad), InvalidArgumentError);
}

TEST(RouteEngineCompile, NanCostThrowsAtCompile) {
  EphemerisService eph;
  Rng rng(10);
  const NetworkGraph g = randomSnapshot(IslWiring::NearestNeighbors, 3, eph, rng);
  // One NaN link among finite ones is enough.
  const LinkCostFn bad = [](const Link& l, const Node&, const Node&, ProviderId) {
    return l.id == LinkId{5u} ? std::numeric_limits<double>::quiet_NaN()
                              : l.totalDelayS();
  };
  EXPECT_THROW(RouteEngine(g, bad), InvalidArgumentError);
  EXPECT_THROW((void)legacy::compileGraph(g, bad), InvalidArgumentError);
}

TEST(RouteEngineCompile, UnknownEndpointsThrow) {
  EphemerisService eph;
  Rng rng(11);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  const RouteEngine engine(g, latencyCost());
  const NodeId bogus{999'999};
  EXPECT_THROW((void)engine.shortestPath(g.nodes().front(), bogus),
               NotFoundError);
  EXPECT_THROW((void)engine.shortestPathTree(bogus), NotFoundError);
  EXPECT_THROW((void)engine.batchShortestPathTrees({g.nodes().front(), bogus}),
               NotFoundError);
  EXPECT_THROW((void)engine.kShortestPaths(bogus, g.nodes().front(), 2),
               NotFoundError);
  EXPECT_THROW((void)engine.kShortestPaths(g.nodes().front(),
                                           g.nodes().back(), 0),
               InvalidArgumentError);
}

// --- Degenerate graphs -------------------------------------------------------

Node plainSatellite(std::uint32_t idValue) {
  Node n;
  n.id = NodeId{idValue};
  n.kind = NodeKind::Satellite;
  n.provider = ProviderId{1};
  n.name = "s" + std::to_string(idValue);
  n.satellite = SatelliteId{idValue};
  return n;
}

Link plainLink(std::uint32_t a, std::uint32_t b) {
  Link l;
  l.a = NodeId{a};
  l.b = NodeId{b};
  l.propagationDelayS = 0.001 * (a + b);
  l.capacityBps = 1e6;
  return l;
}

/// The engine's graph passes audit() and checksums equal to the spec's.
void expectMatchesSpec(const NetworkGraph& g, const LinkCostFn& cost) {
  const RouteEngine engine(g, cost);
  engine.graph().audit();
  EXPECT_EQ(engine.graph().contentChecksum(),
            legacy::compileGraph(g, cost).contentChecksum());
}

TEST(RouteEngineDegenerate, EmptyGraph) {
  const NetworkGraph g;
  const RouteEngine engine(g);
  engine.graph().audit();
  EXPECT_EQ(engine.graph().nodeCount(), 0u);
  EXPECT_EQ(engine.graph().edgeCount(), 0u);
  EXPECT_TRUE(engine.graph().edgesOfLink(LinkId{1u}).empty());
  EXPECT_TRUE(engine.batchShortestPathTrees({}).empty());
  EXPECT_THROW((void)engine.shortestPath(NodeId{1}, NodeId{1}), NotFoundError);
  EXPECT_THROW((void)engine.shortestPathTree(NodeId{1}), NotFoundError);
  expectMatchesSpec(g, latencyCost());
}

TEST(RouteEngineDegenerate, NodesWithoutLinks) {
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 3; ++i) g.addNode(plainSatellite(i));
  const RouteEngine engine(g);
  engine.graph().audit();
  EXPECT_EQ(engine.graph().nodeCount(), 3u);
  EXPECT_EQ(engine.graph().edgeCount(), 0u);
  EXPECT_FALSE(engine.shortestPath(NodeId{1}, NodeId{2}).valid());
  const Route self = engine.shortestPath(NodeId{2}, NodeId{2});
  ASSERT_TRUE(self.valid());
  EXPECT_EQ(self.nodes, std::vector<NodeId>{NodeId{2}});
  const PathTree tree = engine.shortestPathTree(NodeId{3});
  EXPECT_TRUE(tree.reaches(NodeId{3}));
  EXPECT_FALSE(tree.reaches(NodeId{1}));
  EXPECT_TRUE(engine.kShortestPaths(NodeId{1}, NodeId{3}, 3).empty());
  expectMatchesSpec(g, latencyCost());
}

TEST(RouteEngineDegenerate, EveryLinkForbidden) {
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 4; ++i) g.addNode(plainSatellite(i));
  std::vector<LinkId> links;
  for (std::uint32_t i = 1; i < 4; ++i) links.push_back(g.addLink(plainLink(i, i + 1)));
  const LinkCostFn forbidAll = [](const Link&, const Node&, const Node&, ProviderId) {
    return std::numeric_limits<double>::infinity();
  };
  const RouteEngine engine(g, forbidAll);
  engine.graph().audit();
  EXPECT_EQ(engine.graph().edgeCount(), 0u);
  for (const LinkId lid : links) EXPECT_TRUE(engine.graph().edgesOfLink(lid).empty());
  EXPECT_FALSE(engine.shortestPath(NodeId{1}, NodeId{4}).valid());
  EXPECT_FALSE(engine.shortestPathTree(NodeId{1}).routeTo(NodeId{2}).valid());
  expectMatchesSpec(g, forbidAll);
}

TEST(RouteEngineDegenerate, IsolatedNodeNextToAComponent) {
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 5; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(1, 2));
  g.addLink(plainLink(2, 3));
  g.addLink(plainLink(3, 4));
  g.addLink(plainLink(1, 4));  // node 5 stays isolated
  const RouteEngine engine(g);
  engine.graph().audit();
  EXPECT_EQ(engine.graph().rowBegin(4), engine.graph().rowEnd(4));
  EXPECT_TRUE(engine.shortestPath(NodeId{1}, NodeId{3}).valid());
  EXPECT_FALSE(engine.shortestPath(NodeId{1}, NodeId{5}).valid());
  EXPECT_FALSE(engine.shortestPath(NodeId{5}, NodeId{1}).valid());
  const PathTree tree = engine.shortestPathTree(NodeId{2});
  EXPECT_TRUE(std::isinf(tree.costTo(NodeId{5})));
  EXPECT_FALSE(tree.routeToCheapest({NodeId{5}}).valid());
  EXPECT_TRUE(engine.kShortestPaths(NodeId{1}, NodeId{5}, 2).empty());
  EXPECT_EQ(engine.kShortestPaths(NodeId{1}, NodeId{3}, 3).size(), 2u);
  expectMatchesSpec(g, latencyCost());
}

/// A random connected-ish graph of `n` satellites: a ring plus `chords`
/// random links, so equal-hop and zero-cost ties are everywhere.
NetworkGraph tieGraph(std::uint32_t n, int chords, Rng& rng) {
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= n; ++i) g.addNode(plainSatellite(i));
  for (std::uint32_t i = 1; i <= n; ++i) g.addLink(plainLink(i, i % n + 1));
  for (int c = 0; c < chords; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.uniformInt(1, n));
    const auto b = static_cast<std::uint32_t>(rng.uniformInt(1, n));
    if (a != b) g.addLink(plainLink(a, b));
  }
  return g;
}

TEST(RouteEngineDegenerate, TiesAndZeroCostEdgesMatchLegacyTrees) {
  // All-equal hop costs: every parent choice is a tie, and a node's parent
  // is the first-popped neighbor that reached it. Zero-cost edges: a pop
  // can push a node at the popped distance with a smaller index, so pops
  // are not sorted by (dist, index) overall. The engine must still pick
  // the legacy spec's parent for every node, from every source.
  const LinkCostFn hop = [](const Link&, const Node&, const Node&, ProviderId) {
    return 1.0;
  };
  const LinkCostFn zeroOrHop = [](const Link& l, const Node&, const Node&,
                                  ProviderId) {
    return (l.a.value() + l.b.value()) % 3 == 0 ? 0.0 : 1.0;
  };
  const LinkCostFn allZero = [](const Link&, const Node&, const Node&,
                                ProviderId) { return 0.0; };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const NetworkGraph g = tieGraph(12 + static_cast<std::uint32_t>(seed) * 3,
                                    static_cast<int>(8 * seed), rng);
    for (const LinkCostFn& cost : {hop, zeroOrHop, allZero}) {
      const RouteEngine engine(g, cost);
      engine.graph().audit();
      for (const NodeId src : g.nodes()) {
        const auto want = legacy::shortestPathTree(g, src, cost);
        const PathTree tree = engine.shortestPathTree(src);
        for (const NodeId dst : g.nodes()) {
          const auto it = want.find(dst);
          ASSERT_EQ(tree.reaches(dst), it != want.end());
          if (it == want.end()) continue;
          expectRoutesIdentical(tree.routeTo(dst), it->second);
          expectRoutesIdentical(engine.shortestPath(src, dst),
                                legacy::shortestPath(g, src, dst, cost));
        }
      }
      const NodeId a = g.nodes().front();
      const NodeId b = g.nodes()[g.nodes().size() / 2];
      const auto wantK = legacy::kShortestPaths(g, a, b, 4, cost);
      const auto gotK = engine.kShortestPaths(a, b, 4);
      ASSERT_EQ(gotK.size(), wantK.size());
      for (std::size_t k = 0; k < wantK.size(); ++k) {
        expectRoutesIdentical(gotK[k], wantK[k]);
      }
    }
  }
}

/// Every tree, every point route (each stops early at its target) and
/// Yen from the first node to every other, against the legacy spec, bit
/// for bit; every tree also passes its audit.
void expectEngineMatchesLegacy(const NetworkGraph& g, const LinkCostFn& cost) {
  const RouteEngine engine(g, cost);
  engine.graph().audit();
  for (const NodeId src : g.nodes()) {
    const auto want = legacy::shortestPathTree(g, src, cost);
    const PathTree tree = engine.shortestPathTree(src);
    tree.audit();
    for (const NodeId dst : g.nodes()) {
      const auto it = want.find(dst);
      ASSERT_EQ(tree.reaches(dst), it != want.end());
      if (it != want.end()) expectRoutesIdentical(tree.routeTo(dst), it->second);
      expectRoutesIdentical(engine.shortestPath(src, dst),
                            legacy::shortestPath(g, src, dst, cost));
    }
  }
  const NodeId a = g.nodes().front();
  for (const NodeId b : g.nodes()) {
    if (b == a) continue;
    const auto wantK = legacy::kShortestPaths(g, a, b, 4, cost);
    const auto gotK = engine.kShortestPaths(a, b, 4);
    ASSERT_EQ(gotK.size(), wantK.size());
    for (std::size_t k = 0; k < wantK.size(); ++k) {
      expectRoutesIdentical(gotK[k], wantK[k]);
    }
  }
}

/// Prices each link by its id from `table`, cycling.
LinkCostFn costByLinkId(std::vector<double> table) {
  return [table = std::move(table)](const Link& l, const Node&, const Node&,
                                    ProviderId) {
    return table[l.id.value() % table.size()];
  };
}

TEST(RouteEngineDegenerate, ZeroCostCyclesMatchLegacy) {
  // A zero-cost ring with unit chords, and unit spokes into zero-cost
  // triangles: whole components share one label, so the pop order inside
  // a label is the heap's own, not the index order.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 9; ++i) g.addNode(plainSatellite(i));
  for (const auto& [a, b] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {5, 3}, {3, 1}, {1, 5}, {5, 9}, {9, 2}, {2, 7}, {7, 9}, {3, 8},
           {8, 4}, {4, 6}, {6, 8}, {1, 2}}) {
    g.addLink(plainLink(a, b));
  }
  const LinkCostFn zeroTriangles = [](const Link& l, const Node&, const Node&,
                                      ProviderId) {
    const std::uint32_t v = l.id.value();
    return v == 4 || v == 7 || v == 12 ? 1.0 : 0.0;
  };
  const LinkCostFn allZero = [](const Link&, const Node&, const Node&,
                                ProviderId) { return 0.0; };
  expectEngineMatchesLegacy(g, zeroTriangles);
  expectEngineMatchesLegacy(g, allZero);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const NetworkGraph t = tieGraph(10 + static_cast<std::uint32_t>(seed),
                                    static_cast<int>(6 * seed), rng);
    expectEngineMatchesLegacy(t, costByLinkId({0.0, 0.0, 1.0}));
  }
}

TEST(RouteEngineDegenerate, TinyAndHugeCostsInOneGraphMatchLegacy) {
  // 1e300 over 5e-324 is far past the ring's span, so the buckets widen;
  // 1e300 + 1 == 1e300 also makes positive costs vanish into a label.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const NetworkGraph g = tieGraph(9 + 2 * static_cast<std::uint32_t>(seed),
                                    static_cast<int>(7 * seed), rng);
    const LinkCostFn mixed = costByLinkId({5e-324, 1e300, 1.0, 0.0, 1e300, 5e-324, 0.5});
    const RouteEngine engine(g, mixed);
    EXPECT_EQ(engine.graph().minPositiveCost(), 5e-324);
    EXPECT_EQ(engine.graph().maxCost(), 1e300);
    expectEngineMatchesLegacy(g, mixed);
    expectEngineMatchesLegacy(g, costByLinkId({1e300, 1.0, 1e300, 2.0}));
    expectEngineMatchesLegacy(g, costByLinkId({5e-324, 1e-323, 0.0}));
  }
}

TEST(RouteEngineDegenerate, ParallelLinksOfEqualCostGoByRowOrder) {
  // Three parallel links per hop at one price: the first in row order
  // (the lowest LinkId) is every parent, whichever order they tie in.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 4; ++i) g.addNode(plainSatellite(i));
  for (int copy = 0; copy < 3; ++copy) {
    g.addLink(plainLink(1, 2));
    g.addLink(plainLink(3, 2));
    g.addLink(plainLink(3, 4));
  }
  const LinkCostFn hop = [](const Link&, const Node&, const Node&, ProviderId) {
    return 1.0;
  };
  const RouteEngine engine(g, hop);
  const Route r = engine.shortestPath(NodeId{1}, NodeId{4});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.links, (std::vector<LinkId>{LinkId{1u}, LinkId{2u}, LinkId{3u}}));
  expectEngineMatchesLegacy(g, hop);
  expectEngineMatchesLegacy(g, costByLinkId({0.0}));
}

TEST(RouteEngineDegenerate, ExactTieDiamondsReachedFirstByTheHigherIndex) {
  // Nodes 8 and 2 share the label 0.5, and the source's row lists node 8
  // first, so node 8 relaxes the far corners first; Dijkstra pops node 2
  // first and keeps it as node 9's parent. Node 5 ties at 1.0 from node 8
  // (0.5 + 0.5) and from node 6 (0.875 + 0.125): node 8's label is lower.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 9; ++i) g.addNode(plainSatellite(i));
  std::vector<double> price(1, 0.0);
  const auto link = [&](std::uint32_t a, std::uint32_t b, double c) {
    g.addLink(plainLink(a, b));
    price.push_back(c);
  };
  link(1, 8, 0.5);
  link(1, 2, 0.5);
  link(8, 9, 0.25);
  link(2, 9, 0.25);
  link(8, 5, 0.5);
  link(2, 6, 0.375);
  link(6, 5, 0.125);
  const LinkCostFn cost = [price](const Link& l, const Node&, const Node&,
                                  ProviderId) { return price[l.id.value()]; };
  const RouteEngine engine(g, cost);
  const PathTree tree = engine.shortestPathTree(NodeId{1});
  EXPECT_EQ(tree.routeTo(NodeId{9}).nodes,
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{9}}));
  EXPECT_EQ(tree.routeTo(NodeId{5}).nodes,
            (std::vector<NodeId>{NodeId{1}, NodeId{8}, NodeId{5}}));
  expectEngineMatchesLegacy(g, cost);
}

TEST(RouteEngineDegenerate, TargetLabelDropsInsideItsBucket) {
  // Buckets are one unit wide. Node 3 is first labelled 1.5 straight from
  // the source, then 1.0 over node 2's zero-cost link; both labels sit in
  // bucket 1, so a point route may stop only once bucket 1 is drained.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 3; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(1, 3));
  g.addLink(plainLink(1, 2));
  g.addLink(plainLink(2, 3));
  const LinkCostFn cost = costByLinkId({0.0, 1.5, 1.0});
  const Route r = RouteEngine(g, cost).shortestPath(NodeId{1}, NodeId{3});
  EXPECT_EQ(r.cost, 1.0);
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  expectEngineMatchesLegacy(g, cost);
}

TEST(RouteEngineDegenerate, SparseLabelsJumpAcrossTheRing) {
  // Costs of 1 and 200 make the buckets one unit wide and the ring 256
  // buckets (four words of occupancy bits). Rings of 200-cost hops leave
  // long runs of empty buckets between labels and wrap the ring several
  // times, so the search's jumps cross words and wrap.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const NetworkGraph g = tieGraph(16 + 4 * static_cast<std::uint32_t>(seed),
                                    static_cast<int>(3 * seed), rng);
    expectEngineMatchesLegacy(g, costByLinkId({200.0, 1.0, 200.0, 63.5}));
  }
}

TEST(RouteEngineDegenerate, ForbiddenLinksAndIsolatedNodesMatchLegacy) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    NetworkGraph g = tieGraph(10 + static_cast<std::uint32_t>(seed),
                              static_cast<int>(5 * seed), rng);
    for (std::uint32_t i = 0; i < 3; ++i) {
      g.addNode(plainSatellite(100 + i));  // isolated
    }
    const double inf = std::numeric_limits<double>::infinity();
    expectEngineMatchesLegacy(g, costByLinkId({1.0, inf, 0.5, inf, 2.0}));
    expectEngineMatchesLegacy(g, costByLinkId({inf, 0.0, 1.0}));
  }
}

// --- The tree certificate ----------------------------------------------------

/// A copy of `tree` with its arrays edited by `edit`.
template <class Edit>
PathTree editedTree(const RouteEngine& engine, const PathTree& tree, Edit edit) {
  std::vector<double> dist = tree.distByIndex();
  std::vector<std::uint32_t> parent = tree.parentEdgeByIndex();
  edit(dist, parent);
  return PathTreeTestAccess::make(engine, tree.source(), std::move(dist),
                                  std::move(parent));
}

void expectAuditFails(const PathTree& tree, const std::string& what) {
  try {
    tree.audit();
    ADD_FAILURE() << "audit passed; expected: " << what;
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(PathTreeAudit, CorruptedTreesFailEachCheck) {
  // Unit hops from node 1: 2, 3 and 5 at 1, node 4 at 2 tied between its
  // in-edges from 2 and 3 (Dijkstra keeps 2's); 5 also hangs off 4.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 5; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(1, 2));  // link 1
  g.addLink(plainLink(1, 3));  // link 2
  g.addLink(plainLink(2, 4));  // link 3
  g.addLink(plainLink(3, 4));  // link 4
  g.addLink(plainLink(4, 5));  // link 5
  g.addLink(plainLink(1, 5));  // link 6
  const LinkCostFn hop = [](const Link&, const Node&, const Node&, ProviderId) {
    return 1.0;
  };
  const RouteEngine engine(g, hop);
  const CompactGraph& cg = engine.graph();
  const PathTree tree = engine.shortestPathTree(NodeId{1});
  tree.audit();
  const auto edgeOf = [&](std::uint32_t linkValue, std::uint32_t to) {
    for (const std::uint32_t e : cg.edgesOfLink(LinkId{linkValue})) {
      if (cg.edgeTarget(e) == cg.indexOf(NodeId{to})) return e;
    }
    ADD_FAILURE() << "no such edge";
    return CompactGraph::kInvalidIndex;
  };
  const std::uint32_t v4 = cg.indexOf(NodeId{4});
  const std::uint32_t v5 = cg.indexOf(NodeId{5});
  ASSERT_EQ(tree.parentEdgeByIndex()[v4], edgeOf(3, 4));

  expectAuditFails(editedTree(engine, tree,
                              [](auto& dist, auto&) { dist[0] = 0.5; }),
                   "the source");
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) {
                                parent[0] = edgeOf(1, 1);
                              }),
                   "the source");
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) {
                                parent[v4] = edgeOf(1, 2);  // targets node 2
                              }),
                   "does not reach its node tightly");
  expectAuditFails(editedTree(engine, tree,
                              [&](auto& dist, auto&) { dist[v4] = 2.5; }),
                   "does not reach its node tightly");
  // Node 5 hung off node 4 at 3: its parent edge is tight, but the direct
  // link from the source relaxes it to 1.
  expectAuditFails(editedTree(engine, tree,
                              [&](auto& dist, auto& parent) {
                                dist[v5] = 3.0;
                                parent[v5] = edgeOf(5, 5);
                              }),
                   "an edge relaxes a label");
  // Node 4 through node 3: tight, but Dijkstra relaxes it from node 2 first.
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) {
                                parent[v4] = edgeOf(4, 4);
                              }),
                   "first tight in-edge");
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) {
                                parent[v5] = CompactGraph::kInvalidIndex;
                              }),
                   "does not reach its node tightly");
}

TEST(PathTreeAudit, FlatLabelsFollowTheHeapOrder) {
  // All costs zero, source node 3: Dijkstra pops 3, then 2 (its only
  // neighbour), then 1, so node 2's parent is the edge from 3 although
  // node 1 has the lower index and a tight edge into 2 as well.
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 3; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(3, 2));  // link 1
  g.addLink(plainLink(2, 1));  // link 2
  g.addLink(plainLink(1, 2));  // link 3
  const LinkCostFn zero = [](const Link&, const Node&, const Node&, ProviderId) {
    return 0.0;
  };
  const RouteEngine engine(g, zero);
  const CompactGraph& cg = engine.graph();
  const std::uint32_t v2 = cg.indexOf(NodeId{2});
  const auto edgeInto = [&](std::uint32_t linkValue) {
    for (const std::uint32_t e : cg.edgesOfLink(LinkId{linkValue})) {
      if (cg.edgeTarget(e) == v2) return e;
    }
    return CompactGraph::kInvalidIndex;
  };
  const PathTree tree = engine.shortestPathTree(NodeId{3});
  tree.audit();
  EXPECT_EQ(tree.parentEdgeByIndex()[v2], edgeInto(1));
  expectEngineMatchesLegacy(g, zero);
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) {
                                parent[v2] = edgeInto(3);
                              }),
                   "first tight in-edge");
}

TEST(PathTreeAudit, LabelsAreUnreachedOrNonNegativeNumbers) {
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 3; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(1, 2));
  const RouteEngine engine(g);
  const PathTree tree = engine.shortestPathTree(NodeId{1});
  tree.audit();
  EXPECT_THROW(PathTree().audit(), StateError);
  const std::uint32_t v2 = engine.graph().indexOf(NodeId{2});
  const std::uint32_t v3 = engine.graph().indexOf(NodeId{3});
  // Node 3 is unreached: a parent there is stray, whatever it points at.
  expectAuditFails(editedTree(engine, tree,
                              [&](auto&, auto& parent) { parent[v3] = 0; }),
                   "an unreached node has a parent");
  // A label that is not +inf counts as reached, so a bad one cannot slip
  // past the checks that skip unreached nodes, even with a parent edge
  // out of range.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           -std::numeric_limits<double>::infinity()}) {
    expectAuditFails(editedTree(engine, tree,
                                [&](auto& dist, auto& parent) {
                                  dist[v3] = bad;
                                  parent[v3] = 12345;
                                }),
                     "a label is negative or NaN");
    expectAuditFails(editedTree(engine, tree,
                                [&](auto& dist, auto&) { dist[v2] = bad; }),
                     "a label is negative or NaN");
  }
}

// A parent cycle that never reaches the source ends the route walk at the
// node-count bound instead of looping. The bound is an OPENSPACE_ASSERT, so
// only builds without NDEBUG check it.
TEST(PathTreeAudit, ParentCycleAbortsTheRouteWalk) {
#ifdef NDEBUG
  GTEST_SKIP() << "OPENSPACE_ASSERT is compiled out under NDEBUG";
#else
  NetworkGraph g;
  for (std::uint32_t i = 1; i <= 3; ++i) g.addNode(plainSatellite(i));
  g.addLink(plainLink(1, 2));  // link 1
  g.addLink(plainLink(2, 3));  // link 2
  const RouteEngine engine(g);
  const CompactGraph& cg = engine.graph();
  const std::uint32_t v2 = cg.indexOf(NodeId{2});
  const std::uint32_t v3 = cg.indexOf(NodeId{3});
  const auto edgeInto = [&](std::uint32_t to) {
    for (const std::uint32_t e : cg.edgesOfLink(LinkId{2})) {
      if (cg.edgeTarget(e) == to) return e;
    }
    return CompactGraph::kInvalidIndex;
  };
  const PathTree cyclic = editedTree(
      engine, engine.shortestPathTree(NodeId{1}), [&](auto&, auto& parent) {
        parent[v2] = edgeInto(v2);  // 2 hangs off 3, and 3 off 2
        parent[v3] = edgeInto(v3);
      });
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)cyclic.routeTo(NodeId{3}),
               "reaches the source within the node count");
#endif
}

}  // namespace
}  // namespace openspace
