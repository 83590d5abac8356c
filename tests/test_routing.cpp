// Unit tests for the routing module: cost models, Dijkstra, Yen k-shortest,
// cheapest-gateway selection and congestion-aware gateway offload, all
// through RouteEngine.
#include <gtest/gtest.h>

#include <cmath>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

/// A hand-built diamond topology:
///        2
///   1 <     > 4 --- 5(gs)
///        3
/// Top path (via 2) is shorter; bottom path (via 3) has more capacity.
class DiamondGraph : public ::testing::Test {
 protected:
  DiamondGraph() {
    for (NodeId::rep_type idValue = 1; idValue <= 4; ++idValue) {
      const NodeId id{idValue};
      Node n;
      n.id = id;
      n.kind = NodeKind::Satellite;
      n.provider = ProviderId{(idValue % 2 == 0) ? 20u : 10u};
      n.name = "sat" + std::to_string(idValue);
      n.satellite = SatelliteId{idValue};
      g_.addNode(std::move(n));
    }
    Node gs;
    gs.id = NodeId{5};
    gs.kind = NodeKind::GroundStation;
    gs.provider = ProviderId{30};
    gs.name = "gs";
    gs.location = Geodetic::fromDegrees(0, 0);
    g_.addNode(std::move(gs));

    top1_ = addLink(NodeId{1}, NodeId{2}, 1000e3, 10e6);
    top2_ = addLink(NodeId{2}, NodeId{4}, 1000e3, 10e6);
    bot1_ = addLink(NodeId{1}, NodeId{3}, 2000e3, 100e6);
    bot2_ = addLink(NodeId{3}, NodeId{4}, 2000e3, 100e6);
    gsl_ = addLink(NodeId{4}, NodeId{5}, 1500e3, 500e6, LinkType::Gsl);
  }

  LinkId addLink(NodeId a, NodeId b, double dist, double cap,
                 LinkType type = LinkType::IslRf) {
    Link l;
    l.a = a;
    l.b = b;
    l.type = type;
    l.distanceM = dist;
    l.propagationDelayS = dist / kSpeedOfLightMps;
    l.capacityBps = cap;
    return g_.addLink(l);
  }

  NetworkGraph g_;
  LinkId top1_, top2_, bot1_, bot2_, gsl_;
};

TEST_F(DiamondGraph, ShortestPathPicksLowLatency) {
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{4}, NodeId{5}}));
  EXPECT_EQ(r.hops(), 3);
  EXPECT_NEAR(r.propagationDelayS, 3500e3 / kSpeedOfLightMps, 1e-12);
  EXPECT_DOUBLE_EQ(r.bottleneckBps, 10e6);
}

TEST_F(DiamondGraph, BandwidthWeightFlipsChoice) {
  CostWeights w;
  w.latencyWeight = 1.0;
  w.bandwidthWeight = 1e6;  // 0.1 cost on 10 Mbps links vs 0.01 on 100 Mbps
  const Route r = RouteEngine(g_, makeCostFunction(w)).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_DOUBLE_EQ(r.bottleneckBps, 100e6);
}

TEST_F(DiamondGraph, TariffWeightAvoidsExpensiveLinks) {
  g_.link(top1_).tariffUsdPerGb = 10.0;
  g_.link(top2_).tariffUsdPerGb = 10.0;
  CostWeights w;
  w.latencyWeight = 1.0;
  w.tariffWeight = 50.0;
  const Route r = RouteEngine(g_, makeCostFunction(w)).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST_F(DiamondGraph, QueueingDelayStealsTraffic) {
  g_.link(top1_).queueingDelayS = 0.050;  // hot link
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_DOUBLE_EQ(r.queueingDelayS, 0.0);
}

TEST_F(DiamondGraph, ForeignPenaltySteersTowardHomeAssets) {
  // Provider 10 owns odd satellites (1, 3); via-3 keeps one endpoint home
  // on every hop, via-2 does not (hop 2-4 is fully foreign).
  CostWeights w;
  w.latencyWeight = 1.0;
  w.foreignPenalty = 0.1;
  const Route r = RouteEngine(g_, makeCostFunction(w), /*home=*/ProviderId{10})
                      .shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST_F(DiamondGraph, PremiumRequiresLaser) {
  // All links are RF: a Premium flow that mandates laser finds no path.
  const Route r =
      RouteEngine(g_, makeCostFunction(CostWeights::forQos(QosClass::Premium)))
          .shortestPath(NodeId{1}, NodeId{5});
  EXPECT_FALSE(r.valid());
}

TEST_F(DiamondGraph, SameSourceAndDestination) {
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{3}, NodeId{3});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.hops(), 0);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST_F(DiamondGraph, UnknownEndpointsThrow) {
  const RouteEngine engine(g_, latencyCost());
  EXPECT_THROW(engine.shortestPath(NodeId{1}, NodeId{99}), NotFoundError);
  EXPECT_THROW(engine.shortestPath(NodeId{99}, NodeId{1}), NotFoundError);
  EXPECT_THROW(engine.shortestPathTree(NodeId{99}), NotFoundError);
}

TEST_F(DiamondGraph, UnreachableGivesInvalidRoute) {
  Node lonely;
  lonely.id = NodeId{42};
  lonely.kind = NodeKind::User;
  lonely.provider = ProviderId{1};
  lonely.name = "lonely";
  lonely.location = Geodetic::fromDegrees(0, 0);
  g_.addNode(std::move(lonely));
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{42});
  EXPECT_FALSE(r.valid());
}

TEST_F(DiamondGraph, ShortestPathTreeCoversComponent) {
  const PathTree tree = RouteEngine(g_, latencyCost()).shortestPathTree(NodeId{1});
  std::size_t reached = 0;
  for (const NodeId n : g_.nodes()) reached += tree.reaches(n) ? 1u : 0u;
  EXPECT_EQ(reached, 5u);  // all five nodes reachable
  EXPECT_EQ(tree.routeTo(NodeId{5}).nodes.front(), NodeId{1u});
  EXPECT_EQ(tree.routeTo(NodeId{5}).nodes.back(), NodeId{5u});
  // Subpath optimality: the tree's route to 4 is a prefix of the one to 5.
  const Route r4 = tree.routeTo(NodeId{4});
  const Route r5 = tree.routeTo(NodeId{5});
  ASSERT_EQ(r5.nodes.size(), r4.nodes.size() + 1);
  EXPECT_TRUE(std::equal(r4.nodes.begin(), r4.nodes.end(), r5.nodes.begin()));
}

TEST_F(DiamondGraph, KShortestFindsBothDiamondArms) {
  const auto routes = RouteEngine(g_, latencyCost()).kShortestPaths(NodeId{1}, NodeId{5}, 3);
  ASSERT_EQ(routes.size(), 2u);  // only two simple paths exist
  EXPECT_EQ(routes[0].nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{4}, NodeId{5}}));
  EXPECT_EQ(routes[1].nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_LE(routes[0].cost, routes[1].cost);
}

TEST_F(DiamondGraph, KShortestValidation) {
  EXPECT_THROW(RouteEngine(g_, latencyCost()).kShortestPaths(NodeId{1}, NodeId{5}, 0),
               InvalidArgumentError);
  // Unreachable destination: empty result, not a throw.
  Node lonely;
  lonely.id = NodeId{42};
  lonely.kind = NodeKind::User;
  lonely.provider = ProviderId{1};
  lonely.name = "l";
  lonely.location = Geodetic::fromDegrees(0, 0);
  g_.addNode(std::move(lonely));
  EXPECT_TRUE(RouteEngine(g_, latencyCost()).kShortestPaths(NodeId{1}, NodeId{42}, 3).empty());
}

TEST_F(DiamondGraph, NegativeCostRejected) {
  const LinkCostFn bad = [](const Link&, const Node&, const Node&, ProviderId) {
    return -1.0;
  };
  EXPECT_THROW(RouteEngine(g_, bad).shortestPath(NodeId{1}, NodeId{5}),
               InvalidArgumentError);
}

TEST_F(DiamondGraph, InfiniteCostForbidsLink) {
  const LinkCostFn noTop = [this](const Link& l, const Node&, const Node&,
                                  ProviderId) {
    if (l.id == top1_) return std::numeric_limits<double>::infinity();
    return l.totalDelayS();
  };
  const Route r = RouteEngine(g_, noTop).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST(QosPresets, PremiumWeighsLatencyHarder) {
  const CostWeights bulk = CostWeights::forQos(QosClass::Bulk);
  const CostWeights prem = CostWeights::forQos(QosClass::Premium);
  EXPECT_GT(prem.latencyWeight, bulk.latencyWeight);
  EXPECT_GT(bulk.tariffWeight, prem.tariffWeight);
  EXPECT_TRUE(prem.requireLaserForPremium);
}

/// Hop-count cost: both diamond arms tie at every depth.
LinkCostFn hopCost() {
  return [](const Link&, const Node&, const Node&, ProviderId) { return 1.0; };
}

TEST_F(DiamondGraph, RouteToCheapestPicksLowestCostTarget) {
  const PathTree tree = RouteEngine(g_, latencyCost()).shortestPathTree(NodeId{1});
  const Route r = tree.routeToCheapest({NodeId{5}, NodeId{4}});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes.back(), NodeId{4});  // 4 is one hop nearer than 5
  const Route want = tree.routeTo(NodeId{4});
  EXPECT_EQ(r.nodes, want.nodes);
  EXPECT_EQ(r.links, want.links);
  EXPECT_DOUBLE_EQ(r.cost, want.cost);
}

TEST_F(DiamondGraph, RouteToCheapestTieGoesToEarlierTarget) {
  const PathTree tree = RouteEngine(g_, hopCost()).shortestPathTree(NodeId{1});
  ASSERT_DOUBLE_EQ(tree.costTo(NodeId{2}), tree.costTo(NodeId{3}));
  EXPECT_EQ(tree.routeToCheapest({NodeId{3}, NodeId{2}}).nodes.back(), NodeId{3});
  EXPECT_EQ(tree.routeToCheapest({NodeId{2}, NodeId{3}}).nodes.back(), NodeId{2});
}

TEST_F(DiamondGraph, RouteToCheapestSkipsUnreachableTargets) {
  Node lonely;
  lonely.id = NodeId{42};
  lonely.kind = NodeKind::GroundStation;
  lonely.provider = ProviderId{1};
  lonely.name = "lonely";
  lonely.location = Geodetic::fromDegrees(0, 0);
  g_.addNode(std::move(lonely));
  const PathTree tree = RouteEngine(g_, latencyCost()).shortestPathTree(NodeId{1});
  const Route r = tree.routeToCheapest({NodeId{42}, NodeId{5}});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes.back(), NodeId{5});
  // No reachable target at all: an invalid Route, not a throw.
  EXPECT_FALSE(tree.routeToCheapest({NodeId{42}}).valid());
  EXPECT_FALSE(tree.routeToCheapest({}).valid());
}

TEST_F(DiamondGraph, RouteToCheapestUnknownTargetThrows) {
  const PathTree tree = RouteEngine(g_, latencyCost()).shortestPathTree(NodeId{1});
  EXPECT_THROW(tree.routeToCheapest({NodeId{5}, NodeId{99}}), NotFoundError);
}

// --- gateway selection over an Iridium +grid snapshot ----------------------

class ProactiveTest : public ::testing::Test {
 protected:
  ProactiveTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) eph_.publish(ProviderId{1}, el);
    builder_ = std::make_unique<TopologyBuilder>(eph_);
    gs_ = builder_->nodeOf(builder_->addGroundStation(
        {"gs", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
    user_ = builder_->addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{3}});
    opt_.wiring = IslWiring::PlusGrid;
    opt_.planes = 6;
    opt_.minElevationRad = deg2rad(10.0);
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> builder_;
  NodeId gs_ = {}, user_ = NodeId{0};
  SnapshotOptions opt_;
};

TEST_F(ProactiveTest, OnDemandSelectsBestGroundStation) {
  const NodeId gs2 = builder_->nodeOf(builder_->addGroundStation(
      {"gs2", Geodetic::fromDegrees(40.0, -80.5), ProviderId{2}}));  // right by the user
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const Route best = RouteEngine(g, latencyCost())
                         .shortestPathTree(user_)
                         .routeToCheapest(g.nodesOfKind(NodeKind::GroundStation));
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.nodes.back(), gs2);  // the nearby gateway wins
}

TEST_F(ProactiveTest, AlternativesAreDistinctAndOrdered) {
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const auto alts = RouteEngine(g, latencyCost()).kShortestPaths(user_, gs_, 4);
  ASSERT_GE(alts.size(), 2u);
  for (std::size_t i = 1; i < alts.size(); ++i) {
    EXPECT_GE(alts[i].cost, alts[i - 1].cost);
    EXPECT_NE(alts[i].nodes, alts[i - 1].nodes);
  }
}

TEST(QueueEstimate, Mm1Shape) {
  const double cap = 10e6;
  EXPECT_DOUBLE_EQ(estimateQueueingDelayS(0.0, cap), 0.0);
  const double half = estimateQueueingDelayS(0.5, cap);
  const double ninety = estimateQueueingDelayS(0.9, cap);
  EXPECT_GT(ninety, half);
  EXPECT_NEAR(half, (12'000.0 / cap) * 1.0, 1e-12);  // rho/(1-rho) = 1
  EXPECT_DOUBLE_EQ(estimateQueueingDelayS(1.5, cap), 2.0);  // saturated cap
  EXPECT_THROW(estimateQueueingDelayS(-0.1, cap), InvalidArgumentError);
  EXPECT_THROW(estimateQueueingDelayS(0.5, 0.0), InvalidArgumentError);
}

TEST(QueueEstimate, RejectsNanUtilization) {
  EXPECT_THROW(estimateQueueingDelayS(std::nan(""), 10e6), InvalidArgumentError);
}

TEST(QueueEstimate, RejectsNanCapacity) {
  EXPECT_THROW(estimateQueueingDelayS(0.5, std::nan("")), InvalidArgumentError);
}

TEST(QueueEstimate, RejectsNanMtu) {
  EXPECT_THROW(estimateQueueingDelayS(0.5, 10e6, std::nan("")),
               InvalidArgumentError);
}

TEST(QueueEstimate, RejectsNanMaxDelay) {
  EXPECT_THROW(estimateQueueingDelayS(0.5, 10e6, 12'000.0, std::nan("")),
               InvalidArgumentError);
}

TEST(QueueEstimate, RejectsNegativeMaxDelay) {
  EXPECT_THROW(estimateQueueingDelayS(0.5, 10e6, 12'000.0, -1.0),
               InvalidArgumentError);
  EXPECT_THROW(estimateQueueingDelayS(1.5, 10e6, 12'000.0, -1.0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
