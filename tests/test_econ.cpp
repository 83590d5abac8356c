// Unit tests for the econ module: ledgers, cross-verification, settlement,
// peering recommendation, capex model.
#include <gtest/gtest.h>

#include <openspace/econ/capex.hpp>
#include <openspace/econ/ledger.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>

namespace openspace {
namespace {

TEST(Ledger, RecordAndQuery) {
  TrafficLedger ledger(ProviderId{1});
  ledger.record(ProviderId{2}, ProviderId{1}, 1000.0);
  ledger.record(ProviderId{2}, ProviderId{1}, 500.0);
  ledger.record(ProviderId{3}, ProviderId{1}, 200.0);
  EXPECT_DOUBLE_EQ(ledger.carriedBytes(ProviderId{2}, ProviderId{1}), 1500.0);
  EXPECT_DOUBLE_EQ(ledger.carriedBytes(ProviderId{3}, ProviderId{1}), 200.0);
  EXPECT_DOUBLE_EQ(ledger.carriedBytes(ProviderId{9}, ProviderId{9}), 0.0);
  EXPECT_EQ(ledger.observer(), ProviderId{1u});
  EXPECT_THROW(ledger.record(ProviderId{2}, ProviderId{1}, -1.0), InvalidArgumentError);
}

TEST(Ledger, TransitExcludesSelfCarriage) {
  TrafficLedger ledger(ProviderId{2});
  ledger.record(ProviderId{2}, ProviderId{1}, 1000.0);  // carried for someone else
  ledger.record(ProviderId{2}, ProviderId{2}, 9999.0);  // own traffic on own assets
  EXPECT_DOUBLE_EQ(ledger.totalTransitBytes(ProviderId{2}), 1000.0);
}

/// Builds a 3-provider path graph: user(P1) - satA(P2) - satB(P3) - gs(P1).
class SettlementTest : public ::testing::Test {
 protected:
  SettlementTest() {
    auto addNode = [&](NodeId id, NodeKind kind, ProviderId p) {
      Node n;
      n.id = id;
      n.kind = kind;
      n.provider = p;
      n.name = "n" + std::to_string(id.value());
      if (kind == NodeKind::Satellite) {
        n.satellite = SatelliteId{id.value()};
      } else {
        n.location = Geodetic::fromDegrees(0, 0);
      }
      g_.addNode(std::move(n));
    };
    addNode(NodeId{1}, NodeKind::User, ProviderId{1});
    addNode(NodeId{2}, NodeKind::Satellite, ProviderId{2});
    addNode(NodeId{3}, NodeKind::Satellite, ProviderId{3});
    addNode(NodeId{4}, NodeKind::GroundStation, ProviderId{1});
    auto addLink = [&](NodeId a, NodeId b) {
      Link l;
      l.a = a;
      l.b = b;
      l.capacityBps = 1e9;
      l.distanceM = 1000e3;
      l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
      g_.addLink(l);
    };
    addLink(NodeId{1}, NodeId{2});
    addLink(NodeId{2}, NodeId{3});
    addLink(NodeId{3}, NodeId{4});
    route_ = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{4});
  }
  NetworkGraph g_;
  Route route_;
};

TEST_F(SettlementTest, RouteAttributionPerTransmittingProvider) {
  SettlementEngine engine;
  engine.recordRouteTraffic(g_, route_, /*owner=*/ProviderId{1}, 1e6);
  // Hop 1->2 transmitted by user (P1, owner: free). Hop 2->3 by sat P2.
  // Hop 3->4 by sat P3.
  EXPECT_DOUBLE_EQ(engine.ledger(ProviderId{1}).carriedBytes(ProviderId{2}, ProviderId{1}), 1e6);
  EXPECT_DOUBLE_EQ(engine.ledger(ProviderId{1}).carriedBytes(ProviderId{3}, ProviderId{1}), 1e6);
  EXPECT_DOUBLE_EQ(engine.ledger(ProviderId{2}).carriedBytes(ProviderId{2}, ProviderId{1}), 1e6);
  EXPECT_DOUBLE_EQ(engine.ledger(ProviderId{3}).carriedBytes(ProviderId{3}, ProviderId{1}), 1e6);
  // Own infrastructure is never billed.
  EXPECT_DOUBLE_EQ(engine.ledger(ProviderId{1}).carriedBytes(ProviderId{1}, ProviderId{1}), 0.0);
  EXPECT_TRUE(engine.crossVerify());
}

TEST_F(SettlementTest, SettlementUsesTariffs) {
  SettlementEngine engine;
  engine.setTariff({ProviderId{2}, ProviderId{0}, 0.10});   // P2 default rate
  engine.setTariff({ProviderId{3}, ProviderId{1}, 0.50});   // P3 bilateral rate for P1
  engine.recordRouteTraffic(g_, route_, ProviderId{1}, 1e9);  // 1 GB
  const auto items = engine.settle();
  ASSERT_EQ(items.size(), 2u);
  double toP2 = 0.0, toP3 = 0.0;
  for (const auto& it : items) {
    EXPECT_EQ(it.payer, ProviderId{1u});
    if (it.payee == ProviderId{2}) toP2 = it.amountUsd;
    if (it.payee == ProviderId{3}) toP3 = it.amountUsd;
  }
  EXPECT_NEAR(toP2, 0.10, 1e-9);
  EXPECT_NEAR(toP3, 0.50, 1e-9);
}

TEST_F(SettlementTest, TariffFallbackAndValidation) {
  SettlementEngine engine;
  engine.setTariff({ProviderId{2}, ProviderId{}, 0.20});
  EXPECT_DOUBLE_EQ(engine.tariffUsdPerGb(ProviderId{2}, ProviderId{7}), 0.20);  // default
  engine.setTariff({ProviderId{2}, ProviderId{7}, 0.05});
  EXPECT_DOUBLE_EQ(engine.tariffUsdPerGb(ProviderId{2}, ProviderId{7}), 0.05);  // bilateral wins
  EXPECT_DOUBLE_EQ(engine.tariffUsdPerGb(ProviderId{9}, ProviderId{7}), 0.0);   // unknown carrier
  EXPECT_THROW(engine.setTariff({ProviderId{1}, ProviderId{}, -0.1}), InvalidArgumentError);
}

TEST_F(SettlementTest, CrossVerifyDetectsInflatedBooks) {
  SettlementEngine engine;
  engine.recordRouteTraffic(g_, route_, ProviderId{1}, 1e6);
  ASSERT_TRUE(engine.crossVerify());
  // Carrier P2 inflates its own books beyond what the owner saw.
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{1}, 5e5);
  EXPECT_FALSE(engine.crossVerify());
}

TEST_F(SettlementTest, RecordValidation) {
  SettlementEngine engine;
  EXPECT_THROW(engine.recordRouteTraffic(g_, Route{}, ProviderId{1}, 100.0),
               InvalidArgumentError);
  EXPECT_THROW(engine.recordRouteTraffic(g_, route_, ProviderId{1}, -5.0),
               InvalidArgumentError);
  EXPECT_THROW(engine.ledger(ProviderId{42}), NotFoundError);
}

TEST_F(SettlementTest, PeeringDetection) {
  SettlementEngine engine;
  // Symmetric mutual carriage between 2 and 3 via direct records.
  engine.addProvider(ProviderId{2});
  engine.addProvider(ProviderId{3});
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{3}, 1e6);
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{3})).record(ProviderId{3}, ProviderId{2}, 0.9e6);
  const auto peers = engine.recommendPeering(0.7, 1e3);
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].a, ProviderId{2u});
  EXPECT_EQ(peers[0].b, ProviderId{3u});
  EXPECT_NEAR(peers[0].symmetry, 0.9, 1e-9);
  // Raising the bar excludes them.
  EXPECT_TRUE(engine.recommendPeering(0.95, 1e3).empty());
  // Volume floor excludes small pairs.
  EXPECT_TRUE(engine.recommendPeering(0.7, 1e7).empty());
}

// --- capex -------------------------------------------------------------------

TEST(Capex, UnitCostIncludesAllComponents) {
  SatelliteCostModel m;
  m.busCostUsd = 1e6;
  m.integrationCostUsd = 2e5;
  m.launchUsdPerKg = 5000.0;
  m.busMassKg = 100.0;
  m.fccLicensingUsd = 12'145.0;
  m.terminals = {terminals::sBandIsl()};
  const TerminalSpec s = terminals::sBandIsl();
  const double expected =
      1e6 + 2e5 + 12'145.0 + s.unitCostUsd + (100.0 + s.massKg) * 5000.0;
  EXPECT_NEAR(m.unitCostUsd(), expected, 1e-6);
  EXPECT_NEAR(m.totalMassKg(), 100.0 + s.massKg, 1e-12);
}

TEST(Capex, FccFeeMatchesPaper) {
  // §3: "the FCC has proposed small satellite regulatory fees of about
  // $12,145".
  EXPECT_DOUBLE_EQ(rfOnlySatellite().fccLicensingUsd, 12'145.0);
}

TEST(Capex, LaserFleetCarriesThePremium) {
  const double rf = rfOnlySatellite().unitCostUsd();
  const double laser = laserEquippedSatellite().unitCostUsd();
  // Two laser terminals at $500k each plus launch mass.
  EXPECT_GT(laser - rf, 1'000'000.0);
}

TEST(Capex, CollaborationDividesTheBarrier) {
  const auto costs = collaborationCosts(6, 66, 6, rfOnlySatellite(),
                                        GroundStationCostModel{});
  EXPECT_NEAR(costs.totalCollaborativeUsd, costs.monolithicCapexUsd, 1.0);
  EXPECT_LT(costs.perProviderCapexUsd, costs.monolithicCapexUsd / 5.0);
  EXPECT_GT(costs.perProviderCapexUsd, costs.monolithicCapexUsd / 7.0);
}

TEST(Capex, UnevenSplitChargesTheRemainderHolders) {
  // 7 satellites over 3 providers: shares 3/2/2 -> max share has 3.
  const SatelliteCostModel sat = rfOnlySatellite();
  const GroundStationCostModel gs;
  const auto costs = collaborationCosts(3, 7, 0, sat, gs);
  EXPECT_NEAR(costs.perProviderCapexUsd, 3 * sat.unitCostUsd(), 1e-6);
}

TEST(Capex, DeploymentPlanTotals) {
  DeploymentPlan plan;
  plan.satellites = 10;
  plan.groundStations = 2;
  plan.satelliteModel = rfOnlySatellite();
  plan.stationModel = GroundStationCostModel{};
  EXPECT_NEAR(plan.capexUsd(),
              10 * plan.satelliteModel.unitCostUsd() +
                  2 * plan.stationModel.unitCostUsd(),
              1e-6);
}

TEST(Capex, Validation) {
  EXPECT_THROW(collaborationCosts(0, 66, 6, rfOnlySatellite(),
                                  GroundStationCostModel{}),
               InvalidArgumentError);
  EXPECT_THROW(collaborationCosts(3, 0, 6, rfOnlySatellite(),
                                  GroundStationCostModel{}),
               InvalidArgumentError);
  EXPECT_THROW(collaborationCosts(3, 66, -1, rfOnlySatellite(),
                                  GroundStationCostModel{}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
