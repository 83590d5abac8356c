// Unit tests for the sim module: the §4 Figure 2 engine and the
// multi-provider scenario orchestrator, whose traffic runs are pinned to
// the executable specs (EventQueue + FlowGenerator + ForwardingEngine over
// openspace::legacy routes) from openspace_spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/sim/scenario.hpp>
#include <openspace/spec/event.hpp>
#include <openspace/spec/flow_generator.hpp>
#include <openspace/spec/forwarding.hpp>
#include <openspace/spec/routing_legacy.hpp>

namespace openspace {
namespace {

TEST(Fig2Trial, ZeroSatellitesDisconnected) {
  Rng rng(1);
  const Fig2Trial t = runFig2Trial(0, Fig2Config{}, rng);
  EXPECT_FALSE(t.userCovered);
  EXPECT_FALSE(t.connected);
}

TEST(Fig2Trial, ConnectedTrialHasConsistentFields) {
  Fig2Config cfg;
  Rng rng(2);
  // With 120 satellites virtually every trial connects; find one.
  for (int i = 0; i < 10; ++i) {
    const Fig2Trial t = runFig2Trial(120, cfg, rng);
    if (!t.connected) continue;
    EXPECT_TRUE(t.userCovered);
    EXPECT_TRUE(t.stationCovered);
    EXPECT_GT(t.pathLengthM, 0.0);
    EXPECT_NEAR(t.latencyS, t.pathLengthM / kSpeedOfLightMps, 1e-15);
    EXPECT_GT(t.endToEndLatencyS, t.latencyS);  // adds up/down legs
    EXPECT_GE(t.islHops, 1);
    return;
  }
  FAIL() << "no connected trial in 10 attempts at N=120";
}

TEST(Fig2Trial, SameSatelliteServesBothEndsMeansZeroPath) {
  // User and station co-located: the same satellite picks both up.
  Fig2Config cfg;
  cfg.user = Geodetic::fromDegrees(10.0, 10.0);
  cfg.groundStation = Geodetic::fromDegrees(10.1, 10.1);
  Rng rng(3);
  bool sawZeroHop = false;
  for (int i = 0; i < 20 && !sawZeroHop; ++i) {
    const Fig2Trial t = runFig2Trial(40, cfg, rng);
    if (t.connected && t.islHops == 0) {
      EXPECT_DOUBLE_EQ(t.pathLengthM, 0.0);
      EXPECT_GT(t.endToEndLatencyS, 0.0);
      sawZeroHop = true;
    }
  }
  EXPECT_TRUE(sawZeroHop);
}

TEST(Fig2Sweep, ConnectivityImprovesWithFleetSize) {
  const auto sweep = fig2LatencySweep({5, 40, 100}, 40, Fig2Config{}, 7);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LE(sweep[0].connectivity, sweep[1].connectivity);
  EXPECT_LE(sweep[1].connectivity, sweep[2].connectivity);
  EXPECT_GT(sweep[2].connectivity, 0.8);
}

TEST(Fig2Sweep, PaperPlateauAnchor) {
  // Past ~25 satellites the paper reports latency flattening around 30 ms.
  const auto sweep = fig2LatencySweep({30, 60, 90}, 60, Fig2Config{}, 2024);
  for (const auto& pt : sweep) {
    ASSERT_GT(pt.connectedTrials, 0);
    EXPECT_GT(toMilliseconds(pt.meanLatencyS), 10.0);
    EXPECT_LT(toMilliseconds(pt.meanLatencyS), 60.0);
  }
}

TEST(Fig2Sweep, DeterministicGivenSeed) {
  const auto a = fig2LatencySweep({20}, 30, Fig2Config{}, 99);
  const auto b = fig2LatencySweep({20}, 30, Fig2Config{}, 99);
  EXPECT_DOUBLE_EQ(a[0].meanLatencyS, b[0].meanLatencyS);
  EXPECT_EQ(a[0].connectedTrials, b[0].connectedTrials);
}

TEST(Fig2Sweep, Validation) {
  EXPECT_THROW(fig2LatencySweep({}, 10, Fig2Config{}, 1), InvalidArgumentError);
  EXPECT_THROW(fig2LatencySweep({10}, 0, Fig2Config{}, 1),
               InvalidArgumentError);
  EXPECT_THROW(fig2CoverageSweep({}, 10, Fig2Config{}, 1),
               InvalidArgumentError);
  EXPECT_THROW(fig2CoverageSweep({10}, 0, Fig2Config{}, 1),
               InvalidArgumentError);
}

TEST(Fig2Coverage, MonotoneGrowthAndSaturation) {
  Fig2Config cfg;
  cfg.minElevationRad = deg2rad(10.0);
  const auto sweep = fig2CoverageSweep({5, 30, 90}, 10, cfg, 5);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].worstCaseCoverage, sweep[1].worstCaseCoverage);
  EXPECT_LT(sweep[1].worstCaseCoverage, sweep[2].worstCaseCoverage);
  EXPECT_GT(sweep[2].worstCaseCoverage, 0.9);  // near total at N=90
  // Effective satellites never exceed actual satellites.
  for (const auto& pt : sweep) {
    EXPECT_LE(pt.meanEffectiveSatellites, pt.satellites);
    EXPECT_GT(pt.meanEffectiveSatellites, 0.0);
  }
}

// --- scenario ----------------------------------------------------------------

ScenarioConfig smallScenario() {
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 33, 0.0, 0.10}, {"beta", 33, 0.5, 0.05}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(1.35, 103.82), 1}};
  cfg.users = {{"u-a", Geodetic::fromDegrees(40.44, -79.99), 0},
               {"u-b", Geodetic::fromDegrees(-33.87, 151.21), 1}};
  cfg.seed = 5;
  return cfg;
}

TEST(Scenario, BuildsAllPieces) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.ephemeris().size(), 66u);
  EXPECT_EQ(s.topology().groundStationCount(), 2u);
  EXPECT_EQ(s.topology().userCount(), 2u);
  EXPECT_EQ(s.providerId(0), ProviderId{1u});
  EXPECT_EQ(s.providerId(1), ProviderId{2u});
  EXPECT_THROW(s.providerId(5), InvalidArgumentError);
  EXPECT_EQ(s.beaconsAt(0.0).size(), 66u);
}

TEST(Scenario, OwnershipSplitMatchesConfig) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.ephemeris().satellitesOf(ProviderId{1}).size(), 33u);
  EXPECT_EQ(s.ephemeris().satellitesOf(ProviderId{2}).size(), 33u);
}

TEST(Scenario, ValidationRejectsBadConfigs) {
  ScenarioConfig empty;
  EXPECT_THROW(Scenario{empty}, InvalidArgumentError);
  ScenarioConfig zeroSats = smallScenario();
  zeroSats.providers[0].satellites = 0;
  EXPECT_THROW(Scenario{zeroSats}, InvalidArgumentError);
  ScenarioConfig badStation = smallScenario();
  badStation.stations[0].ownerProviderIndex = 9;
  EXPECT_THROW(Scenario{badStation}, InvalidArgumentError);
  ScenarioConfig badUser = smallScenario();
  badUser.users[0].homeProviderIndex = 9;
  EXPECT_THROW(Scenario{badUser}, InvalidArgumentError);
}

TEST(Scenario, HomeGatewayResolution) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.homeGatewayOf(0), s.stationNode(0));
  EXPECT_EQ(s.homeGatewayOf(1), s.stationNode(1));
  EXPECT_THROW(s.homeGatewayOf(9), InvalidArgumentError);
  ScenarioConfig cfg = smallScenario();
  cfg.stations.pop_back();  // beta loses its gateway
  Scenario s2(cfg);
  EXPECT_THROW(s2.homeGatewayOf(1), NotFoundError);
}

TEST(Scenario, UserAssociationSucceeds) {
  Scenario s(smallScenario());
  const AssociationResult res = s.associateUser(0, 0.0);
  EXPECT_TRUE(res.success) << res.failureReason;
  EXPECT_EQ(res.certificate.homeProvider, ProviderId{1u});
}

TEST(Scenario, TrafficEpochDeliversAndSettles) {
  Scenario s(smallScenario());
  const TrafficReport rep = s.runTrafficEpoch(0.0, 3.0, 1e6);
  EXPECT_GT(rep.packetsOffered, 0u);
  EXPECT_GT(rep.packetsDelivered, 0u);
  EXPECT_TRUE(rep.ledgersCrossVerified);
  EXPECT_GT(rep.meanLatencyS, 0.0);
  EXPECT_GE(rep.p95LatencyS, rep.meanLatencyS * 0.5);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 0.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 1.0, 0.0), InvalidArgumentError);
}

TEST(Scenario, RandomOrbitsModeWorks) {
  ScenarioConfig cfg = smallScenario();
  cfg.coordinatedWalker = false;
  Scenario s(cfg);
  EXPECT_EQ(s.ephemeris().size(), 66u);
  const NetworkGraph g = s.snapshot(0.0);
  EXPECT_GT(g.linkCount(), 10u);
}

TEST(Scenario, NodeAccessorsValidate) {
  Scenario s(smallScenario());
  EXPECT_NO_THROW(s.userNode(0));
  EXPECT_NO_THROW(s.stationNode(1));
  EXPECT_THROW(s.userNode(9), InvalidArgumentError);
  EXPECT_THROW(s.stationNode(9), InvalidArgumentError);
}

TEST(Scenario, AdaptiveEpochsRunAndReport) {
  Scenario s(smallScenario());
  const AdaptiveReport rep = s.runAdaptiveEpochs(0.0, 3, 2.0, 1e6);
  ASSERT_EQ(rep.epochMeanLatencyS.size(), 3u);
  ASSERT_EQ(rep.epochLossRate.size(), 3u);
  EXPECT_GT(rep.totalDelivered, 0u);
  for (const double lat : rep.epochMeanLatencyS) EXPECT_GE(lat, 0.0);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 0, 1.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 1, 0.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 1, 1.0, 0.0), InvalidArgumentError);
}

TEST(Scenario, AdaptiveFeedbackDoesNotDegradeService) {
  // After congestion feedback, later epochs must not lose more packets than
  // epoch 0 (route choices only get better-informed).
  Scenario s(smallScenario());
  const AdaptiveReport rep = s.runAdaptiveEpochs(0.0, 4, 2.0, 5e6);
  for (std::size_t e = 1; e < rep.epochLossRate.size(); ++e) {
    EXPECT_LE(rep.epochLossRate[e], rep.epochLossRate[0] + 0.05);
  }
}

// --- scenario traffic vs the executable specs ---------------------------------

/// What the spec stack measures for one traffic run.
struct SpecTraffic {
  std::size_t offered = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  LatencyStats latency;
};

/// One traffic run of `s`'s users on `g`, driven by the executable specs the
/// Scenario traffic loop was written against: legacy routes, an EventQueue,
/// one Poisson FlowGenerator stream seeded with `seed`, a ForwardingEngine,
/// and (when `ledgers` is set) per-packet settlement of every delivery.
SpecTraffic runSpecTraffic(const Scenario& s, const NetworkGraph& g,
                           const LinkCostFn& cost, double startS,
                           double durationS, double rateBps, QosClass qos,
                           std::uint64_t seed, SettlementEngine* ledgers) {
  const std::size_t users = s.config().users.size();
  std::vector<Route> routes(users);
  for (std::size_t u = 0; u < users; ++u) {
    routes[u] = legacy::shortestPath(g, s.userNode(u), s.homeGatewayOf(u), cost);
  }
  auto userOf = [&](NodeId src) {
    for (std::size_t u = 0; u < users; ++u) {
      if (s.userNode(u) == src) return u;
    }
    ADD_FAILURE() << "packet from a non-user node";
    return std::size_t{0};
  };

  EventQueue events;
  events.run(startS);
  ForwardingEngine engine(g, events);
  if (ledgers != nullptr) {
    engine.onComplete([&](const DeliveryRecord& rec) {
      if (!rec.delivered) return;
      ledgers->recordRouteTraffic(g, routes[userOf(rec.packet.src)],
                                  rec.packet.homeProvider,
                                  rec.packet.sizeBits / 8.0);
    });
  }
  Rng rng(seed);
  FlowGenerator gen(events, rng, [&](const Packet& p) {
    engine.send(p, routes[userOf(p.src)]);
  });
  for (std::size_t u = 0; u < users; ++u) {
    if (!routes[u].valid()) continue;
    FlowSpec flow;
    flow.src = s.userNode(u);
    flow.dst = s.homeGatewayOf(u);
    flow.rateBps = rateBps;
    flow.qos = qos;
    flow.homeProvider = s.providerId(s.config().users[u].homeProviderIndex);
    flow.startS = startS;
    flow.stopS = startS + durationS;
    gen.addFlow(flow);
  }
  events.runAll();
  return SpecTraffic{gen.packetsEmitted(), engine.delivered(), engine.dropped(),
                     engine.stats()};
}

/// A settlement engine with `s`'s providers and tariffs and empty ledgers.
SettlementEngine freshLedgers(const Scenario& s) {
  SettlementEngine out;
  for (std::size_t p = 0; p < s.config().providers.size(); ++p) {
    out.addProvider(s.providerId(p));
    out.setTariff({s.providerId(p), ProviderId{},
                   s.config().providers[p].transitTariffUsdPerGb});
  }
  return out;
}

/// The small scenario with four users, so that routes share links.
ScenarioConfig busyScenario() {
  ScenarioConfig cfg = smallScenario();
  cfg.users.push_back({"u-c", Geodetic::fromDegrees(51.5, -0.12), 0});
  cfg.users.push_back({"u-d", Geodetic::fromDegrees(35.68, 139.69), 1});
  return cfg;
}

class ScenarioTrafficSpec : public ::testing::TestWithParam<double> {};

TEST_P(ScenarioTrafficSpec, FirstTrafficEpochMatchesSpecStack) {
  const ScenarioConfig cfg = busyScenario();
  const double rateBps = GetParam();
  const double t0 = 120.0;
  const double durationS = 2.0;
  const QosClass qos = QosClass::Standard;
  Scenario s(cfg);
  const NetworkGraph g = s.snapshot(t0);
  SettlementEngine specLedgers = freshLedgers(s);
  const SpecTraffic spec =
      runSpecTraffic(s, g, makeCostFunction(CostWeights::forQos(qos)), t0,
                     durationS, rateBps, qos, cfg.seed, &specLedgers);
  ASSERT_GT(spec.offered, 0u);
  if (rateBps > 1e7) EXPECT_GT(spec.dropped, 0u) << "overload rate drops nothing";

  const TrafficReport rep = s.runTrafficEpoch(t0, durationS, rateBps, qos);
  EXPECT_EQ(rep.packetsOffered, spec.offered);
  EXPECT_EQ(rep.packetsDelivered, spec.delivered);
  EXPECT_EQ(rep.packetsDropped, spec.dropped);
  ASSERT_GT(spec.latency.count(), 0u);
  EXPECT_EQ(rep.meanLatencyS, spec.latency.meanS());
  EXPECT_EQ(rep.p95LatencyS, spec.latency.p95S());
  EXPECT_EQ(rep.lossProbability, spec.latency.lossRate());
  EXPECT_TRUE(rep.ledgersCrossVerified);

  ASSERT_EQ(s.settlement().providers(), specLedgers.providers());
  for (const ProviderId p : specLedgers.providers()) {
    EXPECT_EQ(s.settlement().ledger(p).entries(), specLedgers.ledger(p).entries())
        << "ledger of provider " << p.value();
  }
}

TEST_P(ScenarioTrafficSpec, FirstAdaptiveEpochMatchesSpecStack) {
  const ScenarioConfig cfg = busyScenario();
  const double rateBps = GetParam();
  const double t0 = 120.0;
  const double durationS = 2.0;
  Scenario s(cfg);
  const SpecTraffic spec =
      runSpecTraffic(s, s.snapshot(t0), latencyCost(), t0, durationS, rateBps,
                     QosClass::Standard, cfg.seed, nullptr);
  ASSERT_GT(spec.offered, 0u);

  const AdaptiveReport rep = s.runAdaptiveEpochs(t0, 1, durationS, rateBps);
  ASSERT_EQ(rep.epochMeanLatencyS.size(), 1u);
  EXPECT_EQ(rep.totalDelivered + rep.totalDropped, spec.offered);
  EXPECT_EQ(rep.totalDelivered, spec.delivered);
  EXPECT_EQ(rep.totalDropped, spec.dropped);
  ASSERT_GT(spec.latency.count(), 0u);
  EXPECT_EQ(rep.epochMeanLatencyS[0], spec.latency.meanS());
  EXPECT_EQ(rep.epochLossRate[0], spec.latency.lossRate());
}

// Light load (no queueing loss) and a rate past the shared links' buffers
// (drop-tail losses on the spec and the simulator alike).
INSTANTIATE_TEST_SUITE_P(Rates, ScenarioTrafficSpec,
                         ::testing::Values(1e6, 4e7));

void expectSameTraffic(const TrafficReport& a, const TrafficReport& b) {
  EXPECT_EQ(a.packetsOffered, b.packetsOffered);
  EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
  EXPECT_EQ(a.packetsDropped, b.packetsDropped);
  EXPECT_EQ(a.meanLatencyS, b.meanLatencyS);
  EXPECT_EQ(a.p95LatencyS, b.p95LatencyS);
  EXPECT_EQ(a.lossProbability, b.lossProbability);
  EXPECT_EQ(a.ledgersCrossVerified, b.ledgersCrossVerified);
  EXPECT_EQ(a.totalSettlementUsd, b.totalSettlementUsd);
  ASSERT_EQ(a.settlement.size(), b.settlement.size());
  for (std::size_t i = 0; i < a.settlement.size(); ++i) {
    EXPECT_EQ(a.settlement[i].payer, b.settlement[i].payer);
    EXPECT_EQ(a.settlement[i].payee, b.settlement[i].payee);
    EXPECT_EQ(a.settlement[i].bytes, b.settlement[i].bytes);
    EXPECT_EQ(a.settlement[i].amountUsd, b.settlement[i].amountUsd);
  }
}

TEST(Scenario, TrafficRunsAreReproducibleAcrossInstances) {
  for (const bool coordinated : {true, false}) {
    ScenarioConfig cfg = busyScenario();
    cfg.coordinatedWalker = coordinated;
    Scenario a(cfg);
    Scenario b(cfg);
    const TrafficReport a1 = a.runTrafficEpoch(0.0, 2.0, 2e6);
    const TrafficReport b1 = b.runTrafficEpoch(0.0, 2.0, 2e6);
    expectSameTraffic(a1, b1);
    const TrafficReport a2 = a.runTrafficEpoch(0.0, 2.0, 2e6);
    const TrafficReport b2 = b.runTrafficEpoch(0.0, 2.0, 2e6);
    expectSameTraffic(a2, b2);
    if (a1.packetsOffered > 0) {
      // Run 1 draws a fresh Poisson stream (seed + 1), not a replay.
      EXPECT_NE(a1.meanLatencyS, a2.meanLatencyS) << "coordinated=" << coordinated;
    }
  }
}

TEST(Scenario, TrafficWithNoRoutableUserOffersNothing) {
  ScenarioConfig cfg = busyScenario();
  cfg.minElevationRad = deg2rad(89.99);  // no satellite is ever this high
  Scenario s(cfg);
  const NetworkGraph g = s.snapshot(0.0);
  for (std::size_t u = 0; u < cfg.users.size(); ++u) {
    ASSERT_TRUE(g.linksOf(s.userNode(u)).empty()) << "user " << u;
  }
  TrafficReport rep;
  ASSERT_NO_THROW(rep = s.runTrafficEpoch(0.0, 2.0, 1e6));
  EXPECT_EQ(rep.packetsOffered, 0u);
  EXPECT_EQ(rep.packetsDelivered, 0u);
  EXPECT_EQ(rep.packetsDropped, 0u);
  EXPECT_EQ(rep.meanLatencyS, 0.0);
  EXPECT_EQ(rep.p95LatencyS, 0.0);
  EXPECT_TRUE(rep.ledgersCrossVerified);
  EXPECT_TRUE(s.settlement().crossVerify());
  EXPECT_EQ(rep.totalSettlementUsd, 0.0);

  AdaptiveReport adaptive;
  ASSERT_NO_THROW(adaptive = s.runAdaptiveEpochs(0.0, 2, 1.0, 1e6));
  EXPECT_EQ(adaptive.totalDelivered, 0u);
  EXPECT_EQ(adaptive.totalDropped, 0u);
  EXPECT_EQ(adaptive.reroutedFlows, 0);
}

}  // namespace
}  // namespace openspace
