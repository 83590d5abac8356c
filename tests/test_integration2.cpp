// Integration tests across the extension modules: serialization feeding
// topology/routing, population feeding scenarios, the full §5(6) fraud →
// audit → quarantine → reroute pipeline, temporal-vs-instant routing
// consistency, and the physical-adjacency path-vector control plane.
#include <gtest/gtest.h>

#include <sstream>

#include <openspace/geo/units.hpp>
#include <openspace/io/ephemeris_io.hpp>
#include <openspace/orbit/maneuver.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/linkstate.hpp>
#include <openspace/routing/pathvector.hpp>
#include <openspace/routing/temporal.hpp>
#include <openspace/security/reputation.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/sim/scenario.hpp>

namespace openspace {
namespace {

TEST(Integration2, SerializedEphemerisReproducesTopologyAndRoutes) {
  // A fleet published by one participant and loaded by another from the
  // interchange format must produce identical snapshots and routes — the
  // "public topology" guarantee the routing design rests on.
  EphemerisService original;
  int p = 0;
  for (const auto& el : makeWalkerStar(iridiumConfig())) {
    original.publish(static_cast<ProviderId>(1 + (p++ % 2)), el);
  }
  const EphemerisService loaded =
      ephemerisFromString(ephemerisToString(original));

  TopologyBuilder topoA(original);
  TopologyBuilder topoB(loaded);
  const NodeId userA =
      topoA.addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{1}});
  const NodeId gwA =
      topoA.nodeOf(topoA.addGroundStation({"g", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
  const NodeId userB =
      topoB.addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{1}});
  const NodeId gwB =
      topoB.nodeOf(topoB.addGroundStation({"g", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));

  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph gA = topoA.snapshot(1234.5, opt);
  const NetworkGraph gB = topoB.snapshot(1234.5, opt);
  ASSERT_EQ(gA.nodeCount(), gB.nodeCount());
  ASSERT_EQ(gA.linkCount(), gB.linkCount());

  const Route rA = RouteEngine(gA, latencyCost()).shortestPath(userA, gwA);
  const Route rB = RouteEngine(gB, latencyCost()).shortestPath(userB, gwB);
  ASSERT_EQ(rA.valid(), rB.valid());
  if (rA.valid()) {
    EXPECT_EQ(rA.nodes, rB.nodes);
    EXPECT_DOUBLE_EQ(rA.propagationDelayS, rB.propagationDelayS);
  }
}

TEST(Integration2, PopulationSampledUsersFormAWorkingScenario) {
  // Build a scenario whose users come from the §5(1) demand model.
  const PopulationModel world = defaultWorldPopulation();
  Rng rng(31);
  const auto sampled = world.sampleUsers(4, rng);

  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 33, 0.0, 0.05}, {"beta", 33, 0.0, 0.05}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(1.35, 103.82), 1}};
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    cfg.users.push_back({"pop-user-" + std::to_string(i), sampled[i].location,
                         i % 2});
  }
  cfg.seed = 77;
  Scenario s(cfg);
  const TrafficReport rep = s.runTrafficEpoch(0.0, 2.0, 1e6);
  // Some sampled users may be over ocean/out of momentary coverage; the
  // scenario must still run and account correctly for the rest.
  EXPECT_TRUE(rep.ledgersCrossVerified);
  EXPECT_EQ(rep.packetsDelivered + rep.packetsDropped, rep.packetsOffered);
}

TEST(Integration2, FraudAuditQuarantineReroutePipeline) {
  // End-to-end §5(6): run traffic, inflate one provider's books, audit,
  // quarantine, and verify the quarantine-aware route avoids the cheat
  // while an honest alternative exists.
  // Three providers: the third is the witness the audit needs to
  // arbitrate between mallory's books and the owner's.
  ScenarioConfig cfg;
  cfg.providers = {{"honest-a", 22, 0.0, 0.05},
                   {"mallory", 22, 0.0, 0.05},
                   {"honest-b", 22, 0.0, 0.05}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-m", Geodetic::fromDegrees(1.35, 103.82), 1},
                  {"gw-b", Geodetic::fromDegrees(-1.29, 36.82), 2}};
  cfg.users = {{"u", Geodetic::fromDegrees(40.44, -79.99), 0},
               {"v", Geodetic::fromDegrees(-33.87, 151.21), 2}};
  cfg.seed = 13;
  Scenario s(cfg);
  ASSERT_GT(s.runTrafficEpoch(0.0, 3.0, 2e6).packetsDelivered, 0u);

  const ProviderId mallory = s.providerId(1);
  auto& book = const_cast<TrafficLedger&>(s.settlement().ledger(mallory));
  const auto entries = book.entries();  // copy: we mutate below
  for (const auto& [key, bytes] : entries) {
    if (key.first == mallory && key.second != mallory) {
      book.record(key.first, key.second, bytes * 9.0);  // 10x inflation
    }
  }
  ReputationTracker rep(0.7);
  applyAuditFindings(auditLedgers(s.settlement()), rep);
  if (!rep.quarantined(mallory)) {
    GTEST_SKIP() << "no billable mallory hop this epoch";
  }

  const NetworkGraph g = s.snapshot(0.0);
  const LinkCostFn guarded = quarantineAwareCost(latencyCost(), rep);
  const Route r =
      RouteEngine(g, guarded).shortestPath(s.userNode(0), s.homeGatewayOf(0));
  if (r.valid()) {
    for (const NodeId n : r.nodes) {
      EXPECT_NE(g.node(n).provider, mallory);
    }
  }
}

TEST(Integration2, TemporalNeverBeatsInstantaneousOnDenseFleet) {
  // On a dense fleet the earliest-arrival delivery cannot be faster than
  // the best instantaneous route (it uses the same links), and must not be
  // slower than it by more than numerical noise when a path exists at the
  // start snapshot.
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  const NodeId user =
      topo.addUser({"u", Geodetic::fromDegrees(-1.29, 36.82), ProviderId{1}});
  const NodeId gw =
      topo.nodeOf(topo.addGroundStation({"g", Geodetic::fromDegrees(-4.04, 39.67), ProviderId{2}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);

  const NetworkGraph g = topo.snapshot(0.0, opt);
  const Route instant = RouteEngine(g, latencyCost()).shortestPath(user, gw);
  ASSERT_TRUE(instant.valid());

  const ContactGraphRouter router(topo, opt, 0.0, 300.0, 60.0);
  const TemporalRoute temporal = router.earliestArrival(user, gw, 0.0);
  ASSERT_TRUE(temporal.reachable);
  EXPECT_NEAR(temporal.totalDelayS(), instant.totalDelayS(), 1e-9);
}

TEST(Integration2, PathVectorOverPhysicalAdjacencyMatchesIslReachability) {
  // Providers adjacent iff a cross-provider ISL exists; under mesh policy
  // the control plane must reach exactly the providers in the same
  // physical component.
  EphemerisService eph;
  const auto elements = makeWalkerStar(iridiumConfig());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    eph.publish(static_cast<ProviderId>(1 + (i % 4)), elements[i]);
  }
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = topo.snapshot(0.0, opt);

  std::set<std::pair<ProviderId, ProviderId>> adjacency;
  for (const LinkId lid : g.links()) {
    const Link& l = g.link(lid);
    const ProviderId a = g.node(l.a).provider;
    const ProviderId b = g.node(l.b).provider;
    if (a != b) adjacency.insert({std::min(a, b), std::max(a, b)});
  }
  ASSERT_FALSE(adjacency.empty());
  std::vector<ProviderLink> links;
  for (const auto& [a, b] : adjacency) {
    links.push_back({a, b, Relationship::Mesh, Relationship::Mesh});
  }
  const auto rep = runPathVector({ProviderId{1}, ProviderId{2}, ProviderId{3}, ProviderId{4}}, links);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(rep.reachability, 1.0);  // interleaved planes: connected
}

TEST(Integration2, ManeuverBudgetsForWholeConstellationAreBounded) {
  // Every satellite of an Iridium-like deployment can be placed from a
  // 500 km rideshare with single-digit-percent propellant fractions.
  const auto slots = makeWalkerStar(iridiumConfig());
  const double dryMass = 100.0;
  double totalProp = 0.0;
  for (std::size_t i = 0; i < slots.size(); i += 11) {  // one per plane
    const SlotAcquisition acq =
        planSlotAcquisition(500e3, slots[i], /*phaseErr=*/0.5, dryMass);
    EXPECT_LT(acq.propellantKg, 0.12 * dryMass);
    totalProp += acq.propellantKg;
  }
  EXPECT_GT(totalProp, 0.0);
}

TEST(Integration2, LinkStateFloodFasterThanHandoverCadence) {
  // Sanity across subsystems: congestion state disseminates (~100 ms)
  // orders of magnitude faster than topology changes (~minutes between
  // handovers), so congestion-aware routing over flooded state is
  // self-consistent.
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const double floodS =
      stateDisseminationTimeS(g, g.nodesOfKind(NodeKind::Satellite).front());
  EXPECT_LT(floodS, 1.0);

  SweepConfig cfg;
  cfg.minElevationRad = deg2rad(10.0);
  const HandoverSweep sweep(eph, cfg);
  SessionTable table(eph.size(), 1);
  sweep.seed(table,
             {SessionSeed{1, Geodetic::fromDegrees(40.44, -79.99), 1e9, 1}},
             0.0, SeedMode::Planner);
  std::vector<SessionEvent> events;
  sweep.runEpoch(table, 3'600.0, &events);
  ASSERT_GT(events.size(), 1u);
  const double meanIntervalS = (events.back().atS - events.front().atS) /
                               static_cast<double>(events.size() - 1);
  EXPECT_GT(meanIntervalS, 100.0 * floodS);
}

}  // namespace
}  // namespace openspace
