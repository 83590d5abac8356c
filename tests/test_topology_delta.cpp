// Property tests for the incremental temporal topology pipeline
// (topology/delta.hpp): every step's CompactGraph must be bit-identical to
// the spec compile legacy::compileGraph() of the executable spec
// legacy::topologySnapshot under the same LinkCostFn, across all three ISL
// wiring policies and every shipped cost model, over randomized
// constellations and sweeps. contentChecksum() is the witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/regulation/regime.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/security/reputation.hpp>
#include <openspace/spec/topology_legacy.hpp>
#include <openspace/topology/delta.hpp>

namespace openspace {
namespace {

/// One per link: only structural link churn perturbs routes.
LinkCostFn hopCost() {
  return [](const Link&, const Node&, const Node&, ProviderId) { return 1.0; };
}

/// `cost` priced as provider `home` whatever home it is called with: how a
/// per-step sweep prices as a home provider.
LinkCostFn asHome(LinkCostFn cost, ProviderId home) {
  return [cost = std::move(cost), home](const Link& l, const Node& a,
                                        const Node& b, ProviderId) {
    return cost(l, a, b, home);
  };
}

LinkCapabilities laserCaps() {
  LinkCapabilities c;
  c.islBands = {Band::S};  // RF interoperability minimum
  c.hasLaserTerminal = true;
  return c;
}

/// A builder over a randomized Walker star with ground stations, users, and
/// a random subset of laser-capable satellites.
struct Scenario {
  EphemerisService eph;
  std::unique_ptr<TopologyBuilder> topo;
};

std::unique_ptr<Scenario> makeScenario(Rng& rng, int planes, int perPlane,
                                       int stations, int users) {
  auto sc = std::make_unique<Scenario>();
  WalkerConfig cfg;
  cfg.totalSatellites = planes * perPlane;
  cfg.planes = planes;
  cfg.phasing = static_cast<int>(rng.uniformInt(0, planes - 1));
  cfg.altitudeM = rng.uniform(km(500.0), km(1200.0));
  cfg.inclinationRad = rng.uniform(deg2rad(50.0), deg2rad(90.0));
  for (const auto& el : makeWalkerStar(cfg)) {
    sc->eph.publish(ProviderId{1}, el);
  }
  sc->topo = std::make_unique<TopologyBuilder>(sc->eph);
  for (const SatelliteId sid : sc->eph.satellites()) {
    if (rng.chance(0.5)) sc->topo->setCapabilities(sid, laserCaps());
  }
  for (int i = 0; i < stations; ++i) {
    sc->topo->addGroundStation(
        {"gw" + std::to_string(i), rng.surfacePoint(), ProviderId{2}});
  }
  for (int i = 0; i < users; ++i) {
    sc->topo->addUser({"u" + std::to_string(i), rng.surfacePoint(), ProviderId{1}});
  }
  return sc;
}

SnapshotOptions optsFor(IslWiring wiring, int planes, Rng& rng) {
  SnapshotOptions opt;
  opt.wiring = wiring;
  opt.planes = planes;
  opt.nearestK = static_cast<int>(rng.uniformInt(2, 5));
  opt.maxIslRangeM = rng.uniform(km(3000.0), km(6000.0));
  opt.minElevationRad = deg2rad(rng.uniform(5.0, 25.0));
  opt.interPlaneSeam = rng.chance(0.5);
  opt.preferLaser = rng.chance(0.8);
  return opt;
}

/// The links of `g` in LinkId order.
std::vector<Link> linksOf(const NetworkGraph& g) {
  std::vector<Link> out;
  for (const LinkId lid : g.links()) out.push_back(g.link(lid));
  return out;
}

/// One sweep: every step's graph passes audit() and checksums equal to a
/// compile of the spec snapshot under the same cost as `home`, and its
/// added and removed counts equal the spec's endpoint-pair diff of the
/// spec snapshots.
void expectBitIdenticalSweep(IslWiring wiring, const LinkCostFn& cost,
                             std::uint64_t seed, ProviderId home = {},
                             int planes = 4, int perPlane = 6) {
  Rng rng(seed);
  const auto sc = makeScenario(rng, planes, perPlane, 2, 3);
  const SnapshotOptions opt = optsFor(wiring, planes, rng);
  IncrementalTopology inc(*sc->topo, opt, asHome(cost, home));

  std::size_t structuralSteps = 0;
  std::size_t prevLinks = 0;
  std::vector<Link> prevSpecLinks;
  double t = 0.0;
  for (int k = 0; k < 24; ++k) {
    const TopologyDelta& d = inc.step(t);
    const NetworkGraph specSnap = legacy::topologySnapshot(*sc->topo, t, opt);
    const CompactGraph spec = legacy::compileGraph(specSnap, cost, home);
    ASSERT_NE(inc.graph(), nullptr);
    inc.graph()->audit();
    ASSERT_EQ(inc.graph()->contentChecksum(), spec.contentChecksum())
        << "wiring=" << static_cast<int>(wiring) << " seed=" << seed
        << " t=" << t;
    std::vector<Link> specLinks = linksOf(specSnap);
    const legacy::LinkChanges want =
        legacy::diffByEndpoints(prevSpecLinks, specLinks);
    ASSERT_EQ(d.addedLinks, want.added)
        << "wiring=" << static_cast<int>(wiring) << " seed=" << seed
        << " t=" << t;
    ASSERT_EQ(d.removedLinks, want.removed)
        << "wiring=" << static_cast<int>(wiring) << " seed=" << seed
        << " t=" << t;
    prevSpecLinks = std::move(specLinks);
    // Bookkeeping closes: the link count moves by added - removed.
    ASSERT_EQ(prevLinks + d.addedLinks, d.linkCount + d.removedLinks);
    if (d.structural) {
      ++structuralSteps;
    } else {
      ASSERT_EQ(d.addedLinks + d.removedLinks, 0u);
    }
    prevLinks = d.linkCount;
    t += rng.uniform(5.0, 40.0);
  }
  // The first step is always structural (there is no previous link set);
  // the step sizes are small enough that some steps keep it.
  EXPECT_GE(structuralSteps, 1u);
  EXPECT_LT(structuralSteps, 24u) << "seed=" << seed;
}

class DeltaBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaBitIdentity, PlusGridDelayCost) {
  expectBitIdenticalSweep(IslWiring::PlusGrid, latencyCost(), GetParam());
}

TEST_P(DeltaBitIdentity, NearestNeighborsDelayCost) {
  expectBitIdenticalSweep(IslWiring::NearestNeighbors, latencyCost(),
                          GetParam());
}

TEST_P(DeltaBitIdentity, AllInRangeDelayCost) {
  expectBitIdenticalSweep(IslWiring::AllInRange, latencyCost(), GetParam());
}

TEST_P(DeltaBitIdentity, PlusGridHopCost) {
  expectBitIdenticalSweep(IslWiring::PlusGrid, hopCost(), GetParam());
}

TEST_P(DeltaBitIdentity, DegeneratePlusGridWithReversedPairs) {
  // Two planes of two slots: the attempt list holds each ring pair in both
  // orders, (0, 1) and (1, 0), and each cross-plane pair in both orders
  // when the seam is wired.
  expectBitIdenticalSweep(IslWiring::PlusGrid, latencyCost(), GetParam(), {},
                          /*planes=*/2, /*perPlane=*/2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaBitIdentity,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Link keys ---------------------------------------------------------------

/// One 24-step sweep: every step has one key per link and no key twice; a
/// key names one endpoint pair over the whole sweep, so a link present at
/// consecutive steps keeps its key; the added and removed counts are the
/// key-set differences of consecutive steps. PlusGrid emits its keys in
/// ascending order.
void expectStableKeys(IslWiring wiring, std::uint64_t seed) {
  Rng rng(seed);
  const auto sc = makeScenario(rng, 4, 6, 2, 3);
  const SnapshotOptions opt = optsFor(wiring, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  using Endpoints = std::pair<std::uint32_t, std::uint32_t>;
  std::map<std::uint64_t, Endpoints> endpointsOf;  // over the whole sweep
  std::map<Endpoints, std::uint64_t> prevKeyOf;    // the previous step's
  std::set<std::uint64_t> prevKeys;
  std::size_t keptLinks = 0;
  double t = 0.0;
  for (int k = 0; k < 24; ++k) {
    const TopologyDelta& d = inc.step(t);
    const std::vector<std::uint64_t>& keys = inc.linkKeys();
    const std::vector<Link> links = linksOf(sc->topo->snapshot(t, opt));
    ASSERT_EQ(keys.size(), d.linkCount);
    ASSERT_EQ(links.size(), keys.size());
    const std::set<std::uint64_t> stepKeys(keys.begin(), keys.end());
    ASSERT_EQ(stepKeys.size(), keys.size()) << "a key repeats at t=" << t;
    if (wiring == IslWiring::PlusGrid) {
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    }
    std::map<Endpoints, std::uint64_t> keyOf;
    for (std::size_t p = 0; p < links.size(); ++p) {
      ASSERT_EQ(links[p].id, LinkId{static_cast<LinkId::rep_type>(p + 1)});
      const Endpoints ends{links[p].a.value(), links[p].b.value()};
      const auto [it, fresh] = endpointsOf.emplace(keys[p], ends);
      ASSERT_EQ(it->second, ends) << "key " << keys[p] << " renamed at t=" << t;
      keyOf.emplace(ends, keys[p]);
      if (const auto prev = prevKeyOf.find(ends); prev != prevKeyOf.end()) {
        ASSERT_EQ(prev->second, keys[p]) << "link changed key at t=" << t;
        ++keptLinks;
      }
    }
    std::size_t added = 0;
    for (const std::uint64_t key : stepKeys) added += prevKeys.count(key) == 0;
    std::size_t removed = 0;
    for (const std::uint64_t key : prevKeys) removed += stepKeys.count(key) == 0;
    ASSERT_EQ(d.addedLinks, added) << "t=" << t;
    ASSERT_EQ(d.removedLinks, removed) << "t=" << t;
    prevKeyOf = std::move(keyOf);
    prevKeys = stepKeys;
    t += rng.uniform(5.0, 40.0);
  }
  EXPECT_GT(keptLinks, 0u);
}

class LinkKeyStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkKeyStability, PlusGrid) {
  expectStableKeys(IslWiring::PlusGrid, GetParam());
}

TEST_P(LinkKeyStability, NearestNeighbors) {
  expectStableKeys(IslWiring::NearestNeighbors, GetParam());
}

TEST_P(LinkKeyStability, AllInRange) {
  expectStableKeys(IslWiring::AllInRange, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkKeyStability,
                         ::testing::Values(5u, 6u, 7u, 8u));

TEST(IncrementalTopology, LinkKeysEmptyBeforeTheFirstStep) {
  Rng rng(18);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const IncrementalTopology inc(*sc->topo, optsFor(IslWiring::PlusGrid, 4, rng));
  EXPECT_TRUE(inc.linkKeys().empty());
}

// --- Any cost model on the per-step path -----------------------------------

/// Every shipped cost model and one that reads the LinkId, run through
/// both wirings with stations and users in the snapshot: stations belong
/// to provider 2, satellites and users to provider 1.
void expectEveryCostModelMatchesSpec(IslWiring wiring, std::uint64_t seed) {
  CostWeights foreign = CostWeights::forQos(QosClass::Standard);
  foreign.foreignPenalty = 0.05;
  // Both wrappers capture these by reference: they outlive every sweep.
  const RegulatoryRegime regime = exampleGlobalRegime();
  ReputationTracker reputation;
  reputation.reportMisbehavior(ProviderId{2}, MisbehaviorKind::TamperedPayload,
                               50.0);
  ASSERT_TRUE(reputation.quarantined(ProviderId{2}));

  const struct {
    const char* name;
    LinkCostFn cost;
    ProviderId home;
  } models[] = {
      {"latency", latencyCost(), {}},
      {"hop", hopCost(), {}},
      // Reads the LinkId, which both producers must number alike.
      {"link-id",
       [](const Link& l, const Node&, const Node&, ProviderId) {
         return l.totalDelayS() + 1e-3 * static_cast<double>(l.id.value() % 7);
       },
       {}},
      {"foreign-penalty", makeCostFunction(foreign), ProviderId{2}},
      {"compliance", complianceConstrainedCost(latencyCost(), regime, 1),
       ProviderId{1}},
      {"quarantine",
       quarantineAwareCost(makeCostFunction(foreign), reputation),
       ProviderId{1}},
  };
  for (const auto& m : models) {
    SCOPED_TRACE(m.name);
    expectBitIdenticalSweep(wiring, m.cost, seed, m.home);
  }
}

TEST_P(DeltaBitIdentity, NearestNeighborsEveryCostModel) {
  expectEveryCostModelMatchesSpec(IslWiring::NearestNeighbors, GetParam());
}

TEST_P(DeltaBitIdentity, PlusGridEveryCostModel) {
  expectEveryCostModelMatchesSpec(IslWiring::PlusGrid, GetParam());
}

TEST(IncrementalTopology, CostModelsSeeTheLinkEndpoints) {
  // The foreign penalty reads both endpoints' providers, and the
  // compliance wrapper the ground endpoint's location: a penalized sweep
  // must differ from the unpenalized one, and the regulated sweep must
  // forbid some ground link.
  Rng rng(16);
  const auto sc = makeScenario(rng, 4, 6, 2, 3);
  const SnapshotOptions opt = optsFor(IslWiring::NearestNeighbors, 4, rng);
  CostWeights w = CostWeights::forQos(QosClass::Standard);
  IncrementalTopology plain(*sc->topo, opt,
                            asHome(makeCostFunction(w), ProviderId{2}));
  w.foreignPenalty = 0.05;
  IncrementalTopology penalized(*sc->topo, opt,
                                asHome(makeCostFunction(w), ProviderId{2}));
  const RegulatoryRegime regime = exampleGlobalRegime();
  IncrementalTopology regulated(
      *sc->topo, opt, complianceConstrainedCost(latencyCost(), regime, 1));
  std::size_t forbidden = 0;
  for (double t = 0.0; t < 3000.0; t += 300.0) {
    plain.step(t);
    penalized.step(t);
    const TopologyDelta& d = regulated.step(t);
    EXPECT_NE(plain.graph()->contentChecksum(),
              penalized.graph()->contentChecksum());
    forbidden += 2 * d.linkCount - regulated.graph()->edgeCount();
  }
  EXPECT_GT(forbidden, 0u);
}

TEST(IncrementalTopology, NanOrNegativeCostThrowsFromStep) {
  Rng rng(17);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    // The user's links price `bad` while `armed`, the latency cost otherwise.
    bool armed = false;
    IncrementalTopology inc(
        *sc->topo, opt,
        [bad, &armed](const Link& l, const Node&, const Node& b, ProviderId) {
          return armed && b.isUser() ? bad : l.totalDelayS();
        });
    IncrementalTopology clean(*sc->topo, opt);
    // Step until the user sees a satellite at t + 1800 s, so some link is
    // priced bad there; the link set that far on differs from t's.
    bool threw = false;
    for (double t = 0.0; t < 6000.0 && !threw; t += 60.0) {
      const TopologyDelta& last = inc.step(t);
      clean.step(t);
      const TopologyDelta lastCopy = last;
      const auto lastGraph = inc.graph();
      const std::vector<std::uint64_t> lastKeys = inc.linkKeys();
      const std::size_t lastCount = inc.stepCount();
      armed = true;
      try {
        inc.step(t + 1800.0);
      } catch (const InvalidArgumentError&) {
        threw = true;
      }
      armed = false;
      if (!threw) continue;
      // A failed step leaves the last completed step in place: its graph,
      // its delta and keys, and the link set the next step diffs against.
      EXPECT_EQ(inc.graph(), lastGraph);
      EXPECT_EQ(inc.linkKeys(), lastKeys);
      EXPECT_EQ(inc.stepCount(), lastCount);
      EXPECT_EQ(last.tSeconds, lastCopy.tSeconds);
      EXPECT_EQ(last.structural, lastCopy.structural);
      EXPECT_EQ(last.addedLinks, lastCopy.addedLinks);
      EXPECT_EQ(last.removedLinks, lastCopy.removedLinks);
      EXPECT_EQ(last.linkCount, lastCopy.linkCount);
      const TopologyDelta& next = inc.step(t + 60.0);
      const TopologyDelta& spec = clean.step(t + 60.0);
      EXPECT_EQ(inc.graph()->contentChecksum(), clean.graph()->contentChecksum());
      EXPECT_EQ(next.structural, spec.structural);
      EXPECT_EQ(next.addedLinks, spec.addedLinks);
      EXPECT_EQ(next.removedLinks, spec.removedLinks);
      EXPECT_EQ(next.linkCount, spec.linkCount);
      EXPECT_EQ(inc.linkKeys(), clean.linkKeys());
    }
    EXPECT_TRUE(threw) << "bad=" << bad;
  }
}

// --- Step/delta semantics --------------------------------------------------

TEST(IncrementalTopology, RepeatedTimestampSharesGraph) {
  Rng rng(11);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(100.0);
  const auto first = inc.graph();
  const TopologyDelta& d = inc.step(100.0);
  EXPECT_FALSE(d.structural);
  EXPECT_EQ(d.addedLinks, 0u);
  EXPECT_EQ(d.removedLinks, 0u);
  // Every step assembles a new graph; a repeated timestamp gives one that
  // no consumer can tell from the first.
  EXPECT_EQ(inc.graph()->contentChecksum(), first->contentChecksum());
  EXPECT_EQ(inc.stepCount(), 2u);
}

TEST(IncrementalTopology, HopCostStepsAreNotStructuralUnderStaticLinks) {
  // Hop cost is constant, but the geometry payloads (delay, capacity)
  // drift between distinct times: a step that keeps the link set must
  // still carry the new payload.
  Rng rng(12);
  const auto sc = makeScenario(rng, 4, 6, 0, 0);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  opt.includeGroundStations = false;
  opt.includeUserLinks = false;
  IncrementalTopology inc(*sc->topo, opt, hopCost());
  inc.step(0.0);
  const auto before = inc.graph();
  const TopologyDelta& d = inc.step(1.0);
  ASSERT_FALSE(d.structural);
  EXPECT_EQ(d.addedLinks + d.removedLinks, 0u);
  const CompactGraph& after = *inc.graph();
  ASSERT_EQ(after.edgeCount(), before->edgeCount());
  std::size_t drifted = 0;
  for (std::uint32_t e = 0; e < after.edgeCount(); ++e) {
    EXPECT_EQ(after.edgeCost(e), 1.0);
    if (bitsOf(after.edgePropagationDelayS(e)) !=
        bitsOf(before->edgePropagationDelayS(e))) {
      ++drifted;
    }
  }
  EXPECT_GT(drifted, 0u);
}

TEST(IncrementalTopology, RegistryFreeze) {
  Rng rng(13);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::NearestNeighbors, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  sc->topo->addUser({"late", Geodetic::fromDegrees(0.0, 0.0), ProviderId{1}});
  EXPECT_THROW(inc.step(1.0), StateError);
}

TEST(IncrementalTopology, PlusGridValidation) {
  Rng rng(14);
  const auto sc = makeScenario(rng, 4, 6, 0, 0);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 0;  // missing plane geometry
  EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError);
  opt.planes = 5;  // does not divide 24
  EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError);
}

TEST(IncrementalTopology, DegeneratePlusGridSelfPairThrows) {
  // Two planes of one slot each: the intra-plane ring neighbor of slot 0
  // is slot 0 itself. The incremental pipeline rejects the degenerate grid
  // eagerly instead of emitting a self-loop, as snapshot() does.
  EphemerisService eph;
  WalkerConfig cfg;
  cfg.totalSatellites = 2;
  cfg.planes = 2;
  cfg.altitudeM = km(780.0);
  cfg.inclinationRad = deg2rad(86.4);
  for (const auto& el : makeWalkerStar(cfg)) eph.publish(ProviderId{1}, el);
  const TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 2;
  EXPECT_THROW(IncrementalTopology(topo, opt), InvalidArgumentError);
  EXPECT_THROW(topo.snapshot(0.0, opt), InvalidArgumentError);
}

/// A Walker star of `sats` satellites, one per plane (none for 0), with
/// one ground station and one user.
std::unique_ptr<Scenario> tinyFleet(int sats) {
  auto sc = std::make_unique<Scenario>();
  if (sats > 0) {
    WalkerConfig cfg;
    cfg.totalSatellites = sats;
    cfg.planes = sats;
    cfg.altitudeM = km(780.0);
    cfg.inclinationRad = deg2rad(86.4);
    for (const auto& el : makeWalkerStar(cfg)) sc->eph.publish(ProviderId{1}, el);
  }
  sc->topo = std::make_unique<TopologyBuilder>(sc->eph);
  sc->topo->addGroundStation({"gw", Geodetic::fromDegrees(10.0, 20.0), ProviderId{2}});
  sc->topo->addUser({"u", Geodetic::fromDegrees(-5.0, 30.0), ProviderId{1}});
  return sc;
}

TEST(IncrementalTopology, TinyFleetsMatchTheSnapshotCompile) {
  // Fleets of 0, 1 and 2 satellites: the incremental graphs and the
  // engine's compile of snapshot() agree and pass audit() at every step.
  for (const int sats : {0, 1, 2}) {
    const auto sc = tinyFleet(sats);
    std::size_t linksSeen = 0;
    for (const IslWiring wiring :
         {IslWiring::NearestNeighbors, IslWiring::AllInRange}) {
      SnapshotOptions opt;
      opt.wiring = wiring;
      opt.maxIslRangeM = km(8000.0);
      IncrementalTopology inc(*sc->topo, opt);
      for (double t = 0.0; t < 6000.0; t += 300.0) {
        linksSeen += inc.step(t).linkCount;
        inc.graph()->audit();
        const RouteEngine fresh(sc->topo->snapshot(t, opt), latencyCost());
        fresh.graph().audit();
        ASSERT_EQ(inc.graph()->contentChecksum(), fresh.graph().contentChecksum())
            << "sats=" << sats << " wiring=" << static_cast<int>(wiring)
            << " t=" << t;
        EXPECT_EQ(inc.graph()->nodeCount(), static_cast<std::size_t>(sats) + 2);
      }
    }
    if (sats > 0) {
      EXPECT_GT(linksSeen, 0u) << "sats=" << sats;
    }
  }
}

TEST(IncrementalTopology, TinyFleetsKeepPlusGridErrors) {
  // PlusGrid has no grid to wire on an empty fleet, and one satellite per
  // plane or per ring wires a satellite to itself.
  const auto expectRejected = [](int sats, int planes) {
    const auto sc = tinyFleet(sats);
    SnapshotOptions opt;
    opt.wiring = IslWiring::PlusGrid;
    opt.planes = planes;
    EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError)
        << "sats=" << sats << " planes=" << planes;
    EXPECT_THROW((void)sc->topo->snapshot(0.0, opt), InvalidArgumentError)
        << "sats=" << sats << " planes=" << planes;
  };
  expectRejected(0, 0);
  expectRejected(0, 1);
  expectRejected(1, 1);
  expectRejected(2, 2);
  // Two satellites in one plane form a valid two-node ring.
  const auto sc = tinyFleet(2);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 1;
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  inc.graph()->audit();
  EXPECT_EQ(inc.graph()->contentChecksum(),
            RouteEngine(sc->topo->snapshot(0.0, opt), latencyCost())
                .graph()
                .contentChecksum());
}

TEST(IncrementalTopology, NanOptionsAndNegativeKThrow) {
  // The same validation as TopologyBuilder::snapshot(): the two used to
  // disagree on a NaN range (every NearestNeighbors ISL from snapshot(),
  // none from the incremental path).
  Rng rng(15);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const IslWiring wiring : {IslWiring::PlusGrid, IslWiring::NearestNeighbors,
                                 IslWiring::AllInRange}) {
    const SnapshotOptions opt = optsFor(wiring, 4, rng);
    EXPECT_NO_THROW(IncrementalTopology(*sc->topo, opt));
    SnapshotOptions bad = opt;
    bad.minElevationRad = nan;
    EXPECT_THROW(IncrementalTopology(*sc->topo, bad), InvalidArgumentError);
    bad = opt;
    bad.maxIslRangeM = nan;
    EXPECT_THROW(IncrementalTopology(*sc->topo, bad), InvalidArgumentError);
    bad = opt;
    bad.nearestK = -1;
    EXPECT_THROW(IncrementalTopology(*sc->topo, bad), InvalidArgumentError);
  }
}

// --- Route repair ----------------------------------------------------------

/// Repaired trees must equal fresh trees node-for-node: bitwise-equal dist
/// arrays and identical parent edges. Run a delta sweep keeping one tree
/// alive per source and repairing it each step.
void expectRepairEqualsFresh(const LinkCostFn& cost, std::uint64_t seed,
                             std::size_t* repairedSteps) {
  Rng rng(seed);
  const auto sc = makeScenario(rng, 4, 6, 2, 2);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt, cost);

  const std::vector<NodeId> sources = {
      sc->topo->nodeOf(sc->eph.satellites().front()),
      sc->topo->stationSites().front().node,
      sc->topo->userSites().front().node,
  };
  std::vector<PathTree> trees(sources.size());
  double t = 0.0;
  for (int k = 0; k < 16; ++k) {
    inc.step(t);
    const RouteEngine engine(inc.graph());
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const PathTree fresh = engine.shortestPathTree(sources[s]);
      if (!trees[s].valid()) {
        trees[s] = fresh;
        continue;
      }
      TreeRepairStats stats;
      const PathTree repaired = engine.repairShortestPathTree(trees[s], &stats);
      if (stats.repaired) ++*repairedSteps;
      ASSERT_EQ(repaired.source(), fresh.source());
      ASSERT_EQ(repaired.distByIndex().size(), fresh.distByIndex().size());
      for (std::size_t i = 0; i < fresh.distByIndex().size(); ++i) {
        ASSERT_EQ(bitsOf(repaired.distByIndex()[i]),
                  bitsOf(fresh.distByIndex()[i]))
            << "seed=" << seed << " t=" << t << " src=" << s << " node=" << i;
        ASSERT_EQ(repaired.parentEdgeByIndex()[i], fresh.parentEdgeByIndex()[i])
            << "seed=" << seed << " t=" << t << " src=" << s << " node=" << i;
      }
      trees[s] = repaired;
    }
    t += rng.uniform(2.0, 20.0);
  }
}

class RepairBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairBitIdentity, HopCostRepairsStructuralChurn) {
  // Hop cost is static per link, so only actual link churn (contacts
  // opening/closing) perturbs the tree.
  std::size_t repaired = 0;
  expectRepairEqualsFresh(hopCost(), GetParam(), &repaired);
}

TEST_P(RepairBitIdentity, DelayCostStaysCorrectUnderSeedFlood) {
  // Delay costs drift on every edge every step, so every step's graph is a
  // new object and the shim returns a fresh tree — which must be identical.
  std::size_t repaired = 0;
  expectRepairEqualsFresh(latencyCost(), GetParam(), &repaired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairBitIdentity, ::testing::Values(31u, 32u, 33u));

TEST(RouteRepair, SameGraphIsIdentityAndCheap) {
  Rng rng(41);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  const RouteEngine engine(inc.graph());
  const NodeId src = sc->topo->userSites().front().node;
  const PathTree tree = engine.shortestPathTree(src);
  TreeRepairStats stats;
  const PathTree again = engine.repairShortestPathTree(tree, &stats);
  EXPECT_TRUE(stats.repaired);
  EXPECT_EQ(stats.queuePops, 0u);
  EXPECT_EQ(again.distByIndex(), tree.distByIndex());
}

TEST(RouteRepair, NodeTemplateMismatchFallsBack) {
  Rng rng(42);
  const auto scA = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology incA(*scA->topo, opt);
  incA.step(0.0);
  const RouteEngine engineA(incA.graph());
  const NodeId src = scA->topo->nodeOf(scA->eph.satellites().front());
  const PathTree treeA = engineA.shortestPathTree(src);

  Rng rng2(43);
  const auto scB = makeScenario(rng2, 4, 6, 2, 1);  // extra station
  SnapshotOptions optB = optsFor(IslWiring::PlusGrid, 4, rng2);
  IncrementalTopology incB(*scB->topo, optB);
  incB.step(0.0);
  const RouteEngine engineB(incB.graph());
  TreeRepairStats stats;
  const PathTree repaired = engineB.repairShortestPathTree(treeA, &stats);
  EXPECT_FALSE(stats.repaired);
  EXPECT_STREQ(stats.fallbackReason, "fresh-tree");
  // Fallback result is still a correct fresh tree over engineB's graph.
  const PathTree fresh = engineB.shortestPathTree(src);
  EXPECT_EQ(repaired.distByIndex(), fresh.distByIndex());
}

TEST(RouteRepair, InvalidPreviousThrows) {
  Rng rng(44);
  const auto sc = makeScenario(rng, 4, 6, 0, 1);
  const SnapshotOptions opt = optsFor(IslWiring::AllInRange, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  const RouteEngine engine(inc.graph());
  EXPECT_THROW(engine.repairShortestPathTree(PathTree{}), InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
