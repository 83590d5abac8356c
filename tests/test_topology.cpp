// Unit tests for the topology module: graph container, snapshot builder,
// link capacity assignment, and the builder against its executable spec.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/spec/topology_legacy.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

Node satNode(NodeId id, SatelliteId sid, ProviderId p = ProviderId{1}) {
  Node n;
  n.id = id;
  n.kind = NodeKind::Satellite;
  n.provider = p;
  n.name = "sat";
  n.satellite = sid;
  return n;
}

Node groundNode(NodeId id, NodeKind kind, ProviderId p = ProviderId{1}) {
  Node n;
  n.id = id;
  n.kind = kind;
  n.provider = p;
  n.name = "gs";
  n.location = Geodetic::fromDegrees(0, 0);
  return n;
}

Link mkLink(NodeId a, NodeId b, double cap = 1e6) {
  Link l;
  l.a = a;
  l.b = b;
  l.capacityBps = cap;
  l.distanceM = 1000e3;
  l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
  return l;
}

TEST(Graph, AddAndQueryNodes) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  g.addNode(groundNode(NodeId{2}, NodeKind::GroundStation));
  EXPECT_EQ(g.nodeCount(), 2u);
  EXPECT_TRUE(g.hasNode(NodeId{1}));
  EXPECT_FALSE(g.hasNode(NodeId{3}));
  EXPECT_TRUE(g.node(NodeId{1}).isSatellite());
  EXPECT_TRUE(g.node(NodeId{2}).isGroundStation());
  EXPECT_THROW(g.node(NodeId{99}), NotFoundError);
}

TEST(Graph, DuplicateNodeRejected) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  EXPECT_THROW(g.addNode(satNode(NodeId{1}, SatelliteId{11})), InvalidArgumentError);
}

TEST(Graph, InconsistentNodeRejected) {
  NetworkGraph g;
  Node bad = satNode(NodeId{1}, SatelliteId{10});
  bad.location = Geodetic{};  // satellite with a ground fix: inconsistent
  EXPECT_THROW(g.addNode(bad), InvalidArgumentError);
  Node bad2 = groundNode(NodeId{2}, NodeKind::User);
  bad2.location.reset();  // ground asset without a fix
  EXPECT_THROW(g.addNode(bad2), InvalidArgumentError);
}

TEST(Graph, LinkLifecycle) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  g.addNode(satNode(NodeId{2}, SatelliteId{11}));
  const LinkId lid = g.addLink(mkLink(NodeId{1}, NodeId{2}));
  EXPECT_EQ(g.linkCount(), 1u);
  EXPECT_EQ(g.link(lid).otherEnd(NodeId{1}), NodeId{2u});
  EXPECT_EQ(g.link(lid).otherEnd(NodeId{2}), NodeId{1u});
  EXPECT_THROW(g.link(lid).otherEnd(NodeId{7}), InvalidArgumentError);
  EXPECT_EQ(g.linksOf(NodeId{1}).size(), 1u);
  // Links are never removed, so ids are 1..L in insertion order.
  g.addNode(satNode(NodeId{3}, SatelliteId{12}));
  const LinkId second = g.addLink(mkLink(NodeId{2}, NodeId{3}));
  EXPECT_EQ(lid, LinkId{1u});
  EXPECT_EQ(second, LinkId{2u});
  EXPECT_EQ(g.links(), (std::vector<LinkId>{lid, second}));
  EXPECT_THROW((void)g.link(LinkId{3u}), NotFoundError);
  EXPECT_THROW((void)g.link(LinkId{}), NotFoundError);
}

TEST(Graph, LinkValidation) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  g.addNode(satNode(NodeId{2}, SatelliteId{11}));
  EXPECT_THROW(g.addLink(mkLink(NodeId{1}, NodeId{99})), NotFoundError);
  EXPECT_THROW(g.addLink(mkLink(NodeId{1}, NodeId{1})), InvalidArgumentError);
  EXPECT_THROW(g.addLink(mkLink(NodeId{1}, NodeId{2}, 0.0)), InvalidArgumentError);
}

TEST(Graph, FindLinkEitherDirection) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  g.addNode(satNode(NodeId{2}, SatelliteId{11}));
  g.addNode(satNode(NodeId{3}, SatelliteId{12}));
  const LinkId lid = g.addLink(mkLink(NodeId{1}, NodeId{2}));
  EXPECT_EQ(g.findLink(NodeId{1}, NodeId{2}), std::optional<LinkId>(lid));
  EXPECT_EQ(g.findLink(NodeId{2}, NodeId{1}), std::optional<LinkId>(lid));
  EXPECT_EQ(g.findLink(NodeId{1}, NodeId{3}), std::nullopt);
  EXPECT_EQ(g.findLink(NodeId{99}, NodeId{1}), std::nullopt);
}

TEST(Graph, NodesOfKind) {
  NetworkGraph g;
  g.addNode(satNode(NodeId{1}, SatelliteId{10}));
  g.addNode(groundNode(NodeId{2}, NodeKind::GroundStation));
  g.addNode(groundNode(NodeId{3}, NodeKind::User));
  g.addNode(satNode(NodeId{4}, SatelliteId{11}));
  EXPECT_EQ(g.nodesOfKind(NodeKind::Satellite).size(), 2u);
  EXPECT_EQ(g.nodesOfKind(NodeKind::GroundStation).size(), 1u);
  EXPECT_EQ(g.nodesOfKind(NodeKind::User).size(), 1u);
}

TEST(Graph, TotalDelayCombinesPropagationAndQueueing) {
  Link l = mkLink(NodeId{1}, NodeId{2});
  l.queueingDelayS = 0.005;
  EXPECT_DOUBLE_EQ(l.totalDelayS(), l.propagationDelayS + 0.005);
}

// --- builder ---------------------------------------------------------------

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{static_cast<std::uint32_t>(1 + (eph_.size() % 3))}, el);  // 3 providers interleaved
    }
    builder_ = std::make_unique<TopologyBuilder>(eph_);
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> builder_;
};

TEST_F(BuilderTest, SatelliteNodesAreStable) {
  EXPECT_EQ(builder_->satelliteCount(), 66u);
  const SatelliteId sid = eph_.satellites().front();
  const NodeId nid = builder_->nodeOf(sid);
  EXPECT_EQ(builder_->satelliteOf(nid), sid);
  EXPECT_THROW(builder_->nodeOf(SatelliteId{9999}), NotFoundError);
  EXPECT_THROW(builder_->satelliteOf(NodeId{9999}), NotFoundError);
}

TEST_F(BuilderTest, DefaultCapabilitiesAreRfOnly) {
  const auto& caps = builder_->capabilities(eph_.satellites().front());
  EXPECT_FALSE(caps.hasLaserTerminal);
  EXPECT_FALSE(caps.islBands.empty());
}

TEST_F(BuilderTest, CapabilitiesMustIncludeRf) {
  LinkCapabilities caps;
  caps.islBands = {};  // violates the OpenSpace minimum
  EXPECT_THROW(builder_->setCapabilities(eph_.satellites().front(), caps),
               InvalidArgumentError);
  EXPECT_THROW(builder_->setCapabilities(SatelliteId{9999}, LinkCapabilities{}),
               NotFoundError);
}

TEST_F(BuilderTest, PlusGridSnapshotWiresRings) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  EXPECT_EQ(g.nodeCount(), 66u);
  // 66 intra-plane + 55 inter-plane candidate links; nearly all close.
  EXPECT_GE(g.linkCount(), 100u);
  EXPECT_LE(g.linkCount(), 121u);
  // Every satellite has at least 2 ISLs (its ring neighbors).
  for (const NodeId n : g.nodes()) {
    EXPECT_GE(g.linksOf(n).size(), 2u);
  }
}

TEST_F(BuilderTest, PlusGridRequiresValidPlaneCount) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 7;  // does not divide 66
  EXPECT_THROW(builder_->snapshot(0.0, opt), InvalidArgumentError);
}

TEST_F(BuilderTest, NanOptionsAndNegativeKThrow) {
  // Iridium with one gateway. A NaN mask used to link the gateway to every
  // satellite, below the horizon too; a NaN range kept every
  // NearestNeighbors ISL and dropped every AllInRange one; a negative k was
  // clamped to 0. All three now fail loudly.
  builder_->addGroundStation({"gw", Geodetic::fromDegrees(0.0, 0.0), ProviderId{1}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const IslWiring wiring : {IslWiring::PlusGrid, IslWiring::NearestNeighbors,
                                 IslWiring::AllInRange}) {
    SnapshotOptions opt;
    opt.wiring = wiring;
    opt.planes = 6;
    EXPECT_NO_THROW(builder_->snapshot(0.0, opt));
    SnapshotOptions bad = opt;
    bad.minElevationRad = nan;
    EXPECT_THROW(builder_->snapshot(0.0, bad), InvalidArgumentError);
    bad = opt;
    bad.maxIslRangeM = nan;
    EXPECT_THROW(builder_->snapshot(0.0, bad), InvalidArgumentError);
    bad = opt;
    bad.nearestK = -1;
    EXPECT_THROW(builder_->snapshot(0.0, bad), InvalidArgumentError);
  }
}

TEST_F(BuilderTest, NearestNeighborsHonorsK) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 2;
  const NetworkGraph g2 = builder_->snapshot(0.0, opt);
  opt.nearestK = 6;
  const NetworkGraph g6 = builder_->snapshot(0.0, opt);
  EXPECT_GT(g6.linkCount(), g2.linkCount());
}

TEST_F(BuilderTest, LaserUpgradeTakesEffect) {
  // Give everyone laser terminals: +grid links become optical.
  for (const SatelliteId sid : eph_.satellites()) {
    LinkCapabilities caps;
    caps.islBands = {Band::S};
    caps.hasLaserTerminal = true;
    builder_->setCapabilities(sid, caps);
  }
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  for (const LinkId lid : g.links()) {
    EXPECT_EQ(g.link(lid).type, LinkType::IslLaser);
    EXPECT_EQ(g.link(lid).band, Band::Optical);
  }
  // preferLaser=false keeps them RF even when capable.
  opt.preferLaser = false;
  const NetworkGraph gRf = builder_->snapshot(0.0, opt);
  for (const LinkId lid : gRf.links()) {
    EXPECT_EQ(gRf.link(lid).type, LinkType::IslRf);
  }
}

TEST_F(BuilderTest, GroundAssetsGetLinksWhenVisible) {
  const NodeId gs = builder_->nodeOf(builder_->addGroundStation(
      {"gs", Geodetic::fromDegrees(45.0, 10.0), ProviderId{9}}));
  const NodeId user =
      builder_->addUser({"u", Geodetic::fromDegrees(-20.0, 130.0), ProviderId{9}});
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  EXPECT_EQ(g.nodeCount(), 68u);
  int gsl = 0, ul = 0;
  for (const LinkId lid : g.links()) {
    const Link& l = g.link(lid);
    if (l.type == LinkType::Gsl) {
      ++gsl;
      EXPECT_TRUE(l.a == gs || l.b == gs);
    }
    if (l.type == LinkType::UserLink) {
      ++ul;
      EXPECT_TRUE(l.a == user || l.b == user);
    }
  }
  // A 66-sat polar constellation nearly always covers both sites.
  EXPECT_GE(gsl, 1);
  EXPECT_GE(ul, 1);
}

TEST_F(BuilderTest, ExcludingGroundAssetsWorks) {
  builder_->addGroundStation({"gs", Geodetic::fromDegrees(45.0, 10.0), ProviderId{9}});
  builder_->addUser({"u", Geodetic::fromDegrees(-20.0, 130.0), ProviderId{9}});
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.includeGroundStations = false;
  opt.includeUserLinks = false;
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  EXPECT_EQ(g.nodeCount(), 66u);
}

TEST_F(BuilderTest, ProvidersSurviveIntoSnapshot) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  for (const SatelliteId sid : eph_.satellites()) {
    EXPECT_EQ(g.node(builder_->nodeOf(sid)).provider, eph_.record(sid).owner);
  }
}

TEST_F(BuilderTest, LinkDelayMatchesDistance) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = builder_->snapshot(0.0, opt);
  for (const LinkId lid : g.links()) {
    const Link& l = g.link(lid);
    EXPECT_NEAR(l.propagationDelayS, l.distanceM / kSpeedOfLightMps, 1e-12);
    EXPECT_GT(l.capacityBps, 0.0);
  }
}

// --- builder vs the executable spec -----------------------------------------

/// snapshot() must equal legacy::topologySnapshot node for node and link
/// for link: ids, kinds, providers, names, endpoints, types, bands and the
/// bits of every payload double.
void expectSameSnapshot(const NetworkGraph& got, const NetworkGraph& want) {
  ASSERT_EQ(got.nodes(), want.nodes());
  for (const NodeId id : want.nodes()) {
    const Node& a = got.node(id);
    const Node& b = want.node(id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.provider, b.provider);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.satellite, b.satellite);
  }
  ASSERT_EQ(got.links(), want.links());
  for (const LinkId id : want.links()) {
    const Link& a = got.link(id);
    const Link& b = want.link(id);
    ASSERT_EQ(a.a, b.a) << "link " << id.value();
    ASSERT_EQ(a.b, b.b) << "link " << id.value();
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.band, b.band);
    EXPECT_EQ(bitsOf(a.distanceM), bitsOf(b.distanceM));
    EXPECT_EQ(bitsOf(a.propagationDelayS), bitsOf(b.propagationDelayS));
    EXPECT_EQ(bitsOf(a.queueingDelayS), bitsOf(b.queueingDelayS));
    EXPECT_EQ(bitsOf(a.capacityBps), bitsOf(b.capacityBps));
  }
}

class SnapshotVsSpec
    : public ::testing::TestWithParam<std::tuple<IslWiring, std::uint64_t>> {};

TEST_P(SnapshotVsSpec, BuilderEqualsLegacySnapshot) {
  const auto [wiring, seed] = GetParam();
  Rng rng(seed);
  EphemerisService eph;
  WalkerConfig cfg;
  cfg.planes = 4 + static_cast<int>(seed % 3);
  cfg.totalSatellites = cfg.planes * (5 + static_cast<int>(seed % 4));
  cfg.phasing = static_cast<int>(seed % static_cast<std::uint64_t>(cfg.planes));
  cfg.altitudeM = rng.uniform(km(500.0), km(1200.0));
  cfg.inclinationRad = rng.uniform(deg2rad(50.0), deg2rad(90.0));
  const auto els = seed % 2 == 0 ? makeWalkerStar(cfg) : makeWalkerDelta(cfg);
  for (const auto& el : els) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  for (const SatelliteId sid : eph.satellites()) {
    if (!rng.chance(0.5)) continue;
    LinkCapabilities caps;
    caps.islBands = {Band::S};
    caps.hasLaserTerminal = true;
    topo.setCapabilities(sid, caps);
  }
  for (int i = 0; i < 3; ++i) {
    topo.addGroundStation({"gw" + std::to_string(i), rng.surfacePoint(), ProviderId{2}});
    topo.addUser({"u" + std::to_string(i), rng.surfacePoint(), ProviderId{3}});
  }
  for (const bool seam : {false, true}) {
    SnapshotOptions opt;
    opt.wiring = wiring;
    opt.planes = cfg.planes;
    opt.interPlaneSeam = seam;
    opt.nearestK = static_cast<int>(rng.uniformInt(1, 6));
    opt.maxIslRangeM = rng.uniform(km(2500.0), km(6000.0));
    // A zero mask exercises the horizon itself; a positive one the
    // enumerator's horizon prefilter.
    opt.minElevationRad = seam ? deg2rad(rng.uniform(5.0, 25.0)) : 0.0;
    opt.preferLaser = rng.chance(0.8);
    for (int k = 0; k < 4; ++k) {
      const double t = rng.uniform(0.0, 6000.0);
      SCOPED_TRACE("seam=" + std::to_string(seam) + " t=" + std::to_string(t));
      expectSameSnapshot(topo.snapshot(t, opt),
                         legacy::topologySnapshot(topo, t, opt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, SnapshotVsSpec,
    ::testing::Combine(::testing::Values(IslWiring::PlusGrid,
                                         IslWiring::NearestNeighbors,
                                         IslWiring::AllInRange),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Capacity, LaserBeatsRfAndDecaysWithDistance) {
  EXPECT_GT(islCapacityBps(2000e3, true), islCapacityBps(2000e3, false));
  EXPECT_GE(islCapacityBps(1000e3, false), islCapacityBps(5000e3, false));
  // Beyond some distance the RF MODCOD ladder no longer closes.
  EXPECT_EQ(islCapacityBps(50'000e3, false), 0.0);
}

TEST(Capacity, GroundLinksCloseAtLeoSlantRanges) {
  EXPECT_GT(gslCapacityBps(2000e3, deg2rad(20.0)), 0.0);
  EXPECT_GT(userLinkCapacityBps(2000e3, deg2rad(20.0)), 0.0);
  // Ground station (big dish) out-performs the user terminal.
  EXPECT_GT(gslCapacityBps(2000e3, deg2rad(20.0)),
            userLinkCapacityBps(2000e3, deg2rad(20.0)));
}

}  // namespace
}  // namespace openspace
