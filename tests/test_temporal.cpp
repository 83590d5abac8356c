// Unit tests for time-expanded contact-graph routing (store-carry-forward
// over the predictable topology).
#include <gtest/gtest.h>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/routing/temporal.hpp>

namespace openspace {
namespace {

SnapshotOptions denseOpts() {
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  return opt;
}

class DenseConstellation : public ::testing::Test {
 protected:
  DenseConstellation() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) eph_.publish(ProviderId{1}, el);
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    user_ = topo_->addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{1}});
    gw_ = topo_->nodeOf(topo_->addGroundStation(
        {"gw", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  NodeId user_ = {}, gw_ = NodeId{0};
};

TEST_F(DenseConstellation, ImmediateDeliveryWhenPathExists) {
  const ContactGraphRouter router(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  const TemporalRoute r = router.earliestArrival(user_, gw_, 0.0);
  ASSERT_TRUE(r.reachable);
  // Dense constellation: delivery within the first interval, no waiting.
  EXPECT_EQ(r.intervalsUsed, 1);
  EXPECT_NEAR(r.waitingS, 0.0, 1e-6);
  EXPECT_GT(r.hops, 0);
  // Arrival time equals the instantaneous shortest path delay.
  const NetworkGraph g = topo_->snapshot(0.0, denseOpts());
  const Route instant = RouteEngine(g, latencyCost()).shortestPath(user_, gw_);
  ASSERT_TRUE(instant.valid());
  EXPECT_NEAR(r.totalDelayS(), instant.totalDelayS(), 1e-6);
}

TEST_F(DenseConstellation, LaterStartUsesLaterSnapshot) {
  const ContactGraphRouter router(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  const TemporalRoute r = router.earliestArrival(user_, gw_, 250.0);
  ASSERT_TRUE(r.reachable);
  EXPECT_GE(r.arrivalS, 250.0);
  EXPECT_DOUBLE_EQ(r.departureS, 250.0);
}

TEST_F(DenseConstellation, Validation) {
  EXPECT_THROW(ContactGraphRouter(*topo_, denseOpts(), 0.0, 0.0, 60.0),
               InvalidArgumentError);
  EXPECT_THROW(ContactGraphRouter(*topo_, denseOpts(), 0.0, 600.0, 0.0),
               InvalidArgumentError);
  const ContactGraphRouter router(*topo_, denseOpts(), 0.0, 120.0, 60.0);
  EXPECT_THROW(router.earliestArrival(user_, NodeId{9999}, 0.0), NotFoundError);
}

class SparseConstellation : public ::testing::Test {
 protected:
  SparseConstellation() {
    // Two satellites in one polar plane, half an orbit apart: never in
    // mutual line of sight, each passes over both sites in turn.
    eph_.publish(ProviderId{1}, OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.0,
                                              0.0));
    eph_.publish(ProviderId{1}, OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.0,
                                              std::numbers::pi));
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    // Two sites under the orbital plane, well separated along the track.
    siteA_ = topo_->addUser({"a", Geodetic::fromDegrees(0.0, 0.0), ProviderId{1}});
    siteB_ = topo_->nodeOf(topo_->addGroundStation(
        {"b", Geodetic::fromDegrees(60.0, 0.0), ProviderId{2}}));
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  NodeId siteA_{}, siteB_{};
};

TEST_F(SparseConstellation, NoInstantaneousPathExists) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::AllInRange;
  opt.minElevationRad = deg2rad(10.0);
  bool everInstant = false;
  for (double t = 0.0; t < 6'000.0; t += 100.0) {
    const NetworkGraph g = topo_->snapshot(t, opt);
    if (RouteEngine(g, latencyCost()).shortestPath(siteA_, siteB_).valid()) {
      everInstant = true;
      break;
    }
  }
  // Sites 60 degrees apart exceed a single 780 km footprint, and the two
  // satellites never link: no instantaneous path at any time.
  EXPECT_FALSE(everInstant);
}

TEST_F(SparseConstellation, StoreCarryForwardDelivers) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::AllInRange;
  opt.minElevationRad = deg2rad(10.0);
  // Horizon: one orbital period (~100 min) sampled every 60 s.
  const ContactGraphRouter router(*topo_, opt, 0.0, 6'100.0, 60.0);
  const TemporalRoute r = router.earliestArrival(siteA_, siteB_, 0.0);
  ASSERT_TRUE(r.reachable);
  // Delivery required waiting for orbital motion: whole minutes, not ms.
  EXPECT_GT(r.waitingS, 60.0);
  EXPECT_GT(r.intervalsUsed, 1);
  EXPECT_GE(r.hops, 2);  // up to a satellite, later down to the station
  EXPECT_LT(r.inFlightS, 1.0);
  EXPECT_GT(r.arrivalS, r.departureS);
}

TEST_F(SparseConstellation, UnreachableBeyondHorizon) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::AllInRange;
  opt.minElevationRad = deg2rad(10.0);
  // A 2-minute horizon is too short for orbital motion to bridge the gap.
  const ContactGraphRouter router(*topo_, opt, 0.0, 120.0, 60.0);
  const TemporalRoute r = router.earliestArrival(siteA_, siteB_, 0.0);
  EXPECT_FALSE(r.reachable);
}

// --- Pinned routes and the snapshot cache ---------------------------------

TEST_F(DenseConstellation, DeltaAndFreshBuildsRouteIdentically) {
  // Pinned to what a full snapshot() + compileGraph() per interval gave
  // before the router's per-interval graphs came only from
  // IncrementalTopology: the graphs are bit-identical (test_topology_delta),
  // so the labels are too.
  struct Expected {
    double tStart;
    std::uint64_t arrivalBits;
    int hops;
    int intervalsUsed;
  };
  const ContactGraphRouter router(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  for (const Expected& want : {Expected{0.0, 0x3fa646971ff4244eull, 6, 1},
                               Expected{90.0, 0x4056837959086082ull, 7, 1},
                               Expected{250.0, 0x406f418ca46e6696ull, 7, 1},
                               Expected{599.0, 0x4082b859e5c63a0aull, 6, 1}}) {
    const TemporalRoute r = router.earliestArrival(user_, gw_, want.tStart);
    ASSERT_TRUE(r.reachable) << "tStart=" << want.tStart;
    EXPECT_EQ(bitsOf(r.arrivalS), want.arrivalBits) << "tStart=" << want.tStart;
    EXPECT_EQ(r.hops, want.hops) << "tStart=" << want.tStart;
    EXPECT_EQ(r.intervalsUsed, want.intervalsUsed) << "tStart=" << want.tStart;
  }
}

TEST_F(DenseConstellation, RepeatedSweepsHitTheSnapshotCache) {
  SnapshotCache& cache = SnapshotCache::global();
  cache.clear();
  const ContactGraphRouter first(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  const std::size_t missesAfterFirst = cache.misses();
  const std::size_t hitsAfterFirst = cache.hits();
  EXPECT_GE(missesAfterFirst, 10u);  // one propagation per interval
  // A second sweep over the same grid re-uses every cached snapshot.
  const ContactGraphRouter second(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  EXPECT_EQ(cache.misses(), missesAfterFirst);
  EXPECT_GE(cache.hits(), hitsAfterFirst + 10u);
}

// --- Interval-boundary semantics -------------------------------------------

class SinglePassConstellation : public ::testing::Test {
 protected:
  SinglePassConstellation() {
    // One polar satellite passing over two nearby equatorial sites around
    // t=0; once it moves down-track the contact is gone for the rest of
    // the orbit (~100 min).
    eph_.publish(ProviderId{1},
                 OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.0, 0.0));
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    user_ = topo_->addUser({"u", Geodetic::fromDegrees(0.0, 0.0), ProviderId{1}});
    gw_ = topo_->nodeOf(topo_->addGroundStation(
        {"gw", Geodetic::fromDegrees(3.0, 0.5), ProviderId{2}}));
  }
  static SnapshotOptions opts() {
    SnapshotOptions opt;
    opt.wiring = IslWiring::AllInRange;
    opt.minElevationRad = deg2rad(10.0);
    return opt;
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  NodeId user_{}, gw_{};
};

TEST_F(SinglePassConstellation, PathValidInOneIntervalBrokenInTheNext) {
  // Interval grid of 5 minutes: the pass lives in interval 0; by interval
  // 2 the satellite is thousands of km down-track.
  const ContactGraphRouter router(*topo_, opts(), 0.0, 1'500.0, 300.0);
  const TemporalRoute during = router.earliestArrival(user_, gw_, 0.0);
  ASSERT_TRUE(during.reachable);
  EXPECT_EQ(during.intervalsUsed, 1);
  // Departing after the contact closed: the remaining horizon never
  // re-establishes the pass, so the same query is now unreachable.
  const TemporalRoute after = router.earliestArrival(user_, gw_, 600.0);
  EXPECT_FALSE(after.reachable);
}

TEST_F(DenseConstellation, DepartureExactlyAtIntervalEdge) {
  // tStart == the edge between intervals [0,60) and [60,120). The closing
  // interval still participates (its end is not strictly before the
  // departure) but cannot transmit — any positive-delay arrival overshoots
  // its end — so delivery happens in the next interval with zero waiting,
  // at the instantaneous shortest-path delay of the t=60 snapshot.
  const ContactGraphRouter router(*topo_, denseOpts(), 0.0, 600.0, 60.0);
  const TemporalRoute r = router.earliestArrival(user_, gw_, 60.0);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.intervalsUsed, 2);
  EXPECT_NEAR(r.waitingS, 0.0, 1e-9);
  const NetworkGraph g = topo_->snapshot(60.0, denseOpts());
  const Route instant = RouteEngine(g, latencyCost()).shortestPath(user_, gw_);
  ASSERT_TRUE(instant.valid());
  EXPECT_NEAR(r.totalDelayS(), instant.totalDelayS(), 1e-9);
}

TEST_F(SparseConstellation, EarliestArrivalIsMonotoneInStartTime) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::AllInRange;
  opt.minElevationRad = deg2rad(10.0);
  const ContactGraphRouter router(*topo_, opt, 0.0, 6'100.0, 60.0);
  const TemporalRoute early = router.earliestArrival(siteA_, siteB_, 0.0);
  const TemporalRoute later = router.earliestArrival(siteA_, siteB_, 300.0);
  ASSERT_TRUE(early.reachable);
  if (later.reachable) {
    EXPECT_GE(later.arrivalS, early.arrivalS - 1e-6);
  }
}

}  // namespace
}  // namespace openspace
